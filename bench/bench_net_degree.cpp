/// \file bench_net_degree.cpp
/// The paper's central claim, isolated: 2-pin TPL routing "cannot
/// dynamically adjust the already-colored paths when connecting multiple
/// pins" (Fig. 1(c)), so its stitch and conflict penalty must *grow with
/// net degree* while Mr.TPL's stays flat. This bench sweeps uniform-degree
/// netlists (every net exactly k pins, k = 2..8) through both routers and
/// prints the per-degree series. At k = 2 the methods should be close —
/// the baseline is a competent 2-pin router — and the gap should open as
/// k grows.

#include <cstdio>

#include "eval/report.hpp"
#include "flow.hpp"
#include "util/strings.hpp"

int main() {
  using namespace mrtpl;
  std::printf("== Net-degree sweep: stitches/conflicts vs pins-per-net "
              "(Fig. 1(c) quantified) ==\n\n");

  eval::Table table({"pins/net", "nets", "conflict[5]", "conflict", "stitch[5]",
                     "stitch", "stitch/net[5]", "stitch/net"});

  for (const int degree : {2, 3, 4, 5, 6, 8}) {
    benchgen::CaseSpec spec;
    spec.name = "degree" + std::to_string(degree);
    spec.width = spec.height = 96;
    // Hold total pin count roughly constant so congestion stays
    // comparable across the sweep: nets * degree ~ 600.
    spec.num_nets = 600 / degree;
    spec.min_pins = spec.max_pins = degree;
    spec.num_macros = 4;
    spec.local_net_fraction = 0.7;
    spec.local_span = 20;
    spec.seed = 4200u + static_cast<std::uint64_t>(degree);

    std::fprintf(stderr, "[degree] %d pins/net ...\n", degree);
    const bench::CaseContext ctx = bench::prepare_case(spec);
    const bench::FlowResult base = bench::run_dac12(ctx);
    const bench::FlowResult ours = bench::run_mrtpl(ctx);

    // The generator may place fewer nets than the spec asks for; report
    // (and normalize by) the nets actually routed.
    const int nets = ctx.design.num_nets();
    const double n = nets;
    table.add_row({std::to_string(degree), std::to_string(nets),
                   std::to_string(base.metrics.conflicts),
                   std::to_string(ours.metrics.conflicts),
                   std::to_string(base.metrics.stitches),
                   std::to_string(ours.metrics.stitches),
                   util::fixed(base.metrics.stitches / n, 3),
                   util::fixed(ours.metrics.stitches / n, 3)});
  }
  table.print();
  std::printf("\nexpected shape: baseline stitch/net grows with degree "
              "(one junction risk per extra pin); Mr.TPL stays near zero.\n");
  return 0;
}
