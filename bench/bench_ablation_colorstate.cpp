/// \file bench_ablation_colorstate.cpp
/// Ablation **A1** (`RouterConfig::set_based_states`): set-based color
/// states vs single-color commitment during search. The set-based state
/// is the paper's third contribution; disabling it forces the searcher to
/// pick one argmin color per label, which discards tie flexibility and
/// should raise stitch counts (and often conflicts) at equal runtime.

#include <cstdio>
#include <cstring>

#include "eval/report.hpp"
#include "flow.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mrtpl;
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  std::printf("== Ablation A1: set-based color states (paper contribution 3) ==\n\n");

  auto suite = benchgen::ispd2018_suite();
  suite.resize(quick ? 2 : 5);

  eval::Table table({"case", "variant", "conflict", "stitch", "cost", "time(s)"});
  for (const auto& spec : suite) {
    const bench::CaseContext ctx = bench::prepare_case(spec);
    core::RouterConfig set_cfg;
    set_cfg.set_based_states = true;
    const bench::FlowResult with = bench::run_mrtpl(ctx, set_cfg);
    core::RouterConfig single_cfg;
    single_cfg.set_based_states = false;
    const bench::FlowResult without = bench::run_mrtpl(ctx, single_cfg);

    table.add_row({spec.name, "set-based", std::to_string(with.metrics.conflicts),
                   std::to_string(with.metrics.stitches), util::sci(with.metrics.cost),
                   util::fixed(with.runtime_s, 2)});
    table.add_row({"", "single-color", std::to_string(without.metrics.conflicts),
                   std::to_string(without.metrics.stitches),
                   util::sci(without.metrics.cost), util::fixed(without.runtime_s, 2)});
  }
  table.print();
  std::printf("\nexpectation: set-based <= single-color on stitches/conflicts\n");
  return 0;
}
