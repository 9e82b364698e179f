/// \file bench_search_micro.cpp
/// Micro-benchmark **M1**: search-kernel throughput.
///
/// Two modes:
///
///  * default (google-benchmark): Mr.TPL's single-label color-state
///    search vs the DAC-2012 12-node expanded graph on identical
///    single-net instances — the mechanical source of Table II's runtime
///    column (label-space size). All google-benchmark flags pass through.
///
///  * `--compare [--thresholds FILE]`: the production hot path on the
///    die-112 scaling recipe. Routes it twice, aborts unless the two
///    serialized solutions are byte-identical, and reports the faster
///    round's reroute time, relaxation count and ns per relaxation. When
///    a thresholds file is given it FAILS (exit 1) if either number
///    regresses past the recorded bounds. CI's perf-smoke job runs this
///    against bench/perf_thresholds.json.
///
///    Thresholds file (flat JSON, hand-parsed):
///      {"max_ns_per_relaxation": <ceiling on reroute_s / relaxations>,
///       "max_relaxations": <ceiling on the relaxation count>}
///    max_ns_per_relaxation gates the cost of one relaxation in wall
///    time; max_relaxations is an exact deterministic count recorded at
///    1.1x the measured value, so any >10% search-effort regression fails
///    even when timings are too noisy to.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "baseline/dac12_router.hpp"
#include "core/mrtpl_router.hpp"
#include "db/design.hpp"
#include "flow.hpp"
#include "io/solution_io.hpp"

#ifdef MRTPL_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace mrtpl;

db::Design span_design(int span) {
  db::Design d("micro", db::Tech::make_default(4, 2), {0, 0, 127, 127});
  const db::NetId n = d.add_net("n");
  db::Pin p;
  p.layer = 0;
  p.shapes = {{4, 64, 4, 64}};
  d.add_pin(n, p);
  p.shapes = {{4 + span, 64, 4 + span, 64}};
  d.add_pin(n, p);
  p.shapes = {{4 + span / 2, 64 - span / 3, 4 + span / 2, 64 - span / 3}};
  d.add_pin(n, p);
  d.validate();
  return d;
}

#ifdef MRTPL_HAVE_GOOGLE_BENCHMARK
void BM_MrTplSearch(benchmark::State& state) {
  const db::Design d = span_design(static_cast<int>(state.range(0)));
  core::RouterConfig cfg;
  for (auto _ : state) {
    grid::RoutingGrid g(d);
    core::MrTplRouter router(d, nullptr, cfg);
    core::ColorSearch search(g, cfg);
    benchmark::DoNotOptimize(router.route_net(g, search, 0));
  }
  state.SetLabel("3-pin net, single-label color-state search");
}
BENCHMARK(BM_MrTplSearch)->Arg(16)->Arg(48)->Arg(96)->Unit(benchmark::kMillisecond);

void BM_Dac12Search(benchmark::State& state) {
  const db::Design d = span_design(static_cast<int>(state.range(0)));
  core::RouterConfig cfg;
  for (auto _ : state) {
    grid::RoutingGrid g(d);
    baseline::Dac12Router router(d, nullptr, cfg);
    benchmark::DoNotOptimize(router.route_net(g, 0));
  }
  state.SetLabel("3-pin net, 12-node expanded graph");
}
BENCHMARK(BM_Dac12Search)->Arg(16)->Arg(48)->Arg(96)->Unit(benchmark::kMillisecond);
#endif  // MRTPL_HAVE_GOOGLE_BENCHMARK

/// Pull one numeric value out of the flat thresholds JSON. Returns NaN
/// when the key is absent.
double parse_threshold(const std::string& text, const char* key) {
  const auto pos = text.find(std::string{"\""} + key + "\"");
  if (pos == std::string::npos) return std::nan("");
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

struct CompareRun {
  core::RouterStats stats;
  std::string serialized;
};

int run_compare(const char* thresholds_path) {
  // The die-112 recipe: the largest standard case.
  benchgen::CaseSpec spec;
  spec.name = "rrr112";
  spec.width = spec.height = 112;
  spec.num_nets = 112 * 112 / 38;
  spec.num_macros = 112 / 24;
  spec.seed = 9000u + 112u;
  const bench::CaseContext ctx = bench::prepare_case(spec);
  std::fprintf(stderr, "[search_micro] --compare: die 112x112, %d nets\n",
               ctx.design.num_nets());

  auto route = [&ctx] {
    grid::RoutingGrid grid(ctx.design);
    core::MrTplRouter router(ctx.design, &ctx.guides, core::RouterConfig{});
    const grid::Solution sol = router.run(grid);
    return CompareRun{router.stats(), io::solution_to_string(grid, sol)};
  };

  // Two timed rounds; keep the faster so one scheduler hiccup can't
  // decide the gate.
  CompareRun run = route();
  const CompareRun second = route();
  if (second.serialized != run.serialized) {
    std::fprintf(stderr,
                 "[search_micro] FATAL: two routes of one design diverged\n");
    return 2;
  }
  if (second.stats.reroute_s < run.stats.reroute_s) run = second;

  const double ns_per_relax =
      run.stats.reroute_s * 1e9 / static_cast<double>(run.stats.relaxations);
  std::printf(
      "{\"bench\":\"search_micro_compare\",\"die\":112,\"nets\":%d,"
      "\"reroute_s\":%.6f,\"relaxations\":%llu,"
      "\"ns_per_relaxation\":%.2f,\"identical\":true}\n",
      ctx.design.num_nets(), run.stats.reroute_s,
      static_cast<unsigned long long>(run.stats.relaxations), ns_per_relax);
  std::fflush(stdout);

  if (thresholds_path == nullptr) return 0;
  std::ifstream in(thresholds_path);
  if (!in) {
    std::fprintf(stderr, "[search_micro] cannot read thresholds file %s\n",
                 thresholds_path);
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const double max_ns = parse_threshold(buf.str(), "max_ns_per_relaxation");
  const double max_relax = parse_threshold(buf.str(), "max_relaxations");
  int rc = 0;
  if (max_ns == max_ns && ns_per_relax > max_ns) {
    std::fprintf(stderr,
                 "[search_micro] FAIL: %.2f ns/relaxation above threshold %.2f\n",
                 ns_per_relax, max_ns);
    rc = 1;
  }
  if (max_relax == max_relax &&
      static_cast<double>(run.stats.relaxations) > max_relax) {
    std::fprintf(stderr,
                 "[search_micro] FAIL: relaxations %llu above threshold %.0f\n",
                 static_cast<unsigned long long>(run.stats.relaxations),
                 max_relax);
    rc = 1;
  }
  if (rc == 0)
    std::fprintf(stderr, "[search_micro] thresholds OK (%.2f ns/relaxation)\n",
                 ns_per_relax);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const char* thresholds = nullptr;
  bool compare = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare") == 0) compare = true;
    if (std::strcmp(argv[i], "--thresholds") == 0 && i + 1 < argc)
      thresholds = argv[i + 1];
  }
  if (compare) return run_compare(thresholds);
#ifdef MRTPL_HAVE_GOOGLE_BENCHMARK
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "bench_search_micro: built without google-benchmark; only "
               "--compare mode is available\n");
  return 1;
#endif
}
