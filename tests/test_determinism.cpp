/// \file test_determinism.cpp
/// README "Concurrency model & determinism": a (case, seed) pair determines
/// every layout, route, and metric. These tests run complete flows twice
/// and require byte-identical serializations — the strongest equality the
/// I/O layer can express.

#include <gtest/gtest.h>

#include "baseline/dac12_router.hpp"
#include "baseline/decomposer.hpp"
#include "baseline/plain_router.hpp"
#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "global/global_router.hpp"
#include "io/design_io.hpp"
#include "io/solution_io.hpp"
#include "support/builders.hpp"

namespace mrtpl {
namespace {

benchgen::CaseSpec spec_of(std::uint64_t seed) {
  return test::sized_case(40, 55, seed);
}

class DeterminismSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismSweep, GenerationIsDeterministic) {
  const db::Design a = benchgen::generate(spec_of(GetParam()));
  const db::Design b = benchgen::generate(spec_of(GetParam()));
  EXPECT_EQ(io::design_to_string(a), io::design_to_string(b));
}

TEST_P(DeterminismSweep, MrTplFlowIsDeterministic) {
  const db::Design design = benchgen::generate(spec_of(GetParam()));
  auto run_once = [&design] {
    global::GlobalRouter gr(design);
    const global::GuideSet guides = gr.route_all();
    grid::RoutingGrid grid(design);
    core::MrTplRouter router(design, &guides, core::RouterConfig{});
    const grid::Solution sol = router.run(grid);
    return io::solution_to_string(grid, sol);
  };
  EXPECT_EQ(run_once(), run_once()) << "seed " << GetParam();
}

TEST_P(DeterminismSweep, Dac12FlowIsDeterministic) {
  const db::Design design = benchgen::generate(spec_of(GetParam()));
  auto run_once = [&design] {
    grid::RoutingGrid grid(design);
    core::RouterConfig cfg;
    cfg.rrr_on_color_conflicts = false;
    baseline::Dac12Router router(design, nullptr, cfg);
    const grid::Solution sol = router.run(grid);
    return io::solution_to_string(grid, sol);
  };
  EXPECT_EQ(run_once(), run_once()) << "seed " << GetParam();
}

TEST_P(DeterminismSweep, DecomposeFlowIsDeterministic) {
  const db::Design design = benchgen::generate(spec_of(GetParam()));
  auto run_once = [&design] {
    grid::RoutingGrid grid(design);
    const grid::Solution sol = baseline::route_plain(design, nullptr, grid);
    baseline::decompose(grid, sol);
    return io::solution_to_string(grid, sol);
  };
  EXPECT_EQ(run_once(), run_once()) << "seed " << GetParam();
}

TEST_P(DeterminismSweep, DifferentSeedsDiffer) {
  // Sanity that the equality above isn't vacuous: a different seed must
  // produce a different design.
  const db::Design a = benchgen::generate(spec_of(GetParam()));
  const db::Design b = benchgen::generate(spec_of(GetParam() + 1));
  EXPECT_NE(io::design_to_string(a), io::design_to_string(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep, ::testing::Values(10, 20, 30));

/// The parallel executor pins a bar stronger than run-to-run stability:
/// every (shard_tiles, rrr_threads) configuration of the tile-sharded
/// executor (core/sharded_router.cpp) must serialize byte-identically to
/// the unsharded serial reference. Tile ownership,
/// per-tile GridView compute and the hazard-indexed reconciliation walk
/// must all be invisible in the output.
class ShardSweepDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardSweepDeterminism, AnyTileThreadConfigMatchesSerialReference) {
  const db::Design design = benchgen::generate(spec_of(GetParam()));
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  auto run_with = [&](int tiles, int threads) {
    grid::RoutingGrid grid(design);
    core::RouterConfig cfg;
    cfg.shard_tiles = tiles;
    cfg.rrr_threads = threads;
    core::MrTplRouter router(design, &guides, cfg);
    const grid::Solution sol = router.run(grid);
    return io::solution_to_string(grid, sol);
  };
  const std::string reference = run_with(1, 1);
  for (const int tiles : {1, 4, 16}) {
    for (const int threads : {1, 2, 8}) {
      EXPECT_EQ(run_with(tiles, threads), reference)
          << "tiles " << tiles << " threads " << threads << " seed "
          << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSweepDeterminism,
                         ::testing::Values(10, 20, 30));

/// Every ablation toggle of RouterConfig, and every combination of the
/// boolean ones, must leave the router fully deterministic: two
/// back-to-back runs on fresh grids serialize byte-identically.
class ConfigDeterminism : public ::testing::TestWithParam<int> {
 protected:
  static core::RouterConfig config_of(int bits) {
    core::RouterConfig cfg;
    cfg.rrr_on_color_conflicts = (bits & 1) != 0;
    cfg.set_based_states = (bits & 2) != 0;
    cfg.enable_coloring = (bits & 4) != 0;
    cfg.use_astar = (bits & 8) != 0;
    if ((bits & 16) != 0) {  // the A2 weight-override sweep
      cfg.beta_override = 0.5;
      cfg.gamma_override = 3.0;
    }
    if ((bits & 32) != 0) cfg.max_rrr_iterations = 1;
    return cfg;
  }
};

TEST_P(ConfigDeterminism, MrTplRunIsByteIdentical) {
  const db::Design design = benchgen::generate(spec_of(77));
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  auto run_once = [&](int tiles, int threads) {
    core::RouterConfig cfg = config_of(GetParam());
    cfg.shard_tiles = tiles;
    cfg.rrr_threads = threads;
    grid::RoutingGrid grid(design);
    core::MrTplRouter router(design, &guides, cfg);
    const grid::Solution sol = router.run(grid);
    return io::solution_to_string(grid, sol);
  };
  const std::string serial = run_once(1, 1);
  EXPECT_EQ(serial, run_once(1, 1)) << "config bits " << GetParam();
  // The tiled executor must be invisible under every toggle combo.
  EXPECT_EQ(serial, run_once(4, 8))
      << "config bits " << GetParam() << " tiles 4 threads 8";
}

// Bits 0-15 cover every combination of the four boolean toggles; 16-47
// repeat them under the weight overrides and a single-iteration RRR cap.
INSTANTIATE_TEST_SUITE_P(AllToggles, ConfigDeterminism, ::testing::Range(0, 48));

}  // namespace
}  // namespace mrtpl
