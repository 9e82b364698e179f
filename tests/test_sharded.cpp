/// \file test_sharded.cpp
/// The tile-sharded executor (core::ShardedRouter / route_tiles):
/// TilePlan partition/ownership invariants, and the headline contract —
/// the sharded solution is byte-identical to the unsharded serial run for
/// every (tiles, threads) configuration.

#include <gtest/gtest.h>

#include <numeric>
#include <optional>

#include "benchgen/generator.hpp"
#include "core/sharded_router.hpp"
#include "global/global_router.hpp"
#include "io/solution_io.hpp"
#include "scenario/scenario.hpp"
#include "shard/tile_plan.hpp"
#include "support/builders.hpp"

namespace mrtpl {
namespace {

TEST(TilePlan, PartitionCoversDieDisjointly) {
  const geom::Rect die{0, 0, 99, 79};
  for (const int tiles : {1, 4, 9, 16, 25}) {
    const shard::TilePlan plan(die, tiles);
    std::int64_t area = 0;
    for (int t = 0; t < plan.num_tiles(); ++t) {
      const geom::Rect& r = plan.tile(t);
      ASSERT_TRUE(r.valid());
      EXPECT_TRUE(die.contains(r));
      area += r.area();
      for (int u = t + 1; u < plan.num_tiles(); ++u)
        EXPECT_FALSE(r.overlaps(plan.tile(u))) << "tiles " << t << "," << u;
    }
    EXPECT_EQ(area, die.area()) << "request " << tiles;
  }
}

TEST(TilePlan, GridDimIsFloorSqrtOfRequest) {
  const geom::Rect die{0, 0, 199, 199};
  EXPECT_EQ(shard::TilePlan(die, 1).grid_dim(), 1);
  EXPECT_EQ(shard::TilePlan(die, 3).grid_dim(), 1);
  EXPECT_EQ(shard::TilePlan(die, 4).grid_dim(), 2);
  EXPECT_EQ(shard::TilePlan(die, 8).grid_dim(), 2);
  EXPECT_EQ(shard::TilePlan(die, 16).grid_dim(), 4);
  EXPECT_EQ(shard::TilePlan(die, 0).grid_dim(), 1);   // degenerate request
  EXPECT_EQ(shard::TilePlan(die, -5).grid_dim(), 1);
}

TEST(TilePlan, ClampsToTinyDies) {
  // A 2-track die cannot host a 4x4 grid; no tile may be empty.
  const shard::TilePlan plan({0, 0, 1, 9}, 16);
  EXPECT_EQ(plan.grid_dim(), 2);
  for (int t = 0; t < plan.num_tiles(); ++t)
    EXPECT_TRUE(plan.tile(t).valid());
}

TEST(TilePlan, OwnershipRule) {
  const geom::Rect die{0, 0, 99, 99};
  const shard::TilePlan plan(die, 4);  // 2x2, split at x=50 / y=50
  // Fully inside tile 0 even after halo inflation.
  EXPECT_EQ(plan.owner_of({10, 10, 20, 20}, 2), 0);
  // Inflation pushes the window across the split: boundary.
  EXPECT_EQ(plan.owner_of({10, 10, 48, 20}, 2), shard::TilePlan::kBoundary);
  // Straddling the split outright: boundary.
  EXPECT_EQ(plan.owner_of({40, 40, 60, 60}, 0), shard::TilePlan::kBoundary);
  // Other quadrants resolve to their tiles (row-major order).
  EXPECT_EQ(plan.owner_of({60, 10, 70, 20}, 2), 1);
  EXPECT_EQ(plan.owner_of({10, 60, 20, 70}, 2), 2);
  EXPECT_EQ(plan.owner_of({60, 60, 70, 70}, 2), 3);
  // Windows poking past the die clip first; a die-hugging corner window
  // stays interior.
  EXPECT_EQ(plan.owner_of({-5, -5, 10, 10}, 2), 0);
  // Ownership ignores the halo where the die already clips it.
  EXPECT_EQ(plan.owner_of({0, 0, 49, 49}, 0), 0);
  EXPECT_EQ(plan.owner_of({0, 0, 49, 49}, 1), shard::TilePlan::kBoundary);
}

TEST(ShardedRouter, NormalizesConfig) {
  const db::Design design = benchgen::generate(test::sized_case(24, 8, 3));
  core::RouterConfig cfg;
  cfg.shard_tiles = 0;
  core::ShardedRouter a(design, nullptr, cfg);
  EXPECT_EQ(a.config().shard_tiles, 1);
  EXPECT_EQ(a.config().rrr_threads, 1);  // no sharding, no forced pool
  cfg.shard_tiles = 9;
  core::ShardedRouter b(design, nullptr, cfg);
  EXPECT_EQ(b.config().shard_tiles, 9);
  EXPECT_GE(b.config().rrr_threads, 2) << "sharding is inert without a pool";
  EXPECT_EQ(b.plan().grid_dim(), 3);
}

/// Route `design` at (tiles, threads); returns the serialized solution.
std::string route_text(const db::Design& design, const global::GuideSet& guides,
                       int tiles, int threads, core::RouterStats* stats) {
  grid::RoutingGrid grid(design);
  core::RouterConfig cfg;
  cfg.shard_tiles = tiles;
  cfg.rrr_threads = threads;
  core::MrTplRouter router(design, &guides, cfg);
  const grid::Solution sol = router.run(grid);
  *stats = router.stats();
  return io::solution_to_string(grid, sol);
}

/// The headline byte-identity contract, on a die large enough that the
/// 2x2 plan actually classifies interior nets (margin 6 + halo windows
/// need room inside a tile; the 4x4 plan leaves every net boundary). The
/// applied-relaxations ledger is pinned alongside: per-pass entries sum
/// to the total, and the total is the same for every configuration
/// (discarded speculation never counts).
class ShardSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardSweep, EveryTileThreadConfigMatchesSerialReference) {
  const db::Design design = benchgen::generate(test::sized_case(96, 110, GetParam()));
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  core::RouterStats ref_stats;
  const std::string reference = route_text(design, guides, 1, 1, &ref_stats);
  ASSERT_GT(ref_stats.relaxations, 0u);
  for (const int tiles : {1, 4, 16}) {
    std::optional<core::RouterStats> pooled;  // first config with a pool
    for (const int threads : {1, 2, 8}) {
      core::RouterStats stats;
      EXPECT_EQ(route_text(design, guides, tiles, threads, &stats), reference)
          << "tiles " << tiles << " threads " << threads << " seed "
          << GetParam();
      EXPECT_EQ(std::accumulate(stats.relaxations_per_pass.begin(),
                                stats.relaxations_per_pass.end(), std::uint64_t{0}),
                stats.relaxations)
          << "tiles " << tiles << " threads " << threads;
      EXPECT_EQ(stats.relaxations, ref_stats.relaxations)
          << "tiles " << tiles << " threads " << threads;
      // Each view is cut at the serial prefix of its tile's first slot, so
      // what the tiles compute, and what the walk redoes, depends on the
      // tile count alone. One thread has no pool and speculates nothing.
      if (threads == 1 || tiles == 1) {
        EXPECT_EQ(stats.speculated, 0) << "tiles " << tiles << " threads " << threads;
        EXPECT_EQ(stats.respeculated, 0) << "tiles " << tiles << " threads " << threads;
        EXPECT_EQ(stats.wasted_relaxations, 0u)
            << "tiles " << tiles << " threads " << threads;
      } else if (!pooled) {
        pooled = stats;
      } else {
        EXPECT_EQ(stats.speculated, pooled->speculated)
            << "tiles " << tiles << " threads " << threads;
        EXPECT_EQ(stats.respeculated, pooled->respeculated)
            << "tiles " << tiles << " threads " << threads;
        EXPECT_EQ(stats.wasted_relaxations, pooled->wasted_relaxations)
            << "tiles " << tiles << " threads " << threads;
      }
    }
  }
  // The facade drives the same executor, at the plan with interior nets.
  grid::RoutingGrid grid(design);
  core::RouterConfig cfg;
  cfg.shard_tiles = 4;
  core::ShardedRouter router(design, &guides, cfg);
  const grid::Solution sol = router.run(grid);
  EXPECT_EQ(io::solution_to_string(grid, sol), reference);
  EXPECT_GT(router.stats().speculated, 0);
  EXPECT_GE(router.stats().speculated, router.stats().respeculated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSweep, ::testing::Values(11, 21));

/// Tiles are the only speculation: boundary nets are routed in the commit
/// walk against the exact serial-prefix grid. On a plan where no net fits
/// a tile (the quick production die at 4x4), a tiled run therefore
/// speculates nothing and wastes no search, yet still matches serial.
TEST(ShardedRouter, AllBoundaryPlanSpeculatesNothing) {
  const scenario::ScenarioSpec* sc =
      scenario::ScenarioRegistry::builtin().find("production_grid_10k");
  ASSERT_NE(sc, nullptr);
  const db::Design design = benchgen::generate(sc->spec(/*quick_mode=*/true));
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  core::RouterStats serial_stats, tiled_stats;
  const std::string serial = route_text(design, guides, 1, 1, &serial_stats);
  EXPECT_EQ(route_text(design, guides, 16, 4, &tiled_stats), serial);
  EXPECT_EQ(tiled_stats.speculated, 0);
  EXPECT_EQ(tiled_stats.respeculated, 0);
  EXPECT_EQ(tiled_stats.wasted_relaxations, 0u);
  EXPECT_EQ(tiled_stats.relaxations, serial_stats.relaxations);
}

}  // namespace
}  // namespace mrtpl
