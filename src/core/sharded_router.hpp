#pragma once
/// \file sharded_router.hpp
/// core::ShardedRouter — the production-scale front door of the tile-
/// sharded executor.
///
/// Execution model of one tiled pass (route_list in mrtpl_router.cpp, with
/// phase A in route_tiles, sharded_router.cpp):
///
///  1. CLASSIFY. The die is partitioned into a K×K shard::TilePlan. A net
///     whose halo-inflated search window fits one tile is *interior* to
///     it; every other net is a *boundary* net. The plan depends only on
///     (die, shard_tiles) — never on thread count.
///  2. COMPUTE (parallel). One task per tile holding interior nets, on
///     util::ThreadPool. A tile task builds a grid::GridView of its rect
///     (O(tile) memory, copy of the pass-start state) and routes its
///     interior nets SEQUENTIALLY in ripped order, committing each result
///     into the view — intra-tile dependencies are exact, not speculative.
///     Nothing commits to the real grid. Tiles are the only speculation.
///  3. COMMIT WALK (serial). One walk in global ripped order — the same
///     per-net loop a serial pass runs. Boundary nets are routed in the
///     commit walk, against the exact serial-prefix grid, so they need no
///     validation. An interior outcome is stale only if a *hazard* — a
///     boundary commit, or an earlier redo that diverged from its
///     speculation — landed inside its read footprint (interior nets of
///     other tiles provably cannot overlap it); stale nets recompute on
///     the spot. Hazard boxes live in a geom::SpatialGrid index, so the
///     walk is O(n · window) rather than an O(n²) commit-log scan.
///
/// Every applied outcome therefore equals the serial loop's, so the final
/// solution is byte-identical for any (tiles, threads) configuration —
/// pinned by test_sharded's ShardSweep and test_determinism's
/// ShardSweepDeterminism over tiles × threads.
///
/// The facade below is a thin, explicitly-sharded MrTplRouter: it owns
/// the tile plan, forces shard_tiles >= 1, and defaults rrr_threads to at
/// least 2 (sharding is inert without a pool).

#include "core/mrtpl_router.hpp"
#include "shard/tile_plan.hpp"

namespace mrtpl::core {

class ShardedRouter {
 public:
  ShardedRouter(const db::Design& design, const global::GuideSet* guides,
                RouterConfig config = {});

  /// Same contracts as MrTplRouter::run.
  grid::Solution run(grid::RoutingGrid& grid);
  grid::Solution run(grid::RoutingGrid& grid, const RouteBudget& budget,
                     RouterCheckpoint* checkpoint = nullptr);

  [[nodiscard]] const RouterStats& stats() const { return router_.stats(); }
  [[nodiscard]] const shard::TilePlan& plan() const { return plan_; }
  [[nodiscard]] const RouterConfig& config() const { return config_; }

 private:
  RouterConfig config_;
  shard::TilePlan plan_;
  MrTplRouter router_;
};

}  // namespace mrtpl::core
