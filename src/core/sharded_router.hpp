#pragma once
/// \file sharded_router.hpp
/// core::ShardedRouter — the production-scale front door of the tile-
/// sharded executor.
///
/// Execution model of one tiled pass (route_tiles in sharded_router.cpp,
/// the commit walk in mrtpl_router.cpp). Steps 2 and 3 overlap: the walk
/// runs on the calling thread while the pool routes the tiles, and the
/// two meet in a shard::TileFeed.
///
///  1. CLASSIFY. The die is partitioned into a K×K shard::TilePlan. A net
///     whose halo-inflated search window fits one tile is *interior* to
///     it; every other net is a *boundary* net. The plan depends only on
///     (die, shard_tiles) — never on thread count. Tiles holding interior
///     nets are dispatched in the order of their first slot (their first
///     net's position in the pass).
///  2. COMPUTE (parallel). One task per tile, on util::ThreadPool. A task
///     waits until the walk reaches its tile's first slot, then builds a
///     grid::GridView of its rect — O(tile) memory, a copy of the serial
///     prefix at that slot, since the walk mutates nothing until the slot
///     is published — and routes its interior nets SEQUENTIALLY in ripped
///     order, committing each result into the view (intra-tile
///     dependencies are exact, not speculative) and publishing each
///     outcome as soon as it has it. Nothing commits to the real grid.
///     Tiles are the only speculation. A task whose setup throws (view
///     copy, arena growth) abandons its remaining slots.
///  3. COMMIT WALK (serial, overlapped). One walk in global ripped order —
///     the same per-net loop a serial pass runs. Boundary nets are routed
///     in the walk, against the exact serial-prefix grid, so they need no
///     validation. An interior slot is awaited from its tile; its outcome
///     is stale only if a *hazard* — a boundary commit, or an earlier redo
///     that diverged from its speculation — landed inside its read
///     footprint (interior nets of other tiles provably cannot overlap
///     it); stale and abandoned nets recompute on the spot. Hazard boxes
///     live in a geom::SpatialGrid index, so the walk is O(n · window)
///     rather than an O(n²) commit-log scan. When the walk stops (done,
///     budget skip, exception) it closes the feed, which releases every
///     task, and the pass drains the pool before it returns.
///
/// Every applied outcome therefore equals the serial loop's, so the final
/// solution is byte-identical for any (tiles, threads) configuration —
/// pinned by test_sharded's ShardSweep and test_determinism's
/// ShardSweepDeterminism over tiles × threads. Because every view is cut
/// at a point fixed by the pass order, not by timing, the speculation
/// counters (speculated, respeculated, wasted_relaxations) depend on the
/// tile count alone — except wasted_relaxations after a budget stop, which
/// counts whatever the tiles had computed when the feed closed. At most
/// `threads` views are live at once.
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
