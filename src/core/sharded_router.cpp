#include "core/sharded_router.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "grid/grid_view.hpp"
#include "util/logger.hpp"
#include "util/strings.hpp"

namespace mrtpl::core {

ShardedRouter::ShardedRouter(const db::Design& design,
                             const global::GuideSet* guides, RouterConfig config)
    : config_([&] {
        RouterConfig c = config;
        c.shard_tiles = std::max(c.shard_tiles, 1);
        // Sharding only engages on the pooled executor path.
        if (c.shard_tiles > 1 && c.rrr_threads < 2) c.rrr_threads = 2;
        return c;
      }()),
      plan_(design.die(), config_.shard_tiles),
      router_(design, guides, config_) {}

grid::Solution ShardedRouter::run(grid::RoutingGrid& grid) {
  return router_.run(grid);
}

grid::Solution ShardedRouter::run(grid::RoutingGrid& grid,
                                  const RouteBudget& budget,
                                  RouterCheckpoint* checkpoint) {
  return router_.run(grid, budget, checkpoint);
}

/// A tiled pass: the tile tasks on the pool, the commit walk (in
/// mrtpl_router.cpp) on the calling thread, meeting in a shard::TileFeed.
/// A tile task reads the shared grid only while cutting its view, when the
/// walk is parked at the tile's first slot; after that it touches only its
/// view and its own result slots. Task-to-worker assignment only picks
/// which arena warms up; outcomes are slot-indexed and the per-tile order
/// is the ripped order.
void MrTplRouter::route_tiles(grid::RoutingGrid& grid, ColorSearch& search,
                              Workers& workers, const std::vector<db::NetId>& nets,
                              grid::Solution& solution) {
  // Ownership depends only on (die, shard_tiles, windows) — never on the
  // thread count — and the windows are the same net_scope the search
  // itself uses.
  const int halo = std::max(grid.dcolor(), 1);
  const shard::TilePlan plan(design_.die(), config_.shard_tiles);
  TiledPass pass(nets.size());
  pass.tile_of.resize(nets.size());
  std::vector<std::vector<size_t>> tile_nets(static_cast<size_t>(plan.num_tiles()));
  // Tiles holding interior nets, in first-slot order — the dispatch order:
  // the pool hands items out in index order, so a worker never holds a
  // tile whose first slot lies beyond one that no worker has claimed yet
  // (the walk could wait on the latter forever).
  std::vector<int> tiles;
  for (size_t k = 0; k < nets.size(); ++k) {
    const int t = plan.owner_of(net_scope(nets[k]).window, halo);
    pass.tile_of[k] = t;
    if (t == shard::TilePlan::kBoundary) continue;
    std::vector<size_t>& slots = tile_nets[static_cast<size_t>(t)];
    if (slots.empty()) {
      tiles.push_back(t);
      pass.feed.mark_first(k);
    }
    slots.push_back(k);
  }

  auto tile_task = [&](size_t i, int worker) {
    const int t = tiles[i];
    const std::vector<size_t>& slots = tile_nets[static_cast<size_t>(t)];
    // Every slot gets published, whatever stops the task: a closed feed,
    // a throwing setup, or an escaping exception. The walk recomputes the
    // abandoned ones.
    size_t done = 0;
    struct AbandonRest {
      shard::TileFeed& feed;
      const std::vector<size_t>& slots;
      size_t& done;
      ~AbandonRest() {
        for (; done < slots.size(); ++done) feed.publish(slots[done], false);
      }
    } abandon_rest{pass.feed, slots, done};
    if (!pass.feed.wait_for_cut(slots.front())) return;
    try {
      // The view and the search's arena are allocated here, outside
      // compute_route_guarded (an injected arena_grow fires in the
      // ColorSearch constructor): a failure abandons the tile's slots
      // instead of killing the run.
      grid::GridView view(grid, plan.tile(t));
      ColorSearch vsearch(view, config_, *workers.arenas[static_cast<size_t>(worker)]);
      if (budget_.active()) vsearch.set_budget(&budget_);
      for (; done < slots.size() && !pass.feed.closed(); ++done) {
        const size_t k = slots[done];
        RouteOutcome& outcome = pass.outcomes[k];
        outcome = compute_route_guarded(view, vsearch, nets[k]);
        for (auto& [v, m] : outcome.colors) {
          view.commit(v, nets[k], m);
          v = view.to_base(v);
        }
        for (auto& path : outcome.route.paths)
          for (grid::VertexId& v : path) v = view.to_base(v);
        pass.feed.publish(k, true);
      }
    } catch (const std::exception& e) {
      util::warn("mrtpl", util::format("tile %d threw (%s); recomputing %zu of its "
                                       "net(s) in the commit walk",
                                       t, e.what(), slots.size() - done));
    }
  };
  size_t skipped_from = nets.size();
  workers.pool->for_each_overlapped(tiles.size(), tile_task, [&] {
    struct CloseFeed {
      shard::TileFeed& feed;
      ~CloseFeed() { feed.close(); }
    } close_feed{pass.feed};
    skipped_from = commit_walk(grid, search, &pass, nets, solution);
  });
  // The pool has drained: every outcome a tile computed for a slot the
  // budget stop skipped is wasted work.
  for (size_t k = skipped_from; k < nets.size(); ++k)
    if (pass.tile_of[k] != shard::TilePlan::kBoundary && pass.feed.ready(k))
      stats_.wasted_relaxations += pass.outcomes[k].relaxations;
  stats_.walk_wait_s += pass.feed.waited_s();
}

}  // namespace mrtpl::core
