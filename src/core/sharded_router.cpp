#include "core/sharded_router.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "grid/grid_view.hpp"

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

/// Phase A of a tiled pass. Workers only read `grid` (compute_route is
/// const; tile commits land in the private view), so the shared grid IS
/// the pass-start snapshot for every tile. Task-to-worker assignment only
/// picks which arena warms up; outcomes are slot-indexed and the per-tile
/// order is the ripped order. The commit walk in route_list
/// (mrtpl_router.cpp) validates them.
std::vector<MrTplRouter::RouteOutcome> MrTplRouter::route_tiles(
    const grid::RoutingGrid& grid, Workers& workers,
    const std::vector<db::NetId>& nets, std::vector<int>& tile_of) {
  // Ownership depends only on (die, shard_tiles, windows) — never on the
  // thread count — and the windows are the same net_scope the search
  // itself uses.
  const int halo = std::max(grid.dcolor(), 1);
  const shard::TilePlan plan(design_.die(), config_.shard_tiles);
  tile_of.resize(nets.size());
  std::vector<std::vector<size_t>> tile_nets(
      static_cast<size_t>(plan.num_tiles()));
  for (size_t k = 0; k < nets.size(); ++k) {
    tile_of[k] = plan.owner_of(net_scope(nets[k]).window, halo);
    if (tile_of[k] >= 0) tile_nets[static_cast<size_t>(tile_of[k])].push_back(k);
  }
  std::vector<int> tiles;
  for (int t = 0; t < plan.num_tiles(); ++t)
    if (!tile_nets[static_cast<size_t>(t)].empty()) tiles.push_back(t);

  std::vector<RouteOutcome> outcomes(nets.size());
  // The guarded wrapper keeps a throwing worker (injected allocation
  // failure) from leaving its slot empty — for_each would rethrow after
  // the drain and the net would silently vanish.
  workers.pool->for_each(tiles.size(), [&](size_t i, int worker) {
    const int t = tiles[i];
    grid::GridView view(grid, plan.tile(t));
    ColorSearch vsearch(view, config_, *workers.arenas[static_cast<size_t>(worker)]);
    if (budget_.active()) vsearch.set_budget(&budget_);
    for (const size_t k : tile_nets[static_cast<size_t>(t)]) {
      outcomes[k] = compute_route_guarded(view, vsearch, nets[k]);
      for (auto& [v, m] : outcomes[k].colors) {
        view.commit(v, nets[k], m);
        v = view.to_base(v);
      }
      for (auto& path : outcomes[k].route.paths)
        for (grid::VertexId& v : path) v = view.to_base(v);
    }
  });
  return outcomes;
}

}  // namespace mrtpl::core
