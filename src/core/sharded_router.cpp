#include "core/sharded_router.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "geom/spatial_grid.hpp"
#include "grid/grid_view.hpp"
#include "util/fault_injector.hpp"
#include "util/timer.hpp"

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

/// The tile-sharded speculative pass. Every applied outcome is the one the
/// serial loop in route_list (mrtpl_router.cpp) would have produced at
/// that slot, so the solution — and the applied-relaxations ledger — is
/// byte-identical for every (shard_tiles, rrr_threads) configuration.
///
/// Phase A (parallel, main grid frozen): one task per tile holding
/// interior nets plus one per boundary net. A tile task materializes a
/// GridView of its rect — an O(tile) copy of the pass-start state — and
/// routes its interior nets sequentially in ripped order, committing each
/// into the view so later same-tile nets compute against their true
/// predecessors: intra-tile dependencies are exact, not speculative.
/// Boundary nets speculate flat against the shared pass-start grid.
///
/// Phase B (serial commit walk, ripped order): an outcome is stale only
/// if a commit its compute COULD NOT have seen landed inside its read
/// footprint. For a boundary net that is any earlier applied commit
/// (applied_idx). For an interior net the only invisible commits are
/// boundary ones and redos that diverged from their speculation
/// (hazard_idx): interior commits of other tiles cannot overlap its reads
/// (reads ⊆ window ⊕ halo ⊆ own tile by the ownership rule), and
/// same-tile predecessors applied as-speculated are exactly what its view
/// held. Stale nets recompute serially on the spot, where the grid holds
/// the exact serial-prefix state. Both indices are geom::SpatialGrid, so
/// the walk costs O(n · window) rather than an O(n²) commit-log scan.
void MrTplRouter::route_list_sharded(grid::RoutingGrid& grid, ColorSearch& search,
                                     Workers& workers,
                                     const std::vector<db::NetId>& nets,
                                     grid::Solution& solution) {
  util::Timer timer;
  const std::uint64_t pass_relax_base = stats_.relaxations;
  // Already expired at pass start: skip the whole pass without a pool
  // dispatch. The serial loop skips every net of such a pass too, so the
  // pass accounting stays configuration-invariant.
  if (budget_.active() && budget_.expired(stats_.relaxations)) {
    for (const db::NetId id : nets) mark_skipped(solution, id);
    stats_.route_batches += 1;
    stats_.relaxations_per_pass.push_back(0);
    stats_.reroute_s += timer.elapsed_s();
    return;
  }

  // ---- classify: interior-to-tile vs boundary pool ---------------------
  // Ownership depends only on (die, shard_tiles, windows) — never on the
  // thread count — and the windows are the same net_scope the search
  // itself uses.
  const int halo = std::max(grid.dcolor(), 1);
  const shard::TilePlan plan(design_.die(), config_.shard_tiles);
  std::vector<int> tile_of(nets.size());
  std::vector<std::vector<size_t>> tile_nets(
      static_cast<size_t>(plan.num_tiles()));
  for (size_t k = 0; k < nets.size(); ++k) {
    tile_of[k] = plan.owner_of(net_scope(nets[k]).window, halo);
    if (tile_of[k] >= 0) tile_nets[static_cast<size_t>(tile_of[k])].push_back(k);
  }

  // One task per non-empty tile, then one per boundary net. tile < 0
  // marks a boundary task carrying its net-list index.
  struct ShardTask {
    int tile;
    size_t net;
  };
  std::vector<ShardTask> tasks;
  for (int t = 0; t < plan.num_tiles(); ++t)
    if (!tile_nets[static_cast<size_t>(t)].empty()) tasks.push_back({t, 0});
  for (size_t k = 0; k < nets.size(); ++k)
    if (tile_of[k] < 0) tasks.push_back({-1, k});

  // ---- phase A: compute (nothing commits to the main grid) -------------
  // Workers only read `grid` (compute_route is const; tile commits land in
  // the private view), so the shared grid IS the pass-start snapshot for
  // every task. Task-to-worker assignment only picks which arena warms up;
  // outcomes are slot-indexed and the per-tile order is the ripped order.
  std::vector<RouteOutcome> outcomes(nets.size());
  // The guarded wrapper keeps a throwing worker (injected allocation
  // failure) from leaving its slot empty — for_each would rethrow after
  // the drain and the net would silently vanish.
  workers.pool->for_each(tasks.size(), [&](size_t t, int worker) {
    const ShardTask& task = tasks[t];
    if (task.tile < 0) {
      outcomes[task.net] = compute_route_guarded(
          grid, *workers.searches[static_cast<size_t>(worker)], nets[task.net]);
      return;
    }
    grid::GridView view(grid, plan.tile(task.tile));
    ColorSearch vsearch(view, config_, *workers.arenas[static_cast<size_t>(worker)]);
    if (budget_.active()) vsearch.set_budget(&budget_);
    for (const size_t k : tile_nets[static_cast<size_t>(task.tile)]) {
      outcomes[k] = compute_route_guarded(view, vsearch, nets[k]);
      for (auto& [v, m] : outcomes[k].colors) {
        view.commit(v, nets[k], m);
        v = view.to_base(v);
      }
      for (auto& path : outcomes[k].route.paths)
        for (grid::VertexId& v : path) v = view.to_base(v);
    }
  });

  // ---- phase B: serial reconciliation in ripped order ------------------
  geom::SpatialGrid applied_idx(design_.die(), 32);  // every applied commit
  geom::SpatialGrid hazard_idx(design_.die(), 32);   // commits views can't see
  size_t last_applied = nets.size();  // sentinel: nothing applied yet
  for (size_t k = 0; k < nets.size(); ++k) {
    if (budget_.active() && budget_.expired(stats_.relaxations)) {
      // expired() is monotone within the walk, so every later net skips
      // too — no view ever validated against a skipped predecessor's
      // phantom commit, hence no hazard entry is needed here.
      stats_.wasted_relaxations += outcomes[k].relaxations;
      mark_skipped(solution, nets[k]);
      continue;
    }
    ++stats_.speculated;
    const bool interior = tile_of[k] >= 0;
    const geom::SpatialGrid& idx = interior ? hazard_idx : applied_idx;
    bool stale =
        (outcomes[k].has_read_near && idx.any_overlap(outcomes[k].read_near)) ||
        (outcomes[k].has_read_tpl && idx.any_overlap(outcomes[k].read_tpl));
    // Fault site kSpecInvalidate: force the serial redo path; the redo
    // recomputes against the exact serial-prefix state, so output is
    // unchanged.
    if (util::FaultInjector::enabled() &&
        util::FaultInjector::instance().should_fail(
            util::FaultSite::kSpecInvalidate))
      stale = true;

    bool diverged = false;
    geom::Rect spec_box{};
    bool has_spec_box = false;
    if (stale) {
      ++stats_.respeculated;
      stats_.wasted_relaxations += outcomes[k].relaxations;
      const std::vector<std::pair<grid::VertexId, grid::Mask>> spec_colors =
          std::move(outcomes[k].colors);
      outcomes[k] = compute_route_guarded(grid, search, nets[k]);
      diverged = outcomes[k].colors != spec_colors;
      if (diverged) {
        // The speculative metal is what later same-tile views saw; its
        // bbox becomes a hazard alongside the actual commit below.
        for (const auto& [v, m] : spec_colors) {
          const grid::VertexLoc l = grid.loc(v);
          if (!has_spec_box) {
            has_spec_box = true;
            spec_box = {l.x, l.y, l.x, l.y};
          } else {
            spec_box.lo.x = std::min(spec_box.lo.x, l.x);
            spec_box.lo.y = std::min(spec_box.lo.y, l.y);
            spec_box.hi.x = std::max(spec_box.hi.x, l.x);
            spec_box.hi.y = std::max(spec_box.hi.y, l.y);
          }
        }
      }
    }

    geom::Rect commit_box{};
    bool has_commit = false;
    for (const auto& [v, m] : outcomes[k].colors) {
      const grid::VertexLoc l = grid.loc(v);
      if (!has_commit) {
        has_commit = true;
        commit_box = {l.x, l.y, l.x, l.y};
      } else {
        commit_box.lo.x = std::min(commit_box.lo.x, l.x);
        commit_box.lo.y = std::min(commit_box.lo.y, l.y);
        commit_box.hi.x = std::max(commit_box.hi.x, l.x);
        commit_box.hi.y = std::max(commit_box.hi.y, l.y);
      }
    }
    apply_outcome(grid, outcomes[k]);
    if (has_commit) {
      applied_idx.insert(static_cast<std::uint32_t>(k), commit_box);
      // Hazards for later interior nets: commits their views could not
      // contain. Interior commits applied as-speculated are what the view
      // held (same tile) or provably disjoint (other tiles) — not hazards.
      if (!interior || diverged)
        hazard_idx.insert(static_cast<std::uint32_t>(k), commit_box);
    }
    if (has_spec_box)
      hazard_idx.insert(static_cast<std::uint32_t>(k), spec_box);
    last_applied = k;
    solution.routes[static_cast<size_t>(nets[k])] = std::move(outcomes[k].route);
  }
  // last_colors() tracks the final applied net, same as the serial loop,
  // so the accessor stays configuration-independent.
  if (last_applied != nets.size()) set_last_colors(outcomes[last_applied]);
  stats_.route_batches += 1;
  stats_.relaxations_per_pass.push_back(stats_.relaxations - pass_relax_base);
  stats_.reroute_s += timer.elapsed_s();
}

}  // namespace mrtpl::core
