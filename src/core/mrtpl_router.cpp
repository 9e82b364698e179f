#include "core/mrtpl_router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>

#include "core/conflict_index.hpp"
#include "geom/spatial_grid.hpp"
#include "shard/tile_plan.hpp"
#include "util/fault_injector.hpp"
#include "util/logger.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace mrtpl::core {

MrTplRouter::MrTplRouter(const db::Design& design, const global::GuideSet* guides,
                         RouterConfig config)
    : design_(design), guides_(guides), config_(config) {}

std::vector<db::NetId> MrTplRouter::net_order() const {
  // Each net's key is computed once: the comparator of a sort runs
  // O(n log n) times, and Net::bbox() walks every pin shape.
  struct Keyed {
    int key;
    db::NetId id;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(static_cast<size_t>(design_.num_nets()));
  // Dead nets (zero pins — ECO tombstones) own no metal and are never
  // routed; run() marks their solution entries trivially routed instead.
  for (db::NetId id = 0; id < design_.num_nets(); ++id) {
    const db::Net& net = design_.net(id);
    if (net.degree() == 0) continue;
    const geom::Rect box = net.bbox();
    keyed.push_back({box.width() + box.height() + 4 * net.degree(), id});
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  std::vector<db::NetId> order;
  order.reserve(keyed.size());
  for (const Keyed& k : keyed) order.push_back(k.id);
  return order;
}

std::vector<grid::VertexId> MrTplRouter::backtrace(const grid::RoutingGrid& grid,
                                                   ColorSearch& search,
                                                   SegSetPool& pool,
                                                   grid::VertexId dst) {
  // Algorithm 3. The walk runs from the reached pin's vertex back along
  // prev pointers; tree vertices were seeded with prev == invalid, so the
  // loop naturally stops at the junction with the routed tree.
  std::vector<grid::VertexId> path;
  grid::VertexId v = dst;
  while (v != grid::kInvalidVertex) {
    path.push_back(v);

    // Lines 3–6: a vertex without a verSet gets a fresh verSet + segSet
    // carrying its search-time color state.
    VerSetId vs = pool.verset_of(v);
    if (vs == kNoVerSet) {
      vs = pool.make_verset(search.state(v));
      pool.attach(v, vs);
    }

    const grid::VertexId prev = search.prev(v);
    if (prev == grid::kInvalidVertex) break;

    // A via edge is a free color change: masks are per-layer, so segments
    // on different layers color independently — no merge, no stitch.
    if (grid.loc(prev).layer != grid.loc(v).layer) {
      v = prev;
      continue;
    }
    const ColorState v_state = pool.state_of(vs);
    // The predecessor's effective state: its segSet state when already
    // attached (tree vertex), else its search label.
    const VerSetId prev_vs = pool.verset_of(prev);
    const ColorState prev_state =
        prev_vs != kNoVerSet ? pool.state_of(prev_vs) : search.state(prev);

    // Lines 7–16: merge when the two vertices share a candidate color;
    // otherwise a stitch separates them and prev starts its own segSet on
    // the next iteration. In both branches the surviving segSet state is
    // the *intersection* — a verSet's state must hold at every member, or
    // the final single color would conflict at the members whose argmin
    // set excluded it.
    if (v_state.has_common(prev_state)) {
      const ColorState common = v_state.intersected(prev_state);
      if (prev_vs == kNoVerSet) {
        pool.attach(prev, vs);                           // line 9: same verSet
        pool.change_state(pool.segset_of(vs), common);
      } else {
        const SegSetId root = pool.merge(vs, prev_vs);   // line 14
        pool.change_state(root, common);                 // line 13
      }
    }
    v = prev;
  }
  return path;
}

MrTplRouter::SearchScope MrTplRouter::net_scope(db::NetId net_id) const {
  SearchScope scope;
  scope.window = design_.net(net_id).bbox();
  if (guides_ != nullptr && net_id < static_cast<db::NetId>(guides_->size())) {
    const global::NetGuide& guide = (*guides_)[static_cast<size_t>(net_id)];
    if (!guide.boxes.empty()) {
      scope.guide = &guide;
      scope.window = scope.window.united(guide.bbox());
    }
  }
  int margin = config_.search_margin;
  if (net_id < static_cast<db::NetId>(extra_margin_.size()))
    margin += extra_margin_[static_cast<size_t>(net_id)];
  scope.window = scope.window.inflated(margin).intersected(design_.die());
  return scope;
}

MrTplRouter::RouteOutcome MrTplRouter::compute_route(const grid::RoutingGrid& grid,
                                                     ColorSearch& search,
                                                     db::NetId net_id) const {
  const db::Net& net = design_.net(net_id);
  RouteOutcome outcome;
  grid::NetRoute& route = outcome.route;
  route.net = net_id;

  // A dead net (zero pins) is trivially routed: nothing to connect,
  // nothing to commit.
  if (net.pins.empty()) {
    route.routed = true;
    route.disposition = grid::NetDisposition::kRouted;
    return outcome;
  }

  // Fault site kSearchFail: report the net unroutable without searching.
  // Keyed by net id so the decision is independent of thread scheduling,
  // and firing at most once per net so the RRR retry demonstrates
  // recovery (the net routes on its next attempt).
  if (util::FaultInjector::enabled() &&
      util::FaultInjector::instance().should_fail(
          util::FaultSite::kSearchFail, static_cast<std::uint64_t>(net_id))) {
    util::warn("mrtpl", util::format("net %s: injected search failure",
                                     net.name.c_str()));
    return outcome;  // routed=false, disposition kFailed: RRR retries it
  }

  // Pin access vertices.
  std::vector<std::vector<grid::VertexId>> pin_verts;
  pin_verts.reserve(net.pins.size());
  for (const auto& pin : net.pins) pin_verts.push_back(grid.pin_vertices(pin));
  for (const auto& verts : pin_verts) {
    if (verts.empty()) {
      util::warn("mrtpl", util::format("net %s: pin with no accessible vertices",
                                       net.name.c_str()));
      return outcome;  // unroutable by construction
    }
  }

  // Search window: net bbox ∪ guide bbox, inflated.
  const SearchScope scope = net_scope(net_id);
  const global::NetGuide* guide = scope.guide;

  search.begin_net(net_id, guide, scope.window);

  // Algorithm 1 lines 1–8: pin 0's vertices are the initial sources with
  // color state 111.
  SegSetPool pool;
  const ColorState universe = ColorState::universe(grid.tech().rules().num_masks);
  for (const grid::VertexId v : pin_verts[0]) search.add_source(v, universe);
  std::vector<bool> reached(net.pins.size(), false);
  reached[0] = true;
  for (size_t p = 1; p < pin_verts.size(); ++p)
    for (const grid::VertexId v : pin_verts[p]) search.add_target(v, static_cast<int>(p));

  int remaining = static_cast<int>(net.pins.size()) - 1;
  while (remaining > 0) {
    const grid::VertexId dst = search.search();  // Algorithm 2
    if (dst == grid::kInvalidVertex) {
      if (search.interrupted()) {
        // Budget deadline/cancel tripped mid-search: not a routability
        // verdict. The tree built so far still commits (consistent
        // layout), marked partial for the degraded-run report.
        route.disposition = grid::NetDisposition::kPartial;
      } else {
        util::warn("mrtpl", util::format("net %s: %d pin(s) unreachable",
                                         net.name.c_str(), remaining));
        route.disposition = grid::NetDisposition::kFailed;
      }
      outcome.relaxations = search.relaxations();
      route.routed = false;
      // Keep the partial tree: choose colors for what exists so the
      // layout stays consistent for other nets once committed.
      choose_colors(grid, pool, net_id, route, outcome.colors);
      outcome.has_read_near = search.anything_touched();
      if (outcome.has_read_near)
        outcome.read_near =
            search.touched_bbox().inflated(1).intersected(search.window());
      outcome.has_read_tpl = search.anything_tpl_touched();
      if (outcome.has_read_tpl)
        outcome.read_tpl = search.tpl_touched_bbox().inflated(grid.dcolor());
      return outcome;
    }
    const int pin = search.target_pin(dst);
    assert(pin >= 0 && !reached[static_cast<size_t>(pin)]);

    // Algorithm 3: trace, merge color states, collect the path.
    std::vector<grid::VertexId> path = backtrace(grid, search, pool, dst);

    // Re-seed the tree (Algorithm 3 lines 17–18): every path vertex
    // becomes a zero-cost source carrying its segSet state.
    for (const grid::VertexId v : path)
      search.add_source(v, pool.state_of(pool.verset_of(v)));

    // The reached pin's metal joins the tree: same verSet as dst. Pin
    // vertices enter the route as their own single-vertex paths so that
    // edges() never fabricates adjacency between non-neighboring vertices.
    reached[static_cast<size_t>(pin)] = true;
    search.clear_targets_of_pin(pin);
    const VerSetId dst_vs = pool.verset_of(dst);
    for (const grid::VertexId v : pin_verts[static_cast<size_t>(pin)]) {
      if (pool.verset_of(v) == kNoVerSet) pool.attach(v, dst_vs);
      search.add_source(v, pool.state_of(dst_vs));
      route.paths.push_back({v});
    }
    route.paths.push_back(std::move(path));
    --remaining;
  }
  // Pin 0's metal belongs to the tree as well. The first backtrace ended
  // on one of pin 0's vertices (the initial sources), which therefore
  // already carries a verSet; attach the rest of the pin's metal to it so
  // the whole pin receives a mask consistent with the wire leaving it.
  VerSetId pin0_vs = kNoVerSet;
  for (const grid::VertexId v : pin_verts[0])
    if (pool.verset_of(v) != kNoVerSet) {
      pin0_vs = pool.verset_of(v);
      break;
    }
  if (pin0_vs == kNoVerSet) pin0_vs = pool.make_verset(universe);
  for (const grid::VertexId v : pin_verts[0]) {
    if (pool.verset_of(v) == kNoVerSet) pool.attach(v, pin0_vs);
    route.paths.push_back({v});
  }

  outcome.relaxations = search.relaxations();
  route.routed = true;
  route.disposition = grid::NetDisposition::kRouted;
  choose_colors(grid, pool, net_id, route, outcome.colors);
  outcome.has_read_near = search.anything_touched();
  if (outcome.has_read_near)
    outcome.read_near =
        search.touched_bbox().inflated(1).intersected(search.window());
  outcome.has_read_tpl = search.anything_tpl_touched();
  if (outcome.has_read_tpl)
    outcome.read_tpl = search.tpl_touched_bbox().inflated(grid.dcolor());
  return outcome;
}

MrTplRouter::RouteOutcome MrTplRouter::compute_route_guarded(
    const grid::RoutingGrid& grid, ColorSearch& search, db::NetId net_id) const {
  try {
    return compute_route(grid, search, net_id);
  } catch (const std::exception& e) {
    util::warn("mrtpl",
               util::format("net %s: routing threw (%s); marking failed",
                            design_.net(net_id).name.c_str(), e.what()));
    RouteOutcome outcome;
    outcome.route.net = net_id;
    return outcome;  // routed=false, kFailed — retried by a later iteration
  }
}

grid::NetRoute MrTplRouter::route_net(grid::RoutingGrid& grid, ColorSearch& search,
                                      db::NetId net_id) {
  RouteOutcome outcome = compute_route(grid, search, net_id);
  apply_outcome(grid, outcome);
  return std::move(outcome.route);
}

void MrTplRouter::apply_outcome(grid::RoutingGrid& grid, const RouteOutcome& outcome) {
  for (const auto& [v, m] : outcome.colors) grid.commit(v, outcome.route.net, m);
  stats_.relaxations += outcome.relaxations;
}

void MrTplRouter::choose_colors(
    const grid::RoutingGrid& grid, SegSetPool& pool, db::NetId net_id,
    const grid::NetRoute& route,
    std::vector<std::pair<grid::VertexId, grid::Mask>>& colors) const {
  if (!config_.enable_coloring) {
    for (const auto& [v, vs] : pool.attachments())
      colors.emplace_back(v, grid::kNoMask);
    return;
  }
  // Group attachments by segSet root.
  std::unordered_map<SegSetId, std::vector<grid::VertexId>> groups;
  for (const auto& [v, vs] : pool.attachments())
    groups[pool.segset_of(vs)].push_back(v);

  // segSet adjacency over same-layer tree edges: every boundary whose two
  // sides end on different masks is a stitch, so color choice below
  // prefers aligning with already-colored neighbor segSets.
  std::unordered_map<SegSetId, std::vector<SegSetId>> adjacent;
  for (const auto& [a, b] : route.edges()) {
    const VerSetId va = pool.verset_of(a);
    const VerSetId vb = pool.verset_of(b);
    if (va == kNoVerSet || vb == kNoVerSet) continue;
    if (grid.loc(a).layer != grid.loc(b).layer) continue;  // via: free
    const SegSetId ra = pool.segset_of(va);
    const SegSetId rb = pool.segset_of(vb);
    if (ra == rb) continue;
    adjacent[ra].push_back(rb);
    adjacent[rb].push_back(ra);
  }

  // Deterministic processing order (larger segSets first, then id).
  std::vector<SegSetId> order;
  order.reserve(groups.size());
  for (const auto& [root, _] : groups) order.push_back(root);
  std::sort(order.begin(), order.end(), [&](SegSetId a, SegSetId b) {
    const size_t sa = groups[a].size(), sb = groups[b].size();
    return sa != sb ? sa > sb : a < b;
  });

  const auto& rules = grid.tech().rules();
  const double beta = config_.beta_override >= 0 ? config_.beta_override : rules.beta;
  const double gamma =
      config_.gamma_override >= 0 ? config_.gamma_override : rules.gamma;
  std::unordered_map<SegSetId, grid::Mask> committed_root_mask;
  for (const SegSetId root : order) {
    auto& members = groups[root];
    std::sort(members.begin(), members.end());
    // change_state with 111 intersects with the universe: a no-op read.
    const ColorState universe =
        ColorState::universe(grid.tech().rules().num_masks);
    ColorState state = pool.change_state(root, universe);
    if (state.empty()) state = universe;  // over-constrained: fall back

    // Final convergence to a single color (end of the backtracing phase):
    // sum the committed same-mask neighborhood over the segSet for every
    // mask in one window pass per member. Colors outside the state pay a
    // stitch-sized penalty — the search's argmin narrowing is a
    // preference, not a hard constraint, and a conflict (gamma) always
    // outweighs a stitch (beta).
    double counts[grid::kNumMasks] = {0, 0, 0};
    for (const grid::VertexId v : members)
      grid.for_each_colored_neighbor(
          v, net_id,
          [&counts](grid::VertexId, db::NetId, grid::Mask m) { counts[m] += 1.0; });
    grid::Mask best = 0;
    double best_penalty = std::numeric_limits<double>::infinity();
    for (grid::Mask c = 0; c < grid::kNumMasks; ++c) {
      if (!universe.contains(c)) continue;  // DPL: mask 2 unavailable
      double penalty = gamma * counts[c];
      if (!state.contains(c)) penalty += beta;
      // Stitch alignment: every already-colored adjacent segSet of this
      // net on a different mask costs one stitch.
      const auto it = adjacent.find(root);
      if (it != adjacent.end()) {
        for (const SegSetId nb : it->second) {
          const auto cit = committed_root_mask.find(nb);
          if (cit != committed_root_mask.end() && cit->second != c) penalty += beta;
        }
      }
      if (penalty < best_penalty) {
        best = c;
        best_penalty = penalty;
      }
    }
    committed_root_mask[root] = best;
    for (const grid::VertexId v : members) {
      // Upper (single-patterned) layers carry no mask.
      const grid::Mask m =
          grid.tech().is_tpl_layer(grid.loc(v).layer) ? best : grid::kNoMask;
      colors.emplace_back(v, m);
    }
  }
}

namespace {

/// Iterate quality used to pick the best snapshot: conflicts are printing
/// failures and dominate, then stitches (yield), then a routability tax.
/// Ties in violations resolve toward the earlier (less detoured) iterate
/// because replacement below is strict.
double iterate_score(int conflicts, int stitches, int failed) {
  return 1e6 * failed + 1e4 * conflicts + 1e2 * stitches;
}

}  // namespace

/// A restorable copy of the committed layout: per-net routes plus the mask
/// of every routed vertex. Negotiated RRR is not monotonic — on heavily
/// congested cases history-cost detours can make a later iteration worse
/// than an earlier one — so the driver keeps the best iterate and restores
/// it at the end instead of returning whatever the last iteration left.
struct MrTplRouter::LayoutSnapshot {
  grid::Solution solution;
  std::vector<std::vector<grid::Mask>> masks;  ///< parallel to routes[i].vertices()
  double score = std::numeric_limits<double>::infinity();

  static LayoutSnapshot capture(const grid::RoutingGrid& grid,
                                const grid::Solution& solution, double score) {
    LayoutSnapshot snap;
    snap.solution = solution;
    snap.score = score;
    snap.masks.reserve(solution.routes.size());
    for (const auto& route : solution.routes) {
      std::vector<grid::Mask> route_masks;
      for (const grid::VertexId v : route.vertices())
        route_masks.push_back(grid.mask(v));
      snap.masks.push_back(std::move(route_masks));
    }
    return snap;
  }

  /// Replace the grid's committed state with this snapshot. `current` is
  /// the solution whose routes are committed *now* — releasing the
  /// snapshot's own routes instead would leave any vertex used only by
  /// the current iterate committed forever (phantom metal).
  void restore(grid::RoutingGrid& grid, const grid::Solution& current) const {
    for (const auto& route : current.routes) grid::release_route(grid, route);
    for (size_t i = 0; i < solution.routes.size(); ++i)
      grid::commit_route(grid, solution.routes[i], masks[i]);
  }
};

namespace {

/// Bounding box of a set of commits; !valid() when there are none.
geom::Rect commit_bbox(const grid::RoutingGrid& grid,
                       const std::vector<std::pair<grid::VertexId, grid::Mask>>& colors) {
  geom::Rect box{std::numeric_limits<int>::max(), std::numeric_limits<int>::max(),
                 std::numeric_limits<int>::min(), std::numeric_limits<int>::min()};
  for (const auto& [v, m] : colors) {
    const grid::VertexLoc l = grid.loc(v);
    box = box.united({l.x, l.y, l.x, l.y});
  }
  return box;
}

}  // namespace

void MrTplRouter::route_list(grid::RoutingGrid& grid, ColorSearch& search,
                             Workers* workers, const std::vector<db::NetId>& nets,
                             grid::Solution& solution) {
  if (nets.empty()) return;
  util::Timer timer;
  const std::uint64_t pass_relax_base = stats_.relaxations;
  // A pass whose budget already expired skips every net; it needs no tiles.
  if (workers != nullptr && nets.size() > 1 &&
      !(budget_.active() && budget_.expired(stats_.relaxations)))
    route_tiles(grid, search, *workers, nets, solution);
  else
    commit_walk(grid, search, nullptr, nets, solution);
  stats_.route_batches += 1;
  stats_.relaxations_per_pass.push_back(stats_.relaxations - pass_relax_base);
  stats_.reroute_s += timer.elapsed_s();
}

/// In a tiled pass an interior outcome is stale only if a commit its tile
/// view COULD NOT have seen landed inside its read footprint. Those
/// commits — the hazards — are boundary nets (routed here) and redos that
/// diverged from their speculation, whose speculative metal later
/// same-tile views did see. Interior commits of other tiles cannot overlap
/// its reads (reads ⊆ window ⊕ halo ⊆ own tile by the ownership rule), and
/// same-tile predecessors applied as-speculated are exactly what its view
/// held. The index holds every hazard of the pass, including those before
/// the tile's view was cut (which the view did see): flagging them too is
/// conservative, never wrong. Hazard boxes live in a geom::SpatialGrid, so
/// validation costs O(window) per net rather than an O(n) commit-log scan.
std::size_t MrTplRouter::commit_walk(grid::RoutingGrid& grid, ColorSearch& search,
                                     TiledPass* tiled,
                                     const std::vector<db::NetId>& nets,
                                     grid::Solution& solution) {
  std::size_t skipped_from = nets.size();
  std::optional<geom::SpatialGrid> hazard_idx;
  if (tiled != nullptr) hazard_idx.emplace(design_.die(), 32);
  for (size_t k = 0; k < nets.size(); ++k) {
    // Budget skip: once the budget expires mid-pass, the remaining nets are
    // marked kSkipped without committing anything. The decision reads the
    // *applied* ledger, so for relaxation budgets it falls on the same net
    // for every (tiles, threads) configuration. expired() is monotone, so
    // no later net validates against a skipped one, and the tiles can stop.
    if (budget_.active() && budget_.expired(stats_.relaxations)) {
      if (skipped_from == nets.size()) {
        skipped_from = k;
        if (tiled != nullptr) tiled->feed.close();
      }
      mark_skipped(solution, nets[k]);
      continue;
    }
    RouteOutcome outcome;
    const bool interior =
        tiled != nullptr && tiled->tile_of[k] != shard::TilePlan::kBoundary;
    // A boundary commit reaches no view cut before it.
    bool hazard = tiled != nullptr && !interior;
    if (interior) {
      ++stats_.speculated;
      // An abandoned slot (its tile threw) carries no outcome: redo it.
      const bool ready = tiled->feed.await(k);
      if (ready) outcome = std::move(tiled->outcomes[k]);
      bool stale =
          !ready ||
          (outcome.has_read_near && hazard_idx->any_overlap(outcome.read_near)) ||
          (outcome.has_read_tpl && hazard_idx->any_overlap(outcome.read_tpl));
      // Fault site kSpecInvalidate: force the serial redo path; the redo
      // recomputes against the exact serial-prefix state, so output is
      // unchanged.
      if (util::FaultInjector::enabled() &&
          util::FaultInjector::instance().should_fail(
              util::FaultSite::kSpecInvalidate))
        stale = true;
      if (stale) {
        ++stats_.respeculated;
        stats_.wasted_relaxations += outcome.relaxations;
        RouteOutcome redo = compute_route_guarded(grid, search, nets[k]);
        if (redo.colors != outcome.colors) {
          // The speculative metal is what later same-tile views saw; its
          // bbox becomes a hazard alongside the actual commit below.
          hazard = true;
          if (const geom::Rect box = commit_bbox(grid, outcome.colors); box.valid())
            hazard_idx->insert(static_cast<std::uint32_t>(k), box);
        }
        outcome = std::move(redo);
      }
    } else {
      outcome = compute_route_guarded(grid, search, nets[k]);
    }
    apply_outcome(grid, outcome);
    if (hazard)
      if (const geom::Rect box = commit_bbox(grid, outcome.colors); box.valid())
        hazard_idx->insert(static_cast<std::uint32_t>(k), box);
    solution.routes[static_cast<size_t>(nets[k])] = std::move(outcome.route);
  }
  return skipped_from;
}

void MrTplRouter::mark_skipped(grid::Solution& solution, db::NetId id) {
  grid::NetRoute& r = solution.routes[static_cast<size_t>(id)];
  r = grid::NetRoute{};
  r.net = id;
  r.disposition = grid::NetDisposition::kSkipped;
}

grid::Solution MrTplRouter::run(grid::RoutingGrid& grid) {
  return run(grid, RouteBudget{}, nullptr);
}

grid::Solution MrTplRouter::run(grid::RoutingGrid& grid, const RouteBudget& budget,
                                RouterCheckpoint* checkpoint) {
  util::Timer timer;
  stats_ = RouterStats{};
  budget_.arm(budget);
  extra_margin_.assign(static_cast<size_t>(design_.num_nets()), 0);

  // Incremental conflict engine: subscribes to the grid's dirty log so
  // each detection pass costs O(rip delta × window), not O(die).
  // Constructed before any commit (including a checkpoint restore below)
  // so its log sees every change since the empty grid.
  ConflictIndex index(grid);

  // Tiled executor state: one pool, and one SearchArena per worker, for
  // the whole run — after the first few tiles warm the arenas, the
  // parallel hot path allocates nothing. Threads only pay with tiles, so
  // without shard_tiles > 1 every pass runs serially.
  Workers workers;
  if (config_.rrr_threads > 1 && config_.shard_tiles > 1) {
    workers.pool = std::make_unique<util::ThreadPool>(config_.rrr_threads);
    for (int i = 0; i < workers.pool->size(); ++i)
      workers.arenas.push_back(std::make_unique<SearchArena>());
  }

  grid::Solution solution;
  const std::vector<db::NetId> order = net_order();
  const bool resume = checkpoint != nullptr && checkpoint->valid;
  int start_iter = 0;
  LayoutSnapshot best;
  if (resume) {
    // Resume: replay the checkpoint into the fresh grid instead of the
    // initial pass. commit_route rebuilds owners/masks/congestion counts;
    // history is restored directly; the conflict index absorbs the
    // commits through the dirty log like any route pass.
    solution = checkpoint->solution;
    for (size_t i = 0; i < solution.routes.size(); ++i)
      grid::commit_route(grid, solution.routes[i], checkpoint->masks[i]);
    for (grid::VertexId v = 0;
         v < std::min<std::size_t>(checkpoint->history.size(), grid.num_vertices());
         ++v)
      if (checkpoint->history[v] != 0.0f) grid.add_history(v, checkpoint->history[v]);
    extra_margin_ = checkpoint->extra_margin;
    extra_margin_.resize(static_cast<size_t>(design_.num_nets()), 0);
    stats_.conflicts_per_iter = checkpoint->conflicts_per_iter;
    if (!checkpoint->best_masks.empty()) {
      best.solution = checkpoint->best_solution;
      best.masks = checkpoint->best_masks;
      best.score = checkpoint->best_score;
    }
    start_iter = checkpoint->iteration;
  }
  const std::vector<db::NetId> none;  // a resume has no initial pass
  rip_and_reroute(grid, index, workers.pool ? &workers : nullptr, order,
                  resume ? none : order, start_iter, std::move(best), solution,
                  checkpoint);

  if (solution.degraded())
    util::warn("mrtpl",
               util::format("budget expired: stopping after %d RRR iteration(s) "
                            "(%d partial, %d skipped net(s) in returned iterate)",
                            stats_.rrr_iterations, solution.num_partial(),
                            solution.num_skipped()));
  stats_.runtime_s = timer.elapsed_s();
  return solution;
}

grid::SolutionStatus MrTplRouter::reroute(grid::RoutingGrid& grid,
                                          ConflictIndex& index,
                                          const std::vector<db::NetId>& dirty,
                                          grid::Solution& solution,
                                          const RouteBudget& budget) {
  util::Timer timer;
  stats_ = RouterStats{};
  budget_.arm(budget);
  extra_margin_.assign(static_cast<size_t>(design_.num_nets()), 0);

  // Worklist: the dirty nets in global heuristic order (dedup'd, dead and
  // out-of-range ids dropped). Sessions are strictly serial — no pool —
  // so live apply and journal replay walk the identical code path.
  std::vector<char> is_dirty(static_cast<size_t>(design_.num_nets()), 0);
  for (const db::NetId id : dirty)
    if (id >= 0 && id < design_.num_nets() && design_.net(id).degree() > 0)
      is_dirty[static_cast<size_t>(id)] = 1;
  const std::vector<db::NetId> order = net_order();
  std::vector<db::NetId> work;
  for (const db::NetId id : order)
    if (is_dirty[static_cast<size_t>(id)]) work.push_back(id);

  rip_and_reroute(grid, index, nullptr, order, work, 0, LayoutSnapshot{}, solution,
                  nullptr);
  stats_.runtime_s = timer.elapsed_s();
  return solution.status;
}

void MrTplRouter::rip_and_reroute(grid::RoutingGrid& grid, ConflictIndex& index,
                                  Workers* workers,
                                  const std::vector<db::NetId>& order,
                                  const std::vector<db::NetId>& work,
                                  int start_iter, LayoutSnapshot best,
                                  grid::Solution& solution,
                                  RouterCheckpoint* checkpoint) {
  // Dead nets (zero pins — ECO tombstones) never enter net_order(); their
  // entries become trivially-routed markers so the failed-net count and
  // the dispositions stay honest. Their metal, if any, was released by
  // the caller.
  solution.routes.resize(static_cast<size_t>(design_.num_nets()));
  for (const auto& net : design_.nets()) {
    if (!net.pins.empty()) continue;
    grid::NetRoute& r = solution.routes[static_cast<size_t>(net.id)];
    r = grid::NetRoute{};
    r.net = net.id;
    r.routed = true;
    r.disposition = grid::NetDisposition::kRouted;
  }

  // The serial search runs on the router's own arena, kept across calls:
  // a resident session would otherwise allocate (and page in) a die-sized
  // arena on every edit.
  if (!arena_) arena_ = std::make_unique<SearchArena>();
  ColorSearch search(grid, config_, *arena_);
  if (budget_.active()) search.set_budget(&budget_);

  auto detect = [&] {
    util::Timer t;
    auto conflicts = index.conflicts();
    stats_.detect_s += t.elapsed_s();
    return conflicts;
  };
  auto current_score = [&](int conflicts) {
    int failed = 0;
    for (const auto& r : solution.routes)
      if (!r.routed && r.net != db::kNoNet) ++failed;
    return iterate_score(conflicts, grid::count_stitches(grid, solution), failed);
  };

  // Keep-best, lazily: copying the layout on every improvement (and
  // restoring it at the end) costs O(layout) even when the best iterate is
  // simply the last one, which is what an ECO apply almost always ends on.
  // `live_best` marks the live layout itself as the best iterate. It is
  // copied into `best` only just before a rip changes it — the state at
  // that point is the one that was scored — and its score, skipped when it
  // won against an empty `best`, is computed there.
  bool live_best = false;
  std::optional<double> live_score;
  int live_conflicts = 0;
  bool scored = false;  // live layout unchanged since its last offer()
  auto offer = [&](const std::vector<Conflict>& conflicts) {
    scored = true;
    live_conflicts = static_cast<int>(conflicts.size());
    if (std::isinf(best.score)) {  // anything beats an empty best
      live_best = true;
      live_score.reset();
    } else if (const double score = current_score(live_conflicts); score < best.score) {
      live_best = true;
      live_score = score;
    }
  };
  auto before_rip = [&] {
    scored = false;
    if (!live_best) return;
    if (!live_score) live_score = current_score(live_conflicts);
    best = LayoutSnapshot::capture(grid, solution, *live_score);
    live_best = false;
  };

  // Clean-boundary checkpointing. A boundary is captured only while the
  // budget has NOT tripped — every captured state is one an uninterrupted
  // run also passes through, which is what makes resume-then-finish
  // byte-identical to never-interrupted (test_snapshot_restore). Tripping
  // mid-pass leaves skipped nets in `solution`, so the latch check also
  // keeps those states out of checkpoints.
  RouterCheckpoint pending;
  bool have_pending = false;
  auto capture_boundary = [&](int next_iter) {
    if (checkpoint == nullptr || budget_.tripped()) return;
    assert(!live_best && "a boundary follows a rip, which materializes best");
    LayoutSnapshot now = LayoutSnapshot::capture(grid, solution, 0.0);
    pending.valid = true;
    pending.iteration = next_iter;
    pending.solution = std::move(now.solution);
    pending.masks = std::move(now.masks);
    pending.history.resize(grid.num_vertices());
    for (grid::VertexId v = 0; v < grid.num_vertices(); ++v)
      pending.history[v] = static_cast<float>(grid.history(v));
    pending.extra_margin = extra_margin_;
    pending.conflicts_per_iter = stats_.conflicts_per_iter;
    pending.best_solution = best.solution;
    pending.best_masks = best.masks;
    pending.best_score = best.score;
    have_pending = true;
  };

  // Fig. 2 middle column: route the worklist once (empty on a resume).
  route_list(grid, search, workers, work, solution);
  capture_boundary(start_iter);

  // Fig. 2 left column: conflict detection + rip-up & reroute with
  // history cost, bounded by max iterations. Blockage failures (a pin
  // walled in by earlier nets) are handled the same way: the blockers in
  // the failed net's window are ripped and the failed net retries first.
  // Seeded by an ECO delta, conflicts and failures can only arise where
  // the edit touched (the pre-edit state was an accepted iterate), so
  // ripping stays local in practice while remaining globally correct.
  for (int iter = start_iter; iter < config_.max_rrr_iterations; ++iter) {
    if (budget_.active() && budget_.expired(stats_.relaxations)) break;
    const auto conflicts = detect();
    stats_.conflicts_per_iter.push_back(static_cast<int>(conflicts.size()));
    offer(conflicts);
    std::vector<db::NetId> failed;
    for (const auto& r : solution.routes)
      if (!r.routed && r.net != db::kNoNet) failed.push_back(r.net);
    if (conflicts.empty() && failed.empty()) break;
    stats_.rrr_iterations = iter + 1;

    // History update on every violating vertex, then rip the nets involved.
    std::vector<char> rip(static_cast<size_t>(design_.num_nets()), 0);
    const double hist = grid.tech().rules().history_increment;
    for (const auto& c : conflicts) {
      rip[static_cast<size_t>(c.net_a)] = 1;
      rip[static_cast<size_t>(c.net_b)] = 1;
      for (const auto& [v, u] : c.pairs) {
        grid.add_history(v, hist);
        grid.add_history(u, hist);
      }
    }
    // Progressive window widening: a net that failed inside its clamped
    // window retries with double the margin, up to the whole die — the
    // escape valve for blockage labyrinths whose only opening lies far
    // outside the bbox. Deterministic (depends only on the failure
    // history), so the configuration invariance is unaffected.
    const int margin_cap =
        std::max(design_.die().width(), design_.die().height());
    for (const db::NetId id : failed) {
      int& extra = extra_margin_[static_cast<size_t>(id)];
      extra = std::min(margin_cap,
                       extra == 0 ? config_.search_margin : 2 * extra);
      rip[static_cast<size_t>(id)] = 1;
      // The blocker sweep must cover the same widened window the retry
      // will search: a narrow choke point (maze slot) plugged by earlier
      // nets can sit far outside the original margin, and unless those
      // owners are ripped the retry finds it hard-blocked forever.
      for (const db::NetId b :
           blockers_of(grid, design_, id, config_.search_margin + extra))
        rip[static_cast<size_t>(b)] = 1;
    }
    std::vector<db::NetId> ripped;
    for (const db::NetId id : failed) {
      ripped.push_back(id);  // failed nets reroute first, into free space
      rip[static_cast<size_t>(id)] = 2;
    }
    for (const db::NetId id : order)
      if (rip[static_cast<size_t>(id)] == 1) ripped.push_back(id);
    if (ripped.empty()) break;
    before_rip();
    for (const db::NetId id : ripped)
      grid::release_route(grid, solution.routes[static_cast<size_t>(id)]);
    route_list(grid, search, workers, ripped, solution);
    // A success retires the net's widened window: the widening is an
    // escape valve for one failure episode, and letting it stick made
    // every later rip of the net search (and serialize against) a window
    // up to the whole die. Depends only on routed flags, so configuration
    // invariance is unaffected.
    for (const db::NetId id : ripped)
      if (solution.routes[static_cast<size_t>(id)].routed)
        extra_margin_[static_cast<size_t>(id)] = 0;
    capture_boundary(iter + 1);
  }
  // Score the state the loop ended on unless the loop already did (the
  // per-iteration scoring above sees each state *before* its reroute, so a
  // last reroute's result is still unscored), then keep whichever iterate
  // was best — restoring only when that is an earlier one.
  {
    const auto conflicts = detect();
    if (static_cast<int>(stats_.conflicts_per_iter.size()) == config_.max_rrr_iterations)
      stats_.conflicts_per_iter.push_back(static_cast<int>(conflicts.size()));
    if (!scored) offer(conflicts);
  }
  if (!live_best && !best.masks.empty()) {
    best.restore(grid, solution);
    // Copy-assign, not move: the copy reuses the caller's buffers, while
    // adopting the snapshot's fresh ones fragments a resident session's
    // heap edit after edit (+5% peak RSS over an ECO stream).
    solution = best.solution;
  }

  // Degraded status AFTER the best-restore: the returned routes are the
  // best iterate, and their dispositions describe exactly that iterate
  // (an earlier, fully-routed iterate legitimately carries no partial or
  // skipped markers even on a degraded run).
  const bool degraded = budget_.active() && budget_.tripped();
  solution.status =
      degraded ? grid::SolutionStatus::kDegraded : grid::SolutionStatus::kComplete;
  stats_.budget_hit = degraded;
  if (checkpoint != nullptr) {
    if (degraded && have_pending)
      *checkpoint = std::move(pending);
    else
      checkpoint->valid = false;  // run completed, or no clean boundary reached
  }
  for (const auto& r : solution.routes)
    if (!r.routed && r.net != db::kNoNet) ++stats_.failed_nets;
}

}  // namespace mrtpl::core
