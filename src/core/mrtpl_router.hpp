#pragma once
/// \file mrtpl_router.hpp
/// The Mr.TPL detailed router: Algorithm 1 (multi-pin net routing) per
/// net, Algorithm 3 (backtrace with verSet/segSet color merging), and the
/// Fig. 2 outer loop (route all nets → detect conflicts → rip-up & update
/// history → reroute).

#include <memory>
#include <vector>

#include "core/color_search.hpp"
#include "core/conflict.hpp"
#include "core/route_budget.hpp"
#include "core/router_config.hpp"
#include "core/segset.hpp"
#include "global/guide.hpp"
#include "grid/route_result.hpp"
#include "grid/routing_grid.hpp"
#include "shard/tile_feed.hpp"
#include "util/thread_pool.hpp"

namespace mrtpl::core {

class ConflictIndex;  // conflict_index.hpp

/// Aggregate statistics of one routing run.
struct RouterStats {
  int rrr_iterations = 0;             ///< executed RRR rounds
  std::vector<int> conflicts_per_iter;///< clustered conflicts after each round
  int failed_nets = 0;                ///< nets with unreachable pins
  std::uint64_t relaxations = 0;      ///< total *applied* search relaxations
  double runtime_s = 0.0;
  double detect_s = 0.0;              ///< wall time in conflict detection
  double reroute_s = 0.0;             ///< wall time routing nets (all passes)
  int route_batches = 0;              ///< executor passes (one per route_list)

  /// Applied relaxations of each route_list pass, in pass order. The
  /// entries always sum to `relaxations` and, like it, are independent of
  /// the (tiles, threads) configuration — test_sharded's ShardSweep pins
  /// both (speculative work that fails validation is *not* applied; it
  /// lands in wasted_relaxations instead).
  std::vector<std::uint64_t> relaxations_per_pass;
  /// Tile speculation. Only interior nets speculate (in their tile's
  /// GridView); boundary nets are routed in the commit walk itself, so
  /// they never count here.
  int speculated = 0;                 ///< interior outcomes reaching commit
  int respeculated = 0;               ///< interior outcomes redone serially
  std::uint64_t wasted_relaxations = 0;  ///< search effort of discarded ones
  /// Wall time the commit walk spent waiting for tile outcomes, summed
  /// over tiled passes. Near zero when the walk bounds a pass, large when
  /// the tiles do. Timing, not a contract: reported, never pinned.
  double walk_wait_s = 0.0;

  /// A RouteBudget bound tripped and stopped the run early; the returned
  /// solution carries SolutionStatus::kDegraded.
  bool budget_hit = false;
};

/// Resumable router state at an RRR iteration boundary, produced by
/// `run(grid, budget, &checkpoint)` when a budget stops the run, and
/// consumed by a later run() call on a FRESH grid of the same design.
/// Checkpoints are only taken at *clean* boundaries — states an
/// uninterrupted run also passes through — so resuming with a fresh
/// (or unlimited) budget reproduces the uninterrupted run's final
/// solution byte-for-byte (pinned by test_snapshot_restore).
struct RouterCheckpoint {
  bool valid = false;
  int iteration = 0;  ///< next RRR iteration to execute (0 = initial pass done)
  grid::Solution solution;                      ///< committed layout
  std::vector<std::vector<grid::Mask>> masks;   ///< parallel to routes[i].vertices()
  std::vector<float> history;                   ///< per-vertex history cost
  std::vector<int> extra_margin;                ///< per-net widened windows
  std::vector<int> conflicts_per_iter;          ///< stats continuity
  /// Best iterate seen so far (the run's final keep-best restore point).
  grid::Solution best_solution;
  std::vector<std::vector<grid::Mask>> best_masks;
  double best_score = 0.0;  ///< meaningful only when best_masks nonempty
};

/// Mr.TPL router. Construct once per design; `run` routes every net into
/// the grid (committing vertices and masks) and returns the solution.
class MrTplRouter {
 public:
  /// `guides` may be null (route unguided). The config's toggles select
  /// the ablation variants.
  MrTplRouter(const db::Design& design, const global::GuideSet* guides,
              RouterConfig config = {});

  /// Route all nets with rip-up & reroute. The grid must be freshly built
  /// from the same design.
  grid::Solution run(grid::RoutingGrid& grid);

  /// Budgeted run (route_budget.hpp). With an exhausted budget the run
  /// stops ripping, keeps the best iterate it reached, and returns a
  /// kDegraded solution with per-net dispositions; with `budget` unlimited
  /// the output is byte-identical to run(grid). When `checkpoint` is
  /// non-null: if checkpoint->valid, the run RESUMES from it (the grid
  /// must be freshly built — the checkpoint's layout is committed into
  /// it); on a budget stop, the last clean iteration boundary is written
  /// back into *checkpoint (valid=false when the run completed or never
  /// reached a clean boundary).
  grid::Solution run(grid::RoutingGrid& grid, const RouteBudget& budget,
                     RouterCheckpoint* checkpoint = nullptr);

  [[nodiscard]] const RouterStats& stats() const { return stats_; }

  /// Incremental ECO reroute for resident sessions. `dirty` names the nets
  /// whose routes the caller has already released from `grid` (plus any
  /// newly added nets); they are rerouted into the otherwise-committed
  /// layout, then the same RRR driver run() uses repairs whatever
  /// conflicts or failures the delta caused — globally correct, local in
  /// practice. `index` is the caller's resident conflict engine over
  /// `grid`. Strictly serial, so a journal replay of the same (state,
  /// dirty, budget) is byte-identical to the live apply. `solution` is
  /// updated in place (entries resize to the design; dead nets normalize
  /// to trivially-routed markers); returns the run status (kDegraded when
  /// `budget` tripped).
  grid::SolutionStatus reroute(grid::RoutingGrid& grid, ConflictIndex& index,
                               const std::vector<db::NetId>& dirty,
                               grid::Solution& solution,
                               const RouteBudget& budget = {});

  /// Route one net in isolation (exposed for tests and the quickstart
  /// example, which narrates Fig. 3 step by step). Commits the result.
  grid::NetRoute route_net(grid::RoutingGrid& grid, ColorSearch& search,
                           db::NetId net_id);

  /// Current widened-window margin of a net beyond config.search_margin.
  /// Zero after any successful route (the widening is an escape valve for
  /// one failure episode, not a permanent enlargement); exposed so tests
  /// can pin the reset.
  [[nodiscard]] int extra_margin(db::NetId net_id) const {
    return net_id >= 0 && static_cast<std::size_t>(net_id) < extra_margin_.size()
               ? extra_margin_[static_cast<std::size_t>(net_id)]
               : 0;
  }

 private:
  /// Everything one net's routing produces, computed against a read-only
  /// grid: the tree, the chosen (vertex, mask) commits in commit order,
  /// and the search-effort counter. Committing an outcome is the only
  /// grid mutation — which is what lets the tiled executor compute nets
  /// concurrently and commit them serially.
  struct RouteOutcome {
    grid::NetRoute route;
    std::vector<std::pair<grid::VertexId, grid::Mask>> colors;
    std::uint64_t relaxations = 0;
    /// Read footprint, split by halo class. `read_near` covers the
    /// owner/blocked/history reads: the labeled bbox inflated by 1 and
    /// clipped to the (guide-derived) search window — expansion tests the
    /// window before reading a candidate, so nothing outside the window is
    /// ever read. `read_tpl` covers the Dcolor congestion scans: the bbox
    /// of TPL-layer reads inflated by dcolor, usually far smaller than the
    /// labeled bbox. The tiled executor validates commits against
    /// the pair — strictly tighter than the old square max(dcolor, 1)
    /// inflation of the whole labeled bbox, and tightness only changes how
    /// many speculations are KEPT, never the routing output.
    geom::Rect read_near;
    geom::Rect read_tpl;
    bool has_read_near = false;
    bool has_read_tpl = false;
  };

  /// compute_route with every exception (injected allocation failures,
  /// unexpected search errors) converted into a failed outcome — the
  /// recovery contract of the RRR loop: a net that cannot compute is
  /// marked failed and retried on a later iteration instead of killing
  /// the run. Safe because compute_route never mutates the grid.
  [[nodiscard]] RouteOutcome compute_route_guarded(const grid::RoutingGrid& grid,
                                                   ColorSearch& search,
                                                   db::NetId net_id) const;

  /// Net routing order: short, low-degree nets first.
  [[nodiscard]] std::vector<db::NetId> net_order() const;

  /// A net's search scope: the guide actually applied (null when absent
  /// or empty) and the window (bbox ∪ guide bbox, inflated by
  /// search_margin, clamped to the die). The single source of truth
  /// shared by compute_route and the tile classifier, so a net's tile
  /// ownership can never desynchronize from the search.
  struct SearchScope {
    const global::NetGuide* guide = nullptr;
    geom::Rect window;
  };
  [[nodiscard]] SearchScope net_scope(db::NetId net_id) const;

  /// Algorithm 3. Walks prev pointers from `dst` to the routed tree,
  /// attaching vertices to verSets/segSets and re-seeding the tree.
  static std::vector<grid::VertexId> backtrace(const grid::RoutingGrid& grid,
                                               ColorSearch& search, SegSetPool& pool,
                                               grid::VertexId dst);

  /// Algorithms 1–3 for one net without touching the grid. Thread-safe
  /// for nets whose read footprints (window + dcolor halo) are disjoint
  /// from every concurrent commit.
  [[nodiscard]] RouteOutcome compute_route(const grid::RoutingGrid& grid,
                                           ColorSearch& search,
                                           db::NetId net_id) const;

  /// Final per-segSet mask selection for a routed net (the commit half of
  /// the old color_and_commit, minus the commits): fills outcome.colors.
  void choose_colors(const grid::RoutingGrid& grid, SegSetPool& pool,
                     db::NetId net_id, const grid::NetRoute& route,
                     std::vector<std::pair<grid::VertexId, grid::Mask>>& colors) const;

  /// Commit an outcome's colors and fold its counters into stats_.
  void apply_outcome(grid::RoutingGrid& grid, const RouteOutcome& outcome);

  /// Reset a solution entry to the kSkipped marker of a budget stop.
  static void mark_skipped(grid::Solution& solution, db::NetId id);

  /// The tiled executor's worker state, built once per run(): one pool,
  /// and one SearchArena per worker for the tile views it routes.
  struct Workers {
    std::unique_ptr<util::ThreadPool> pool;
    std::vector<std::unique_ptr<SearchArena>> arenas;
  };

  /// One routing pass. Routes `nets` in order into `grid`, storing results
  /// in `solution`; each net sees exactly the commits of the nets before
  /// it. With `workers` (and more than one net, and budget left) the pass
  /// is tiled (route_tiles); otherwise it is the commit walk alone.
  /// Byte-identical for every (tiles, threads) configuration.
  void route_list(grid::RoutingGrid& grid, ColorSearch& search, Workers* workers,
                  const std::vector<db::NetId>& nets, grid::Solution& solution);

  /// What a tiled pass's tile tasks hand its commit walk: each net's tile
  /// (TilePlan::kBoundary for boundary nets) and, slot-indexed, the
  /// outcome of every interior net, published through `feed`.
  struct TiledPass {
    explicit TiledPass(std::size_t slots) : outcomes(slots), feed(slots) {}
    std::vector<int> tile_of;
    std::vector<RouteOutcome> outcomes;
    shard::TileFeed feed;
  };

  /// The tiled pass (sharded_router.cpp). Classifies `nets` by tile
  /// ownership, then runs the commit walk on the calling thread while the
  /// pool routes each tile's interior nets sequentially, in ripped order,
  /// against the tile's own GridView (intra-tile dependencies are exact,
  /// not speculative). Tiles are dispatched in first-slot order and cut
  /// their views when the walk reaches their first slot.
  void route_tiles(grid::RoutingGrid& grid, ColorSearch& search, Workers& workers,
                   const std::vector<db::NetId>& nets, grid::Solution& solution);

  /// The commit walk, the only per-net loop. Without `tiled` it routes
  /// every net against the exact serial-prefix grid. With it, boundary
  /// nets are still routed here, and each interior outcome is awaited
  /// from the feed, applied when no commit its view could not see landed
  /// in its read footprint, and recomputed on the spot otherwise. Returns
  /// the first slot a budget stop skipped (nets.size() when none); the
  /// feed is closed at that point.
  std::size_t commit_walk(grid::RoutingGrid& grid, ColorSearch& search,
                          TiledPass* tiled, const std::vector<db::NetId>& nets,
                          grid::Solution& solution);

  struct LayoutSnapshot;  // best-iterate keeper, mrtpl_router.cpp

  /// The Fig. 2 rip-up-and-reroute driver behind both run() and reroute():
  /// normalizes dead nets, routes `work` once, then detects conflicts
  /// (through `index`), scores and keeps the best iterate, adds history,
  /// rips (ripped nets reroute in `order`, the caller's net_order()),
  /// widens the windows of failed nets and reroutes — from iteration
  /// `start_iter` with `best` as the best iterate so far — until clean or
  /// max_rrr_iterations. Finally restores the best iterate when it is an
  /// earlier one and sets the degraded status. `workers` null routes
  /// serially. With `checkpoint` non-null the last clean iteration
  /// boundary is written back into it on a budget stop (valid=false
  /// otherwise).
  void rip_and_reroute(grid::RoutingGrid& grid, ConflictIndex& index,
                       Workers* workers, const std::vector<db::NetId>& order,
                       const std::vector<db::NetId>& work, int start_iter,
                       LayoutSnapshot best, grid::Solution& solution,
                       RouterCheckpoint* checkpoint);

  const db::Design& design_;
  const global::GuideSet* guides_;
  RouterConfig config_;
  RouterStats stats_;

  /// Arena of the serial ColorSearch, created on first use and reused by
  /// every later run()/reroute() of this router.
  std::unique_ptr<SearchArena> arena_;

  /// Armed budget of the current run (inactive when run(grid) was called
  /// without one). route_list consults it at per-net commit points; the
  /// ColorSearch instances poll it mid-search for deadline/cancel.
  BudgetTracker budget_;

  /// Extra search margin per net, beyond config_.search_margin. Starts at
  /// zero, doubles every RRR iteration a net fails to route — the escape
  /// valve for labyrinth-style blockages whose only opening lies far
  /// outside the net's bbox (scenario macro mazes) — and drops back to
  /// zero the moment the net routes. Mutated only between route passes on
  /// the main thread; net_scope reads it, so tile ownership tracks the
  /// widened windows automatically.
  std::vector<int> extra_margin_;
};

}  // namespace mrtpl::core
