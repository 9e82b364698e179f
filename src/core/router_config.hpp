#pragma once
/// \file router_config.hpp
/// Tunables of the Mr.TPL detailed router. Weight defaults follow the
/// TechRules of the design; the toggles exist for the ablation benches
/// (`bench_ablation_colorstate`, `_stitch`, `_rrr` and `_astar`: A1, A2,
/// A3 and A5).

#include <cstdint>

namespace mrtpl::core {

struct RouterConfig {
  // ---- rip-up & reroute (Fig. 2 outer loop) --------------------------
  int max_rrr_iterations = 5;

  /// Whether the RRR loop rips nets on *color conflicts* (with history
  /// cost), in addition to routability failures. Negotiated color-conflict
  /// RRR is part of Mr.TPL's Fig. 2 flow; the DAC-2012 baseline's
  /// published flow commits colors in one pass and its rip-up only targets
  /// unroutable nets, so the Table II harness runs the baseline with this
  /// off (bench/flow.hpp `dac12_config`). Turning it on for the baseline
  /// is the `bench_ablation_rrr` "negotiated baseline" ablation.
  bool rrr_on_color_conflicts = true;

  /// Worker threads of the tile-sharded executor. Threads parallelize
  /// only together with shard_tiles > 1: each pass then routes every
  /// tile's interior nets concurrently in per-tile views of the pass-start
  /// grid, and the main thread's commit walk — in strict ripped order —
  /// routes the boundary nets itself and redoes any interior outcome an
  /// earlier commit invalidated. Without tiles every pass runs serially
  /// and no pool is built. Applied results are the serial loop's by
  /// construction, so output is byte-identical for every thread count.
  int rrr_threads = 1;

  /// Die tiling of the sharded executor (core::ShardedRouter /
  /// MrTplRouter::route_tiles). The die is partitioned into
  /// ~sqrt(shard_tiles)² tiles; a net whose halo-inflated search window
  /// fits inside one tile is *interior* to it and computes sequentially
  /// against that tile's GridView (intra-tile dependencies exact, O(tile)
  /// memory); nets crossing tile boundaries are routed in the commit walk
  /// against the exact serial-prefix grid. Output is byte-identical for
  /// every (shard_tiles, rrr_threads) configuration — validation at commit
  /// decides what is KEPT, never what the result is. Takes effect only
  /// with rrr_threads >= 2; 1 routes serially.
  int shard_tiles = 1;

  // ---- search window ---------------------------------------------------
  /// Hard clamp: search stays within the net bbox united with its guide
  /// bbox, inflated by this many tracks. Keeps per-net search local, as a
  /// guide-driven detailed router does.
  int search_margin = 6;

  // ---- ablation toggles ------------------------------------------------
  /// A1: when false, the searcher commits to a *single* argmin color per
  /// vertex instead of keeping the argmin set — i.e. disables the paper's
  /// set-based color-state merging contribution.
  bool set_based_states = true;

  /// Override beta (stitch weight) / gamma (color-conflict weight) from
  /// the tech rules when >= 0; used by the A2 sweep.
  double beta_override = -1.0;
  double gamma_override = -1.0;

  /// When false, skip coloring entirely (plain-router mode used by the
  /// decomposition flow of Table III).
  bool enable_coloring = true;

  /// Drive the color-state search as A* with an admissible Manhattan
  /// lower bound to the nearest unreached pin instead of plain Dijkstra
  /// (the paper's Algorithm 2). Path costs are identical — the heuristic
  /// never overestimates because wire steps cost at least alpha *
  /// wire_cost and color terms are nonnegative — so solution quality is
  /// preserved while the explored frontier shrinks. Ablation experiment
  /// A5 (`bench_ablation_astar`) measures the effect.
  bool use_astar = false;
};

}  // namespace mrtpl::core
