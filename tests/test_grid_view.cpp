/// \file test_grid_view.cpp
/// grid::GridView contract: a view is indistinguishable from a whole-die
/// grid inside its window. Vertex ids are offset-mapped (the oracle here
/// is the base grid itself), committed state is an exact copy of the
/// base's window at construction, edges stop at the window, pin lookups
/// clip, and mutations never leak between view and base.

#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "global/global_router.hpp"
#include "grid/grid_view.hpp"
#include "shard/tile_plan.hpp"
#include "support/builders.hpp"

namespace mrtpl {
namespace {

/// A routed mid-size case, so views copy real committed state (owners,
/// masks, congestion counters, history) rather than a blank die.
db::Design routed_design() {
  return benchgen::generate(test::sized_case(40, 55, 7));
}

void route_into(const db::Design& design, grid::RoutingGrid& grid) {
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  core::MrTplRouter router(design, &guides, core::RouterConfig{});
  (void)router.run(grid);
  // Some history, so the float array is not all zeros either.
  grid.add_history(grid.vertex(0, 3, 3), 1.5);
}

TEST(GridView, VertexIdMappingMatchesBaseOracle) {
  const db::Design design = routed_design();
  grid::RoutingGrid base(design);
  const shard::TilePlan plan(design.die(), 4);
  for (int t = 0; t < plan.num_tiles(); ++t) {
    const geom::Rect& tile = plan.tile(t);
    grid::GridView view(base, tile);
    EXPECT_EQ(view.bounds(), tile);
    EXPECT_EQ(view.num_vertices(),
              static_cast<std::uint32_t>(base.num_layers()) *
                  static_cast<std::uint32_t>(tile.width()) *
                  static_cast<std::uint32_t>(tile.height()));
    for (int l = 0; l < base.num_layers(); ++l) {
      for (int y = tile.lo.y; y <= tile.hi.y; ++y) {
        for (int x = tile.lo.x; x <= tile.hi.x; ++x) {
          const grid::VertexId lv = view.vertex(l, x, y);
          ASSERT_LT(lv, view.num_vertices());
          // Same coordinates on both sides of the mapping.
          EXPECT_EQ(view.loc(lv), (grid::VertexLoc{l, x, y}));
          EXPECT_EQ(view.to_base(lv), base.vertex(l, x, y));
          EXPECT_EQ(view.from_base(base.vertex(l, x, y)), lv);
        }
      }
    }
  }
}

TEST(GridView, LocalIdOrderMatchesGlobalIdOrder) {
  // choose_colors sorts segSet members by vertex id — the sharded
  // executor translates AFTER that sort, so local order must agree with
  // global order.
  const db::Design design = routed_design();
  grid::RoutingGrid base(design);
  grid::GridView view(base, {11, 7, 31, 24});
  grid::VertexId prev_base = 0;
  for (grid::VertexId lv = 0; lv < view.num_vertices(); ++lv) {
    const grid::VertexId bv = view.to_base(lv);
    if (lv > 0) EXPECT_LT(prev_base, bv) << "local id " << lv;
    prev_base = bv;
  }
}

TEST(GridView, CopiesCommittedStateOfWindow) {
  const db::Design design = routed_design();
  grid::RoutingGrid base(design);
  route_into(design, base);
  const shard::TilePlan plan(design.die(), 9);
  for (int t = 0; t < plan.num_tiles(); ++t) {
    grid::GridView view(base, plan.tile(t));
    const geom::Rect& tile = plan.tile(t);
    for (int l = 0; l < base.num_layers(); ++l) {
      for (int y = tile.lo.y; y <= tile.hi.y; ++y) {
        for (int x = tile.lo.x; x <= tile.hi.x; ++x) {
          const grid::VertexId bv = base.vertex(l, x, y);
          const grid::VertexId lv = view.vertex(l, x, y);
          EXPECT_EQ(view.owner(lv), base.owner(bv));
          EXPECT_EQ(view.mask(lv), base.mask(bv));
          EXPECT_EQ(view.blocked(lv), base.blocked(bv));
          EXPECT_EQ(view.is_pin_vertex(lv), base.is_pin_vertex(bv));
          EXPECT_EQ(view.history(lv), base.history(bv));
          // The congestion field is copied row-exactly, so even counters
          // at the window edge (which count vertices outside it) match.
          for (int m = 0; m < grid::kNumMasks; ++m)
            EXPECT_EQ(view.colored_neighbor_counts(lv)[m],
                      base.colored_neighbor_counts(bv)[m]);
        }
      }
    }
  }
  // Per-net colored counters are global state and copied wholesale.
  for (const auto& net : design.nets()) {
    grid::GridView view(base, plan.tile(0));
    EXPECT_EQ(view.colored_count(net.id), base.colored_count(net.id));
    break;  // one net suffices; the vector is copied in one shot
  }
}

TEST(GridView, EdgesStopAtWindowBoundary) {
  const db::Design design = routed_design();
  grid::RoutingGrid base(design);
  const geom::Rect tile{10, 12, 25, 27};  // interior window: die is 40x40
  grid::GridView view(base, tile);
  const int l = 0;
  // East off the window's hi.x edge: invalid in the view, valid in base.
  const grid::VertexId east_edge = view.vertex(l, tile.hi.x, 20);
  EXPECT_EQ(view.neighbor(east_edge, grid::Dir::East), grid::kInvalidVertex);
  EXPECT_NE(base.neighbor(base.vertex(l, tile.hi.x, 20), grid::Dir::East),
            grid::kInvalidVertex);
  const grid::VertexId west_edge = view.vertex(l, tile.lo.x, 20);
  EXPECT_EQ(view.neighbor(west_edge, grid::Dir::West), grid::kInvalidVertex);
  const grid::VertexId north_edge = view.vertex(l, 15, tile.hi.y);
  EXPECT_EQ(view.neighbor(north_edge, grid::Dir::North), grid::kInvalidVertex);
  const grid::VertexId south_edge = view.vertex(l, 15, tile.lo.y);
  EXPECT_EQ(view.neighbor(south_edge, grid::Dir::South), grid::kInvalidVertex);
  // Interior moves translate to the base's neighbors.
  const grid::VertexId mid = view.vertex(l, 17, 20);
  for (const auto d : {grid::Dir::East, grid::Dir::West, grid::Dir::North,
                       grid::Dir::South, grid::Dir::Up}) {
    const grid::VertexId vn = view.neighbor(mid, d);
    ASSERT_NE(vn, grid::kInvalidVertex);
    EXPECT_EQ(view.to_base(vn),
              base.neighbor(view.to_base(mid), d));
  }
}

TEST(GridView, PinVerticesClipToWindow) {
  const db::Design design = routed_design();
  grid::RoutingGrid base(design);
  const geom::Rect tile{0, 0, 19, 19};
  grid::GridView view(base, tile);
  for (const auto& net : design.nets()) {
    for (const auto& pin : net.pins) {
      std::vector<grid::VertexId> expected;
      for (const grid::VertexId bv : base.pin_vertices(pin)) {
        const grid::VertexLoc l = base.loc(bv);
        if (tile.contains({l.x, l.y})) expected.push_back(bv);
      }
      std::vector<grid::VertexId> got;
      for (const grid::VertexId lv : view.pin_vertices(pin))
        got.push_back(view.to_base(lv));
      EXPECT_EQ(got, expected) << "net " << net.id;
    }
  }
}

TEST(GridView, MutationsNeverLeakBetweenViewAndBase) {
  const db::Design design = routed_design();
  grid::RoutingGrid base(design);
  grid::GridView view(base, {5, 5, 30, 30});
  const grid::VertexId lv = view.vertex(1, 12, 12);
  const grid::VertexId bv = base.vertex(1, 12, 12);
  ASSERT_EQ(base.owner(bv), db::kNoNet);
  view.commit(lv, 0, 2);
  view.add_history(lv, 4.0);
  EXPECT_EQ(view.owner(lv), 0);
  EXPECT_EQ(base.owner(bv), db::kNoNet) << "view commit leaked into base";
  EXPECT_EQ(base.mask(bv), grid::kNoMask);
  EXPECT_EQ(base.history(bv), 0.0f);
  // And the other direction: the view is a snapshot, not a live alias.
  base.commit(base.vertex(1, 13, 13), 1, 1);
  EXPECT_EQ(view.owner(view.vertex(1, 13, 13)), db::kNoNet);
}

}  // namespace
}  // namespace mrtpl
