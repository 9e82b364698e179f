/// \file test_grid_property.cpp
/// Structural invariants of the routing grid, swept over layer/size
/// shapes: vertex<->loc bijection, neighbor inverses, window symmetry of
/// the Dcolor neighborhood, commit/release round trips, and the
/// incrementally maintained congestion field against the window scan.

#include <gtest/gtest.h>

#include <set>

#include "benchgen/generator.hpp"
#include "grid/routing_grid.hpp"
#include "support/builders.hpp"
#include "util/rng.hpp"

namespace mrtpl::grid {
namespace {

/// (layers, width, height) shapes for the sweep.
struct Shape {
  int layers, w, h;
};

class GridShapes : public ::testing::TestWithParam<Shape> {
 protected:
  static db::Design make_design(const Shape& s) {
    return test::single_pin_design(s.layers, s.w, s.h);
  }
};

TEST_P(GridShapes, VertexLocBijection) {
  const db::Design d = make_design(GetParam());
  const RoutingGrid g(d);
  std::set<VertexId> seen;
  for (int l = 0; l < g.num_layers(); ++l)
    for (int y = 0; y < g.size_y(); ++y)
      for (int x = 0; x < g.size_x(); ++x) {
        const VertexId v = g.vertex(l, x, y);
        ASSERT_LT(v, g.num_vertices());
        EXPECT_TRUE(seen.insert(v).second) << "duplicate id " << v;
        const VertexLoc loc = g.loc(v);
        EXPECT_EQ(loc.layer, l);
        EXPECT_EQ(loc.x, x);
        EXPECT_EQ(loc.y, y);
      }
  EXPECT_EQ(seen.size(), g.num_vertices());
}

TEST_P(GridShapes, NeighborsAreInvolutions) {
  const db::Design d = make_design(GetParam());
  const RoutingGrid g(d);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int di = 0; di < kNumDirs; ++di) {
      const auto dir = static_cast<Dir>(di);
      const VertexId u = g.neighbor(v, dir);
      if (u == kInvalidVertex) continue;
      EXPECT_EQ(g.neighbor(u, opposite(dir)), v)
          << "dir " << di << " at vertex " << v;
    }
  }
}

TEST_P(GridShapes, NeighborsDifferByOneStep) {
  const db::Design d = make_design(GetParam());
  const RoutingGrid g(d);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexLoc l = g.loc(v);
    for (int di = 0; di < kNumDirs; ++di) {
      const VertexId u = g.neighbor(v, static_cast<Dir>(di));
      if (u == kInvalidVertex) continue;
      const VertexLoc lu = g.loc(u);
      const int dl = std::abs(lu.layer - l.layer);
      const int dx = std::abs(lu.x - l.x);
      const int dy = std::abs(lu.y - l.y);
      EXPECT_EQ(dl + dx + dy, 1) << "vertex " << v << " dir " << di;
      EXPECT_EQ(is_via(static_cast<Dir>(di)), dl == 1);
    }
  }
}

TEST_P(GridShapes, BoundaryVerticesLackOutwardNeighbors) {
  const db::Design d = make_design(GetParam());
  const RoutingGrid g(d);
  // Corners of the bottom layer.
  EXPECT_EQ(g.neighbor(g.vertex(0, 0, 0), Dir::West), kInvalidVertex);
  EXPECT_EQ(g.neighbor(g.vertex(0, 0, 0), Dir::South), kInvalidVertex);
  EXPECT_EQ(g.neighbor(g.vertex(0, 0, 0), Dir::Down), kInvalidVertex);
  const VertexId top =
      g.vertex(g.num_layers() - 1, g.size_x() - 1, g.size_y() - 1);
  EXPECT_EQ(g.neighbor(top, Dir::East), kInvalidVertex);
  EXPECT_EQ(g.neighbor(top, Dir::North), kInvalidVertex);
  EXPECT_EQ(g.neighbor(top, Dir::Up), kInvalidVertex);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GridShapes,
                         ::testing::Values(Shape{2, 8, 8}, Shape{2, 8, 13},
                                           Shape{3, 13, 8}, Shape{4, 16, 16},
                                           Shape{5, 9, 21}, Shape{6, 12, 12}));

TEST(GridWindow, ColoredNeighborhoodIsSymmetric) {
  // u in window(v) <=> v in window(u), for committed vertices of different
  // nets — the conflict relation must be symmetric or counting breaks.
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  // Commit a scatter of fake metal on layer 0 for two nets.
  std::vector<VertexId> reds, greens;
  for (int i = 0; i < 10; ++i) {
    const VertexId v = g.vertex(0, 2 * i % g.size_x(), (3 * i) % g.size_y());
    if (g.owner(v) != db::kNoNet || g.blocked(v)) continue;
    g.commit(v, i % 2, 0);
    (i % 2 == 0 ? reds : greens).push_back(v);
  }
  for (const VertexId v : reds) {
    std::set<VertexId> from_v;
    g.for_each_colored_neighbor(v, 0, [&](VertexId u, db::NetId, Mask) {
      from_v.insert(u);
    });
    for (const VertexId u : from_v) {
      std::set<VertexId> from_u;
      g.for_each_colored_neighbor(u, 1, [&](VertexId w, db::NetId, Mask) {
        from_u.insert(w);
      });
      EXPECT_TRUE(from_u.contains(v)) << "asymmetric window " << v << "/" << u;
    }
  }
}

TEST(GridWindow, SameNetInvisible) {
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  const VertexId a = g.vertex(0, 5, 5);
  const VertexId b = g.vertex(0, 5, 6);
  g.commit(a, 0, 0);
  g.commit(b, 0, 0);
  int seen = 0;
  g.for_each_colored_neighbor(a, 0, [&](VertexId, db::NetId, Mask) { ++seen; });
  EXPECT_EQ(seen, 0) << "own metal must not self-conflict";
}

TEST(GridWindow, UncoloredMetalInvisible) {
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  const VertexId a = g.vertex(0, 5, 5);
  const VertexId b = g.vertex(0, 5, 6);
  g.commit(a, 0, 0);
  g.commit(b, 1, kNoMask);  // committed but uncolored
  int seen = 0;
  g.for_each_colored_neighbor(a, 0, [&](VertexId, db::NetId, Mask) { ++seen; });
  EXPECT_EQ(seen, 0);
}

TEST(GridCommit, ReleaseRestoresPinOwnership) {
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  // Find a pin vertex; commit it to its net with a mask, then release.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!g.is_pin_vertex(v)) continue;
    const db::NetId owner = g.owner(v);
    ASSERT_NE(owner, db::kNoNet);
    g.commit(v, owner, 1);
    EXPECT_EQ(g.mask(v), 1);
    g.release(v);
    EXPECT_EQ(g.owner(v), owner) << "pin metal must survive rip-up";
    EXPECT_EQ(g.mask(v), kNoMask);
    return;
  }
  FAIL() << "no pin vertex found";
}

/// The congestion field the search reads in place of the Dcolor window
/// scan (README "Search hot path") must equal that scan for any net that
/// holds no colors, after every commit/set_mask/release. Random mutation
/// sequences over a small hot region (so windows overlap heavily) mix
/// recolors, pin-vertex releases, uncolored commits and re-commits.
class CongestionFieldOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CongestionFieldOracle, FieldMatchesWindowScanAfterEveryMutation) {
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  util::Rng rng(GetParam());
  constexpr db::NetId kNets = 4;
  constexpr db::NetId kProbe = 1000;  // never committed: holds no colors
  ASSERT_EQ(g.colored_count(kProbe), 0u);
  for (int op = 0; op < 400; ++op) {
    const VertexId v = g.vertex(rng.next_int(0, g.num_layers() - 1),
                                rng.next_int(4, 13), rng.next_int(4, 13));
    if (g.blocked(v)) continue;
    const int pick = rng.next_int(-1, kNumMasks - 1);
    const Mask m = pick < 0 ? kNoMask : static_cast<Mask>(pick);
    const db::NetId owner = g.owner(v);
    const double roll = rng.next_double();
    if (owner == db::kNoNet || roll < 0.4) {
      g.commit(v, owner != db::kNoNet ? owner : rng.next_int(0, kNets - 1), m);
    } else if (roll < 0.7) {
      g.set_mask(v, m);
    } else {
      g.release(v);
    }

    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      if (!g.tech().is_tpl_layer(g.loc(u).layer)) continue;
      int scan[kNumMasks] = {0, 0, 0};
      g.for_each_colored_neighbor(u, kProbe,
                                  [&scan](VertexId, db::NetId, Mask c) { ++scan[c]; });
      const std::uint16_t* field = g.colored_neighbor_counts(u);
      for (int c = 0; c < kNumMasks; ++c)
        ASSERT_EQ(field[c], scan[c]) << "op " << op << " vertex " << u << " mask " << c;
    }
    // colored_count is the guard that lets the search trust the field.
    std::uint32_t colored[kNets] = {0, 0, 0, 0};
    for (VertexId u = 0; u < g.num_vertices(); ++u)
      if (g.owner(u) >= 0 && g.owner(u) < kNets && g.mask(u) != kNoMask)
        ++colored[g.owner(u)];
    for (db::NetId n = 0; n < kNets; ++n)
      ASSERT_EQ(g.colored_count(n), colored[n]) << "op " << op << " net " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CongestionFieldOracle, ::testing::Values(1, 2, 3, 4));

TEST(GridHistory, AccumulatesAndClears) {
  const db::Design d = benchgen::generate(benchgen::tiny_case());
  RoutingGrid g(d);
  const VertexId v = g.vertex(1, 3, 3);
  EXPECT_DOUBLE_EQ(g.history(v), 0.0);
  g.add_history(v, 1.5);
  g.add_history(v, 2.0);
  EXPECT_NEAR(g.history(v), 3.5, 1e-6);
  g.clear_history();
  EXPECT_DOUBLE_EQ(g.history(v), 0.0);
}

}  // namespace
}  // namespace mrtpl::grid
