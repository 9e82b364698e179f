/// \file test_conflict_index.cpp
/// ConflictIndex oracle suite: the incremental violating-pair engine must
/// agree with the full-rescan oracle (violation_pairs / detect_conflicts)
/// after *every* mutation of the committed grid state — random commits,
/// releases and recolors included — and across a complete routing flow.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "benchgen/generator.hpp"
#include "core/conflict.hpp"
#include "core/conflict_index.hpp"
#include "core/mrtpl_router.hpp"
#include "global/global_router.hpp"
#include "support/builders.hpp"
#include "util/rng.hpp"

namespace mrtpl::core {
namespace {

using VertexPair = std::pair<grid::VertexId, grid::VertexId>;

/// Oracle pairs normalized to (v < u) and sorted — the representation
/// ConflictIndex::pairs() promises.
std::vector<VertexPair> oracle_pairs(const grid::RoutingGrid& grid) {
  std::vector<VertexPair> pairs = violation_pairs(grid);
  for (auto& [v, u] : pairs)
    if (v > u) std::swap(v, u);
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Conflicts flattened to a comparable form: per conflict the net pair
/// plus its sorted normalized pairs, the whole list sorted.
std::vector<std::tuple<db::NetId, db::NetId, std::vector<VertexPair>>>
comparable(std::vector<Conflict> conflicts) {
  std::vector<std::tuple<db::NetId, db::NetId, std::vector<VertexPair>>> out;
  out.reserve(conflicts.size());
  for (auto& c : conflicts) {
    for (auto& [v, u] : c.pairs)
      if (v > u) std::swap(v, u);
    std::sort(c.pairs.begin(), c.pairs.end());
    out.emplace_back(c.net_a, c.net_b, std::move(c.pairs));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_matches_oracle(const grid::RoutingGrid& grid, ConflictIndex& index,
                           int step) {
  EXPECT_EQ(index.pairs(), oracle_pairs(grid)) << "pair set diverged at step " << step;
  EXPECT_EQ(comparable(index.conflicts()), comparable(detect_conflicts(grid)))
      << "clustered view diverged at step " << step;
}

TEST(ConflictIndex, EmptyGridHasNoPairs) {
  const db::Design d = test::parallel_nets_design(3);
  grid::RoutingGrid g(d);
  ConflictIndex index(g);
  EXPECT_EQ(index.num_pairs(), oracle_pairs(g).size());
  EXPECT_EQ(comparable(index.conflicts()), comparable(detect_conflicts(g)));
}

TEST(ConflictIndex, TracksManualCommitReleaseRecolor) {
  const db::Design d = test::parallel_nets_design(3);
  grid::RoutingGrid g(d);  // layer 0 is a TPL layer
  ConflictIndex index(g);

  g.commit(g.vertex(0, 5, 9), 0, 1);
  g.commit(g.vertex(0, 6, 9), 1, 1);  // adjacent, same mask -> pair
  expect_matches_oracle(g, index, 0);
  EXPECT_EQ(index.num_pairs(), 1u);

  g.set_mask(g.vertex(0, 6, 9), 2);  // recolor away -> pair vanishes
  expect_matches_oracle(g, index, 1);
  EXPECT_EQ(index.num_pairs(), 0u);

  g.set_mask(g.vertex(0, 6, 9), 1);  // and back
  expect_matches_oracle(g, index, 2);
  EXPECT_EQ(index.num_pairs(), 1u);

  g.release(g.vertex(0, 5, 9));  // rip one side
  expect_matches_oracle(g, index, 3);
  EXPECT_EQ(index.num_pairs(), 0u);
}

TEST(ConflictIndex, DetachesOnDestruction) {
  const db::Design d = test::parallel_nets_design(2);
  grid::RoutingGrid g(d);
  {
    ConflictIndex index(g);
    EXPECT_TRUE(g.has_dirty_log());
  }
  EXPECT_FALSE(g.has_dirty_log());
  g.commit(g.vertex(0, 5, 9), 0, 1);  // must not touch a dangling log
}

/// The core oracle property: a long random walk of valid mutations
/// (commit into free space, recolor, release) over several designs keeps
/// the incremental index byte-equal to the rescan after every step.
class ConflictIndexOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConflictIndexOracle, RandomMutationWalkMatchesRescan) {
  const db::Design d = benchgen::generate(test::sized_case(24, 20, GetParam()));
  grid::RoutingGrid g(d);
  ConflictIndex index(g);
  util::Rng rng(GetParam() * 7919 + 17);
  const auto n = g.num_vertices();
  const int num_nets = d.num_nets();

  for (int step = 0; step < 400; ++step) {
    const auto v = static_cast<grid::VertexId>(rng.next_below(n));
    if (g.blocked(v)) continue;
    const db::NetId owner = g.owner(v);
    if (owner == db::kNoNet) {
      const auto net = static_cast<db::NetId>(rng.next_below(
          static_cast<std::uint32_t>(num_nets)));
      const grid::Mask m =
          rng.next_bool(0.2) ? grid::kNoMask
                             : static_cast<grid::Mask>(rng.next_below(3));
      g.commit(v, net, m);
    } else if (rng.next_bool(0.4)) {
      g.release(v);
    } else {
      const grid::Mask m =
          rng.next_bool(0.2) ? grid::kNoMask
                             : static_cast<grid::Mask>(rng.next_below(3));
      g.set_mask(v, m);
    }
    // Check after every mutation so a divergence pinpoints its step.
    expect_matches_oracle(g, index, step);
    if (::testing::Test::HasFailure()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictIndexOracle, ::testing::Values(1, 2, 3, 4));

/// Batched mutations between queries (the RRR usage pattern: many
/// release/commit calls, then one conflicts() pull) must also agree.
TEST(ConflictIndex, BatchedMutationsBetweenQueries) {
  const db::Design d = benchgen::generate(test::sized_case(24, 20, 5));
  grid::RoutingGrid g(d);
  ConflictIndex index(g);
  util::Rng rng(99);
  const auto n = g.num_vertices();

  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 50; ++k) {
      const auto v = static_cast<grid::VertexId>(rng.next_below(n));
      if (g.blocked(v)) continue;
      if (g.owner(v) == db::kNoNet) {
        g.commit(v, static_cast<db::NetId>(rng.next_below(
                        static_cast<std::uint32_t>(d.num_nets()))),
                 static_cast<grid::Mask>(rng.next_below(3)));
      } else if (rng.next_bool(0.5)) {
        g.release(v);
      } else {
        g.set_mask(v, static_cast<grid::Mask>(rng.next_below(3)));
      }
    }
    expect_matches_oracle(g, index, round);
  }
}

/// End-to-end through the RRR driver: a session-style reroute over a
/// caller-owned index (dirty nets released first, as RouterSession does)
/// must leave that index exactly in step with the full-rescan oracle.
TEST(ConflictIndex, RerouteKeepsCallerIndexInStepWithRescan) {
  const db::Design design = benchgen::generate(test::sized_case(40, 55, 123));
  global::GlobalRouter gr(design);
  const global::GuideSet guides = gr.route_all();
  grid::RoutingGrid grid(design);
  core::RouterConfig cfg;
  cfg.max_rrr_iterations = 1;  // a rough layout: fewer RRR rounds than the reroute gets
  MrTplRouter router(design, &guides, cfg);
  grid::Solution solution = router.run(grid);

  ConflictIndex index(grid);
  expect_matches_oracle(grid, index, 0);
  std::vector<db::NetId> dirty;
  for (db::NetId id = 0; id < design.num_nets(); id += 3) {
    grid::release_route(grid, solution.routes[static_cast<size_t>(id)]);
    dirty.push_back(id);
  }
  MrTplRouter rerouter(design, &guides, core::RouterConfig{});
  (void)rerouter.reroute(grid, index, dirty, solution);
  EXPECT_GT(rerouter.stats().relaxations, 0u);
  EXPECT_FALSE(rerouter.stats().conflicts_per_iter.empty());
  expect_matches_oracle(grid, index, 1);
}

}  // namespace
}  // namespace mrtpl::core
