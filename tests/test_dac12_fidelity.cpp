/// \file test_dac12_fidelity.cpp
/// Behavioral pins for the properties that make the DAC-2012 baseline a
/// *faithful* replication of the 2012 method rather than a second
/// Mr.TPL. Table II's shape rests on exactly two behaviours (the
/// baseline/dac12_router.hpp file comment, and `bench_ablation_rrr`'s
/// negotiated-baseline row): per-subnet junction-blind coloring, and no
/// color-conflict-driven rip-up. If a refactor accidentally "fixes"
/// either, these tests fail before the bench does.

#include <gtest/gtest.h>

#include "baseline/dac12_router.hpp"
#include "benchgen/generator.hpp"
#include "core/conflict.hpp"
#include "core/mrtpl_router.hpp"
#include "eval/metrics.hpp"

namespace mrtpl::baseline {
namespace {

/// One-pass config matching the published 2012 flow (bench/flow.hpp's
/// dac12_config without pulling in the bench header).
core::RouterConfig one_pass_config() {
  core::RouterConfig cfg;
  cfg.rrr_on_color_conflicts = false;
  return cfg;
}

TEST(Dac12Fidelity, NoConflictRrrWhenDisabled) {
  // A congested case that leaves conflicts after one pass: with
  // rrr_on_color_conflicts = false the driver must stop after the first
  // conflict scan instead of negotiating.
  benchgen::CaseSpec spec;
  spec.name = "congested";
  spec.width = spec.height = 40;
  spec.num_nets = 70;
  spec.local_net_fraction = 0.6;
  spec.local_span = 10;
  spec.seed = 77;
  const db::Design design = benchgen::generate(spec);

  grid::RoutingGrid grid(design);
  Dac12Router router(design, nullptr, one_pass_config());
  const grid::Solution sol = router.run(grid);
  const int conflicts = static_cast<int>(core::detect_conflicts(grid).size());
  ASSERT_GT(conflicts, 0) << "case not congested enough to exercise the pin";
  // One conflict scan recorded, no negotiation iterations beyond failed
  // nets (none here).
  EXPECT_EQ(router.stats().rrr_iterations, 0);
}

TEST(Dac12Fidelity, ConflictRrrReducesConflictsWhenEnabled) {
  // The same case with the flag on must negotiate and end with fewer
  // conflicts — proving the flag isolates exactly the negotiation loop.
  benchgen::CaseSpec spec;
  spec.name = "congested";
  spec.width = spec.height = 40;
  spec.num_nets = 70;
  spec.local_net_fraction = 0.6;
  spec.local_span = 10;
  spec.seed = 77;
  const db::Design design = benchgen::generate(spec);

  grid::RoutingGrid grid_off(design);
  Dac12Router router_off(design, nullptr, one_pass_config());
  router_off.run(grid_off);
  const int off = static_cast<int>(core::detect_conflicts(grid_off).size());

  grid::RoutingGrid grid_on(design);
  core::RouterConfig cfg_on;  // defaults: rrr_on_color_conflicts = true
  Dac12Router router_on(design, nullptr, cfg_on);
  router_on.run(grid_on);
  const int on = static_cast<int>(core::detect_conflicts(grid_on).size());

  EXPECT_LT(on, off);
  EXPECT_GT(router_on.stats().rrr_iterations, 0);
}

TEST(Dac12Fidelity, JunctionBlindColoringStitchesMultiPinNets) {
  // Fig. 1(c) in miniature: a solo 4-pin net on an empty die. Mr.TPL
  // must color it stitch-free (all costs tie, states merge); the 2012
  // method colors each 2-pin subnet independently, so junction-color
  // mismatches surface as stitches the search never priced. On an empty
  // die every mask ties at every step, making the baseline's stitch
  // count purely a junction artifact.
  db::Design d("f", db::Tech::make_default(2, 2), {0, 0, 23, 23});
  const db::NetId n = d.add_net("n");
  db::Pin p;
  p.layer = 0;
  for (const auto& [x, y] : {std::pair{2, 2}, {20, 3}, {3, 19}, {20, 20}}) {
    p.shapes = {{x, y, x, y}};
    d.add_pin(n, p);
  }
  d.validate();

  grid::RoutingGrid grid_ours(d);
  core::MrTplRouter ours(d, nullptr, core::RouterConfig{});
  const grid::Solution sol_ours = ours.run(grid_ours);
  const eval::Metrics m_ours = eval::evaluate(grid_ours, sol_ours, nullptr);
  EXPECT_EQ(m_ours.stitches, 0)
      << "set-based states must color a solo multi-pin net stitch-free";

  grid::RoutingGrid grid_base(d);
  Dac12Router base(d, nullptr, one_pass_config());
  const grid::Solution sol_base = base.run(grid_base);
  const eval::Metrics m_base = eval::evaluate(grid_base, sol_base, nullptr);
  EXPECT_LE(m_ours.stitches, m_base.stitches);
}

TEST(Dac12Fidelity, TwoPinNetsNeedNoStitches) {
  // Degree 2 is the baseline's home turf: a solo 2-pin net must come out
  // stitch-free from both methods (the Fig. 1(c) penalty is junctions,
  // not 2-pin paths).
  db::Design d("p2", db::Tech::make_default(2, 2), {0, 0, 15, 15});
  const db::NetId n = d.add_net("n");
  db::Pin p;
  p.layer = 0;
  p.shapes = {{1, 1, 1, 1}};
  d.add_pin(n, p);
  p.shapes = {{13, 14, 13, 14}};
  d.add_pin(n, p);
  d.validate();

  grid::RoutingGrid grid(d);
  Dac12Router router(d, nullptr, one_pass_config());
  const grid::Solution sol = router.run(grid);
  EXPECT_EQ(eval::evaluate(grid, sol, nullptr).stitches, 0);
}

}  // namespace
}  // namespace mrtpl::baseline
