/// \file test_scenario_pins.cpp
/// Routing output pinned ACROSS COMMITS. ShardSweep and bench_sharded
/// compare configurations of one build with each other, so a change that
/// moves every configuration the same way passes them; this suite routes
/// the quick variant of every registry scenario serially and compares the
/// solution hash and QoR against tests/golden/scenario_pins.json.
///
/// When the pins drift on purpose, re-record them with
///   MRTPL_UPDATE_GOLDEN=1 ctest -R ScenarioPins
/// and say in the change log why the routes moved.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "eval/metrics.hpp"
#include "global/global_router.hpp"
#include "grid/routing_grid.hpp"
#include "io/solution_io.hpp"
#include "scenario/scenario.hpp"
#include "support/golden.hpp"

namespace mrtpl {
namespace {

/// One JSON line of pins for a scenario's quick spec, routed serially with
/// the default RouterConfig over the suite runner's global-route setup.
std::string pin_line(const scenario::ScenarioSpec& sc) {
  const db::Design design = benchgen::generate(sc.quick);
  global::GlobalConfig gconfig;
  gconfig.hard_spanning_blockages = true;
  const global::GuideSet guides = global::GlobalRouter(design, gconfig).route_all();
  grid::RoutingGrid grid(design);
  core::MrTplRouter router(design, &guides, core::RouterConfig{});
  const grid::Solution sol = router.run(grid);
  const eval::Metrics m = eval::evaluate(grid, sol, &guides);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"scenario\":\"%s\",\"hash\":\"%016" PRIx64
                "\",\"conflicts\":%d,\"stitches\":%d,\"wirelength\":%ld,"
                "\"vias\":%ld,\"failed_nets\":%d}",
                sc.name.c_str(), io::fnv1a(io::solution_to_string(grid, sol)),
                m.conflicts, m.stitches, m.wirelength, m.vias, m.failed_nets);
  return buf;
}

TEST(ScenarioPins, QuickScenariosMatchCommittedPins) {
  const auto& all = scenario::ScenarioRegistry::builtin().all();
  std::string text = "[\n";
  for (std::size_t i = 0; i < all.size(); ++i)
    text += "  " + pin_line(all[i]) + (i + 1 < all.size() ? ",\n" : "\n");
  text += "]\n";
  test::expect_matches_golden("scenario_pins.json", text);
}

}  // namespace
}  // namespace mrtpl
