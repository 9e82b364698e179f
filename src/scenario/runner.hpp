#pragma once
/// \file runner.hpp
/// End-to-end scenario execution: generate -> global route -> Mr.TPL
/// route -> evaluate -> DRC-verify, one ScenarioResult (and one JSON
/// metrics line) per scenario. The runner never throws on scenario-level
/// trouble — invalid specs come back as kSkip and flow exceptions as
/// kFail with the message in `note` — so one broken registry entry cannot
/// take down a suite run.

#include <functional>
#include <string>
#include <vector>

#include "core/router_config.hpp"
#include "eval/metrics.hpp"
#include "io/json_report.hpp"
#include "scenario/scenario.hpp"

namespace mrtpl::scenario {

enum class Status {
  kPass,     ///< routed, conflict-free, DRC-clean
  kFail,     ///< conflicts, failed nets, DRC violations, or an exception
  kTimeout,  ///< deadline preempted routing, or the wall budget was exceeded
  kSkip,     ///< spec failed validation; the flow never ran
};

[[nodiscard]] const char* to_string(Status status);

struct RunnerOptions {
  /// Run each scenario's scaled-down CI variant instead of the full one.
  bool quick = false;

  /// Per-scenario wall-clock budget in seconds, 0 = unlimited. The budget
  /// PREEMPTS routing: whatever remains after generation and global
  /// routing is handed to the router as a RouteBudget deadline, so a
  /// runaway case stops ripping mid-run (Solution kDegraded → kTimeout)
  /// instead of eating the CI budget. A post-hoc check still catches time
  /// spent outside the routing loop.
  double timeout_s = 0.0;

  /// Base router configuration; `rrr_threads` and `shard_tiles` are the
  /// suite's --threads and --tiles (threads parallelize only with tiles).
  core::RouterConfig config;
};

struct ScenarioResult {
  std::string name;
  std::string family;
  Status status = Status::kSkip;
  std::string note;        ///< failure/skip reason, empty on pass
  int nets = 0;            ///< nets in the generated design
  bool drc_clean = false;
  bool degraded = false;   ///< deadline preempted routing mid-run
  eval::Metrics metrics;
  double detect_s = 0.0;   ///< conflict-detection wall time (router stats)
  double route_s = 0.0;    ///< detailed-routing wall time
  double total_s = 0.0;    ///< generate through DRC verify
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(RunnerOptions options = {});

  /// Run one scenario end to end.
  [[nodiscard]] ScenarioResult run(const ScenarioSpec& scenario) const;

  /// Run a registry selection in order. `on_result` (optional) fires
  /// after each scenario — the streaming hook the CLI uses to print
  /// progress and append JSON lines as they finish.
  [[nodiscard]] std::vector<ScenarioResult> run_all(
      const std::vector<const ScenarioSpec*>& scenarios,
      const std::function<void(const ScenarioResult&)>& on_result = {}) const;

  /// The JSON-line view of a result (feed to io::write_scenario_line).
  [[nodiscard]] static io::ScenarioReport report_of(const ScenarioResult& result);

  /// True when every result is kPass — the suite exit criterion.
  [[nodiscard]] static bool all_passed(const std::vector<ScenarioResult>& results);

 private:
  RunnerOptions options_;
};

}  // namespace mrtpl::scenario
