/// \file routing.cpp
/// The three full-route workloads: prod_serial, prod_tiled and tpl_dense.
/// A unit of work is set-up (generate, global route, grid build), the
/// route call of every case, and sign-off (evaluate + DRC verify). Units
/// repeat until the run's time is spent; the first warms the process up
/// and stays out of the medians. A traced run does one unit.

#include <cinttypes>
#include <memory>

#include "bench.hpp"
#include "benchgen/case_spec.hpp"
#include "benchgen/generator.hpp"
#include "core/mrtpl_router.hpp"
#include "core/sharded_router.hpp"
#include "drc/checker.hpp"
#include "eval/metrics.hpp"
#include "global/global_router.hpp"
#include "grid/routing_grid.hpp"
#include "io/solution_io.hpp"
#include "scenario/scenario.hpp"
#include "util/resource.hpp"

namespace perfbench {
namespace {

using namespace mrtpl;

/// Units measured after the warm-up unit, at the least.
constexpr int kMinUnits = 2;
/// Set-ups done alone after the warm-up unit, besides each unit's own.
constexpr int kExtraSetups = 20;
constexpr int kSignoffRepeats = 3;

struct Workload {
  std::vector<benchgen::CaseSpec> specs;
  int tiles = 1;
  int threads = 1;
};

/// The cases are the registry's and the suites' own, at every workload
/// seed: offsetting their generator seeds moves them out of the regime
/// they were tuned for (see README "Seeds").
Workload describe(const Options& opt) {
  Workload w;
  if (opt.workload == "tpl_dense") {
    w.specs = benchgen::ispd2018_suite();
    for (auto& s : benchgen::ispd2019_suite()) w.specs.push_back(s);
  } else {
    w.specs.push_back(
        scenario::ScenarioRegistry::builtin().find("production_grid_10k")->full);
    if (opt.workload == "prod_tiled") {
      w.tiles = 4;
      w.threads = 3;  // one core of nproc = 4 left to the rest of the host
    }
  }
  return w;
}

struct Prepared {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<grid::RoutingGrid> grid;
};

struct SetupTimes {
  double generate_s = 0.0;
  double global_s = 0.0;
  double grid_s = 0.0;
  [[nodiscard]] double total() const { return generate_s + global_s + grid_s; }
};

/// Generate, global route and build the grid of every case.
std::vector<Prepared> set_up(const Workload& w, Tracer& tracer, SetupTimes* times) {
  std::vector<Prepared> out;
  for (const auto& spec : w.specs) {
    Prepared p{generate_inputs(spec, tracer), nullptr};
    times->generate_s += p.in->generate_s;
    times->global_s += p.in->global_s;
    const double t0 = now_s();
    {
      auto s = tracer.span("grid.build");
      p.grid = std::make_unique<grid::RoutingGrid>(p.in->design);
    }
    times->grid_s += now_s() - t0;
    out.push_back(std::move(p));
  }
  return out;
}

/// Everything one unit measured.
struct Unit {
  SetupTimes setup;
  double route_s = 0.0;
  double evaluate_s = 0.0;
  double verify_s = 0.0;
  std::vector<double> signoff_s;  ///< evaluate + verify, per repeat
  eval::Metrics qor;  ///< summed over cases
  long long live_nets = 0;
  std::uint64_t hash = 0;
  CoreTotals core;  ///< router counters summed over cases
  double serialize_s = 0.0;
  double solution_bytes = 0.0;
  double vertices = 0.0;
  double rss_after_setup = 0.0;
  double rss_after_route = 0.0;
  double end_s = 0.0;  ///< now_s() when the unit ended
};

Unit run_unit(const Workload& w, Tracer& tracer, Result* result) {
  Unit u;
  auto cases = set_up(w, tracer, &u.setup);
  u.rss_after_setup = util::peak_rss_mb();

  core::RouterConfig config;
  config.shard_tiles = w.tiles;
  config.rrr_threads = w.threads;
  std::vector<grid::Solution> solutions;
  for (auto& c : cases) {
    const double t0 = now_s();
    {
      auto s = tracer.span("core.route");
      if (w.tiles > 1) {
        core::ShardedRouter router(c.in->design, &c.in->guides, config);
        solutions.push_back(router.run(*c.grid));
        u.core.add(router.stats());
      } else {
        core::MrTplRouter router(c.in->design, &c.in->guides, config);
        solutions.push_back(router.run(*c.grid));
        u.core.add(router.stats());
      }
    }
    u.route_s += now_s() - t0;
  }
  u.rss_after_route = util::peak_rss_mb();

  // Sign-off: what a suite user waits for after routing. It only reads
  // the layout, so it is timed kSignoffRepeats times; signoff_s is the
  // median over every repeat of the measured units. The DRC report is
  // also the unit's first output check.
  std::vector<double> evaluate_s, verify_s;
  for (int rep = 0; rep < kSignoffRepeats; ++rep) {
    double ev = 0.0, vf = 0.0;
    eval::Metrics qor;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Prepared& c = cases[i];
      const db::Design& design = c.in->design;
      const double t0 = now_s();
      eval::Metrics m;
      {
        auto s = tracer.span("eval.evaluate");
        m = eval::evaluate(*c.grid, solutions[i], &c.in->guides);
      }
      const double t1 = now_s();
      drc::DrcReport report;
      {
        auto s = tracer.span("drc.verify");
        report = drc::verify(*c.grid, design, solutions[i]);
      }
      ev += t1 - t0;
      vf += now_s() - t1;
      if (rep > 0) continue;
      long long nets = 0;
      for (const auto& net : design.nets()) nets += net.degree() > 0 ? 1 : 0;
      u.live_nets += nets;
      if (!result->check(report.clean(), "drc::verify not clean on " + design.name() +
                                             ": " + report.summary()))
        result->failed += nets;
      u.qor.conflicts += m.conflicts;
      u.qor.stitches += m.stitches;
      u.qor.wirelength += m.wirelength;
      u.qor.vias += m.vias;
      u.qor.failed_nets += m.failed_nets;
      u.vertices += c.grid->num_vertices();
    }
    evaluate_s.push_back(ev);
    verify_s.push_back(vf);
    u.signoff_s.push_back(ev + vf);
  }
  u.evaluate_s = median(evaluate_s);
  u.verify_s = median(verify_s);

  // Solution hash: outside every end-to-end metric.
  std::string digest;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const double t0 = now_s();
    std::string text;
    {
      auto s = tracer.span("io.solution_to_string");
      text = io::solution_to_string(*cases[i].grid, solutions[i]);
    }
    u.serialize_s += now_s() - t0;
    u.solution_bytes += static_cast<double>(text.size());
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, fnv1a(text));
    digest += buf;
  }
  // One case: its own solution hash, comparable with bench_sharded's.
  u.hash = cases.size() == 1 ? std::stoull(digest, nullptr, 16) : fnv1a(digest);
  return u;
}

}  // namespace

std::unique_ptr<Inputs> generate_inputs(const benchgen::CaseSpec& spec, Tracer& tracer) {
  const double t0 = now_s();
  auto in = [&] {
    auto s = tracer.span("benchgen.generate");
    return std::unique_ptr<Inputs>(new Inputs{benchgen::generate(spec), {}, 0.0, 0.0});
  }();
  const double t1 = now_s();
  {
    auto s = tracer.span("global.route_all");
    global::GlobalConfig gconfig;
    gconfig.hard_spanning_blockages = true;
    global::GlobalRouter gr(in->design, gconfig);
    in->guides = gr.route_all();
  }
  in->generate_s = t1 - t0;
  in->global_s = now_s() - t1;
  return in;
}

Result run_routing(const Options& opt, Tracer& tracer) {
  Result r;
  const Workload w = describe(opt);
  const double start = now_s();

  // The first unit warms the process up (heap, page tables, caches). It
  // is checked like every unit and kept as the cold figure a traced run
  // is compared with, but the medians are over the units after it. A
  // traced run does the first unit only.
  std::vector<Unit> units;
  std::vector<double> setup_samples;
  const int min_units = opt.min_units > 0 ? opt.min_units : kMinUnits;
  for (;;) {
    const int measured = static_cast<int>(units.size()) - 1;
    if (opt.trace && measured == 0) break;
    if (measured >= min_units) {
      // End near --seconds: start a unit only if one more fits.
      const double per_unit = (now_s() - units.front().end_s) / measured;
      if (now_s() - start + per_unit > opt.seconds) break;
    }
    auto s = tracer.span("bench.unit");
    units.push_back(run_unit(w, tracer, &r));
    units.back().end_s = now_s();
    if (units.size() > 1) setup_samples.push_back(units.back().setup.total());
    // Extra set-ups, once the process is warm, give setup_s its median.
    for (int i = 0; units.size() == 1 && !opt.trace && i < kExtraSetups; ++i) {
      SetupTimes t;
      set_up(w, tracer, &t);
      setup_samples.push_back(t.total());
    }
  }

  const Unit& first = units.front();
  // Every unit is checked; the medians skip the warm-up unit unless it
  // is the only one (a traced run).
  std::vector<double> route, signoff, latency_ms;
  double route_total = 0.0;
  std::string route_units;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const Unit& u = units[i];
    r.attempted += u.live_nets;
    r.failed += u.qor.failed_nets;
    if (u.hash != first.hash || u.qor.conflicts != first.qor.conflicts ||
        u.qor.stitches != first.qor.stitches) {
      r.check(false, "units of one run routed different layouts");
      r.failed += u.live_nets;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3f", i == 0 ? "" : " ", u.route_s);
    route_units += buf;
    if (i == 0 && units.size() > 1) continue;
    // One request is the whole workload routed once: all of a unit's cases.
    route.push_back(u.route_s);
    signoff.insert(signoff.end(), u.signoff_s.begin(), u.signoff_s.end());
    latency_ms.push_back(u.route_s * 1e3);
    route_total += u.route_s;
  }
  if (setup_samples.empty()) setup_samples.push_back(first.setup.total());

  r.e2e["setup_s"] = median(setup_samples);
  r.e2e["route_s"] = median(route);
  r.e2e["signoff_s"] = median(signoff);
  r.e2e["conflicts"] = first.qor.conflicts;
  r.e2e["conflicts_plus_1"] = first.qor.conflicts + 1;
  r.e2e["stitches"] = first.qor.stitches;
  r.e2e["wirelength"] = static_cast<double>(first.qor.wirelength);
  r.e2e["vias"] = static_cast<double>(first.qor.vias);
  r.e2e["edit_p50_ms"] = median(latency_ms);
  r.e2e["edit_p95_ms"] = percentile(latency_ms, 95);
  r.e2e["edits_per_s"] = static_cast<double>(route.size()) / route_total;
  // The warm-up unit, cold like a traced run's only unit.
  r.e2e_first["setup_s"] = first.setup.total();
  r.e2e_first["route_s"] = first.route_s;
  r.e2e_first["signoff_s"] = first.evaluate_s + first.verify_s;
  r.e2e_first["edit_p50_ms"] = first.route_s * 1e3;

  char hash[32];
  std::snprintf(hash, sizeof hash, "%016" PRIx64, first.hash);
  r.info.push_back({"solution_hash", hash});
  r.info.push_back({"units", std::to_string(units.size())});
  r.info.push_back({"route_s_per_unit", route_units});
  r.info.push_back({"setups", std::to_string(setup_samples.size())});
  r.info.push_back({"tiles", std::to_string(w.tiles)});
  r.info.push_back({"threads", std::to_string(w.threads)});

  if (opt.trace) {
    const Unit& u = first;
    r.layer["benchgen.generate_s"] = u.setup.generate_s;
    r.layer["global.route_all_s"] = u.setup.global_s;
    r.layer["grid.build_s"] = u.setup.grid_s;
    r.layer["grid.vertices"] = u.vertices;
    u.core.report(u.route_s, &r.layer);
    r.layer["core.rss_growth_mb"] = u.rss_after_route - u.rss_after_setup;
    r.layer["eval.evaluate_s"] = u.evaluate_s;
    r.layer["drc.verify_s"] = u.verify_s;
    r.layer["io.solution_text_ms"] = u.serialize_s * 1e3;
    r.layer["io.solution_bytes"] = u.solution_bytes;
  }
  return r;
}

}  // namespace perfbench
