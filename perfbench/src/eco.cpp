/// \file eco.cpp
/// The eco_stream workload: production_clusters served by an in-process
/// server::Daemon (own thread) over a durable session::SessionStore, one
/// server::Client on a Unix socket sending a seeded stream of valid ECO
/// edits in a closed loop. Set-up (generate, global route, store create
/// with its initial route, listen) is done once; then passes of the whole
/// stream, each followed by sign-off of the final layout, repeat until the
/// run's time is spent. The first pass runs on the freshly routed store,
/// later ones on a store recovered from a copy of its state at seq 0. A
/// traced run does one pass and then replays the same stream in-process
/// through RouterSession::submit and SessionStore::submit, so the session,
/// store and server shares separate by difference.

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "drc/checker.hpp"
#include "eval/metrics.hpp"
#include "grid/routing_grid.hpp"
#include "io/solution_io.hpp"
#include "scenario/scenario.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "session/edit.hpp"
#include "session/invariant_audit.hpp"
#include "session/router_session.hpp"
#include "session/session_store.hpp"
#include "util/resource.hpp"

namespace perfbench {
namespace {

using namespace mrtpl;
namespace fs = std::filesystem;

/// Edit groups of each kind per stream. Of these edits only
/// remove_blockage dirties no net (measured: every other kind dirties
/// one or more), and about half of all applies dirty none, so blockage
/// pairs make up most of the stream: 4 pin moves + 45 blockage pairs +
/// 3 remove/re-add pairs = 100 edits, 45 of which dirty no net.
constexpr int kMovePins = 4;
constexpr int kBlockagePairs = 45;
constexpr int kNetSwaps = 3;
constexpr int kEdits = kMovePins + 2 * (kBlockagePairs + kNetSwaps);
/// A ping is interleaved after every this many edits.
constexpr int kPingEvery = 4;
/// Passes of the stream per run, at the least.
constexpr int kMinPasses = 2;
constexpr int kSignoffRepeats = 8;

// ---- seeded edit stream -------------------------------------------------

bool overlaps_other_pin(const db::Design& d, int layer, const geom::Rect& r,
                        db::NetId self) {
  for (const auto& net : d.nets()) {
    if (net.id == self) continue;
    for (const auto& pin : net.pins) {
      if (pin.layer != layer) continue;
      for (const auto& s : pin.shapes)
        if (s.overlaps(r)) return true;
    }
  }
  return false;
}

bool overlaps_obstacle(const db::Design& d, int layer, const geom::Rect& r) {
  for (const auto& o : d.obstacles())
    if (o.layer == layer && o.shape.overlaps(r)) return true;
  return false;
}

/// A seeded stream of edits that are valid in order against `start`:
/// small pin moves clear of other pins and obstacles, 1x1 blockages
/// dropped on routed wire (clear of every pin) and lifted again, and nets
/// removed and re-added with their own pins, in seeded order. The mix is
/// fixed so that every seed asks for the same kinds of work. A shadow
/// copy of the design tracks every edit so later ones stay valid.
std::vector<session::Edit> make_stream(const db::Design& start,
                                       const grid::RoutingGrid& grid,
                                       const grid::Solution& routed,
                                       std::uint64_t seed) {
  db::Design d = start;
  SplitMix rng(seed * 0x2545f4914f6cdd1dull + 11);
  std::vector<int> kinds;
  kinds.insert(kinds.end(), kMovePins, 0);
  kinds.insert(kinds.end(), kBlockagePairs, 1);
  kinds.insert(kinds.end(), kNetSwaps, 2);
  for (int i = static_cast<int>(kinds.size()) - 1; i > 0; --i)
    std::swap(kinds[static_cast<std::size_t>(i)], kinds[static_cast<std::size_t>(rng.below(i + 1))]);

  std::vector<char> touched(static_cast<std::size_t>(d.num_nets()), 0);
  const int original = d.num_nets();
  std::vector<session::Edit> out;
  for (const int kind : kinds) {
    // Draw untouched nets until one takes this kind of edit.
    for (int tries = 0; tries < 10000; ++tries) {
      const db::NetId id = rng.below(original);
      const db::Net& net = d.net(id);
      if (touched[static_cast<std::size_t>(id)] || net.degree() < 2) continue;
      if (kind == 0) {  // move_pin by one or two tracks
        const int pin_index = rng.below(net.degree());
        db::Pin pin = net.pins[static_cast<std::size_t>(pin_index)];
        const int dx = rng.below(5) - 2, dy = rng.below(5) - 2;
        if (dx == 0 && dy == 0) continue;
        bool ok = true;
        for (auto& s : pin.shapes) {
          s = {{s.lo.x + dx, s.lo.y + dy}, {s.hi.x + dx, s.hi.y + dy}};
          ok = ok && d.die().inflated(-1).contains(s) &&
               !overlaps_other_pin(d, pin.layer, s.inflated(2), id) &&
               !overlaps_obstacle(d, pin.layer, s.inflated(1));
        }
        if (!ok) continue;
        session::Edit e;
        e.kind = session::EditKind::kMovePin;
        e.net = id;
        e.pin_index = pin_index;
        e.pins = {pin};
        d.set_pin(id, pin_index, pin);
        out.push_back(std::move(e));
      } else if (kind == 1) {  // blockage on this net's wire, then lifted
        const auto& route = routed.routes[static_cast<std::size_t>(id)];
        if (!route.routed || route.empty()) continue;
        const auto vertices = route.vertices();
        const grid::VertexLoc loc = grid.loc(
            vertices[static_cast<std::size_t>(rng.below(static_cast<int>(vertices.size())))]);
        const geom::Rect r{{loc.x, loc.y}, {loc.x, loc.y}};
        if (overlaps_other_pin(d, loc.layer, r.inflated(2), db::kNoNet) ||
            overlaps_obstacle(d, loc.layer, r))
          continue;
        session::Edit e;
        e.kind = session::EditKind::kAddBlockage;
        e.layer = loc.layer;
        e.rect = r;
        out.push_back(e);
        e.kind = session::EditKind::kRemoveBlockage;
        out.push_back(e);
      } else {  // remove_net + add_net with the same pins
        session::Edit rm;
        rm.kind = session::EditKind::kRemoveNet;
        rm.net = id;
        session::Edit add;
        add.kind = session::EditKind::kAddNet;
        add.name = net.name;
        add.pins = net.pins;
        d.remove_net(id);
        const db::NetId fresh = d.add_net(add.name);
        for (const auto& pin : add.pins) d.add_pin(fresh, pin);
        out.push_back(std::move(rm));
        out.push_back(std::move(add));
      }
      touched[static_cast<std::size_t>(id)] = 1;
      break;
    }
  }
  return out;
}

// ---- one unit -------------------------------------------------------------

std::string fresh_dir(const Options& opt, const std::string& leaf) {
  const std::string dir = opt.work_dir + "/" + leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

struct Setup {
  std::unique_ptr<Inputs> inputs;
  std::string dir;
  std::unique_ptr<session::SessionStore> store;
  std::unique_ptr<server::Daemon> daemon;
  double total_s = 0.0;
};

/// Generate, global route, create the store (grid build + initial route
/// + snapshot 0) and bind the daemon's socket.
Setup set_up(const Options& opt, Tracer& tracer, const std::string& leaf) {
  Setup s;
  const double t0 = now_s();
  s.inputs = generate_inputs(
      scenario::ScenarioRegistry::builtin().find("production_clusters")->full, tracer);
  s.dir = fresh_dir(opt, leaf);
  {
    auto sp = tracer.span("store.create");
    s.store = session::SessionStore::create(s.dir, s.inputs->design, {}, &s.inputs->guides);
  }
  server::DaemonConfig dconfig;
  dconfig.unix_path = s.dir + "/d.sock";
  s.daemon = std::make_unique<server::Daemon>(*s.store, dconfig);
  {
    auto sp = tracer.span("server.listen");
    s.daemon->listen();
  }
  s.total_s = now_s() - t0;
  return s;
}

/// A store recovered from a copy of `seed_dir` (snapshot 0, empty
/// journal), with its daemon's socket bound: the state set_up() left.
Setup reopen(const Options& opt, const std::string& seed_dir, Tracer& tracer) {
  Setup s;
  const double t0 = now_s();
  s.dir = fresh_dir(opt, "pass");
  for (const auto& entry : fs::directory_iterator(seed_dir))
    fs::copy_file(entry.path(), s.dir + "/" + entry.path().filename().string());
  {
    auto sp = tracer.span("store.recover");
    s.store = session::SessionStore::recover(s.dir, {});
  }
  server::DaemonConfig dconfig;
  dconfig.unix_path = s.dir + "/d.sock";
  s.daemon = std::make_unique<server::Daemon>(*s.store, dconfig);
  {
    auto sp = tracer.span("server.listen");
    s.daemon->listen();
  }
  s.total_s = now_s() - t0;
  return s;
}

/// One pass of the stream through a daemon.
struct Unit {
  double start_s = 0.0;
  std::vector<double> edit_ms;
  std::vector<int> dirty_nets;  ///< per edit, as the daemon replied
  std::vector<double> ping_us;
  double evaluate_s = 0.0;
  double verify_s = 0.0;
  std::vector<double> signoff_s;  ///< evaluate + verify, per repeat
  eval::Metrics qor;
  std::uint64_t hash = 0;
  long long failed = 0;
  std::uint64_t shed = 0;
  double journal_bytes = 0.0;
};

bool full_quality(const server::Response& resp) {
  return resp.ok && resp.edit.status == session::EditStatus::kApplied &&
         resp.edit.failed == 0;
}

/// Serve the stream through the daemon; returns the edits that did not
/// apply at full quality (transport errors included).
long long serve_stream(Setup& s, const std::vector<session::Edit>& edits,
                       Tracer& tracer, Unit* u, Result* result) {
  int daemon_rc = -1;
  std::string daemon_error;
  std::thread loop([&] {
    try {
      daemon_rc = s.daemon->run();
    } catch (const std::exception& e) {
      daemon_error = e.what();
    }
  });
  long long failed = 0;
  int sent = 0;
  bool drained = false;
  try {
    server::Client client = server::Client::connect_unix(s.dir + "/d.sock", 5.0);
    client.hello("perfbench");
    for (const auto& e : edits) {
      const std::string line = session::format_edit(e);
      const double t0 = now_s();
      server::Response resp;
      {
        auto sp = tracer.span("server.edit");
        resp = client.submit(line);
      }
      u->edit_ms.push_back((now_s() - t0) * 1e3);
      u->dirty_nets.push_back(resp.edit.dirty_nets);
      ++sent;
      if (!full_quality(resp)) {
        ++failed;
        result->check(false, "edit not applied at full quality: " + line + " -> " +
                                 resp.code + " " + resp.text + " " + resp.edit.note);
      }
      if (sent % kPingEvery == 0) {
        const double p0 = now_s();
        {
          auto sp = tracer.span("server.ping");
          client.ping("p");
        }
        u->ping_us.push_back((now_s() - p0) * 1e6);
      }
    }
    client.drain();
    drained = true;
  } catch (const std::exception& e) {
    result->check(false, std::string("transport error: ") + e.what());
    failed += static_cast<long long>(edits.size()) - sent;
  }
  if (!drained) {
    // Ask a still-running loop to stop over a fresh connection so the
    // thread joins; a loop that cannot be reached has already exited.
    try {
      server::Client c = server::Client::connect_unix(s.dir + "/d.sock", 1.0);
      c.hello("perfbench-stop");
      c.drain();
    } catch (const std::exception&) {
    }
  }
  loop.join();
  result->check(daemon_rc == 0, "daemon exited with " + std::to_string(daemon_rc) +
                                    " " + daemon_error);
  u->shed = s.daemon->edits_shed();
  return failed;
}

/// Evaluate + verify the final layout; DRC and the session audit are the
/// unit's output checks (the audit is timed outside every metric).
void sign_off(session::RouterSession& sess, const std::string& leg, Tracer& tracer,
              Unit* u, Result* result) {
  // Read-only, so timed kSignoffRepeats times; signoff_s is the median
  // over every repeat of every pass.
  std::vector<double> evaluate_s, verify_s;
  drc::DrcReport report;
  for (int rep = 0; rep < kSignoffRepeats; ++rep) {
    const double t0 = now_s();
    {
      auto sp = tracer.span("eval.evaluate");
      u->qor = eval::evaluate(sess.grid(), sess.solution(), sess.guides());
    }
    const double t1 = now_s();
    {
      auto sp = tracer.span("drc.verify");
      report = drc::verify(sess.grid(), sess.design(), sess.solution());
    }
    evaluate_s.push_back(t1 - t0);
    verify_s.push_back(now_s() - t1);
    u->signoff_s.push_back(evaluate_s.back() + verify_s.back());
  }
  u->evaluate_s = median(evaluate_s);
  u->verify_s = median(verify_s);
  const session::AuditReport audit = session::audit_session(sess);
  const bool clean =
      result->check(report.clean(), leg + ": drc::verify not clean: " + report.summary());
  if (!result->check(audit.ok, leg + ": audit_session failed: " +
                                   (audit.problems.empty() ? "" : audit.problems.front())) ||
      !clean)
    u->failed = kEdits;  // the final layout is wrong: no edit counts as done
  u->hash = fnv1a(sess.solution_text());
}

}  // namespace

Result run_eco(const Options& opt, Tracer& tracer) {
  Result r;
  const double start = now_s();
  fs::create_directories(opt.work_dir);

  // Set-up once: the store's initial route is most of it. Its committed
  // state (snapshot 0, empty journal) is copied aside, so every later
  // pass starts from the same layout on a store recovered from the copy.
  Setup first_setup = set_up(opt, tracer, "unit");
  const double setup_s = first_setup.total_s;
  std::vector<session::Edit> edits;
  {
    auto sp = tracer.span("bench.make_stream");
    const session::RouterSession& sess = first_setup.store->session();
    edits = make_stream(sess.design(), sess.grid(), sess.solution(), opt.seed);
  }
  std::string initial_text;  // the layout right after set-up (traced run)
  double solution_text_s = 0.0;
  if (opt.trace) {
    const double t0 = now_s();
    {
      auto sp = tracer.span("io.solution_text");
      initial_text = first_setup.store->session().solution_text();
    }
    solution_text_s = now_s() - t0;
  }
  const std::string seed_dir = opt.work_dir + "/seq0";
  fs::remove_all(seed_dir);
  fs::create_directories(seed_dir);
  for (const auto& f : {session::SessionStore::journal_path(first_setup.dir),
                        session::SessionStore::snapshot_path(first_setup.dir)})
    fs::copy_file(f, seed_dir + "/" + fs::path(f).filename().string());

  // Passes of the whole stream, each checked; a traced run does one.
  const int min_passes = opt.min_units > 0 ? opt.min_units : kMinPasses;
  std::vector<Unit> units;
  Setup traced_setup;  // kept for the traced run's per-layer reads
  for (;;) {
    const int done = static_cast<int>(units.size());
    if (opt.trace && done == 1) break;
    if (done >= min_passes) {
      // End near --seconds: start a pass only if one more fits.
      const double per_pass = (now_s() - units.front().start_s) / done;
      if (now_s() - start + per_pass > opt.seconds) break;
    }
    auto span = tracer.span("bench.unit");
    Unit u;
    u.start_s = now_s();
    Setup s = done == 0 ? std::move(first_setup) : reopen(opt, seed_dir, tracer);
    u.failed = serve_stream(s, edits, tracer, &u, &r);
    sign_off(s.store->session(), "daemon", tracer, &u, &r);
    std::error_code ec;
    u.journal_bytes = static_cast<double>(
        fs::file_size(session::SessionStore::journal_path(s.dir), ec));
    units.push_back(std::move(u));
    if (opt.trace) traced_setup = std::move(s);
  }

  r.check(static_cast<int>(edits.size()) == kEdits,
          "edit stream came out short: " + std::to_string(edits.size()));
  const Unit& first = units.front();
  std::vector<double> latency, signoff, stream_s;
  double edit_total_s = 0.0;
  std::string stream_passes;
  for (const Unit& u : units) {
    double pass_s = 0.0;
    for (const double ms : u.edit_ms) pass_s += ms / 1e3;
    stream_s.push_back(pass_s);
    edit_total_s += pass_s;
    latency.insert(latency.end(), u.edit_ms.begin(), u.edit_ms.end());
    signoff.insert(signoff.end(), u.signoff_s.begin(), u.signoff_s.end());
    r.attempted += static_cast<long long>(edits.size());
    r.failed += u.failed;
    if (u.hash != first.hash) {
      r.check(false, "passes of one run ended in different layouts");
      r.failed += static_cast<long long>(edits.size());
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3f", stream_passes.empty() ? "" : " ", pass_s);
    stream_passes += buf;
  }

  r.e2e["setup_s"] = setup_s;
  // The stream routed through the daemon, first request to last reply.
  r.e2e["route_s"] = median(stream_s);
  r.e2e["signoff_s"] = median(signoff);
  r.e2e["conflicts"] = first.qor.conflicts;
  r.e2e["conflicts_plus_1"] = first.qor.conflicts + 1;
  r.e2e["stitches"] = first.qor.stitches;
  r.e2e["wirelength"] = static_cast<double>(first.qor.wirelength);
  r.e2e["vias"] = static_cast<double>(first.qor.vias);
  r.e2e["edit_p50_ms"] = median(latency);
  // Two passes give 200 round trips: p95 is the highest percentile with
  // ten beyond it. Snapshots (every 16th edit, 6% of them) fill the tail
  // beyond p90, so p90 falls in the thin gap under them and jumps.
  r.e2e["edit_p95_ms"] = percentile(latency, 95);
  r.e2e["edits_per_s"] = static_cast<double>(latency.size()) / edit_total_s;
  // The first pass, on the freshly routed store, as a traced run's.
  r.e2e_first["setup_s"] = setup_s;
  r.e2e_first["route_s"] = stream_s.front();
  r.e2e_first["signoff_s"] = first.evaluate_s + first.verify_s;
  r.e2e_first["edit_p50_ms"] = median(first.edit_ms);

  const double p95 = r.e2e["edit_p95_ms"];
  long long beyond = 0;
  for (const double ms : latency) beyond += ms > p95 ? 1 : 0;
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016" PRIx64, first.hash);
  r.info.push_back({"solution_hash", hash});
  r.info.push_back({"passes", std::to_string(units.size())});
  r.info.push_back({"stream_s_per_pass", stream_passes});
  r.info.push_back({"edits", std::to_string(latency.size())});
  r.info.push_back({"samples_beyond_p95", std::to_string(beyond)});
  r.info.push_back({"zero_dirty_edits",
                    std::to_string(std::count(first.dirty_nets.begin(),
                                              first.dirty_nets.end(), 0))});
  r.info.push_back({"client", "1 closed-loop client, unix socket"});

  if (opt.trace) {
    session::SessionStore& store = *traced_setup.store;
    session::RouterSession& live = store.session();
    const core::RouterStats& st = live.initial_stats();
    CoreTotals core;
    core.add(st);
    core.report(st.runtime_s, &r.layer);

    const Inputs& in = *traced_setup.inputs;
    double grid_s = 0.0, vertices = 0.0;
    {
      const double t0 = now_s();
      auto sp = tracer.span("grid.build");
      const grid::RoutingGrid g(in.design);
      grid_s = now_s() - t0;
      vertices = g.num_vertices();
    }
    r.layer["benchgen.generate_s"] = in.generate_s;
    r.layer["global.route_all_s"] = in.global_s;
    r.layer["grid.build_s"] = grid_s;
    r.layer["grid.vertices"] = vertices;
    r.layer["eval.evaluate_s"] = first.evaluate_s;
    r.layer["drc.verify_s"] = first.verify_s;
    r.layer["io.solution_text_ms"] = solution_text_s * 1e3;
    r.layer["io.solution_bytes"] = static_cast<double>(initial_text.size());
    r.layer["session.initial_route_s"] = st.runtime_s;
    r.layer["server.ping_us_p50"] = median(first.ping_us);
    r.layer["server.edits_shed"] = static_cast<double>(first.shed);
    r.layer["store.journal_bytes_per_edit"] = first.journal_bytes / kEdits;

    // Leg 2: the same stream in-process through RouterSession::submit.
    std::vector<double> apply_ms, fixed_ms, dirty;
    {
      std::unique_ptr<session::RouterSession> sess;
      {
        auto sp = tracer.span("session.adopt");
        sess = std::make_unique<session::RouterSession>(in.design, session::SessionConfig{},
                                                        &in.guides, initial_text, 0);
      }
      for (const auto& e : edits) {
        session::EditResponse resp;
        {
          auto sp = tracer.span("session.submit");
          resp = sess->submit(e);
        }
        r.check(resp.status == session::EditStatus::kApplied && resp.failed == 0,
                "session leg: edit not applied at full quality");
        apply_ms.push_back(resp.apply_s * 1e3);
        if (resp.dirty_nets == 0) fixed_ms.push_back(resp.apply_s * 1e3);
        dirty.push_back(resp.dirty_nets);
      }
      r.check(fnv1a(sess->solution_text()) == first.hash,
              "session leg ended in a different layout than the daemon leg");
    }
    r.layer["session.apply_ms_p50"] = median(apply_ms);
    r.layer["session.fixed_ms_p50"] = median(fixed_ms);
    r.layer["session.dirty_nets_mean"] = mean(dirty);

    // Leg 3: the same stream in-process through SessionStore::submit.
    std::vector<double> submit_ms, commit_ms;
    {
      std::unique_ptr<session::SessionStore> st3;
      {
        auto sp = tracer.span("store.recover");
        st3 = session::SessionStore::recover(seed_dir, {});
      }
      for (const auto& e : edits) {
        const double t0 = now_s();
        session::EditResponse resp;
        {
          auto sp = tracer.span("store.submit");
          resp = st3->submit(e);
        }
        const double wall = now_s() - t0;
        r.check(resp.status == session::EditStatus::kApplied && resp.failed == 0,
                "store leg: edit not applied at full quality");
        submit_ms.push_back(wall * 1e3);
        commit_ms.push_back((wall - resp.apply_s) * 1e3);
      }
      const double t0 = now_s();
      {
        auto sp = tracer.span("store.snapshot_now");
        st3->snapshot_now();
      }
      r.layer["store.snapshot_ms"] = (now_s() - t0) * 1e3;
      r.check(fnv1a(st3->session().solution_text()) == first.hash,
              "store leg ended in a different layout than the daemon leg");
    }
    r.layer["store.commit_ms_p50"] = median(commit_ms);
    r.layer["server.overhead_ms"] = median(first.edit_ms) - median(submit_ms);
  }
  // The daemon refers to the store: release it first.
  traced_setup.daemon.reset();
  traced_setup.store.reset();
  fs::remove_all(opt.work_dir);
  return r;
}

}  // namespace perfbench
