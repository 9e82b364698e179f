/// \file test_session.cpp
/// Resident routing sessions (session/router_session.hpp + edit.hpp):
/// edit grammar round-trips, transactional apply/reject/rollback
/// semantics, admission control (shed + latency-degrade), dead-net
/// tombstones, the delta-only cost of an apply, and the
/// replay-determinism property the journal recovery contract rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/parse_error.hpp"
#include "session/edit.hpp"
#include "session/invariant_audit.hpp"
#include "session/router_session.hpp"
#include "support/builders.hpp"
#include "util/monotonic.hpp"

namespace mrtpl::session {
namespace {

SessionConfig quiet_config() {
  SessionConfig config;
  config.router.rrr_threads = 1;
  return config;
}

/// Two-pin net spanning (x0,y) .. (x1,y) on `layer`.
Edit add_net_edit(const std::string& name, int layer, int y, int x0, int x1) {
  Edit edit;
  edit.kind = EditKind::kAddNet;
  edit.name = name;
  db::Pin pin;
  pin.name = "p0";
  pin.layer = layer;
  pin.shapes = {{x0, y, x0, y}};
  edit.pins.push_back(pin);
  pin.name = "p1";
  pin.shapes = {{x1, y, x1, y}};
  edit.pins.push_back(pin);
  return edit;
}

// ---- edit grammar -------------------------------------------------------

TEST(EditGrammar, FormatParseRoundTrip) {
  std::vector<Edit> edits;
  edits.push_back(add_net_edit("eco_net", 1, 3, 2, 12));
  {
    Edit e;
    e.kind = EditKind::kRemoveNet;
    e.net = 7;
    edits.push_back(e);
  }
  {
    Edit e;
    e.kind = EditKind::kMovePin;
    e.net = 2;
    e.pin_index = 1;
    db::Pin pin;
    pin.layer = 0;
    pin.shapes = {{4, 4, 5, 4}, {4, 4, 4, 6}};
    e.pins.push_back(pin);
    edits.push_back(e);
  }
  {
    Edit e;
    e.kind = EditKind::kAddBlockage;
    e.layer = 1;
    e.rect = {3, 3, 6, 9};
    edits.push_back(e);
    e.kind = EditKind::kRemoveBlockage;
    edits.push_back(e);
  }

  const std::string script = edits_to_string(edits);
  const std::vector<Edit> back = edits_from_string(script);
  ASSERT_EQ(back.size(), edits.size());
  for (size_t i = 0; i < edits.size(); ++i)
    EXPECT_EQ(format_edit(back[i]), format_edit(edits[i])) << "edit " << i;
}

TEST(EditGrammar, EmptyAndSpacedNamesSurviveTheLineFormat) {
  Edit e = add_net_edit("", 0, 3, 2, 12);
  e.pins[0].name = "weird pin";
  const Edit back = parse_edit(format_edit(e), "test", 1);
  EXPECT_EQ(back.name, "");
  EXPECT_EQ(back.pins[0].name, "weird_pin");  // whitespace folded, not lost
}

TEST(EditGrammar, MalformedLinesThrowParseError) {
  const char* bad[] = {
      "",
      "frobnicate 1 2 3",
      "add_net",                      // missing name/pins
      "add_net n 1 pin p 0 1 1 1 1",  // rect needs 4 coords
      "remove_net",
      "remove_net xyz",
      "move_pin 0 0 0 0",             // zero shapes
      "add_blockage 0 1 2 3",         // rect short one coord
      "add_blockage 0 1 2 3 4 5",     // trailing garbage
  };
  for (const char* line : bad)
    EXPECT_THROW((void)parse_edit(line, "test", 1), io::ParseError) << line;
}

TEST(EditGrammar, ScriptEnvelopeIsEnforced) {
  EXPECT_THROW((void)edits_from_string("remove_net 0\n"), io::ParseError);
  EXPECT_THROW((void)edits_from_string("mrtpl-edits 1\nremove_net 0\n"),
               io::ParseError);  // missing end
  const std::vector<Edit> edits = edits_from_string(
      "mrtpl-edits 1\n# comment\n\nremove_net 0\nend\n");
  ASSERT_EQ(edits.size(), 1u);
  EXPECT_EQ(edits[0].kind, EditKind::kRemoveNet);
}

// ---- transactional applies ---------------------------------------------

TEST(RouterSession, AddNetRoutesTheNewNet) {
  RouterSession session(test::parallel_nets_design(2), quiet_config());
  ASSERT_EQ(session.solution().num_routed(), 2);

  const EditResponse resp = session.submit(add_net_edit("eco", 0, 3, 2, 13));
  EXPECT_EQ(resp.status, EditStatus::kApplied);
  EXPECT_EQ(resp.seq, 1u);
  EXPECT_EQ(session.seq(), 1u);
  EXPECT_GE(resp.dirty_nets, 1);
  EXPECT_EQ(resp.failed, 0);
  EXPECT_EQ(session.design().num_nets(), 3);
  EXPECT_TRUE(session.solution().routes[2].routed);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, RemoveNetLeavesDeadTombstone) {
  RouterSession session(test::parallel_nets_design(2), quiet_config());
  Edit e;
  e.kind = EditKind::kRemoveNet;
  e.net = 0;
  const EditResponse resp = session.submit(e);
  EXPECT_EQ(resp.status, EditStatus::kApplied);
  EXPECT_EQ(session.design().net(0).degree(), 0);
  EXPECT_EQ(session.design().num_nets(), 2);  // id stays allocated
  EXPECT_TRUE(session.solution().routes[0].empty());
  EXPECT_TRUE(session.solution().routes[0].routed);
  EXPECT_TRUE(audit_session(session).ok);

  // A second remove of the now-dead net is invalid, not idempotent.
  EXPECT_EQ(session.submit(e).status, EditStatus::kRejected);
}

TEST(RouterSession, MovePinReroutesTheNet) {
  RouterSession session(test::parallel_nets_design(2), quiet_config());
  Edit e;
  e.kind = EditKind::kMovePin;
  e.net = 0;
  e.pin_index = 1;
  db::Pin pin;
  pin.layer = 0;
  pin.shapes = {{13, 3, 13, 3}};  // pull the endpoint four tracks north
  e.pins.push_back(pin);
  const EditResponse resp = session.submit(e);
  EXPECT_EQ(resp.status, EditStatus::kApplied);
  EXPECT_EQ(resp.failed, 0);
  EXPECT_TRUE(session.solution().routes[0].routed);
  // The pin kept its original name (replay byte-identity contract).
  EXPECT_EQ(session.design().net(0).pins[1].name,
            test::parallel_nets_design(2).net(0).pins[1].name);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, RejectedEditsLeaveStateUntouched) {
  RouterSession session(test::parallel_nets_design(2), quiet_config());
  const std::string design_before = session.design_text();
  const std::string solution_before = session.solution_text();

  std::vector<Edit> bad;
  bad.push_back(add_net_edit("oob", 0, 3, 2, 99));  // pin outside the die
  bad.push_back(add_net_edit("overlap", 0, 7, 2, 5));  // on net 0's pin metal
  {
    Edit e;
    e.kind = EditKind::kRemoveNet;
    e.net = 77;
    bad.push_back(e);
  }
  {
    Edit e;
    e.kind = EditKind::kMovePin;
    e.net = 0;
    e.pin_index = 9;
    db::Pin pin;
    pin.layer = 0;
    pin.shapes = {{4, 4, 4, 4}};
    e.pins.push_back(pin);
    bad.push_back(e);
  }
  {
    Edit e;
    e.kind = EditKind::kAddBlockage;
    e.layer = 77;
    e.rect = {1, 1, 2, 2};
    bad.push_back(e);
  }
  {
    Edit e;
    e.kind = EditKind::kRemoveBlockage;
    e.layer = 0;
    e.rect = {1, 1, 2, 2};  // no such obstacle
    bad.push_back(e);
  }

  for (const Edit& e : bad) {
    const EditResponse resp = session.submit(e);
    EXPECT_EQ(resp.status, EditStatus::kRejected) << format_edit(e);
    EXPECT_FALSE(resp.note.empty()) << format_edit(e);
    EXPECT_EQ(resp.seq, 0u);
  }
  EXPECT_EQ(session.seq(), 0u);
  EXPECT_EQ(session.design_text(), design_before);
  EXPECT_EQ(session.solution_text(), solution_before);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, BlockageRoundTripRestoresTheDesign) {
  RouterSession session(test::parallel_nets_design(2), quiet_config());
  const std::string design_before = session.design_text();

  Edit e;
  e.kind = EditKind::kAddBlockage;
  e.layer = 0;
  e.rect = {7, 7, 8, 8};  // across net 1's committed corridor
  const EditResponse dropped = session.submit(e);
  EXPECT_EQ(dropped.status, EditStatus::kApplied);
  EXPECT_GE(dropped.dirty_nets, 1);
  EXPECT_TRUE(audit_session(session).ok);

  e.kind = EditKind::kRemoveBlockage;
  const EditResponse lifted = session.submit(e);
  EXPECT_EQ(lifted.status, EditStatus::kApplied);
  EXPECT_EQ(session.design_text(), design_before);
  EXPECT_EQ(lifted.failed, 0);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, DeadlineTripRollsTheEditBack) {
  SessionConfig config = quiet_config();
  config.deadline_s = 1e-9;  // in the past by the first budget check
  RouterSession session(test::parallel_nets_design(2), config);
  const std::string design_before = session.design_text();
  const std::string solution_before = session.solution_text();

  const EditResponse resp = session.submit(add_net_edit("late", 0, 3, 2, 13));
  ASSERT_EQ(resp.status, EditStatus::kDeadline);
  EXPECT_EQ(resp.seq, 0u);
  EXPECT_EQ(session.seq(), 0u);
  EXPECT_EQ(session.design_text(), design_before);
  EXPECT_EQ(session.solution_text(), solution_before);
  EXPECT_TRUE(audit_session(session).ok);

  // The same edit under no deadline commits fine on the restored state.
  SessionConfig relaxed = quiet_config();
  RouterSession fresh(test::parallel_nets_design(2), relaxed);
  EXPECT_EQ(fresh.submit(add_net_edit("late", 0, 3, 2, 13)).status,
            EditStatus::kApplied);
}

// ---- admission control --------------------------------------------------

TEST(RouterSession, QueueOverflowShedsNewestEdits) {
  SessionConfig config = quiet_config();
  config.max_queue_depth = 2;
  RouterSession session(test::parallel_nets_design(2), config);
  session.enqueue(add_net_edit("a", 0, 3, 2, 13));
  session.enqueue(add_net_edit("b", 0, 5, 2, 13));
  session.enqueue(add_net_edit("c", 0, 11, 2, 13));
  session.enqueue(add_net_edit("d", 0, 13, 2, 13));
  const std::vector<EditResponse> resp = session.drain();
  ASSERT_EQ(resp.size(), 4u);
  EXPECT_EQ(resp[0].status, EditStatus::kApplied);
  EXPECT_EQ(resp[1].status, EditStatus::kApplied);
  EXPECT_EQ(resp[2].status, EditStatus::kShed);
  EXPECT_EQ(resp[3].status, EditStatus::kShed);
  EXPECT_NE(resp[2].note.find("queue depth"), std::string::npos);
  // Shed edits left no trace: only the two applied nets exist.
  EXPECT_EQ(session.design().num_nets(), 4);
  EXPECT_EQ(session.seq(), 2u);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, LatencyWatermarkSwitchesToDegradedApplies) {
  SessionConfig config = quiet_config();
  config.latency_watermark_s = 1e-12;  // any real apply exceeds this
  config.degrade_relax_cap = 1000;
  RouterSession session(test::parallel_nets_design(2), config);
  EXPECT_FALSE(session.degrade_mode());  // no latency sample yet

  const EditResponse first = session.submit(add_net_edit("a", 0, 3, 2, 13));
  EXPECT_EQ(first.status, EditStatus::kApplied);
  EXPECT_GT(session.latency_ewma(), 0.0);
  EXPECT_TRUE(session.degrade_mode());

  // Degrade mode caps relaxations but a small edit stays within the cap,
  // committing as a normal apply — graceful, not lossy.
  const EditResponse second = session.submit(add_net_edit("b", 0, 5, 2, 13));
  EXPECT_TRUE(second.status == EditStatus::kApplied ||
              second.status == EditStatus::kDegraded);
  EXPECT_EQ(session.seq(), 2u);
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, InjectedClockDrivesTheWatermarkDeterministically) {
  // The EWMA must read the injected monotonic source, not wall time: with
  // a hand-cranked clock the exact trip point is predictable. Each apply
  // reads the clock twice (start/end), so +0.5 per read = 0.5 s per edit.
  SessionConfig config = quiet_config();
  config.latency_watermark_s = 0.4;
  config.degrade_relax_cap = 1000;
  double fake_now = 0.0;
  config.clock = [&fake_now] { return fake_now += 0.5; };
  RouterSession session(test::parallel_nets_design(2), config);
  EXPECT_FALSE(session.degrade_mode());

  const EditResponse first = session.submit(add_net_edit("a", 0, 3, 2, 13));
  EXPECT_EQ(first.status, EditStatus::kApplied);
  // First sample seeds the EWMA directly: exactly 0.5, over the 0.4 mark.
  EXPECT_DOUBLE_EQ(first.apply_s, 0.5);
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 0.5);
  EXPECT_TRUE(session.degrade_mode());
}

TEST(RouterSession, ManualClockDecaysTheEwmaBackBelowTheWatermark) {
  util::ManualClock clock;
  SessionConfig config = quiet_config();
  config.latency_watermark_s = 0.4;
  config.degrade_relax_cap = 1000;
  int reads = 0;
  // First edit: 1.0 s apply (clock jumps on the end-read); later edits:
  // the clock stands still, i.e. instantaneous applies.
  config.clock = [&clock, &reads] {
    ++reads;
    if (reads == 2) clock.advance(1.0);
    return clock.now();
  };
  RouterSession session(test::parallel_nets_design(2), config);

  (void)session.submit(add_net_edit("a", 0, 3, 2, 13));
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 1.0);
  EXPECT_TRUE(session.degrade_mode());

  // EWMA with alpha 0.2 and 0-latency samples: 1.0, 0.8, 0.64, ...
  (void)session.submit(add_net_edit("b", 0, 5, 2, 13));
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 0.8);
  EXPECT_TRUE(session.degrade_mode());
  (void)session.submit(add_net_edit("c", 0, 9, 2, 13));
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 0.64);
  (void)session.submit(add_net_edit("d", 0, 11, 2, 13));
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 0.512);
  (void)session.submit(add_net_edit("e", 0, 13, 2, 13));
  // 0.4096: back under the 0.4-ish region next step -> 0.32768.
  (void)session.submit(add_net_edit("f", 0, 1, 2, 13));
  EXPECT_DOUBLE_EQ(session.latency_ewma(), 0.32768);
  EXPECT_FALSE(session.degrade_mode());
  EXPECT_TRUE(audit_session(session).ok);
}

// ---- apply cost ---------------------------------------------------------

/// 40x40, 2 layers, `count` 2-pin nets on layer 0, five tracks apart: far
/// enough that a detour of one net around a blockage stays more than
/// dcolor from its neighbours, so no RRR round rips anything else and an
/// edit's delta is exactly the dirty net's old and new metal.
db::Design spaced_nets_design(int count) {
  db::Design d("s", db::Tech::make_default(2, 2), {0, 0, 39, 39});
  for (int i = 0; i < count; ++i) {
    const db::NetId n = d.add_net("n" + std::to_string(i));
    db::Pin p;
    p.layer = 0;
    p.shapes = {{2, 2 + 5 * i, 2, 2 + 5 * i}};
    d.add_pin(n, p);
    p.shapes = {{37, 2 + 5 * i, 37, 2 + 5 * i}};
    d.add_pin(n, p);
  }
  d.validate();
  return d;
}

using NetMetal = std::vector<std::pair<grid::VertexId, grid::Mask>>;

/// Every net's committed (vertex, mask) list.
std::vector<NetMetal> committed_metal(const RouterSession& session) {
  std::vector<NetMetal> out;
  for (const auto& route : session.solution().routes) {
    NetMetal metal;
    for (const grid::VertexId v : route.vertices())
      metal.emplace_back(v, session.grid().mask(v));
    out.push_back(std::move(metal));
  }
  return out;
}

/// Vertices an apply may have released, committed or re-rasterized: the
/// old and the new metal of every net whose metal changed, plus the
/// `rerasterized` vertices of the edited region.
std::uint64_t delta_vertices(const std::vector<NetMetal>& before,
                             const std::vector<NetMetal>& after,
                             std::uint64_t rerasterized) {
  std::uint64_t n = rerasterized;
  for (std::size_t i = 0; i < std::max(before.size(), after.size()); ++i) {
    const NetMetal none;
    const NetMetal& b = i < before.size() ? before[i] : none;
    const NetMetal& a = i < after.size() ? after[i] : none;
    if (a != b) n += a.size() + b.size();
  }
  return n;
}

TEST(RouterSession, ApplyRefreshesConflictsOverTheDeltaOnly) {
  // The cost contract of an apply, in deterministic counters: the conflict
  // index processes only the vertices the edit changed, never the whole
  // layout (a keep-best restore or a full rescan would touch all of it).
  RouterSession session(spaced_nets_design(8), quiet_config());
  ASSERT_EQ(session.solution().num_routed(), 8);
  const std::vector<grid::VertexId> wire = session.solution().routes[3].vertices();
  ASSERT_FALSE(wire.empty());
  const grid::VertexId v = wire[wire.size() / 2];
  ASSERT_FALSE(session.grid().is_pin_vertex(v));
  const grid::VertexLoc loc = session.grid().loc(v);

  Edit e;
  e.kind = EditKind::kAddBlockage;
  e.layer = loc.layer;
  e.rect = {loc.x, loc.y, loc.x, loc.y};  // on net 3's wire
  std::vector<NetMetal> before = committed_metal(session);
  const std::uint64_t p0 = session.conflict_index().vertices_processed();
  const EditResponse dropped = session.submit(e);
  ASSERT_EQ(dropped.status, EditStatus::kApplied);
  ASSERT_EQ(dropped.dirty_nets, 1);
  std::vector<NetMetal> after = committed_metal(session);
  const std::uint64_t p1 = session.conflict_index().vertices_processed();
  EXPECT_GT(p1, p0);  // the released and rerouted wire was refreshed
  EXPECT_LE(p1 - p0, delta_vertices(before, after, 1));

  // Lifting the blockage dirties no net: only the one re-rasterized
  // vertex may be refreshed.
  e.kind = EditKind::kRemoveBlockage;
  before = std::move(after);
  const EditResponse lifted = session.submit(e);
  ASSERT_EQ(lifted.status, EditStatus::kApplied);
  ASSERT_EQ(lifted.dirty_nets, 0);
  after = committed_metal(session);
  EXPECT_EQ(after, before);
  const std::uint64_t p2 = session.conflict_index().vertices_processed();
  EXPECT_LE(p2 - p1, delta_vertices(before, after, 1));
  EXPECT_TRUE(audit_session(session).ok);
}

TEST(RouterSession, ApplyStartsFromZeroHistory) {
  // Nets on tracks 5-7 and 9-11 (dcolor 2); an added net on track 8 sits
  // within dcolor of four of them, all three masks taken, so the apply's
  // rip-up and reroute adds history.
  db::TechRules rules;
  rules.dcolor = 2;
  db::Design d("h", db::Tech::make_default(2, 2, rules), {0, 0, 15, 15});
  for (const int y : {5, 6, 7, 9, 10, 11}) {
    const db::NetId n = d.add_net("n" + std::to_string(y));
    db::Pin p;
    p.layer = 0;
    p.shapes = {{2, y, 2, y}};
    d.add_pin(n, p);
    p.shapes = {{13, y, 13, y}};
    d.add_pin(n, p);
  }
  d.validate();
  RouterSession session(d, quiet_config());
  auto history_vertices = [&session] {
    int n = 0;
    for (grid::VertexId v = 0; v < session.grid().num_vertices(); ++v)
      if (session.grid().history(v) != 0.0) ++n;
    return n;
  };
  ASSERT_EQ(history_vertices(), 0);
  const EditResponse added = session.submit(add_net_edit("eco", 0, 8, 2, 13));
  ASSERT_EQ(added.status, EditStatus::kApplied);
  ASSERT_GT(history_vertices(), 0) << "the apply's rip-up added no history";

  // Removing the net again leaves nothing to rip, so the next apply adds
  // no history: every vertex the last apply touched must be back at 0.
  Edit e;
  e.kind = EditKind::kRemoveNet;
  e.net = 6;
  const EditResponse removed = session.submit(e);
  ASSERT_EQ(removed.status, EditStatus::kApplied);
  ASSERT_EQ(removed.conflicts, 0);
  EXPECT_EQ(history_vertices(), 0);
  EXPECT_TRUE(audit_session(session).ok);
}

// ---- replay determinism -------------------------------------------------

TEST(RouterSession, CommittedSequenceReplaysByteIdentically) {
  const db::Design base = test::parallel_nets_design(2);
  SessionConfig config = quiet_config();

  struct Recorded {
    Edit edit;
    std::uint64_t cap = 0;
  };
  std::vector<Recorded> committed;
  RouterSession live(base, config);
  live.set_commit_hook([&committed](const CommittedEdit& c) {
    committed.push_back({c.edit, c.max_relaxations});
  });

  live.submit(add_net_edit("eco_a", 0, 3, 2, 13));
  Edit blockage;
  blockage.kind = EditKind::kAddBlockage;
  blockage.layer = 0;
  blockage.rect = {7, 7, 8, 8};
  live.submit(blockage);
  Edit rm;
  rm.kind = EditKind::kRemoveNet;
  rm.net = 1;
  live.submit(rm);
  blockage.kind = EditKind::kRemoveBlockage;
  live.submit(blockage);
  ASSERT_EQ(committed.size(), 4u);

  // Replay the committed sequence (through the journal's line format, as
  // recovery would) onto a fresh session of the same base design.
  RouterSession replayed(base, config);
  for (const Recorded& r : committed) {
    const Edit edit = parse_edit(format_edit(r.edit), "replay", 1);
    const EditResponse resp = replayed.replay(edit, r.cap);
    EXPECT_NE(resp.status, EditStatus::kRejected) << format_edit(edit);
  }
  EXPECT_EQ(replayed.seq(), live.seq());
  EXPECT_EQ(replayed.design_text(), live.design_text());
  EXPECT_EQ(replayed.solution_text(), live.solution_text());
  EXPECT_TRUE(audit_session(replayed).ok);
}

}  // namespace
}  // namespace mrtpl::session
