// The operator control plane: LatencyHistogram/QoS books, the MPSC
// CommandQueue with typed acks, ControlPlane command execution at epoch
// boundaries, MetricsRegistry export (Prometheus + JSON, totals + deltas),
// the RejectReason round-trip, and the acceptance-criteria churn — 4
// sessions serving calls while a separate operator thread pumps
// inject/repair/query/snapshot commands through the queue. (Carries the
// `tsan` ctest label.)
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/schedule.hpp"
#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "ops/command_queue.hpp"
#include "ops/control.hpp"
#include "ops/latency.hpp"
#include "ops/metrics.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

using fault::FaultEvent;

TEST(LatencyHistogram, BucketsQuantilesAndMergeability) {
  ops::LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  // 90 samples at ~1us, 10 at ~1ms: p50 lands in the microsecond bucket,
  // p99 in the millisecond one. Log-scale buckets promise the answer within
  // one 2x bucket of the truth.
  for (int i = 0; i < 90; ++i) h.record(1.0e-6);
  for (int i = 0; i < 10; ++i) h.record(1.0e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum_seconds(), 90.0e-6 + 10.0e-3, 1e-9);
  EXPECT_GT(h.quantile(0.50), 0.5e-6);
  EXPECT_LT(h.quantile(0.50), 2.1e-6);
  EXPECT_GT(h.quantile(0.99), 0.5e-3);
  EXPECT_LT(h.quantile(0.99), 2.1e-3);
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.1), h.quantile(0.9));

  // Mergeable like RouterStats: += aggregates, -= recovers the delta.
  ops::LatencyHistogram a = h;
  a += h;
  EXPECT_EQ(a.count(), 200u);
  a -= h;
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.quantile(0.5), h.quantile(0.5));

  // Extremes clip into the outermost buckets instead of overflowing.
  ops::LatencyHistogram x;
  x.record(0.0);
  x.record(1e9);
  EXPECT_EQ(x.count(), 2u);
  EXPECT_GT(x.quantile(1.0), 100.0);  // deep in the last bucket
}

TEST(LatencyHistogram, QosClassMappingClampsHighPriorities) {
  EXPECT_EQ(ops::qos_class(0), 0u);
  EXPECT_EQ(ops::qos_class(1), 1u);
  EXPECT_EQ(ops::qos_class(3), 3u);
  EXPECT_EQ(ops::qos_class(200), ops::kQosClasses - 1);
}

TEST(RejectReason, ToStringRoundTripsOverAllEnumerators) {
  std::set<std::string> spellings;
  for (const svc::RejectReason r : svc::kAllRejectReasons) {
    const std::string s = to_string(r);
    EXPECT_NE(s, "unknown");
    EXPECT_TRUE(spellings.insert(s).second) << "duplicate spelling " << s;
    const auto back = svc::reject_reason_from_string(s);
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(*back, r);
  }
  EXPECT_EQ(spellings.size(), svc::kRejectReasonCount);
  EXPECT_FALSE(svc::reject_reason_from_string("bogus").has_value());
  EXPECT_FALSE(svc::reject_reason_from_string("unknown").has_value());
}

TEST(ExchangeQos, BatchedPlaneKeepsPerClassBooksAndSlaViolations) {
  const auto net = networks::build_crossbar(8);
  svc::ExchangeConfig cfg;
  // Class 2 carries an impossible SLA (1ns): every served class-2 call
  // violates it. Class 0 carries a lavish one nothing violates.
  cfg.class_deadlines = {60.0, 0.0, 1e-9, 0.0};
  svc::Exchange ex(net, std::move(cfg));

  // Two calls per class; the second class-3 call collides on terminals with
  // the first (same input), producing a typed per-class reject.
  for (std::uint8_t pri = 0; pri < 4; ++pri) {
    ex.submit({0u + pri, 0u + pri, pri, 0});
    ex.submit({pri == 3 ? 3u : 4u + pri, 4u + pri, pri, 0});
  }
  ex.drain_all();
  const auto st = ex.stats();
  EXPECT_EQ(st.classes[0].served, 2u);
  EXPECT_EQ(st.classes[0].sla_violations, 0u);
  EXPECT_EQ(st.classes[1].served, 2u);
  EXPECT_EQ(st.classes[2].served, 2u);
  EXPECT_EQ(st.classes[2].sla_violations, 2u);  // the 1ns deadline
  EXPECT_EQ(st.classes[3].served, 1u);
  EXPECT_EQ(st.classes[3].rejected, 1u);  // terminal-busy collision
  EXPECT_EQ(st.classes[0].setup.count(), 2u);
  EXPECT_GT(st.classes[0].setup.quantile(0.5), 0.0);
  // The books survive the stats delta convention.
  auto delta = ex.stats();
  delta -= st;
  EXPECT_EQ(delta.classes[2].served, 0u);
}

TEST(ExchangeQos, ImmediatePlaneBooksAreOptIn) {
  const auto net = networks::build_crossbar(4);
  {
    svc::Exchange ex(net);  // default: immediate plane keeps no books
    const auto o = ex.call({0, 0, 1, 0});
    ASSERT_TRUE(o.connected());
    EXPECT_EQ(ex.stats().classes[1].served, 0u);
    ex.hangup(o.id);
  }
  svc::ExchangeConfig cfg;
  cfg.qos_immediate = true;
  cfg.class_deadlines = {0.0, 1e-9, 0.0, 0.0};
  svc::Exchange ex(net, std::move(cfg));
  const auto o = ex.call({0, 0, 1, 0});
  ASSERT_TRUE(o.connected());
  const auto busy = ex.call({0, 1, 1, 0});  // same input: typed reject
  EXPECT_FALSE(busy.connected());
  const auto st = ex.stats();
  EXPECT_EQ(st.classes[1].served, 1u);
  EXPECT_EQ(st.classes[1].rejected, 1u);
  EXPECT_EQ(st.classes[1].sla_violations, 1u);
  ex.hangup(o.id);
}

TEST(CommandQueue, PostAckDepthAndTakeOnce) {
  ops::CommandQueue q;
  EXPECT_EQ(q.depth(), 0u);
  const auto t1 = q.post({ops::CommandKind::kQuery, {}, 0});
  const auto t2 = q.post({ops::CommandKind::kGrow, {}, 16});
  EXPECT_NE(t1, 0u);
  EXPECT_NE(t1, t2);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_FALSE(q.try_ack(t1).has_value());  // not executed yet

  auto taken = q.take_all();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].ticket, t1);
  EXPECT_EQ(taken[1].cmd.arg, 16u);
  EXPECT_EQ(q.depth(), 0u);

  ops::Ack a;
  a.kind = taken[1].cmd.kind;
  a.status = ops::AckStatus::kUnsupported;
  q.deliver(t2, a);
  const auto got = q.wait(t2);
  EXPECT_EQ(got.status, ops::AckStatus::kUnsupported);
  EXPECT_FALSE(q.try_ack(t2).has_value());  // take-once
}

TEST(ControlPlane, ExecutesEveryCommandKindWithTypedAcks) {
  const auto net = networks::build_crossbar(6);
  svc::Exchange ex(net);
  ops::ControlPlane control(ex, "t0");

  // A live call the inject will kill: crossbar switch (0,0) is input 0's
  // only route to output 0.
  const auto victim = ex.call({0, 0, 0, 77});
  ASSERT_TRUE(victim.connected());
  const auto e00 = net.g.out_edges(net.inputs[0])[0];

  auto& q = control.queue();
  const auto t_inject =
      q.post({ops::CommandKind::kInject, {0.0, e00, FaultEvent::Kind::kFail}, 0});
  const auto t_again =
      q.post({ops::CommandKind::kInject, {0.0, e00, FaultEvent::Kind::kFail}, 0});
  const auto t_grow = q.post({ops::CommandKind::kGrow, {}, 8});
  const auto t_query = q.post({ops::CommandKind::kQuery, {}, 0});
  EXPECT_EQ(control.pump(), 4u);

  const auto a_inject = q.wait(t_inject);
  EXPECT_EQ(a_inject.status, ops::AckStatus::kOk);
  EXPECT_EQ(a_inject.calls_killed, 1u);
  ASSERT_EQ(a_inject.killed.size(), 1u);
  EXPECT_EQ(a_inject.killed[0].tag, 77u);
  EXPECT_EQ(a_inject.killed[0].reject, svc::RejectReason::kFaulted);
  ASSERT_EQ(a_inject.reroutes.size(), 1u);
  // Output 0 is only reachable through the dead switch: the reroute fails.
  EXPECT_EQ(a_inject.reroute_failed, 1u);
  EXPECT_EQ(a_inject.failed_switches, 1u);

  const auto a_again = q.wait(t_again);
  EXPECT_EQ(a_again.status, ops::AckStatus::kNoop);  // idempotent
  EXPECT_EQ(a_again.calls_killed, 0u);

  const auto a_grow = q.wait(t_grow);
  EXPECT_EQ(a_grow.status, ops::AckStatus::kUnsupported);
  EXPECT_FALSE(a_grow.text.empty());

  const auto a_query = q.wait(t_query);
  EXPECT_EQ(a_query.stats.faults_injected, 1u);
  EXPECT_EQ(a_query.stats.calls_killed_by_fault, 1u);
  EXPECT_EQ(a_query.active_calls, 0u);

  // Repair, then quiesce a queued submission through the feed.
  const auto t_repair = q.post(
      {ops::CommandKind::kRepair, {1.0, e00, FaultEvent::Kind::kRepair}, 0});
  ex.submit({0, 0, 0, 88});
  const auto t_q = q.post({ops::CommandKind::kQuiesce, {}, 0});
  const auto t_snap =
      q.post({ops::CommandKind::kSnapshot, {},
              static_cast<std::uint64_t>(ops::SnapshotFormat::kPrometheus)});
  control.pump();
  EXPECT_EQ(q.wait(t_repair).failed_switches, 0u);
  const auto a_q = q.wait(t_q);
  EXPECT_EQ(a_q.drained, 1u);
  EXPECT_EQ(a_q.pending, 0u);
  const auto a_snap = q.wait(t_snap);
  EXPECT_NE(a_snap.text.find("ftcs_shorted"), std::string::npos);
  EXPECT_NE(a_snap.text.find("ftcs_setup_latency_seconds_bucket"),
            std::string::npos);
}

// Commands whose target is out of range ack kBadTarget with a reason and
// touch nothing: no shard is substituted for a bad one, and a bad trunk
// group or line is not mistaken for an idempotent repeat (kNoop).
TEST(ControlPlane, OutOfRangeShardAcksBadTarget) {
  const auto net = networks::build_cantor({4, 0});
  svc::Federation fed(net, 2);
  ops::ControlPlane control(fed);
  auto& q = control.queue();
  const auto t_inject =
      q.post({ops::CommandKind::kInject, {0.0, 0, FaultEvent::Kind::kFail}, 7});
  const auto t_repair = q.post(
      {ops::CommandKind::kRepair, {0.0, 0, FaultEvent::Kind::kRepair}, 2});
  EXPECT_EQ(control.pump(), 2u);
  for (const auto t : {t_inject, t_repair}) {
    const auto a = q.wait(t);
    EXPECT_EQ(a.status, ops::AckStatus::kBadTarget);
    EXPECT_NE(a.text.find("shard"), std::string::npos) << a.text;
    EXPECT_EQ(a.failed_switches, 0u);
  }
  for (unsigned m = 0; m < fed.shards(); ++m)
    EXPECT_EQ(fed.member(m).failed_switch_count(), 0u) << "member " << m;
}

TEST(ControlPlane, OutOfRangeSwitchAcksBadTarget) {
  const auto net = networks::build_cantor({4, 0});
  svc::Exchange ex(net);
  svc::Federation fed(net, 2);
  ops::ControlPlane solo(ex), federated(fed);
  const auto bad = static_cast<graph::EdgeId>(net.g.edge_count());
  for (ops::ControlPlane* plane : {&solo, &federated}) {
    auto& q = plane->queue();
    const auto t = q.post(
        {ops::CommandKind::kInject, {0.0, bad, FaultEvent::Kind::kFail}, 1});
    EXPECT_EQ(plane->pump(), 1u);
    const auto a = q.wait(t);
    EXPECT_EQ(a.status, ops::AckStatus::kBadTarget);
    EXPECT_NE(a.text.find("switch"), std::string::npos) << a.text;
  }
  EXPECT_EQ(ex.failed_switch_count(), 0u);
  EXPECT_EQ(ex.stats().handle_errors, 0u);  // the plane never forwarded it
  for (unsigned m = 0; m < fed.shards(); ++m)
    EXPECT_EQ(fed.member(m).failed_switch_count(), 0u) << "member " << m;
}

TEST(ControlPlane, OutOfRangeTrunkAcksBadTarget) {
  const auto net = networks::build_cantor({4, 0});
  svc::Federation fed(net, 2);
  ops::ControlPlane control(fed);
  ASSERT_GT(fed.trunk_group_count(), 0u);
  const std::uint32_t groups = fed.trunk_group_count();
  const std::uint32_t lines = fed.trunk_group(0).capacity();
  auto& q = control.queue();
  std::vector<ops::CmdTicket> tickets;
  for (const auto kind :
       {ops::CommandKind::kTrunkFault, ops::CommandKind::kTrunkRepair}) {
    tickets.push_back(q.post({kind, {}, groups, 0}));
    tickets.push_back(q.post({kind, {}, 0, lines}));
  }
  EXPECT_EQ(control.pump(), tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto a = q.wait(tickets[i]);
    EXPECT_EQ(a.status, ops::AckStatus::kBadTarget);
    EXPECT_NE(a.text.find(i % 2 == 0 ? "trunk group" : "trunk line"),
              std::string::npos)
        << a.text;
  }
  for (std::uint32_t g = 0; g < groups; ++g)
    EXPECT_EQ(fed.trunk_group(g).usable(), fed.trunk_group(g).capacity());
}

TEST(MetricsRegistry, DeltasBetweenScrapesAndBothFormats) {
  const auto net = networks::build_crossbar(4);
  svc::Exchange ex(net);
  ops::MetricsRegistry reg("mx");

  ex.submit({0, 0, 2, 0});
  ex.drain_all();
  const auto s1 = reg.sample(ex);
  EXPECT_EQ(s1.scrape_seq, 1u);
  EXPECT_EQ(s1.total.admitted, 1u);
  EXPECT_EQ(s1.delta.admitted, 1u);  // first delta == totals

  ex.submit({1, 1, 2, 0});
  ex.submit({2, 2, 2, 0});
  ex.drain_all();
  const auto s2 = reg.sample(ex);
  EXPECT_EQ(s2.total.admitted, 3u);
  EXPECT_EQ(s2.delta.admitted, 2u);  // only the inter-scrape activity
  EXPECT_EQ(s2.delta.classes[2].served, 2u);

  const std::string prom = reg.prometheus(s2);
  EXPECT_NE(prom.find("# TYPE ftcs_calls_admitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("ftcs_calls_admitted_total{exchange=\"mx\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("ftcs_rejects_total"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("ftcs_setup_latency_p99_seconds"), std::string::npos);

  const std::string js = reg.json(s2);
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  EXPECT_NE(js.find("\"delta\""), std::string::npos);
  EXPECT_NE(js.find("\"classes\""), std::string::npos);
  EXPECT_NE(js.find("\"scrape_seq\":2"), std::string::npos);
}

// Acceptance criteria: 4 sessions of churn while a separate operator thread
// pumps inject/repair/query/snapshot commands through ops::CommandQueue —
// no races, acks match effects, busy state balances after the final drain.
// The pump runs on its own thread holding the plane exclusively (the drain
// contract); churn threads ALSO post queries mid-flight, exercising the
// multi-producer side of the queue. TSan-run.
TEST(OpsControlPlane, OperatorCommandsRaceChurningSessionsSafely) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kSessions = 4;
  svc::ExchangeConfig cfg;
  cfg.sessions = kSessions;
  cfg.qos_immediate = true;
  cfg.class_deadlines = {0.0, 0.0, 0.0, 1e-9};
  svc::Exchange ex(net, std::move(cfg));
  ops::ControlPlane control(ex, "churn");
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  const auto schedule = fault::FaultSchedule::from_model(
      fault::FaultModel::symmetric(4e-4), net.g.edge_count(),
      /*horizon=*/250.0, /*mean_repair=*/15.0, /*seed=*/97);
  ASSERT_GT(schedule.fail_count(), 10u);

  std::shared_mutex plane;  // sessions shared, the pump exclusive
  std::atomic<int> posters{static_cast<int>(kSessions) + 1};
  std::vector<std::vector<svc::CallId>> leftover(kSessions);
  std::vector<svc::Outcome> strays;  // connected reroutes (operator-owned)

  std::vector<std::thread> threads;
  threads.reserve(kSessions + 2);
  for (unsigned s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      util::Xoshiro256 rng(util::derive_seed(811, s));
      std::vector<svc::Outcome> mine;
      for (int op = 0; op < 2000; ++op) {
        {
          std::shared_lock<std::shared_mutex> lk(plane);
          if (!mine.empty() && (rng() & 3u) == 0) {
            const auto idx = rng() % mine.size();
            const svc::RejectReason r = ex.hangup(mine[idx].id);
            EXPECT_TRUE(r == svc::RejectReason::kNone ||
                        r == svc::RejectReason::kFaulted ||
                        r == svc::RejectReason::kStaleHandle)
                << to_string(r);
            mine[idx] = mine.back();
            mine.pop_back();
          } else {
            const auto in = static_cast<std::uint32_t>(rng() % n);
            const auto out = static_cast<std::uint32_t>(rng() % n);
            const auto pri = static_cast<std::uint8_t>(rng() & 3u);
            const svc::Outcome o = ex.call({in, out, pri, 0}, s);
            if (o.connected()) mine.push_back(o);
          }
        }
        // Multi-producer side: churn threads query the control plane too.
        // Posted and awaited OUTSIDE the plane lock — a waiter holding even
        // the shared lock would deadlock the exclusive pump.
        if (op % 500 == 499) {
          const auto t =
              control.queue().post({ops::CommandKind::kQuery, {}, 0});
          const auto ack = control.queue().wait(t);
          EXPECT_EQ(ack.kind, ops::CommandKind::kQuery);
        }
      }
      for (const auto& o : mine) leftover[s].push_back(o.id);
      posters.fetch_sub(1, std::memory_order_release);
    });
  }

  // The operator: drives the storm through the command feed, checks every
  // ack against the effect it reports.
  threads.emplace_back([&] {
    std::uint64_t last_accepted = 0;
    int i = 0;
    for (const auto& ev : schedule.events()) {
      ops::Command cmd;
      cmd.kind = ev.kind == FaultEvent::Kind::kRepair
                     ? ops::CommandKind::kRepair
                     : ops::CommandKind::kInject;
      cmd.event = ev;
      const auto ack = control.queue().wait(control.queue().post(cmd));
      EXPECT_TRUE(ack.status == ops::AckStatus::kOk ||
                  ack.status == ops::AckStatus::kNoop);
      EXPECT_EQ(ack.calls_killed,
                ack.reroute_succeeded + ack.reroute_failed);
      EXPECT_EQ(ack.killed.size(), ack.reroutes.size());
      for (const auto& re : ack.reroutes) {
        if (re.connected()) strays.push_back(re);
      }
      if (ack.alarm) {
        EXPECT_EQ(ack.alarm->raised, ack.shorted);
      }
      if (++i % 16 == 0) {
        const auto q = control.queue().wait(
            control.queue().post({ops::CommandKind::kQuery, {}, 0}));
        EXPECT_GE(q.stats.router.accepted, last_accepted);  // monotone
        last_accepted = q.stats.router.accepted;
      }
      if (i % 64 == 0) {
        const auto snap = control.queue().wait(control.queue().post(
            {ops::CommandKind::kSnapshot, {},
             static_cast<std::uint64_t>(ops::SnapshotFormat::kJson)}));
        EXPECT_EQ(snap.text.front(), '{');
      }
    }
    posters.fetch_sub(1, std::memory_order_release);
  });

  // The pump: the one thread executing commands, under the drain contract.
  threads.emplace_back([&] {
    for (;;) {
      const bool last_round = posters.load(std::memory_order_acquire) == 0;
      {
        std::unique_lock<std::shared_mutex> lk(plane);
        control.pump();
      }
      if (last_round && control.queue().depth() == 0) break;
      std::this_thread::yield();
    }
  });

  for (auto& th : threads) th.join();

  // Quiescent wind-down: this thread owns everything now.
  control.queue().post({ops::CommandKind::kQuiesce, {}, 0});
  control.pump();
  for (const auto& session_calls : leftover)
    for (const auto id : session_calls) {
      const svc::RejectReason r = ex.hangup(id);
      EXPECT_TRUE(r == svc::RejectReason::kNone ||
                  r == svc::RejectReason::kFaulted ||
                  r == svc::RejectReason::kStaleHandle)
          << to_string(r);
    }
  for (const auto& o : strays) {
    const svc::RejectReason r = ex.hangup(o.id);
    EXPECT_TRUE(r == svc::RejectReason::kNone ||
                r == svc::RejectReason::kFaulted ||
                r == svc::RejectReason::kStaleHandle)
        << to_string(r);
  }
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  const svc::ExchangeStats st = ex.stats();
  EXPECT_EQ(st.router.accepted, st.hangups + st.calls_killed_by_fault);
  EXPECT_EQ(st.calls_killed_by_fault,
            st.reroute_succeeded + st.reroute_failed);
  EXPECT_GT(st.faults_injected, 0u);
  // The QoS books saw the churn (immediate plane, opt-in above).
  std::uint64_t served = 0;
  for (const auto& c : st.classes) served += c.served;
  EXPECT_GT(served, 0u);
}

}  // namespace
}  // namespace ftcs
