// svc::Exchange — the session-oriented call service facade: typed
// rejections, generation-tagged handle safety, out-of-range terminals,
// batched admission (defer/refuse), and async completion.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "networks/cantor.hpp"
#include "networks/clos.hpp"
#include "networks/crossbar.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"

namespace ftcs::svc {
namespace {

ExchangeConfig sessions_cfg(unsigned sessions) {
  ExchangeConfig cfg;
  cfg.sessions = sessions;
  return cfg;
}

TEST(Exchange, ImmediateCallLifecycle) {
  const auto net = networks::build_crossbar(4);
  Exchange ex(net, {});
  EXPECT_EQ(ex.sessions(), 1u);
  const Outcome o = ex.call({0, 2, 0, 77});
  ASSERT_TRUE(o.connected());
  EXPECT_TRUE(o.id.valid());
  EXPECT_EQ(o.reject, RejectReason::kNone);
  EXPECT_EQ(o.path_length, 2u);
  EXPECT_EQ(o.tag, 77u);
  EXPECT_EQ(o.session, 0u);
  EXPECT_FALSE(ex.input_idle(0));
  EXPECT_FALSE(ex.output_idle(2));
  EXPECT_EQ(ex.active_calls(), 1u);
  const auto path = ex.path_of(o.id);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path.front(), net.inputs[0]);
  EXPECT_EQ(path.back(), net.outputs[2]);
  EXPECT_EQ(ex.hangup(o.id), RejectReason::kNone);
  EXPECT_TRUE(ex.input_idle(0));
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.router.accepted, 1u);
  EXPECT_EQ(st.hangups, 1u);
  EXPECT_EQ(st.handle_errors, 0u);
}

TEST(Exchange, TypedRejectionsOnOneAndTwoSessions) {
  const auto net = networks::build_crossbar(3);
  // Edge (input 0 -> output 0) of the crossbar is edge id 0; blocking it
  // leaves the terminals idle but removes the only path between them.
  std::vector<std::uint8_t> blocked_edges(net.g.edge_count(), 0);
  blocked_edges[0] = 1;
  for (const unsigned sessions : {1u, 2u}) {
    SCOPED_TRACE(sessions);
    ExchangeConfig cfg = sessions_cfg(sessions);
    cfg.blocked_edges = blocked_edges;
    Exchange ex(net, std::move(cfg));
    // No idle path despite idle terminals.
    const Outcome no_path = ex.call({0, 0});
    EXPECT_EQ(no_path.reject, RejectReason::kNoPath);
    EXPECT_FALSE(no_path.id.valid());
    // Busy terminal: no search is run.
    const Outcome held = ex.call({1, 1});
    ASSERT_TRUE(held.connected());
    const Outcome busy_in = ex.call({1, 2});
    EXPECT_EQ(busy_in.reject, RejectReason::kTerminalBusy);
    const Outcome busy_out = ex.call({2, 1});
    EXPECT_EQ(busy_out.reject, RejectReason::kTerminalBusy);
    // The shared spelling is what reports print.
    EXPECT_STREQ(to_string(no_path.reject), "rejected_no_path");
    EXPECT_STREQ(to_string(busy_in.reject), "rejected_terminal");
    const ExchangeStats st = ex.stats();
    EXPECT_EQ(st.router.rejected_no_path, 1u);
    EXPECT_EQ(st.router.rejected_terminal, 2u);
    EXPECT_EQ(ex.hangup(held.id), RejectReason::kNone);
  }
}

TEST(Exchange, StaleAndDoubleHangupAreTypedErrors) {
  const auto net = networks::build_crossbar(4);
  Exchange ex(net, {});
  const Outcome a = ex.call({0, 0});
  ASSERT_TRUE(a.connected());
  const CallId stale = a.id;
  EXPECT_EQ(ex.hangup(a.id), RejectReason::kNone);
  // Double hangup via the retained copy: detected, nothing touched.
  EXPECT_EQ(ex.hangup(stale), RejectReason::kStaleHandle);
  EXPECT_EQ(ex.hangup(stale), RejectReason::kStaleHandle);
  // Null handle.
  EXPECT_EQ(ex.hangup(CallId{}), RejectReason::kStaleHandle);
  EXPECT_EQ(ex.stats().handle_errors, 3u);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
}

TEST(Exchange, StaleHandleCannotTouchReusedSlot) {
  const auto net = networks::build_crossbar(4);
  Exchange ex(net, {});
  const Outcome a = ex.call({0, 0});
  ASSERT_TRUE(a.connected());
  const CallId stale = a.id;
  ASSERT_EQ(ex.hangup(a.id), RejectReason::kNone);
  // The slot is reused for a new call; the stale handle's generation no
  // longer matches, so it cannot hang up the NEW call (the raw routers
  // would have silently done exactly that).
  const Outcome b = ex.call({1, 1});
  ASSERT_TRUE(b.connected());
  EXPECT_NE(stale, b.id);
  EXPECT_EQ(ex.hangup(stale), RejectReason::kStaleHandle);
  EXPECT_EQ(ex.active_calls(), 1u);
  EXPECT_FALSE(ex.input_idle(1));
  EXPECT_EQ(ex.hangup(b.id), RejectReason::kNone);
  EXPECT_EQ(ex.stats().handle_errors, 1u);
}

TEST(Exchange, ForeignHandleRejected) {
  const auto net = networks::build_crossbar(4);
  Exchange a(net, {});
  Exchange b(net, {});
  const Outcome oa = a.call({0, 0});
  ASSERT_TRUE(oa.connected());
  EXPECT_EQ(b.hangup(oa.id), RejectReason::kForeignHandle);
  EXPECT_EQ(b.stats().handle_errors, 1u);
  EXPECT_EQ(a.stats().handle_errors, 0u);
  EXPECT_EQ(a.active_calls(), 1u);  // untouched
  EXPECT_TRUE(b.path_of(oa.id).empty());
  EXPECT_EQ(a.hangup(oa.id), RejectReason::kNone);
}

TEST(Exchange, BadSessionIsTypedError) {
  const auto net = networks::build_crossbar(4);
  Exchange ex(net, {});
  const Outcome o = ex.call({0, 0}, 5);
  EXPECT_EQ(o.reject, RejectReason::kBadSession);
  EXPECT_FALSE(o.id.valid());
  EXPECT_EQ(ex.active_calls(), 0u);
  // Misuse is visible in the books, not silently dropped.
  EXPECT_EQ(ex.stats().handle_errors, 1u);
}

// Backend::kGreedy only clamps the session count: one session of the same
// router.
TEST(Exchange, GreedyBackendClampsToOneSession) {
  const auto net = networks::build_crossbar(4);
  EXPECT_EQ(Exchange(net, sessions_cfg(4)).sessions(), 4u);
  EXPECT_EQ(Exchange(net, sessions_cfg(0)).sessions(), 1u);
  ExchangeConfig cfg = sessions_cfg(4);
  cfg.backend = Backend::kGreedy;
  Exchange ex(net, std::move(cfg));
  EXPECT_EQ(ex.sessions(), 1u);
  EXPECT_EQ(ex.call({0, 0}, 1).reject, RejectReason::kBadSession);
  EXPECT_TRUE(ex.call({0, 0}, 0).connected());
}

// An out-of-range terminal index is a typed misuse on both planes: it is
// rejected kBadSession before the router sees it, counted in handle_errors,
// and no busy state or call moves.
TEST(Exchange, OutOfRangeTerminalIsTypedError) {
  const auto net = networks::build_cantor({5, 0});
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  const std::vector<CallRequest> bad{
      {n + 100000, 0}, {0, n + 100000}, {n, 2}, {2, n}};
  for (const unsigned sessions : {1u, 2u}) {
    SCOPED_TRACE(sessions);
    Exchange ex(net, sessions_cfg(sessions));
    const Outcome held = ex.call({1, 1});
    ASSERT_TRUE(held.connected());
    const std::size_t busy_before = ex.busy_vertices();

    for (const CallRequest& r : bad) {
      const Outcome o = ex.call(r);
      EXPECT_EQ(o.reject, RejectReason::kBadSession);
      EXPECT_FALSE(o.id.valid());
    }
    std::vector<Ticket> tickets;
    for (const CallRequest& r : bad) tickets.push_back(ex.submit(r));
    EXPECT_EQ(ex.drain_all(), bad.size());
    for (const Ticket t : tickets) {
      const auto o = ex.poll(t);
      ASSERT_TRUE(o.has_value());
      EXPECT_EQ(o->reject, RejectReason::kBadSession);
      EXPECT_FALSE(o->id.valid());
    }

    const ExchangeStats st = ex.stats();
    EXPECT_EQ(st.handle_errors, 2 * bad.size());
    EXPECT_EQ(st.router.connect_calls, 1u);  // the router never saw them
    EXPECT_EQ(ex.active_calls(), 1u);
    EXPECT_EQ(ex.busy_vertices(), busy_before);
    for (std::uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(ex.input_idle(i), i != 1) << "input " << i;
      EXPECT_EQ(ex.output_idle(i), i != 1) << "output " << i;
    }
    EXPECT_EQ(ex.hangup(held.id), RejectReason::kNone);
    EXPECT_EQ(ex.busy_vertices(), 0u);
  }
}

// Batched plane: the same trace submitted through batched admission
// (unbounded window, 1 session) produces the same router books as the
// immediate plane.
// With one session the batched plane routes each admitted window request
// by request, through the same router connect() as call(). Each epoch
// admits the `window` highest priorities still queued (FIFO among equals;
// 0 = the whole queue) and routes them in arrival order. So every drained
// Outcome (reject, path length, path, deferrals) must equal call()'s on the
// same requests in that order.
void expect_drain_matches_call(std::size_t window) {
  struct Case {
    const char* name;
    graph::Network net;
    std::vector<std::uint8_t> blocked_edges;
  };
  std::vector<Case> cases;
  cases.push_back({"clos-2-3-4", networks::build_clos({2, 3, 4}), {}});
  cases.push_back({"cantor-k4", networks::build_cantor({4, 0}), {}});
  {
    // crossbar-4 without its input 0 -> output 0 switch: (0, 0) has idle
    // terminals but no path, so it rejects kNoPath and leaves input 0 free.
    auto net = networks::build_crossbar(4);
    std::vector<std::uint8_t> cut(net.g.edge_count(), 0);
    cut[0] = 1;
    cases.push_back({"crossbar-4-cut", std::move(net), std::move(cut)});
  }

  std::size_t connected = 0, terminal_busy = 0, no_path = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto n = static_cast<std::uint32_t>(c.net.inputs.size());
    // Crafted head, first in arrival and at the top priority, so it is
    // routed first and in this order: input 0 twice in one window
    // (duplicate terminal), then (1, 3) rejected on the output (2, 3)
    // took, whose input 1 the next window-mate (1, 2) reuses. On
    // crossbar-4-cut the first (0, 0) is the rejected request and (0, 1)
    // reuses its input.
    std::vector<CallRequest> reqs{
        {0, 0, 3}, {0, 1, 3}, {2, 3, 3}, {1, 3, 3}, {1, 2, 3}};
    util::Xoshiro256 rng(5);
    while (reqs.size() < 64)
      reqs.push_back({static_cast<std::uint32_t>(rng() % n),
                      static_cast<std::uint32_t>(rng() % n),
                      static_cast<std::uint8_t>(rng() % 3)});
    for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].tag = i;

    // Reference model of the admission: routing order and epoch index.
    std::vector<std::size_t> order, epoch_of(reqs.size());
    std::vector<std::size_t> queued(reqs.size());
    std::iota(queued.begin(), queued.end(), std::size_t{0});
    for (std::size_t epoch = 0; !queued.empty(); ++epoch) {
      std::vector<std::size_t> admit = queued;
      std::stable_sort(admit.begin(), admit.end(),
                       [&](std::size_t a, std::size_t b) {
                         return reqs[a].priority > reqs[b].priority;
                       });
      if (window > 0 && window < admit.size()) admit.resize(window);
      std::sort(admit.begin(), admit.end());
      for (const std::size_t i : admit) {
        order.push_back(i);
        epoch_of[i] = epoch;
        queued.erase(std::find(queued.begin(), queued.end(), i));
      }
    }

    const auto make = [&](std::size_t epoch_window) {
      ExchangeConfig cfg;
      cfg.blocked_edges = c.blocked_edges;
      cfg.epoch_window = epoch_window;
      return cfg;
    };
    Exchange immediate(c.net, make(0));
    Exchange batched(c.net, make(window));
    std::vector<Ticket> tickets;
    for (const CallRequest& r : reqs) tickets.push_back(batched.submit(r));
    EXPECT_EQ(batched.pending(), reqs.size());
    EXPECT_EQ(batched.drain_all(), reqs.size());
    EXPECT_EQ(batched.pending(), 0u);

    std::vector<RejectReason> verdict(reqs.size());
    for (const std::size_t i : order) {
      const Outcome want = immediate.call(reqs[i]);
      const auto got = batched.poll(tickets[i]);
      ASSERT_TRUE(got.has_value()) << "request " << i;
      EXPECT_FALSE(batched.poll(tickets[i]).has_value());  // taken once
      EXPECT_EQ(got->reject, want.reject) << "request " << i;
      EXPECT_EQ(got->path_length, want.path_length) << "request " << i;
      EXPECT_EQ(got->tag, i);
      EXPECT_EQ(got->deferrals, epoch_of[i]) << "request " << i;
      if (want.connected() && got->connected()) {
        EXPECT_EQ(batched.path_of(got->id), immediate.path_of(want.id))
            << "request " << i;
      }
      verdict[i] = want.reject;
      connected += want.connected();
      terminal_busy += want.reject == RejectReason::kTerminalBusy;
      no_path += want.reject == RejectReason::kNoPath;
    }
    // The crafted head resolved as described above.
    const bool cut = !c.blocked_edges.empty();
    EXPECT_EQ(verdict[0], cut ? RejectReason::kNoPath : RejectReason::kNone);
    EXPECT_EQ(verdict[1],
              cut ? RejectReason::kNone : RejectReason::kTerminalBusy);
    EXPECT_EQ(verdict[2], RejectReason::kNone);
    EXPECT_EQ(verdict[3], RejectReason::kTerminalBusy);
    EXPECT_EQ(verdict[4], RejectReason::kNone);

    const ExchangeStats a = immediate.stats();
    const ExchangeStats b = batched.stats();
    EXPECT_EQ(a.router.accepted, b.router.accepted);
    EXPECT_EQ(a.router.rejected_terminal, b.router.rejected_terminal);
    EXPECT_EQ(a.router.rejected_no_path, b.router.rejected_no_path);
    EXPECT_EQ(b.submitted, reqs.size());
    EXPECT_EQ(b.admitted, reqs.size());
    EXPECT_EQ(b.completed, reqs.size());
    EXPECT_EQ(b.epochs, epoch_of[order.back()] + 1);
    EXPECT_EQ(b.refused, 0u);
    EXPECT_EQ(immediate.active_calls(), batched.active_calls());
  }
  // Every verdict class the window books can take was exercised.
  EXPECT_GT(connected, 0u);
  EXPECT_GT(terminal_busy, 0u);
  EXPECT_GT(no_path, 0u);
}

TEST(Exchange, BatchedUnboundedMatchesImmediate) {
  expect_drain_matches_call(0);
}

TEST(Exchange, BatchedFixedWindowMatchesImmediateInAdmissionOrder) {
  expect_drain_matches_call(16);
}

TEST(Exchange, FixedWindowDefersBeyondTheWindow) {
  const auto net = networks::build_crossbar(16);
  ExchangeConfig cfg;
  cfg.epoch_window = 4;
  Exchange ex(net, std::move(cfg));
  std::vector<Ticket> tickets;
  for (std::uint32_t i = 0; i < 10; ++i)
    tickets.push_back(ex.submit({i, i}));
  EXPECT_EQ(ex.drain(), 4u);  // epoch 1: 4 admitted, 6 deferred
  EXPECT_EQ(ex.pending(), 6u);
  EXPECT_EQ(ex.drain(), 4u);  // epoch 2: 4 admitted, 2 deferred again
  EXPECT_EQ(ex.drain(), 2u);  // epoch 3: the stragglers
  EXPECT_EQ(ex.pending(), 0u);
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.epochs, 3u);
  EXPECT_EQ(st.admitted, 10u);
  EXPECT_EQ(st.deferred, 6u + 2u);  // request-epochs spent waiting
  EXPECT_EQ(st.queue_high_water, 10u);
  // Deferral counts are surfaced in the outcomes.
  EXPECT_EQ(ex.poll(tickets[0])->deferrals, 0u);
  EXPECT_EQ(ex.poll(tickets[5])->deferrals, 1u);
  EXPECT_EQ(ex.poll(tickets[9])->deferrals, 2u);
}

TEST(Exchange, OverloadRefusesAtTheQueueCap) {
  const auto net = networks::build_crossbar(16);
  ExchangeConfig cfg = sessions_cfg(2);
  cfg.epoch_window = 2;
  cfg.max_queue = 4;
  Exchange ex(net, std::move(cfg));
  std::vector<Ticket> tickets;
  for (std::uint32_t i = 0; i < 7; ++i)
    tickets.push_back(ex.submit({i, i, 0, /*tag=*/i}));
  // Submissions 5..7 found the queue at its cap of 4: refused outright,
  // outcome immediately pollable.
  for (std::size_t i = 4; i < 7; ++i) {
    const auto o = ex.poll(tickets[i]);
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->reject, RejectReason::kRefused);
    EXPECT_FALSE(o->id.valid());
    EXPECT_EQ(o->tag, i);
    EXPECT_STREQ(to_string(o->reject), "refused_overload");
  }
  EXPECT_EQ(ex.drain_all(), 4u);
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.submitted, 7u);
  EXPECT_EQ(st.refused, 3u);
  EXPECT_EQ(st.admitted, 4u);
  EXPECT_EQ(st.completed, 7u);  // 4 served + 3 refusals delivered
  EXPECT_EQ(st.epochs, 2u);
  EXPECT_EQ(st.deferred, 2u);  // the 2 that waited out epoch 1
  EXPECT_EQ(st.queue_high_water, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto o = ex.poll(tickets[i]);
    ASSERT_TRUE(o.has_value());
    EXPECT_TRUE(o->connected());
  }
}

TEST(Exchange, PriorityClassesAdmittedFirst) {
  const auto net = networks::build_crossbar(16);
  ExchangeConfig cfg;
  cfg.epoch_window = 2;
  Exchange ex(net, std::move(cfg));
  const Ticket t0 = ex.submit({0, 0, /*priority=*/0});
  const Ticket t1 = ex.submit({1, 1, /*priority=*/5});
  const Ticket t2 = ex.submit({2, 2, /*priority=*/1});
  const Ticket t3 = ex.submit({3, 3, /*priority=*/5});
  EXPECT_EQ(ex.drain(), 2u);
  // The two priority-5 requests went first (stable FIFO among equals).
  EXPECT_TRUE(ex.poll(t1).has_value());
  EXPECT_TRUE(ex.poll(t3).has_value());
  EXPECT_FALSE(ex.poll(t0).has_value());
  EXPECT_FALSE(ex.poll(t2).has_value());
  EXPECT_EQ(ex.drain(), 2u);
  ASSERT_TRUE(ex.poll(t2).has_value());
  ASSERT_TRUE(ex.poll(t0).has_value());
}

TEST(Exchange, AsyncCompletionCallbacksAcrossSessions) {
  const auto net = networks::build_cantor({5, 0});
  Exchange ex(net, sessions_cfg(4));
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  std::mutex mu;
  std::vector<Outcome> done;
  for (std::uint32_t i = 0; i < 64; ++i) {
    ex.submit({i % n, (i * 7 + 3) % n, 0, /*tag=*/i}, [&](const Outcome& o) {
      std::lock_guard<std::mutex> lk(mu);
      done.push_back(o);
    });
  }
  EXPECT_EQ(ex.drain(), 64u);
  ASSERT_EQ(done.size(), 64u);
  std::size_t connected = 0;
  bool multi_session = false;
  for (const Outcome& o : done) {
    if (o.session != done.front().session) multi_session = true;
    if (o.connected()) {
      ++connected;
      EXPECT_EQ(ex.hangup(o.id), RejectReason::kNone);
    }
  }
  EXPECT_TRUE(multi_session);  // the batch really fanned out
  EXPECT_GT(connected, 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  EXPECT_EQ(ex.stats().completed, 64u);
}

TEST(ExchangeStats, MergeAndDelta) {
  ExchangeStats a, b;
  a.router.accepted = 5;
  a.submitted = 10;
  a.deferred = 2;
  a.queue_high_water = 7;
  b.router.accepted = 3;
  b.submitted = 4;
  b.refused = 1;
  b.queue_high_water = 9;
  ExchangeStats sum = a;
  sum += b;
  EXPECT_EQ(sum.router.accepted, 8u);
  EXPECT_EQ(sum.submitted, 14u);
  EXPECT_EQ(sum.refused, 1u);
  EXPECT_EQ(sum.queue_high_water, 9u);  // high-water merges by max
  sum -= a;
  EXPECT_EQ(sum.router.accepted, 3u);
  EXPECT_EQ(sum.submitted, 4u);
}

// Churn stress (the TSan job runs this file): each thread drives its own
// session through the facade, deliberately misusing handles as it goes —
// stale double-hangups, null handles, handles from a different Exchange.
// Every misuse must come back as a typed error and busy state must balance
// exactly at the end.
TEST(Exchange, ConcurrentChurnWithHandleMisuseStaysSound) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kSessions = 4;
  Exchange ex(net, sessions_cfg(kSessions));
  Exchange other(net, {});
  const Outcome foreign = other.call({0, 0});
  ASSERT_TRUE(foreign.connected());
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  std::atomic<std::uint64_t> expected_errors{0};
  std::vector<std::vector<Outcome>> live(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (unsigned s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      util::Xoshiro256 rng(util::derive_seed(97, s));
      auto& mine = live[s];
      CallId retired{};  // a handle this thread already hung up
      std::uint64_t errors = 0;
      for (int op = 0; op < 2000; ++op) {
        const auto kind = rng() & 15u;
        if (kind == 0 && retired.valid()) {
          // Double hangup of an already-retired handle.
          if (ex.hangup(retired) == RejectReason::kStaleHandle) ++errors;
        } else if (kind == 1) {
          if (ex.hangup(CallId{}) == RejectReason::kStaleHandle) ++errors;
        } else if (kind == 2) {
          if (ex.hangup(foreign.id) == RejectReason::kForeignHandle) ++errors;
        } else if (kind < 6 && !mine.empty()) {
          const auto idx = rng() % mine.size();
          EXPECT_EQ(ex.hangup(mine[idx].id), RejectReason::kNone);
          retired = mine[idx].id;
          mine[idx] = mine.back();
          mine.pop_back();
        } else {
          const auto in = static_cast<std::uint32_t>(rng() % n);
          const auto out = static_cast<std::uint32_t>(rng() % n);
          const Outcome o = ex.call({in, out}, s);
          if (o.connected()) mine.push_back(o);
        }
      }
      expected_errors.fetch_add(errors, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();

  // Quiescent invariants: the facade's books balance and misuse never
  // leaked into busy state.
  std::size_t live_calls = 0, live_path_vertices = 0;
  for (const auto& session_calls : live) {
    live_calls += session_calls.size();
    for (const Outcome& o : session_calls) live_path_vertices += o.path_length;
  }
  EXPECT_EQ(ex.active_calls(), live_calls);
  EXPECT_EQ(ex.busy_vertices(), live_path_vertices);
  const ExchangeStats st = ex.stats();
  EXPECT_EQ(st.handle_errors, expected_errors.load());
  EXPECT_EQ(st.router.accepted, st.hangups + live_calls);
  // Full drain releases everything.
  for (const auto& session_calls : live)
    for (const Outcome& o : session_calls)
      EXPECT_EQ(ex.hangup(o.id), RejectReason::kNone);
  EXPECT_EQ(ex.active_calls(), 0u);
  EXPECT_EQ(ex.busy_vertices(), 0u);
  EXPECT_EQ(other.hangup(foreign.id), RejectReason::kNone);
}

}  // namespace
}  // namespace ftcs::svc
