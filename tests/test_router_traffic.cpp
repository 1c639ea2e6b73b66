#include <gtest/gtest.h>

#include "ftcs/router.hpp"
#include "ftcs/traffic.hpp"
#include "networks/clos.hpp"
#include "networks/crossbar.hpp"
#include "svc/exchange.hpp"

namespace ftcs::core {
namespace {

TEST(Router, ConnectDisconnectLifecycle) {
  const auto net = networks::build_crossbar(4);
  Router router(net, 1);
  auto& session = router.worker(0);
  EXPECT_TRUE(router.input_idle(0));
  const auto call = session.connect(0, 2);
  ASSERT_NE(call, Router::kNoCall);
  EXPECT_FALSE(router.input_idle(0));
  EXPECT_FALSE(router.output_idle(2));
  EXPECT_EQ(router.active_calls(), 1u);
  EXPECT_EQ(session.path_of(call).size(), 2u);
  session.disconnect(call);
  EXPECT_TRUE(router.input_idle(0));
  EXPECT_TRUE(router.output_idle(2));
  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
}

TEST(Router, RejectsBusyTerminals) {
  const auto net = networks::build_crossbar(3);
  Router router(net, 1);
  auto& session = router.worker(0);
  const auto c1 = session.connect(0, 0);
  ASSERT_NE(c1, Router::kNoCall);
  EXPECT_EQ(session.connect(0, 1), Router::kNoCall);
  EXPECT_EQ(session.connect(1, 0), Router::kNoCall);
  EXPECT_NE(session.connect(1, 1), Router::kNoCall);
}

TEST(Router, BlockedVerticesNeverUsed) {
  const auto net = networks::build_crossbar(3);
  std::vector<std::uint8_t> blocked(net.g.vertex_count(), 0);
  blocked[net.inputs[1]] = 1;
  Router router(net, 1, blocked);
  auto& session = router.worker(0);
  EXPECT_FALSE(router.input_idle(1));
  EXPECT_EQ(session.connect(1, 0), Router::kNoCall);
  EXPECT_NE(session.connect(0, 0), Router::kNoCall);
}

TEST(Router, SlotReuseAfterDisconnect) {
  const auto net = networks::build_crossbar(4);
  Router router(net, 1);
  auto& session = router.worker(0);
  const auto c1 = session.connect(0, 0);
  session.disconnect(c1);
  const auto c2 = session.connect(1, 1);
  EXPECT_EQ(c1, c2);  // slot reused
  session.disconnect(c2);
}

TEST(Router, FullLoadOnCrossbar) {
  const auto net = networks::build_crossbar(5);
  Router router(net, 1);
  auto& session = router.worker(0);
  for (std::uint32_t i = 0; i < 5; ++i)
    ASSERT_NE(session.connect(i, (i + 2) % 5), Router::kNoCall);
  EXPECT_EQ(router.active_calls(), 5u);
}

/// The report's call counters must be exactly the exchange's counter
/// deltas — one set of books (the double-bookkeeping fix).
void expect_report_agrees_with_stats(const TrafficReport& report) {
  const core::RouterStats& r = report.service.router;
  EXPECT_EQ(report.offered, r.connect_calls);
  EXPECT_EQ(report.carried, r.accepted);
  EXPECT_EQ(report.carried + report.blocked, report.offered);
  EXPECT_EQ(report.blocked,
            r.rejected_no_path + r.rejected_contention + r.rejected_terminal);
  // The simulator pre-checks terminal idleness, so nothing should ever be
  // rejected at a terminal by the router on the single-session plane.
  EXPECT_EQ(r.rejected_terminal, 0u);
  // Every carried call is hung up by the end of the run.
  EXPECT_EQ(report.service.hangups, report.carried);
  EXPECT_EQ(report.service.handle_errors, 0u);
}

TEST(Traffic, LightLoadNoBlockingOnStrictClos) {
  const auto net = networks::build_clos({2, 3, 4});  // strictly nonblocking
  TrafficParams p;
  p.arrival_rate = 0.5;
  p.mean_holding = 1.0;
  p.sim_time = 2000;
  p.seed = 3;
  // The same simulation must hold with one router session and with two.
  for (const unsigned sessions : {1u, 2u}) {
    svc::ExchangeConfig cfg;
    cfg.sessions = sessions;
    svc::Exchange exchange(net, std::move(cfg));
    const auto report = simulate_traffic(exchange, p);
    EXPECT_GT(report.offered, 500u);
    EXPECT_EQ(report.blocked, 0u);  // strictly nonblocking: never blocks
    EXPECT_EQ(report.carried, report.offered);
    EXPECT_GT(report.mean_path_length, 0.0);
    expect_report_agrees_with_stats(report);
  }
}

// The immediate plane runs on session 0, so extra sessions must not change
// a single byte of the report.
TEST(Traffic, SessionCountDoesNotChangeImmediateReports) {
  const auto net = networks::build_crossbar(8);
  TrafficParams p;
  p.arrival_rate = 2.0;
  p.mean_holding = 1.0;
  p.sim_time = 800;
  p.seed = 9;
  svc::Exchange one(net, {});
  svc::ExchangeConfig cfg;
  cfg.sessions = 2;
  svc::Exchange two(net, std::move(cfg));
  const auto a = simulate_traffic(one, p);
  const auto b = simulate_traffic(two, p);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.carried, b.carried);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.terminal_busy, b.terminal_busy);
  EXPECT_DOUBLE_EQ(a.mean_active, b.mean_active);
  EXPECT_DOUBLE_EQ(a.mean_path_length, b.mean_path_length);
  EXPECT_EQ(a.service.router.vertices_visited, b.service.router.vertices_visited);
  EXPECT_EQ(a.service.router.path_vertices, b.service.router.path_vertices);
  EXPECT_EQ(a.service.hangups, b.service.hangups);
}

TEST(Traffic, OfferedLoadMatchesLittleLaw) {
  const auto net = networks::build_crossbar(16);
  svc::Exchange exchange(net, {});
  TrafficParams p;
  p.arrival_rate = 2.0;
  p.mean_holding = 1.5;
  p.sim_time = 3000;
  p.seed = 4;
  const auto report = simulate_traffic(exchange, p);
  // Little's law: mean active ~ lambda * holding = 3 (minus terminal-busy
  // rejections, small at 16 terminals).
  EXPECT_NEAR(report.mean_active, 3.0, 0.5);
  EXPECT_EQ(report.blocked, 0u);
  expect_report_agrees_with_stats(report);
}

TEST(Traffic, SaturationDropsAtTerminals) {
  const auto net = networks::build_crossbar(2);
  svc::Exchange exchange(net, {});
  TrafficParams p;
  p.arrival_rate = 50.0;
  p.mean_holding = 1.0;
  p.sim_time = 100;
  p.seed = 5;
  const auto report = simulate_traffic(exchange, p);
  EXPECT_GT(report.terminal_busy, 0u);
  EXPECT_LE(report.mean_active, 2.01);
  expect_report_agrees_with_stats(report);
}

TEST(Traffic, ZeroFaultCrossbarAllCarried) {
  const auto net = networks::build_crossbar(8);
  svc::Exchange exchange(net, {});
  TrafficParams p;
  p.arrival_rate = 1.0;
  p.sim_time = 500;
  p.seed = 6;
  const auto report = simulate_traffic(exchange, p);
  EXPECT_EQ(report.carried + report.blocked, report.offered);
  EXPECT_EQ(report.blocked, 0u);
  expect_report_agrees_with_stats(report);
}

}  // namespace
}  // namespace ftcs::core
