// core::Router with many sessions: the claim protocol under real contention.
//
//  - Churn stress: 8 threads connect/disconnect randomly over one shared
//    cantor network, then the claim invariants are checked at quiescence —
//    no vertex on two paths, busy_vertices() equals the sum of active path
//    lengths (and the busy bitset popcount), every disconnect releases its
//    claims down to an all-idle network. Run under TSan in CI, this is also
//    the data-race proof of the claim path.
//  - Blocked vertices are never claimed, and a dirty busy view never yields
//    a broken parent chain.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "ftcs/router.hpp"
#include "networks/cantor.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

TEST(Router, ChurnStressClaimInvariants) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kThreads = 8;
  constexpr std::size_t kOpsPerThread = 4000;
  core::Router router(net, kThreads);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& worker = router.worker(t);
      util::Xoshiro256 rng(util::derive_seed(777, t));
      std::vector<core::Router::CallId> active;
      active.reserve(n);
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        if (!active.empty() && rng.below(4) == 0) {
          const auto idx = rng.below(active.size());
          worker.disconnect(active[idx]);
          active[idx] = active.back();
          active.pop_back();
        } else {
          const auto in = static_cast<std::uint32_t>(rng.below(n));
          const auto out = static_cast<std::uint32_t>(rng.below(n));
          const auto call = worker.connect(in, out);
          if (call != core::Router::kNoCall) active.push_back(call);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Quiescent invariants. No vertex may lie on two active paths: ownership
  // transfers only through the busy-bit CAS, so a double-claim here would
  // mean the claim protocol leaked a vertex.
  std::vector<int> owner(net.g.vertex_count(), -1);
  std::size_t total_path_vertices = 0;
  std::size_t total_active = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    auto& worker = router.worker(t);
    for (const auto id : worker.active_call_ids()) {
      const auto path = worker.path_of(id);
      ASSERT_EQ(path.size(), worker.path_length(id));
      ASSERT_FALSE(path.empty());
      total_path_vertices += path.size();
      ++total_active;
      for (const auto v : path) {
        EXPECT_EQ(owner[v], -1)
            << "vertex " << v << " claimed by workers " << owner[v] << " and "
            << t;
        owner[v] = static_cast<int>(t);
        EXPECT_TRUE(router.is_busy(v));
      }
    }
  }
  EXPECT_EQ(router.active_calls(), total_active);
  EXPECT_EQ(router.busy_vertices(), total_path_vertices);
  std::size_t busy_popcount = 0;
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v)
    if (router.is_busy(v)) ++busy_popcount;
  EXPECT_EQ(busy_popcount, total_path_vertices)
      << "busy bits leaked by a conflicting claim's back-off";

  // Counter bookkeeping across all workers.
  const auto stats = router.stats();
  EXPECT_EQ(stats.connect_calls, stats.accepted + stats.rejected_terminal +
                                     stats.rejected_no_path +
                                     stats.rejected_contention);
  EXPECT_EQ(stats.accepted - stats.disconnects, total_active);

  // Every disconnect must release its claims: drain to an all-idle network.
  for (unsigned t = 0; t < kThreads; ++t) {
    auto& worker = router.worker(t);
    for (const auto id : worker.active_call_ids()) worker.disconnect(id);
  }
  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v)
    EXPECT_FALSE(router.is_busy(v));
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(router.input_idle(i));
    EXPECT_TRUE(router.output_idle(i));
  }
}

TEST(Router, StatsMergeWithOperatorPlusEquals) {
  core::RouterStats a;
  a.connect_calls = 10;
  a.accepted = 7;
  a.claim_conflicts = 2;
  a.path_vertices = 70;
  core::RouterStats b;
  b.connect_calls = 5;
  b.accepted = 3;
  b.search_retries = 1;
  b.rejected_contention = 1;
  b.path_vertices = 30;
  core::RouterStats sum;
  sum += a;
  sum += b;
  EXPECT_EQ(sum.connect_calls, 15u);
  EXPECT_EQ(sum.accepted, 10u);
  EXPECT_EQ(sum.claim_conflicts, 2u);
  EXPECT_EQ(sum.search_retries, 1u);
  EXPECT_EQ(sum.rejected_contention, 1u);
  EXPECT_EQ(sum.path_vertices, 100u);
}

TEST(Router, BlockedVerticesNeverClaimed) {
  const auto net = networks::build_cantor({4, 0});
  // Block everything except terminals: every connect must fail cleanly.
  std::vector<std::uint8_t> blocked(net.g.vertex_count(), 1);
  for (const auto v : net.inputs) blocked[v] = 0;
  for (const auto v : net.outputs) blocked[v] = 0;
  core::Router router(net, 2, blocked);
  auto& worker = router.worker(0);
  EXPECT_EQ(worker.connect(0, 1), core::Router::kNoCall);
  EXPECT_EQ(worker.stats().rejected_no_path, 1u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  EXPECT_TRUE(router.input_idle(0));
  EXPECT_TRUE(router.output_idle(1));
}

// Regression: under the router's DIRTY busy snapshot a vertex
// can probe busy for one search direction and idle for the other (another
// worker released it in between). The search must never declare a meeting
// point through such a vertex using a parent left over from an EARLIER
// search — that chained meets through garbage (broken or cyclic "paths",
// the former SEGV in Worker::connect). Simulated deterministically with an
// adversarial busy view: every vertex reads busy on its first probe of a
// search and idle afterwards, maximizing first-probe/second-probe
// disagreement. Every returned meet must recover a real src..dst path.
TEST(Router, DirtyBusyViewNeverYieldsBrokenParentChains) {
  const auto net = networks::build_cantor({5, 0});
  const auto& g = net.g;
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  core::detail::SearchScratch scratch;
  scratch.init(g.vertex_count());
  std::vector<std::uint32_t> probe_epoch(g.vertex_count(), 0);
  std::uint32_t search_id = 0;
  std::uint64_t visited = 0;

  const auto has_edge = [&g](graph::VertexId from, graph::VertexId to) {
    for (const graph::VertexId t : g.out_targets(from))
      if (t == to) return true;
    return false;
  };

  util::Xoshiro256 rng(util::derive_seed(555, 1));
  for (int trial = 0; trial < 2000; ++trial) {
    const graph::VertexId src = net.inputs[rng.below(n)];
    const graph::VertexId dst = net.outputs[rng.below(n)];
    ++search_id;
    // Terminals always idle (connect() checks them upfront). A per-search
    // random quarter of the other vertices reads busy on its FIRST probe
    // and idle on any later probe — the two search directions disagree
    // about exactly those vertices, as they can under real concurrency.
    // (Flipping every vertex would kill both frontiers at level one and no
    // meeting point would ever form.)
    const auto flaky_busy = [&](graph::VertexId v) {
      if (v == src || v == dst) return false;
      std::uint64_t h = (static_cast<std::uint64_t>(search_id) << 32) | v;
      if (util::splitmix64(h) % 4 != 0) return false;  // stable this search
      if (probe_epoch[v] == search_id) return false;   // later probes: idle
      probe_epoch[v] = search_id;
      return true;  // first probe: busy
    };
    const graph::VertexId meet = core::detail::bidir_shortest_idle_path(
        g, src, dst, scratch, visited, flaky_busy,
        [](graph::EdgeId) { return false; });
    if (meet == graph::kNoVertex) continue;

    // Recover both halves exactly as Worker::connect does, bounded: a
    // sound chain reaches src/dst within vertex_count hops and every hop
    // is a real edge of the graph.
    std::vector<graph::VertexId> path;
    graph::VertexId v = meet;
    for (std::size_t hops = 0; v != graph::kNoVertex; ++hops) {
      ASSERT_LE(hops, g.vertex_count()) << "cyclic forward parent chain";
      path.push_back(v);
      const graph::VertexId p = scratch.parent_f[v];
      if (p != graph::kNoVertex) {
        ASSERT_TRUE(has_edge(p, v)) << "forward chain hop is not an edge";
      }
      v = p;
    }
    ASSERT_EQ(path.back(), src);
    v = meet;
    for (std::size_t hops = 0; v != dst; ++hops) {
      ASSERT_LE(hops, g.vertex_count()) << "cyclic backward parent chain";
      const graph::VertexId nxt = scratch.parent_b[v];
      ASSERT_NE(nxt, graph::kNoVertex) << "backward chain broke before dst";
      ASSERT_TRUE(has_edge(v, nxt)) << "backward chain hop is not an edge";
      v = nxt;
    }
  }
}

}  // namespace
}  // namespace ftcs
