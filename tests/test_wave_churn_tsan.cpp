// Connect churn under real contention AND a racing fault plane. Four
// concurrent workers route windows of per-request connects and churn them
// back out while a fifth thread flips switches open-failed/repaired and
// welded/un-welded (the connect-safe overlay subset — kill_vertex needs
// quiescence and is exercised by the Exchange fault-plane tests). Run under
// TSan in CI (this file carries the `tsan` ctest label via FTCS_TSAN_TESTS),
// this is the data-race proof of the claim path against non-monotone flips:
// terminal CAS holds, the holder-map defer discipline, and the dirty overlay
// snapshots taken per search.
//
// Live calls are left connected at the end so the quiescent sweep audits
// real claims: no vertex on two active paths, every path vertex busy, busy
// accounting balanced against the settled path lengths, the verdict counters
// partitioning connect_calls, and a full drain returning all-idle.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "ftcs/router.hpp"
#include "networks/cantor.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

/// First edge id from u to v (sentinel: edge_count).
graph::EdgeId edge_between(const graph::CsrGraph& g, graph::VertexId u,
                           graph::VertexId v) {
  const auto eids = g.out_edges(u);
  const auto tgts = g.out_targets(u);
  for (std::size_t i = 0; i < eids.size(); ++i)
    if (tgts[i] == v) return eids[i];
  return static_cast<graph::EdgeId>(g.edge_count());
}

TEST(ConnectChurn, FlipsRacingConnectsKeepClaimInvariants) {
  const auto net = networks::build_cantor({5, 0});
  constexpr unsigned kWorkers = 4;
  constexpr std::size_t kWindows = 250;
  constexpr std::size_t kWindow = 8;
  core::Router router(net, kWorkers);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());

  // Disjoint flip sets off a probe's paths: first hops flip open/repaired,
  // second hops flip welded/un-welded.
  std::vector<graph::EdgeId> doomed, welded;
  {
    core::Router probe(net, 1);
    auto& probe_s = probe.worker(0);
    for (std::uint32_t i = 0; i + 1 < n; i += 2) {
      const auto c = probe_s.connect(i, i + 1);
      if (c == core::Router::kNoCall) continue;
      const auto path = probe_s.path_of(c);
      if (path.size() >= 3) {
        doomed.push_back(edge_between(net.g, path[0], path[1]));
        welded.push_back(edge_between(net.g, path[1], path[2]));
      }
      probe_s.disconnect(c);
    }
  }
  ASSERT_FALSE(doomed.empty());
  ASSERT_FALSE(welded.empty());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWorkers + 1);
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      auto& w = router.worker(t);
      util::Xoshiro256 rng(util::derive_seed(1291, t));
      std::vector<core::Router::CallId> mine;
      for (std::size_t window = 0; window < kWindows; ++window) {
        for (std::size_t k = 0; k < kWindow; ++k) {
          const auto in = static_cast<std::uint32_t>(rng.below(n));
          const auto out = static_cast<std::uint32_t>(rng.below(n));
          const auto call = w.connect(in, out);
          if (call == core::Router::kNoCall) continue;
          EXPECT_EQ(w.path_of(call).size(), w.path_length(call));
          mine.push_back(call);
        }
        // Churn some calls back out so slots and vertices recycle under
        // the racing flips.
        for (std::size_t k = 0; k < mine.size();) {
          if (rng.below(3) == 0) {
            w.disconnect(mine[k]);
            mine[k] = mine.back();
            mine.pop_back();
          } else {
            ++k;
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto e : doomed) router.fail_edge(e);
      std::this_thread::yield();
      for (const auto e : welded) router.contract_edge(e);
      std::this_thread::yield();
      for (const auto e : doomed) router.repair_edge(e);
      for (const auto e : welded) router.uncontract_edge(e);
      std::this_thread::yield();
    }
  });
  for (unsigned t = 0; t < kWorkers; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  std::vector<int> owner(net.g.vertex_count(), -1);
  std::size_t total_path_vertices = 0;
  std::size_t total_active = 0;
  for (unsigned t = 0; t < kWorkers; ++t) {
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
  ASSERT_GT(total_active, 0u);
  EXPECT_EQ(router.active_calls(), total_active);
  EXPECT_EQ(router.busy_vertices(), total_path_vertices);

  const auto stats = router.stats();
  EXPECT_EQ(stats.connect_calls, stats.accepted + stats.rejected_terminal +
                                     stats.rejected_no_path +
                                     stats.rejected_contention);
  EXPECT_EQ(stats.accepted - stats.disconnects, total_active);

  for (unsigned t = 0; t < kWorkers; ++t) {
    auto& worker = router.worker(t);
    for (const auto id : worker.active_call_ids()) worker.disconnect(id);
  }
  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
}

}  // namespace
}  // namespace ftcs
