// Locality-relabel (RelabelMode::kLocality) equivalence pins.
//
// finalize(kLocality) permutes vertex ids stage-major while preserving edge
// ids and per-vertex incidence order, so routing on the relabeled network
// must be the EXACT image of routing on the original under the permutation:
// same verdicts, same call slots, same books, paths equal after mapping
// through hot_of. The search expands frontiers in queue and incidence order,
// never in vertex-id order, so it is fully order-deterministic under the
// permutation. Welded (stuck-on) costs are discovery-order dependent, so
// those pins assert verdict parity only.
//
// Overlay pins rely on edge-id stability across the relabel: the same
// fail/contract schedule (by edge id) must hit the same switches on both.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ftcs/router.hpp"
#include "graph/digraph.hpp"
#include "networks/cantor.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

std::vector<graph::VertexId> map_path(const std::vector<graph::VertexId>& path,
                                      const std::vector<graph::VertexId>& hot_of) {
  std::vector<graph::VertexId> out;
  out.reserve(path.size());
  for (const auto v : path) out.push_back(hot_of[v]);
  return out;
}

/// Drives the same request trace through a router on the ORIGINAL network
/// and a router on its kLocality relabel. Verdicts and slots must always
/// agree, and the base path mapped through hot_of must equal the relabeled
/// path vertex for vertex.
template <class Session>
void run_relabel_trace(Session& base, Session& hot,
                       const std::vector<graph::VertexId>& hot_of,
                       std::uint32_t terminals, std::uint64_t seed,
                       std::size_t ops) {
  constexpr auto kNone = static_cast<std::uint32_t>(-1);
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> active_a, active_b;
  std::size_t accepted = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    if (!active_a.empty() && rng.below(4) == 0) {
      const auto idx = rng.below(active_a.size());
      base.disconnect(active_a[idx]);
      hot.disconnect(active_b[idx]);
      active_a[idx] = active_a.back();
      active_a.pop_back();
      active_b[idx] = active_b.back();
      active_b.pop_back();
      continue;
    }
    const auto in = static_cast<std::uint32_t>(rng.below(terminals));
    const auto out = static_cast<std::uint32_t>(rng.below(terminals));
    const auto ca = base.connect(in, out);
    const auto cb = hot.connect(in, out);
    ASSERT_EQ(ca == kNone, cb == kNone)
        << "relabel verdict divergence at op " << op;
    if (ca == kNone) continue;
    ASSERT_EQ(ca, cb) << "slot allocation divergence at op " << op;
    EXPECT_EQ(map_path(base.path_of(ca), hot_of), hot.path_of(cb))
        << "path is not the permutation image at op " << op;
    active_a.push_back(ca);
    active_b.push_back(cb);
    ++accepted;
  }
  ASSERT_GT(accepted, 0u);
}

/// Both routers run the SAME search on isomorphic graphs, so every counter
/// must match exactly.
void expect_same_books(const core::RouterStats& a, const core::RouterStats& b) {
  EXPECT_EQ(a.connect_calls, b.connect_calls);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected_terminal, b.rejected_terminal);
  EXPECT_EQ(a.rejected_no_path, b.rejected_no_path);
  EXPECT_EQ(a.rejected_contention, b.rejected_contention);
  EXPECT_EQ(a.disconnects, b.disconnects);
  EXPECT_EQ(a.vertices_visited, b.vertices_visited);
  EXPECT_EQ(a.path_vertices, b.path_vertices);
  EXPECT_EQ(a.bottom_up_levels, b.bottom_up_levels);
}

TEST(Relabel, LocalityPermutationIsBijective) {
  const auto base = networks::build_cantor({4, 0});
  const auto hot = graph::relabel_locality(base);
  const auto n = base.g.vertex_count();

  ASSERT_TRUE(hot.relabeled());
  ASSERT_EQ(hot.g.vertex_count(), n);
  ASSERT_EQ(hot.g.edge_count(), base.g.edge_count());
  ASSERT_EQ(hot.hot_of.size(), n);
  ASSERT_EQ(hot.cold_of.size(), n);
  EXPECT_TRUE(hot.validate().empty()) << hot.validate();
  EXPECT_EQ(hot.name, base.name);

  // hot_of and cold_of are mutually inverse bijections.
  std::vector<char> seen(n, 0);
  for (graph::VertexId v = 0; v < n; ++v) {
    const auto h = hot.hot_of[v];
    ASSERT_LT(h, n);
    ASSERT_FALSE(seen[h]) << "duplicate image " << h;
    seen[h] = 1;
    EXPECT_EQ(hot.cold_of[h], v);
  }

  // The BFS seeds are the inputs, in order: they take ids 0..n_in-1, so the
  // permutation is stage-major from the start — and, on cantor's copy-major
  // builder layout, necessarily not the identity.
  for (std::size_t i = 0; i < base.inputs.size(); ++i) {
    EXPECT_EQ(hot.hot_of[base.inputs[i]], static_cast<graph::VertexId>(i));
    EXPECT_EQ(hot.inputs[i], static_cast<graph::VertexId>(i));
  }
  bool identity = true;
  for (graph::VertexId v = 0; v < n && identity; ++v)
    identity = hot.hot_of[v] == v;
  EXPECT_FALSE(identity);

  // Stage labels rode along with their vertices.
  ASSERT_EQ(hot.stage.size(), base.stage.size());
  for (graph::VertexId v = 0; v < n; ++v)
    EXPECT_EQ(hot.stage[hot.hot_of[v]], base.stage[v]);
}

TEST(Relabel, CsrIsExactImageWithStableEdgeIds) {
  const auto base = networks::build_cantor({3, 0});
  const auto hot = graph::relabel_locality(base);
  const auto n = base.g.vertex_count();

  for (graph::EdgeId e = 0; e < base.g.edge_count(); ++e) {
    EXPECT_EQ(hot.g.edge(e).from, hot.hot_of[base.g.edge(e).from]);
    EXPECT_EQ(hot.g.edge(e).to, hot.hot_of[base.g.edge(e).to]);
  }
  for (graph::VertexId v = 0; v < n; ++v) {
    const auto h = hot.hot_of[v];
    // Incidence lists carry the SAME edge ids in the SAME order...
    const auto oe_b = base.g.out_edges(v);
    const auto oe_h = hot.g.out_edges(h);
    ASSERT_EQ(std::vector<graph::EdgeId>(oe_b.begin(), oe_b.end()),
              std::vector<graph::EdgeId>(oe_h.begin(), oe_h.end()));
    const auto ie_b = base.g.in_edges(v);
    const auto ie_h = hot.g.in_edges(h);
    ASSERT_EQ(std::vector<graph::EdgeId>(ie_b.begin(), ie_b.end()),
              std::vector<graph::EdgeId>(ie_h.begin(), ie_h.end()));
    // ...and the neighbor arrays are the permutation image elementwise.
    const auto ot_b = base.g.out_targets(v);
    const auto ot_h = hot.g.out_targets(h);
    ASSERT_EQ(ot_b.size(), ot_h.size());
    for (std::size_t i = 0; i < ot_b.size(); ++i)
      EXPECT_EQ(ot_h[i], hot.hot_of[ot_b[i]]);
    const auto is_b = base.g.in_sources(v);
    const auto is_h = hot.g.in_sources(h);
    ASSERT_EQ(is_b.size(), is_h.size());
    for (std::size_t i = 0; i < is_b.size(); ++i)
      EXPECT_EQ(is_h[i], hot.hot_of[is_b[i]]);
  }
}

TEST(Relabel, OneSessionChurnIsExactImage) {
  const auto base = networks::build_cantor({4, 0});
  const auto hot = graph::relabel_locality(base);
  core::Router a(base, 1);
  core::Router b(hot, 1);
  run_relabel_trace(a.worker(0), b.worker(0), hot.hot_of,
                    static_cast<std::uint32_t>(base.inputs.size()), 7321, 800);
  expect_same_books(a.stats(), b.stats());
  EXPECT_EQ(a.busy_vertices(), b.busy_vertices());
}

TEST(Relabel, DegradedOverlayChurnIsExactImage) {
  const auto base = networks::build_cantor({4, 0});
  const auto hot = graph::relabel_locality(base);
  core::Router a(base, 1);
  core::Router b(hot, 1);
  // Same fail schedule BY EDGE ID on both sides: ids are relabel-stable.
  for (graph::EdgeId e = 3; e < base.g.edge_count(); e += 17) {
    a.fail_edge(e);
    b.fail_edge(e);
  }
  run_relabel_trace(a.worker(0), b.worker(0), hot.hot_of,
                    static_cast<std::uint32_t>(base.inputs.size()), 4711, 800);
  expect_same_books(a.stats(), b.stats());
}

TEST(Relabel, WeldedOverlayKeepsVerdictParity) {
  const auto base = networks::build_cantor({4, 0});
  const auto hot = graph::relabel_locality(base);
  core::Router a(base, 1);
  core::Router b(hot, 1);
  auto& wa = a.worker(0);
  auto& wb = b.worker(0);
  for (graph::EdgeId e = 5; e < base.g.edge_count(); e += 29) {
    a.contract_edge(e);
    b.contract_edge(e);
  }
  const auto n = static_cast<std::uint32_t>(base.inputs.size());
  util::Xoshiro256 rng(99);
  std::size_t routed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    const auto ca = wa.connect(in, out);
    const auto cb = wb.connect(in, out);
    ASSERT_EQ(ca == core::Router::kNoCall, cb == core::Router::kNoCall)
        << "welded verdict divergence at trial " << trial;
    if (ca == core::Router::kNoCall) continue;
    wa.disconnect(ca);
    wb.disconnect(cb);
    ++routed;
  }
  ASSERT_GT(routed, 0u);
  EXPECT_EQ(a.busy_vertices(), 0u);
  EXPECT_EQ(b.busy_vertices(), 0u);
}

// ---------------------------------------------------------------------------
// Service-plane pins: the whole Exchange surface addresses terminals by
// index, so a relabeled network must be a drop-in replacement — including
// the batched drain and the fault plane (events address switches by edge
// id).
// ---------------------------------------------------------------------------

TEST(Relabel, ExchangeDrainOutcomesMatch) {
  const auto base = networks::build_cantor({4, 0});
  const auto hot = graph::relabel_locality(base);
  const auto n = static_cast<std::uint32_t>(base.inputs.size());

  const auto make = [](const graph::Network& net) {
    svc::ExchangeConfig cfg;
    cfg.sessions = 1;  // deterministic drain order
    return std::make_unique<svc::Exchange>(net, std::move(cfg));
  };
  auto ex_a = make(base);
  auto ex_b = make(hot);

  util::Xoshiro256 rng(2026);
  std::vector<svc::Ticket> ta, tb;
  for (int i = 0; i < 200; ++i) {
    svc::CallRequest req;
    req.input = static_cast<std::uint32_t>(rng.below(n));
    req.output = static_cast<std::uint32_t>(rng.below(n));
    req.tag = static_cast<std::uint64_t>(i);
    ta.push_back(ex_a->submit(req));
    tb.push_back(ex_b->submit(req));
  }
  ASSERT_GT(ex_a->drain_all(), 0u);
  ASSERT_GT(ex_b->drain_all(), 0u);

  std::vector<svc::CallId> live_a, live_b;
  std::size_t connected = 0;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    const auto oa = ex_a->poll(ta[i]);
    const auto ob = ex_b->poll(tb[i]);
    ASSERT_TRUE(oa.has_value());
    ASSERT_TRUE(ob.has_value());
    EXPECT_EQ(oa->reject, ob->reject) << "outcome divergence at request " << i;
    EXPECT_EQ(oa->path_length, ob->path_length);
    EXPECT_EQ(oa->tag, ob->tag);
    if (oa->connected() && ob->connected()) {
      // The relabeled call's path is the permutation image of the base one.
      EXPECT_EQ(map_path(ex_a->path_of(oa->id), hot.hot_of),
                ex_b->path_of(ob->id));
      live_a.push_back(oa->id);
      live_b.push_back(ob->id);
      ++connected;
    }
  }
  ASSERT_GT(connected, 0u);

  // Fault plane: kill the same switch (by id) on both; the same calls die
  // and the same reroutes succeed.
  fault::FaultEvent ev;
  ev.edge = 7;
  ev.kind = fault::FaultEvent::Kind::kFail;
  const auto ia = ex_a->inject(ev);
  const auto ib = ex_b->inject(ev);
  EXPECT_EQ(ia.calls_killed(), ib.calls_killed());
  EXPECT_EQ(ia.reroute_succeeded, ib.reroute_succeeded);
  EXPECT_EQ(ia.reroute_failed, ib.reroute_failed);
  EXPECT_EQ(ex_a->active_calls(), ex_b->active_calls());
  EXPECT_EQ(ex_a->busy_vertices(), ex_b->busy_vertices());

  // Hangups on handles the fault plane retired ack as kFaulted on both.
  for (std::size_t i = 0; i < live_a.size(); ++i)
    EXPECT_EQ(ex_a->hangup(live_a[i]), ex_b->hangup(live_b[i]));
}

}  // namespace
}  // namespace ftcs
