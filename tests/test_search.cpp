// Single-pair search kernel (ftcs/search.hpp) pins.
//
//  - Early-exit path identity: the contraction-free kernel returns at its
//    first final meet instead of finishing the level. Seeded idle-pair
//    churn on 𝒩̂, cantor-k5 and cantor-k7, healthy and with open-failed
//    switches, compares every settled path with a test-local full-level
//    bidirectional BFS (same expansion order and tie-breaks, no exit):
//    paths and verdicts of a 1-session core::Router must be identical to
//    it, and the kernel must visit fewer vertices.
//  - Welded path identity: with stuck-on switches live, the kernel gates
//    the weld work per weld-incident vertex and exits once no free hop is
//    left in the level. The same checked churn on 𝒩̂ and cantor-k7, with
//    sparse and dense welds plus open failures, compares every settled
//    path with a test-local copy of the full-level welded body (reverse
//    scans at every vertex, no exit); sparse welds must cost fewer visits.
//    The weld map must follow hitless growth, under the identity and the
//    locality vmap.
//  - Welds: the kernel crosses welds as free hops in both directions
//    (including reverse conduction against the edge direction) and settles
//    electrically sound paths.
//  - Degraded overlay: with failed switches and random (busy-terminal)
//    requests, every verdict and path matches the reference and the books
//    partition the connects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "ftcs/ft_network.hpp"
#include "ftcs/params.hpp"
#include "ftcs/router.hpp"
#include "ftcs/search.hpp"
#include "graph/digraph.hpp"
#include "networks/cantor.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

constexpr auto kNone = graph::kNoVertex;

struct RefResult {
  std::vector<graph::VertexId> path;  // empty = no idle path
  std::uint64_t visits = 0;           // stamps, seeds excluded
};

/// Full-level bidirectional BFS over idle vertices: the kernel's expansion
/// order (smaller frontier first, CSR edge order) and meet rules, but every
/// level runs to its end before the termination test.
RefResult reference_search(const graph::CsrGraph& g, graph::VertexId src,
                           graph::VertexId dst,
                           const std::vector<std::uint8_t>& busy,
                           const core::Router& router) {
  RefResult r;
  if (busy[src] || busy[dst]) return r;
  struct Side {
    std::vector<std::uint8_t> seen;
    std::vector<graph::VertexId> parent;
    std::vector<std::uint32_t> dist;
    std::vector<graph::VertexId> front;
    graph::VertexId seed;
    std::uint32_t depth = 0;
    bool idle(graph::VertexId v) const {  // stamped with a usable chain
      return seen[v] && (parent[v] != kNone || v == seed);
    }
  };
  const std::size_t n = g.vertex_count();
  Side f{std::vector<std::uint8_t>(n), std::vector<graph::VertexId>(n, kNone),
         std::vector<std::uint32_t>(n), {src}, src};
  Side b{std::vector<std::uint8_t>(n), std::vector<graph::VertexId>(n, kNone),
         std::vector<std::uint32_t>(n), {dst}, dst};
  f.seen[src] = b.seen[dst] = 1;
  graph::VertexId meet = kNone;
  std::uint32_t best = kNone;
  while (!f.front.empty() && !b.front.empty() &&
         best > f.depth + b.depth + 1) {
    const bool fwd = f.front.size() <= b.front.size();
    Side& me = fwd ? f : b;
    const Side& other = fwd ? b : f;
    std::vector<graph::VertexId> next;
    for (const graph::VertexId u : me.front) {
      const auto eids = fwd ? g.out_edges(u) : g.in_edges(u);
      const auto nbrs = fwd ? g.out_targets(u) : g.in_sources(u);
      for (std::size_t i = 0; i < eids.size(); ++i) {
        const graph::VertexId v = nbrs[i];
        if (!router.edge_usable(eids[i]) || me.seen[v]) continue;
        me.seen[v] = 1;
        ++r.visits;
        if (busy[v]) continue;
        me.parent[v] = u;
        me.dist[v] = me.depth + 1;
        if (other.idle(v)) {
          if (me.dist[v] + other.dist[v] < best) {
            best = me.dist[v] + other.dist[v];
            meet = v;
          }
        } else {
          next.push_back(v);
        }
      }
    }
    me.front = std::move(next);
    ++me.depth;
  }
  if (meet == kNone) return r;
  for (graph::VertexId v = meet; v != kNone; v = f.parent[v])
    r.path.insert(r.path.begin(), v);
  for (graph::VertexId v = meet; v != dst;) r.path.push_back(v = b.parent[v]);
  return r;
}

/// The full-level welded search: the contraction body of the kernel as it
/// was before the per-vertex weld gate and the welded early exit, with the
/// compile-time branch folded. Every expanded vertex scans its reverse
/// edges for welds and every level runs to its end. `r` supplies the busy
/// mask and the overlay.
template <class Router>
RefResult welded_reference(const graph::CsrGraph& g, graph::VertexId src,
                           graph::VertexId dst, const Router& r,
                           core::detail::SearchScratch& s) {
  RefResult res;
  if (r.is_busy(src) || r.is_busy(dst)) return res;
  const auto is_busy = [&r](graph::VertexId v) { return r.is_busy(v); };
  const auto edge_blocked = [&r](graph::EdgeId e) {
    return !r.edge_usable(e);
  };
  const auto edge_contracted = [&r](graph::EdgeId e) {
    return r.edge_contracted(e);
  };
  std::uint64_t& visited = res.visits;
  if (++s.epoch == 0) {
    std::fill(s.epoch_f.begin(), s.epoch_f.end(), 0u);
    std::fill(s.epoch_b.begin(), s.epoch_b.end(), 0u);
    s.epoch = 1;
  }
  graph::VertexId best_meet = kNone;
  std::uint32_t best_total = kNone;
  s.epoch_f[src] = s.epoch;
  s.parent_f[src] = kNone;
  s.dist_f[src] = 0;
  s.epoch_b[dst] = s.epoch;
  s.parent_b[dst] = kNone;
  s.dist_b[dst] = 0;
  std::size_t fh = 0, ft = 0, bh = 0, bt = 0;
  s.queue_f[ft++] = src;
  s.queue_b[bt++] = dst;
  std::size_t flevel = 1, blevel = 1;
  std::uint32_t df = 0, db = 0;

  while (flevel > 0 && blevel > 0 && best_total > df + db + 1) {
    if (flevel <= blevel) {
      std::size_t next_level = 0;
      std::size_t zt = 0;
      const auto visit_f = [&](graph::VertexId v, graph::VertexId u,
                               bool free) {
        if (s.epoch_f[v] == s.epoch) return;
        s.epoch_f[v] = s.epoch;
        ++visited;
        if (is_busy(v)) {
          s.parent_f[v] = kNone;
          return;
        }
        s.parent_f[v] = u;
        const std::uint32_t dv = free ? df : df + 1;
        s.dist_f[v] = dv;
        if (s.epoch_b[v] == s.epoch && s.parent_b[v] != kNone) {
          const std::uint32_t total = dv + s.dist_b[v];
          if (total < best_total) {
            best_total = total;
            best_meet = v;
          }
          return;
        }
        if (v == dst) {
          if (dv < best_total) {
            best_total = dv;
            best_meet = v;
          }
          return;
        }
        if (free) {
          s.zero_f[zt++] = v;
        } else {
          s.queue_f[ft++] = v;
          ++next_level;
        }
      };
      std::size_t n = 0;
      for (;;) {
        graph::VertexId u;
        if (n < flevel) {
          u = s.queue_f[fh++];
          ++n;
        } else if (zt > 0) {
          u = s.zero_f[--zt];
        } else {
          break;
        }
        const auto eids = g.out_edges(u);
        const auto tgts = g.out_targets(u);
        for (std::size_t i = 0; i < eids.size(); ++i) {
          if (edge_blocked(eids[i])) continue;
          visit_f(tgts[i], u, edge_contracted(eids[i]));
        }
        const auto reids = g.in_edges(u);
        const auto rsrcs = g.in_sources(u);
        for (std::size_t i = 0; i < reids.size(); ++i) {
          if (!edge_contracted(reids[i]) || edge_blocked(reids[i])) continue;
          visit_f(rsrcs[i], u, true);
        }
      }
      flevel = next_level;
      ++df;
    } else {
      std::size_t next_level = 0;
      std::size_t zt = 0;
      const auto visit_b = [&](graph::VertexId v, graph::VertexId u,
                               bool free) {
        if (s.epoch_b[v] == s.epoch) return;
        s.epoch_b[v] = s.epoch;
        ++visited;
        if (is_busy(v)) {
          s.parent_b[v] = kNone;
          return;
        }
        s.parent_b[v] = u;
        const std::uint32_t dv = free ? db : db + 1;
        s.dist_b[v] = dv;
        if (s.epoch_f[v] == s.epoch &&
            (s.parent_f[v] != kNone || v == src)) {
          const std::uint32_t total = s.dist_f[v] + dv;
          if (total < best_total) {
            best_total = total;
            best_meet = v;
          }
          return;
        }
        if (free) {
          s.zero_b[zt++] = v;
        } else {
          s.queue_b[bt++] = v;
          ++next_level;
        }
      };
      std::size_t n = 0;
      for (;;) {
        graph::VertexId u;
        if (n < blevel) {
          u = s.queue_b[bh++];
          ++n;
        } else if (zt > 0) {
          u = s.zero_b[--zt];
        } else {
          break;
        }
        const auto eids = g.in_edges(u);
        const auto srcs = g.in_sources(u);
        for (std::size_t i = 0; i < eids.size(); ++i) {
          if (edge_blocked(eids[i])) continue;
          visit_b(srcs[i], u, edge_contracted(eids[i]));
        }
        const auto reids = g.out_edges(u);
        const auto rtgts = g.out_targets(u);
        for (std::size_t i = 0; i < reids.size(); ++i) {
          if (!edge_contracted(reids[i]) || edge_blocked(reids[i])) continue;
          visit_b(rtgts[i], u, true);
        }
      }
      blevel = next_level;
      ++db;
    }
  }
  if (best_meet == kNone) return res;
  for (graph::VertexId v = best_meet; v != kNone; v = s.parent_f[v])
    res.path.insert(res.path.begin(), v);
  for (graph::VertexId v = best_meet; v != dst;)
    res.path.push_back(v = s.parent_b[v]);
  return res;
}

struct Churn {
  std::vector<core::Router::CallId> active;
  std::uint64_t ref_visits = 0;  // the reference's visits, summed
  std::size_t compared = 0;      // settled paths checked
  std::size_t welded = 0;        // ...of which cross a stuck-on switch
};

/// Does `path` cross a stuck-on switch (either direction)?
bool crosses_weld(const core::Router& r, const graph::CsrGraph& g,
                  const std::vector<graph::VertexId>& path) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    for (const auto& [a, b] : {std::pair{path[i], path[i + 1]},
                               std::pair{path[i + 1], path[i]}}) {
      const auto eids = g.out_edges(a);
      const auto tgts = g.out_targets(a);
      for (std::size_t k = 0; k < eids.size(); ++k)
        if (tgts[k] == b && r.edge_usable(eids[k]) &&
            r.edge_contracted(eids[k]))
          return true;
    }
  }
  return false;
}

/// Idle-pair churn (both terminals idle on every connect, occupancy capped
/// at 80%) through a 1-session router. `reference(in, out)` runs before
/// each connect on the router's state; verdict and path must match it, and
/// the kernel may not visit more vertices than it. Calls left in
/// `churn.active` stay live.
template <class Reference>
void checked_churn(const graph::Network& net, core::Router& router,
                   util::Xoshiro256& rng, std::size_t ops,
                   Reference&& reference, Churn& churn) {
  auto& session = router.worker(0);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  auto& active = churn.active;
  for (std::size_t op = 0; op < ops; ++op) {
    if (!active.empty() &&
        (active.size() * 5 >= std::size_t{n} * 4 || rng.below(2) == 0)) {
      const auto idx = rng.below(active.size());
      session.disconnect(active[idx]);
      active[idx] = active.back();
      active.pop_back();
      continue;
    }
    std::uint32_t in, out;
    do in = static_cast<std::uint32_t>(rng.below(n));
    while (!router.input_idle(in));
    do out = static_cast<std::uint32_t>(rng.below(n));
    while (!router.output_idle(out));
    const RefResult ref = reference(in, out);
    const std::uint64_t visits_before = session.stats().vertices_visited;
    const auto call = session.connect(in, out);
    ASSERT_EQ(call == core::Router::kNoCall, ref.path.empty())
        << "verdict differs from the full-level reference at op " << op;
    EXPECT_LE(session.stats().vertices_visited - visits_before, ref.visits);
    churn.ref_visits += ref.visits;
    if (call == core::Router::kNoCall) continue;
    const auto path = session.path_of(call);
    ASSERT_EQ(path, ref.path) << "path differs from the reference at op " << op;
    active.push_back(call);
    ++churn.compared;
    churn.welded += crosses_weld(router, net.g, path);
  }
}

/// Weld-free churn with `faults` seeded open-failed switches, checked
/// against the full-level reference_search.
void expect_early_exit_matches_reference(const graph::Network& net,
                                         std::size_t faults,
                                         std::uint64_t seed,
                                         std::size_t ops) {
  core::Router router(net, 1);
  util::Xoshiro256 rng(seed);
  for (std::size_t k = 0; k < faults; ++k)
    router.fail_edge(static_cast<graph::EdgeId>(rng.below(net.g.edge_count())));
  Churn churn;
  checked_churn(net, router, rng, ops,
                [&](std::uint32_t in, std::uint32_t out) {
                  return reference_search(net.g, net.inputs[in],
                                          net.outputs[out], router.busy_mask(),
                                          router);
                },
                churn);
  EXPECT_GT(churn.compared, ops / 4);
  // The exit skips the rest of the meeting level: ~37% fewer visits on 𝒩̂,
  // ~25% on Cantor.
  EXPECT_LT(router.stats().vertices_visited, churn.ref_visits);
  EXPECT_EQ(router.stats().accepted, churn.active.size() +
                                         router.stats().disconnects);
}

TEST(SearchEarlyExit, NhatSettlesFullLevelReferencePaths) {
  const auto ft = core::build_ft_network(core::FtParams::sim(3, 8, 6, 1, 3));
  expect_early_exit_matches_reference(ft.net, 0, 11, 4000);
  expect_early_exit_matches_reference(ft.net, 40, 12, 4000);
}

TEST(SearchEarlyExit, CantorK5SettlesFullLevelReferencePaths) {
  const auto net = networks::build_cantor({5, 0});
  expect_early_exit_matches_reference(net, 0, 21, 4000);
  expect_early_exit_matches_reference(net, 40, 22, 4000);
}

TEST(SearchEarlyExit, CantorK7SettlesFullLevelReferencePaths) {
  const auto net = networks::build_cantor({7, 0});
  expect_early_exit_matches_reference(net, 0, 31, 3000);
  expect_early_exit_matches_reference(net, 40, 32, 3000);
}

// ---------------------------------------------------------------------------
// Welded path identity.
// ---------------------------------------------------------------------------

/// Seeds `welds` stuck-on and `opens` open-failed switches.
void seed_faults(const graph::Network& net, core::Router& router,
                 util::Xoshiro256& rng, std::size_t welds, std::size_t opens) {
  const auto pick = [&] {
    return static_cast<graph::EdgeId>(rng.below(net.g.edge_count()));
  };
  for (std::size_t k = 0; k < welds; ++k) router.contract_edge(pick());
  for (std::size_t k = 0; k < opens; ++k) router.fail_edge(pick());
}

/// Welded churn, checked against the full-level welded body. Returns the
/// churn tally; the visit comparison is the caller's.
Churn welded_churn(const graph::Network& net, std::size_t welds,
                   std::size_t opens, std::uint64_t seed, std::size_t ops,
                   core::Router& router) {
  util::Xoshiro256 rng(seed);
  seed_faults(net, router, rng, welds, opens);
  core::detail::SearchScratch scratch;
  scratch.init(net.g.vertex_count());
  Churn churn;
  checked_churn(net, router, rng, ops,
                [&](std::uint32_t in, std::uint32_t out) {
                  return welded_reference(net.g, net.inputs[in],
                                          net.outputs[out], router, scratch);
                },
                churn);
  EXPECT_GT(churn.compared, ops / 4);
  return churn;
}

/// Sparse welds (the storm's ~14 live welds plus its open failures): the
/// gate and the exit must cut visits. Dense welds: paths must still match
/// and many of them must cross a weld.
void expect_welded_matches_reference(const graph::Network& net,
                                     std::uint64_t seed, std::size_t ops) {
  {
    core::Router router(net, 1);
    const Churn sparse = welded_churn(net, 14, 33, seed, ops, router);
    EXPECT_LT(router.stats().vertices_visited, sparse.ref_visits);
  }
  {
    core::Router router(net, 1);
    const Churn dense = welded_churn(net, 200, 33, seed + 1, ops, router);
    EXPECT_LE(router.stats().vertices_visited, dense.ref_visits);
    EXPECT_GT(dense.welded, 0u);
  }
}

TEST(SearchWeldedExit, NhatSettlesFullLevelWeldedPaths) {
  const auto ft = core::build_ft_network(core::FtParams::sim(3, 8, 6, 1, 3));
  expect_welded_matches_reference(ft.net, 41, 1500);
}

TEST(SearchWeldedExit, CantorK7SettlesFullLevelWeldedPaths) {
  const auto net = networks::build_cantor({7, 0});
  expect_welded_matches_reference(net, 51, 1500);
}

TEST(SearchWeldedExit, WeldMapFollowsGrowth) {
  // Live welds and calls ride across grow(). The weld map must be the
  // endpoints of the carried (and later) welds in the grown id space, and
  // every later connect must settle the full-level welded body's path on
  // the grown router's own state.
  for (const auto relabel :
       {graph::RelabelMode::kNone, graph::RelabelMode::kLocality}) {
    SCOPED_TRACE(graph::to_string(relabel));
    const auto base = networks::build_cantor({5, 0});
    const graph::GrownNetwork grown =
        networks::grow_cantor(base, {5, 0}, {relabel});
    core::Router router(base, 1);
    util::Xoshiro256 rng(61);
    seed_faults(base, router, rng, 120, 10);
    core::detail::SearchScratch scratch;
    scratch.init(base.g.vertex_count());
    Churn churn;
    checked_churn(base, router, rng, 300,
                  [&](std::uint32_t in, std::uint32_t out) {
                    return welded_reference(base.g, base.inputs[in],
                                            base.outputs[out], router,
                                            scratch);
                  },
                  churn);
    ASSERT_FALSE(churn.active.empty());

    router.grow(grown.net, grown.vmap);
    // More welds, now over the grown switch set (appended ids included).
    seed_faults(grown.net, router, rng, 120, 0);
    const graph::CsrGraph& g = grown.net.g;
    std::vector<std::uint8_t> welded(g.vertex_count(), 0);
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      if (!router.edge_contracted(e)) continue;
      welded[g.edge(e).from] = welded[g.edge(e).to] = 1;
    }
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      ASSERT_EQ(router.vertex_welded(v), welded[v] != 0) << "vertex " << v;

    scratch.init(g.vertex_count());
    const std::size_t before = churn.welded;
    checked_churn(grown.net, router, rng, 600,
                  [&](std::uint32_t in, std::uint32_t out) {
                    return welded_reference(g, grown.net.inputs[in],
                                            grown.net.outputs[out], router,
                                            scratch);
                  },
                  churn);
    EXPECT_GT(churn.welded, before);
    std::size_t live_vertices = 0;
    for (const auto call : churn.active)
      live_vertices += router.worker(0).path_length(call);
    EXPECT_EQ(router.busy_vertices(), live_vertices);
  }
}

// ---------------------------------------------------------------------------
// Welds and degraded overlays.
// ---------------------------------------------------------------------------

/// Is u -> v traversable for a settled path: a usable forward switch, or a
/// usable stuck-on (welded) switch v -> u conducting in reverse.
template <class Router>
bool hop_ok(const Router& r, const graph::CsrGraph& g, graph::VertexId u,
            graph::VertexId v) {
  {
    const auto eids = g.out_edges(u);
    const auto tgts = g.out_targets(u);
    for (std::size_t i = 0; i < eids.size(); ++i)
      if (tgts[i] == v && r.edge_usable(eids[i])) return true;
  }
  const auto eids = g.out_edges(v);
  const auto tgts = g.out_targets(v);
  for (std::size_t i = 0; i < eids.size(); ++i)
    if (tgts[i] == u && r.edge_usable(eids[i]) && r.edge_contracted(eids[i]))
      return true;
  return false;
}

template <class Router>
void expect_valid_path(const Router& r, const graph::CsrGraph& g,
                       const std::vector<graph::VertexId>& path) {
  ASSERT_GE(path.size(), 2u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    EXPECT_TRUE(hop_ok(r, g, path[i], path[i + 1]))
        << "hop " << path[i] << " -> " << path[i + 1] << " is not an edge";
}

/// Fan-out star with a weldable reverse conductor:
///   in -> hub -> mid[0..mids) -> join -> out,  back -> hub,  back -> join.
struct Star {
  graph::Network net;
  graph::VertexId in, hub, join, out, back;
  graph::EdgeId back_to_hub;
};

Star build_star(std::size_t mids) {
  graph::NetworkBuilder nb;
  Star s;
  s.in = nb.g.add_vertex();
  s.hub = nb.g.add_vertex();
  std::vector<graph::VertexId> mid(mids);
  for (auto& m : mid) m = nb.g.add_vertex();
  s.join = nb.g.add_vertex();
  s.out = nb.g.add_vertex();
  nb.g.add_edge(s.in, s.hub);
  for (const auto m : mid) nb.g.add_edge(s.hub, m);
  for (const auto m : mid) nb.g.add_edge(m, s.join);
  nb.g.add_edge(s.join, s.out);
  s.back = nb.g.add_vertex();
  s.back_to_hub = nb.g.add_edge(s.back, s.hub);  // points AWAY from out
  nb.g.add_edge(s.back, s.join);
  nb.inputs = {s.in};
  nb.outputs = {s.out};
  nb.name = "fanout-star";
  s.net = nb.finalize();
  return s;
}

TEST(SearchWelds, StarReverseConductionWeld) {
  // Weld back->hub shut: it conducts both ways for free, so the cheapest
  // route is in, hub, back, join, out (2 unit hops + the weld + join->out),
  // and `back` is only reachable from hub against the edge direction.
  const auto star = build_star(256);
  const std::vector<graph::VertexId> via_weld = {star.in, star.hub, star.back,
                                                 star.join, star.out};
  core::Router router(star.net, 1);
  router.contract_edge(star.back_to_hub);
  auto& w = router.worker(0);
  const auto cc = w.connect(0, 0);
  ASSERT_NE(cc, core::Router::kNoCall);
  expect_valid_path(router, star.net.g, w.path_of(cc));
  EXPECT_EQ(w.path_of(cc), via_weld);
  w.disconnect(cc);
  EXPECT_EQ(router.busy_vertices(), 0u);
}

TEST(SearchWelds, WeldedTraceMatchesReference) {
  // Stateless welded trace on cantor: route one pair at a time (connect,
  // check, disconnect) with a handful of switches stuck on. Verdicts and
  // paths must equal the full-level welded body's, and every settled path
  // must be electrically sound hop by hop.
  const auto net = networks::build_cantor({4, 0});
  core::Router router(net, 1);
  auto& w = router.worker(0);
  for (graph::EdgeId e = 5; e < net.g.edge_count(); e += 29)
    router.contract_edge(e);
  core::detail::SearchScratch scratch;
  scratch.init(net.g.vertex_count());
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(99);
  std::size_t routed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    const RefResult ref = welded_reference(net.g, net.inputs[in],
                                           net.outputs[out], router, scratch);
    const auto c = w.connect(in, out);
    ASSERT_EQ(c == core::Router::kNoCall, ref.path.empty())
        << "welded verdict divergence at trial " << trial;
    if (c == core::Router::kNoCall) continue;
    expect_valid_path(router, net.g, w.path_of(c));
    EXPECT_EQ(w.path_of(c), ref.path);
    w.disconnect(c);
    ++routed;
  }
  ASSERT_GT(routed, 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
}

TEST(SearchOverlay, DegradedOverlayMatchesReference) {
  // Random (not idle-pair) requests over a deterministic spread of failed
  // switches: terminal rejects, no-path rejects and accepts must all match
  // the full-level reference, and the books must partition the connects.
  const auto net = networks::build_cantor({4, 0});
  core::Router router(net, 1);
  auto& w = router.worker(0);
  for (graph::EdgeId e = 3; e < net.g.edge_count(); e += 17)
    router.fail_edge(e);
  const auto n = static_cast<std::uint32_t>(net.inputs.size());
  util::Xoshiro256 rng(4711);
  std::vector<std::uint32_t> active;
  std::size_t accepted = 0, terminal = 0, no_path = 0, path_vertices = 0;
  std::size_t disconnects = 0;
  for (std::size_t op = 0; op < 800; ++op) {
    if (!active.empty() && rng.below(4) == 0) {
      const auto idx = rng.below(active.size());
      w.disconnect(active[idx]);
      ++disconnects;
      active[idx] = active.back();
      active.pop_back();
      continue;
    }
    const auto in = static_cast<std::uint32_t>(rng.below(n));
    const auto out = static_cast<std::uint32_t>(rng.below(n));
    const bool idle = router.input_idle(in) && router.output_idle(out);
    const RefResult ref =
        idle ? reference_search(net.g, net.inputs[in], net.outputs[out],
                                router.busy_mask(), router)
             : RefResult{};
    const auto c = w.connect(in, out);
    if (!idle) {
      EXPECT_EQ(c, core::Router::kNoCall) << "busy terminal at op " << op;
      ++terminal;
      continue;
    }
    ASSERT_EQ(c == core::Router::kNoCall, ref.path.empty())
        << "divergence at op " << op;
    if (c == core::Router::kNoCall) {
      ++no_path;
      continue;
    }
    EXPECT_EQ(w.path_of(c), ref.path) << "path divergence at op " << op;
    path_vertices += ref.path.size();
    active.push_back(c);
    ++accepted;
  }
  ASSERT_GT(accepted, 0u);
  ASSERT_GT(terminal, 0u);
  const auto st = router.stats();
  EXPECT_EQ(st.connect_calls, accepted + terminal + no_path);
  EXPECT_EQ(st.accepted, accepted);
  EXPECT_EQ(st.rejected_terminal, terminal);
  EXPECT_EQ(st.rejected_no_path, no_path);
  EXPECT_EQ(st.disconnects, disconnects);
  EXPECT_EQ(st.path_vertices, path_vertices);
  std::size_t live = 0;
  for (const auto c : active) live += w.path_length(c);
  EXPECT_EQ(router.busy_vertices(), live);
}

}  // namespace
}  // namespace ftcs
