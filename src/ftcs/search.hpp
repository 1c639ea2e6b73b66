// Shared level-synchronized bidirectional BFS over idle vertices.
//
// core::Router (ftcs/router.hpp) runs this search on every session's private
// scratch, and the tests run it against test-local reference searches. The
// busy test is a template parameter: the router plugs in a relaxed
// AtomicBitset read (an optimistic dirty snapshot, re-validated later by
// CAS claiming). The edge_blocked test likewise carries the router's
// liveness overlay (runtime switch failures) alongside any static fault
// mask, so the search routes around open-failed switches with no state of
// its own; the router re-validates the settled path after the claim phase.
//
// CLOSED (stuck-on) failures — the paper's §2 contraction — ride the
// edge_contracted predicate: a contracted switch is permanently conducting,
// so the search crosses it as a FREE hop (cost 0 in the level sync, the 0-1
// BFS discipline: zero-cost discoveries expand within the current level)
// and in BOTH directions (a welded contact carries signal either way, so a
// contracted in-edge of u is a free hop out of u). Occupancy is still
// enforced on the hop's target — the merged electrical node can carry at
// most one call, exactly like the contracted-and-rebuilt network's merged
// vertex — and the settled path claims every vertex it crosses as usual.
// The whole machinery is a COMPILE-TIME branch (`kContraction`): the
// dispatcher instantiates the contraction-free variant while no weld is
// live (the router counts outstanding welds), so such a search runs the
// exact pre-contraction hot path (measured: the runtime-flag version cost
// ~15% on a single-session churn; this one is noise-level).
//
// Search invariants:
//   - forward frontier expands out-edges from src, backward in-edges from
//     dst, always the smaller frontier first;
//   - a stamped-but-busy vertex gets no parent and never counts as a
//     meeting point, so every recorded meet lies on a fully idle path;
//   - best_meet only changes on a STRICT improvement of best_total, so the
//     first meet of the smallest total wins;
//   - termination: once best_total <= df + db + 1, every strictly shorter
//     path would already have produced a meet, so the best one is final.
// Early exit: the search returns as soon as best_total <= df + db + 1 after
// a frontier vertex is expanded, instead of finishing the level. This is
// exact. A normal-hop meet later in the level has total at least
// df + db + 1: if a frontier vertex u had an idle out-neighbour v with
// dist_b(v) < db, the backward side expanded v and stamped u, so u became a
// meet of total <= df + db before this level began and the loop would
// already have stopped.
// So no later meet in the same level can strictly improve on the first
// one, and the returned meet — hence the settled path, whose parent chains
// were fixed when their vertices were stamped — is the one the full-level
// search returns. Only the visit count drops. On the leveled 𝒩̂, where
// every input->output path has the same length, this skips the rest of
// the meeting level on every accepted call.
//
// With contracted edges the returned path is always a REAL idle path, but
// not necessarily a globally shortest one under the 0-1 metric: a vertex
// first stamped at level d+1 through a normal switch is not re-stamped when
// a later free hop would have reached it at level d (the epoch stamps admit
// one discovery per vertex). The same free hops can give a later meet of
// the level a strictly smaller total, so the welded body also waits for
// them. A free hop can only leave a WELD-INCIDENT vertex (vertex_welded: a
// live weld touches it) or a vertex on the free-hop stack, which a weld
// reached. The welded body therefore
//   - skips the reverse-conduction scan and the per-edge edge_contracted
//     test at a vertex that is not weld-incident (nothing to find there);
//   - returns once best_total <= df + db + 1 with the free-hop stack
//     empty and no weld-incident vertex left in the unexpanded part of the
//     current frontier (a per-level cursor finds the next one, so each
//     frontier vertex's bit is read at most once more per level): every
//     meet the rest of the level can make is then a normal-hop meet of
//     total >= df + db + 1, so the argument above carries over and the meet
//     and settled path equal the full-level welded search's.
// The weld state lives in the queue cursor and the loop, not in the visit
// lambdas: a [&] lambda captures what it names even in a discarded
// `if constexpr` branch, which perturbs the weld-free body's code.
// The predicate is read without synchronization by the router, whose
// writer sets a vertex bit before the weld's edge bit and clears the
// edge bit before the vertex bit: a stale read can only hide a weld, which
// the dirty-snapshot contract and the claim re-validation already allow.
// Reachability — the property the offline contraction equivalence pins —
// is exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace ftcs::core::detail {

/// Per-searcher scratch, sized once with init(); no allocation afterwards.
/// Epoch-stamped visited arrays: one bulk clear per 2^32 searches.
struct SearchScratch {
  std::vector<std::uint32_t> epoch_f, epoch_b;  // visited stamps per side
  std::vector<std::uint32_t> dist_f, dist_b;    // valid where stamped
  std::vector<graph::VertexId> parent_f;        // toward the input
  std::vector<graph::VertexId> parent_b;        // toward the output
  std::vector<graph::VertexId> queue_f, queue_b;  // frontier rings
  std::vector<graph::VertexId> zero_f, zero_b;  // free-hop (contracted) stacks
  std::uint32_t epoch = 0;

  void init(std::size_t v_count) {
    epoch_f.assign(v_count, 0);
    epoch_b.assign(v_count, 0);
    dist_f.resize(v_count);
    dist_b.resize(v_count);
    parent_f.assign(v_count, graph::kNoVertex);
    parent_b.assign(v_count, graph::kNoVertex);
    queue_f.resize(v_count);
    queue_b.resize(v_count);
    zero_f.resize(v_count);
    zero_b.resize(v_count);
    epoch = 0;
  }
};

/// The search body; kContraction selects the stuck-on machinery at compile
/// time. Use the bidir_shortest_idle_path dispatchers below.
template <bool kContraction, class BusyFn, class EdgeBlockedFn,
          class EdgeContractedFn, class VertexWeldedFn>
[[nodiscard]] graph::VertexId bidir_shortest_idle_path_impl(
    const graph::CsrGraph& g, graph::VertexId src, graph::VertexId dst,
    SearchScratch& s, std::uint64_t& visited, BusyFn&& is_busy,
    EdgeBlockedFn&& edge_blocked, EdgeContractedFn&& edge_contracted,
    VertexWeldedFn&& vertex_welded) {
  if (++s.epoch == 0) {  // epoch wrap: one bulk clear per 2^32 searches
    std::fill(s.epoch_f.begin(), s.epoch_f.end(), 0u);
    std::fill(s.epoch_b.begin(), s.epoch_b.end(), 0u);
    s.epoch = 1;
  }
  if (src == dst) {
    s.epoch_f[src] = s.epoch;
    s.parent_f[src] = graph::kNoVertex;
    s.dist_f[src] = 0;
    return dst;
  }

  graph::VertexId best_meet = graph::kNoVertex;
  std::uint32_t best_total = graph::kNoVertex;  // path length in edges
  s.epoch_f[src] = s.epoch;
  s.parent_f[src] = graph::kNoVertex;
  s.dist_f[src] = 0;
  s.epoch_b[dst] = s.epoch;
  s.parent_b[dst] = graph::kNoVertex;
  s.dist_b[dst] = 0;
  std::size_t fh = 0, ft = 0, bh = 0, bt = 0;
  s.queue_f[ft++] = src;
  s.queue_b[bt++] = dst;
  std::size_t flevel = 1, blevel = 1;  // vertices in the current frontier
  std::uint32_t df = 0, db = 0;        // distance of those frontiers
  // Welded body: is a weld-incident vertex left in queue[head, end), the
  // unexpanded part of the current frontier? `scan` is a per-level cursor
  // (a position before it is expanded or not weld-incident), so each level
  // reads each frontier vertex's weld bit at most once here.
  const auto weld_pending = [&](const std::vector<graph::VertexId>& queue,
                                std::size_t& scan, std::size_t head,
                                std::size_t end) {
    scan = std::max(scan, head);
    while (scan < end && !vertex_welded(queue[scan])) ++scan;
    return scan < end;
  };

  while (flevel > 0 && blevel > 0 && best_total > df + db + 1) {
    if (flevel <= blevel) {
      std::size_t next_level = 0;
      std::size_t zt = 0;  // top of the free-hop stack (current level)
      std::size_t weld_scan = fh;  // welded body: weld_pending cursor
      // Discovery of v from u at cost `free ? 0 : 1`.
      const auto visit_f = [&](graph::VertexId v, graph::VertexId u,
                               bool free) {
        if (s.epoch_f[v] == s.epoch) return;
        s.epoch_f[v] = s.epoch;
        ++visited;
        if (is_busy(v)) {
          // Record "no parent this epoch" EXPLICITLY. Parent arrays
          // persist across searches, and under a concurrent (dirty) busy
          // view the other side may probe v again after it went idle: a
          // stale parent from an earlier search would then chain a meet
          // through garbage (broken or even cyclic paths).
          s.parent_f[v] = graph::kNoVertex;
          return;
        }
        s.parent_f[v] = u;
        const std::uint32_t dv = free ? df : df + 1;
        s.dist_f[v] = dv;
        if (s.epoch_b[v] == s.epoch && s.parent_b[v] != graph::kNoVertex) {
          const std::uint32_t total = dv + s.dist_b[v];
          if (total < best_total) {
            best_total = total;
            best_meet = v;
          }
          return;  // expanding a meet can never improve on it
        }
        if (v == dst) {  // dst seeded backward with parent kNoVertex
          if (dv < best_total) {
            best_total = dv;
            best_meet = v;
          }
          return;
        }
        if (kContraction && free) {
          s.zero_f[zt++] = v;  // same level: expand before the level ends
        } else {
          s.queue_f[ft++] = v;
          ++next_level;
        }
      };
      std::size_t n = 0;
      for (;;) {
        graph::VertexId u;
        bool welded = true;  // free-hop stack entries are weld-incident
        if (n < flevel) {
          u = s.queue_f[fh++];
          ++n;
          if constexpr (kContraction) welded = vertex_welded(u);
        } else if (kContraction && zt > 0) {
          u = s.zero_f[--zt];
        } else {
          break;
        }
        const auto eids = g.out_edges(u);
        const auto tgts = g.out_targets(u);
        for (std::size_t i = 0; i < eids.size(); ++i) {
          if (edge_blocked(eids[i])) continue;
          visit_f(tgts[i], u,
                  kContraction && welded && edge_contracted(eids[i]));
        }
        if constexpr (kContraction) {
          // A stuck-on switch conducts both ways: a contracted in-edge
          // w->u is a free hop u->w (traversed against the edge direction).
          if (welded) {
            const auto reids = g.in_edges(u);
            const auto rsrcs = g.in_sources(u);
            for (std::size_t i = 0; i < reids.size(); ++i) {
              if (!edge_contracted(reids[i]) || edge_blocked(reids[i]))
                continue;
              visit_f(rsrcs[i], u, true);
            }
          }
          if (best_total <= df + db + 1 && zt == 0 &&
              !weld_pending(s.queue_f, weld_scan, fh, fh + flevel - n))
            return best_meet;  // final: see "Early exit" in the header
        } else if (best_total <= df + db + 1) {
          return best_meet;  // final: see "Early exit" in the header
        }
      }
      flevel = next_level;
      ++df;
    } else {
      std::size_t next_level = 0;
      std::size_t zt = 0;
      std::size_t weld_scan = bh;
      const auto visit_b = [&](graph::VertexId v, graph::VertexId u,
                               bool free) {
        if (s.epoch_b[v] == s.epoch) return;
        s.epoch_b[v] = s.epoch;
        ++visited;
        if (is_busy(v)) {  // src/dst rejected upfront if busy
          s.parent_b[v] = graph::kNoVertex;  // see the forward-side note
          return;
        }
        s.parent_b[v] = u;
        const std::uint32_t dv = free ? db : db + 1;
        s.dist_b[v] = dv;
        if (s.epoch_f[v] == s.epoch &&
            (s.parent_f[v] != graph::kNoVertex || v == src)) {
          const std::uint32_t total = s.dist_f[v] + dv;
          if (total < best_total) {
            best_total = total;
            best_meet = v;
          }
          return;
        }
        if (kContraction && free) {
          s.zero_b[zt++] = v;
        } else {
          s.queue_b[bt++] = v;
          ++next_level;
        }
      };
      std::size_t n = 0;
      for (;;) {
        graph::VertexId u;
        bool welded = true;
        if (n < blevel) {
          u = s.queue_b[bh++];
          ++n;
          if constexpr (kContraction) welded = vertex_welded(u);
        } else if (kContraction && zt > 0) {
          u = s.zero_b[--zt];
        } else {
          break;
        }
        const auto eids = g.in_edges(u);
        const auto srcs = g.in_sources(u);
        for (std::size_t i = 0; i < eids.size(); ++i) {
          if (edge_blocked(eids[i])) continue;
          visit_b(srcs[i], u,
                  kContraction && welded && edge_contracted(eids[i]));
        }
        if constexpr (kContraction) {
          // Reverse conduction: a contracted out-edge u->w means the path
          // segment w -> u is carried by the welded switch for free.
          if (welded) {
            const auto reids = g.out_edges(u);
            const auto rtgts = g.out_targets(u);
            for (std::size_t i = 0; i < reids.size(); ++i) {
              if (!edge_contracted(reids[i]) || edge_blocked(reids[i]))
                continue;
              visit_b(rtgts[i], u, true);
            }
          }
          if (best_total <= df + db + 1 && zt == 0 &&
              !weld_pending(s.queue_b, weld_scan, bh, bh + blevel - n))
            return best_meet;  // final: see "Early exit" in the header
        } else if (best_total <= df + db + 1) {
          return best_meet;  // final: see "Early exit" in the header
        }
      }
      blevel = next_level;
      ++db;
    }
  }
  return best_meet;
}

/// Finds a shortest idle src->dst path; returns the meeting vertex (parents
/// in `s` recover the two halves) or graph::kNoVertex if no idle path
/// exists. `is_busy(v)` and `edge_blocked(e)` gate expansion;
/// `edge_contracted(e)` marks stuck-on switches crossed as free hops (both
/// directions), and `vertex_welded(v)` must be true at every endpoint of a
/// contracted switch (it gates the weld work per vertex). `contraction_live`
/// selects the instantiation: false runs the weld-free body and never calls
/// either weld predicate. Both bodies return at their first final meet
/// (header, "Early exit"). `visited` accumulates stamped vertices for
/// RouterStats. Allocation-free.
template <class BusyFn, class EdgeBlockedFn, class EdgeContractedFn,
          class VertexWeldedFn>
[[nodiscard]] graph::VertexId bidir_shortest_idle_path(
    const graph::CsrGraph& g, graph::VertexId src, graph::VertexId dst,
    SearchScratch& s, std::uint64_t& visited, BusyFn&& is_busy,
    EdgeBlockedFn&& edge_blocked, EdgeContractedFn&& edge_contracted,
    VertexWeldedFn&& vertex_welded, bool contraction_live) {
  if (contraction_live)
    return bidir_shortest_idle_path_impl<true>(
        g, src, dst, s, visited, static_cast<BusyFn&&>(is_busy),
        static_cast<EdgeBlockedFn&&>(edge_blocked),
        static_cast<EdgeContractedFn&&>(edge_contracted),
        static_cast<VertexWeldedFn&&>(vertex_welded));
  return bidir_shortest_idle_path_impl<false>(
      g, src, dst, s, visited, static_cast<BusyFn&&>(is_busy),
      static_cast<EdgeBlockedFn&&>(edge_blocked),
      static_cast<EdgeContractedFn&&>(edge_contracted),
      static_cast<VertexWeldedFn&&>(vertex_welded));
}

/// Contraction-free convenience overload (the PR 2 signature): used by
/// callers that never see a stuck-on event.
template <class BusyFn, class EdgeBlockedFn>
[[nodiscard]] graph::VertexId bidir_shortest_idle_path(
    const graph::CsrGraph& g, graph::VertexId src, graph::VertexId dst,
    SearchScratch& s, std::uint64_t& visited, BusyFn&& is_busy,
    EdgeBlockedFn&& edge_blocked) {
  return bidir_shortest_idle_path_impl<false>(
      g, src, dst, s, visited, static_cast<BusyFn&&>(is_busy),
      static_cast<EdgeBlockedFn&&>(edge_blocked),
      [](graph::EdgeId) { return false; },
      [](graph::VertexId) { return false; });
}

}  // namespace ftcs::core::detail
