// Greedy circuit-switching router (§4, third observation: "because the
// contained network is strictly nonblocking, routing can be performed by a
// greedy application of a standard path-finding algorithm").
//
// core::Router owns the busy state of a network (plus static blocked masks
// for faulty vertices and switches) and serves connect/disconnect requests
// through N sessions (Workers) over ONE shared immutable CSR network. Each
// connect finds a shortest idle path with the shared bidirectional BFS
// (ftcs/search.hpp); on a strictly nonblocking (surviving) network this never
// fails for a request between idle terminals. A 1-session Router is the
// paper's greedy router: it routes one request at a time, and its claims
// can never conflict.
//
// Why N sessions are sound (§4): the contained network is strictly
// nonblocking, so one greedy search can never destroy another's feasibility
// — concurrent searches race only on WHICH idle vertices they grab, never on
// whether a route exists. That is the optimistic resource-packing structure:
// search on a dirty snapshot, claim with CAS, retry on conflict.
//
// Protocol per connect(in, out), executed by a Worker (one per thread):
//   1. TERMINAL ACQUIRE — CAS the input slot, then the output slot, in the
//      shared AtomicBitsets. Failure → rejected_terminal (slot released in
//      reverse order on partial acquire).
//   2. SEARCH — the shared epoch-stamped bidirectional BFS (ftcs/search.hpp)
//      runs on the worker's PRIVATE scratch, reading the shared busy bitset
//      with RELAXED loads: a dirty snapshot, deliberately unvalidated. No
//      idle path → rejected_no_path.
//   3. CLAIM — the settled path's vertices are claimed one-by-one with
//      word-level CAS (AtomicBitset::try_set, acq_rel) in CANONICAL order
//      (ascending vertex id). Canonical order makes two overlapping claims
//      collide at their smallest shared vertex, so the loser has claimed as
//      little as possible before backing off.
//   4. CONFLICT — on a failed CAS the worker RELEASES every vertex it
//      claimed for this attempt (release order: the claim prefix, reversed)
//      and re-runs step 2 against the fresher busy state; claim_conflicts
//      and search_retries count these. After kMaxClaimRetries failed
//      attempts the call is rejected (rejected_contention) — bounded work
//      per call, no livelock.
//   5. SETTLE — with every path vertex owned, the worker threads the path
//      through the shared per-vertex successor array (a vertex carries at
//      most one call, so one VertexId per vertex stores every active path)
//      and records the call in its private call table.
// connect() and disconnect() perform no heap allocation after a session's
// first connect: visited state is epoch-stamped, frontiers are preallocated
// rings, and the call tables are reserved to their bound.
//
// Memory-ordering contract (see util/atomic_bitset.hpp):
//   - busy_.try_set is acq_rel: a successful claim of v synchronizes-with
//     the busy_.reset(v) (release) of v's previous owner, so the owner's
//     writes to path_next_[v] are visible before anyone re-claims v. All
//     bitset-word writes are RMWs, so intervening claims of OTHER bits in
//     the same word do not break the release sequence.
//   - path_next_[v] is plain (non-atomic) data OWNED by whoever holds busy
//     bit v: written only between a successful try_set(v) and the matching
//     reset(v). disconnect() reads the successor BEFORE releasing the bit.
//   - BFS busy reads are relaxed; every positive routing decision is
//     re-validated by the claim CAS, so stale reads cost retries, not
//     correctness.
//
// Liveness overlay (runtime fault plane): dead_edges_ is an AtomicBitset the
// BFS consults alongside the busy state (relaxed loads — the same dirty-
// snapshot discipline as busy reads). fail_edge()/repair_edge() MAY race
// in-flight connects: after a worker claims a settled path it RE-VALIDATES
// every hop against the overlay with acquire loads, releasing the claim and
// re-searching on a hit (overlay_conflicts). The guarantee is the usual
// happens-before one: a connect that starts after fail_edge(e) completes
// (ordering established by the caller — a flag, a mutex, the Exchange's
// session ownership) can never settle a path through e. A connect already
// past validation when the flip lands keeps its path; reconciling those
// stragglers is the fault plane's job (svc::Exchange::inject tears them
// down while holding every session). kill_vertex()/revive_vertex() fold
// vertex death into the busy bitset (a dead vertex holds its own busy bit,
// so searches and claims avoid it with no extra state) and therefore
// require quiescence: no connect in flight on any session, victims torn
// down first — the same contract as Exchange::drain().
//
// CLOSED failures (stuck-on switches, §2 contraction): contracted_edges_ is
// a second AtomicBitset under the same dirty-snapshot discipline — the BFS
// reads it relaxed and treats a contracted switch as a zero-cost hop that
// conducts in BOTH directions (see ftcs/search.hpp). welded_vertices_ marks
// the endpoints of live welds (the search's per-vertex weld gate) and
// contracted_count_ counts outstanding welds (the search picks its welded
// instantiation while it is nonzero). Writers are serialized (one at a
// time, the fault plane's drain() contract) and order their stores so a
// racing search can only miss a weld: contract raises the count, then the
// vertex bits, then the edge bit; uncontract clears the edge bit, then the
// vertex bits, then lowers the count. contract_edge()/uncontract_edge() may
// race in-flight connects exactly like fail_edge(): a stuck flip observed
// mid-search costs at most a suboptimal-but-valid path (the hop is
// conducting either way), and the post-claim re-validation accepts a hop
// carried by a live parallel switch OR by a contracted one in either
// direction. The one genuine hazard is stuck -> repaired: a settled path
// that crossed the weld AGAINST the edge direction is electrically severed
// by the repair; as with open-failure stragglers, reconciling those calls
// is the fault plane's job (svc::Exchange::repair sweeps victims while
// holding every session).
//
// Ownership model: a Worker is a single-threaded session — exactly one
// thread may use worker(w) at a time, and a call must be disconnected
// through the worker that connected it (call tables are per-worker, like
// sharded session state). Aggregate readers (stats(), busy_vertices(),
// active_calls(), busy_mask()) are exact only at quiescence (no concurrent
// connects); they are meant for end-of-run reporting, not for the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "ftcs/search.hpp"
#include "graph/digraph.hpp"
#include "util/atomic_bitset.hpp"
#include "util/bitset.hpp"

namespace ftcs::core {

/// Counter block filled per session; reset with reset_stats(). Mergeable:
/// operator+= aggregates per-session blocks (Router::stats()) and
/// per-network blocks (bench_routing) into one summary.
struct RouterStats {
  std::uint64_t connect_calls = 0;     // connect() invocations
  std::uint64_t accepted = 0;          // calls that settled a path
  std::uint64_t rejected_terminal = 0; // busy/blocked endpoint, no search run
  std::uint64_t rejected_no_path = 0;  // BFS exhausted without reaching dst
  std::uint64_t disconnects = 0;
  std::uint64_t vertices_visited = 0;  // BFS visits across all searches
  std::uint64_t path_vertices = 0;     // total length of settled paths
  // Contention counters (always 0 with one session and no overlay flip
  // racing a connect: nothing can then invalidate a settled path):
  std::uint64_t claim_conflicts = 0;      // CAS lost a vertex to another worker
  std::uint64_t search_retries = 0;       // searches re-run after a conflict
  std::uint64_t rejected_contention = 0;  // gave up after the retry budget
  std::uint64_t overlay_conflicts = 0;    // settled path crossed a switch that
                                          // failed during the search (released
                                          // and re-searched, like a claim loss)
  std::uint64_t wave_epochs = 0;      // always 0 (routing has no
                                      // multi-source waves); kept for the
                                      // benchmark's per-layer schema
  std::uint64_t bottom_up_levels = 0; // always 0 (the search has no
                                      // bottom-up mode); kept for the
                                      // benchmark's per-layer schema

  RouterStats& operator+=(const RouterStats& o) noexcept {
    connect_calls += o.connect_calls;
    accepted += o.accepted;
    rejected_terminal += o.rejected_terminal;
    rejected_no_path += o.rejected_no_path;
    disconnects += o.disconnects;
    vertices_visited += o.vertices_visited;
    path_vertices += o.path_vertices;
    claim_conflicts += o.claim_conflicts;
    search_retries += o.search_retries;
    rejected_contention += o.rejected_contention;
    overlay_conflicts += o.overlay_conflicts;
    wave_epochs += o.wave_epochs;
    bottom_up_levels += o.bottom_up_levels;
    return *this;
  }

  /// Counter delta (all fields are monotone), for before/after snapshots.
  RouterStats& operator-=(const RouterStats& o) noexcept {
    connect_calls -= o.connect_calls;
    accepted -= o.accepted;
    rejected_terminal -= o.rejected_terminal;
    rejected_no_path -= o.rejected_no_path;
    disconnects -= o.disconnects;
    vertices_visited -= o.vertices_visited;
    path_vertices -= o.path_vertices;
    claim_conflicts -= o.claim_conflicts;
    search_retries -= o.search_retries;
    rejected_contention -= o.rejected_contention;
    overlay_conflicts -= o.overlay_conflicts;
    wave_epochs -= o.wave_epochs;
    bottom_up_levels -= o.bottom_up_levels;
    return *this;
  }
};

class Router {
 public:
  /// Call handle, per session; valid until disconnect.
  using CallId = std::uint32_t;
  static constexpr CallId kNoCall = static_cast<CallId>(-1);
  /// Failed claim attempts per call before rejecting with
  /// rejected_contention. Conflicts need two calls' paths to overlap in the
  /// same instant, so even 2 retries are rarely consumed; 16 bounds the
  /// pathological case without ever rejecting a realistic workload.
  static constexpr unsigned kMaxClaimRetries = 16;

  /// `workers` fixes the session count (0 means 1). `blocked` marks
  /// statically unusable vertices (e.g. faulty) and `blocked_edges`
  /// statically unusable switches; either may be empty. The network must
  /// outlive the router; GLOBAL scratch is allocated here, once. Per-worker
  /// scratch is built lazily on the worker's FIRST connect, so its pages
  /// first-touch on the thread that owns the session instead of the
  /// constructing thread.
  Router(const graph::Network& net, unsigned workers,
         std::vector<std::uint8_t> blocked = {},
         std::vector<std::uint8_t> blocked_edges = {});

  // Pinned: every Worker holds a back-pointer to this router, so moving the
  // router would leave its sessions dangling into the moved-from object.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;
  Router(Router&&) = delete;
  Router& operator=(Router&&) = delete;

  /// One routing session; use from ONE thread at a time. Obtained via
  /// worker(w); lives as long as the router. Cache-line aligned so one
  /// session's hot state (stats counters, call table heads) never
  /// false-shares with its neighbours in the workers_ deque.
  class alignas(util::kCacheLineBytes) Worker {
   public:
    /// Steps 1-5 above: connects input index `in` to output index `out`
    /// (indices into the network's terminal lists). Returns kNoCall on busy
    /// terminal, no idle path, or claim-retry exhaustion (see stats).
    /// Allocation-free after this worker's first call (which first-touch
    /// builds the session scratch).
    CallId connect(std::uint32_t in, std::uint32_t out);
    /// Releases a call made through THIS worker. Allocation-free.
    void disconnect(CallId call);

    /// Vertices of a call's path, input first (cold path: materializes from
    /// the successor array).
    [[nodiscard]] std::vector<graph::VertexId> path_of(CallId call) const;
    /// Path length in vertices, O(1).
    [[nodiscard]] std::size_t path_length(CallId call) const {
      return calls_[call].length;
    }
    /// Ids of this worker's active calls (cold path; for draining/tests).
    [[nodiscard]] std::vector<CallId> active_call_ids() const;

    [[nodiscard]] const RouterStats& stats() const noexcept { return stats_; }
    void reset_stats() noexcept { stats_ = RouterStats{}; }
    [[nodiscard]] std::size_t active_calls() const noexcept { return active_; }
    /// Total vertices held by this worker's active calls.
    [[nodiscard]] std::size_t busy_vertices() const noexcept {
      return busy_count_;
    }

   private:
    friend class Router;
    struct Call {
      std::uint32_t in = 0, out = 0;
      graph::VertexId head = graph::kNoVertex;  // kNoVertex = slot free
      std::uint32_t length = 0;                 // vertices on the path
    };

    explicit Worker(Router& r);

    /// Builds the session scratch (search arrays, call table) on first use,
    /// i.e. on the thread that owns this session — the first-touch point
    /// for every page the hot path walks.
    void ensure_scratch();

    Router* r_;
    detail::SearchScratch scratch_;
    std::vector<graph::VertexId> path_buf_;   // settled path, src..dst
    std::vector<graph::VertexId> claim_buf_;  // same vertices, ascending id
    std::vector<Call> calls_;
    std::vector<CallId> free_slots_;
    std::size_t active_ = 0;
    std::size_t busy_count_ = 0;
    bool scratch_ready_ = false;
    RouterStats stats_;
  };

  [[nodiscard]] Worker& worker(unsigned w) { return workers_[w]; }
  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  [[nodiscard]] bool input_idle(std::uint32_t in) const {
    return !in_busy_.test(in) && !blocked_.test(net_->inputs[in]);
  }
  [[nodiscard]] bool output_idle(std::uint32_t out) const {
    return !out_busy_.test(out) && !blocked_.test(net_->outputs[out]);
  }
  [[nodiscard]] bool is_busy(graph::VertexId v) const {
    return busy_.test(v, std::memory_order_acquire);
  }
  /// Busy mask as bytes: blocked | dead | on an active path (cold path;
  /// exact at quiescence).
  [[nodiscard]] std::vector<std::uint8_t> busy_mask() const {
    return busy_.to_bytes();
  }

  // ------------------------------------------------------ liveness overlay
  // See the header comment for the memory-ordering and quiescence contract.

  /// Marks switch `e` failed. Safe to call while connects are in flight on
  /// other threads (atomic flip + claim-phase re-validation). Idempotent.
  void fail_edge(graph::EdgeId e);
  /// Clears a runtime switch failure (statically blocked edges stay
  /// blocked). Safe under the same racing contract as fail_edge().
  void repair_edge(graph::EdgeId e);
  /// Marks switch `e` STUCK ON (closed failure, §2): the contact is welded
  /// conducting, so the search crosses it as a zero-cost forced hop — in
  /// both directions — instead of claiming it as a switching element. The
  /// runtime analogue of contraction; the CSR graph is never mutated.
  /// Occupancy still applies to the hop's endpoints (the merged electrical
  /// node carries at most one call). An open-failed or statically blocked
  /// switch cannot be contracted into service: the blocked mask wins. Safe
  /// while connects are in flight (atomic flip + claim-phase
  /// re-validation); one contract/uncontract caller at a time. Idempotent.
  void contract_edge(graph::EdgeId e);
  /// Clears a stuck-on state. Calls that crossed the weld against the edge
  /// direction are severed — the fault plane sweeps them (see the header
  /// comment). Same racing contract as contract_edge(). Idempotent.
  void uncontract_edge(graph::EdgeId e);
  /// Marks `v` dead and fault-claims its busy bit. QUIESCENT ONLY: no
  /// connect in flight, no active call through v. Idempotent.
  void kill_vertex(graph::VertexId v);
  /// Revives a dead vertex (releases the busy bit iff fault-claimed).
  /// QUIESCENT ONLY.
  void revive_vertex(graph::VertexId v);

  /// Hitless growth: rebinds the router to the grown network `net`,
  /// carrying every live call on every worker across. `vmap` maps each old
  /// vertex id to its grown id (the graph::GrownNetwork contract: injective,
  /// edge ids stable, terminal indices prefix-stable). Vertex-indexed state
  /// is remapped through vmap, edge-indexed state extends at its stable
  /// ids, terminal slots extend with idle tail entries. Call slot tables are
  /// never reordered, so call ids survive and existing handles stay valid.
  /// The shared atomic bitsets are REBUILT at the grown size
  /// (AtomicBitset::resize clears, so live bits are snapshotted and re-set
  /// through vmap), and every worker's session scratch is invalidated so
  /// its next connect first-touches the grown arrays on the owning thread —
  /// the NUMA discipline of construction, preserved across growth.
  /// QUIESCENT ONLY: no connect/disconnect in flight on ANY worker — the
  /// kill_vertex/drain() contract the Exchange's growth path holds. The new
  /// network must outlive the router.
  void grow(const graph::Network& net, std::span<const graph::VertexId> vmap);

  [[nodiscard]] bool vertex_dead(graph::VertexId v) const {
    return dead_vertices_.test(v);
  }
  [[nodiscard]] bool edge_failed(graph::EdgeId e) const {
    return dead_edges_.test(e, std::memory_order_acquire);
  }
  [[nodiscard]] bool edge_contracted(graph::EdgeId e) const {
    return contracted_edges_.test(e, std::memory_order_acquire);
  }
  /// Weld-incident: some stuck-on switch ends at `v` (the search's
  /// per-vertex gate for the weld work, ftcs/search.hpp).
  [[nodiscard]] bool vertex_welded(graph::VertexId v) const {
    return welded_vertices_.test(v, std::memory_order_acquire);
  }
  /// Usable = neither statically blocked nor runtime-failed.
  [[nodiscard]] bool edge_usable(graph::EdgeId e) const {
    return !(!blocked_edges_.empty() && blocked_edges_.test(e)) &&
           !dead_edges_.test(e, std::memory_order_acquire);
  }

  // Quiescent aggregates over all workers (exact once no connects/
  // disconnects are in flight).
  [[nodiscard]] RouterStats stats() const;          // merged via operator+=
  void reset_stats();                               // every worker's block
  [[nodiscard]] std::size_t active_calls() const;   // sum of sessions
  [[nodiscard]] std::size_t busy_vertices() const;  // sum of path lengths

 private:
  /// True iff every hop of the settled path is still carried: by a usable
  /// forward switch, or by a contracted (stuck-on) switch in either
  /// direction. Acquire loads on the overlay (claim-phase re-validation).
  [[nodiscard]] bool path_switches_alive(
      const std::vector<graph::VertexId>& path) const;

  const graph::Network* net_;
  util::Bitset blocked_;        // static vertex faults (read-only)
  util::Bitset blocked_edges_;  // static switch faults (read-only)
  util::AtomicBitset busy_;     // shared: blocked | dead | claimed by a path
  // Liveness overlay: dead_edges_ is read by in-flight searches (relaxed)
  // and validations (acquire); overlay_active_ gates those reads so the
  // fault-free hot path pays one register test. The vertex registries are
  // cold state touched only under the quiescent kill/revive contract.
  util::AtomicBitset dead_edges_;
  // Stuck-on switches (closed failures): read relaxed by searches alongside
  // dead_edges_. The outstanding-weld count gates the welded search body,
  // so runs without live welds do not pay the weld work in the shared BFS;
  // welded_vertices_ gates it per vertex. vertex_welds_ (live welds per
  // endpoint) belongs to the serialized contract/uncontract writer.
  util::AtomicBitset contracted_edges_;
  util::AtomicBitset welded_vertices_;
  std::vector<std::uint32_t> vertex_welds_;
  std::atomic<bool> overlay_active_{false};
  std::atomic<std::size_t> contracted_count_{0};
  util::Bitset dead_vertices_;
  util::Bitset fault_claimed_;
  util::AtomicBitset in_busy_, out_busy_;  // terminal slots
  // Shared successor array threading every active path; entry v is owned by
  // the holder of busy bit v (see the memory-ordering contract above).
  std::vector<graph::VertexId> path_next_;
  std::deque<Worker> workers_;  // deque: stable addresses for worker(w) refs
};

}  // namespace ftcs::core
