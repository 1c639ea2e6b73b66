// Two-phase graph lifecycle: a mutable GraphBuilder for construction and an
// immutable CsrGraph (graph/csr.hpp) for everything that runs afterwards.
//
// All §6 networks are generated programmatically: the builders in networks/
// and reliability/ append vertices and edges through GraphBuilder's O(1)
// insertion API, then finalize() packs the incidence lists into flat
// compressed-sparse-row arrays. Algorithms, routers, verifiers and fault
// machinery only ever see the CSR view; nothing mutates a graph after
// finalization. NetworkBuilder/Network mirror the same split for networks
// (graph + terminal lists + stage labels).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/delta.hpp"
#include "graph/types.hpp"

namespace ftcs::graph {

/// Mutable directed multigraph with O(1) edge insertion and per-vertex
/// incidence lists in both directions. Vertex/edge ids are dense and stable;
/// finalize() preserves them (and incidence order) in the CSR output.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  explicit GraphBuilder(std::size_t vertex_count) { add_vertices(vertex_count); }

  VertexId add_vertex() {
    out_.emplace_back();
    in_.emplace_back();
    return static_cast<VertexId>(out_.size() - 1);
  }

  /// Adds `count` vertices, returns the id of the first.
  VertexId add_vertices(std::size_t count);

  EdgeId add_edge(VertexId from, VertexId to);

  [[nodiscard]] std::size_t vertex_count() const noexcept { return out_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  [[nodiscard]] const Edge& edge(EdgeId e) const noexcept { return edges_[e]; }
  [[nodiscard]] std::span<const EdgeId> out_edges(VertexId v) const noexcept {
    return out_[v];
  }
  [[nodiscard]] std::span<const EdgeId> in_edges(VertexId v) const noexcept {
    return in_[v];
  }
  [[nodiscard]] std::size_t out_degree(VertexId v) const noexcept { return out_[v].size(); }
  [[nodiscard]] std::size_t in_degree(VertexId v) const noexcept { return in_[v].size(); }
  [[nodiscard]] std::size_t degree(VertexId v) const noexcept {
    return out_[v].size() + in_[v].size();
  }

  void reserve(std::size_t vertices, std::size_t edges);

  /// Packs the current state into an immutable CSR graph. The builder stays
  /// valid (construction may continue, e.g. to finalize snapshots in tests).
  [[nodiscard]] CsrGraph finalize() const { return CsrGraph(*this); }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

/// Vertex-id layout chosen at finalize time.
///  kNone     — ids are builder-insertion order, preserved bit for bit.
///  kLocality — stage-major BFS relabel: a level-synchronized BFS from the
///              inputs assigns new ids in discovery order, so every search
///              frontier occupies a contiguous id range (contiguous cache
///              lines in SearchScratch, the busy bitsets and the successor
///              array). Edge ids and incidence order are preserved, so
///              routing on the relabeled graph is the exact image of
///              routing on the original under the permutation.
enum class RelabelMode : std::uint8_t { kNone, kLocality };

[[nodiscard]] const char* to_string(RelabelMode m) noexcept;

/// Finalize-time knobs, gathered in one options struct so new flags compose
/// without another positional overload (the growth/relabel API redesign).
struct FinalizeOptions {
  RelabelMode relabel = RelabelMode::kNone;
};

/// A finalized circuit-switching network: an immutable CSR graph plus
/// distinguished terminal vertices. `stage[v]` is the construction stage of
/// v (or -1 when the construction is not staged); all §6 networks are
/// staged DAGs. Produced by NetworkBuilder::finalize().
struct Network {
  CsrGraph g;
  std::vector<VertexId> inputs;
  std::vector<VertexId> outputs;
  std::vector<std::int32_t> stage;  // may be empty if unstaged
  std::string name;
  // Locality relabel bookkeeping (empty when finalized with kNone). The
  // terminal lists above are already remapped, so callers addressing
  // terminals by index — the whole svc/ API surface — see stable ids; these
  // arrays exist for diagnostics and for translating externally recorded
  // builder-id traces.
  std::vector<VertexId> hot_of;   ///< hot_of[builder id] = relabeled id
  std::vector<VertexId> cold_of;  ///< cold_of[relabeled id] = builder id

  [[nodiscard]] bool relabeled() const noexcept { return !hot_of.empty(); }

  [[nodiscard]] std::size_t size() const noexcept { return g.edge_count(); }
  [[nodiscard]] bool is_input(VertexId v) const;
  [[nodiscard]] bool is_output(VertexId v) const;
  [[nodiscard]] bool is_terminal(VertexId v) const { return is_input(v) || is_output(v); }

  /// Validates invariants: terminal ids in range, stages (if present)
  /// monotone along edges. Returns an empty string on success, else a
  /// description of the first violation.
  [[nodiscard]] std::string validate() const;
};

/// Construction-phase counterpart of Network: same fields over a mutable
/// GraphBuilder. Every network constructor assembles one of these and
/// returns finalize(), which packs the graph into CSR form.
struct NetworkBuilder {
  GraphBuilder g;
  std::vector<VertexId> inputs;
  std::vector<VertexId> outputs;
  std::vector<std::int32_t> stage;  // may be empty if unstaged
  std::string name;

  /// Finalizes into an immutable Network. The builder stays valid. With
  /// FinalizeOptions::relabel == kLocality the vertex ids are permuted
  /// stage-major (see RelabelMode); terminal lists and stage labels are
  /// remapped so the terminal-index API surface is unchanged, and the
  /// old↔new permutation is retained on the Network.
  [[nodiscard]] Network finalize(FinalizeOptions opts = {}) const;
};

/// Result of growing a finalized network: the merged network plus the
/// old→new vertex-id map the live-call remap threads every piece of
/// vertex-indexed router state through. Contracts (what core::Router::grow
/// and svc::Exchange::grow validate):
///   - vmap.size() == old vertex count; vmap is injective into the grown
///     id space (identity when finalized with RelabelMode::kNone);
///   - edge ids are stable: grown edge e < old edge count connects exactly
///     {vmap[old from], vmap[old to]};
///   - terminal indices are prefix-stable: grown inputs[i] ==
///     vmap[old inputs[i]] for every old i (outputs likewise) — external
///     terminal ids survive the re-id.
struct GrownNetwork {
  Network net;
  std::vector<VertexId> vmap;  ///< vmap[old id] = grown id
};

/// Re-opens a finalized Network for append-only growth — the network-level
/// wrapper over graph::CsrDelta that also tracks new terminals and stage
/// labels. All ids are the BASE network's current (possibly relabeled) ids;
/// new vertices continue densely after them. finalize_grown() merges in one
/// O(V + E + Δ) pass and never touches the base.
class NetworkDelta {
 public:
  /// The base must outlive the delta and stay unchanged (it is immutable).
  explicit NetworkDelta(const Network& base)
      : base_(&base), delta_(base.g), name_(base.name) {}

  /// Appends one vertex with construction stage `stage` (-1 = unstaged).
  VertexId add_vertex(std::int32_t stage = -1) {
    new_stage_.push_back(stage);
    return delta_.add_vertex();
  }
  /// Appends `count` vertices at one stage, returns the id of the first.
  VertexId add_vertices(std::size_t count, std::int32_t stage = -1) {
    new_stage_.insert(new_stage_.end(), count, stage);
    return delta_.add_vertices(count);
  }
  /// Appends one switch; endpoints may be base or delta vertices.
  EdgeId add_edge(VertexId from, VertexId to) {
    return delta_.add_edge(from, to);
  }
  /// Registers a new terminal: appended AFTER the base terminals, so every
  /// pre-growth terminal index keeps its meaning.
  void add_input(VertexId v) { new_inputs_.push_back(v); }
  void add_output(VertexId v) { new_outputs_.push_back(v); }
  /// Replaces the merged stage vector wholesale (size must be the grown
  /// vertex count). Growth may legitimately restage OLD vertices — wrapping
  /// a plane inserts stages before and after it — and stage labels are
  /// diagnostic metadata, not part of the id-stability contract.
  void restage(std::vector<std::int32_t> stages) { restage_ = std::move(stages); }
  void rename(std::string name) { name_ = std::move(name); }

  [[nodiscard]] const CsrDelta& delta() const noexcept { return delta_; }
  [[nodiscard]] const Network& base() const noexcept { return *base_; }
  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return delta_.vertex_count();
  }

  /// Merges base + delta into a GrownNetwork. With relabel == kNone the
  /// vmap is the identity over old ids; with kLocality the merged graph is
  /// relabeled stage-major and vmap is the permutation restricted to old
  /// ids. Both uphold the GrownNetwork contracts above.
  [[nodiscard]] GrownNetwork finalize_grown(FinalizeOptions opts = {}) const;

 private:
  const Network* base_;
  CsrDelta delta_;
  std::vector<VertexId> new_inputs_, new_outputs_;
  std::vector<std::int32_t> new_stage_;
  std::optional<std::vector<std::int32_t>> restage_;
  std::string name_;
};

/// Relabels an already-finalized (unrelabeled) network with the locality
/// permutation — the post-hoc form of finalize(kLocality) for networks
/// produced by the networks/ constructors. Exact: CSR preserves the
/// builder's incidence order (per-vertex lists are ascending edge-id
/// order), so the reconstructed builder reproduces it bit for bit.
/// Precondition: !net.relabeled().
[[nodiscard]] Network relabel_locality(const Network& net);

/// The stage-major BFS permutation finalize(kLocality) applies: perm[old] =
/// new, assigned in level-synchronized discovery order of a multi-source BFS
/// from `sources` (incidence order within a level, so the order is
/// deterministic). Vertices unreachable from the sources keep their relative
/// builder order after all reached ones. Exposed for tests.
[[nodiscard]] std::vector<VertexId> locality_permutation(
    const GraphBuilder& g, std::span<const VertexId> sources);

/// CSR overload — identical BFS over the finalized incidence arrays (same
/// deterministic order: CSR preserves builder incidence order). Used by
/// finalize_grown(), where no builder exists.
[[nodiscard]] std::vector<VertexId> locality_permutation(
    const CsrGraph& g, std::span<const VertexId> sources);

}  // namespace ftcs::graph
