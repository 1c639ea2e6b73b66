#include "graph/digraph.hpp"

#include <algorithm>

namespace ftcs::graph {

VertexId GraphBuilder::add_vertices(std::size_t count) {
  const auto first = static_cast<VertexId>(out_.size());
  out_.resize(out_.size() + count);
  in_.resize(in_.size() + count);
  return first;
}

EdgeId GraphBuilder::add_edge(VertexId from, VertexId to) {
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back({from, to});
  out_[from].push_back(id);
  in_[to].push_back(id);
  return id;
}

void GraphBuilder::reserve(std::size_t vertices, std::size_t edges) {
  out_.reserve(vertices);
  in_.reserve(vertices);
  edges_.reserve(edges);
}

const char* to_string(RelabelMode m) noexcept {
  return m == RelabelMode::kLocality ? "locality" : "none";
}

std::vector<VertexId> locality_permutation(const GraphBuilder& g,
                                           std::span<const VertexId> sources) {
  const std::size_t n = g.vertex_count();
  constexpr VertexId kUnassigned = static_cast<VertexId>(-1);
  std::vector<VertexId> perm(n, kUnassigned);
  std::vector<VertexId> queue;
  queue.reserve(n);
  VertexId next = 0;
  for (VertexId s : sources)
    if (perm[s] == kUnassigned) {
      perm[s] = next++;
      queue.push_back(s);
    }
  // Level-synchronized by construction: the queue is processed in discovery
  // order, so all of level L is numbered before any of level L+1 — each BFS
  // frontier becomes one contiguous id range.
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    for (EdgeId e : g.out_edges(v)) {
      const VertexId to = g.edge(e).to;
      if (perm[to] == kUnassigned) {
        perm[to] = next++;
        queue.push_back(to);
      }
    }
  }
  // Unreached vertices (backward-only components, isolated spares) keep
  // their relative builder order at the tail.
  for (VertexId v = 0; v < n; ++v)
    if (perm[v] == kUnassigned) perm[v] = next++;
  return perm;
}

std::vector<VertexId> locality_permutation(const CsrGraph& g,
                                           std::span<const VertexId> sources) {
  const std::size_t n = g.vertex_count();
  constexpr VertexId kUnassigned = static_cast<VertexId>(-1);
  std::vector<VertexId> perm(n, kUnassigned);
  std::vector<VertexId> queue;
  queue.reserve(n);
  VertexId next = 0;
  for (VertexId s : sources)
    if (perm[s] == kUnassigned) {
      perm[s] = next++;
      queue.push_back(s);
    }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    for (const VertexId to : g.out_targets(v)) {
      if (perm[to] == kUnassigned) {
        perm[to] = next++;
        queue.push_back(to);
      }
    }
  }
  for (VertexId v = 0; v < n; ++v)
    if (perm[v] == kUnassigned) perm[v] = next++;
  return perm;
}

Network NetworkBuilder::finalize(FinalizeOptions opts) const {
  if (opts.relabel == RelabelMode::kNone)
    return Network{g.finalize(), inputs, outputs, stage, name, {}, {}};

  std::vector<VertexId> perm = locality_permutation(g, inputs);
  const std::size_t n = g.vertex_count();
  Network net;
  net.g = CsrGraph(g, perm);
  net.name = name;
  net.inputs.reserve(inputs.size());
  for (VertexId v : inputs) net.inputs.push_back(perm[v]);
  net.outputs.reserve(outputs.size());
  for (VertexId v : outputs) net.outputs.push_back(perm[v]);
  if (!stage.empty()) {
    net.stage.resize(n);
    for (VertexId v = 0; v < n; ++v) net.stage[perm[v]] = stage[v];
  }
  net.cold_of.resize(n);
  for (VertexId v = 0; v < n; ++v) net.cold_of[perm[v]] = v;
  net.hot_of = std::move(perm);
  return net;
}

GrownNetwork NetworkDelta::finalize_grown(FinalizeOptions opts) const {
  const std::size_t old_v = base_->g.vertex_count();
  const std::size_t n = delta_.vertex_count();

  CsrGraph merged(base_->g, delta_);

  std::vector<VertexId> inputs = base_->inputs;
  inputs.insert(inputs.end(), new_inputs_.begin(), new_inputs_.end());
  std::vector<VertexId> outputs = base_->outputs;
  outputs.insert(outputs.end(), new_outputs_.begin(), new_outputs_.end());

  std::vector<std::int32_t> stage;
  if (restage_) {
    stage = *restage_;
  } else if (!base_->stage.empty() || !new_stage_.empty()) {
    stage = base_->stage;
    stage.resize(old_v, -1);
    stage.insert(stage.end(), new_stage_.begin(), new_stage_.end());
  }

  GrownNetwork out;
  if (opts.relabel == RelabelMode::kNone) {
    out.net = Network{std::move(merged), std::move(inputs), std::move(outputs),
                      std::move(stage), name_, {}, {}};
    out.vmap.resize(old_v);
    for (VertexId v = 0; v < old_v; ++v) out.vmap[v] = v;
    return out;
  }

  // Locality growth: relabel the MERGED graph stage-major. The permutation
  // restricted to old ids is the vmap; hot_of/cold_of translate merged
  // (pre-relabel) ids, the grown analogue of builder-id traces.
  std::vector<VertexId> perm = locality_permutation(merged, inputs);
  out.net.g = CsrGraph(merged, perm);
  out.net.name = name_;
  out.net.inputs.reserve(inputs.size());
  for (VertexId v : inputs) out.net.inputs.push_back(perm[v]);
  out.net.outputs.reserve(outputs.size());
  for (VertexId v : outputs) out.net.outputs.push_back(perm[v]);
  if (!stage.empty()) {
    out.net.stage.resize(n);
    for (VertexId v = 0; v < n; ++v) out.net.stage[perm[v]] = stage[v];
  }
  out.net.cold_of.resize(n);
  for (VertexId v = 0; v < n; ++v) out.net.cold_of[perm[v]] = v;
  out.vmap.assign(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(old_v));
  out.net.hot_of = std::move(perm);
  return out;
}

Network relabel_locality(const Network& net) {
  NetworkBuilder nb;
  nb.g.reserve(net.g.vertex_count(), net.g.edge_count());
  nb.g.add_vertices(net.g.vertex_count());
  // Re-inserting edges in id order reproduces the original builder exactly:
  // per-vertex incidence lists are ascending-edge-id order both there and
  // in the CSR.
  for (EdgeId e = 0; e < net.g.edge_count(); ++e) {
    const Edge& ed = net.g.edge(e);
    nb.g.add_edge(ed.from, ed.to);
  }
  nb.inputs = net.inputs;
  nb.outputs = net.outputs;
  nb.stage = net.stage;
  nb.name = net.name;
  return nb.finalize(FinalizeOptions{RelabelMode::kLocality});
}

bool Network::is_input(VertexId v) const {
  return std::find(inputs.begin(), inputs.end(), v) != inputs.end();
}

bool Network::is_output(VertexId v) const {
  return std::find(outputs.begin(), outputs.end(), v) != outputs.end();
}

std::string Network::validate() const {
  const auto n = g.vertex_count();
  for (VertexId v : inputs)
    if (v >= n) return "input id out of range";
  for (VertexId v : outputs)
    if (v >= n) return "output id out of range";
  if (!stage.empty()) {
    if (stage.size() != n) return "stage vector size mismatch";
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto& ed = g.edge(e);
      if (stage[ed.from] >= 0 && stage[ed.to] >= 0 && stage[ed.from] >= stage[ed.to])
        return "edge does not advance stage";
    }
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    if (ed.from >= n || ed.to >= n) return "edge endpoint out of range";
    if (ed.from == ed.to) return "self-loop";
  }
  return {};
}

}  // namespace ftcs::graph
