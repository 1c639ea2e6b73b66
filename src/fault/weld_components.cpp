#include "fault/weld_components.hpp"

#include <algorithm>

namespace ftcs::fault {

WeldComponents::WeldComponents(const graph::Network& net) : net_(&net) {
  const std::size_t n = net.g.vertex_count();
  is_welded_.assign(net.g.edge_count(), 0);
  is_terminal_.assign(n, 0);
  for (graph::VertexId v : net.inputs) is_terminal_[v] = 1;
  for (graph::VertexId v : net.outputs) is_terminal_[v] = 1;
  dsu_.reset(n);
  terminal_count_.assign(n, 0);
  terminal_rep_.assign(n, graph::kNoVertex);
  terminal_rep2_.assign(n, graph::kNoVertex);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (is_terminal_[v]) {
      terminal_count_[v] = 1;
      terminal_rep_[v] = v;
    }
  }
}

void WeldComponents::contract(graph::EdgeId e) {
  const graph::Edge& ed = net_->g.edge(e);
  graph::VertexId ra = dsu_.find(ed.from);
  graph::VertexId rb = dsu_.find(ed.to);
  if (ra == rb) return;
  const bool was_a = terminal_count_[ra] >= 2;
  const bool was_b = terminal_count_[rb] >= 2;
  const std::uint32_t merged = terminal_count_[ra] + terminal_count_[rb];
  // A diagnostic pair for the merged node: prefer an already-shorted side's
  // pair, else one representative from each side (the bridging case).
  graph::VertexId rep = graph::kNoVertex;
  graph::VertexId rep2 = graph::kNoVertex;
  if (was_a) {
    rep = terminal_rep_[ra];
    rep2 = terminal_rep2_[ra];
  } else if (was_b) {
    rep = terminal_rep_[rb];
    rep2 = terminal_rep2_[rb];
  } else {
    rep = terminal_rep_[ra] != graph::kNoVertex ? terminal_rep_[ra]
                                                : terminal_rep_[rb];
    if (terminal_rep_[ra] != graph::kNoVertex &&
        terminal_rep_[rb] != graph::kNoVertex) {
      rep2 = terminal_rep_[rb];
    }
  }
  dsu_.unite(ra, rb);
  const graph::VertexId r = dsu_.find(ra);
  terminal_count_[r] = merged;
  terminal_rep_[r] = rep;
  terminal_rep2_[r] = rep2;
  const bool now = merged >= 2;
  shorted_components_ += static_cast<std::size_t>(now) -
                         static_cast<std::size_t>(was_a) -
                         static_cast<std::size_t>(was_b);
}

void WeldComponents::isolate_endpoints(graph::EdgeId e) {
  const graph::Edge& ed = net_->g.edge(e);
  for (const graph::VertexId v : {ed.from, ed.to}) {
    dsu_.reset_vertex(v);
    terminal_count_[v] = is_terminal_[v];
    terminal_rep_[v] = is_terminal_[v] ? v : graph::kNoVertex;
    terminal_rep2_[v] = graph::kNoVertex;
  }
}

bool WeldComponents::add_weld(graph::EdgeId e) {
  if (is_welded_[e]) return false;
  is_welded_[e] = 1;
  welds_.push_back(e);
  const bool was = shorted();
  contract(e);
  return !was && shorted();
}

bool WeldComponents::remove_weld(graph::EdgeId e) {
  if (!is_welded_[e]) return false;
  is_welded_[e] = 0;
  welds_.erase(std::find(welds_.begin(), welds_.end(), e));
  const bool was = shorted();
  // Every vertex a weld ever touched is an endpoint of `e` or of a
  // survivor, and each non-singleton node consists of such endpoints only:
  // resetting them resets whole nodes, back to the healthy state.
  isolate_endpoints(e);
  for (const graph::EdgeId w : welds_) isolate_endpoints(w);
  shorted_components_ = 0;
  for (const graph::EdgeId w : welds_) contract(w);
  return was && !shorted();
}

std::optional<std::pair<graph::VertexId, graph::VertexId>>
WeldComponents::shorted_pair() const {
  if (!shorted()) return std::nullopt;
  for (std::size_t v = 0; v < terminal_count_.size(); ++v) {
    // Roots only: a non-root's census is stale by construction.
    if (terminal_count_[v] >= 2 &&
        dsu_.find(static_cast<std::uint32_t>(v)) == v) {
      return std::make_pair(terminal_rep_[v], terminal_rep2_[v]);
    }
  }
  return std::nullopt;
}

}  // namespace ftcs::fault
