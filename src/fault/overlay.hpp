// Liveness overlay construction: the bridge between the offline Monte Carlo
// fault path (FaultInstance -> repair/rebuild) and the runtime fault plane
// (the router's fail_edge/contract_edge/kill_vertex on the FULL network).
//
// Instead of rebuilding a surviving network, an overlay marks the same
// components dead — or welded — in place:
//   - kDiscardAll (the PR 4 / §6 discard semantics): every failed switch
//     (either mode) dies, and every vertex §6 calls faulty (incident to a
//     failed switch) dies with it. Routing on the full network under the
//     overlay reaches exactly the terminal pairs the repair_by_discard
//     network reaches — pinned by tests.
//   - kContractStuck (the §2-faithful split): open failures die as above,
//     but closed (stuck-on) failures become CONTRACTED edges — zero-cost
//     forced hops conducting both ways — and only open failures contribute
//     to vertex death. Routing under this overlay reaches exactly the
//     terminal pairs the repair_by_contraction rebuilt network reaches —
//     the live analogue of contraction, likewise pinned by tests.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_instance.hpp"

namespace ftcs::fault {

/// Byte masks over the ORIGINAL network's vertices and edges; 1 = dead
/// (or, for contracted_edges, welded conducting). Apply via the router's
/// kill_vertex()/fail_edge()/contract_edge() or feed to svc::Exchange.
struct LivenessOverlay {
  std::vector<std::uint8_t> dead_vertices;
  std::vector<std::uint8_t> dead_edges;
  std::vector<std::uint8_t> contracted_edges;  // empty under kDiscardAll

  [[nodiscard]] std::size_t dead_vertex_count() const noexcept {
    std::size_t c = 0;
    for (const auto b : dead_vertices) c += b;
    return c;
  }
  [[nodiscard]] std::size_t dead_edge_count() const noexcept {
    std::size_t c = 0;
    for (const auto b : dead_edges) c += b;
    return c;
  }
  [[nodiscard]] std::size_t contracted_edge_count() const noexcept {
    std::size_t c = 0;
    for (const auto b : contracted_edges) c += b;
    return c;
  }
};

/// How closed (stuck-on) failures map onto the overlay.
enum class OverlayMode : std::uint8_t {
  kDiscardAll,     // both failure modes kill (repair_by_discard semantics)
  kContractStuck,  // stuck-on switches become free forced hops (§2
                   // contraction; repair_by_contraction semantics)
};

/// Builds the overlay for a sampled instance. With `spare_terminals` false
/// the dead-vertex mask is exactly the faulty mask the offline repair
/// discards (terminals included) — the equivalence-test semantics. With it
/// true (the serving default), terminal vertices stay alive and only their
/// failed switches die. Under kContractStuck only OPEN failures count
/// toward vertex death.
[[nodiscard]] LivenessOverlay overlay_from_instance(
    const FaultInstance& inst, bool spare_terminals,
    OverlayMode mode = OverlayMode::kDiscardAll);

}  // namespace ftcs::fault
