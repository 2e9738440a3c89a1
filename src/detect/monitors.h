// Monitor (vantage point) selection strategies (paper §VI-C ranks ASes by
// degree and takes the top d; alternatives provided for the placement study).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bgp/as_path.h"
#include "topology/as_graph.h"
#include "topology/tiers.h"

namespace asppi::detect {

using topo::Asn;

// Top-`count` ASes by decreasing degree (the paper's strategy).
std::vector<Asn> TopDegreeMonitors(const topo::AsGraph& graph,
                                   std::size_t count);

// Uniformly random monitors (baseline for the placement comparison).
std::vector<Asn> RandomMonitors(const topo::AsGraph& graph, std::size_t count,
                                std::uint64_t seed);

// All tier-1 ASes, then highest-degree others to reach `count`.
std::vector<Asn> Tier1FirstMonitors(const topo::AsGraph& graph,
                                    const topo::TierInfo& tiers,
                                    std::size_t count);

// What `monitors` observe in `state` (a bgp::PropagationResult or
// bgp::DeltaResult): each monitor's best path, in `monitors` order. Monitors
// without a route are skipped, and so is `attacker` — it would not feed
// honest data to a collector. The detection harness and the serve "detect"
// op both read their observations through this, so their answers agree.
template <typename State>
std::vector<std::pair<Asn, bgp::AsPath>> PathsAt(
    const State& state, const std::vector<Asn>& monitors, Asn attacker) {
  std::vector<std::pair<Asn, bgp::AsPath>> out;
  out.reserve(monitors.size());
  for (Asn m : monitors) {
    if (m == attacker) continue;
    const auto& best = state.BestAt(m);
    if (best.has_value()) out.emplace_back(m, best->path);
  }
  return out;
}

}  // namespace asppi::detect
