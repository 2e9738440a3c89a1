// RoutingTree: the paper's Figure 2 algorithm — every AS's best route toward
// one origin under Gao-Rexford policies, in three phases instead of
// path-vector rounds:
//
//   1. customer routes: shortest distances from the origin over
//      customer→provider and sibling edges (Dijkstra; pads are the weights,
//      small integers, so every phase pops a bucket queue by route length),
//   2. peer routes: one peer edge from any AS whose best is a customer route,
//      then across sibling edges among ASes without a customer route,
//   3. provider routes: shortest downhill propagation of each covered AS's
//      best route over provider→customer and sibling edges.
//
// Sibling edges carry a route's class unchanged (Route::effective), and every
// phase breaks length ties by the lowest neighbor ASN, BetterRoute's order.
// Pads are at least 1, so a neighbor that offers an AS a route as short as
// its best is settled before the AS is: the AS's parent is final when it is
// popped. The tree therefore holds exactly the best routes
// PropagationSimulator::Run converges to, in a fraction of its time. It has
// no attacker transforms and no import filters.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/propagation.h"
#include "topology/as_graph.h"

namespace asppi::bgp {

class RoutingTree {
 public:
  RoutingTree(const topo::AsGraph& graph, const Announcement& announcement);

  // Best route of `asn`, equal to what Run(announcement).BestAt(asn) holds:
  // nullopt for the origin and for ASes with no route. Derived by applying
  // engine_detail::AttackFreeSlot down the parent chain from the origin.
  std::optional<Route> BestAt(Asn asn) const;

  // Per AS, the position of its best route's neighbor in its own adjacency
  // row; PropagationResult::kNoParent for no route (and always for the
  // origin). PropagationResult::FromParentSlots turns them into the
  // attack-free baseline, whose best routes are Run(announcement)'s, AS for
  // AS.
  const std::vector<std::uint32_t>& ParentSlots() const {
    return parent_slots_;
  }

 private:
  const topo::AsGraph& graph_;
  Announcement announcement_;
  std::vector<std::uint32_t> parent_slots_;
};

}  // namespace asppi::bgp
