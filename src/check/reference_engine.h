// ReferenceEngine: the correctness oracle for every routing engine in the
// library (DESIGN.md §4f).
//
// It recomputes Gao-Rexford propagation — and the ASPP-interception outcome —
// with the most naive algorithm that can possibly be right: a Jacobi fixpoint
// iteration that, every round, rebuilds each AS's candidate set from its
// neighbors' round-(r−1) best routes and re-runs the decision process, until
// nothing changes. O(rounds · V·E), no incremental state, no event scheduling,
// no Adj-RIB-In bookkeeping, no warm starts. It deliberately shares *no code*
// with `bgp::PropagationSimulator` (event-driven, withdrawal-tracking),
// `bgp::RoutingTree` (three-phase Dijkstra decomposition) or `attack/impact`
// (Resume-based warm starts + shared baseline caches) beyond the vocabulary
// types (AsPath, Relation, PrependPolicy), so a bug in any fast engine cannot
// be mirrored here by construction.
//
// Gao-Rexford safety (which every topology the library produces satisfies —
// provider-customer acyclicity is enforced by AsGraph/generator) guarantees a
// unique stable routing solution reached under any fair activation schedule,
// so the oracle and the fast engines must converge to bit-identical routes.
// The differential fuzzer (check/fuzzer.h) turns that "must" into a standing
// test. Converge() runs synchronous (Jacobi) rounds first; because the
// attacker's path rewriting sits outside the Gao-Rexford safety proof, a
// fully synchronous schedule can fall into a 2-cycle on rare attacked
// instances, in which case it falls back to sequential in-place sweeps — an
// asynchronous fair schedule with the same fixpoints.
#pragma once

#include <optional>
#include <vector>

#include "bgp/propagation.h"
#include "topology/as_graph.h"

namespace asppi::check {

using topo::Asn;
using topo::Relation;

// The attacker model, re-stated independently of attack::AsppInterceptor
// (paper §II-B): the attacker collapses the victim's prepended runs from
// every route it exports, and chooses how boldly to re-export the stripped
// route.
struct ReferenceAttack {
  Asn attacker = 0;
  Asn victim = 0;
  // Adopt the stripped-shortest received route and announce it upward too
  // (the "violate routing policy" series of paper Figs. 11/12).
  bool violate_valley_free = false;
  // Announce the stripped route to peers (paper default) or only downward.
  bool export_stripped_to_peers = true;
};

// What one AS holds at the fixpoint. Mirrors the fields of bgp::Route the
// differential comparison inspects, but is assembled independently.
struct ReferenceRoute {
  bgp::AsPath path;                         // as stored (prepends included)
  Asn learned_from = 0;                     // neighbor the route came from
  Relation rel = Relation::kPeer;           // neighbor's role relative to self
  Relation effective = Relation::kPeer;     // class after sibling transport

  bool operator==(const ReferenceRoute&) const = default;
};

class ReferenceEngine {
 public:
  // One slot per dense graph index; nullopt for the origin and for ASes with
  // no route.
  using State = std::vector<std::optional<ReferenceRoute>>;

  explicit ReferenceEngine(const topo::AsGraph& graph);

  // Converged best routes for `announcement`, optionally under `attack`.
  // Sets `*settled` (when given) to whether the fixpoint settled within the
  // sweep cap. Only an attack can keep it from settling: the attacker's path
  // rewriting sits outside the Gao-Rexford safety proof. The state is then
  // the last sweep's, not a fixpoint.
  State Converge(const bgp::Announcement& announcement,
                 const ReferenceAttack* attack = nullptr,
                 bool* settled = nullptr) const;

  // One full Jacobi round: every AS's best recomputed from its neighbors'
  // routes in `state`. Converge() iterates this to a fixpoint; the stability
  // invariant (check/invariants.h) applies it once to a fast engine's
  // converged state, which must already be a fixpoint.
  State Step(const bgp::Announcement& announcement, const State& state,
             const ReferenceAttack* attack = nullptr) const;

  // The interception experiment end to end: attack-free fixpoint, attacked
  // fixpoint, and the pollution accounting `attack::AttackOutcome` reports.
  struct Outcome {
    State before;
    State after;
    // False when the attacked fixpoint did not settle: `after`, and the
    // accounting below, then describe the last sweep's state.
    bool settled = true;
    double fraction_before = 0.0;
    double fraction_after = 0.0;
    // ASes whose best path traverses the attacker after but not before, in
    // dense graph-index order (the same order attack/impact emits).
    std::vector<Asn> newly_polluted;
  };
  Outcome RunInterception(const bgp::Announcement& announcement, Asn attacker,
                          bool violate_valley_free = false,
                          bool export_stripped_to_peers = true) const;

  // ASes (excluding `x` and the origin) whose best path contains `x`, in
  // dense graph-index order.
  std::vector<Asn> Traversing(const State& state, Asn origin, Asn x) const;

  const topo::AsGraph& Graph() const { return graph_; }

 private:
  // The decision process of the AS at dense index `u` over what its
  // neighbors' routes in `state` deliver (including the violate-mode
  // attacker override). Shared by Step (Jacobi) and Converge's sequential
  // fallback sweeps.
  std::optional<ReferenceRoute> ComputeBest(
      const bgp::Announcement& announcement, const State& state,
      const ReferenceAttack* attack, std::size_t u) const;

  // The route neighbor `from` (holding `from_best`) would deliver to `to`
  // this round, after export policy, prepending, the attacker hook, and both
  // loop checks. nullopt = nothing delivered.
  std::optional<ReferenceRoute> Deliver(
      const bgp::Announcement& announcement, const ReferenceAttack* attack,
      Asn from, const std::optional<ReferenceRoute>& from_best, Asn to,
      Relation from_rel_to_self) const;

  const topo::AsGraph& graph_;
};

// Mirrors a fast engine's converged state into the oracle's representation
// (used by the stability invariant and by the fuzzer's alternative-fixpoint
// proof for attacked states, where stability — not uniqueness — is what the
// theory guarantees).
ReferenceEngine::State MirrorFastState(const topo::AsGraph& graph,
                                       const bgp::PropagationResult& state);

}  // namespace asppi::check
