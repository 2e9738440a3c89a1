// PropagationSimulator: synchronous-round path-vector simulation of BGP
// update propagation and the decision process over a relationship-annotated
// AS graph (paper §IV-B).
//
// Semantics:
//   * One prefix per run, announced by `Announcement::origin` with
//     per-neighbor prepending (λ copies of its own ASN).
//   * Each AS keeps an Adj-RIB-In slot per neighbor; its best route is chosen
//     by the decision process in route.h (local-pref class, then path length
//     including prepends, then lowest neighbor ASN).
//   * Exports follow the valley-free rule in policy.h, with each exporter
//     prepending its own ASN PadsFor(exporter, neighbor) times. An optional
//     RouteTransform can rewrite or force/suppress any export — this is the
//     attacker hook.
//   * Receiver-side loop detection: a delivered path containing the
//     receiver's ASN invalidates that neighbor's slot.
//   * Withdrawals are explicit: when an AS's best route change makes a
//     previous export no longer policy-legal (or no longer existent), the
//     neighbor's slot is cleared.
//
// Rounds advance synchronously (all round-r exports are decided upon in
// round r+1), so an AS's recorded change round is its hop-time from the event
// source. Gao-Rexford policies guarantee convergence; a generous round bound
// guards the attacker-perturbed runs.
//
// Results are resumable: Resume() continues from a converged state after the
// attacker's export behaviour changes, re-announcing from the attacker only.
// This both matches reality (the victim's announcement is long stable when
// the attack starts) and yields per-AS pollution times for the detection-
// latency analysis (paper Fig. 14).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/route.h"
#include "bgp/transform.h"
#include "topology/as_graph.h"

namespace asppi::bgp {

struct Announcement {
  Asn origin = 0;
  // Prepending behaviour for every AS (origin λ and intermediary prepending).
  PrependPolicy prepends;
};

// Shared per-edge kernels of the engines. PropagationSimulator (full state)
// and DeltaPropagator (sparse overlay, bgp/delta.h) build their exports and
// decisions from these, and PropagationResult::FromCheckpoint and
// RoutingTree derive their routes with ExportTo, so every engine agrees bit
// for bit on every wire-visible action by construction — the equivalence the
// delta engine's correctness proof (DESIGN.md §4h) and its Resume oracle
// (attack::DiffAgainstResume) rest on.
namespace engine_detail {

// One export from `u_asn` over the edge `to`, as every consumer of an export
// sees it. The origin announces its own prefix (ranked like a customer
// route); everyone else re-exports its best route with its own pads in
// front, never back through an AS already on it. The valley-free rule
// decides whether it is sent, and the transform's OnExport hook may rewrite
// the path or force/suppress the send. A path containing the receiver is
// discarded there; otherwise the route is delivered with its class carried
// across sibling links unchanged (Route::effective), and `filter` — the
// import policy, evaluated by every engine at this same point — may reject
// it. `route` is what the receiver's Adj-RIB-In slot for `u` holds
// afterwards — nullopt when nothing is sent, the receiver finds itself on
// the path, or `filter` rejects the route. A slot is only ever written from
// this value, so "slot held" implies "a route was sent", and a withdrawal is
// just the clearing of a held slot.
struct Delivery {
  bool sent = false;  // something crossed the wire (routes_announced)
  std::optional<Route> route;
};
Delivery ExportTo(const Announcement& announcement, Asn u_asn, bool is_origin,
                  const std::optional<Route>& best, const topo::Edge& to,
                  RouteTransform* transform, const ImportFilter* filter);

// The decision process over a contiguous Adj-RIB-In, including the
// transform's OverrideBest hook (consulted only where MightOverride allows).
std::optional<Route> ChooseBest(Asn u_asn,
                                std::span<const std::optional<Route>> rib,
                                RouteTransform* transform);

// Round cap of both engines. A run still exporting after this many rounds
// stops there and is flagged not converged (Converged() == false): the
// delta engine stops at the full engine's point because both read this one
// constant.
inline constexpr int kMaxRounds = 10000;

// Directed-edge addressing lives in the frozen graph itself: every
// topo::Edge carries the neighbor's dense id and the exporter's slot in the
// neighbor's Adj-RIB-In (back_slot), precomputed once at Freeze(). What used
// to be a separate per-engine EdgeMap is now two fields of the adjacency
// entry both engines already read, so their delivery targets stay identical
// by construction and no per-delivery ASN translation ever happens — debug
// builds assert it (topo::detail::AsnLookupCount around the engine loops).

}  // namespace engine_detail

class PropagationSimulator;

// Converged routing state for one announcement. Also the warm-start input to
// PropagationSimulator::Resume().
class PropagationResult {
 public:
  // Best route of `asn` (nullopt for the origin itself and for ASes with no
  // route).
  const std::optional<Route>& BestAt(Asn asn) const;
  // Round of the *first* best-route change of `asn` during the run that
  // produced this result (-1 if its best never changed in that run).
  int FirstChangeRound(Asn asn) const;
  // Total rounds until convergence of the producing run.
  int Rounds() const { return rounds_; }
  // False when the producing run hit the kMaxRounds cap before reaching a
  // fixpoint: a persistently oscillating policy (possible once adversarial
  // transforms force valley-violating exports — Griffin's dispute wheels).
  // The state is then the deterministic round-cap snapshot, bit-identical
  // between the full and delta engines, but NOT a routing fixpoint;
  // fixpoint-only invariants must not be asserted against it.
  bool Converged() const { return converged_; }

  const Announcement& GetAnnouncement() const { return announcement_; }
  const topo::AsGraph& Graph() const { return *graph_; }

  // --- dense state ----------------------------------------------------------
  // Indexed by the graph's dense AS index; RibIn() by [as][adjacency slot].
  const std::vector<std::optional<Route>>& BestRoutes() const { return best_; }
  const std::vector<int>& FirstChangeRounds() const {
    return first_change_round_;
  }
  const std::vector<std::vector<std::optional<Route>>>& RibIn() const {
    return rib_in_;
  }

  // --- checkpoints (data/snapshot.cc) --------------------------------------
  // A converged attack-free state is a best-route tree (paper §IV-B, Fig. 2):
  // every AS's best route is what one neighbor's best route exports to it,
  // and every Adj-RIB-In slot is what that neighbor exports now. So a
  // checkpoint stores, per AS, only the adjacency slot of the neighbor its
  // best route came from and its first change round — 8 bytes per AS.
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFF;
  struct Checkpoint {
    int rounds = 0;
    // parent_slots[as]: position of the best route's neighbor in the AS's
    // own adjacency row; kNoParent for no route (and always for the origin).
    std::vector<std::uint32_t> parent_slots;
    std::vector<int> first_change_rounds;

    // Dense AS ids, each after the AS its best route came from: the order
    // FromCheckpoint derives routes in and bgp::TraversalIndex sums subtrees
    // against. Every parent slot must lie within its AS's degree. Returns
    // nullopt and sets `*cycle_at` to an AS on the cycle when the parent
    // links form one.
    std::optional<std::vector<topo::AsId>> ParentsFirst(
        const topo::AsGraph& graph, topo::AsId* cycle_at) const;
  };
  // Only for an attack-free, filterless, converged state — what
  // Run(announcement) and attack::BaselineCache produce. Aborts on a state
  // that did not converge or whose best route names a non-neighbor.
  Checkpoint ToCheckpoint() const;
  // Rebuilds the state a checkpoint came from: best routes parents-first,
  // each the ExportTo delivery from its parent, with every Adj-RIB-In slot
  // filled in the same export pass — the kernels Run() uses, so the result
  // is bit-identical to the converged original. Both arrays must hold
  // graph.NumAses() entries (aborts otherwise). Returns nullopt and sets
  // `*error` when the origin is not in the graph, or ("AS<asn>: ...") a
  // parent slot is outside its AS's degree, the origin has a parent, the
  // parent links form a cycle, or a parent delivers its child no route. It
  // does not prove the tree is the fixpoint.
  static std::optional<PropagationResult> FromCheckpoint(
      const topo::AsGraph& graph, Announcement announcement,
      Checkpoint checkpoint, std::string* error);

  // ASes (other than `x` and the origin) whose best path traverses AS `x`.
  std::vector<Asn> AsesTraversing(Asn x) const;
  // |AsesTraversing(x)| / (NumAses - 2): the paper's pollution metric
  // ("% of paths traversing attacker").
  double FractionTraversing(Asn x) const;
  // Number of ASes that have any route at all (origin excluded).
  std::size_t ReachableCount() const;

 private:
  friend class PropagationSimulator;
  friend class DeltaResult;  // Materialize() overlays its rows

  const topo::AsGraph* graph_ = nullptr;
  Announcement announcement_;
  int rounds_ = 0;
  bool converged_ = true;
  // All vectors indexed by the graph's dense AS index.
  std::vector<std::optional<Route>> best_;
  std::vector<int> first_change_round_;
  // Full Adj-RIB-In: rib_in_[as][slot] is the route last received from the
  // neighbor at `slot` of that AS's adjacency list.
  std::vector<std::vector<std::optional<Route>>> rib_in_;
};

// The first difference between two states over graphs with the same dense
// order, as one line naming it ("AS7 best route: snapshot [..] from AS3,
// converged <none>"), or "" when the round counts, convergence flags, best
// routes, change rounds and every Adj-RIB-In slot agree bit for bit.
// `got_name` and `want_name` label the two sides.
std::string FirstDifference(const PropagationResult& got,
                            const PropagationResult& want,
                            const char* got_name, const char* want_name);

class PropagationSimulator {
 public:
  explicit PropagationSimulator(const topo::AsGraph& graph);

  // Full propagation from scratch. `transform` (optional, non-owning) hooks
  // every export; `filter` (optional, non-owning) gates every import.
  PropagationResult Run(const Announcement& announcement,
                        RouteTransform* transform = nullptr,
                        const ImportFilter* filter = nullptr) const;

  // Continues from `prior` (typically an attack-free converged state) with a
  // new transform in effect; only `dirty` ASes re-evaluate their exports
  // initially. Change rounds are counted from the resume point.
  PropagationResult Resume(const PropagationResult& prior,
                           RouteTransform* transform,
                           const std::vector<Asn>& dirty,
                           const ImportFilter* filter = nullptr) const;

  const topo::AsGraph& Graph() const { return graph_; }

 private:
  void RunLoop(PropagationResult& state, RouteTransform* transform,
               const ImportFilter* filter,
               std::vector<std::uint8_t>& need_export) const;
  // Exports u's best (or origin announcement) to all neighbors; marks
  // receivers whose slots changed in `dirty`.
  void ExportFrom(PropagationResult& state, std::size_t u,
                  RouteTransform* transform, const ImportFilter* filter,
                  std::vector<std::uint8_t>& dirty) const;
  // Recomputes u's best from its Adj-RIB-In. Returns true if it changed.
  bool Decide(PropagationResult& state, std::size_t u,
              RouteTransform* transform) const;

  const topo::AsGraph& graph_;
};

}  // namespace asppi::bgp
