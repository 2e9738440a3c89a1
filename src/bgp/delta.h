// DeltaPropagator: incremental re-convergence from a converged baseline,
// propagating only the attack wavefront (DESIGN.md §4h).
//
// PropagationSimulator::Resume already re-announces from the attacker only,
// but it still *copies* the entire converged state first (every Adj-RIB-In
// row of every AS) and scans all n ASes per phase. For a sweep that probes
// thousands of (attacker, victim, λ) points against one shared baseline, that
// copy dominates: an ASPP interception typically flips the best route of a
// small frontier of ASes, and everything else is dead weight.
//
// DeltaPropagator keeps the baseline immutable and accumulates a *sparse
// overlay* (DeltaResult) of only what changed, driven by worklists, with
// per-AS rows created on first touch. It stores no Adj-RIB-In: a slot is
// its sender's export of the best it last exported (the baseline's,
// attack-free and unfiltered, before it first exports), derived when read.
//
// Equivalence: both engines build every wire-visible action from the shared
// kernels in bgp::engine_detail (propagation.h), process worklists in the
// graph's precomputed rank order (matching the full engine's IdsByRank
// scans), and within a phase write disjoint state per worklist entry — so
// the overlay composed over the baseline is bit-identical to Resume()'s
// output. Resume() survives only as the oracle that checks this claim
// (attack::DiffAgainstResume, used by tests/delta_test.cc, the fuzzer and
// the sweeps' verify modes).
//
// Termination: identical argument to the full engine (same synchronous
// schedule, same Gao-Rexford-safe policy system), plus the same kMaxRounds
// backstop for attacker-perturbed runs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bgp/propagation.h"
#include "bgp/route.h"
#include "bgp/transform.h"
#include "topology/as_graph.h"

namespace asppi::bgp {

// Per-baseline index answering "how many ASes' best path traverses x?" for
// one AS or a set of colluders, and how many ASes hold a route. A converged
// attack-free baseline is a best-route tree (paper Fig. 2): AS a's best path
// contains x exactly when x is an ancestor of a in that tree, so the count
// for x is x's subtree size minus 1. Built in O(n) from the baseline's
// parent slots (PropagationResult::ParentSlots) with one pass over their
// parents-first order; BaselineCache builds one per cached
// baseline, and AttackSimulator adjusts its counts over the attack's touched
// ASes only.
class TraversalIndex {
 public:
  // `baseline` must be attack-free and converged (ParentSlots aborts
  // otherwise) — what BaselineCache holds.
  explicit TraversalIndex(const PropagationResult& baseline);

  // |{a : a != x, a != origin, best(a) traverses x}| in the baseline.
  std::size_t TraversingCount(Asn x) const;
  // |{a : a not a colluder, a != origin, best(a) traverses any colluder}|.
  // `colluders` must be duplicate-free and must not contain the origin.
  std::size_t TraversingCount(std::span<const Asn> colluders) const;
  // Number of ASes with any route at all (origin excluded).
  std::size_t ReachableCount() const { return size_[origin_] - 1; }

 private:
  static constexpr topo::AsId kNoParent = 0xFFFFFFFF;

  const topo::AsGraph* graph_;
  topo::AsId origin_;
  // parent_[i]: dense id of the neighbor AS i's best route came from;
  // kNoParent for the origin and for ASes without a route.
  std::vector<topo::AsId> parent_;
  // size_[i]: ASes in i's subtree, i included (1 for an AS without a route).
  std::vector<std::uint32_t> size_;
};

// Overlay state of one touched AS: one whose best route or Adj-RIB-In
// changed.
struct DeltaRow {
  // Overlay of the best route. `best_set == false` means "unchanged from
  // baseline"; `best_set == true` with `best == nullopt` means the AS lost
  // its route.
  std::optional<Route> best;
  // Round of the first best-route change since the resume point (-1: never
  // changed; matches Resume()'s reset semantics).
  int first_change_round = -1;
  bool best_set = false;
  // Exported since the resume point: its slots hold its export of `best`.
  bool exported = false;
};

// The converged post-attack state as (immutable baseline + sparse overlay).
// Per-AS queries mirror PropagationResult's; Materialize() produces the
// equivalent dense PropagationResult (for the Resume oracle and anything
// that needs the full RIB or a whole-state scan).
class DeltaResult {
 public:
  // --- PropagationResult-compatible queries --------------------------------
  const std::optional<Route>& BestAt(Asn asn) const;
  int FirstChangeRound(Asn asn) const;
  int Rounds() const { return rounds_; }
  // False when the run hit the kMaxRounds cap before a fixpoint (persistent
  // policy oscillation under an adversarial transform). Mirrors
  // PropagationResult::Converged(): the cap snapshot is deterministic and
  // bit-identical to the full engine's, but not a fixpoint.
  bool Converged() const { return converged_; }
  const Announcement& GetAnnouncement() const {
    return base_->GetAnnouncement();
  }
  const topo::AsGraph& Graph() const { return base_->Graph(); }

  // --- delta-specific ------------------------------------------------------
  // Dense index variant (no hash lookup) for overlay-aware consumers.
  const std::optional<Route>& BestAtIndex(std::size_t index) const;
  // Ascending dense indices of every AS whose best route or Adj-RIB-In the
  // propagation changed (overlay rows exist exactly for these).
  const std::vector<std::uint32_t>& TouchedIndices() const { return touched_; }
  // Their overlay rows, in the same order.
  const std::vector<DeltaRow>& Rows() const { return rows_; }

  // Dense state equivalent to running the full engine's Resume() with the
  // same inputs: baseline copied, overlay applied, change rounds reset to
  // the overlay's, and each exported AS's slots derived from its best under
  // `transform` and `filter` — which must act as the propagation's did.
  // O(E): for the oracle and full-RIB consumers, not hot paths.
  PropagationResult Materialize(RouteTransform* transform,
                                const ImportFilter* filter = nullptr) const;

 private:
  friend class DeltaPropagator;
  // Corrupts overlays in tests, to prove the Resume oracle notices.
  friend class DeltaResultTestPeer;

  // Overlay row of the AS at dense `index`, or nullptr if untouched.
  const DeltaRow* RowOf(std::size_t index) const;

  std::shared_ptr<const PropagationResult> base_;
  int rounds_ = 0;
  bool converged_ = true;
  std::vector<std::uint32_t> touched_;  // ascending dense indices
  std::vector<DeltaRow> rows_;          // parallel to touched_
  // The seeds' dense indices: they export in round 1, with or without a row.
  std::vector<std::uint32_t> seeds_;
};

// The incremental engine. Construction is free (edge addressing lives in the
// frozen graph); Propagate() is safe to call concurrently from many threads
// against shared baselines.
class DeltaPropagator {
 public:
  explicit DeltaPropagator(const topo::AsGraph& graph);

  // Re-converges from `base` with `transform` in effect, seeding the
  // wavefront from `dirty` (typically just the attacker) — the incremental
  // equivalent of PropagationSimulator::Resume, bit-identical by
  // construction. `base` must be an attack-free, converged state over the
  // same graph: every baseline Adj-RIB-In slot is derived from the sender's
  // baseline best route, with no import filter, and a stored RIB is never
  // read — what BaselineCache entries, snapshot baselines and
  // Run(announcement) without a filter all are. The result holds a
  // reference to `base` (shared_ptr keeps it alive). `filter` gates the
  // attack's imports through the shared engine_detail::ExportTo kernel,
  // exactly as in the full engine (evaluated per read of a derived slot).
  DeltaResult Propagate(std::shared_ptr<const PropagationResult> base,
                        RouteTransform* transform,
                        const std::vector<Asn>& dirty,
                        const ImportFilter* filter = nullptr) const;

 private:
  struct Work;

  // Exports `best`, u's new best, to every neighbor.
  void ExportFromDelta(Work& work, std::size_t u,
                       const std::optional<Route>& best) const;
  // Queues u's best if it changed; returns whether it did.
  bool DecideDelta(Work& work, std::size_t u) const;

  const topo::AsGraph& graph_;
};

}  // namespace asppi::bgp
