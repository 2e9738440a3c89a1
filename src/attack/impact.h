// Attack impact analysis (paper §IV-B, §VI-B): run an attack against a
// converged baseline and quantify the pollution — the fraction of ASes whose
// best route to the victim now traverses the attacker.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/interceptor.h"
#include "bgp/delta.h"
#include "bgp/propagation.h"
#include "topology/as_graph.h"
#include "util/thread_pool.h"

namespace asppi::attack {

// Everything measured for one attacker/victim instance.
struct AttackOutcome {
  Asn victim = 0;
  Asn attacker = 0;
  // Every AS executing the attack (sorted ascending; attacker is the first).
  // Size 1 for the classic single-attacker entry points; strategy::
  // AttackerProgram runs with k colluders fill all k.
  std::vector<Asn> colluders;
  // The victim's prepend count: the λ passed to the attack entry point, or,
  // for per-neighbor policies, the largest padding the victim announces to
  // any of its actual neighbors (PrependPolicy::MaxPadsToward — the strongest
  // padding an on-path attacker can strip). A per-neighbor policy that
  // overrides every neighbor below its default reports the real neighbor
  // maximum, not the dead-configuration default.
  int lambda = 1;

  // Converged, attack-free: the BaselineCache entry's state, so every
  // outcome against the same victim/policy points at one memoized state.
  std::shared_ptr<const bgp::PropagationResult> before;
  // Converged under the attack: the delta engine's sparse overlay over
  // `before`. Query API mirrors PropagationResult; call .Materialize() where
  // the dense RIB is truly needed.
  bgp::DeltaResult after;

  // False when the attacked re-convergence hit the engine round cap instead
  // of a fixpoint — possible under adversarial strategy:: programs whose
  // forced exports oscillate (the paper-model transforms always converge).
  // `after` is then the deterministic cap snapshot, and the fractions /
  // pollution set below are measured against it; treat them as "no stable
  // interception", not as steady-state impact.
  bool converged = true;

  // Fraction of ASes (excluding the colluders and victim) whose best path
  // traverses any colluder — the paper's "% of paths traversing attacker",
  // generalized to attacker sets (single-colluder runs match the paper's
  // denominator of n−2 exactly).
  double fraction_before = 0.0;
  double fraction_after = 0.0;

  // ASes polluted by the attack: best path traverses a colluder after the
  // attack but did not before.
  std::vector<Asn> newly_polluted;

  // ASes (colluders included, origin excluded) holding any route before and
  // after the attack.
  std::size_t reachable_before = 0;
  std::size_t reachable_after = 0;
};

class AttackSimulator {
 public:
  // `baseline_cache` (optional, non-owning) memoizes the attack-free
  // baselines across simulators; it must outlive the simulator and be built
  // on the same graph. Without one the simulator owns a cache, so its own
  // runs against one victim still share a baseline. Attacked states always
  // come from the delta engine (bgp::DeltaPropagator) over the baseline;
  // DiffAgainstResume below checks one against the full engine.
  explicit AttackSimulator(const topo::AsGraph& graph,
                           BaselineCache* baseline_cache = nullptr);

  // The ASPP-based interception attack: victim announces with λ prepends
  // (uniformly to all neighbors), attacker strips the padding. `filter`
  // (optional, non-owning — typically a defense::PolicySet) gates every
  // import during the attacked re-convergence. The attack-free baseline is
  // always computed filterless: none of the shipped policies ever rejects a
  // legitimate route (origin matches, padding is exactly as configured), so
  // the defended and undefended baselines coincide and stay shareable
  // through one BaselineCache.
  AttackOutcome RunAsppInterception(Asn victim, Asn attacker, int lambda,
                                    bool violate_valley_free = false,
                                    bool export_stripped_to_peers = true,
                                    const bgp::ImportFilter* filter = nullptr) const;

  // Same, but with an arbitrary caller-supplied prepend policy for the
  // victim (per-neighbor λ) — used by the detection tests where legitimate
  // traffic engineering must be distinguishable from the attack.
  AttackOutcome RunAsppInterceptionWithPolicy(
      const bgp::Announcement& announcement, Asn attacker,
      bool violate_valley_free = false,
      bool export_stripped_to_peers = true,
      const bgp::ImportFilter* filter = nullptr) const;

  // Fully generalized entry point (the strategy:: subsystem's executor): run
  // an arbitrary RouteTransform for a set of colluding attackers. Every
  // colluder seeds the re-convergence wavefront, and pollution counts an AS
  // when its best path traverses *any* colluder. `colluders` must be
  // non-empty, sorted, and duplicate-free, and must not contain the origin.
  // λ is recorded from the announcement via MaxPadsToward. Single-colluder
  // calls are bit-identical to the classic entry points with the same
  // transform.
  AttackOutcome RunTransform(const bgp::Announcement& announcement,
                             std::span<const Asn> colluders,
                             bgp::RouteTransform& transform,
                             const bgp::ImportFilter* filter = nullptr) const;

  // Baselines.
  AttackOutcome RunOriginHijack(Asn victim, Asn attacker, int lambda,
                                const bgp::ImportFilter* filter = nullptr) const;
  AttackOutcome RunBallaniInterception(Asn victim, Asn attacker, int lambda,
                                       const bgp::ImportFilter* filter =
                                           nullptr) const;

  const topo::AsGraph& Graph() const { return graph_; }

 private:
  AttackOutcome RunWithTransform(const bgp::Announcement& announcement,
                                 std::span<const Asn> colluders,
                                 bgp::RouteTransform& transform, int lambda,
                                 const bgp::ImportFilter* filter) const;

  // λ the outcome reports for `announcement`: the strongest padding announced
  // to any actual neighbor of the origin (see AttackOutcome::lambda).
  int RecordedLambda(const bgp::Announcement& announcement) const;

  const topo::AsGraph& graph_;
  bgp::DeltaPropagator delta_engine_;
  // Set only when the caller passed no cache.
  std::unique_ptr<BaselineCache> owned_cache_;
  // Where every baseline comes from: the caller's cache or `owned_cache_`.
  BaselineCache* baseline_cache_;
};

// The test oracle for every attacked state: re-runs the attack with
// PropagationSimulator::Resume over `outcome.before` (the outcome's colluders
// as the dirty set, `transform` and `filter` in effect), re-derives pollution
// with one dense any-colluder scan and reachability with dense counts, and
// compares bit for bit — `converged`, then the two states through
// bgp::FirstDifference (round count, every best route, change round and
// Adj-RIB-In slot), both fractions, `newly_polluted` and both reachable
// counts. Returns "" when the outcome matches, else one line naming the
// first difference. `transform` must be a fresh instance equivalent to the
// one that produced `outcome` (transforms may carry per-run state). O(n + E)
// plus a full-engine resume: for tests and verify modes, never for serving.
std::string DiffAgainstResume(const AttackOutcome& outcome,
                              bgp::RouteTransform& transform,
                              const bgp::ImportFilter* filter = nullptr);

// One row of the pair-sweep experiments (paper Figs. 7/8).
struct PairImpact {
  Asn attacker = 0;
  Asn victim = 0;
  double before = 0.0;
  double after = 0.0;
};

// Knobs for RunPairSweep.
struct PairSweepOptions {
  int lambda = 3;
  bool violate_valley_free = false;
  bool export_stripped_to_peers = true;
  // Parallelism (null = serial). Rows are computed into input-index slots and
  // sorted with a total order, so output is identical for any thread count.
  util::ThreadPool* pool = nullptr;
  // Baseline memoization (null = the sweep's simulator owns a cache private
  // to this call — repeated victims warm-start either way; pass one to share
  // across calls).
  BaselineCache* baseline_cache = nullptr;
  // Import filter active during the attacked re-convergence (non-owning;
  // typically a defense::PolicySet). Baselines are computed filterless — see
  // AttackSimulator::RunAsppInterception.
  const bgp::ImportFilter* filter = nullptr;
};

// Runs the ASPP interception for every (attacker, victim) pair and returns
// results sorted by decreasing post-attack pollution — the ranking the
// paper's Figs. 7/8 plot.
std::vector<PairImpact> RunPairSweep(
    const topo::AsGraph& graph,
    const std::vector<std::pair<Asn, Asn>>& attacker_victim_pairs,
    const PairSweepOptions& options);

}  // namespace asppi::attack
