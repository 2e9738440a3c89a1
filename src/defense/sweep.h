// Deployment-sweep experiments: interception success vs deployment fraction
// per placement strategy — the paper's missing "how do we stop it" figures.
//
// For every (strategy, fraction, pair) point the sweep builds the nested
// deployment (DeploymentPlan::AtFraction), runs the ASPP interception with
// the PolicySet active as the engine's import filter, and averages the
// post-attack pollution over the pairs. Results are bit-identical for any
// --threads: tasks compute into index-addressed slots and are reduced in a
// fixed order.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/impact.h"
#include "defense/deployment.h"
#include "defense/policy.h"
#include "topology/as_graph.h"
#include "util/thread_pool.h"

namespace asppi::defense {

struct DefenseSweepOptions {
  // Deployment fractions to probe, in [0, 1]. Probed in the given order;
  // fig_defense_sweep passes them ascending and gates monotonicity.
  std::vector<double> fractions = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  // Placement strategies to compare.
  std::vector<Strategy> strategies = {kAllStrategies[0], kAllStrategies[1],
                                      kAllStrategies[2]};
  // Policies every deployed AS runs.
  std::uint8_t kinds = kAllPolicies;
  // Attack shape (paper §II-B defaults).
  int lambda = 4;
  bool violate_valley_free = false;
  bool export_stripped_to_peers = true;
  // Number of random (victim, attacker) pairs averaged per point (ignored
  // when `pairs` is non-empty).
  std::size_t num_pairs = 8;
  std::uint64_t seed = 1;
  // Explicit (victim, attacker) pairs; overrides num_pairs when non-empty.
  std::vector<std::pair<Asn, Asn>> pairs;
  // Parallelism (null = serial) and baseline memoization (null = a cache
  // internal to the call). Baselines are always computed filterless — the
  // shipped policies never reject a legitimate route — so one cache serves
  // every deployment point.
  util::ThreadPool* pool = nullptr;
  attack::BaselineCache* baseline_cache = nullptr;
  // Check every reported outcome against the Resume oracle
  // (attack::DiffAgainstResume): the attacked state must match the full
  // engine bit for bit (round count, best routes, change rounds, Adj-RIB-In)
  // and so must the fractions and pollution set. Costs one extra
  // full-engine resume per task. The in-bench equivalence gate of
  // fig_defense_sweep.
  bool verify_engines = false;
};

// One (strategy, fraction) point, averaged over the pairs.
struct DefenseSweepPoint {
  Strategy strategy = Strategy::kTopDegree;
  double fraction = 0.0;
  // Mean deployed-AS count (plans exclude each pair's victim and attacker,
  // so the count varies by at most 2 across pairs).
  double mean_deployed = 0.0;
  double mean_fraction_before = 0.0;
  // Mean post-attack pollution — the interception-success metric.
  double mean_fraction_after = 0.0;
  // False iff verify_engines found an outcome here that differs from the
  // Resume oracle.
  bool engines_agree = true;
};

// Deterministic (victim, attacker) pair selection: `count` distinct pairs
// with victim != attacker, a pure function of (graph, count, seed). Pairs are
// drawn from the highest-degree ASes (top max(32, n/200)) — transit players,
// where the paper shows ASPP interception bites; uniform sampling at Internet
// scale yields stub-vs-stub pairs whose interception is ~0 even undefended,
// making every defense curve a flat zero.
std::vector<std::pair<Asn, Asn>> PickSweepPairs(const topo::AsGraph& graph,
                                                std::size_t count,
                                                std::uint64_t seed);

// Points ordered by (strategy list order, fraction list order).
std::vector<DefenseSweepPoint> RunDefenseSweep(
    const topo::AsGraph& graph, const DefenseSweepOptions& options);

}  // namespace asppi::defense
