// Differential fuzzer: generates seeded scenarios, runs every fast engine
// against the ReferenceEngine oracle plus the full invariant battery, shrinks
// failing scenarios to a minimal topology, and serializes repro cases
// (DESIGN.md §4f).
//
// Determinism contract: the scenario of iteration i depends only on
// (options.seed, i) — never on the shard that happens to execute it — so
// `--seed N --threads K` finds the identical failure set for every K.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "check/scenario.h"
#include "util/thread_pool.h"

namespace asppi::check {

struct FuzzOptions {
  std::uint64_t seed = 42;
  std::size_t iterations = 100;
  // Shrink each failure to a minimal scenario before reporting.
  bool minimize = true;
  // Test hook: corrupt the fast engine's attack outcome before comparison,
  // guaranteeing a divergence on every scenario (exercises the failure path
  // and the shrinker end to end).
  bool inject_bug = false;
  // Parallel sharding (null = serial). The failure set is identical either
  // way; only wall-clock changes.
  util::ThreadPool* pool = nullptr;
  // When non-empty, each (shrunk) failing scenario is saved here as
  // `fuzz-seed<seed>-iter<i>.scn`.
  std::string corpus_dir;
  // Cap on RunScenario evaluations one Shrink may spend.
  std::size_t shrink_budget = 200;
};

struct FuzzFailure {
  std::size_t iteration = 0;
  Scenario scenario;       // shrunk when options.minimize
  Violations violations;   // violations of the reported (shrunk) scenario
  std::string repro_path;  // file written, when options.corpus_dir is set
};

struct FuzzResult {
  std::size_t iterations = 0;
  std::vector<FuzzFailure> failures;  // ascending iteration order
  bool Clean() const { return failures.empty(); }
};

class Fuzzer {
 public:
  explicit Fuzzer(const FuzzOptions& options);

  // The scenario of iteration i: a random small-to-medium topology with
  // random victim/attacker roles, λ, boldness knobs, and monitor count, all
  // drawn from DeriveSeed(options.seed, i).
  Scenario ScenarioFor(std::size_t iteration) const;

  // Runs one scenario through every differential + invariant check:
  //   * PropagationSimulator vs ReferenceEngine (attack-free fixpoint),
  //   * RoutingTree vs the same oracle fixpoint, route for route,
  //   * the BaselineCache entry the attack starts from vs Run's baseline:
  //     convergence, best routes and Adj-RIB-In slots
  //     (bgp::FirstBaselineDifference; the entry is at rest, so no timing),
  //   * AttackSimulator vs ReferenceEngine::RunInterception (paths,
  //     fractions, pollution sets),
  //   * Invariants over the converged states and the attack outcome,
  //   * detector alarm justification, baseline false-positive guard, and
  //     stream==batch equivalence over the monitor views.
  // Empty result = the scenario passes.
  Violations RunScenario(const Scenario& scenario) const;

  // Greedy minimization: repeatedly shrink topology sizes / λ / knobs while
  // RunScenario still fails, until a fixpoint or the shrink budget runs out.
  Scenario Shrink(const Scenario& scenario) const;

  // The whole campaign. Failures are shrunk and (optionally) serialized.
  FuzzResult Run() const;

 private:
  FuzzOptions options_;
};

}  // namespace asppi::check
