// Deterministic beam search over the AttackerProgram space: what is the
// worst interception a strategic attacker (or colluding set) can actually
// mount against a prepending victim, and how far short of it does the
// paper's fixed strip-everything attacker fall?
//
// The search scores thousands of candidate programs per (attacker, victim)
// pair, each through the production attack machinery — shared
// attack::BaselineCache, delta wavefront propagation, ThreadPool fan-out —
// and is bit-deterministic: the same seed-free candidate enumeration, slot-
// indexed parallel scoring, and total-order selection produce the same best
// program for any --threads value. The paper model is the beam's seed and
// survivors only ever improve on it, so SearchResult.best never scores below
// the paper attacker (optimizer dominance — property-tested across every
// fixture).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "bgp/transform.h"
#include "strategy/program.h"
#include "topology/as_graph.h"
#include "util/thread_pool.h"

namespace asppi::strategy {

struct SearchOptions {
  // The victim's uniform prepend count.
  int lambda = 4;
  // Beam survivors per round / mutation rounds.
  std::size_t beam_width = 4;
  std::size_t rounds = 2;
  // Per-colluder cap on neighbors considered for per-edge overrides (the
  // highest-degree neighbors — where an export decision moves the most
  // pollution).
  std::size_t max_neighbors = 12;
  // Number of top-degree ASes offered as poison targets (0 disables).
  std::size_t poison_candidates = 2;
  bool allow_withhold = true;
  // Policy-violating sends (kForce) and the adopt-best-stripped override.
  bool allow_violate = true;

  // Parallel candidate scoring (null = serial; output identical either way).
  util::ThreadPool* pool = nullptr;
  // Shared baseline memoization (null = one cache private to each Run).
  attack::BaselineCache* baseline_cache = nullptr;
  // Import filter (defense) active during every attacked re-convergence.
  const bgp::ImportFilter* filter = nullptr;
  // Check every scored outcome against the Resume oracle
  // (attack::DiffAgainstResume: full attacked state, fractions, pollution
  // set) and count differences in SearchResult.engine_mismatches — the bench
  // gate's equivalence check.
  bool verify_engines = false;
};

struct ScoredProgram {
  AttackerProgram program;
  double fraction_before = 0.0;
  double fraction_after = 0.0;
};

struct SearchResult {
  ScoredProgram best;
  // The paper-model attacker's pollution on the same pair (the beam's seed).
  double paper_after = 0.0;
  // best.fraction_after − paper_after; ≥ 0 by construction.
  double gap = 0.0;
  std::size_t programs_scored = 0;
  // Candidates whose outcome differed from the Resume oracle (verify_engines
  // only; anything but 0 is an engine bug).
  std::size_t engine_mismatches = 0;
};

class Search {
 public:
  Search(const topo::AsGraph& graph, const SearchOptions& options);

  // Single attacker / colluding set against `victim`. Colluders must be real
  // ASes distinct from the victim.
  SearchResult Run(Asn victim, Asn attacker) const;
  SearchResult Run(Asn victim, std::span<const Asn> colluders) const;

 private:
  const topo::AsGraph& graph_;
  SearchOptions options_;
};

}  // namespace asppi::strategy
