// Strategic-attacker search: how much worse than the paper's §II-B
// strip-everything interceptor can an adaptive attacker do?
//
// For a mix of tier-1 and random (attacker, victim) pairs, strategy::Search
// beam-optimizes an AttackerProgram (per-neighbor announce/withhold, partial
// strips, poisoning, customer-masquerade/forced exports, adopt-best-stripped)
// against the post-attack pollution fraction, and each row reports the
// paper-model interception next to the worst program the beam found. The gap
// column is the headroom the paper's fixed attacker leaves on the table.
//
// Two acceptance gates, both of which fail the run (exit 1):
//   * dominance: the paper model is a point of the searched space and seeds
//     the beam, so best >= paper on every pair (gap >= 0, exactly — both
//     sides are computed by the same engine on the same baseline).
//   * engines:   with --verify-engines (the --smoke default), every scored
//     program's outcome is checked against the Resume oracle
//     (attack::DiffAgainstResume) and must match it bit-for-bit; any
//     mismatch fails the run.
//
// Determinism: for a fixed topology seed the whole table is bit-identical
// for any --threads value (pairs are scored into input-index slots; the beam
// itself orders candidates by (fraction desc, KeyString asc)).
// CI runs --smoke and publishes the --json report as BENCH_strategy.json.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "attack/scenarios.h"
#include "bench/experiment.h"
#include "strategy/program.h"
#include "strategy/search.h"
#include "topology/tiers.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e(
      "Strategy search: adaptive attacker vs the paper's interceptor",
      "per-pair worst-case program vs paper model; gap >= 0 on every pair");
  e.WithTopologyFlags();
  e.Flags().DefineBool("smoke", false,
                       "CI-sized run: small topology, fewer pairs, "
                       "narrower beam, engine verification on");
  e.Flags().DefineUint("tier1-pairs", 6, "tier-1 attacker/victim pairs");
  e.Flags().DefineUint("random-pairs", 6, "random attacker/victim pairs");
  e.Flags().DefineInt("lambda", 4, "victim prepend count");
  e.Flags().DefineUint("beam", 4, "beam width");
  e.Flags().DefineUint("rounds", 2, "beam search rounds");
  e.Flags().DefineUint("max-neighbors", 12,
                       "per-colluder neighbors considered for overrides");
  e.Flags().DefineUint("poison-candidates", 2,
                       "top-degree ASes considered as poison targets");
  e.Flags().DefineBool("verify-engines", false,
                       "check every scored program against the Resume "
                       "oracle and require bit-identical attacked states");
  int lambda = 0;
  if (!e.ParseFlags(argc, argv) || !e.LambdaFlag(&lambda)) return 1;

  const bool smoke = e.Flags().GetBool("smoke");
  topo::GeneratorParams params = e.Params();
  std::size_t tier1_pairs = e.Flags().GetUint("tier1-pairs");
  std::size_t random_pairs = e.Flags().GetUint("random-pairs");
  strategy::SearchOptions options;
  options.lambda = lambda;
  options.beam_width = e.Flags().GetUint("beam");
  options.rounds = e.Flags().GetUint("rounds");
  options.max_neighbors = e.Flags().GetUint("max-neighbors");
  options.poison_candidates = e.Flags().GetUint("poison-candidates");
  options.verify_engines = e.Flags().GetBool("verify-engines");
  if (smoke) {
    params.num_tier1 = std::min<std::size_t>(params.num_tier1, 4);
    params.num_tier2 = std::min<std::size_t>(params.num_tier2, 20);
    params.num_tier3 = std::min<std::size_t>(params.num_tier3, 60);
    params.num_stubs = std::min<std::size_t>(params.num_stubs, 250);
    params.num_content = std::min<std::size_t>(params.num_content, 6);
    params.num_sibling_pairs =
        std::min<std::size_t>(params.num_sibling_pairs, 3);
    tier1_pairs = std::min<std::size_t>(tier1_pairs, 3);
    random_pairs = std::min<std::size_t>(random_pairs, 3);
    options.beam_width = std::min<std::size_t>(options.beam_width, 3);
    options.rounds = std::min<std::size_t>(options.rounds, 2);
    options.max_neighbors = std::min<std::size_t>(options.max_neighbors, 6);
    options.verify_engines = true;
  }

  const topo::GeneratedTopology& topology = e.GenerateTopology(params);
  const topo::TierInfo tiers = topo::ClassifyTiers(topology.graph);
  options.baseline_cache = e.Baseline();

  std::vector<std::pair<topo::Asn, topo::Asn>> pairs = attack::SampleTier1Pairs(
      topology, tier1_pairs, e.Flags().GetUint("seed") + 15);
  const auto random_sample = attack::SampleRandomPairs(
      topology, random_pairs, e.Flags().GetUint("seed") + 16);
  pairs.insert(pairs.end(), random_sample.begin(), random_sample.end());

  e.Note("search: %zu pairs, lambda=%d, beam=%zu x %zu rounds, "
         "%zu neighbors, %zu poison candidates%s",
         pairs.size(), options.lambda, options.beam_width, options.rounds,
         options.max_neighbors, options.poison_candidates,
         options.verify_engines ? ", engine equivalence gated" : "");

  // One Search per pair, pairs scored in parallel into input-index slots
  // (inner scoring stays serial: options.pool is left null).
  const strategy::Search search(topology.graph, options);
  std::vector<strategy::SearchResult> results(pairs.size());
  util::ParallelFor(e.Pool(), pairs.size(), [&](std::size_t i) {
    results[i] = search.Run(pairs[i].second, pairs[i].first);
  });

  util::Table table({"attacker(tier)", "victim(tier)", "pct_paper",
                     "pct_best", "gap_pts", "scored", "best_program"});
  util::Summary gap_summary;
  bool dominated = true;
  std::size_t mismatches = 0;
  double worst_gap = -1.0;
  std::size_t worst = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const strategy::SearchResult& r = results[i];
    table.Row()
        .Cell(util::Format("AS%u(t%d)", pairs[i].first,
                           tiers.TierOf(pairs[i].first)))
        .Cell(util::Format("AS%u(t%d)", pairs[i].second,
                           tiers.TierOf(pairs[i].second)))
        .Cell(100.0 * r.paper_after, 2)
        .Cell(100.0 * r.best.fraction_after, 2)
        .Cell(100.0 * r.gap, 2)
        .Cell(r.programs_scored)
        .Cell(r.best.program.KeyString());
    gap_summary.Add(100.0 * r.gap);
    mismatches += r.engine_mismatches;
    if (r.gap < 0.0) {
      dominated = false;
      std::fprintf(stderr,
                   "DOMINANCE VIOLATION: pair AS%u->AS%u best %.6f below "
                   "paper %.6f\n",
                   pairs[i].first, pairs[i].second, r.best.fraction_after,
                   r.paper_after);
    }
    if (r.gap > worst_gap) {
      worst_gap = r.gap;
      worst = i;
    }
  }
  e.PrintTable(table);

  e.Note("\nmean gap over the paper model: %.2f points (max %.2f)",
         gap_summary.Mean(), gap_summary.max);
  if (!pairs.empty()) {
    e.Note("largest-gap program (AS%u vs AS%u):\n%s", pairs[worst].first,
           pairs[worst].second,
           strategy::Describe(results[worst].best.program).c_str());
  }

  bool failed = false;
  if (!dominated) {
    e.Note("FAIL: search scored below the paper model on some pair — the "
           "optimizer lost a point of its own search space (see stderr)");
    failed = true;
  }
  if (options.verify_engines) {
    if (mismatches == 0) {
      e.Note("equivalence: every scored program matches the Resume oracle "
             "bit-identically");
    } else {
      e.Note("FAIL: %zu scored program(s) differ from the Resume oracle",
             mismatches);
      failed = true;
    }
  }
  return e.Finish(failed ? 1 : 0);
}
