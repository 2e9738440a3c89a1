// Defense deployment sweep: interception success vs deployment fraction for
// the three placement strategies — the "how do we stop it" figure the paper
// stops short of.
//
// For each strategy (top-degree, random, victim-cone) and each deployment
// fraction, the first ⌈f·n⌉ ASes of that strategy's adoption ordering run the
// --policies import filter (defense/policy.h) while the ASPP interceptor
// attacks; each point averages the post-attack pollution over --pairs random
// (victim, attacker) pairs. Deployments are nested prefixes of one fixed
// per-(strategy, pair) ordering, so the curves are monotone by construction
// of the experiment, not by luck of independent samples.
//
// Two acceptance gates, both of which fail the run (exit 1):
//   * engines:  every reported outcome is checked against the Resume
//               oracle (attack::DiffAgainstResume) and must match it
//               bit-for-bit (fractions, pollution sets, best routes,
//               Adj-RIB-In, round counts) — the defense layer
//               must not break the delta engine's equivalence with the full
//               engine. Disable with --verify-engines=false.
//   * monotone: within a strategy, mean pollution must not increase with the
//               deployment fraction (equality allowed — ROV alone is blind
//               to ASPP interception and yields a flat curve).
//
// Expected shape: top-degree collapses interception fastest (transit
// providers see most paths); victim-cone is close behind (it shields the
// routes the attacker must cross to reach the victim's neighborhood); random
// needs a far larger fraction for the same effect ("Ain't How Much, It's How
// You Deploy", PAPERS.md). --smoke shrinks the topology and point counts to
// CI size; CI publishes the --json report as BENCH_defense.json.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/experiment.h"
#include "defense/sweep.h"
#include "util/table.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e(
      "Defense sweep: interception success vs deployment fraction",
      "top-degree placement collapses interception fastest, victim-cone "
      "close behind, random far behind; monotone within each strategy");
  e.WithTopologyFlags();
  e.Flags().DefineBool("smoke", false,
                       "CI-sized run: small topology, fewer fractions and "
                       "pairs");
  e.Flags().DefineUint("pairs", 8,
                       "random (victim, attacker) pairs averaged per point");
  e.Flags().DefineInt("lambda", 4, "victim prepend count");
  e.Flags().DefineString("policies", "all",
                         "policies every deployed AS runs: rov / pathval / "
                         "detector / all, or '+'-joined");
  e.Flags().DefineBool("verify-engines", true,
                       "check every point against the Resume oracle and "
                       "require bit-identical attacked states");
  int lambda = 0;
  if (!e.ParseFlags(argc, argv) || !e.LambdaFlag(&lambda)) return 1;

  const bool smoke = e.Flags().GetBool("smoke");
  topo::GeneratorParams params = e.Params();
  defense::DefenseSweepOptions options;
  options.lambda = lambda;
  options.num_pairs = static_cast<std::size_t>(e.Flags().GetUint("pairs"));
  options.fractions = {0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
  if (smoke) {
    params.num_tier1 = std::min<std::size_t>(params.num_tier1, 5);
    params.num_tier2 = std::min<std::size_t>(params.num_tier2, 40);
    params.num_tier3 = std::min<std::size_t>(params.num_tier3, 150);
    params.num_stubs = std::min<std::size_t>(params.num_stubs, 600);
    params.num_content = std::min<std::size_t>(params.num_content, 10);
    params.num_sibling_pairs =
        std::min<std::size_t>(params.num_sibling_pairs, 5);
    options.fractions = {0.0, 0.5, 1.0};
    options.num_pairs = std::min<std::size_t>(options.num_pairs, 4);
  }
  const std::optional<std::uint8_t> kinds =
      defense::ParsePolicyKinds(e.Flags().GetString("policies"));
  if (!kinds.has_value()) {
    std::fprintf(stderr, "error: unknown --policies '%s'\n",
                 e.Flags().GetString("policies").c_str());
    return 1;
  }
  options.kinds = *kinds;
  options.seed = params.seed;
  options.verify_engines = e.Flags().GetBool("verify-engines");

  const topo::GeneratedTopology& topology = e.GenerateTopology(params);
  options.pool = e.Pool();
  options.baseline_cache = e.Baseline();

  e.Note("sweep: %zu fractions x 3 strategies, %zu pairs, lambda=%d, "
         "policies=%s%s",
         options.fractions.size(), options.num_pairs, options.lambda,
         defense::PolicyKindsName(options.kinds).c_str(),
         options.verify_engines ? ", engine equivalence gated" : "");

  const std::vector<defense::DefenseSweepPoint> points =
      defense::RunDefenseSweep(topology.graph, options);

  util::Table table(
      {"strategy", "frac", "deployed", "pct_before", "pct_after"});
  bool engines_agree = true;
  bool monotone = true;
  const defense::Strategy* last_strategy = nullptr;
  double last_after = 0.0;
  for (const defense::DefenseSweepPoint& point : points) {
    table.Row()
        .Cell(defense::StrategyName(point.strategy))
        .Cell(point.fraction, 2)
        .Cell(point.mean_deployed, 1)
        .Cell(100.0 * point.mean_fraction_before, 2)
        .Cell(100.0 * point.mean_fraction_after, 2);
    engines_agree = engines_agree && point.engines_agree;
    // Nested deployments: within a strategy each larger fraction only adds
    // filtering ASes, so pollution must not rise. Equality is fine; a tiny
    // epsilon absorbs the mean's floating-point summation order.
    if (last_strategy != nullptr && *last_strategy == point.strategy &&
        point.mean_fraction_after > last_after + 1e-9) {
      monotone = false;
      std::fprintf(stderr,
                   "MONOTONICITY VIOLATION: %s frac %.2f pollution %.6f > "
                   "previous point's %.6f\n",
                   defense::StrategyName(point.strategy), point.fraction,
                   point.mean_fraction_after, last_after);
    }
    last_strategy = &point.strategy;
    last_after = point.mean_fraction_after;
  }
  e.PrintTable(table);

  e.Note("shape check: top-degree should reach low pollution at the "
         "smallest fraction, random the largest; fraction 0 is the "
         "undefended Fig. 7/8 operating point.");
  bool failed = false;
  if (options.verify_engines) {
    if (engines_agree) {
      e.Note("equivalence: every sweep point matches the Resume oracle "
             "bit-identically");
    } else {
      e.Note("FAIL: a defended attack state differs from the Resume "
             "oracle");
      failed = true;
    }
  }
  if (!monotone) {
    e.Note("FAIL: pollution increased with deployment fraction (see stderr)");
    failed = true;
  }
  return e.Finish(failed ? 1 : 0);
}
