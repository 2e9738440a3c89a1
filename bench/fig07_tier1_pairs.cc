// Reproduces paper Figure 7: pollution across 80 tier-1-vs-tier-1 hijack
// instances (λ=3), ranked by post-attack pollution, with the pre-attack
// fraction alongside.
//
// Paper shape: ~40 % typical pollution; a long tail of instances below 5 %
// (victims whose customers are richly peered resist the attack).
#include <cstdio>

#include "attack/impact.h"
#include "attack/scenarios.h"
#include "bench/bench_common.h"
#include "strategy/model.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e(
      "Figure 7: polluted ASes, tier-1 attacker vs tier-1 victim",
      "80 instances, prepended ASN=3, ranked by pollution");
  e.WithTopologyFlags();
  e.WithDefenseFlags();
  e.Flags().DefineUint("instances", 80, "number of hijack instances");
  e.Flags().DefineInt("lambda", 3, "victim prepend count");
  e.Flags().DefineString("attacker-model", "paper",
                         "attacker model: paper, stealth (strip to λ-1), or "
                         "search (beam-optimized program per pair)");
  int lambda = 0;
  if (!e.ParseFlags(argc, argv) || !e.LambdaFlag(&lambda)) return 1;
  const auto model =
      strategy::ParseAttackerModel(e.Flags().GetString("attacker-model"));
  if (!model) {
    std::fprintf(stderr, "error: unknown --attacker-model '%s'\n",
                 e.Flags().GetString("attacker-model").c_str());
    return 1;
  }

  const topo::GeneratedTopology& topology = e.GenerateTopology();
  // Corpus-wide deployment (victim/attacker 0): one fixed plan filters every
  // instance, like a real partial-adoption Internet would.
  const auto deployment = e.DefenseDeployment(topology.graph, 0, 0);
  auto pairs = attack::SampleTier1Pairs(topology, e.Flags().GetUint("instances"),
                                        e.Flags().GetUint("seed") + 7);
  // Two attacker-export models bracket the paper's result (see DESIGN.md):
  // the aggressive model re-announces the stripped route to peers too
  // (paper §VI-B language), the strict model keeps the attacker's own
  // valley-free export class, bounding pollution by its customer cone —
  // which is where the paper's ~40 % mean and low-impact tail live.
  //
  // The attack-free baseline depends only on (victim, λ), so one shared
  // cache serves both export models: the strict sweep is all cache hits.
  attack::PairSweepOptions options;
  options.lambda = lambda;
  options.pool = e.Pool();
  options.baseline_cache = e.Baseline();
  options.filter = deployment.get();
  options.export_stripped_to_peers = true;
  auto aggressive =
      strategy::RunModelPairSweep(topology.graph, pairs, *model, options);
  options.export_stripped_to_peers = false;
  auto strict =
      strategy::RunModelPairSweep(topology.graph, pairs, *model, options);

  util::Table table({"rank", "attacker", "victim", "pct_after_strict",
                     "pct_after_aggressive", "pct_before_hijack"});
  util::Summary strict_summary, aggressive_summary;
  std::size_t below5 = 0;
  for (std::size_t i = 0; i < strict.size(); ++i) {
    const auto& r = strict[i];
    // Match the aggressive result for the same pair.
    double aggr = 0.0;
    for (const auto& a : aggressive) {
      if (a.attacker == r.attacker && a.victim == r.victim) {
        aggr = a.after;
        break;
      }
    }
    table.Row()
        .Cell(i + 1)
        .Cell(util::Format("AS%u", r.attacker))
        .Cell(util::Format("AS%u", r.victim))
        .Cell(100.0 * r.after, 1)
        .Cell(100.0 * aggr, 1)
        .Cell(100.0 * r.before, 1);
    strict_summary.Add(100.0 * r.after);
    aggressive_summary.Add(100.0 * aggr);
    if (r.after < 0.05) ++below5;
  }
  e.PrintTable(table);
  e.Note("\nmean pollution: strict=%.1f%% aggressive=%.1f%%; strict "
         "instances below 5%%: %zu of %zu",
         strict_summary.Mean(), aggressive_summary.Mean(), below5,
         strict.size());
  e.Note("shape check (paper): ~40%% typical with a low-impact tail — "
         "matched by the strict-export model; the aggressive model is "
         "the upper envelope.");
  if (*model != strategy::AttackerModel::kPaper) {
    e.Note("attacker model: %s (paper-model rows are the figure's shape; "
           "this run measures the variant).",
           strategy::AttackerModelName(*model));
  }
  return e.Finish();
}
