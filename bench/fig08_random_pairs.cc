// Reproduces paper Figure 8: pollution across 27 random attacker/victim
// pairs (mostly low-tier ASes), ranked by post-attack pollution.
//
// Paper shape: mostly less effective than the tier-1 cases — edge attackers
// see few of the victim's routes and have long paths to the rest of the
// Internet.
#include <cstdio>

#include "attack/impact.h"
#include "attack/scenarios.h"
#include "bench/bench_common.h"
#include "strategy/model.h"
#include "topology/tiers.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e("Figure 8: polluted ASes, random attacker/victim pairs",
                      "27 sampled instances (mostly tier-4/5), ranked");
  e.WithTopologyFlags();
  e.WithDefenseFlags();
  e.Flags().DefineUint("instances", 27, "number of hijack instances");
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
  topo::TierInfo tiers = topo::ClassifyTiers(topology.graph);
  auto pairs = attack::SampleRandomPairs(topology, e.Flags().GetUint("instances"),
                                         e.Flags().GetUint("seed") + 8);
  attack::PairSweepOptions options;
  options.lambda = lambda;
  options.pool = e.Pool();
  options.filter = deployment.get();
  auto results =
      strategy::RunModelPairSweep(topology.graph, pairs, *model, options);

  util::Table table({"rank", "attacker(tier)", "victim(tier)",
                     "pct_after_hijack", "pct_before_hijack"});
  util::Summary after_summary;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    table.Row()
        .Cell(i + 1)
        .Cell(util::Format("AS%u(t%d)", r.attacker,
                           tiers.TierOf(r.attacker)))
        .Cell(util::Format("AS%u(t%d)", r.victim, tiers.TierOf(r.victim)))
        .Cell(100.0 * r.after, 1)
        .Cell(100.0 * r.before, 1);
    after_summary.Add(100.0 * r.after);
  }
  e.PrintTable(table);
  e.Note("\nmean pollution after hijack: %.1f%% (max %.1f%%)",
         after_summary.Mean(), after_summary.max);
  e.Note("shape check (paper): random edge pairs are mostly less "
         "effective than tier-1 pairs (Fig. 7).");
  if (*model != strategy::AttackerModel::kPaper) {
    e.Note("attacker model: %s (paper-model rows are the figure's shape; "
           "this run measures the variant).",
           strategy::AttackerModelName(*model));
  }
  return e.Finish();
}
