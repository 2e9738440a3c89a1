// Ablation: victim-specific vantage-point selection (the paper's stated
// future work, §V-B/§VIII) vs generic top-degree placement.
//
// For several victims of different tiers, a greedy coverage optimizer picks
// `budget` monitors tailored to the victim from simulated training attacks;
// held-out attacks then measure detection rate for the tailored set vs the
// same budget of generic top-degree monitors.
#include <algorithm>

#include "attack/scenarios.h"
#include "bench/bench_common.h"
#include "detect/evaluation.h"
#include "detect/monitors.h"
#include "detect/placement.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e(
      "Ablation: victim-specific monitor placement (self-defense)",
      "future work of §V-B: tailored vantage points vs generic top-degree");
  e.WithTopologyFlags();
  e.Flags().DefineUint("budget", 15, "monitors per victim");
  e.Flags().DefineUint("victims", 6, "number of victims evaluated");
  e.Flags().DefineUint("heldout", 40, "held-out attacks per victim");
  e.Flags().DefineInt("lambda", 3, "victim prepend count");
  int lambda = 0;
  if (!e.ParseFlags(argc, argv) || !e.LambdaFlag(&lambda)) return 1;

  const topo::GeneratedTopology& topology = e.GenerateTopology();
  const std::size_t budget = e.Flags().GetUint("budget");
  // Held-out attacks share each victim's attack-free baseline via the cache.
  attack::AttackSimulator simulator(topology.graph, e.Baseline());
  auto generic = detect::TopDegreeMonitors(topology.graph, budget);
  detect::DetectionConfig detection;
  detection.lambda = lambda;

  // Victims across tiers.
  std::vector<topo::Asn> victims;
  victims.push_back(topology.tier1[0]);
  victims.push_back(topology.tier2[0]);
  victims.push_back(topology.tier2[topology.tier2.size() / 2]);
  victims.push_back(topology.tier3[0]);
  victims.push_back(topology.content[0]);
  victims.push_back(topology.stubs[0]);
  if (victims.size() > e.Flags().GetUint("victims")) {
    victims.resize(e.Flags().GetUint("victims"));
  }

  util::Table table({"victim", "tailored_detect_pct", "topdegree_detect_pct",
                     "heldout_effective"});
  for (topo::Asn victim : victims) {
    detect::PlacementConfig placement;
    placement.budget = budget;
    placement.candidate_pool = 120;
    placement.training_attacks = 40;
    placement.lambda = lambda;
    placement.seed = e.Flags().GetUint("seed") + victim;
    placement.pool = e.Pool();
    detect::PlacementResult placed =
        detect::SelectMonitorsForVictim(topology.graph, victim, placement);

    util::Rng rng(util::DeriveSeed(e.Flags().GetUint("seed"), victim));
    std::size_t effective = 0, tailored_hits = 0, generic_hits = 0;
    for (std::size_t i = 0; i < e.Flags().GetUint("heldout"); ++i) {
      topo::Asn attacker =
          topology.graph.AsnAt(rng.Below(topology.graph.NumAses()));
      if (attacker == victim) continue;
      auto outcome = simulator.RunAsppInterception(victim, attacker, lambda);
      if (outcome.newly_polluted.empty()) continue;
      ++effective;
      if (detect::EvaluateDetectionOnOutcome(topology.graph, outcome,
                                             placed.monitors, detection)
              .detected) {
        ++tailored_hits;
      }
      if (detect::EvaluateDetectionOnOutcome(topology.graph, outcome, generic,
                                             detection)
              .detected) {
        ++generic_hits;
      }
    }
    double n = static_cast<double>(std::max<std::size_t>(effective, 1));
    table.Row()
        .Cell(util::Format("AS%u", victim))
        .Cell(100.0 * static_cast<double>(tailored_hits) / n, 1)
        .Cell(100.0 * static_cast<double>(generic_hits) / n, 1)
        .Cell(effective);
  }
  e.PrintTable(table);
  e.Note(
      "\ncheck: at equal budget the tailored selection typically matches or\n"
      "beats generic top-degree placement (held-out sets are small, so a few\n"
      "percentage points of noise per victim are expected). Tier-1 victims\n"
      "stay hard regardless: their attackers are direct neighbors — the\n"
      "paper's corner case needing the victim-aware rule.");
  return e.Finish();
}
