// Reproduces paper Figure 14: CDF of the fraction of (eventually-polluted)
// ASes that were already polluted when the attack was first detected, with
// the top-150-degree monitors.
//
// Paper anchor: 80 % of experiments are detected with less than 37 % of the
// polluted ASes already switched.
#include "attack/scenarios.h"
#include "bench/bench_common.h"
#include "detect/evaluation.h"
#include "detect/monitors.h"
#include "util/stats.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e(
      "Figure 14: fraction of ASes polluted before detection",
      "CDF over 200 attacks, 150 monitors; 80% of runs below 0.37");
  e.WithTopologyFlags();
  e.Flags().DefineUint("instances", 200, "number of attacker/victim pairs");
  e.Flags().DefineUint("monitors", 150, "number of top-degree monitors");
  e.Flags().DefineInt("lambda", 3, "victim prepend count");
  int lambda = 0;
  if (!e.ParseFlags(argc, argv) || !e.LambdaFlag(&lambda)) return 1;

  const topo::GeneratedTopology& topology = e.GenerateTopology();
  auto pairs = attack::SampleRandomPairs(topology, e.Flags().GetUint("instances"),
                                         e.Flags().GetUint("seed") + 14);
  attack::AttackSimulator simulator(topology.graph, e.Baseline());
  auto monitors =
      detect::TopDegreeMonitors(topology.graph, e.Flags().GetUint("monitors"));
  detect::DetectionConfig config;
  config.lambda = lambda;

  // Per-pair results land in input-index slots; the CDF below consumes them
  // in input order, so the figure is identical for any --threads value.
  std::vector<detect::DetectionResult> results(pairs.size());
  e.Pool()->ParallelFor(pairs.size(), [&](std::size_t p) {
    const auto& [attacker, victim] = pairs[p];
    results[p] = detect::EvaluateDetection(simulator, victim, attacker,
                                           monitors, config);
  });

  std::vector<double> fractions;
  std::size_t undetected = 0, effective = 0;
  for (const detect::DetectionResult& result : results) {
    if (!result.effective) continue;
    ++effective;
    if (!result.detected) {
      ++undetected;
      fractions.push_back(1.0);  // everything polluted before "detection"
      continue;
    }
    fractions.push_back(result.polluted_before_detection);
  }

  util::Cdf cdf(fractions);
  util::Table table({"frac_polluted_before_detection", "cdf"});
  for (double x = 0.0; x <= 1.0001; x += 0.05) {
    table.Row().Cell(x, 2).Cell(cdf.At(x), 3);
  }
  e.PrintTable(table);
  e.Note("\neffective attacks: %zu; undetected: %zu; CDF at 0.37: %.2f",
         effective, undetected, cdf.At(0.37));
  e.Note("shape check (paper): most mass at small fractions — ~80%% of "
         "runs below 0.37.");
  return e.Finish();
}
