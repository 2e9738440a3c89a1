// Reproduces paper Figure 9: pollution vs the victim's prepend count when a
// tier-1 hijacks a tier-1 (the paper's "Sprint (AS1239) hijacks AT&T
// (AS7018)").
//
// Paper shape: λ=1 → ~30 % (no advantage, equals the pre-attack share);
// λ=2 → ~80 %; λ≥3 → >95 %, then a plateau.
#include "attack/scenarios.h"
#include "bench/bench_common.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e(
      "Figure 9: pollution vs prepended ASNs (tier-1 hijacks tier-1)",
      "Sprint hijacks AT&T: 30% at lambda=1, 80% at 2, >95% at 3-4, plateau");
  e.WithTopologyFlags();
  e.WithDefenseFlags();
  e.Flags().DefineInt("max_lambda", 8, "largest prepend count to sweep");
  if (!e.ParseFlags(argc, argv)) return 1;

  const topo::GeneratedTopology& topology = e.GenerateTopology();
  attack::SweepScenario scenario = attack::Tier1VsTier1(topology);
  e.Note("scenario: attacker AS%u hijacks victim AS%u", scenario.attacker,
         scenario.victim);
  const auto deployment = e.DefenseDeployment(topology.graph, scenario.victim,
                                              scenario.attacker);
  auto rows = bench::LambdaSweep(topology.graph, scenario.victim,
                                 scenario.attacker,
                                 static_cast<int>(e.Flags().GetInt("max_lambda")),
                                 /*violate_valley_free=*/false, e.Pool(),
                                 e.Baseline(), deployment.get());
  e.PrintTable(
      bench::SweepTable(rows, "pct_after_hijack", "pct_before_hijack"));
  e.Note(
      "shape check (paper): sharp rise from lambda=1 to 2-3, then plateau; "
      "lambda=1 equals the before-hijack share.");
  return e.Finish();
}
