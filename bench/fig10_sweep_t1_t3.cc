// Reproduces paper Figure 10: pollution vs prepend count when a tier-1
// hijacks a lower-tier content AS (the paper's "AT&T (AS7018) hijacks
// Facebook (AS32934)").
//
// Paper shape: 82 % at λ=2, >99 % for λ≥3 — nearly the whole Internet
// reaches the low-tier victim through provider/peer routes that the
// higher-tier attacker's stripped route beats.
#include "attack/scenarios.h"
#include "bench/bench_common.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e(
      "Figure 10: pollution vs prepended ASNs (tier-1 hijacks content AS)",
      "AT&T hijacks Facebook: 82% at lambda=2, >99% from 3 on");
  e.WithTopologyFlags();
  e.WithDefenseFlags();
  e.Flags().DefineInt("max_lambda", 8, "largest prepend count to sweep");
  if (!e.ParseFlags(argc, argv)) return 1;

  const topo::GeneratedTopology& topology = e.GenerateTopology();
  attack::SweepScenario scenario = attack::Tier1VsContent(topology);
  e.Note("scenario: attacker AS%u (tier-1) hijacks victim AS%u (content)",
         scenario.attacker, scenario.victim);
  const auto deployment = e.DefenseDeployment(topology.graph, scenario.victim,
                                              scenario.attacker);
  auto rows = bench::LambdaSweep(topology.graph, scenario.victim,
                                 scenario.attacker,
                                 static_cast<int>(e.Flags().GetInt("max_lambda")),
                                 /*violate_valley_free=*/false, e.Pool(),
                                 e.Baseline(), deployment.get());
  e.PrintTable(
      bench::SweepTable(rows, "pct_after_hijack", "pct_before_hijack"));
  e.Note("shape check (paper): saturates close to 100%% once lambda >= 3.");
  return e.Finish();
}
