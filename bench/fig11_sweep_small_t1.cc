// Reproduces paper Figure 11: pollution vs prepend count when a small
// content AS hijacks a tier-1 (the paper's "Facebook (AS32934) hijacks NTT
// (AS2914)"), with two attacker behaviours:
//   * follow valley-free: export only per policy — surprisingly effective
//     (~38 % in the paper) because of the real-world chain the paper found
//     (victim's sibling Limelight is a customer of the attacker, and the
//     attacker's provider Akamai is richly peered). We engineer the same
//     chain into the topology.
//   * violate routing policy: the attacker re-announces the shortest
//     stripped route to everyone.
#include "attack/scenarios.h"
#include "bench/bench_common.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e(
      "Figure 11: pollution vs prepended ASNs (content AS hijacks tier-1)",
      "Facebook hijacks NTT: valley-free reaches ~38% via the sibling chain; "
      "violating policy reaches further");
  e.WithTopologyFlags();
  e.WithDefenseFlags();
  e.Flags().DefineInt("max_lambda", 8, "largest prepend count to sweep");
  if (!e.ParseFlags(argc, argv)) return 1;

  e.GenerateTopology();
  attack::SweepScenario scenario =
      attack::EngineerContentVsTier1(e.MutableTopology());
  const topo::GeneratedTopology& topology = e.Topology();
  e.Note("scenario: attacker AS%u (content) hijacks victim AS%u (tier-1); "
         "sibling chain engineered",
         scenario.attacker, scenario.victim);
  const auto deployment = e.DefenseDeployment(topology.graph, scenario.victim,
                                              scenario.attacker);

  // One shared baseline cache: the attack-free state per λ is independent of
  // the attacker's export model, so the violate sweep is all cache hits.
  const int max_lambda = static_cast<int>(e.Flags().GetInt("max_lambda"));
  auto obey = bench::LambdaSweep(topology.graph, scenario.victim,
                                 scenario.attacker, max_lambda,
                                 /*violate_valley_free=*/false, e.Pool(),
                                 e.Baseline(), deployment.get());
  auto violate = bench::LambdaSweep(topology.graph, scenario.victim,
                                    scenario.attacker, max_lambda,
                                    /*violate_valley_free=*/true, e.Pool(),
                                    e.Baseline(), deployment.get());

  util::Table table({"num_prepending_asns", "pct_follow_valley_free",
                     "pct_violate_routing_policy", "pct_before_hijack"});
  for (std::size_t i = 0; i < obey.size(); ++i) {
    table.Row()
        .Cell(obey[i].lambda)
        .Cell(100.0 * obey[i].after, 1)
        .Cell(100.0 * violate[i].after, 1)
        .Cell(100.0 * obey[i].before, 1);
  }
  e.PrintTable(table);
  e.Note(
      "shape check (paper): valley-free series rises to a ~38%% plateau; the "
      "violating series is at least as large, growing with lambda.");
  return e.Finish();
}
