// Reproduces paper Figure 12: pollution vs prepend count with a small
// attacker and a small victim (the paper's "AS30209 hijacks AS12734").
//
// Paper shape: obeying valley-free the polluted set is very small (the
// attacker can only reach its own customers); violating policy the impact
// becomes significant as the victim pads more (up to ~60 %).
#include "attack/scenarios.h"
#include "bench/bench_common.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e(
      "Figure 12: pollution vs prepended ASNs (small hijacks small)",
      "AS30209 hijacks AS12734: tiny when valley-free, significant when "
      "violating policy");
  e.WithTopologyFlags();
  e.WithDefenseFlags();
  e.Flags().DefineInt("max_lambda", 8, "largest prepend count to sweep");
  if (!e.ParseFlags(argc, argv)) return 1;

  const topo::GeneratedTopology& topology = e.GenerateTopology();
  attack::SweepScenario scenario = attack::SmallVsSmall(topology);
  e.Note("scenario: attacker AS%u hijacks victim AS%u (both small transits)",
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
      "shape check (paper): valley-free stays near zero; violating grows "
      "with lambda to a large fraction.");
  return e.Finish();
}
