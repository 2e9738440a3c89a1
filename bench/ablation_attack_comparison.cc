// Ablation: the ASPP interception vs the two classic hijack models the paper
// positions itself against (§II-B):
//   * origin hijack ([M…M]) — blackholes, but creates a MOAS conflict,
//   * Ballani interception ([M V]) — transparent, but fabricates an M–V link,
//   * ASPP interception ([M * V]) — transparent AND introduces neither
//     anomaly, which is the paper's core claim.
//
// For each model we measure pollution, whether traffic still reaches the
// victim, and which classic control-plane signal (MOAS / unknown link) a
// legacy detector would see on the polluted routes.
#include "attack/impact.h"
#include "attack/scenarios.h"
#include "bench/bench_common.h"

using namespace asppi;

namespace {

struct Signals {
  double polluted = 0.0;        // fraction traversing the attacker
  double delivered = 0.0;       // of polluted, fraction whose path ends at V
  bool moas = false;            // some AS sees a different origin
  bool unknown_link = false;    // some best path uses a non-existent link
};

Signals Analyze(const topo::AsGraph& graph, const attack::AttackOutcome& out) {
  Signals s;
  s.polluted = out.fraction_after;
  std::size_t polluted = 0, delivered = 0;
  for (topo::Asn asn : graph.Ases()) {
    const auto& best = out.after.BestAt(asn);
    if (!best) continue;
    if (best->path.OriginAs() != out.victim) s.moas = true;
    std::vector<topo::Asn> seq = best->path.DistinctSequence();
    if (!seq.empty() && !graph.HasLink(asn, seq.front())) s.unknown_link = true;
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      if (!graph.HasLink(seq[i], seq[i + 1])) s.unknown_link = true;
    }
    if (asn == out.attacker || asn == out.victim) continue;
    if (best->path.Contains(out.attacker)) {
      ++polluted;
      if (best->path.OriginAs() == out.victim) ++delivered;
    }
  }
  s.delivered = polluted == 0 ? 0.0
                              : static_cast<double>(delivered) /
                                    static_cast<double>(polluted);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Experiment e("Ablation: attack models compared (paper §II-B)",
                      "ASPP interception is transparent AND anomaly-free");
  e.WithTopologyFlags();
  e.Flags().DefineInt("lambda", 4, "victim prepend count");
  int lambda = 0;
  if (!e.ParseFlags(argc, argv) || !e.LambdaFlag(&lambda)) return 1;

  const topo::GeneratedTopology& topology = e.GenerateTopology();
  attack::SweepScenario scenario = attack::Tier1VsContent(topology);
  e.Note("scenario: AS%u attacks AS%u's prefix (lambda=%d)\n",
         scenario.attacker, scenario.victim, lambda);

  // All three attack models share the same (victim, λ) attack-free baseline;
  // the cache computes it once.
  attack::AttackSimulator simulator(topology.graph, e.Baseline());
  struct NamedOutcome {
    const char* name;
    attack::AttackOutcome outcome;
  };
  std::vector<NamedOutcome> runs;
  runs.push_back({"aspp-interception",
                  simulator.RunAsppInterception(scenario.victim,
                                                scenario.attacker, lambda)});
  runs.push_back({"origin-hijack",
                  simulator.RunOriginHijack(scenario.victim, scenario.attacker,
                                            lambda)});
  runs.push_back({"ballani-interception",
                  simulator.RunBallaniInterception(scenario.victim,
                                                   scenario.attacker, lambda)});

  util::Table table({"attack", "pct_polluted", "pct_traffic_delivered",
                     "moas_visible", "fake_link_visible"});
  for (const NamedOutcome& run : runs) {
    Signals s = Analyze(topology.graph, run.outcome);
    table.Row()
        .Cell(run.name)
        .Cell(100.0 * s.polluted, 1)
        .Cell(100.0 * s.delivered, 1)
        .Cell(s.moas ? "YES" : "no")
        .Cell(s.unknown_link ? "YES" : "no");
  }
  e.PrintTable(table);
  e.Note(
      "\ncheck: only the ASPP interception combines delivery (no blackhole,\n"
      "no end-user symptom) with neither MOAS nor fake-link anomalies —\n"
      "classic control-plane detectors have nothing to flag.");
  return e.Finish();
}
