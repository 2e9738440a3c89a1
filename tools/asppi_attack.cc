// asppi_attack — run an ASPP interception on a topology file and report the
// damage.
//
//   $ asppi_attack --topo=topology.topo --victim=3831 --attacker=1 --lambda=4
//
// With --attacker=0 every other AS is tried as the attacker (a full
// single-victim pair sweep, parallelized over --threads with one shared
// attack-free baseline) and the most damaging instances are printed.
#include <cstdio>

#include "attack/impact.h"
#include "bench/experiment.h"
#include "util/strings.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e("asppi_attack", "ASPP interception on a topology file");
  e.WithThreadsFlag();
  e.Flags().DefineString("topo", "topology.topo",
                         "as-rel topology file or binary snapshot");
  e.Flags().DefineUint("victim", 0, "victim ASN (prefix owner)");
  e.Flags().DefineUint("attacker", 0,
                       "attacker ASN (0 = sweep every AS as the attacker)");
  e.Flags().DefineInt("lambda", 4, "victim prepend count");
  e.Flags().DefineBool("violate", false,
                       "attacker violates valley-free export");
  e.Flags().DefineInt("show", 8,
                      "number of hijacked routes / sweep rows to print");
  int lambda = 0;
  if (!e.ParseFlags(argc, argv) || !e.LambdaFlag(&lambda)) return 1;

  topo::AsGraph loaded_graph;
  data::Snapshot snapshot;
  const topo::AsGraph* graph_ptr = e.LoadTopologyOrSnapshot(
      e.Flags().GetString("topo"), &loaded_graph, &snapshot);
  if (graph_ptr == nullptr) return 1;
  const topo::AsGraph& graph = *graph_ptr;
  topo::Asn victim = 0;
  topo::Asn attacker = 0;
  if (!e.AsnFlag("victim", &victim) || !e.AsnFlag("attacker", &attacker)) {
    return 1;
  }
  if (!graph.HasAs(victim)) {
    std::fprintf(stderr, "need --victim present in the topology\n");
    return 1;
  }
  const int show = static_cast<int>(e.Flags().GetInt("show"));

  e.Note("topology: %zu ASes, %zu links", graph.NumAses(), graph.NumLinks());

  if (attacker == 0) {
    // Sweep mode: every AS attacks `victim`; the baseline cache computes the
    // victim's attack-free propagation exactly once for the whole sweep.
    std::vector<std::pair<topo::Asn, topo::Asn>> pairs;
    for (topo::Asn asn : graph.Ases()) {
      if (asn != victim) pairs.emplace_back(asn, victim);
    }
    attack::PairSweepOptions options;
    options.lambda = lambda;
    options.violate_valley_free = e.Flags().GetBool("violate");
    options.pool = e.Pool();
    auto results = attack::RunPairSweep(graph, pairs, options);
    e.Note("sweep: %zu candidate attackers against AS%u (lambda=%d), "
           "top %d by pollution:",
           results.size(), victim, lambda, show);
    util::Table table({"rank", "attacker", "pct_before", "pct_after"});
    int rank = 0;
    for (const auto& row : results) {
      if (rank++ >= show) break;
      std::printf("  %2d. AS%-7u %6.2f%% -> %6.2f%%\n", rank, row.attacker,
                  100.0 * row.before, 100.0 * row.after);
      table.Row()
          .Cell(rank)
          .Cell(util::Format("AS%u", row.attacker))
          .Cell(100.0 * row.before, 2)
          .Cell(100.0 * row.after, 2);
    }
    e.RecordTable(table);
    return e.Finish();
  }

  if (!graph.HasAs(attacker) || victim == attacker) {
    std::fprintf(stderr,
                 "need distinct --victim and --attacker present in the "
                 "topology\n");
    return 1;
  }

  attack::AttackSimulator simulator(graph);
  attack::AttackOutcome outcome = simulator.RunAsppInterception(
      victim, attacker, lambda, e.Flags().GetBool("violate"));

  e.Note("AS%u intercepts AS%u's prefix (lambda=%d%s)", attacker, victim,
         lambda, e.Flags().GetBool("violate") ? ", violating policy" : "");
  e.Note("paths traversing the attacker: %.2f%% -> %.2f%% "
         "(%zu newly polluted ASes)",
         100.0 * outcome.fraction_before, 100.0 * outcome.fraction_after,
         outcome.newly_polluted.size());

  int remaining = show;
  for (topo::Asn asn : outcome.newly_polluted) {
    if (remaining-- <= 0) break;
    const auto& was = outcome.before->BestAt(asn);
    const auto& now = outcome.after.BestAt(asn);
    std::printf("  AS%-7u %s  ->  %s\n", asn,
                was ? was->path.ToString().c_str() : "<none>",
                now ? now->path.ToString().c_str() : "<none>");
  }
  return e.Finish();
}
