// asppi_strategy — beam-search the strategic-attacker space on a topology
// file and report the worst program found against the paper's interceptor.
//
//   $ asppi_strategy --topo=topology.topo --victim=3831 --attacker=1 \
//       --lambda=4 --beam=4 --rounds=2
//
// --colluders adds accomplices (comma-separated ASNs) so the search runs
// over a colluding set; the attacker is always part of it. The dominance
// guarantee prints as paper-vs-best: best is never below paper, because the
// paper model seeds the beam. --verify-engines checks every scored candidate
// against the Resume oracle and fails (exit 1) on any state mismatch.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiment.h"
#include "strategy/program.h"
#include "strategy/search.h"
#include "util/strings.h"

using namespace asppi;

namespace {

// "174,3356" -> sorted unique ASNs; false on any unparsable piece.
bool ParseAsnList(const std::string& text, std::vector<topo::Asn>* out) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string piece = text.substr(start, comma - start);
    if (!piece.empty()) {
      const std::optional<std::uint32_t> asn = util::ParseAsn(piece);
      if (!asn.has_value()) return false;
      out->push_back(*asn);
    }
    start = comma + 1;
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Experiment e("asppi_strategy",
                      "strategic-attacker beam search on a topology file");
  e.WithThreadsFlag();
  e.Flags().DefineString("topo", "topology.topo",
                         "as-rel topology file or binary snapshot");
  e.Flags().DefineUint("victim", 0, "victim ASN (prefix owner)");
  e.Flags().DefineUint("attacker", 0, "attacker ASN (leads the colluder set)");
  e.Flags().DefineString("colluders", "",
                         "comma-separated accomplice ASNs (optional)");
  e.Flags().DefineInt("lambda", 4, "victim prepend count");
  e.Flags().DefineUint("beam", 4, "beam width");
  e.Flags().DefineUint("rounds", 2, "beam search rounds");
  e.Flags().DefineUint("max-neighbors", 12,
                       "per-colluder neighbors considered for overrides");
  e.Flags().DefineUint("poison-candidates", 2,
                       "top-degree ASes considered as poison targets");
  e.Flags().DefineBool("verify-engines", false,
                       "check every scored program against the Resume "
                       "oracle; any state mismatch fails the run");
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
  std::vector<topo::Asn> colluders;
  if (!ParseAsnList(e.Flags().GetString("colluders"), &colluders)) {
    std::fprintf(stderr, "error: unparsable --colluders '%s'\n",
                 e.Flags().GetString("colluders").c_str());
    return 1;
  }
  colluders.push_back(attacker);
  std::sort(colluders.begin(), colluders.end());
  colluders.erase(std::unique(colluders.begin(), colluders.end()),
                  colluders.end());
  if (!graph.HasAs(victim) || victim == attacker || attacker == 0) {
    std::fprintf(stderr,
                 "need distinct --victim and --attacker present in the "
                 "topology\n");
    return 1;
  }
  for (topo::Asn asn : colluders) {
    if (!graph.HasAs(asn) || asn == victim) {
      std::fprintf(stderr,
                   "colluder AS%u missing from the topology or equal to the "
                   "victim\n", asn);
      return 1;
    }
  }

  strategy::SearchOptions options;
  options.lambda = lambda;
  options.beam_width = e.Flags().GetUint("beam");
  options.rounds = e.Flags().GetUint("rounds");
  options.max_neighbors = e.Flags().GetUint("max-neighbors");
  options.poison_candidates = e.Flags().GetUint("poison-candidates");
  options.verify_engines = e.Flags().GetBool("verify-engines");
  options.pool = e.Pool();

  e.Note("topology: %zu ASes, %zu links", graph.NumAses(), graph.NumLinks());
  e.Note("search: AS%u (+%zu accomplices) vs AS%u, lambda=%d, beam=%zu x "
         "%zu rounds%s",
         attacker, colluders.size() - 1, victim, options.lambda,
         options.beam_width, options.rounds,
         options.verify_engines ? ", engine equivalence gated" : "");

  const strategy::Search search(graph, options);
  const strategy::SearchResult result = search.Run(victim, colluders);

  e.Note("paper model pollution: %.2f%%", 100.0 * result.paper_after);
  e.Note("best program pollution: %.2f%% (gap %.2f points, %zu programs "
         "scored)",
         100.0 * result.best.fraction_after, 100.0 * result.gap,
         result.programs_scored);
  std::printf("%s", strategy::Describe(result.best.program).c_str());
  std::printf("key: %s\n", result.best.program.KeyString().c_str());

  if (options.verify_engines && result.engine_mismatches != 0) {
    e.Note("FAIL: %zu scored program(s) differ from the Resume oracle",
           result.engine_mismatches);
    return e.Finish(1);
  }
  if (result.gap < 0.0) {
    e.Note("FAIL: best program scored below the paper model (dominance "
           "violated)");
    return e.Finish(1);
  }
  return e.Finish();
}
