// asppi_defense — deployment-sweep experiments on a topology file: how fast
// does interception success fall as a defense rolls out, per placement
// strategy?
//
//   $ asppi_defense_tool --topo=topology.topo --pairs=8 --lambda=4
//   $ asppi_defense_tool --topo=topology.topo --victim=3831 --attacker=7
//       --policies=rov+pathval --fracs=0,0.1,0.25,0.5,1
//
// Each row is one (strategy, deployment fraction) point: the mean post-attack
// pollution over the probed (victim, attacker) pairs with the first ⌈f·n⌉
// ASes of that strategy's adoption ordering running --policies as their
// import filter. Fraction 0 is the undefended reference. --verify-engines
// checks every point against the Resume oracle and fails the run on any
// bit-level difference.
#include <cstdio>

#include "bench/experiment.h"
#include "defense/sweep.h"
#include "util/strings.h"
#include "util/table.h"

using namespace asppi;

namespace {

bool ParseFracsFlag(const std::string& text, std::vector<double>* out) {
  if (text.empty()) return true;
  std::vector<double> fracs;
  for (const std::string& item : util::Split(text, ',')) {
    const std::optional<double> frac = util::ParseDouble(item);
    if (!frac.has_value() || *frac < 0.0 || *frac > 1.0) {
      std::fprintf(stderr, "error: --fracs entry '%s' not in [0, 1]\n",
                   item.c_str());
      return false;
    }
    fracs.push_back(*frac);
  }
  *out = std::move(fracs);
  return true;
}

bool ParseStrategiesFlag(const std::string& text,
                         std::vector<defense::Strategy>* out) {
  if (text.empty()) return true;
  std::vector<defense::Strategy> strategies;
  for (const std::string& item : util::Split(text, ',')) {
    const std::optional<defense::Strategy> strategy =
        defense::ParseStrategy(item);
    if (!strategy.has_value()) {
      std::fprintf(stderr,
                   "error: --strategies entry '%s' is not "
                   "top-degree|random|victim-cone\n",
                   item.c_str());
      return false;
    }
    strategies.push_back(*strategy);
  }
  *out = std::move(strategies);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Experiment e("asppi_defense",
                      "interception success vs defense-deployment fraction");
  e.WithThreadsFlag();
  e.Flags().DefineString("topo", "topology.topo",
                         "as-rel topology file or binary snapshot");
  e.Flags().DefineUint("victim", 0,
                       "victim ASN (0 = average over --pairs random pairs)");
  e.Flags().DefineUint("attacker", 0, "attacker ASN (with --victim)");
  e.Flags().DefineUint("pairs", 8,
                       "random (victim, attacker) pairs averaged per point");
  e.Flags().DefineInt("lambda", 4, "victim prepend count");
  e.Flags().DefineBool("violate", false,
                       "attacker violates valley-free export");
  e.Flags().DefineString("fracs", "0,0.2,0.4,0.6,0.8,1",
                         "deployment fractions to probe, ascending");
  e.Flags().DefineString("strategies", "top-degree,random,victim-cone",
                         "placement strategies to compare");
  e.Flags().DefineString("policies", "all",
                         "policies every deployed AS runs: rov / pathval / "
                         "detector / all, or '+'-joined");
  e.Flags().DefineUint("seed", 1, "pair-pick and random-placement seed");
  e.Flags().DefineBool("verify-engines", false,
                       "check every point against the Resume oracle and "
                       "require bit-identical attacked states");
  int lambda = 0;
  if (!e.ParseFlags(argc, argv) || !e.LambdaFlag(&lambda)) return 1;

  topo::AsGraph loaded_graph;
  data::Snapshot snapshot;
  const topo::AsGraph* graph_ptr = e.LoadTopologyOrSnapshot(
      e.Flags().GetString("topo"), &loaded_graph, &snapshot);
  if (graph_ptr == nullptr) return 1;
  const topo::AsGraph& graph = *graph_ptr;

  defense::DefenseSweepOptions options;
  options.lambda = lambda;
  options.violate_valley_free = e.Flags().GetBool("violate");
  options.num_pairs = static_cast<std::size_t>(e.Flags().GetUint("pairs"));
  options.seed = e.Flags().GetUint("seed");
  options.pool = e.Pool();
  options.verify_engines = e.Flags().GetBool("verify-engines");
  if (!ParseFracsFlag(e.Flags().GetString("fracs"), &options.fractions) ||
      !ParseStrategiesFlag(e.Flags().GetString("strategies"),
                           &options.strategies)) {
    return 1;
  }
  const std::optional<std::uint8_t> kinds =
      defense::ParsePolicyKinds(e.Flags().GetString("policies"));
  if (!kinds.has_value()) {
    std::fprintf(stderr, "error: unknown --policies '%s'\n",
                 e.Flags().GetString("policies").c_str());
    return 1;
  }
  options.kinds = *kinds;

  topo::Asn victim = 0;
  topo::Asn attacker = 0;
  if (!e.AsnFlag("victim", &victim) || !e.AsnFlag("attacker", &attacker)) {
    return 1;
  }
  if (victim != 0) {
    if (!graph.HasAs(victim) || !graph.HasAs(attacker) || victim == attacker) {
      std::fprintf(stderr,
                   "need distinct --victim and --attacker present in the "
                   "topology\n");
      return 1;
    }
    options.pairs = {{victim, attacker}};
  }

  e.Note("topology: %zu ASes, %zu links", graph.NumAses(), graph.NumLinks());
  e.Note("sweep: %zu strategies x %zu fractions, %zu pair(s), lambda=%d, "
         "policies=%s",
         options.strategies.size(), options.fractions.size(),
         options.pairs.empty() ? options.num_pairs : options.pairs.size(),
         options.lambda, defense::PolicyKindsName(options.kinds).c_str());

  const std::vector<defense::DefenseSweepPoint> points =
      defense::RunDefenseSweep(graph, options);

  util::Table table(
      {"strategy", "frac", "deployed", "pct_before", "pct_after"});
  bool engines_agree = true;
  for (const defense::DefenseSweepPoint& point : points) {
    std::printf("  %-11s f=%.2f  deployed=%8.1f  %6.2f%% -> %6.2f%%\n",
                defense::StrategyName(point.strategy), point.fraction,
                point.mean_deployed, 100.0 * point.mean_fraction_before,
                100.0 * point.mean_fraction_after);
    table.Row()
        .Cell(defense::StrategyName(point.strategy))
        .Cell(point.fraction, 2)
        .Cell(point.mean_deployed, 1)
        .Cell(100.0 * point.mean_fraction_before, 2)
        .Cell(100.0 * point.mean_fraction_after, 2);
    engines_agree = engines_agree && point.engines_agree;
  }
  e.RecordTable(table);
  if (options.verify_engines) {
    if (!engines_agree) {
      std::fprintf(stderr,
                   "FAIL: a defended attack state differs from the Resume "
                   "oracle\n");
      return e.Finish(1);
    }
    e.Note("verify-engines: every point matches the Resume oracle "
           "bit-identically");
  }
  return e.Finish();
}
