// asppi_detect — run the ASPP-interception detector over two RIB snapshots
// (before/after) in the library's .rib text format, for one victim prefix
// owner.
//
//   $ asppi_detect --topo=topology.topo --before=t0.rib --after=t1.rib
//                  --victim=3831 [--lambda=4]
//
// Each of the victim's prefixes is scanned on its own: the paper compares
// routes to one prefix, and an origin may pad its prefixes differently.
// Passing --lambda enables the victim-aware rule with a uniform announced
// padding; omit it to run purely on routing data. It applies to the
// victim's prefixes in the before snapshot; when that snapshot shows the
// victim padding its prefixes differently, only to those padded exactly
// --lambda, and the rule skips (and notes) the rest. --victim=0 scans every
// origin AS appearing in the snapshots (parallelized over --threads).
#include <cstdio>
#include <map>
#include <set>

#include "bench/experiment.h"
#include "data/formats.h"
#include "detect/detector.h"
#include "stream/state.h"
#include "util/strings.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e("asppi_detect",
                      "ASPP-interception detector over RIB snapshots");
  e.WithThreadsFlag();
  e.Flags().DefineString("topo", "",
                         "as-rel topology file or binary snapshot (enables "
                         "hint rules)");
  e.Flags().DefineString("before", "",
                         "RIB snapshot before the change (.rib)");
  e.Flags().DefineString("after", "", "RIB snapshot after the change (.rib)");
  e.Flags().DefineUint(
      "victim", 0,
      "prefix owner ASN (0 = scan every origin in the snapshots)");
  e.Flags().DefineInt(
      "lambda", 0,
      "announced padding, 1..64 (enables the victim-aware rule; 0=off)");
  if (!e.ParseFlags(argc, argv)) return 1;
  int lambda = 0;
  if (!e.LambdaFlag(&lambda, /*zero_is_off=*/true)) return 1;

  if (e.Flags().GetString("before").empty() ||
      e.Flags().GetString("after").empty()) {
    std::fprintf(stderr, "--before and --after are required\n");
    return 1;
  }

  topo::AsGraph loaded_graph;
  data::Snapshot topo_snapshot;
  const topo::AsGraph* graph = nullptr;
  if (const std::string& path = e.Flags().GetString("topo"); !path.empty()) {
    graph = e.LoadTopologyOrSnapshot(path, &loaded_graph, &topo_snapshot);
    if (graph == nullptr) return 1;
  }

  data::RibSnapshot before, after;
  for (auto [path, rib] : {std::pair{e.Flags().GetString("before"), &before},
                           std::pair{e.Flags().GetString("after"), &after}}) {
    std::string err = data::ReadRibFile(path, *rib);
    if (!err.empty()) {
      std::fprintf(stderr, "error reading %s: %s\n", path.c_str(),
                   err.c_str());
      return 1;
    }
  }

  topo::Asn victim = 0;
  if (!e.AsnFlag("victim", &victim)) return 1;
  detect::AsppDetector detector(graph);

  // Observed prefixes of the requested AS, or of every origin, in either
  // snapshot.
  std::set<stream::PrefixKey> observed = stream::ObservedPrefixes(before);
  observed.merge(stream::ObservedPrefixes(after));
  std::vector<stream::PrefixKey> targets;
  for (const stream::PrefixKey& key : observed) {
    if (victim == 0 || key.origin == victim) targets.push_back(key);
  }

  std::map<stream::PrefixKey, bgp::PrependPolicy> policies;
  if (lambda > 0 && victim != 0) {
    std::map<stream::PrefixKey, int> undescribed;
    policies =
        stream::DeclaredVictimPolicies(before, victim, lambda, &undescribed);
    for (const auto& [key, padding] : undescribed) {
      e.Note("--lambda=%d does not describe AS%u's prefix %s (padded %d in "
             "the before snapshot): the victim-aware rule skips it",
             lambda, key.origin, key.prefix.ToString().c_str(), padding);
    }
  }

  // Scan prefixes in parallel; alarms are reported in (origin, prefix)
  // order, so the output is identical for any --threads value.
  std::vector<std::vector<detect::Alarm>> per_target(targets.size());
  e.Pool()->ParallelFor(targets.size(), [&](std::size_t i) {
    const auto policy = policies.find(targets[i]);
    per_target[i] = detector.Scan(
        targets[i].origin, stream::PathsToward(before, targets[i]),
        stream::PathsToward(after, targets[i]),
        policy == policies.end() ? nullptr : &policy->second);
  });

  util::Table table({"victim", "prefix", "confidence", "suspect", "observer",
                     "pads_removed", "detail"});
  std::size_t total_alarms = 0;
  if (victim != 0 && targets.empty()) {
    std::printf("0 alarm(s): no prefix of AS%u in the snapshots\n", victim);
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto& alarms = per_target[i];
    if (victim == 0 && alarms.empty()) continue;  // terse in scan-all mode
    total_alarms += alarms.size();
    const std::string prefix = targets[i].prefix.ToString();
    std::printf("%zu alarm(s) for AS%u's prefix %s\n", alarms.size(),
                targets[i].origin, prefix.c_str());
    for (const auto& alarm : alarms) {
      const bool high = alarm.confidence == detect::Alarm::Confidence::kHigh;
      std::printf("  [%s] suspect AS%u (observer AS%u, %d pads removed): %s\n",
                  high ? "HIGH" : "possible", alarm.suspect, alarm.observer,
                  alarm.pads_removed, alarm.detail.c_str());
      table.Row()
          .Cell(util::Format("AS%u", targets[i].origin))
          .Cell(prefix)
          .Cell(high ? "HIGH" : "possible")
          .Cell(util::Format("AS%u", alarm.suspect))
          .Cell(util::Format("AS%u", alarm.observer))
          .Cell(alarm.pads_removed)
          .Cell(alarm.detail);
    }
  }
  if (victim == 0) {
    e.Note("%zu alarm(s) across %zu scanned (origin, prefix) pairs",
           total_alarms, targets.size());
  }
  e.RecordTable(table);
  // Exit 2 signals "attack suspected".
  return e.Finish(total_alarms == 0 ? 0 : 2);
}
