// asppi_detect — run the ASPP-interception detector over two RIB snapshots
// (before/after) in the library's .rib text format, for one victim prefix
// owner.
//
//   $ asppi_detect --topo=topology.topo --before=t0.rib --after=t1.rib
//                  --victim=3831 [--lambda=4]
//
// Passing --lambda enables the victim-aware rule with a uniform announced
// padding; omit it to run purely on routing data. --victim=0 scans every
// origin AS appearing in the snapshots (parallelized over --threads).
#include <cstdio>
#include <set>

#include "bench/experiment.h"
#include "data/formats.h"
#include "detect/detector.h"
#include "util/strings.h"

using namespace asppi;

namespace {

// Flattens a RIB snapshot into per-monitor paths toward the victim's
// prefixes (any prefix whose best path originates at the victim).
std::vector<std::pair<topo::Asn, bgp::AsPath>> PathsToward(
    const data::RibSnapshot& snapshot, topo::Asn victim) {
  std::vector<std::pair<topo::Asn, bgp::AsPath>> out;
  for (const auto& [monitor, table] : snapshot.tables) {
    for (const auto& [prefix, path] : table) {
      if (!path.Empty() && path.OriginAs() == victim) {
        out.emplace_back(monitor, path);
      }
    }
  }
  return out;
}

}  // namespace

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
      "announced padding (enables the victim-aware rule; 0=off)");
  if (!e.ParseFlags(argc, argv)) return 1;

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

  // Victim set: the requested AS, or every origin appearing in a snapshot.
  std::vector<topo::Asn> victims;
  if (victim != 0) {
    victims.push_back(victim);
  } else {
    std::set<topo::Asn> origins;
    for (const auto* snapshot : {&before, &after}) {
      for (const auto& [monitor, table] : snapshot->tables) {
        for (const auto& [prefix, path] : table) {
          if (!path.Empty()) origins.insert(path.OriginAs());
        }
      }
    }
    victims.assign(origins.begin(), origins.end());
  }

  bgp::PrependPolicy policy;
  const bgp::PrependPolicy* policy_ptr = nullptr;
  if (e.Flags().GetInt("lambda") > 0 && victim != 0) {
    policy.SetDefault(victim, static_cast<int>(e.Flags().GetInt("lambda")));
    policy_ptr = &policy;
  }

  // Scan victims in parallel; alarms are reported in victim order, so the
  // output is identical for any --threads value.
  std::vector<std::vector<detect::Alarm>> per_victim(victims.size());
  e.Pool()->ParallelFor(victims.size(), [&](std::size_t i) {
    per_victim[i] = detector.Scan(victims[i], PathsToward(before, victims[i]),
                                  PathsToward(after, victims[i]), policy_ptr);
  });

  util::Table table({"victim", "confidence", "suspect", "observer",
                     "pads_removed", "detail"});
  std::size_t total_alarms = 0;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const auto& alarms = per_victim[i];
    if (victim == 0 && alarms.empty()) continue;  // terse in scan-all mode
    total_alarms += alarms.size();
    std::printf("%zu alarm(s) for AS%u's prefixes\n", alarms.size(),
                victims[i]);
    for (const auto& alarm : alarms) {
      const bool high = alarm.confidence == detect::Alarm::Confidence::kHigh;
      std::printf("  [%s] suspect AS%u (observer AS%u, %d pads removed): %s\n",
                  high ? "HIGH" : "possible", alarm.suspect, alarm.observer,
                  alarm.pads_removed, alarm.detail.c_str());
      table.Row()
          .Cell(util::Format("AS%u", victims[i]))
          .Cell(high ? "HIGH" : "possible")
          .Cell(util::Format("AS%u", alarm.suspect))
          .Cell(util::Format("AS%u", alarm.observer))
          .Cell(alarm.pads_removed)
          .Cell(alarm.detail);
    }
  }
  if (victim == 0) {
    e.Note("%zu alarm(s) across %zu scanned origin ASes", total_alarms,
           victims.size());
  }
  e.RecordTable(table);
  // Exit 2 signals "attack suspected".
  return e.Finish(total_alarms == 0 ? 0 : 2);
}
