// Reproduces paper Figure 5: CDF over monitors of the fraction of prefixes
// whose best route carries AS-path prepending — for all monitors (tables),
// tier-1 monitors only (tables), and all monitors (updates).
//
// Paper anchors: ~13 % mean in tables, tier-1 monitors higher, updates higher
// still.
#include <algorithm>

#include "bench/bench_common.h"
#include "data/characterize.h"
#include "data/measurement.h"
#include "detect/monitors.h"
#include "topology/tiers.h"
#include "util/stats.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e(
      "Figure 5: fraction of routes with prepending ASes",
      "CDF over monitors; mean ~13% (tables), tier-1 higher, updates higher");
  e.WithTopologyFlags();
  e.Flags().DefineUint("prefixes", 800, "number of synthetic prefixes");
  e.Flags().DefineUint("monitors", 50, "number of monitors (top degree)");
  e.Flags().DefineUint("churn", 250,
                       "number of churn events for the update feed");
  if (!e.ParseFlags(argc, argv)) return 1;

  const topo::GeneratedTopology& topology = e.GenerateTopology();

  data::MeasurementParams mp;
  mp.num_prefixes = e.Flags().GetUint("prefixes");
  mp.num_churn_events = e.Flags().GetUint("churn");
  mp.seed = e.Flags().GetUint("seed") + 2011;
  data::MeasurementGenerator generator(topology.graph, mp);

  // Monitor set: top-degree ASes plus every tier-1 (RouteViews-style feeds
  // include the core; the tier-1 series needs them present).
  std::vector<topo::Asn> monitors =
      detect::TopDegreeMonitors(topology.graph, e.Flags().GetUint("monitors"));
  for (topo::Asn t1 : topology.tier1) {
    if (std::find(monitors.begin(), monitors.end(), t1) == monitors.end()) {
      monitors.push_back(t1);
    }
  }
  data::RibSnapshot rib = generator.GenerateRib(monitors);
  std::vector<data::Update> updates = generator.GenerateUpdates(monitors);

  std::vector<double> all_table = data::PrependFractionPerMonitor(rib);
  std::vector<double> tier1_table =
      data::PrependFractionPerMonitor(rib, topology.tier1);
  std::vector<double> all_updates =
      data::PrependFractionPerMonitorUpdates(updates);

  util::Cdf cdf_all(all_table), cdf_t1(tier1_table), cdf_upd(all_updates);
  util::Table table({"fraction_with_prepending", "cdf_all_table",
                     "cdf_tier1_table", "cdf_all_updates"});
  for (double x = 0.02; x <= 0.44; x += 0.02) {
    table.Row()
        .Cell(x, 2)
        .Cell(cdf_all.At(x), 3)
        .Cell(cdf_t1.At(x), 3)
        .Cell(cdf_upd.At(x), 3);
  }
  e.PrintTable(table);

  e.Note("\nmeans: all(table)=%.3f tier1(table)=%.3f all(updates)=%.3f",
         util::Mean(all_table), util::Mean(tier1_table),
         util::Mean(all_updates));
  e.Note(
      "shape check (paper): mean(table) ~= 0.13; tier-1 > all; updates > "
      "table.");
  return e.Finish();
}
