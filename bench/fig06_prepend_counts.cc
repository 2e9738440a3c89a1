// Reproduces paper Figure 6: distribution of the number of duplicated ASNs
// among prepended routes, in tables vs updates (log-scale fractions).
//
// Paper anchors: ~34 % of prepended table routes have 2 copies, ~22 % have 3,
// ~1 % more than 10; updates have larger duplications.
#include <algorithm>

#include "bench/bench_common.h"
#include "data/characterize.h"
#include "data/measurement.h"
#include "detect/monitors.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e("Figure 6: number of duplicate ASNs",
                      "34% repeat twice, 22% three times, 1% >10; updates "
                      "heavier-tailed");
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
  std::vector<topo::Asn> monitors =
      detect::TopDegreeMonitors(topology.graph, e.Flags().GetUint("monitors"));

  util::Histogram tables =
      data::PrependRunHistogram(generator.GenerateRib(monitors));
  util::Histogram updates =
      data::PrependRunHistogram(generator.GenerateUpdates(monitors));

  util::Table table({"num_prepended_asns", "fraction_table",
                     "fraction_updates"});
  int max_key = 2;
  if (!tables.Empty()) max_key = std::max(max_key, tables.MaxKey());
  if (!updates.Empty()) max_key = std::max(max_key, updates.MaxKey());
  for (int k = 2; k <= max_key; ++k) {
    table.Row()
        .Cell(k)
        .Cell(tables.Fraction(k), 6)
        .Cell(updates.Fraction(k), 6);
  }
  e.PrintTable(table);

  e.Note("\nanchors: table f(2)=%.3f f(3)=%.3f f(>10)=%.4f | "
         "updates f(>10)=%.4f",
         tables.Fraction(2), tables.Fraction(3), tables.FractionAtLeast(11),
         updates.FractionAtLeast(11));
  e.Note("shape check (paper): f(2)~0.34, f(3)~0.22, f(>10)~0.01, "
         "updates tail > table tail.");
  return e.Finish();
}
