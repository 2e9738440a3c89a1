// The Section VI-A measurement pipeline as a downstream user would run it:
// generate a synthetic measurement corpus (RIB snapshot + update stream),
// write it to files in the library's text formats, parse it back, and
// characterize ASPP usage.
//
//   $ ./measure_prepending [output_dir]
#include <cstdio>
#include <string>

#include "data/characterize.h"
#include "data/formats.h"
#include "data/measurement.h"
#include "detect/monitors.h"
#include "topology/generator.h"
#include "util/stats.h"

using namespace asppi;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp";

  topo::GeneratorParams params;
  params.seed = 2011;
  topo::GeneratedTopology gen = topo::GenerateInternetTopology(params);

  data::MeasurementParams mp;
  mp.num_prefixes = 400;
  mp.num_churn_events = 120;
  data::MeasurementGenerator generator(gen.graph, mp);
  auto monitors = detect::TopDegreeMonitors(gen.graph, 30);

  // Produce and persist the corpus.
  data::RibSnapshot rib = generator.GenerateRib(monitors);
  std::vector<data::Update> updates = generator.GenerateUpdates(monitors);
  const std::string rib_path = dir + "/asppi_corpus.rib";
  const std::string upd_path = dir + "/asppi_corpus.upd";
  data::WriteRibFile(rib, rib_path);
  data::WriteUpdatesFile(updates, upd_path);
  std::printf("wrote %s and %s\n", rib_path.c_str(), upd_path.c_str());

  // Read it back — the formats round-trip — and characterize.
  data::RibSnapshot parsed_rib;
  std::vector<data::Update> parsed_updates;
  std::string err = data::ReadRibFile(rib_path, parsed_rib);
  if (!err.empty()) {
    std::printf("rib parse error: %s\n", err.c_str());
    return 1;
  }
  err = data::ReadUpdatesFile(upd_path, parsed_updates);
  if (!err.empty()) {
    std::printf("update parse error: %s\n", err.c_str());
    return 1;
  }

  auto table_fracs = data::PrependFractionPerMonitor(parsed_rib);
  auto update_fracs = data::PrependFractionPerMonitorUpdates(parsed_updates);
  std::printf("\nper-monitor fraction of routes with prepending:\n");
  std::printf("  tables:  mean %.3f over %zu monitors\n",
              util::Mean(table_fracs), table_fracs.size());
  std::printf("  updates: mean %.3f over %zu monitors\n",
              util::Mean(update_fracs), update_fracs.size());

  util::Histogram hist = data::PrependRunHistogram(parsed_rib);
  std::printf("\nprepend-count distribution in tables (top entries):\n");
  for (int k = 2; k <= 8; ++k) {
    if (hist.Fraction(k) > 0.0) {
      std::printf("  %d copies: %.3f\n", k, hist.Fraction(k));
    }
  }
  std::printf("  >10 copies: %.4f\n", hist.FractionAtLeast(11));
  std::printf(
      "\n-> ASPP is everywhere: a sizeable fraction of routes carry padding\n"
      "   (paper: ~13%% of table routes, more in updates), which is what\n"
      "   makes the interception attack broadly applicable.\n");
  return 0;
}
