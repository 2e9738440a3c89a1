// asppi_stream — online ASPP-interception detection over a sequenced update
// stream, replayed through the sharded incremental pipeline.
//
//   $ asppi_stream --rib=base.rib --upd=churn.upd [--topo=as-rel.topo]
//                  [--victim=3831 --lambda=4] [--threads=8] [--shards=0]
//                  [--batch=1024]
//
// Or self-contained on a synthetic corpus (CI smoke / demos):
//
//   $ asppi_stream --gen [--monitors=30 --prefixes=400 --churn=300]
//
// Every emitted alarm is printed with the sequence number of the update that
// raised it and the victim's prefix it concerns: each (origin, prefix) is
// observed on its own, as the paper compares routes to one prefix. --victim
// filters the report to one prefix owner; --lambda additionally enables the
// victim-aware rule for it, on the prefixes of the seeded RIB it describes
// (as in asppi_detect). Exit code 2 signals "attack suspected" (at least one
// reported alarm), matching asppi_detect.
#include <cstdio>
#include <map>

#include "bench/experiment.h"
#include "data/formats.h"
#include "data/measurement.h"
#include "detect/monitors.h"
#include "stream/pipeline.h"
#include "stream/update_source.h"
#include "util/strings.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e("asppi_stream",
                      "online ASPP-interception detection over an update "
                      "stream (sharded incremental pipeline)");
  e.WithTopologyFlags();  // powers --gen; includes --threads
  e.Flags().DefineBool("gen", false,
                       "generate a synthetic corpus from the topology flags "
                       "instead of reading --rib/--upd");
  e.Flags().DefineUint("monitors", 30, "--gen: top-degree monitor count");
  e.Flags().DefineUint("prefixes", 400, "--gen: prefixes in the corpus");
  e.Flags().DefineUint("churn", 300, "--gen: churn events in the stream");
  e.Flags().DefineString("rib", "", "baseline RIB snapshot (.rib)");
  e.Flags().DefineString("upd", "", "update stream (.upd)");
  e.Flags().DefineString("topo", "",
                         "as-rel topology file or binary snapshot (enables "
                         "hint rules; --gen uses the generated graph)");
  e.Flags().DefineUint("victim", 0,
                       "report alarms only for this prefix owner (0 = all)");
  e.Flags().DefineInt("lambda", 0,
                      "announced padding for --victim, 1..64 (enables the "
                      "victim-aware rule; 0=off)");
  e.Flags().DefineUint("shards", 0, "detector shards (0 = --threads)");
  e.Flags().DefineUint("batch", 1024,
                       "per-shard queue capacity (window size bound)");
  if (!e.ParseFlags(argc, argv)) return 1;
  int lambda = 0;
  if (!e.LambdaFlag(&lambda, /*zero_is_off=*/true)) return 1;

  data::RibSnapshot rib;
  stream::UpdateSource source;
  topo::AsGraph file_graph;
  data::Snapshot topo_snapshot;
  const topo::AsGraph* graph = nullptr;

  if (e.Flags().GetBool("gen")) {
    const topo::GeneratedTopology& gen = e.GenerateTopology();
    graph = &gen.graph;
    const std::vector<topo::Asn> monitors = detect::TopDegreeMonitors(
        gen.graph, static_cast<std::size_t>(e.Flags().GetUint("monitors")));
    data::MeasurementParams corpus;
    corpus.num_prefixes =
        static_cast<std::size_t>(e.Flags().GetUint("prefixes"));
    corpus.num_churn_events =
        static_cast<std::size_t>(e.Flags().GetUint("churn"));
    corpus.seed = e.Flags().GetUint("seed");
    data::MeasurementGenerator generator(gen.graph, corpus);
    rib = generator.GenerateRib(monitors);
    source = stream::UpdateSource::FromGenerator(generator, monitors);
  } else {
    e.PrintHeader();
    if (e.Flags().GetString("rib").empty() ||
        e.Flags().GetString("upd").empty()) {
      std::fprintf(stderr, "--rib and --upd are required (or pass --gen)\n");
      return 1;
    }
    std::string err = data::ReadRibFile(e.Flags().GetString("rib"), rib);
    if (!err.empty()) {
      std::fprintf(stderr, "error reading %s: %s\n",
                   e.Flags().GetString("rib").c_str(), err.c_str());
      return 1;
    }
    err = stream::UpdateSource::FromFile(e.Flags().GetString("upd"), source);
    if (!err.empty()) {
      std::fprintf(stderr, "error reading %s: %s\n",
                   e.Flags().GetString("upd").c_str(), err.c_str());
      return 1;
    }
    if (const std::string& topo_path = e.Flags().GetString("topo");
        !topo_path.empty()) {
      graph = e.LoadTopologyOrSnapshot(topo_path, &file_graph, &topo_snapshot);
      if (graph == nullptr) return 1;
    }
  }

  topo::Asn victim = 0;
  if (!e.AsnFlag("victim", &victim)) return 1;
  std::map<stream::PrefixKey, bgp::PrependPolicy> policies;
  if (lambda > 0 && victim != 0) {
    std::map<stream::PrefixKey, int> undescribed;
    policies =
        stream::DeclaredVictimPolicies(rib, victim, lambda, &undescribed);
    for (const auto& [key, padding] : undescribed) {
      e.Note("--lambda=%d does not describe AS%u's prefix %s (padded %d in "
             "the seeded RIB): the victim-aware rule skips it",
             lambda, key.origin, key.prefix.ToString().c_str(), padding);
    }
  }

  stream::Pipeline::Options options;
  options.num_shards = static_cast<std::size_t>(e.Flags().GetUint("shards"));
  options.queue_capacity = static_cast<std::size_t>(e.Flags().GetUint("batch"));
  options.detector.graph = graph;
  options.detector.victim_policies = &policies;
  stream::Pipeline pipeline(e.Pool(), options);

  pipeline.SeedBaseline(rib);
  data::Update update;
  while (source.Next(update)) pipeline.Push(update);
  const std::vector<stream::StampedAlarm> emitted = pipeline.Finish();

  util::Table table({"sequence", "victim", "prefix", "confidence", "suspect",
                     "observer", "pads_removed", "detail"});
  std::size_t reported = 0;
  for (const stream::StampedAlarm& stamped : emitted) {
    if (victim != 0 && stamped.victim != victim) continue;
    ++reported;
    const detect::Alarm& alarm = stamped.alarm;
    const bool high = alarm.confidence == detect::Alarm::Confidence::kHigh;
    const std::string prefix = stamped.prefix.ToString();
    std::printf(
        "seq %llu victim AS%u %s [%s] suspect AS%u (observer AS%u, %d pads "
        "removed): %s\n",
        static_cast<unsigned long long>(stamped.sequence), stamped.victim,
        prefix.c_str(), high ? "HIGH" : "possible", alarm.suspect,
        alarm.observer, alarm.pads_removed, alarm.detail.c_str());
    table.Row()
        .Cell(static_cast<std::uint64_t>(stamped.sequence))
        .Cell(util::Format("AS%u", stamped.victim))
        .Cell(prefix)
        .Cell(high ? "HIGH" : "possible")
        .Cell(util::Format("AS%u", alarm.suspect))
        .Cell(util::Format("AS%u", alarm.observer))
        .Cell(alarm.pads_removed)
        .Cell(alarm.detail);
  }
  e.Note("%zu event(s) through %zu shard(s): %zu alarm(s) reported%s",
         source.Size(), pipeline.NumShards(), reported,
         victim != 0 ? " (filtered to --victim)" : "");
  e.RecordTable(table);
  // Exit 2 signals "attack suspected", matching asppi_detect.
  return e.Finish(reported == 0 ? 0 : 2);
}
