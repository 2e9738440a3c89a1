// asppi_load — open-loop load generator for a running asppi_serve.
//
//   $ asppi_serve --topo=topology.snap --port-file=port.txt &
//   $ asppi_load --port=$(cat port.txt) --rate=500 --duration=2 --conns=16
//
// Drives a Poisson request stream (exponential inter-arrival gaps) of the
// scripted op mix at the target rate, independent of server responsiveness —
// the open-loop discipline that keeps queueing delay inside the latency
// numbers (src/load/loadgen.h). Prints p50/p99/p999/max and the health
// verdict; exits non-zero when any request failed, was shed, or went
// unanswered, which is what lets the CI smoke treat "load survived a SIGHUP
// reload" as a hard gate.
//
// --sweep replaces the single run with a max-sustainable-rps search: double
// the rate until the p99 SLO (--slo-p99-ms) breaks, then bisect.
#include <cstdio>

#include "bench/experiment.h"
#include "load/loadgen.h"
#include "util/metrics.h"

using namespace asppi;

int main(int argc, char** argv) {
  bench::Experiment e("asppi_load",
                      "open-loop NDJSON load generator for asppi_serve");
  e.Flags().DefineUint("port", 0, "asppi_serve TCP port (required)");
  e.Flags().DefineUint("conns", 8, "concurrent connections");
  e.Flags().DefineDouble("rate", 500.0, "target request rate (req/s)");
  e.Flags().DefineInt("duration", 2, "send window in seconds");
  e.Flags().DefineInt("drain-ms", 5000,
                      "grace period for in-flight responses after the send "
                      "window closes");
  e.Flags().DefineUint("seed", 1, "workload seed");
  e.Flags().DefineUint("ases", 64,
                       "ASN space to draw request endpoints from (match the "
                       "served topology)");
  e.Flags().DefineString("mix",
                         "impact:60,route:25,detect:10,stats:4,health:1",
                         "scripted op mix as op:weight[,op:weight...]");
  e.Flags().DefineBool("sweep", false,
                       "search for the max sustainable rate instead of a "
                       "single run");
  e.Flags().DefineDouble("slo-p99-ms", 50.0, "sweep SLO: p99 bound (ms)");
  e.Flags().DefineDouble("max-rate", 32000.0, "sweep rate ceiling (req/s)");
  if (!e.ParseFlags(argc, argv)) return 1;

  const std::uint16_t port =
      static_cast<std::uint16_t>(e.Flags().GetUint("port"));
  if (port == 0) {
    std::fprintf(stderr, "need --port\n");
    return 1;
  }

  load::LoadGenOptions options;
  options.port = port;
  options.connections = static_cast<int>(e.Flags().GetUint("conns"));
  options.rate_rps = e.Flags().GetDouble("rate");
  options.duration_ms = static_cast<int>(e.Flags().GetInt("duration")) * 1000;
  options.drain_timeout_ms = static_cast<int>(e.Flags().GetInt("drain-ms"));
  options.workload.seed = e.Flags().GetUint("seed");
  options.workload.as_count =
      static_cast<std::uint32_t>(e.Flags().GetUint("ases"));
  options.workload.mix = e.Flags().GetString("mix");
  std::vector<load::MixEntry> mix;
  if (!load::Workload::ParseMix(options.workload.mix, &mix)) {
    std::fprintf(stderr, "bad --mix '%s'\n", options.workload.mix.c_str());
    return 1;
  }

  bool healthy = true;
  if (e.Flags().GetBool("sweep")) {
    load::SloTarget slo;
    slo.p99_ms = e.Flags().GetDouble("slo-p99-ms");
    const load::SweepResult sweep = load::FindMaxSustainableRps(
        options, slo, options.rate_rps, e.Flags().GetDouble("max-rate"));
    for (const load::SweepPoint& point : sweep.points) {
      e.Note("%s %s", point.report.ToString().c_str(),
             point.meets_slo ? "MEETS-SLO" : "breaks-slo");
    }
    e.Note("max sustainable: %.0f req/s under p99<=%.1fms",
           sweep.max_sustainable_rps, slo.p99_ms);
    util::Metrics::Global().SetGauge("load.max_sustainable_rps",
                                     sweep.max_sustainable_rps);
    healthy = sweep.max_sustainable_rps > 0.0;
  } else {
    const load::LoadReport report = load::RunLoad(options);
    e.Note("%s", report.ToString().c_str());
    e.Note("max=%llums healthy=%d",
           static_cast<unsigned long long>(report.max_us / 1000),
           report.Healthy() ? 1 : 0);
    util::Metrics::Global().SetGauge("load.achieved_rps",
                                     report.achieved_rps);
    util::Metrics::Global().SetGauge("load.p99_us",
                                     static_cast<double>(report.p99_us));
    healthy = report.Healthy();
  }
  const int rc = e.Finish();
  // Health is the contract: CI treats any shed/failed/unanswered request
  // during the smoke (including across a SIGHUP reload) as a failure.
  return healthy ? rc : 1;
}
