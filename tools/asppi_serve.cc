// asppi_serve — long-lived what-if query daemon over a compiled snapshot
// (or an as-rel text topology), speaking newline-delimited JSON over TCP.
//
//   $ asppi_snapshot --topo=topology.topo --out=topology.snap --baselines=3831
//   $ asppi_serve --topo=topology.snap --port=4179 &
//   $ printf '{"op":"impact","victim":3831,"attacker":7}\n' | nc localhost 4179
//
// Request types: impact, detect, route, defense, strategy, stats, health,
// reload (serve/protocol.h). A snapshot carrying a kDefense section serves
// every what-if with that deployment active as the engines' import filter.
//
// The front end is serve::ReactorServer: --shards epoll/poll event-loop
// shards (src/net/, backend picked from the platform) carry connections far
// beyond the thread count; the lines a connection delivers in one readiness
// event execute on the --threads pool as one batch, and --max-inflight
// bounds those batches.
//
// Hot reload: SIGHUP (or a {"op":"reload"} line) rebuilds the serving stack
// from the snapshot path and atomically swaps it in as a new epoch;
// in-flight queries finish on the generation they started on. --port=0
// picks an ephemeral port; --port-file writes the bound port for scripted
// clients (the CI smoke job). SIGINT/SIGTERM drain gracefully: in-flight
// requests finish and flush before the process exits, then the run report
// (--json) carries the serve.*/net.* metrics.
#include <csignal>
#include <cstdio>
#include <thread>

#include "bench/experiment.h"
#include "serve/epoch.h"
#include "serve/reactor.h"
#include "serve/service.h"
#include "util/metrics.h"

using namespace asppi;

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_reload = 0;

void HandleSignal(int) { g_stop = 1; }
void HandleHup(int) { g_reload = 1; }

}  // namespace

int main(int argc, char** argv) {
  bench::Experiment e("asppi_serve",
                      "what-if query daemon (NDJSON over TCP) on a snapshot");
  e.WithThreadsFlag();
  e.Flags().DefineString("topo", "",
                         "binary snapshot (asppi_snapshot output) or as-rel "
                         "topology file to serve");
  e.Flags().DefineUint("shards", 2, "event-loop shard count");
  e.Flags().DefineUint("port", 0, "TCP port (0 = pick an ephemeral port)");
  e.Flags().DefineString("port-file", "",
                         "write the bound port number to this file once "
                         "listening (for scripted clients)");
  e.Flags().DefineInt("lambda", 4, "default victim prepend count (1..64)");
  e.Flags().DefineUint("monitors", 30, "default top-degree vantage count");
  e.Flags().DefineUint("cache", 4096,
                       "result-cache entry budget (0 disables caching)");
  e.Flags().DefineUint("max-conns", 1024,
                       "concurrent connection bound (connections beyond it "
                       "are closed without a response)");
  e.Flags().DefineUint("max-inflight", 128,
                       "queued-or-executing batch bound, one batch being the "
                       "lines one connection delivered together (beyond it, "
                       "every line of the batch gets an 'overloaded' "
                       "response)");
  e.Flags().DefineInt("deadline-ms", 10000,
                      "queue-wait deadline per batch (a stale batch is shed, "
                      "each line answered 'deadline exceeded')");
  e.Flags().DefineInt("slow-ms", 1000, "slow-query log threshold");
  e.Flags().DefineInt("duration", 0,
                      "exit after this many seconds (0 = run until signal)");
  // --lambda is checked at startup: the service applies it to every request
  // that omits "lambda", and PrependPolicy aborts on pads < 1.
  int lambda = 0;
  if (!e.ParseFlags(argc, argv) || !e.LambdaFlag(&lambda)) return 1;

  const std::string& path = e.Flags().GetString("topo");
  if (path.empty()) {
    std::fprintf(stderr, "need --topo\n");
    return 1;
  }

  serve::ServiceOptions service_options;
  service_options.default_lambda = lambda;
  service_options.default_monitors =
      static_cast<std::size_t>(e.Flags().GetUint("monitors"));
  service_options.cache_capacity =
      static_cast<std::size_t>(e.Flags().GetUint("cache"));

  serve::EpochManager epochs;
  // Text topologies load through the harness (no snapshot to re-read), so
  // only snapshot-backed serving gets a reload source.
  topo::AsGraph loaded_graph;
  data::Snapshot legacy_snapshot;
  std::unique_ptr<serve::QueryService> text_service;
  if (data::Snapshot::SniffFile(path)) {
    std::shared_ptr<serve::Epoch> first;
    const std::string err =
        serve::MakeSnapshotEpoch(path, /*id=*/1, service_options, &first);
    if (!err.empty()) {
      std::fprintf(stderr, "error loading %s: %s\n", path.c_str(),
                   err.c_str());
      return 1;
    }
    if (first->snapshot->DefenseTags().size() > 0) {
      e.Note("defense: %llu AS(es) tagged in snapshot",
             static_cast<unsigned long long>(
                 first->snapshot->Info().num_defense_tagged));
    }
    epochs.Install(first);
    epochs.SetReloader([path, service_options](
                           std::uint64_t next_id,
                           std::shared_ptr<serve::Epoch>* out) {
      return serve::MakeSnapshotEpoch(path, next_id, service_options, out);
    });
  } else {
    const topo::AsGraph* graph =
        e.LoadTopologyOrSnapshot(path, &loaded_graph, &legacy_snapshot);
    if (graph == nullptr) return 1;
    text_service = std::make_unique<serve::QueryService>(
        *graph, legacy_snapshot.Policy(), service_options);
    epochs.Install(serve::MakeUnownedEpoch(text_service.get(), /*id=*/1));
  }
  {
    const auto epoch = epochs.Current();
    e.Note("epoch 1: %zu ASes, %zu links", epoch->service->Graph().NumAses(),
           epoch->service->Graph().NumLinks());
  }

  serve::ReactorOptions options;
  options.port = static_cast<int>(e.Flags().GetUint("port"));
  options.shards = static_cast<int>(e.Flags().GetUint("shards"));
  options.max_connections =
      static_cast<std::size_t>(e.Flags().GetUint("max-conns"));
  options.max_inflight =
      static_cast<std::size_t>(e.Flags().GetUint("max-inflight"));
  options.deadline_ms = static_cast<int>(e.Flags().GetInt("deadline-ms"));
  options.slow_query_ms = static_cast<int>(e.Flags().GetInt("slow-ms"));
  serve::ReactorServer server(&epochs, e.Pool(), options);
  {
    const std::string err = server.Start();
    if (!err.empty()) {
      std::fprintf(stderr, "error starting server: %s\n", err.c_str());
      return 1;
    }
  }
  const int port = server.Port();
  e.Note("reactor: %u shard(s), %s backend",
         static_cast<unsigned>(e.Flags().GetUint("shards")),
         net::PollerBackendName(server.Backend()));

  const std::string& port_file = e.Flags().GetString("port-file");
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error writing %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", port);
    std::fclose(f);
  }

  e.Note("serving on port %d", port);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGHUP, HandleHup);
  const int duration_s = static_cast<int>(e.Flags().GetInt("duration"));
  const auto started = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_reload != 0) {
      // The handler only flips a flag; the actual swap runs here on the
      // main thread, outside async-signal context.
      g_reload = 0;
      const std::string err = epochs.Reload();
      if (err.empty()) {
        e.Note("reload: now serving epoch %llu",
               static_cast<unsigned long long>(epochs.CurrentId()));
      } else {
        std::fprintf(stderr, "[asppi_serve] reload failed: %s\n",
                     err.c_str());
      }
      std::fflush(stdout);
    }
    if (duration_s > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(duration_s)) {
      break;
    }
  }

  // Graceful drain: stop accepting, let in-flight requests finish and flush.
  server.Stop();
  const serve::ServerStats stats = server.Stats();
  e.Note("drained: %llu connection(s), %llu overload reject(s), "
         "%llu deadline(s), %llu slow, %llu batch(es)",
         static_cast<unsigned long long>(stats.accepted),
         static_cast<unsigned long long>(stats.overload_rejects),
         static_cast<unsigned long long>(stats.deadline_exceeded),
         static_cast<unsigned long long>(stats.slow_queries),
         static_cast<unsigned long long>(stats.batches));
  {
    const auto epoch = epochs.Current();
    const util::ShardedLruCache::Stats cache =
        epoch->service->Cache().GetStats();
    e.Note("epoch %llu cache: %llu hit(s), %llu miss(es), %llu eviction(s); "
           "%llu reload(s)",
           static_cast<unsigned long long>(epochs.CurrentId()),
           static_cast<unsigned long long>(cache.hits),
           static_cast<unsigned long long>(cache.misses),
           static_cast<unsigned long long>(cache.evictions),
           static_cast<unsigned long long>(epochs.ReloadCount()));
  }
  util::Metrics::Global().SetGauge("serve.port", static_cast<double>(port));
  return e.Finish();
}
