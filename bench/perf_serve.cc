// perf_serve — the serve subsystem's performance harness:
//
//   1. Loader comparison: cold text-format load vs snapshot mmap load of the
//      same corpus, so the snapshot speedup is tracked in the perf
//      trajectory (DESIGN.md §4g).
//   2. Closed-loop TCP loadgen: N client connections issue a fixed what-if
//      request mix back-to-back against a live ReactorServer and report
//      p50/p99 end-to-end latency — once with the result cache enabled and
//      once disabled (the cache-hit ablation).
//   3. Overload shedding: a deliberately tiny admission bound under the same
//      loadgen must produce `overloaded` responses (bounded queues shedding
//      load) rather than unbounded buffering.
//   4. The BENCH_serve_slo leg, on a fresh server:
//        a. byte equivalence — a fixed scripted request sequence pipelined
//           down one connection must produce exactly the bytes an
//           in-process QueryService produces for it (exit non-zero on any
//           mismatch);
//        b. connection ceiling — all 280 held-open probe connections must be
//           admitted (exit non-zero if not: this gate counts connections
//           rather than timing them, so sanitizer legs keep it);
//        c. open-loop SLO curve — load::FindMaxSustainableRps, recorded (not
//           gated: sanitizers distort timing).
//
// --smoke shrinks everything for CI (seconds of work); its JSON run report
// (--json=BENCH_serve_slo-<leg>.json in CI) is the artifact the serve job
// uploads.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "bench/experiment.h"
#include "data/snapshot.h"
#include "load/loadgen.h"
#include "serve/epoch.h"
#include "serve/reactor.h"
#include "serve/service.h"
#include "topology/serialization.h"
#include "util/stats.h"
#include "util/table.h"

using namespace asppi;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One closed-loop client: connects, issues `requests` lines back-to-back
// (waiting for each response), records per-request milliseconds.
struct ClientResult {
  std::vector<double> latencies_ms;
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  std::size_t errors = 0;
};

ClientResult RunClient(int port, const std::vector<std::string>& requests) {
  ClientResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return result;
  }
  std::string buffer;
  char chunk[4096];
  for (const std::string& request : requests) {
    const auto start = std::chrono::steady_clock::now();
    std::string line = request + "\n";
    std::size_t sent = 0;
    bool write_ok = true;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, 0);
      if (n <= 0) {
        write_ok = false;
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    if (!write_ok) break;
    std::size_t nl;
    while ((nl = buffer.find('\n')) == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    if (nl == std::string::npos) break;
    const std::string response = buffer.substr(0, nl);
    buffer.erase(0, nl + 1);
    result.latencies_ms.push_back(MsSince(start));
    if (response.find("\"ok\":true") != std::string::npos) {
      ++result.ok;
    } else if (response.find("overloaded") != std::string::npos) {
      ++result.overloaded;
    } else {
      ++result.errors;
    }
  }
  ::close(fd);
  return result;
}

// Fans `clients` concurrent closed-loop clients out against `port` and
// merges their results.
ClientResult RunLoad(int port, std::size_t clients,
                     const std::vector<std::string>& requests) {
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    threads.emplace_back(
        [&, i] { results[i] = RunClient(port, requests); });
  }
  for (auto& thread : threads) thread.join();
  ClientResult merged;
  for (const ClientResult& r : results) {
    merged.latencies_ms.insert(merged.latencies_ms.end(),
                               r.latencies_ms.begin(), r.latencies_ms.end());
    merged.ok += r.ok;
    merged.overloaded += r.overloaded;
    merged.errors += r.errors;
  }
  return merged;
}

std::string ImpactRequest(topo::Asn victim, topo::Asn attacker) {
  return "{\"op\":\"impact\",\"victim\":" + std::to_string(victim) +
         ",\"attacker\":" + std::to_string(attacker) + "}";
}

std::string RouteRequest(topo::Asn origin, topo::Asn observer) {
  return "{\"op\":\"route\",\"origin\":" + std::to_string(origin) +
         ",\"observer\":" + std::to_string(observer) + "}";
}

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Pipelines the whole script down one connection, half-closes, reads the full
// response stream.
std::string FetchTranscript(int port, const std::string& script) {
  const int fd = ConnectTo(port);
  if (fd < 0) return "<connect failed>";
  std::size_t sent = 0;
  while (sent < script.size()) {
    const ssize_t n =
        ::send(fd, script.data() + sent, script.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return "<send failed>";
    }
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string transcript;
  char chunk[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    transcript.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return transcript;
}

// Opens connections one at a time (held open), issuing a health query on
// each; returns how many were admitted (answered ok). Over-ceiling accepts
// are closed without an answer and don't count.
std::size_t ProbeConnectionCeiling(int port, std::size_t attempts) {
  std::vector<int> held;
  held.reserve(attempts);
  std::size_t admitted = 0;
  const std::string health = "{\"op\":\"health\"}\n";
  for (std::size_t i = 0; i < attempts; ++i) {
    const int fd = ConnectTo(port);
    if (fd < 0) continue;
    timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    bool ok = ::send(fd, health.data(), health.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(health.size());
    std::string line;
    char c;
    while (ok && line.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(fd, &c, 1, 0);
      if (n <= 0) {
        ok = false;
        break;
      }
      line.push_back(c);
    }
    if (ok && line.find("\"ok\":true") != std::string::npos) {
      ++admitted;
      held.push_back(fd);  // stays open so the ceiling fills up
    } else {
      ::close(fd);
    }
  }
  for (const int fd : held) ::close(fd);
  return admitted;
}

// What an in-process QueryService answers to `script`, one line each: reload
// lines through HandleAdminLine, every other line through Handle — the bytes
// the server must reproduce. `service` should be as fresh as the server's.
std::string ReferenceTranscript(serve::QueryService* service,
                                const std::string& script) {
  serve::EpochManager epochs;
  epochs.Install(serve::MakeUnownedEpoch(service));
  std::string transcript;
  std::size_t start = 0;
  while (start < script.size()) {
    std::size_t end = script.find('\n', start);
    if (end == std::string::npos) end = script.size();
    const std::string_view line(script.data() + start, end - start);
    start = end + 1;
    std::string response;
    if (!serve::HandleAdminLine(&epochs, line, &response)) {
      response = service->Handle(line);
    }
    transcript += response;
    transcript += '\n';
  }
  return transcript;
}

// A QueryService over the snapshot with its baselines warmed: every server
// phase starts from the same state.
std::unique_ptr<serve::QueryService> WarmService(
    const data::Snapshot& snapshot, std::size_t cache_capacity) {
  serve::ServiceOptions options;
  options.cache_capacity = cache_capacity;
  auto service = std::make_unique<serve::QueryService>(
      snapshot.Graph(), snapshot.Policy(), options);
  service->WarmBaselines(snapshot.Baselines());
  return service;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Experiment e("perf_serve",
                      "serve subsystem: snapshot-vs-text load, closed-loop "
                      "loadgen p50/p99, cache ablation, overload shedding");
  e.WithTopologyFlags();
  e.Flags().DefineBool("smoke", false, "tiny run for CI");
  e.Flags().DefineUint("clients", 8, "concurrent loadgen connections");
  e.Flags().DefineUint("requests", 200, "requests per client");
  e.Flags().DefineUint("pairs", 8,
                       "distinct (victim, attacker) pairs in the request mix");
  e.Flags().DefineUint("load-reps", 5,
                       "repetitions of each loader timing measurement");
  if (!e.ParseFlags(argc, argv)) return 1;

  topo::GeneratorParams params = e.Params();
  std::size_t clients = static_cast<std::size_t>(e.Flags().GetUint("clients"));
  std::size_t requests_per_client =
      static_cast<std::size_t>(e.Flags().GetUint("requests"));
  if (e.Flags().GetBool("smoke")) {
    params.num_tier2 = 40;
    params.num_tier3 = 120;
    params.num_stubs = 600;
    params.num_content = 5;
    clients = 4;
    requests_per_client = 40;
  }
  const topo::GeneratedTopology& gen = e.GenerateTopology(params);
  const topo::AsGraph& graph = gen.graph;

  // ---- Phase 1: loader comparison (text parse vs snapshot mmap). ----------
  const std::string topo_path = "perf_serve.tmp.topo";
  const std::string snap_path = "perf_serve.tmp.snap";
  topo::WriteAsRelFile(graph, topo_path);

  const std::vector<topo::Asn> by_degree = graph.AsesByDegreeDesc();
  const std::size_t num_pairs = std::min<std::size_t>(
      static_cast<std::size_t>(e.Flags().GetUint("pairs")),
      by_degree.size() / 2);
  bgp::PrependPolicy policy;
  std::vector<std::shared_ptr<const bgp::PropagationResult>> baselines;
  {
    attack::BaselineCache cache(graph);
    for (std::size_t i = 0; i < num_pairs; ++i) {
      bgp::Announcement announcement;
      announcement.origin = by_degree[by_degree.size() - 1 - i];  // stub-ish
      announcement.prepends.SetDefault(announcement.origin, 4);
      baselines.push_back(cache.Get(announcement));
    }
  }
  // Two snapshots: a bare one for the like-for-like loader comparison
  // (text load carries no baselines either), and a full one that feeds the
  // server phases and the warm-start-vs-reconverge comparison.
  const std::string bare_snap_path = "perf_serve.tmp.bare.snap";
  std::string err = data::WriteSnapshotFile(bare_snap_path, graph, policy, {},
                                            "perf_serve");
  if (err.empty()) {
    err = data::WriteSnapshotFile(snap_path, graph, policy, baselines,
                                  "perf_serve");
  }
  if (!err.empty()) {
    std::fprintf(stderr, "error writing snapshot: %s\n", err.c_str());
    return 1;
  }

  const std::size_t reps =
      std::max<std::size_t>(1, e.Flags().GetUint("load-reps"));
  double text_ms = 0.0;
  double snap_ms = 0.0;
  double warm_ms = 0.0;
  for (std::size_t i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    topo::GraphBuilder reloaded_builder;
    err = topo::ReadAsRelFile(topo_path, reloaded_builder);
    if (!err.empty()) {
      std::fprintf(stderr, "error re-reading topology: %s\n", err.c_str());
      return 1;
    }
    topo::AsGraph reloaded = reloaded_builder.Freeze();
    text_ms += MsSince(start);

    start = std::chrono::steady_clock::now();
    data::Snapshot snapshot;
    err = data::Snapshot::Load(bare_snap_path, snapshot);
    if (!err.empty()) {
      std::fprintf(stderr, "error re-reading snapshot: %s\n", err.c_str());
      return 1;
    }
    snap_ms += MsSince(start);

    start = std::chrono::steady_clock::now();
    data::Snapshot full;
    err = data::Snapshot::Load(snap_path, full);
    if (!err.empty()) {
      std::fprintf(stderr, "error re-reading snapshot: %s\n", err.c_str());
      return 1;
    }
    warm_ms += MsSince(start);
  }
  text_ms /= static_cast<double>(reps);
  snap_ms /= static_cast<double>(reps);
  warm_ms /= static_cast<double>(reps);
  e.Note("loader: text %.2f ms, snapshot %.2f ms (%.1fx)%s", text_ms, snap_ms,
         snap_ms > 0.0 ? text_ms / snap_ms : 0.0,
         snap_ms < text_ms ? "" : "  ** snapshot not faster **");

  // Warm-start story: restoring all checkpointed baselines from the full
  // snapshot vs re-converging them from scratch.
  double converge_ms = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    attack::BaselineCache cache(graph);
    for (std::size_t i = 0; i < num_pairs; ++i) {
      bgp::Announcement announcement;
      announcement.origin = by_degree[by_degree.size() - 1 - i];
      announcement.prepends.SetDefault(announcement.origin, 4);
      (void)cache.Get(announcement);
    }
    converge_ms = MsSince(start);
  }
  e.Note("warm start: restore %zu baseline(s) %.2f ms vs re-converge %.2f ms "
         "(%.1fx)",
         baselines.size(), warm_ms - snap_ms, converge_ms,
         warm_ms - snap_ms > 0.0 ? converge_ms / (warm_ms - snap_ms) : 0.0);

  // ---- Phase 2: closed-loop loadgen, cache on vs off. ---------------------
  data::Snapshot snapshot;
  err = data::Snapshot::Load(snap_path, snapshot);
  if (!err.empty()) {
    std::fprintf(stderr, "error loading snapshot: %s\n", err.c_str());
    return 1;
  }

  // Request mix: impact + route over a small pair set, repeated — so the
  // steady state is cache-hit dominated when the cache is on.
  std::vector<std::string> requests;
  requests.reserve(requests_per_client);
  for (std::size_t i = 0; i < requests_per_client; ++i) {
    const std::size_t pair = i % std::max<std::size_t>(1, num_pairs);
    const topo::Asn victim = by_degree[by_degree.size() - 1 - pair];
    const topo::Asn attacker = by_degree[pair];
    if (i % 2 == 0) {
      requests.push_back(ImpactRequest(victim, attacker));
    } else {
      requests.push_back(RouteRequest(victim, attacker));
    }
  }

  util::Table table({"mode", "clients", "requests", "ok", "overloaded",
                     "throughput_rps", "p50_ms", "p99_ms", "cache_hit_pct"});
  for (const bool cache_on : {true, false}) {
    const auto service = WarmService(snapshot, cache_on ? 4096 : 0);
    serve::EpochManager epochs;
    epochs.Install(serve::MakeUnownedEpoch(service.get()));
    serve::ReactorServer server(&epochs, e.Pool());
    err = server.Start();
    if (!err.empty()) {
      std::fprintf(stderr, "error starting server: %s\n", err.c_str());
      return 1;
    }
    const auto start = std::chrono::steady_clock::now();
    ClientResult load = RunLoad(server.Port(), clients, requests);
    const double wall_ms = MsSince(start);
    server.Stop();

    const util::ShardedLruCache::Stats stats = service->Cache().GetStats();
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    const double hit_pct =
        lookups > 0.0 ? 100.0 * static_cast<double>(stats.hits) / lookups : 0.0;
    const double rps = wall_ms > 0.0
                           ? 1000.0 * static_cast<double>(load.ok) / wall_ms
                           : 0.0;
    table.Row()
        .Cell(cache_on ? "cache" : "no-cache")
        .Cell(static_cast<std::uint64_t>(clients))
        .Cell(static_cast<std::uint64_t>(load.latencies_ms.size()))
        .Cell(static_cast<std::uint64_t>(load.ok))
        .Cell(static_cast<std::uint64_t>(load.overloaded))
        .Cell(rps, 1)
        .Cell(util::Quantile(load.latencies_ms, 0.50), 3)
        .Cell(util::Quantile(load.latencies_ms, 0.99), 3)
        .Cell(hit_pct, 1);
    if (load.errors != 0) {
      e.Note("WARNING: %zu error responses in %s mode", load.errors,
             cache_on ? "cache" : "no-cache");
    }
  }

  // ---- Phase 3: overload shedding under a saturating loadgen. -------------
  {
    const auto service = WarmService(snapshot, 4096);
    serve::EpochManager epochs;
    epochs.Install(serve::MakeUnownedEpoch(service.get()));
    serve::ReactorOptions options;
    options.max_inflight = 1;  // deliberately tiny admission bound
    serve::ReactorServer server(&epochs, e.Pool(), options);
    err = server.Start();
    if (!err.empty()) {
      std::fprintf(stderr, "error starting server: %s\n", err.c_str());
      return 1;
    }
    ClientResult load = RunLoad(server.Port(), std::max<std::size_t>(clients, 4),
                                requests);
    server.Stop();
    e.Note("shedding: %zu ok, %zu overloaded under max_inflight=1 "
           "(%s load shedding)",
           load.ok, load.overloaded,
           load.overloaded > 0 ? "bounded-queue" : "** no observed **");
  }

  e.PrintTable(table);

  // ---- Phase 4: byte equivalence, connection ceiling, open-loop SLO curve.
  int exit_code = 0;

  // 4a script. It excludes `stats` (uptime varies) — everything else must
  // match byte-for-byte.
  load::WorkloadOptions script_options;
  script_options.seed = 42;
  script_options.as_count = static_cast<std::uint32_t>(graph.NumAses());
  script_options.mix = "impact:50,route:25,detect:15,defense:5,health:5";
  const std::size_t script_lines = e.Flags().GetBool("smoke") ? 160 : 400;
  const std::string script = load::Workload(script_options).Script(script_lines);

  // Far more connections than pool threads, yet under the default 1024
  // connection cap and the common 1024-descriptor limit (each probe holds
  // two descriptors in this process: client end and server end).
  const std::size_t ceiling_attempts = 280;
  load::LoadGenOptions lg;
  lg.connections = 8;
  lg.duration_ms = e.Flags().GetBool("smoke") ? 500 : 1500;
  lg.workload.as_count = static_cast<std::uint32_t>(graph.NumAses());
  load::SloTarget slo;
  slo.p99_ms = 50.0;
  const double start_rps = 100.0;
  const double max_rps = e.Flags().GetBool("smoke") ? 1600.0 : 12800.0;
  const int refine = e.Flags().GetBool("smoke") ? 1 : 3;

  // The server and the reference each get a fresh service over the same
  // snapshot, so cold caches and health counters start equal.
  std::string transcript;
  std::size_t admitted = 0;
  util::Table slo_table({"mode", "admitted_conns", "max_sustainable_rps",
                         "p50_us", "p99_us", "p999_us"});
  {
    const auto service = WarmService(snapshot, 4096);
    serve::EpochManager epochs;
    epochs.Install(serve::MakeUnownedEpoch(service.get()));
    serve::ReactorServer server(&epochs, e.Pool());
    err = server.Start();
    if (!err.empty()) {
      std::fprintf(stderr, "error starting server: %s\n", err.c_str());
      return 1;
    }
    transcript = FetchTranscript(server.Port(), script);
    admitted = ProbeConnectionCeiling(server.Port(), ceiling_attempts);

    lg.port = static_cast<std::uint16_t>(server.Port());
    const load::SweepResult sweep =
        load::FindMaxSustainableRps(lg, slo, start_rps, max_rps, refine);
    const load::SweepPoint* best = nullptr;
    for (const load::SweepPoint& point : sweep.points) {
      if (point.meets_slo &&
          (best == nullptr || point.rate_rps > best->rate_rps)) {
        best = &point;
      }
    }
    slo_table.Row()
        .Cell("reactor")
        .Cell(static_cast<std::uint64_t>(admitted))
        .Cell(sweep.max_sustainable_rps, 0)
        .Cell(best != nullptr ? best->report.p50_us : 0)
        .Cell(best != nullptr ? best->report.p99_us : 0)
        .Cell(best != nullptr ? best->report.p999_us : 0);
    server.Stop();
  }
  e.PrintTable(slo_table);

  const std::string reference =
      ReferenceTranscript(WarmService(snapshot, 4096).get(), script);
  if (transcript == reference) {
    e.Note("byte equivalence: %zu scripted requests, transcript equals the "
           "in-process reference (%zu response bytes)",
           script_lines, transcript.size());
  } else {
    e.Note("** byte-equivalence gate FAILED: transcript differs from the "
           "in-process reference (%zu vs %zu bytes)",
           transcript.size(), reference.size());
    exit_code = 1;
  }
  if (admitted == ceiling_attempts) {
    e.Note("connection ceiling: %zu/%zu held-open connections admitted",
           admitted, ceiling_attempts);
  } else {
    e.Note("** connection-ceiling gate FAILED: %zu/%zu held-open "
           "connections admitted",
           admitted, ceiling_attempts);
    exit_code = 1;
  }

  std::remove(topo_path.c_str());
  std::remove(snap_path.c_str());
  std::remove(bare_snap_path.c_str());
  return e.Finish(exit_code);
}
