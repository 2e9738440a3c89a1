// asppi_perfbench: the end-to-end benchmark of the ASPP interception
// simulator at Internet scale (the internet2026 preset, ~100k ASes).
//
//   asppi_perfbench --workload <sweep_cold|sweep_warm|serve_open_loop>
//                   --seed N --seconds S --trace 0|1 [--scale small]
//
// Workloads (README.md has the metric table):
//   sweep_cold       Fig. 8 shape: random pairs, all-distinct victims, λ=3, a
//                    fresh BaselineCache per RunPairSweep call — almost all
//                    baseline convergence + TraversalIndex construction.
//   sweep_warm       Figs. 7/9 shape: one tier-1 victim warmed for λ 1..6,
//                    every other tier-1 plus sampled tier-2 attackers — almost
//                    all delta-engine work, the cache only hits.
//   serve_open_loop  ReactorServer over a snapshot of K warm victims, open-loop
//                    Poisson load over loopback at two fixed rates plus a
//                    search for the highest rate meeting the p99 SLO.
//
// The seed derives every input (pairs, attackers, request stream, arrival
// schedule); the topology is the fixed preset, and the warm victims of
// sweep_warm and serve_open_loop are fixed picks from its tiers. Timing happens here, around
// calls into the library's public API. With --trace 1 each compound call is
// split into the public calls that compose it, spans are recorded in memory
// and written to --out-dir, and the per-layer metrics are printed instead of
// the end-to-end ones. Every run ends with a correctness gate outside the
// timed region; the last stdout line is the JSON result.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "attack/interceptor.h"
#include "bgp/delta.h"
#include "bgp/propagation.h"
#include "client.h"
#include "data/snapshot.h"
#include "detect/detector.h"
#include "detect/monitors.h"
#include "load/loadgen.h"
#include "load/workload.h"
#include "serve/epoch.h"
#include "serve/protocol.h"
#include "serve/reactor.h"
#include "serve/service.h"
#include "topology/generator.h"
#include "trace.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

namespace attack = asppi::attack;
namespace bgp = asppi::bgp;
namespace data = asppi::data;
namespace detect = asppi::detect;
namespace serve = asppi::serve;
namespace topo = asppi::topo;
namespace util = asppi::util;
using topo::Asn;
using PropagationPtr = std::shared_ptr<const bgp::PropagationResult>;

// Exit codes: a failed gate exits 1 after printing its result.
constexpr int kOk = 0;
constexpr int kError = 2;    // set-up failed; no result printed
constexpr int kInvalid = 3;  // a fixed-rate leg stayed invalid; no result

// ---- workload constants ----------------------------------------------------

// Set-ups per process (setup_s is their median; run.py also takes the
// median over its processes): the sweeps' set-up is cheap and noisy, the
// serve workload's costs seconds.
constexpr int kSweepSetupReps = 3;
constexpr int kServeSetupReps = 1;
constexpr std::size_t kColdBatch = 12;  // pairs per fig08-style RunPairSweep call
constexpr int kColdLambda = 3;
constexpr std::size_t kColdDigestBatches = 2;
constexpr int kWarmMaxLambda = 6;
constexpr std::size_t kWarmTier2 = 34;  // sampled tier-2 attackers
constexpr std::size_t kServeWarmPerTier = 2;  // K = 4 tiers × 2 victims
constexpr int kServeLambda = 4;         // QueryService's default λ
constexpr std::uint64_t kDigestRequests = 256;
constexpr std::uint64_t kCaptureEvery = 16;  // sampled answers past the digest
constexpr std::size_t kDecomposed = 400;     // traced replay of served requests
constexpr double kSloP99Ms = asppi::load::SloTarget{}.p99_ms;
constexpr double kSearchBudgetS = 14.0;      // SLO search, first process only
constexpr double kSearchResolution = 1.03;   // bracket the SLO rate this close
constexpr double kMaxLagP99Ms = 10.0;        // a fixed leg is invalid beyond
constexpr double kProbeRps = 100.0;          // trace-only serve probe on sweeps
constexpr double kProbeSeconds = 1.0;
constexpr std::size_t kMonitors = 30;        // ServiceOptions::default_monitors
constexpr int kServerNice = 5;               // see ServeStack
constexpr int kCapacityWindow = 8;           // closed-loop requests per conn
constexpr int kServeRounds = 4;

// Fixed open-loop rates of serve_open_loop (requests/s), per scale,
// calibrated on the commit that added this benchmark at about a quarter and
// 60% of its serve.max_rps.
struct ServeRates {
  double low;
  double high;
};
constexpr ServeRates kInternetRates{260.0, 630.0};
constexpr ServeRates kSmallRates{200.0, 400.0};

// ---- arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string out_dir = ".bench_build/out";
  std::string dump_inputs;
  bool corrupt = false;
  // False for run.py's extra measuring processes: no correctness gate, no
  // digest and no SLO search, only the bounded figures.
  bool primary = true;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args->corrupt = true;
      continue;
    }
    if (flag == "--secondary") {
      args->primary = false;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scale") {
      args->small = value == "small";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--dump-inputs") {
      args->dump_inputs = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->seconds <= 0.0) return false;
  return args->workload == "sweep_cold" || args->workload == "sweep_warm" ||
         args->workload == "serve_open_loop";
}

// ---- small helpers ---------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Bytes the allocator has handed out and not taken back (arena chunks plus
// mmapped ones). Unlike RSS it leaves out memory freed earlier and retained
// by the allocator, so its growth over a stretch is what that stretch still
// holds, whatever was freed before it.
double HeapBytesInUse() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

class Digest {
 public:
  void Add(const void* data, std::size_t size) {
    crc_ = util::Crc32Extend(crc_, data, size);
  }
  template <typename T>
  void AddPod(const T& value) {
    Add(&value, sizeof(value));
  }
  void AddRows(const std::vector<attack::PairImpact>& rows) {
    for (const attack::PairImpact& row : rows) {
      AddPod(row.attacker);
      AddPod(row.victim);
      AddPod(row.before);
      AddPod(row.after);
    }
  }
  std::uint32_t Value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

std::uint64_t CounterOf(const util::Metrics::Snapshot& snap,
                        const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

util::Metrics::TimerStat TimerOf(const util::Metrics::Snapshot& snap,
                                 const std::string& name) {
  const auto it = snap.timers.find(name);
  return it == snap.timers.end() ? util::Metrics::TimerStat{} : it->second;
}

util::Metrics::Snapshot Registry() {
  return util::Metrics::Global().TakeSnapshot();
}

bgp::Announcement AnnouncementFor(Asn origin, int lambda) {
  bgp::Announcement announcement;
  announcement.origin = origin;
  announcement.prepends.SetDefault(origin, lambda);
  return announcement;
}

// RunPairSweep's row order (pollution desc, then attacker, then victim).
void SortRows(std::vector<attack::PairImpact>& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const attack::PairImpact& a, const attack::PairImpact& b) {
              if (a.after != b.after) return a.after > b.after;
              if (a.attacker != b.attacker) return a.attacker < b.attacker;
              return a.victim < b.victim;
            });
}

// ---- run context -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Run {
  Args args;
  topo::GeneratorParams params;
  std::size_t nproc = 1;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<Tracer> tracer;  // null when untraced

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Digest digest;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;  // printed before the result line

  // Baseline-cache outcomes of the decomposed (traced) points.
  std::atomic<std::uint64_t> traced_hits{0};
  std::atomic<std::uint64_t> traced_misses{0};

  Tracer* T() const { return tracer.get(); }
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer.push_back({name, value, unit});
  }
  void Note(const char* format, ...) __attribute__((format(printf, 2, 3))) {
    char buf[1024];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof(buf), format, ap);
    va_end(ap);
    notes.emplace_back(buf);
  }
  void Fail(const std::string& what) {
    correct = false;
    Note("GATE FAILED: %s", what.c_str());
  }
  std::string OutPath(const std::string& suffix) const {
    return args.out_dir + "/" + args.workload + "-seed" +
           std::to_string(args.seed) + suffix;
  }
};

topo::GeneratorParams ParamsFor(bool small) {
  topo::GeneratorParams params = topo::Internet2026Params();
  if (small) {
    // ≤10k ASes: the harness self-test scale.
    params.num_tier1 = 8;
    params.num_tier2 = 60;
    params.num_tier3 = 300;
    params.num_stubs = 2000;
    params.num_content = 10;
    params.num_sibling_pairs = 10;
  }
  return params;
}

std::unique_ptr<topo::GeneratedTopology> Generate(const Run& run) {
  ScopedSpan span(run.T(), "topology.generate", 0);
  return std::make_unique<topo::GeneratedTopology>(
      topo::GenerateInternetTopology(run.params));
}

// Builds the state `reps` times (dropping the previous one first, outside the
// timing) and returns the median build time in seconds; `*state` keeps the
// last build.
template <typename State, typename Build>
double RepeatSetup(int reps, std::unique_ptr<State>* state, Build build) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    state->reset();
    const std::uint64_t start = NowNs();
    *state = build();
    seconds.push_back(SecondsSince(start));
  }
  return Quantile(seconds, 0.5);
}

// ---- one decomposed (attacker, victim, λ) point ----------------------------

// Keys whose baseline this run already computed or restored; the first
// claimant of a key computes it (a baseline miss).
class KeySet {
 public:
  bool Claim(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_.insert(key).second;
  }

 private:
  std::mutex mu_;
  std::set<std::string> keys_;
};

std::string KeyOf(const bgp::Announcement& announcement) {
  return std::to_string(announcement.origin) + '|' +
         announcement.prepends.KeyString();
}

struct PointOut {
  double before = 0.0;
  double after = 0.0;
  std::vector<Asn> newly_polluted;
  PropagationPtr baseline;
  std::optional<bgp::DeltaResult> delta;
};

// AttackSimulator::RunAsppInterception split into the public calls that
// compose it: on a baseline miss PropagationSimulator::Run then
// BaselineCache::Put (which builds the TraversalIndex), then
// DeltaPropagator::Propagate, then the pollution accounting over the
// wavefront. Produces the same fractions as the undecomposed call; the run's
// results digest checks that.
PointOut DecomposedPoint(Run& run, Tracer* tracer, const topo::AsGraph& graph,
                         attack::BaselineCache& cache, KeySet& keys,
                         const bgp::Announcement& announcement, Asn attacker,
                         std::uint64_t id) {
  ScopedSpan point(tracer, "attack.point", id);
  if (keys.Claim(KeyOf(announcement))) {
    run.traced_misses.fetch_add(1, std::memory_order_relaxed);
    PropagationPtr computed;
    {
      ScopedSpan span(tracer, "bgp.converge", id, point.index());
      computed = std::make_shared<const bgp::PropagationResult>(
          bgp::PropagationSimulator(graph).Run(announcement));
    }
    ScopedSpan span(tracer, "bgp.traversal_index", id, point.index());
    cache.Put(std::move(computed));
  } else {
    run.traced_hits.fetch_add(1, std::memory_order_relaxed);
  }
  const attack::BaselineEntry entry = cache.GetEntry(announcement);

  attack::AsppInterceptor::Config config;
  config.attacker = attacker;
  config.victim = announcement.origin;
  attack::AsppInterceptor interceptor(config);
  ScopedSpan delta_span(tracer, "bgp.delta.propagate", id, point.index());
  bgp::DeltaResult delta = bgp::DeltaPropagator(graph).Propagate(
      entry.state, &interceptor, {attacker});
  delta_span.SetValue(static_cast<double>(delta.TouchedIndices().size()));
  delta_span.End();

  ScopedSpan accounting(tracer, "attack.accounting", id, point.index());
  PointOut out;
  const std::size_t n = graph.NumAses();
  const double denom = n > 2 ? static_cast<double>(n - 2) : 0.0;
  const auto& base_best = entry.state->BestRoutes();
  const auto traverses = [&](const std::optional<bgp::Route>& route) {
    return route.has_value() && route->path.Contains(attacker);
  };
  const std::size_t before = entry.traversal->TraversingCount(attacker);
  std::size_t after = before;
  for (std::uint32_t index : delta.TouchedIndices()) {
    const Asn asn = graph.AsnAt(index);
    if (asn == announcement.origin || asn == attacker) continue;
    const bool was = traverses(base_best[index]);
    const bool now = traverses(delta.BestAtIndex(index));
    if (now && !was) {
      ++after;
      out.newly_polluted.push_back(asn);
    } else if (was && !now) {
      --after;
    }
  }
  if (denom > 0.0) {
    out.before = static_cast<double>(before) / denom;
    out.after = static_cast<double>(after) / denom;
  }
  out.baseline = entry.state;
  out.delta = std::move(delta);
  return out;
}

// ---- correctness oracle ----------------------------------------------------

struct OracleOut {
  double before = 0.0;
  double after = 0.0;
  std::vector<Asn> newly_polluted;
};

// The reference answer: a from-scratch baseline, then the full engine's
// PropagationSimulator::Resume under the interceptor, then dense traversal
// scans of both states.
OracleOut Oracle(const topo::AsGraph& graph,
                 const bgp::Announcement& announcement, Asn attacker) {
  const bgp::PropagationSimulator engine(graph);
  const bgp::PropagationResult base = engine.Run(announcement);
  attack::AsppInterceptor::Config config;
  config.attacker = attacker;
  config.victim = announcement.origin;
  attack::AsppInterceptor interceptor(config);
  const bgp::PropagationResult after =
      engine.Resume(base, &interceptor, {attacker});
  const std::vector<Asn> before_set = base.AsesTraversing(attacker);
  const std::vector<Asn> after_set = after.AsesTraversing(attacker);
  OracleOut out;
  const std::size_t n = graph.NumAses();
  const double denom = n > 2 ? static_cast<double>(n - 2) : 0.0;
  if (denom > 0.0) {
    out.before = static_cast<double>(before_set.size()) / denom;
    out.after = static_cast<double>(after_set.size()) / denom;
  }
  const std::set<Asn> before_lookup(before_set.begin(), before_set.end());
  for (Asn asn : after_set) {
    if (!before_lookup.contains(asn)) out.newly_polluted.push_back(asn);
  }
  return out;
}

struct GatePoint {
  Asn attacker = 0;
  Asn victim = 0;
  int lambda = 0;
  attack::PairImpact row;  // what the timed sweep reported
};

// Re-runs sampled sweep points through the oracle and the delta engine's
// AttackSimulator, requiring exact fraction and newly-polluted equality with
// each other and with the sweep's own rows.
void GateSweep(Run& run, const topo::AsGraph& graph,
               std::vector<GatePoint> points) {
  if (run.args.corrupt && !points.empty()) points[0].row.after += 1e-6;
  std::vector<std::string> errors(points.size());
  run.pool->ParallelFor(points.size(), [&](std::size_t i) {
    const GatePoint& p = points[i];
    const bgp::Announcement announcement = AnnouncementFor(p.victim, p.lambda);
    const OracleOut oracle = Oracle(graph, announcement, p.attacker);
    attack::BaselineCache cache(graph);
    const attack::AttackSimulator simulator(graph, &cache);
    const attack::AttackOutcome outcome =
        simulator.RunAsppInterception(p.victim, p.attacker, p.lambda);
    std::string& error = errors[i];
    const std::string where = "AS" + std::to_string(p.attacker) + "→AS" +
                              std::to_string(p.victim) + " λ=" +
                              std::to_string(p.lambda) + ": ";
    if (outcome.fraction_before != oracle.before ||
        outcome.fraction_after != oracle.after) {
      error = where + "delta engine fractions differ from Resume";
    } else if (outcome.newly_polluted != oracle.newly_polluted) {
      error = where + "newly-polluted set differs from Resume";
    } else if (p.row.before != oracle.before || p.row.after != oracle.after) {
      error = where + "sweep row differs from Resume";
    }
  });
  for (const std::string& error : errors) {
    if (!error.empty()) run.Fail(error);
  }
  run.Note("gate: %zu sampled point(s) re-run through Resume: %s",
           points.size(), run.correct ? "exact match" : "MISMATCH");
}

// ---- serving stack ---------------------------------------------------------

// Snapshot → QueryService (warmed) → EpochManager → ReactorServer, in-process.
struct ServeStack {
  // The server's own workers (and its event loops) run one nice level below
  // the in-process load generator, which stands in for a client on another
  // host: without it the generator's sends queue behind the server's
  // threads on a busy CPU and its lag lands in the measured latency.
  std::unique_ptr<util::ThreadPool> pool;
  std::shared_ptr<const data::Snapshot> snapshot;
  std::unique_ptr<serve::EpochManager> epochs;
  std::shared_ptr<serve::QueryService> service;
  std::unique_ptr<serve::ReactorServer> server;
  std::uint64_t snapshot_bytes = 0;
  double bytes_per_entry = 0.0;

  ~ServeStack() {
    if (server != nullptr) server->Stop();
  }
};

std::vector<PropagationPtr> ConvergeAll(
    const Run& run, Tracer* tracer, const topo::AsGraph& graph,
    const std::vector<bgp::Announcement>& announcements) {
  std::vector<PropagationPtr> out(announcements.size());
  run.pool->ParallelFor(announcements.size(), [&](std::size_t i) {
    ScopedSpan span(tracer, "bgp.converge", i);
    out[i] = std::make_shared<const bgp::PropagationResult>(
        bgp::PropagationSimulator(graph).Run(announcements[i]));
  });
  return out;
}

// Compiles `baselines` (over `graph`) into a snapshot at `path`, loads it,
// and starts a server on an ephemeral loopback port. Null on failure (the
// reason is printed).
std::unique_ptr<ServeStack> BuildServeStack(
    Run& run, Tracer* tracer, const topo::AsGraph& graph,
    std::vector<PropagationPtr> baselines, const std::string& path) {
  auto stack = std::make_unique<ServeStack>();
  {
    ScopedSpan span(tracer, "data.snapshot_write", 0);
    const std::string error = data::WriteSnapshotFile(
        path, graph, bgp::PrependPolicy(), baselines, "asppi_perfbench");
    if (!error.empty()) {
      std::fprintf(stderr, "snapshot write: %s\n", error.c_str());
      return nullptr;
    }
  }
  baselines.clear();
  stack->snapshot_bytes = std::filesystem::file_size(path);

  const double heap_before = HeapBytesInUse();
  auto snapshot = std::make_shared<data::Snapshot>();
  {
    ScopedSpan span(tracer, "data.snapshot_load", 0);
    const std::string error = data::Snapshot::Load(path, *snapshot);
    if (!error.empty()) {
      std::fprintf(stderr, "snapshot load: %s\n", error.c_str());
      return nullptr;
    }
  }
  stack->snapshot = snapshot;
  stack->service = std::make_shared<serve::QueryService>(
      snapshot->Graph(), snapshot->Policy(), serve::ServiceOptions());
  for (const PropagationPtr& baseline : snapshot->Baselines()) {
    ScopedSpan span(tracer, "bgp.traversal_index", 0);
    stack->service->WarmBaselines({baseline});
  }
  if (!snapshot->Baselines().empty()) {
    stack->bytes_per_entry = (HeapBytesInUse() - heap_before) /
                             static_cast<double>(snapshot->Baselines().size());
  }
  auto epoch = std::make_shared<serve::Epoch>();
  epoch->id = 1;
  epoch->snapshot = snapshot;
  epoch->service = stack->service;
  stack->epochs = std::make_unique<serve::EpochManager>();
  stack->epochs->Install(epoch);

  serve::ReactorOptions options;
  options.log_slow_queries = false;
  ScopedSpan span(tracer, "net.server_start", 0);
  std::string error;
  std::thread starter([&] {
    // Threads inherit the nice value of the thread that creates them.
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), kServerNice);
    stack->pool = std::make_unique<util::ThreadPool>(run.nproc);
    stack->server = std::make_unique<serve::ReactorServer>(
        stack->epochs.get(), stack->pool.get(), options);
    error = stack->server->Start();
  });
  starter.join();
  if (!error.empty()) {
    std::fprintf(stderr, "server start: %s\n", error.c_str());
    stack->server.reset();
    return nullptr;
  }
  return stack;
}

// Request i of a serving workload, a pure function of (seed, i). The op
// weights and the hot share are load::WorkloadOptions' defaults, the
// repository's approximation of production traffic, restricted to the ops
// this workload serves (impact:60 route:25 detect:10). Victims come only from
// the warm set (no baseline misses); attackers and observers are uniform over
// every AS. load::Workload sends its hot share to a few hot victims; here
// every victim is already one of the few warm ones, so a hot draw repeats one
// of `hot_set` whole requests instead, which is what hits the result cache.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, const topo::AsGraph& graph,
                std::vector<bgp::Announcement> warm)
      : seed_(seed), graph_(graph), warm_(std::move(warm)) {
    std::vector<asppi::load::MixEntry> mix;
    ASPPI_CHECK(asppi::load::Workload::ParseMix(defaults_.mix, &mix));
    for (const asppi::load::MixEntry& entry : mix) {
      if (entry.op == "impact" || entry.op == "route" || entry.op == "detect") {
        mix_.push_back(entry);
        total_weight_ += static_cast<std::uint64_t>(entry.weight);
      }
    }
  }

  std::string Line(std::uint64_t i) const {
    util::Rng rng(util::DeriveSeed(seed_, 0x5e77e000ULL + i));
    if (rng.Chance(defaults_.hot_fraction)) {
      util::Rng hot(
          util::DeriveSeed(seed_, 0x40700000ULL + rng.Below(defaults_.hot_set)));
      return Draw(hot);
    }
    return Draw(rng);
  }

 private:
  std::string Draw(util::Rng& rng) const {
    std::uint64_t draw = rng.Below(total_weight_);
    std::string op;
    for (const asppi::load::MixEntry& entry : mix_) {
      op = entry.op;
      if (draw < static_cast<std::uint64_t>(entry.weight)) break;
      draw -= static_cast<std::uint64_t>(entry.weight);
    }
    const bgp::Announcement& warm = warm_[rng.Below(warm_.size())];
    const Asn victim = warm.origin;
    const int lambda = warm.prepends.MaxPadsOf(victim);
    Asn other = victim;
    while (other == victim) {
      other = graph_.AsnAt(static_cast<topo::AsId>(rng.Below(graph_.NumAses())));
    }
    const std::string tail = ",\"lambda\":" + std::to_string(lambda) + "}";
    if (op == "route") {
      return "{\"op\":\"route\",\"origin\":" + std::to_string(victim) +
             ",\"observer\":" + std::to_string(other) + tail;
    }
    return "{\"op\":\"" + op + "\",\"victim\":" + std::to_string(victim) +
           ",\"attacker\":" + std::to_string(other) + tail;
  }

  const asppi::load::WorkloadOptions defaults_;
  std::uint64_t seed_;
  const topo::AsGraph& graph_;
  std::vector<bgp::Announcement> warm_;
  std::vector<asppi::load::MixEntry> mix_;
  std::uint64_t total_weight_ = 0;
};

bool Captured(std::uint64_t i) {
  return i < kDigestRequests || i % kCaptureEvery == 0;
}

struct LegSummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;
  std::uint64_t samples = 0;
};

LegSummary Summarize(const LegResult& leg) {
  const std::vector<double> latencies = leg.OkLatenciesMs();
  LegSummary s;
  s.p50_ms = Quantile(latencies, 0.50);
  s.p99_ms = Quantile(latencies, 0.99);
  s.lag_p99_ms = Quantile(leg.LagsMs(), 0.99);
  s.samples = latencies.size();
  return s;
}

// Same parsing the service does; the gate only needs the op and pair.
std::optional<serve::Request> Parse(const std::string& line) {
  serve::Request request;
  if (!serve::ParseRequest(line, &request).empty()) return std::nullopt;
  return request;
}

// Served answers must be byte-equal to an in-process QueryService::Handle
// over the same snapshot; two sampled impact answers must also match the
// Resume oracle. The replayed answers of the first kDigestRequests stream
// positions are folded into `digest` (null for the probe, which has none).
// With a tracer, the first kDecomposed captured requests are replayed once
// more, split into ParseRequest, the decomposed point and (for detect)
// TopDegreeMonitors + AsppDetector::Scan.
void GateServe(Run& run, Tracer* tracer, const ServeStack& stack,
               const RequestStream& stream,
               std::map<std::uint64_t, std::string> served, Digest* digest) {
  const data::Snapshot& snapshot = *stack.snapshot;
  const topo::AsGraph& graph = snapshot.Graph();
  serve::QueryService reference(graph, snapshot.Policy(),
                                serve::ServiceOptions());
  reference.WarmBaselines(snapshot.Baselines());
  if (run.args.corrupt && !served.empty()) served.begin()->second += " ";

  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = 0; i < kDigestRequests; ++i) indices.push_back(i);
  for (const auto& [index, line] : served) {
    if (index >= kDigestRequests) indices.push_back(index);
  }
  std::vector<std::string> replayed(indices.size());
  const auto replay = [&](std::size_t k) {
    const std::string line = stream.Line(indices[k]);
    const std::optional<serve::Request> request = Parse(line);
    const std::string name =
        request ? std::string("serve.handle.") + serve::OpName(request->op)
                : std::string("serve.handle.invalid");
    ScopedSpan span(tracer, name.c_str(), indices[k]);
    replayed[k] = reference.Handle(line);
  };
  // Traced: serial, so per-op handle times are uncontended service times.
  if (tracer != nullptr) {
    for (std::size_t k = 0; k < indices.size(); ++k) replay(k);
  } else {
    run.pool->ParallelFor(indices.size(), replay);
  }

  std::size_t compared = 0;
  std::size_t mismatched = 0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (digest != nullptr && indices[k] < kDigestRequests) {
      digest->AddPod(indices[k]);
      digest->Add(replayed[k].data(), replayed[k].size());
    }
    const auto it = served.find(indices[k]);
    if (it == served.end()) continue;
    ++compared;
    if (it->second != replayed[k]) {
      if (mismatched == 0) {
        run.Fail("served answer to request " + std::to_string(indices[k]) +
                 " differs from in-process Handle");
      }
      ++mismatched;
    }
  }

  // Resume oracle on the first two impact answers.
  int checked = 0;
  for (std::uint64_t i = 0; i < kDigestRequests && checked < 2; ++i) {
    const std::optional<serve::Request> request = Parse(stream.Line(i));
    if (!request || request->op != serve::Op::kImpact) continue;
    ++checked;
    const std::optional<util::Json> answer =
        util::Json::Parse(replayed[static_cast<std::size_t>(i)]);
    const OracleOut oracle =
        Oracle(graph, AnnouncementFor(request->victim, request->lambda),
               request->attacker);
    const util::Json* before = answer ? answer->Find("fraction_before") : nullptr;
    const util::Json* after = answer ? answer->Find("fraction_after") : nullptr;
    const util::Json* newly = answer ? answer->Find("newly_polluted") : nullptr;
    if (before == nullptr || after == nullptr || newly == nullptr ||
        before->AsDouble() != oracle.before ||
        after->AsDouble() != oracle.after ||
        newly->AsDouble() != static_cast<double>(oracle.newly_polluted.size())) {
      run.Fail("impact answer to request " + std::to_string(i) +
               " differs from the Resume oracle");
    }
  }
  run.Note("gate: %zu served answer(s) byte-compared (%zu mismatched), %d "
           "impact answer(s) checked against Resume",
           compared, mismatched, checked);

  if (tracer == nullptr) return;
  attack::BaselineCache cache(graph);
  KeySet keys;
  for (const PropagationPtr& baseline : snapshot.Baselines()) {
    cache.Put(baseline);
    keys.Claim(KeyOf(baseline->GetAnnouncement()));
  }
  const detect::AsppDetector detector(&graph);
  std::size_t decomposed = 0;
  for (const auto& [index, unused] : served) {
    if (decomposed++ >= kDecomposed) break;
    const std::string line = stream.Line(index);
    std::optional<serve::Request> request;
    {
      ScopedSpan span(tracer, "serve.parse", index);
      request = Parse(line);
    }
    if (!request || request->op == serve::Op::kRoute) continue;
    const bgp::Announcement announcement =
        AnnouncementFor(request->victim, request->lambda);
    const PointOut point = DecomposedPoint(run, tracer, graph, cache, keys,
                                           announcement, request->attacker,
                                           index);
    if (request->op != serve::Op::kDetect) continue;
    std::vector<Asn> monitors;
    {
      ScopedSpan span(tracer, "detect.monitors", index);
      monitors = detect::TopDegreeMonitors(graph, kMonitors);
    }
    std::vector<std::pair<Asn, bgp::AsPath>> previous;
    std::vector<std::pair<Asn, bgp::AsPath>> current;
    for (Asn m : monitors) {
      if (m == request->attacker) continue;
      if (const auto& best = point.baseline->BestAt(m)) {
        previous.emplace_back(m, best->path);
      }
      if (const auto& best = point.delta->BestAt(m)) {
        current.emplace_back(m, best->path);
      }
    }
    ScopedSpan span(tracer, "detect.scan", index);
    (void)detector.Scan(request->victim, previous, current,
                        &announcement.prepends);
  }
}

// Per-layer metrics of the data/serve/net/detect/load layers, from one
// serving session (the serve workload itself, or the probe on sweeps).
void ServeLayerMetrics(Run& run, const std::vector<Span>& spans,
                       const ServeStack& stack,
                       const std::vector<const LegResult*>& fixed_legs) {
  run.Layer("data.snapshot_write_ms",
            Quantile(DurationsMs(spans, "data.snapshot_write"), 0.5), "ms");
  run.Layer("data.snapshot_bytes", static_cast<double>(stack.snapshot_bytes),
            "bytes");
  run.Layer("data.snapshot_load_ms",
            Quantile(DurationsMs(spans, "data.snapshot_load"), 0.5), "ms");
  run.Layer("detect.monitors_ms.p50",
            Quantile(DurationsMs(spans, "detect.monitors"), 0.5), "ms");
  run.Layer("detect.scan_ms.p50",
            Quantile(DurationsMs(spans, "detect.scan"), 0.5), "ms");
  std::vector<double> parse_us = DurationsMs(spans, "serve.parse");
  for (double& x : parse_us) x *= 1000.0;
  run.Layer("serve.parse_us.p50", Quantile(parse_us, 0.5), "us");
  for (const char* op : {"impact", "route", "detect"}) {
    const std::vector<double> handle =
        DurationsMs(spans, std::string("serve.handle.") + op);
    run.Layer(std::string("serve.handle_ms.") + op + ".p50",
              Quantile(handle, 0.5), "ms");
    run.Layer(std::string("serve.handle_ms.") + op + ".p99",
              Quantile(handle, 0.99), "ms");
  }
  const util::ShardedLruCache::Stats cache = stack.service->Cache().GetStats();
  run.Layer("serve.result_cache.hit_ratio",
            cache.hits + cache.misses == 0
                ? 0.0
                : static_cast<double>(cache.hits) /
                      static_cast<double>(cache.hits + cache.misses),
            "ratio");

  // Per request: the round trip minus its op's replayed handle time (see
  // AddRequestSpans). QueryService::Latency() is too coarse to subtract
  // (power-of-two buckets: the difference at p99 can come out negative), so
  // it is only printed.
  const std::vector<double> transport = DurationsMs(spans, "net.transport");
  run.Layer("net.transport_ms.p50", Quantile(transport, 0.5), "ms");
  run.Layer("net.transport_ms.p99", Quantile(transport, 0.99), "ms");
  util::LatencyHistogram& server_latency = stack.service->Latency();
  run.Note("serve: QueryService::Latency() p50 %.3f ms, p99 %.3f ms over "
           "%" PRIu64 " requests (power-of-two buckets)",
           server_latency.QuantileNs(0.5) / 1e6,
           server_latency.QuantileNs(0.99) / 1e6, server_latency.Count());
  const serve::ServerStats stats = stack.server->Stats();
  run.Layer("net.batch_lines.mean",
            stats.batches == 0 ? 0.0
                               : static_cast<double>(stats.batched_requests) /
                                     static_cast<double>(stats.batches),
            "count");
  run.Layer("net.overload_rejects", static_cast<double>(stats.overload_rejects),
            "count");
  run.Layer("net.backlog_sheds", static_cast<double>(stats.backlog_sheds),
            "count");

  std::vector<double> lags;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  for (const LegResult* leg : fixed_legs) {
    const std::vector<double> l = leg->LagsMs();
    lags.insert(lags.end(), l.begin(), l.end());
    sent += leg->Sent();
    answered += leg->Sent() - leg->Count(Status::kPending);
  }
  run.Layer("load.lag_ms.p99", Quantile(lags, 0.99), "ms");
  run.Layer("load.sent", static_cast<double>(sent), "count");
  run.Layer("load.answered", static_cast<double>(answered), "count");
}

// Client-side spans of the answered requests of `leg`, after GateServe has
// replayed the stream: `load.lag` from the scheduled to the actual send, and
// `net.transport` from the send, as long as the round trip minus the
// server's handle time (its value is the whole round trip, in ms). The live
// server is not traced per request, so that handle time is the median
// replay time of the request's op (GateServe's serve.handle.<op> spans).
void AddRequestSpans(Tracer* tracer, const LegResult& leg,
                     const RequestStream& stream) {
  if (tracer == nullptr) return;
  const std::vector<Span> spans = tracer->Spans();
  std::map<serve::Op, std::uint64_t> handle_ns;
  for (serve::Op op : {serve::Op::kImpact, serve::Op::kRoute,
                       serve::Op::kDetect}) {
    const std::vector<double> ms =
        DurationsMs(spans, std::string("serve.handle.") + serve::OpName(op));
    handle_ns[op] = static_cast<std::uint64_t>(Quantile(ms, 0.5) * 1e6);
  }
  for (const RequestRecord& r : leg.records) {
    if (r.status == Status::kPending) continue;
    Span lag;
    lag.name = "load.lag";
    lag.id = r.index;
    lag.start_ns = r.scheduled_ns;
    lag.end_ns = r.sent_ns;
    tracer->Add(std::move(lag));
    const std::optional<serve::Request> request = Parse(stream.Line(r.index));
    const std::uint64_t round_trip = r.done_ns - r.sent_ns;
    const std::uint64_t server =
        request ? std::min(handle_ns[request->op], round_trip) : 0;
    Span transport;
    transport.name = "net.transport";
    transport.id = r.index;
    transport.start_ns = r.sent_ns;
    transport.end_ns = r.sent_ns + round_trip - server;
    transport.value = static_cast<double>(round_trip) / 1e6;
    tracer->Add(std::move(transport));
  }
}

// Runs a fixed-rate leg; a leg whose generator fell behind its schedule
// (lag p99 above kMaxLagP99Ms) is re-run on fresh stream positions, twice at
// most, and reported invalid after that.
std::optional<LegResult> FixedLeg(Run& run, OpenLoopClient& client,
                                  const RequestStream& stream, const char* name,
                                  double rate, double seconds,
                                  std::uint64_t* next_index,
                                  std::uint64_t salt) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    LegPlan plan;
    plan.rate_rps = rate;
    plan.duration_s = seconds;
    plan.first_index = *next_index;
    plan.schedule_seed = util::DeriveSeed(run.args.seed, salt + attempt);
    LegResult leg = client.Run(
        plan, [&](std::uint64_t i) { return stream.Line(i); }, Captured);
    *next_index += leg.Sent();
    const LegSummary s = Summarize(leg);
    if (s.lag_p99_ms <= kMaxLagP99Ms) return leg;
    run.Note("leg %s INVALID (attempt %d): generator lag p99 %.3f ms > %.1f ms",
             name, attempt + 1, s.lag_p99_ms, kMaxLagP99Ms);
  }
  return std::nullopt;
}

// A short serving session on a sweep workload's own baselines, traced only,
// so the sweeps report the data/serve/net/detect/load layers too. Its spans
// go to their own tracer and its metrics never mix with the sweep's.
bool ServeProbe(Run& run, const topo::AsGraph& graph,
                const std::vector<bgp::Announcement>& warm,
                std::vector<PropagationPtr> baselines) {
  Tracer probe_tracer;
  const std::string path = run.OutPath("-probe.snap");
  std::unique_ptr<ServeStack> stack =
      BuildServeStack(run, &probe_tracer, graph, std::move(baselines), path);
  if (stack == nullptr) return false;
  const RequestStream stream(util::DeriveSeed(run.args.seed, 0x9e0be),
                             stack->snapshot->Graph(), warm);
  OpenLoopClient client(stack->server->Port(),
                        static_cast<int>(run.nproc));
  if (!client.Error().empty()) {
    std::fprintf(stderr, "%s\n", client.Error().c_str());
    return false;
  }
  LegPlan plan;
  plan.rate_rps = kProbeRps;
  plan.duration_s = kProbeSeconds;
  plan.schedule_seed = util::DeriveSeed(run.args.seed, 0x9e0bf);
  const LegResult leg = client.Run(
      plan, [&](std::uint64_t i) { return stream.Line(i); }, Captured);
  GateServe(run, &probe_tracer, *stack, stream, leg.captured, nullptr);
  AddRequestSpans(&probe_tracer, leg, stream);
  ServeLayerMetrics(run, probe_tracer.Spans(), *stack, {&leg});
  // Parents are indices into the tracer's span list: shift them past the
  // spans already recorded.
  const std::int64_t base = static_cast<std::int64_t>(run.tracer->Size());
  for (Span& span : probe_tracer.Spans()) {
    if (span.parent >= 0) span.parent += base;
    run.tracer->Add(std::move(span));
  }
  std::filesystem::remove(path);
  return true;
}

// Registry snapshots around a stretch of the run.
struct Window {
  util::Metrics::Snapshot before;
  util::Metrics::Snapshot after;

  std::uint64_t Counter(const std::string& name) const {
    return CounterOf(after, name) - CounterOf(before, name);
  }
};

// Per-layer metrics every workload reports from its own spans.
// `converging` brackets the workload's baseline convergences (the counters
// per converge), `measured` its measured work (the pool's queue wait).
void CoreLayerMetrics(Run& run, const std::vector<Span>& spans,
                      const Window& converging, const Window& measured,
                      double bytes_per_entry, std::uint64_t cache_hits,
                      std::uint64_t cache_misses) {
  run.Layer("topology.generate_ms",
            Quantile(DurationsMs(spans, "topology.generate"), 0.5), "ms");
  const std::vector<double> converge = DurationsMs(spans, "bgp.converge");
  run.Layer("bgp.converge_ms.p50", Quantile(converge, 0.5), "ms");
  run.Layer("bgp.converge_ms.p99", Quantile(converge, 0.99), "ms");
  run.Layer("bgp.converge_ms.count", static_cast<double>(converge.size()),
            "count");
  const std::uint64_t runs = converging.Counter("bgp.propagation.runs");
  const std::uint64_t announced =
      converging.Counter("bgp.propagation.routes_announced");
  run.Layer("bgp.routes_announced_per_converge",
            runs == 0 ? 0.0
                      : static_cast<double>(announced) /
                            static_cast<double>(runs),
            "count");
  run.Layer("bgp.traversal_index_ms.p50",
            Quantile(DurationsMs(spans, "bgp.traversal_index"), 0.5), "ms");
  run.Layer("attack.baseline_cache.hits", static_cast<double>(cache_hits),
            "count");
  run.Layer("attack.baseline_cache.misses", static_cast<double>(cache_misses),
            "count");
  run.Layer("attack.baseline_cache.hit_ratio",
            cache_hits + cache_misses == 0
                ? 0.0
                : static_cast<double>(cache_hits) /
                      static_cast<double>(cache_hits + cache_misses),
            "ratio");
  run.Layer("attack.baseline_cache.bytes_per_entry", bytes_per_entry, "bytes");
  const std::vector<double> delta = DurationsMs(spans, "bgp.delta.propagate");
  const std::vector<double> wavefront = Values(spans, "bgp.delta.propagate");
  run.Layer("bgp.delta.propagate_ms.p50", Quantile(delta, 0.5), "ms");
  run.Layer("bgp.delta.propagate_ms.p99", Quantile(delta, 0.99), "ms");
  run.Layer("bgp.delta.wavefront.mean", MeanOf(wavefront), "count");
  run.Layer("bgp.delta.wavefront.max", Quantile(wavefront, 1.0), "count");
  const std::vector<double> point = DurationsMs(spans, "attack.point");
  run.Layer("attack.point_ms.p50", Quantile(point, 0.5), "ms");
  run.Layer("attack.point_ms.p99", Quantile(point, 0.99), "ms");
  run.Layer("attack.accounting_ms.p50",
            Quantile(DurationsMs(spans, "attack.accounting"), 0.5), "ms");
  const util::Metrics::TimerStat wait_before =
      TimerOf(measured.before, "util.thread_pool.queue_wait");
  const util::Metrics::TimerStat wait_after =
      TimerOf(measured.after, "util.thread_pool.queue_wait");
  const std::uint64_t waits = wait_after.count - wait_before.count;
  run.Layer("pool.queue_wait_ms.mean",
            waits == 0 ? 0.0
                       : static_cast<double>(wait_after.total_ns -
                                             wait_before.total_ns) /
                             static_cast<double>(waits) / 1e6,
            "ms");
}

void SelfTimeMetrics(Run& run) {
  const std::map<std::string, double> self = SelfTimeMsByLayer(run.tracer->Spans());
  for (const char* layer :
       {"topology", "data", "bgp", "attack", "detect", "serve", "net", "load"}) {
    const auto it = self.find(layer);
    run.Layer(std::string("self_ms.") + layer,
              it == self.end() ? 0.0 : it->second, "ms");
  }
}

// ---- sweep_cold -------------------------------------------------------------

// Pairs of batch b: victims walk a seeded permutation of every AS (all
// distinct across the run), attackers are uniform.
class ColdPairs {
 public:
  ColdPairs(std::uint64_t seed, const topo::AsGraph& graph)
      : seed_(seed), graph_(graph) {
    order_.assign(graph.Ases().begin(), graph.Ases().end());
    util::Rng rng(util::DeriveSeed(seed, 0xc01d));
    rng.Shuffle(order_);
  }

  std::vector<std::pair<Asn, Asn>> Batch(std::size_t b) const {
    std::vector<std::pair<Asn, Asn>> pairs;
    for (std::size_t j = 0; j < kColdBatch; ++j) {
      const std::size_t k = (b * kColdBatch + j) % order_.size();
      const Asn victim = order_[k];
      util::Rng rng(util::DeriveSeed(seed_, 0xa77ac000ULL + k));
      Asn attacker = victim;
      while (attacker == victim) {
        attacker =
            graph_.AsnAt(static_cast<topo::AsId>(rng.Below(graph_.NumAses())));
      }
      pairs.emplace_back(attacker, victim);
    }
    return pairs;
  }

 private:
  std::uint64_t seed_;
  const topo::AsGraph& graph_;
  std::vector<Asn> order_;
};

// One fig-style sweep: either RunPairSweep itself or, traced, the same
// points decomposed (DecomposedPoint) and sorted the same way.
std::vector<attack::PairImpact> Sweep(
    Run& run, const topo::AsGraph& graph, attack::BaselineCache& cache,
    KeySet& keys, const std::vector<std::pair<Asn, Asn>>& pairs, int lambda,
    std::uint64_t first_id) {
  if (run.T() == nullptr) {
    attack::PairSweepOptions options;
    options.lambda = lambda;
    options.pool = run.pool.get();
    options.baseline_cache = &cache;
    return attack::RunPairSweep(graph, pairs, options);
  }
  std::vector<attack::PairImpact> rows(pairs.size());
  run.pool->ParallelFor(pairs.size(), [&](std::size_t i) {
    const auto& [attacker, victim] = pairs[i];
    const PointOut out =
        DecomposedPoint(run, run.T(), graph, cache, keys,
                        AnnouncementFor(victim, lambda), attacker, first_id + i);
    rows[i] = attack::PairImpact{attacker, victim, out.before, out.after};
  });
  SortRows(rows);
  return rows;
}

const attack::PairImpact* FindRow(const std::vector<attack::PairImpact>& rows,
                                  Asn attacker, Asn victim) {
  for (const attack::PairImpact& row : rows) {
    if (row.attacker == attacker && row.victim == victim) return &row;
  }
  return nullptr;
}

void DumpLines(const std::string& path, const std::vector<std::string>& lines) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
}

int SweepCold(Run& run) {
  std::unique_ptr<topo::GeneratedTopology> topology;
  const double setup_s =
      RepeatSetup(kSweepSetupReps, &topology, [&] { return Generate(run); });
  const topo::AsGraph& graph = topology->graph;
  const ColdPairs pairs(run.args.seed, graph);
  {
    std::vector<std::string> dump;
    for (std::size_t b = 0; b < 4; ++b) {
      for (const auto& [a, v] : pairs.Batch(b)) {
        dump.push_back(std::to_string(a) + " " + std::to_string(v));
      }
    }
    DumpLines(run.args.dump_inputs, dump);
  }

  const util::Metrics::Snapshot before = Registry();
  std::vector<double> call_ms;
  std::vector<double> call_rate;  // points per second of each call
  std::vector<double> bytes_per_entry;
  std::vector<std::vector<attack::PairImpact>> kept;
  std::uint64_t points = 0;
  const std::uint64_t start = NowNs();
  for (std::size_t b = 0;
       SecondsSince(start) < run.args.seconds || b < kColdDigestBatches; ++b) {
    const std::vector<std::pair<Asn, Asn>> batch = pairs.Batch(b);
    const std::uint64_t call_start = NowNs();
    std::vector<attack::PairImpact> rows;
    {
      const double heap_before = HeapBytesInUse();
      attack::BaselineCache cache(graph);  // fresh per call, as fig08 pays
      KeySet keys;
      rows = Sweep(run, graph, cache, keys, batch, kColdLambda, b * kColdBatch);
      bytes_per_entry.push_back((HeapBytesInUse() - heap_before) /
                                static_cast<double>(cache.Size()));
    }  // the cache's teardown is part of the call
    const double seconds = SecondsSince(call_start);
    call_ms.push_back(seconds * 1e3);
    call_rate.push_back(static_cast<double>(batch.size()) / seconds);
    points += batch.size();
    if (b < kColdDigestBatches) kept.push_back(std::move(rows));
  }
  const double elapsed = SecondsSince(start);
  const util::Metrics::Snapshot after = Registry();

  for (const auto& rows : kept) run.digest.AddRows(rows);
  // Medians over calls, so a stall of the shared host in one call does not
  // move the run's figure.
  const double points_per_s = Quantile(call_rate, 0.5);
  run.attempted = points;
  run.E2e("setup_s", setup_s, "s");
  run.E2e("peak_rss_mb", PeakRssMb(), "MB");
  run.E2e("throughput_per_s", points_per_s, "1/s");
  run.E2e("latency_p50_ms", Quantile(call_ms, 0.5), "ms");
  run.E2e("ok_frac", 1.0, "fraction");
  run.Note("sweep.points_per_s %.4f 1/s (median of %zu calls of %zu pairs; "
           "%" PRIu64 " points in %.2f s)",
           points_per_s, call_ms.size(), kColdBatch, points, elapsed);

  std::vector<GatePoint> gate;
  for (const auto& [b, j] : {std::pair<std::size_t, std::size_t>{0, 0},
                            {0, kColdBatch - 1},
                            {1, kColdBatch / 2}}) {
    const auto [attacker, victim] = pairs.Batch(b)[j];
    const attack::PairImpact* row = FindRow(kept[b], attacker, victim);
    gate.push_back({attacker, victim, kColdLambda, row ? *row : attack::PairImpact{}});
  }
  if (run.args.primary) GateSweep(run, graph, gate);

  if (run.T() != nullptr) {
    const Window timed{before, after};
    CoreLayerMetrics(run, run.tracer->Spans(), timed, timed,
                     Quantile(bytes_per_entry, 0.5), run.traced_hits.load(),
                     run.traced_misses.load());
    std::vector<bgp::Announcement> warm;
    for (std::size_t j = 0; j < 2; ++j) {
      warm.push_back(AnnouncementFor(pairs.Batch(0)[j].second, kColdLambda));
    }
    if (!ServeProbe(run, graph, warm, ConvergeAll(run, nullptr, graph, warm))) {
      return kError;
    }
    SelfTimeMetrics(run);
  }
  return kOk;
}

// ---- sweep_warm -------------------------------------------------------------

struct WarmState {
  std::unique_ptr<topo::GeneratedTopology> topology;
  std::unique_ptr<attack::BaselineCache> cache;  // destroyed before topology
  KeySet keys;
  Asn victim = 0;
  double bytes_per_entry = 0.0;
};

int SweepWarm(Run& run) {
  std::unique_ptr<WarmState> state;
  const double setup_s = RepeatSetup(kSweepSetupReps, &state, [&] {
    auto s = std::make_unique<WarmState>();
    s->topology = Generate(run);
    const topo::AsGraph& graph = s->topology->graph;
    // Fixed, like the serve workload's victims: the seed varies the
    // attackers.
    s->victim = s->topology->tier1.front();
    s->cache = std::make_unique<attack::BaselineCache>(graph);
    const double heap_before = HeapBytesInUse();
    run.pool->ParallelFor(kWarmMaxLambda, [&](std::size_t i) {
      const bgp::Announcement announcement =
          AnnouncementFor(s->victim, static_cast<int>(i) + 1);
      if (run.T() == nullptr) {
        (void)s->cache->GetEntry(announcement);
        return;
      }
      s->keys.Claim(KeyOf(announcement));
      PropagationPtr computed;
      {
        ScopedSpan span(run.T(), "bgp.converge", i);
        computed = std::make_shared<const bgp::PropagationResult>(
            bgp::PropagationSimulator(graph).Run(announcement));
      }
      ScopedSpan span(run.T(), "bgp.traversal_index", i);
      s->cache->Put(std::move(computed));
    });
    s->bytes_per_entry = (HeapBytesInUse() - heap_before) / kWarmMaxLambda;
    return s;
  });
  const topo::GeneratedTopology& topology = *state->topology;
  const topo::AsGraph& graph = topology.graph;
  const Asn victim = state->victim;

  // Tier-1 attackers first, in tier order, then the seed's tier-2 sample.
  // The order is part of the work: each tier-1 attacker costs ~100x a tier-2
  // one and RunPairSweep hands out chunks in input order, so a shuffled list
  // would make the sweep's tail, and its throughput, depend on the seed.
  std::vector<Asn> attackers;
  for (Asn asn : topology.tier1) {
    if (asn != victim) attackers.push_back(asn);
  }
  util::Rng rng(util::DeriveSeed(run.args.seed, 0x3a54));
  for (std::size_t k : rng.SampleWithoutReplacement(
           topology.tier2.size(), std::min(kWarmTier2, topology.tier2.size()))) {
    attackers.push_back(topology.tier2[k]);
  }
  std::vector<std::pair<Asn, Asn>> pairs;
  for (Asn attacker : attackers) pairs.emplace_back(attacker, victim);
  {
    std::vector<std::string> dump = {"victim " + std::to_string(victim)};
    for (Asn a : attackers) dump.push_back(std::to_string(a));
    DumpLines(run.args.dump_inputs, dump);
  }

  const util::Metrics::Snapshot before = Registry();
  std::vector<double> call_ms;
  std::vector<double> pass_rate;  // points per second of each pass
  std::vector<std::vector<attack::PairImpact>> first_pass;
  std::uint64_t points = 0;
  const std::uint64_t start = NowNs();
  // Whole passes only: λ=1 columns cost far less than λ=6 ones, so a run cut
  // mid-pass would report a different work mix.
  for (std::size_t pass = 0; pass == 0 || SecondsSince(start) < run.args.seconds;
       ++pass) {
    const std::uint64_t pass_start = NowNs();
    for (int lambda = 1; lambda <= kWarmMaxLambda; ++lambda) {
      const std::uint64_t call_start = NowNs();
      std::vector<attack::PairImpact> rows =
          Sweep(run, graph, *state->cache, state->keys, pairs, lambda,
                points);
      call_ms.push_back(static_cast<double>(NowNs() - call_start) / 1e6);
      points += pairs.size();
      if (pass == 0) first_pass.push_back(std::move(rows));
    }
    pass_rate.push_back(static_cast<double>(pairs.size() * kWarmMaxLambda) /
                        SecondsSince(pass_start));
  }
  const double elapsed = SecondsSince(start);
  const util::Metrics::Snapshot after = Registry();

  for (const auto& rows : first_pass) run.digest.AddRows(rows);
  const double points_per_s = Quantile(pass_rate, 0.5);
  run.attempted = points;
  run.E2e("setup_s", setup_s, "s");
  run.E2e("peak_rss_mb", PeakRssMb(), "MB");
  run.E2e("throughput_per_s", points_per_s, "1/s");
  run.E2e("latency_p50_ms", Quantile(call_ms, 0.5), "ms");
  run.E2e("ok_frac", 1.0, "fraction");
  run.Note("sweep.points_per_s %.4f 1/s (median of %zu passes; victim AS%u, "
           "%zu attackers × λ 1..%d; %" PRIu64 " points in %.2f s)",
           points_per_s, pass_rate.size(), victim, attackers.size(),
           kWarmMaxLambda, points, elapsed);

  std::vector<GatePoint> gate;
  for (const auto& [k, lambda] :
       {std::pair<std::size_t, int>{0, 3}, {attackers.size() - 1, 6},
        {attackers.size() / 2, 1}}) {
    const Asn attacker = attackers[k];
    const attack::PairImpact* row =
        FindRow(first_pass[static_cast<std::size_t>(lambda - 1)], attacker,
                victim);
    gate.push_back({attacker, victim, lambda, row ? *row : attack::PairImpact{}});
  }
  if (run.args.primary) GateSweep(run, graph, gate);

  if (run.T() != nullptr) {
    // This workload's converges all happen in set-up.
    CoreLayerMetrics(run, run.tracer->Spans(), Window{{}, before},
                     Window{before, after}, state->bytes_per_entry,
                     run.traced_hits.load(), run.traced_misses.load());
    std::vector<bgp::Announcement> warm;
    std::vector<PropagationPtr> baselines;
    for (int lambda = 1; lambda <= kWarmMaxLambda; ++lambda) {
      warm.push_back(AnnouncementFor(victim, lambda));
      baselines.push_back(state->cache->Get(warm.back()));
    }
    if (!ServeProbe(run, graph, warm, std::move(baselines))) return kError;
    SelfTimeMetrics(run);
  }
  return kOk;
}

// ---- serve_open_loop --------------------------------------------------------

// The K warm victims, spread across tiers: fixed by the workload, not the
// seed, so that seeds vary the request stream but not the victims' cost
// class (one seed's tier-1 victim can cost several times another's).
std::vector<bgp::Announcement> ServeWarmSet(
    const topo::GeneratedTopology& topology) {
  std::vector<bgp::Announcement> warm;
  for (const std::vector<Asn>* tier : {&topology.tier1, &topology.tier2,
                                       &topology.tier3, &topology.stubs}) {
    for (std::size_t k = 1; k <= kServeWarmPerTier; ++k) {
      const std::size_t index = tier->size() * k / (kServeWarmPerTier + 1);
      warm.push_back(AnnouncementFor((*tier)[index], kServeLambda));
    }
  }
  return warm;
}

// The SLO search's outcome: the highest rate seen to meet the SLO and the
// lowest seen to miss it (0 when none was).
struct SloBracket {
  double good = 0.0;
  double bad = 0.0;

  bool Resolved() const {
    return good > 0.0 && bad > 0.0 && bad / good <= kSearchResolution;
  }
};

// Highest Poisson rate whose p99 (failures and unanswered counted as late)
// stays within the SLO without a growing backlog: from `known_good` (a rate
// already seen to meet it, or 0) climb ×1.25 until a probe fails — from
// `start` when nothing is known — then bisect geometrically until the
// bracket is within kSearchResolution, for at most kSearchBudgetS.
SloBracket SearchMaxRps(Run& run, OpenLoopClient& client,
                        const RequestStream& stream, double known_good,
                        double start, std::uint64_t* next_index,
                        std::vector<LegResult>* probes) {
  constexpr double kProbeS = 1.5;
  const std::uint64_t search_start = NowNs();
  const auto probe = [&](double rate) {
    LegPlan plan;
    plan.rate_rps = rate;
    plan.duration_s = kProbeS;
    plan.first_index = *next_index;
    plan.schedule_seed = util::DeriveSeed(run.args.seed, 0x5ea0000ULL + probes->size());
    const double expected = rate * kProbeS;
    plan.late_budget = static_cast<std::uint64_t>(expected * 0.01) + 1;
    plan.slo_ms = kSloP99Ms;
    LegResult leg = client.Run(
        plan, [&](std::uint64_t i) { return stream.Line(i); },
        [](std::uint64_t) { return false; });
    *next_index += leg.Sent();
    const bool backlog = static_cast<double>(leg.outstanding_at_window_end) >
                         std::max<double>(static_cast<double>(run.nproc),
                                          rate * kSloP99Ms / 1000.0);
    const bool meets = !leg.aborted && !backlog &&
                       leg.late <= leg.Sent() / 100 &&
                       leg.Count(Status::kPending) == 0;
    probes->push_back(std::move(leg));
    const LegSummary summary = Summarize(probes->back());
    run.Note("search: %.1f rps %s (p99 %.3f ms, lag p99 %.3f ms, %" PRIu64
             " late of %" PRIu64 ")",
             rate, meets ? "meets SLO" : "misses SLO", summary.p99_ms,
             summary.lag_p99_ms, probes->back().late, probes->back().Sent());
    return meets;
  };
  const auto time_left = [&] {
    return kSearchBudgetS - SecondsSince(search_start) > kProbeS;
  };
  SloBracket bracket;
  bracket.good = known_good;
  double rate = known_good > 0.0 ? known_good * 1.25 : start;
  while (time_left()) {
    if (probe(rate)) {
      bracket.good = rate;
      if (bracket.bad > 0.0) break;
      rate *= 1.25;
    } else {
      bracket.bad = rate;
      if (bracket.good > 0.0) break;
      rate /= 1.25;
    }
  }
  while (bracket.good > 0.0 && bracket.bad > 0.0 && !bracket.Resolved() &&
         time_left()) {
    const double mid = std::sqrt(bracket.good * bracket.bad);
    if (probe(mid)) {
      bracket.good = mid;
    } else {
      bracket.bad = mid;
    }
  }
  return bracket;
}

struct ServeState {
  std::unique_ptr<ServeStack> stack;  // holds the server
  std::vector<bgp::Announcement> warm;
};

int ServeOpenLoop(Run& run) {
  const std::string path = run.OutPath(".snap");
  const util::Metrics::Snapshot start_registry = Registry();
  std::unique_ptr<ServeState> state;
  bool ok = true;
  const double setup_s = RepeatSetup(
      kServeSetupReps, &state, [&]() -> std::unique_ptr<ServeState> {
    auto s = std::make_unique<ServeState>();
    std::unique_ptr<topo::GeneratedTopology> topology = Generate(run);
    s->warm = ServeWarmSet(*topology);
    std::vector<PropagationPtr> baselines =
        ConvergeAll(run, run.T(), topology->graph, s->warm);
    s->stack = BuildServeStack(run, run.T(), topology->graph,
                               std::move(baselines), path);
    if (s->stack == nullptr) ok = false;
    return s;
  });
  if (!ok) return kError;
  const util::Metrics::Snapshot setup_registry = Registry();
  ServeStack& stack = *state->stack;
  const topo::AsGraph& graph = stack.snapshot->Graph();
  const RequestStream stream(run.args.seed, graph, state->warm);
  {
    std::vector<std::string> dump;
    for (const bgp::Announcement& a : state->warm) {
      dump.push_back("warm " + std::to_string(a.origin));
    }
    for (std::uint64_t i = 0; i < 512; ++i) dump.push_back(stream.Line(i));
    DumpLines(run.args.dump_inputs, dump);
  }

  OpenLoopClient client(stack.server->Port(), static_cast<int>(run.nproc));
  if (!client.Error().empty()) {
    std::fprintf(stderr, "%s\n", client.Error().c_str());
    return kError;
  }
  // Timeline, as shares of --seconds: 5% warm-up at the high rate
  // (first-touch page faults of the mapped snapshot, result-cache fill), 95%
  // in kServeRounds rounds of {low-rate leg, high-rate leg, closed-loop
  // capacity} (1:1:1). The primary process then searches for the SLO rate
  // for up to kSearchBudgetS more. The bounded figures are medians over the
  // rounds: this host's speed wanders on a scale of seconds, so rounds
  // spread over the run are far steadier than one long leg of each. The
  // bounded latency is the low rate's: at the high rate queueing behind
  // detect requests amplifies every slowdown of the host (its p50 spread
  // 31% over ten seeds, the low rate's 15%).
  const ServeRates rates = run.args.small ? kSmallRates : kInternetRates;
  const auto line_of = [&](std::uint64_t i) { return stream.Line(i); };
  std::uint64_t next_index = 0;
  {
    LegPlan plan;
    plan.rate_rps = rates.high;
    plan.duration_s = 0.05 * run.args.seconds;
    plan.schedule_seed = util::DeriveSeed(run.args.seed, 0x30000);
    next_index +=
        client.Run(plan, line_of, [](std::uint64_t) { return false; }).Sent();
  }
  const util::Metrics::Snapshot before = Registry();
  const double leg_s = 0.95 * run.args.seconds / kServeRounds / 3.0;
  LegResult low;   // every round's low-rate requests
  LegResult high;  // every round's high-rate requests
  low.plan.rate_rps = rates.low;
  high.plan.rate_rps = rates.high;
  std::vector<double> low_p50;
  std::vector<double> high_p50;
  std::vector<double> capacity_rps;
  std::uint64_t capacity_failed = 0;
  for (int round = 0; round < kServeRounds; ++round) {
    for (auto [name, pooled, p50, salt] :
         {std::tuple{"low", &low, &low_p50, 0x10000},
          std::tuple{"high", &high, &high_p50, 0x20000}}) {
      std::optional<LegResult> leg =
          FixedLeg(run, client, stream, name, pooled->plan.rate_rps, leg_s,
                   &next_index, salt + 16 * round);
      if (!leg) return kInvalid;
      p50->push_back(Summarize(*leg).p50_ms);
      pooled->records.insert(pooled->records.end(), leg->records.begin(),
                             leg->records.end());
      pooled->captured.merge(leg->captured);
      pooled->late += leg->late;
    }
    // Capacity: ok answers per second with every connection kept busy. It
    // is the bounded throughput figure because the SLO search is not steady
    // enough for one: the p99 knee is soft (a detect request holds up its
    // connection's later requests), so p99 noise moves the crossing rate by
    // tens of percent.
    const ClosedResult capacity =
        client.RunClosed(leg_s, kCapacityWindow, next_index, line_of);
    next_index += capacity.sent;
    capacity_failed += capacity.failed;
    capacity_rps.push_back(static_cast<double>(capacity.completed) /
                           capacity.seconds);
  }
  std::vector<LegResult> probes;
  SloBracket slo;
  if (run.args.primary) {
    const bool high_meets =
        high.late <= high.Sent() / 100 && high.Count(Status::kPending) == 0;
    slo = SearchMaxRps(run, client, stream, high_meets ? rates.high : 0.0,
                       rates.high, &next_index, &probes);
  }
  const util::Metrics::Snapshot after = Registry();

  const std::uint64_t sent = low.Sent() + high.Sent();
  const std::uint64_t ok_count =
      low.Count(Status::kOk) + high.Count(Status::kOk);
  run.attempted = sent;
  run.failed = sent - ok_count;
  run.E2e("setup_s", setup_s, "s");
  run.E2e("peak_rss_mb", PeakRssMb(), "MB");
  run.E2e("throughput_per_s", Quantile(capacity_rps, 0.5), "1/s");
  run.E2e("latency_p50_ms", Quantile(low_p50, 0.5), "ms");
  run.E2e("ok_frac", static_cast<double>(ok_count) / static_cast<double>(sent),
          "fraction");
  for (const auto& [name, leg, p50] : {std::tuple{"low", &low, &low_p50},
                                       std::tuple{"high", &high, &high_p50}}) {
    const LegSummary s = Summarize(*leg);
    run.Note("serve.%s.p50_ms %.4f ms (median of %d rounds; pooled %.4f ms)",
             name, Quantile(*p50, 0.5), kServeRounds, s.p50_ms);
    run.Note("serve.%s.p99_ms %.4f ms (%" PRIu64 " samples at %.1f rps, "
             "generator lag p99 %.3f ms, %" PRIu64 " unanswered)",
             name, s.p99_ms, s.samples, leg->plan.rate_rps, s.lag_p99_ms,
             leg->Count(Status::kPending));
  }
  if (slo.Resolved()) {
    run.Note("serve.max_rps %.4f 1/s (p99 <= %.0f ms; %zu probes; meets at "
             "%.1f, misses at %.1f, %.1f%% apart)",
             slo.good, kSloP99Ms, probes.size(), slo.good, slo.bad,
             100.0 * (slo.bad / slo.good - 1.0));
  } else if (run.args.primary) {
    run.Note("serve.max_rps not resolved (p99 <= %.0f ms; %zu probes in "
             "%.0f s; meets at %.1f, misses at %.1f)",
             kSloP99Ms, probes.size(), kSearchBudgetS, slo.good, slo.bad);
  }
  run.Note("serve.capacity_rps %.4f 1/s (closed loop, %d outstanding per "
           "connection, median of %d rounds %.0f..%.0f, %" PRIu64 " failed)",
           Quantile(capacity_rps, 0.5), kCapacityWindow, kServeRounds,
           Quantile(capacity_rps, 0.0), Quantile(capacity_rps, 1.0),
           capacity_failed);
  run.Note("serve.error_frac %.6f (%" PRIu64 " of %" PRIu64 " failed, refused "
           "or unanswered)",
           static_cast<double>(run.failed) / static_cast<double>(sent),
           run.failed, sent);

  std::map<std::uint64_t, std::string> served = low.captured;
  served.merge(high.captured);
  if (run.args.primary) {
    GateServe(run, run.T(), stack, stream, std::move(served), &run.digest);
  }
  AddRequestSpans(run.T(), low, stream);
  AddRequestSpans(run.T(), high, stream);

  if (run.T() != nullptr) {
    const std::vector<Span> spans = run.tracer->Spans();
    // Converges happen in set-up; cache lookups and pool waits in the legs.
    const Window legs{before, after};
    CoreLayerMetrics(run, spans, Window{start_registry, setup_registry}, legs,
                     stack.bytes_per_entry,
                     legs.Counter("attack.baseline_cache.hits"),
                     legs.Counter("attack.baseline_cache.misses"));
    ServeLayerMetrics(run, spans, stack, {&low, &high});
    SelfTimeMetrics(run);
  }
  state.reset();
  std::filesystem::remove(path);
  return kOk;
}

void PrintResult(const Run& run) {
  for (const std::string& note : run.notes) std::printf("%s\n", note.c_str());
  const std::vector<Metric>& metrics = run.T() != nullptr ? run.layer : run.e2e;
  if (run.T() != nullptr) {
    for (const Metric& m : run.e2e) {
      std::printf("traced %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (run.args.primary) {
    std::printf("digest %s seed %" PRIu64 " %08x\n", run.args.workload.c_str(),
                run.args.seed, run.digest.Value());
  }
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{",
              run.correct ? "true" : "false", run.attempted, run.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Run run;
  if (!ParseArgs(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: asppi_perfbench --workload "
                 "sweep_cold|sweep_warm|serve_open_loop --seed N --seconds S "
                 "--trace 0|1 [--scale small] [--out-dir DIR] "
                 "[--dump-inputs FILE] [--corrupt] [--secondary]\n");
    return kError;
  }
  std::filesystem::create_directories(run.args.out_dir);
  run.params = ParamsFor(run.args.small);
  run.nproc = std::max(1u, std::thread::hardware_concurrency());
  run.pool = std::make_unique<asppi::util::ThreadPool>(run.nproc);
  if (run.args.trace) run.tracer = std::make_unique<Tracer>();

  int code = kOk;
  if (run.args.workload == "sweep_cold") {
    code = SweepCold(run);
  } else if (run.args.workload == "sweep_warm") {
    code = SweepWarm(run);
  } else {
    code = ServeOpenLoop(run);
  }
  if (code != kOk) return code;
  if (run.T() != nullptr) {
    const std::string path = run.OutPath("-spans.jsonl");
    if (!run.tracer->WriteJsonl(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return kError;
    }
    run.Note("trace: %zu spans written to %s", run.tracer->Size(), path.c_str());
  }
  PrintResult(run);
  return run.correct ? 0 : 1;
}
