// QueryService: the computation core of asppi_serve, independent of any
// transport. One instance owns the loaded corpus (graph + policy), the
// propagation/attack/detection engines, and two caches:
//
//   * attack::BaselineCache — converged attack-free states, keyed by
//     announcement; pre-seeded from a snapshot's stored baselines via
//     WarmBaselines so the first query against a warmed victim skips
//     propagation entirely.
//   * util::ShardedLruCache — serialized response lines keyed by the
//     request's canonical bytes (protocol.h), so repeated what-if queries are
//     answered without touching the engines at all.
//
// Handle() is safe to call from many threads concurrently: the engines are
// const over a shared graph, the baseline cache synchronizes internally, and
// responses are built on the calling thread. Answers are pure functions of
// (corpus, request) — byte-identical to what the batch tools compute for the
// same inputs — which is the property the serve_test equivalence suite pins.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "bgp/policy.h"
#include "bgp/propagation.h"
#include "defense/policy.h"
#include "detect/detector.h"
#include "serve/protocol.h"
#include "topology/as_graph.h"
#include "util/lru_cache.h"
#include "util/stats.h"

namespace asppi::serve {

struct ServiceOptions {
  // λ used when a request omits "lambda" (matches asppi_attack's default).
  int default_lambda = 4;
  // Top-degree vantage-point count when "detect" omits "monitors".
  std::size_t default_monitors = 30;
  // Result-cache entry budget (0 disables response caching).
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 8;
  // Corpus-wide defense deployment (usually a snapshot's kDefense section).
  // When set and non-empty it is the import filter for every impact/detect
  // what-if, and its digest is folded into every result-cache key so defended
  // and undefended answers can never alias in the ShardedLruCache. The
  // "defense" op builds its own per-request deployment and ignores this.
  std::shared_ptr<const defense::PolicySet> active_defense;
};

// Live transport-layer counters the serving front end (ReactorServer)
// exposes through the "stats" op.
struct ServerStats {
  const char* kind = "";  // "reactor"
  std::uint64_t epoch = 0;
  std::uint64_t connections = 0;  // currently open
  std::uint64_t accepted = 0;
  std::uint64_t overload_rejects = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t backlog_sheds = 0;
  std::uint64_t slow_queries = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
};

// The announcement a request for (origin, λ) implies: `policy` (the
// corpus-wide prepend policy) overlaid with a uniform default of λ for the
// origin. impact, detect and route derive their baseline-cache keys with it,
// and asppi_snapshot its embedded baselines, so a snapshot's warm entries
// are the very keys the service asks for.
bgp::Announcement AnnouncementFor(const bgp::PrependPolicy& policy,
                                  Asn origin, int lambda);

class QueryService {
 public:
  // `graph` must outlive the service. `policy` is the corpus-wide prepend
  // policy (usually the snapshot's; per-request "lambda" overlays the
  // victim's default on top of it).
  QueryService(const topo::AsGraph& graph, bgp::PrependPolicy policy,
               const ServiceOptions& options = ServiceOptions());

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Pre-seeds the baseline cache with converged states (each must have been
  // produced over `graph`). Returns how many were accepted.
  std::size_t WarmBaselines(
      const std::vector<std::shared_ptr<const bgp::PropagationResult>>&
          baselines);

  // Parses, executes, and serializes one request line. Always returns exactly
  // one JSON object (no trailing newline). Thread-safe.
  std::string Handle(std::string_view line);

  // Installs the transport's live-counter hook; "stats" responses then carry
  // an "epoch" field and a "server" object. An empty `fn` removes it.
  // Thread-safe.
  void SetServerStatsFn(std::function<ServerStats()> fn);

  const topo::AsGraph& Graph() const { return graph_; }
  const bgp::PrependPolicy& Policy() const { return policy_; }
  const ServiceOptions& Options() const { return options_; }
  util::ShardedLruCache& Cache() { return cache_; }
  util::LatencyHistogram& Latency() { return latency_; }
  std::uint64_t RequestCount(Op op) const;

 private:
  int EffectiveLambda(const Request& request) const;

  // The import filter what-if runs honor (null = undefended).
  const defense::PolicySet* ActiveDefense() const;

  std::string Execute(const Request& request);
  std::string RunImpact(const Request& request);
  std::string RunDetect(const Request& request);
  std::string RunRoute(const Request& request);
  std::string RunDefense(const Request& request);
  std::string RunStrategy(const Request& request);
  std::string RunStats();
  std::string RunHealth();

  const topo::AsGraph& graph_;
  bgp::PrependPolicy policy_;
  ServiceOptions options_;
  attack::BaselineCache baseline_cache_;
  attack::AttackSimulator simulator_;
  detect::AsppDetector detector_;
  util::ShardedLruCache cache_;
  util::LatencyHistogram latency_;
  std::atomic<std::uint64_t> op_counts_[kOpCount] = {};
  std::atomic<std::size_t> warmed_baselines_{0};
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex stats_fn_mu_;
  std::function<ServerStats()> server_stats_fn_;
};

}  // namespace asppi::serve
