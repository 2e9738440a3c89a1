#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "defense/deployment.h"
#include "detect/monitors.h"
#include "strategy/program.h"
#include "strategy/search.h"
#include "util/json.h"
#include "util/metrics.h"

namespace asppi::serve {

namespace {

using util::Json;

struct ServiceMetrics {
  util::Counter requests{"serve.requests"};
  util::Counter errors{"serve.errors"};
  util::Counter cache_hits{"serve.cache.hits"};
  util::Counter cache_misses{"serve.cache.misses"};
  util::Counter cache_evictions{"serve.cache.evictions"};
  util::Timer execute{"serve.execute"};
};

ServiceMetrics& Instr() {
  static ServiceMetrics* m = new ServiceMetrics();
  return *m;
}

const char* ConfidenceName(detect::Alarm::Confidence confidence) {
  return confidence == detect::Alarm::Confidence::kHigh ? "high" : "possible";
}

}  // namespace

QueryService::QueryService(const topo::AsGraph& graph,
                           bgp::PrependPolicy policy,
                           const ServiceOptions& options)
    : graph_(graph),
      policy_(std::move(policy)),
      options_(options),
      baseline_cache_(graph),
      simulator_(graph, &baseline_cache_),
      detector_(&graph),
      cache_(options.cache_capacity, options.cache_shards),
      start_(std::chrono::steady_clock::now()) {}

std::size_t QueryService::WarmBaselines(
    const std::vector<std::shared_ptr<const bgp::PropagationResult>>&
        baselines) {
  std::size_t accepted = 0;
  for (const auto& baseline : baselines) {
    if (baseline == nullptr) continue;
    baseline_cache_.Put(baseline);
    ++accepted;
  }
  warmed_baselines_.fetch_add(accepted, std::memory_order_relaxed);
  return accepted;
}

std::uint64_t QueryService::RequestCount(Op op) const {
  return op_counts_[static_cast<int>(op)].load(std::memory_order_relaxed);
}

bgp::Announcement AnnouncementFor(const bgp::PrependPolicy& policy,
                                  Asn origin, int lambda) {
  bgp::Announcement announcement;
  announcement.origin = origin;
  announcement.prepends = policy;
  announcement.prepends.SetDefault(origin, lambda);
  return announcement;
}

int QueryService::EffectiveLambda(const Request& request) const {
  return request.lambda > 0 ? request.lambda : options_.default_lambda;
}

const defense::PolicySet* QueryService::ActiveDefense() const {
  const defense::PolicySet* set = options_.active_defense.get();
  return (set != nullptr && !set->Empty()) ? set : nullptr;
}

void QueryService::SetServerStatsFn(std::function<ServerStats()> fn) {
  std::lock_guard<std::mutex> lock(stats_fn_mu_);
  server_stats_fn_ = std::move(fn);
}

std::string QueryService::Handle(std::string_view line) {
  Instr().requests.Add();
  const auto start = std::chrono::steady_clock::now();
  Request request;
  std::string response;
  std::string parse_error = ParseRequest(line, &request);
  if (!parse_error.empty()) {
    Instr().errors.Add();
    response = ErrorResponse(parse_error);
  } else {
    op_counts_[static_cast<int>(request.op)].fetch_add(
        1, std::memory_order_relaxed);
    if (IsCacheable(request.op)) {
      // Fold the active deployment's digest into the key: a defended and an
      // undefended server (or the same server re-pointed at a new snapshot's
      // deployment) compute different answers for identical request bytes,
      // so the canonical request alone must never be the whole key.
      std::string key = CanonicalKey(request);
      if (const defense::PolicySet* active = ActiveDefense()) {
        key += active->CacheKey();
      }
      if (auto cached = cache_.Get(key)) {
        Instr().cache_hits.Add();
        response = *cached;
      } else {
        Instr().cache_misses.Add();
        response = Execute(request);
        const std::size_t evicted = cache_.Put(key, response);
        if (evicted != 0) Instr().cache_evictions.Add(evicted);
      }
    } else {
      response = Execute(request);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  latency_.RecordNs(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  return response;
}

std::string QueryService::Execute(const Request& request) {
  util::ScopedTimer timer(Instr().execute);
  switch (request.op) {
    case Op::kImpact:
      return RunImpact(request);
    case Op::kDetect:
      return RunDetect(request);
    case Op::kRoute:
      return RunRoute(request);
    case Op::kDefense:
      return RunDefense(request);
    case Op::kStrategy:
      return RunStrategy(request);
    case Op::kStats:
      return RunStats();
    case Op::kHealth:
      return RunHealth();
    case Op::kReload:
      // Epoch swapping is a transport concern; the front end intercepts this
      // op before dispatch (serve/epoch.h). Reaching the service means there
      // is no server — direct embedding or tests.
      return ErrorResponse("reload requires a server");
  }
  return ErrorResponse("unhandled op");
}

std::string QueryService::RunImpact(const Request& request) {
  if (!graph_.HasAs(request.victim)) {
    return ErrorResponse("unknown victim AS" + std::to_string(request.victim));
  }
  if (!graph_.HasAs(request.attacker)) {
    return ErrorResponse("unknown attacker AS" +
                         std::to_string(request.attacker));
  }
  const int lambda = EffectiveLambda(request);
  const attack::AttackOutcome outcome =
      simulator_.RunAsppInterceptionWithPolicy(
          AnnouncementFor(policy_, request.victim, lambda), request.attacker,
          request.violate_valley_free,
          /*export_stripped_to_peers=*/true, ActiveDefense());
  Json response = Json::Object();
  response["ok"] = Json(true);
  response["op"] = Json("impact");
  response["victim"] = Json(static_cast<std::uint64_t>(outcome.victim));
  response["attacker"] = Json(static_cast<std::uint64_t>(outcome.attacker));
  response["lambda"] = Json(outcome.lambda);
  response["violate"] = Json(request.violate_valley_free);
  response["fraction_before"] = Json(outcome.fraction_before);
  response["fraction_after"] = Json(outcome.fraction_after);
  response["newly_polluted"] =
      Json(static_cast<std::uint64_t>(outcome.newly_polluted.size()));
  response["reachable_before"] =
      Json(static_cast<std::uint64_t>(outcome.reachable_before));
  response["reachable_after"] =
      Json(static_cast<std::uint64_t>(outcome.reachable_after));
  return response.ToString(-1);
}

std::string QueryService::RunDetect(const Request& request) {
  if (!graph_.HasAs(request.victim)) {
    return ErrorResponse("unknown victim AS" + std::to_string(request.victim));
  }
  if (!graph_.HasAs(request.attacker)) {
    return ErrorResponse("unknown attacker AS" +
                         std::to_string(request.attacker));
  }
  const int lambda = EffectiveLambda(request);
  const std::size_t monitor_count =
      request.monitors > 0 ? request.monitors : options_.default_monitors;
  const bgp::Announcement announcement =
      AnnouncementFor(policy_, request.victim, lambda);
  const attack::AttackOutcome outcome =
      simulator_.RunAsppInterceptionWithPolicy(
          announcement, request.attacker, request.violate_valley_free,
          /*export_stripped_to_peers=*/true, ActiveDefense());
  const std::vector<Asn> monitors =
      detect::TopDegreeMonitors(graph_, monitor_count);
  const auto previous =
      detect::PathsAt(*outcome.before, monitors, request.attacker);
  const auto current =
      detect::PathsAt(outcome.after, monitors, request.attacker);
  std::vector<detect::Alarm> alarms = detector_.Scan(
      request.victim, previous, current, &announcement.prepends);
  std::sort(alarms.begin(), alarms.end(), detect::AlarmLess);

  Json response = Json::Object();
  response["ok"] = Json(true);
  response["op"] = Json("detect");
  response["victim"] = Json(static_cast<std::uint64_t>(request.victim));
  response["attacker"] = Json(static_cast<std::uint64_t>(request.attacker));
  response["lambda"] = Json(lambda);
  response["monitors"] = Json(static_cast<std::uint64_t>(monitors.size()));
  Json alarm_list = Json::Array();
  bool attacker_accused = false;
  for (const detect::Alarm& alarm : alarms) {
    Json entry = Json::Object();
    entry["confidence"] = Json(ConfidenceName(alarm.confidence));
    entry["suspect"] = Json(static_cast<std::uint64_t>(alarm.suspect));
    entry["observer"] = Json(static_cast<std::uint64_t>(alarm.observer));
    entry["pads_removed"] = Json(alarm.pads_removed);
    entry["detail"] = Json(alarm.detail);
    alarm_list.Push(std::move(entry));
    if (alarm.suspect == request.attacker) attacker_accused = true;
  }
  response["alarms"] = std::move(alarm_list);
  response["high_confidence"] = Json(detect::HasHighConfidence(alarms));
  response["attacker_accused"] = Json(attacker_accused);
  return response.ToString(-1);
}

std::string QueryService::RunRoute(const Request& request) {
  if (!graph_.HasAs(request.victim)) {
    return ErrorResponse("unknown origin AS" + std::to_string(request.victim));
  }
  if (!graph_.HasAs(request.observer)) {
    return ErrorResponse("unknown observer AS" +
                         std::to_string(request.observer));
  }
  const int lambda = EffectiveLambda(request);
  // Holding the entry's shared_ptr pins the baseline while it is read; no
  // RIB copy on this hot path.
  const std::shared_ptr<const bgp::PropagationResult> state =
      baseline_cache_
          .GetEntry(AnnouncementFor(policy_, request.victim, lambda))
          .state;
  const auto& best = state->BestAt(request.observer);
  Json response = Json::Object();
  response["ok"] = Json(true);
  response["op"] = Json("route");
  response["origin"] = Json(static_cast<std::uint64_t>(request.victim));
  response["observer"] = Json(static_cast<std::uint64_t>(request.observer));
  response["lambda"] = Json(lambda);
  response["found"] = Json(best.has_value());
  if (best.has_value()) {
    response["path"] = Json(best->path.ToString());
    response["hops"] = Json(static_cast<std::uint64_t>(best->path.Length()));
  }
  return response.ToString(-1);
}

std::string QueryService::RunDefense(const Request& request) {
  if (!graph_.HasAs(request.victim)) {
    return ErrorResponse("unknown victim AS" + std::to_string(request.victim));
  }
  if (!graph_.HasAs(request.attacker)) {
    return ErrorResponse("unknown attacker AS" +
                         std::to_string(request.attacker));
  }
  const int lambda = EffectiveLambda(request);
  const bgp::Announcement announcement =
      AnnouncementFor(policy_, request.victim, lambda);
  const defense::DeploymentPlan plan = defense::DeploymentPlan::Make(
      graph_, request.deploy_strategy, request.victim, request.attacker,
      request.deploy_seed);
  const defense::PolicySet deployment =
      plan.AtFraction(request.deploy_frac, request.deploy_kinds);
  // Both runs share the cached filterless baseline — the undefended leg is
  // the same computation an "impact" query does, so it may already be warm.
  const attack::AttackOutcome undefended =
      simulator_.RunAsppInterceptionWithPolicy(announcement, request.attacker,
                                               request.violate_valley_free);
  const attack::AttackOutcome defended =
      simulator_.RunAsppInterceptionWithPolicy(
          announcement, request.attacker, request.violate_valley_free,
          /*export_stripped_to_peers=*/true, &deployment);
  Json response = Json::Object();
  response["ok"] = Json(true);
  response["op"] = Json("defense");
  response["victim"] = Json(static_cast<std::uint64_t>(request.victim));
  response["attacker"] = Json(static_cast<std::uint64_t>(request.attacker));
  response["lambda"] = Json(lambda);
  response["violate"] = Json(request.violate_valley_free);
  response["strategy"] = Json(defense::StrategyName(request.deploy_strategy));
  response["policies"] = Json(defense::PolicyKindsName(request.deploy_kinds));
  response["frac"] = Json(request.deploy_frac);
  response["deployed"] =
      Json(static_cast<std::uint64_t>(deployment.DeployedCount()));
  response["fraction_before"] = Json(undefended.fraction_before);
  response["fraction_after_undefended"] = Json(undefended.fraction_after);
  response["fraction_after_defended"] = Json(defended.fraction_after);
  response["prevented"] =
      Json(undefended.fraction_after - defended.fraction_after);
  response["newly_polluted_undefended"] =
      Json(static_cast<std::uint64_t>(undefended.newly_polluted.size()));
  response["newly_polluted_defended"] =
      Json(static_cast<std::uint64_t>(defended.newly_polluted.size()));
  return response.ToString(-1);
}

std::string QueryService::RunStrategy(const Request& request) {
  if (!graph_.HasAs(request.victim)) {
    return ErrorResponse("unknown victim AS" + std::to_string(request.victim));
  }
  if (!graph_.HasAs(request.attacker)) {
    return ErrorResponse("unknown attacker AS" +
                         std::to_string(request.attacker));
  }
  const int lambda = EffectiveLambda(request);
  strategy::SearchOptions options;
  options.lambda = lambda;
  options.beam_width = request.beam > 0 ? request.beam : 4;
  options.rounds = request.search_rounds > 0 ? request.search_rounds : 2;
  // Candidates score serially on the calling thread (Handle is already
  // fanned out per connection); the shared baseline cache means repeated
  // strategy queries against a warm victim skip the baseline re-convergence.
  options.baseline_cache = &baseline_cache_;
  options.filter = ActiveDefense();
  const strategy::Search search(graph_, options);
  const strategy::SearchResult result =
      search.Run(request.victim, request.attacker);

  Json response = Json::Object();
  response["ok"] = Json(true);
  response["op"] = Json("strategy");
  response["victim"] = Json(static_cast<std::uint64_t>(request.victim));
  response["attacker"] = Json(static_cast<std::uint64_t>(request.attacker));
  response["lambda"] = Json(lambda);
  response["beam"] = Json(static_cast<std::uint64_t>(options.beam_width));
  response["rounds"] = Json(static_cast<std::uint64_t>(options.rounds));
  response["fraction_before"] = Json(result.best.fraction_before);
  response["fraction_after_paper"] = Json(result.paper_after);
  response["fraction_after_best"] = Json(result.best.fraction_after);
  response["gap"] = Json(result.gap);
  response["programs_scored"] =
      Json(static_cast<std::uint64_t>(result.programs_scored));
  response["best_program"] = Json(result.best.program.KeyString());
  return response.ToString(-1);
}

std::string QueryService::RunStats() {
  const util::ShardedLruCache::Stats cache_stats = cache_.GetStats();
  const auto uptime = std::chrono::steady_clock::now() - start_;
  Json response = Json::Object();
  response["ok"] = Json(true);
  response["op"] = Json("stats");
  response["uptime_ms"] = Json(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(uptime).count()));
  Json requests = Json::Object();
  for (Op op : {Op::kImpact, Op::kDetect, Op::kRoute, Op::kDefense,
                Op::kStrategy, Op::kStats, Op::kHealth, Op::kReload}) {
    requests[OpName(op)] = Json(RequestCount(op));
  }
  response["requests"] = std::move(requests);
  Json cache = Json::Object();
  cache["capacity"] = Json(static_cast<std::uint64_t>(cache_.Capacity()));
  cache["entries"] = Json(cache_stats.entries);
  cache["hits"] = Json(cache_stats.hits);
  cache["misses"] = Json(cache_stats.misses);
  cache["evictions"] = Json(cache_stats.evictions);
  response["cache"] = std::move(cache);
  Json baselines = Json::Object();
  baselines["entries"] = Json(static_cast<std::uint64_t>(baseline_cache_.Size()));
  baselines["warmed"] = Json(static_cast<std::uint64_t>(
      warmed_baselines_.load(std::memory_order_relaxed)));
  response["baselines"] = std::move(baselines);
  Json latency = Json::Object();
  latency["count"] = Json(latency_.Count());
  latency["p50_us"] = Json(latency_.QuantileNs(0.50) / 1e3);
  latency["p90_us"] = Json(latency_.QuantileNs(0.90) / 1e3);
  latency["p99_us"] = Json(latency_.QuantileNs(0.99) / 1e3);
  latency["p999_us"] = Json(latency_.QuantileNs(0.999) / 1e3);
  response["latency"] = std::move(latency);
  std::function<ServerStats()> stats_fn;
  {
    std::lock_guard<std::mutex> lock(stats_fn_mu_);
    stats_fn = server_stats_fn_;
  }
  if (stats_fn) {
    const ServerStats live = stats_fn();
    response["epoch"] = Json(live.epoch);
    Json server = Json::Object();
    server["kind"] = Json(live.kind);
    server["connections"] = Json(live.connections);
    server["accepted"] = Json(live.accepted);
    server["overload_rejects"] = Json(live.overload_rejects);
    server["deadline_exceeded"] = Json(live.deadline_exceeded);
    server["backlog_sheds"] = Json(live.backlog_sheds);
    server["slow_queries"] = Json(live.slow_queries);
    server["batches"] = Json(live.batches);
    server["batched_requests"] = Json(live.batched_requests);
    response["server"] = std::move(server);
  }
  return response.ToString(-1);
}

std::string QueryService::RunHealth() {
  Json response = Json::Object();
  response["ok"] = Json(true);
  response["op"] = Json("health");
  response["status"] = Json("serving");
  response["ases"] = Json(static_cast<std::uint64_t>(graph_.NumAses()));
  response["links"] = Json(static_cast<std::uint64_t>(graph_.NumLinks()));
  response["baselines"] =
      Json(static_cast<std::uint64_t>(baseline_cache_.Size()));
  const defense::PolicySet* active = ActiveDefense();
  response["defense_deployed"] = Json(
      static_cast<std::uint64_t>(active != nullptr ? active->DeployedCount()
                                                   : 0));
  return response.ToString(-1);
}

}  // namespace asppi::serve
