#include "serve/epoch.h"

#include <utility>

#include "defense/policy.h"
#include "util/json.h"
#include "util/metrics.h"

namespace asppi::serve {

namespace {

struct EpochMetrics {
  util::Counter installs{"serve.epoch.installs"};
  util::Counter reloads{"serve.epoch.reloads"};
  util::Counter reload_failures{"serve.epoch.reload_failures"};
};

EpochMetrics& Instr() {
  static EpochMetrics* m = new EpochMetrics();
  return *m;
}

}  // namespace

std::string MakeSnapshotEpoch(const std::string& path, std::uint64_t id,
                              const ServiceOptions& base,
                              std::shared_ptr<Epoch>* out) {
  auto snapshot = std::make_shared<data::Snapshot>();
  const std::string err = data::Snapshot::Load(path, *snapshot);
  if (!err.empty()) return err;

  ServiceOptions options = base;
  options.active_defense.reset();
  if (!snapshot->DefenseTags().empty()) {
    options.active_defense = std::make_shared<defense::PolicySet>(
        snapshot->Graph(), snapshot->DefenseTags());
  }
  auto epoch = std::make_shared<Epoch>();
  epoch->id = id;
  epoch->service = std::make_shared<QueryService>(snapshot->Graph(),
                                                  snapshot->Policy(), options);
  epoch->service->WarmBaselines(snapshot->Baselines());
  epoch->snapshot = std::move(snapshot);
  *out = std::move(epoch);
  return "";
}

std::shared_ptr<Epoch> MakeUnownedEpoch(QueryService* service,
                                        std::uint64_t id) {
  auto epoch = std::make_shared<Epoch>();
  epoch->id = id;
  // Aliasing-style null deleter: the epoch pins nothing; the caller owns the
  // service's lifetime.
  epoch->service = std::shared_ptr<QueryService>(service,
                                                 [](QueryService*) {});
  return epoch;
}

std::shared_ptr<Epoch> EpochManager::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

void EpochManager::Install(std::shared_ptr<Epoch> epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != nullptr && epoch->service != nullptr) {
    epoch->service->SetServerStatsFn(stats_provider_);
  }
  current_ = std::move(epoch);
  Instr().installs.Add();
}

void EpochManager::SetReloader(Reloader reloader) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  reloader_ = std::move(reloader);
}

void EpochManager::SetStatsProvider(std::function<ServerStats()> provider) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_provider_ = std::move(provider);
  if (current_ != nullptr && current_->service != nullptr) {
    current_->service->SetServerStatsFn(stats_provider_);
  }
}

std::string EpochManager::Reload() {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  if (!reloader_) return "reload unavailable: no snapshot source";
  const std::uint64_t next_id = CurrentId() + 1;
  std::shared_ptr<Epoch> next;
  const std::string err = reloader_(next_id, &next);
  if (!err.empty()) {
    Instr().reload_failures.Add();
    return err;
  }
  if (next == nullptr) {
    Instr().reload_failures.Add();
    return "reloader produced no epoch";
  }
  Install(std::move(next));
  Instr().reloads.Add();
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return "";
}

std::uint64_t EpochManager::CurrentId() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ != nullptr ? current_->id : 0;
}

std::uint64_t EpochManager::ReloadCount() const {
  return reloads_.load(std::memory_order_relaxed);
}

bool HandleAdminLine(EpochManager* epochs, std::string_view line,
                     std::string* response) {
  // Cheap pre-filter: almost no query line contains the token at all.
  if (line.find("reload") == std::string_view::npos) return false;
  Request request;
  if (!ParseRequest(line, &request).empty()) return false;
  if (request.op != Op::kReload) return false;

  const std::string err = epochs->Reload();
  util::Json body = util::Json::Object();
  if (err.empty()) {
    const std::shared_ptr<Epoch> epoch = epochs->Current();
    body["ok"] = util::Json(true);
    body["op"] = util::Json("reload");
    body["epoch"] = util::Json(epoch != nullptr ? epoch->id : 0);
    if (epoch != nullptr && epoch->service != nullptr) {
      body["ases"] = util::Json(
          static_cast<std::uint64_t>(epoch->service->Graph().NumAses()));
    }
    *response = body.ToString(-1);
  } else {
    *response = ErrorResponse("reload failed: " + err);
  }
  return true;
}

}  // namespace asppi::serve
