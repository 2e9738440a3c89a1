// Snapshot epochs: hot-reload without dropping a query.
//
// An Epoch is one immutable serving generation — a loaded corpus (usually a
// data::Snapshot) plus the QueryService built over it, stamped with a
// monotonically increasing id. The EpochManager holds the current epoch
// behind a shared_ptr; swapping in a new one is a pointer assignment under a
// short mutex, and every in-flight batch of requests PINS the epoch it
// started on. The old generation — snapshot mmap, graph, caches — stays
// alive exactly until the last pinned batch drops its reference, so a SIGHUP
// mid-burst loses nothing: queries racing the swap are answered by whichever
// epoch they pinned, never by a half-torn one.
//
// Two triggers feed Reload():
//   * SIGHUP — asppi_serve's signal loop observes the flag and calls it;
//   * the "reload" admin op — the front end intercepts it via
//     HandleAdminLine before service dispatch.
// Reloads are serialized; concurrent triggers coalesce into distinct
// sequential generations rather than racing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "data/snapshot.h"
#include "serve/service.h"

namespace asppi::serve {

struct Epoch {
  std::uint64_t id = 0;
  // Owns the corpus the service references (null for unowned/test epochs).
  std::shared_ptr<const data::Snapshot> snapshot;
  std::shared_ptr<QueryService> service;
};

// Loads `path` (binary snapshot) and builds the serving stack over it:
// active defense from the snapshot's kDefense tags, warmed baselines, the
// works. Returns "" on success. `base` supplies the non-corpus options
// (engine, lambda, cache budget); its active_defense is replaced by the
// snapshot's own deployment.
std::string MakeSnapshotEpoch(const std::string& path, std::uint64_t id,
                              const ServiceOptions& base,
                              std::shared_ptr<Epoch>* out);

// Wraps an externally-owned service (tests, text-topology serving) as epoch
// `id` without taking ownership — the caller keeps the service alive.
std::shared_ptr<Epoch> MakeUnownedEpoch(QueryService* service,
                                        std::uint64_t id = 0);

class EpochManager {
 public:
  // Builds the next generation. Receives the id the new epoch must carry;
  // fills `out` and returns "" on success. Runs under the reload lock.
  using Reloader =
      std::function<std::string(std::uint64_t next_id,
                                std::shared_ptr<Epoch>* out)>;

  // The current generation; callers keep the returned shared_ptr for the
  // whole query (or batch) — that reference IS the pin.
  std::shared_ptr<Epoch> Current() const;

  // Publishes `epoch` as current and applies the registered stats provider
  // (empty included) to its service.
  void Install(std::shared_ptr<Epoch> epoch);

  // Registers how new generations are built (unset = reload unavailable).
  void SetReloader(Reloader reloader);

  // The serving front end's live-counter hook, surfaced through the stats
  // op; applied to the current and every future epoch's service. An empty
  // provider unregisters it: the front end passes one when it stops. A
  // retired epoch's service keeps the hook it had, so it must not answer
  // "stats" once the front end is gone (snapshot epochs die with their last
  // pinned batch, which the front end's Stop() waits for).
  void SetStatsProvider(std::function<ServerStats()> provider);

  // Builds generation current+1 via the reloader and installs it. Returns ""
  // on success; on failure the current epoch keeps serving. Serialized.
  std::string Reload();

  std::uint64_t CurrentId() const;
  std::uint64_t ReloadCount() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<Epoch> current_;
  std::function<ServerStats()> stats_provider_;

  std::mutex reload_mu_;  // serializes Reload(); never held with mu_
  Reloader reloader_;
  std::atomic<std::uint64_t> reloads_{0};
};

// Intercepts the "reload" admin op. Returns true (with `*response` set, no
// trailing newline) when `line` parses as a reload request; false for every
// other line — including malformed ones, whose error bytes come from
// QueryService::Handle like any other request's.
bool HandleAdminLine(EpochManager* epochs, std::string_view line,
                     std::string* response);

}  // namespace asppi::serve
