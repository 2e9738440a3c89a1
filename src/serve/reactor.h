// ReactorServer: QueryService behind the net:: epoll reactor — the TCP
// front end of asppi_serve.
//
// N event-loop shards (net::Server) carry connection counts far beyond the
// thread count; reactor_test holds 280 connections open on a 4-thread pool.
// Each readiness event drains a connection's complete request lines as ONE
// batch:
//
//   loop thread: admission (one inflight slot per batch — a batch is one
//                pool worker's worth of serialized work, and each connection
//                carries at most one, so batch slots measure concurrent
//                demand across connections; over the bound the whole batch
//                is answered "overloaded") → pin the current Epoch → submit
//                to the shared ThreadPool;
//   pool thread: deadline check (stale batches shed wholesale), then each
//                line in order: reload interception (HandleAdminLine), else
//                QueryService::Handle on the pinned epoch; then
//                conn->Reply(responses);
//   loop thread: Reply appends, flushes, dispatches the next batch.
//
// Per-connection ordering holds because net::Conn keeps at most one batch in
// flight; responses are request-ordered with no sequence numbers. Epochs are
// pinned per batch: a SIGHUP swap mid-batch means this batch answers from
// the old generation and the next batch picks up the new one — no query is
// ever dropped or torn across generations.
//
// Framing limits (64 KiB request lines, 4 MiB write backlog per connection)
// are net::ConnOptions' defaults.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "net/server.h"
#include "serve/epoch.h"
#include "serve/service.h"
#include "util/thread_pool.h"

namespace asppi::serve {

struct ReactorOptions {
  int port = 0;  // 0 = ephemeral
  int shards = 2;
  // Connections beyond this are closed at accept time without a response.
  std::size_t max_connections = 1024;
  // Queued-or-executing BATCHES (<= one per connection) before shedding.
  std::size_t max_inflight = 128;
  int deadline_ms = 10000;
  int slow_query_ms = 1000;
  bool log_slow_queries = true;
};

class ReactorServer {
 public:
  // `epochs` (holding at least one installed epoch by Start) and `pool`
  // must outlive the server.
  ReactorServer(EpochManager* epochs, util::ThreadPool* pool,
                const ReactorOptions& options = ReactorOptions());
  ~ReactorServer();

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  // Binds, starts the shards, and installs Stats() as the epoch manager's
  // stats provider. Returns "" on success, else an error message.
  std::string Start();
  // Graceful drain; idempotent. Blocks until in-flight batches have flushed
  // AND every pool task has released its connection, so the ThreadPool holds
  // no reference into the reactor once Stop returns (whatever order the
  // caller destroys them in). Then unregisters the stats provider, so no
  // service answers "stats" through this server after it is gone.
  void Stop();

  int Port() const;
  // The readiness backend in use (kAuto until Start resolves it).
  net::PollerBackend Backend() const;
  ServerStats Stats() const;

 private:
  void HandleBatch(const std::shared_ptr<net::Conn>& conn,
                   std::vector<std::string> lines);

  EpochManager* epochs_;
  util::ThreadPool* pool_;
  ReactorOptions options_;
  std::unique_ptr<net::Server> net_server_;

  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint64_t> overload_rejects_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> slow_queries_{0};
  std::atomic<std::uint64_t> backlog_sheds_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<bool> running_{false};
};

}  // namespace asppi::serve
