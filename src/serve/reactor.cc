#include "serve/reactor.h"

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "util/metrics.h"

namespace asppi::serve {

namespace {

struct ReactorMetrics {
  util::Counter batches{"serve.reactor.batches"};
  util::Counter batch_lines{"serve.reactor.batch_lines"};
  util::Counter overload{"serve.reactor.overload_rejects"};
  util::Counter deadline{"serve.reactor.deadline_exceeded"};
  util::Counter slow{"serve.reactor.slow_batches"};
};

ReactorMetrics& Instr() {
  static ReactorMetrics* m = new ReactorMetrics();
  return *m;
}

const std::string& OverloadedLine() {
  static const std::string* line = new std::string(ErrorResponse("overloaded"));
  return *line;
}

const std::string& DeadlineLine() {
  static const std::string* line =
      new std::string(ErrorResponse("deadline exceeded"));
  return *line;
}

}  // namespace

ReactorServer::ReactorServer(EpochManager* epochs, util::ThreadPool* pool,
                             const ReactorOptions& options)
    : epochs_(epochs), pool_(pool), options_(options) {}

ReactorServer::~ReactorServer() { Stop(); }

std::string ReactorServer::Start() {
  net::NetServerOptions net_options;
  net_options.port = static_cast<std::uint16_t>(options_.port);
  net_options.shards = options_.shards;
  net_options.max_connections = options_.max_connections;
  net_options.conn.oversize_response = ErrorResponse("request line too long");
  net_options.conn.backlog_shed_counter = &backlog_sheds_;
  net_server_ = std::make_unique<net::Server>(
      [this](const std::shared_ptr<net::Conn>& conn,
             std::vector<std::string> lines) {
        HandleBatch(conn, std::move(lines));
      },
      net_options);
  const std::string err = net_server_->Start();
  if (!err.empty()) {
    net_server_.reset();
    return err;
  }
  epochs_->SetStatsProvider([this] { return Stats(); });
  running_.store(true, std::memory_order_release);
  return "";
}

void ReactorServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // net::Server::Stop drains: in-flight batches Reply through still-running
  // loops, buffered responses flush, then the shards join.
  net_server_->Stop();
  // The loops are joined, so no new batches can be submitted — but batches
  // already in the ThreadPool still hold shared_ptr<Conn>s whose raw loop_
  // pointers reach into net_server_'s EventLoops (a force-closed straggler's
  // batch can outlive its connection). Wait for them here, while the loops
  // are stopped but still allocated: a late Reply posts onto a stopped loop
  // (retained, never run — safe), and once inflight_ hits zero nothing ever
  // touches net state again, so ~ReactorServer may free net_server_.
  while (inflight_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The services keep answering "stats" after this server is destroyed (the
  // epoch manager and its epochs outlive it), so the provider capturing
  // `this` must go with the server.
  epochs_->SetStatsProvider(nullptr);
}

int ReactorServer::Port() const {
  return net_server_ != nullptr ? net_server_->port() : 0;
}

net::PollerBackend ReactorServer::Backend() const {
  return net_server_ != nullptr ? net_server_->backend()
                                : net::PollerBackend::kAuto;
}

ServerStats ReactorServer::Stats() const {
  ServerStats stats;
  stats.kind = "reactor";
  stats.epoch = epochs_->CurrentId();
  if (net_server_ != nullptr) {
    stats.connections = net_server_->OpenConnections();
    stats.accepted = net_server_->Accepted();
    stats.overload_rejects = net_server_->Rejected() +
                             overload_rejects_.load(std::memory_order_relaxed);
  } else {
    stats.overload_rejects = overload_rejects_.load(std::memory_order_relaxed);
  }
  stats.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  stats.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  stats.backlog_sheds = backlog_sheds_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  return stats;
}

void ReactorServer::HandleBatch(const std::shared_ptr<net::Conn>& conn,
                                std::vector<std::string> lines) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(lines.size(), std::memory_order_relaxed);
  Instr().batches.Add();
  Instr().batch_lines.Add(lines.size());

  // Admission on the loop thread: one inflight slot per BATCH, not per line.
  // A batch occupies exactly one pool worker however many lines it carries
  // (they execute serially inside it), and each connection has at most one
  // batch in flight — so batch slots measure concurrent demand across
  // connections. A pipelined burst on one connection is serialized work, not
  // concurrency, and must not trip the bound (reactor_test pins this down).
  const std::size_t slot = inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    overload_rejects_.fetch_add(lines.size(), std::memory_order_relaxed);
    Instr().overload.Add(lines.size());
    std::vector<std::string> responses(lines.size(), OverloadedLine());
    conn->Reply(std::move(responses));
    return;
  }

  // Pin the epoch for the whole batch: a reload landing mid-flight swaps the
  // NEXT batch's generation; this one answers from the corpus it started on.
  const std::shared_ptr<Epoch> epoch = epochs_->Current();
  const auto enqueued = std::chrono::steady_clock::now();
  pool_->Submit([this, conn, epoch, enqueued, lines = std::move(lines)] {
    const std::size_t count = lines.size();
    std::vector<std::string> responses;
    responses.reserve(count);

    const auto waited = std::chrono::steady_clock::now() - enqueued;
    const bool stale =
        std::chrono::duration_cast<std::chrono::milliseconds>(waited).count() >=
        options_.deadline_ms;
    if (stale) {
      // Deadline at dequeue, batch-wide: every line went stale in the same
      // queue, so the whole batch is shed in O(1) work.
      deadline_exceeded_.fetch_add(count, std::memory_order_relaxed);
      Instr().deadline.Add(count);
      for (std::size_t i = 0; i < count; ++i) {
        responses.push_back(DeadlineLine());
      }
    } else {
      // Line by line, in order: admin (reload) lines execute inline at their
      // batch position, every other line on the pinned epoch's service.
      for (const std::string& line : lines) {
        std::string response;
        if (!HandleAdminLine(epochs_, line, &response)) {
          response = epoch->service->Handle(line);
        }
        responses.push_back(std::move(response));
      }
    }
    const auto elapsed = std::chrono::steady_clock::now() - enqueued;
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
    if (!stale && elapsed_ms >= options_.slow_query_ms) {
      slow_queries_.fetch_add(1, std::memory_order_relaxed);
      Instr().slow.Add();
      if (options_.log_slow_queries) {
        std::fprintf(stderr, "[asppi_serve] slow batch (%lld ms, %zu line(s))\n",
                     static_cast<long long>(elapsed_ms), count);
      }
    }
    conn->Reply(std::move(responses));
    // Released only after Reply: Stop() waits on this counter to know no
    // pool task still references a Conn (and through it an EventLoop).
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

}  // namespace asppi::serve
