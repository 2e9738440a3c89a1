// net::Server — N event-loop shards behind one accepting socket.
//
// Topology: shard 0's loop watches the listener; each accept is handed to a
// shard round-robin via Post(), so connection state never migrates between
// threads after placement. Each shard runs one EventLoop on one thread and
// owns its connections outright — the only shared mutable state is the
// atomic open-connection count used for admission.
//
// The server is protocol-agnostic: it delivers request-line batches to the
// installed BatchCallback (on the shard's loop thread — the callback should
// hand real work to a thread pool and return) and writes back whatever
// Reply() provides. serve::ReactorServer supplies the BGP query semantics.
//
// Stop() drains: the listener closes first, every connection is asked to
// close-when-idle (in-flight batches finish, buffered responses flush), and
// only after the open count hits zero — or a bounded grace period expires —
// are survivors force-closed and the loops joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/conn.h"
#include "net/event_loop.h"
#include "net/listener.h"

namespace asppi::net {

struct NetServerOptions {
  std::uint16_t port = 0;  // 0 = ephemeral
  int shards = 2;
  PollerBackend backend = PollerBackend::kAuto;
  // Admission cap across all shards; connections beyond it are closed at
  // accept time without a response line (the client reads EOF).
  std::size_t max_connections = 1024;
  // Milliseconds Stop() waits for a graceful drain before force-closing.
  int drain_timeout_ms = 5000;
  ConnOptions conn;
};

class Server {
 public:
  Server(BatchCallback on_batch, const NetServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, spawns shard threads, and begins accepting. Returns "" on
  // success. Not restartable after Stop().
  std::string Start();
  void Stop();

  std::uint16_t port() const { return listener_.port(); }
  PollerBackend backend() const;

  std::size_t OpenConnections() const {
    return open_.load(std::memory_order_relaxed);
  }
  std::uint64_t Accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t Rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    std::unique_ptr<EventLoop> loop;
    std::thread thread;
    // Loop-thread-owned: every touch happens via Post to this shard's loop.
    std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns;
  };

  void HandleAccept();
  void PlaceConnection(ScopedFd fd);

  BatchCallback on_batch_;
  NetServerOptions options_;
  Listener listener_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::size_t> open_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::uint64_t next_shard_ = 0;  // shard 0's loop thread only
};

}  // namespace asppi::net
