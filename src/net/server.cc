#include "net/server.h"

#include <chrono>
#include <future>
#include <utility>

#include "util/check.h"
#include "util/metrics.h"

namespace asppi::net {

namespace {

struct ServerMetrics {
  util::Counter accepted{"net.server.accepted"};
  util::Counter rejected{"net.server.rejected"};
  util::Counter force_closed{"net.server.force_closed"};
};

ServerMetrics& Instr() {
  static ServerMetrics* m = new ServerMetrics();
  return *m;
}

}  // namespace

Server::Server(BatchCallback on_batch, const NetServerOptions& options)
    : on_batch_(std::move(on_batch)), options_(options) {
  if (options_.shards < 1) options_.shards = 1;
}

Server::~Server() { Stop(); }

PollerBackend Server::backend() const {
  return shards_.empty() ? options_.backend : shards_[0]->loop->backend();
}

std::string Server::Start() {
  ASPPI_CHECK(!started_.load()) << "net::Server is not restartable";
  const std::string err = listener_.Open(options_.port);
  if (!err.empty()) return err;

  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->loop = std::make_unique<EventLoop>(options_.backend);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    EventLoop* loop = shard->loop.get();
    shard->thread = std::thread([loop] { loop->Run(); });
  }
  // The accept watch lands on shard 0's loop thread via Post so Watch() is
  // called under the loop-thread-only contract.
  shards_[0]->loop->Post([this] {
    const std::string err = shards_[0]->loop->Watch(
        listener_.fd(),
        [this](bool readable, bool /*writable*/, bool error) {
          if (readable && !error) HandleAccept();
        },
        /*want_read=*/true, /*want_write=*/false);
    // Unlike a per-connection Watch (where failure closes one conn), losing
    // the accept watch means the server can never serve — fatal.
    ASPPI_CHECK(err.empty()) << "accept watch: " << err;
  });
  started_.store(true);
  return "";
}

void Server::HandleAccept() {
  listener_.AcceptReady([this](ScopedFd fd) {
    if (open_.load(std::memory_order_relaxed) >= options_.max_connections) {
      // Admission control: close without a response line — no Conn exists
      // yet to write one; clients treat it as a refused connection.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Instr().rejected.Add();
      return;  // ScopedFd closes on scope exit
    }
    open_.fetch_add(1, std::memory_order_relaxed);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    Instr().accepted.Add();
    PlaceConnection(std::move(fd));
  });
}

void Server::PlaceConnection(ScopedFd fd) {
  const std::size_t shard_index =
      static_cast<std::size_t>(next_shard_++ % shards_.size());
  Shard* shard = shards_[shard_index].get();
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Hand the fd to the owning shard; from here on only that loop thread
  // touches the connection.
  auto raw_fd = std::make_shared<ScopedFd>(std::move(fd));
  shard->loop->Post([this, shard, id, raw_fd] {
    auto conn = std::make_shared<Conn>(std::move(*raw_fd), shard->loop.get(),
                                       options_.conn, id);
    shard->conns[id] = conn;
    conn->Start(on_batch_, [this, shard](std::uint64_t conn_id) {
      shard->conns.erase(conn_id);
      open_.fetch_sub(1, std::memory_order_relaxed);
    });
  });
}

void Server::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;

  // 1. Stop accepting. The unwatch+close must run on shard 0's loop thread —
  // and Stop must WAIT for it: a post racing the loop's own Stop() can be
  // retained-but-never-run, which would leave the listening socket open and
  // park late connects in the accept backlog forever.
  {
    std::promise<void> closed;
    shards_[0]->loop->Post([this, &closed] {
      shards_[0]->loop->Unwatch(listener_.fd());
      listener_.Close();
      closed.set_value();
    });
    closed.get_future().wait();
  }

  // 2. Ask every connection to finish what it has and close. Waited for the
  // same reason: once these have run, every conn is draining toward open_==0
  // and no teardown work can be dropped by the loop stop below.
  {
    std::vector<std::promise<void>> asked(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard* s = shards_[i].get();
      std::promise<void>* done = &asked[i];
      s->loop->Post([s, done] {
        for (auto& [id, conn] : s->conns) conn->CloseWhenIdle();
        done->set_value();
      });
    }
    for (auto& done : asked) done.get_future().wait();
  }

  // 3. Bounded graceful drain.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  while (open_.load(std::memory_order_relaxed) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 4. Force-close stragglers (a wedged peer must not block shutdown).
  if (open_.load(std::memory_order_relaxed) > 0) {
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      s->loop->Post([s] {
        for (auto& [id, conn] : s->conns) {
          Instr().force_closed.Add();
          conn->CloseNow();
        }
      });
    }
    while (open_.load(std::memory_order_relaxed) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // 5. Stop the loops and join.
  for (auto& shard : shards_) shard->loop->Stop();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

}  // namespace asppi::net
