// Readiness polling behind one interface, two backends:
//
//   * kEpoll — Linux epoll in level-triggered mode. Level-triggered (not
//     edge) because the reactor deliberately stops reading a connection
//     while a batch is in flight (flow control); with edge triggering the
//     un-consumed readable state would need manual re-arming on every
//     resume. O(ready) dispatch, fd count far beyond FD_SETSIZE.
//   * kPoll — portable poll(2) over a dense pollfd array. O(watched) per
//     wait, but correct everywhere; it is what macOS/CI-sanitizer builds and
//     the fallback tests run. Behaviorally identical to the epoll backend —
//     net_test parameterizes every suite over both.
//
// kAuto resolves to epoll where compiled in, else poll. Both backends are
// single-threaded by contract: all calls from the owning loop thread.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fd.h"

namespace asppi::net {

enum class PollerBackend { kAuto, kEpoll, kPoll };

const char* PollerBackendName(PollerBackend backend);

struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;  // HUP/ERR — the owner should read-to-EOF then close
};

class Poller {
 public:
  explicit Poller(PollerBackend backend = PollerBackend::kAuto);
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // The backend actually in use (kAuto resolved).
  PollerBackend backend() const { return backend_; }

  // Registers `fd`. Returns "" on success. Watching neither direction is
  // legal (the fd stays registered for error events).
  std::string Add(int fd, bool want_read, bool want_write);
  // Updates interest for a registered fd (no-op for unknown fds).
  void Set(int fd, bool want_read, bool want_write);
  void Remove(int fd);

  std::size_t WatchedCount() const { return interest_.size(); }

  // Blocks up to `timeout_ms` (-1 = no timeout) and appends ready events to
  // `out` (cleared first). Returns the event count; EINTR reads as 0.
  int Wait(int timeout_ms, std::vector<PollerEvent>* out);

 private:
  struct Interest {
    bool read = false;
    bool write = false;
  };

  PollerBackend backend_;
  std::unordered_map<int, Interest> interest_;

  // kEpoll state.
  ScopedFd epoll_fd_;

  // kPoll state: dense pollfd array kept in sync with interest_.
  std::vector<int> poll_fds_;  // fd per dense slot
  std::unordered_map<int, std::size_t> poll_index_;
};

}  // namespace asppi::net
