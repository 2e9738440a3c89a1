// File-descriptor plumbing shared by every socket path in the repo: a
// move-only RAII wrapper (no descriptor is ever leaked on an early return),
// an EINTR retry helper (a signal landing mid-syscall — SIGHUP reload under
// load is the canonical case — must never look like an I/O error), and the
// non-blocking/wakeup primitives the reactor is built from.
#pragma once

#include <unistd.h>

#include <cerrno>
#include <string>
#include <utility>

namespace asppi::net {

// Retries `fn` (a syscall-shaped callable returning < 0 with errno on
// failure) while it fails with EINTR. Returns the first non-EINTR result.
// The reactor's and the load generator's accept/read/write calls go through
// this so a delivered signal can never tear a connection.
template <typename Fn>
auto RetryOnEintr(Fn&& fn) -> decltype(fn()) {
  decltype(fn()) result;
  do {
    result = fn();
  } while (result < 0 && errno == EINTR);
  return result;
}

// Owning file descriptor: closes on destruction (retrying EINTR per POSIX
// close semantics on Linux — the fd is gone either way), move-only, and
// explicit about handing ownership away.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { Reset(); }

  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  // Releases ownership without closing; returns the raw fd.
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  // Closes now (idempotent).
  void Reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

// O_NONBLOCK on/off. Returns false (errno set) on failure.
bool SetNonBlocking(int fd, bool non_blocking = true);

// TCP_NODELAY — NDJSON request/response lines are latency-sensitive and tiny.
void SetTcpNoDelay(int fd);

// A self-wakeup channel for event loops: eventfd on Linux (read_fd ==
// write_fd), a non-blocking pipe elsewhere. Returns "" on success.
struct WakeupPair {
  ScopedFd read_fd;
  ScopedFd write_fd;  // invalid when eventfd-backed; write to read_fd then
  int WriteEnd() const { return write_fd.valid() ? write_fd.get() : read_fd.get(); }
};
std::string OpenWakeupPair(WakeupPair* out);

// Post one wakeup token (non-blocking; a full pipe already wakes the peer).
void SignalWakeup(int write_end);

// Drain every pending wakeup token (called from the loop after poll).
void DrainWakeup(int read_end);

}  // namespace asppi::net
