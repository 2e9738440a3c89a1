#include "net/poller.h"

#include <poll.h>

#include <cstring>

#include "util/check.h"

#if defined(__linux__)
#include <sys/epoll.h>
#define ASPPI_NET_HAS_EPOLL 1
#else
#define ASPPI_NET_HAS_EPOLL 0
#endif

namespace asppi::net {

const char* PollerBackendName(PollerBackend backend) {
  switch (backend) {
    case PollerBackend::kAuto:
      return "auto";
    case PollerBackend::kEpoll:
      return "epoll";
    case PollerBackend::kPoll:
      return "poll";
  }
  return "unknown";
}

Poller::Poller(PollerBackend backend) : backend_(backend) {
  if (backend_ == PollerBackend::kAuto) {
    backend_ =
        ASPPI_NET_HAS_EPOLL ? PollerBackend::kEpoll : PollerBackend::kPoll;
  }
#if ASPPI_NET_HAS_EPOLL
  if (backend_ == PollerBackend::kEpoll) {
    epoll_fd_.Reset(::epoll_create1(EPOLL_CLOEXEC));
    ASPPI_CHECK(epoll_fd_.valid()) << "epoll_create1: " << std::strerror(errno);
  }
#else
  // epoll asked for on a platform without it: fall back rather than fail —
  // the caller's backend knob is a preference, portability is the contract.
  backend_ = PollerBackend::kPoll;
#endif
}

Poller::~Poller() = default;

std::string Poller::Add(int fd, bool want_read, bool want_write) {
  if (interest_.count(fd) != 0) return "fd already registered";
  interest_[fd] = Interest{want_read, want_write};
#if ASPPI_NET_HAS_EPOLL
  if (backend_ == PollerBackend::kEpoll) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
      interest_.erase(fd);
      return std::string("epoll_ctl(ADD): ") + std::strerror(errno);
    }
    return "";
  }
#endif
  poll_index_[fd] = poll_fds_.size();
  poll_fds_.push_back(fd);
  return "";
}

void Poller::Set(int fd, bool want_read, bool want_write) {
  auto it = interest_.find(fd);
  if (it == interest_.end()) return;
  it->second = Interest{want_read, want_write};
#if ASPPI_NET_HAS_EPOLL
  if (backend_ == PollerBackend::kEpoll) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev);
  }
#endif
}

void Poller::Remove(int fd) {
  if (interest_.erase(fd) == 0) return;
#if ASPPI_NET_HAS_EPOLL
  if (backend_ == PollerBackend::kEpoll) {
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
    return;
  }
#endif
  const auto it = poll_index_.find(fd);
  const std::size_t slot = it->second;
  poll_index_.erase(it);
  // Swap-erase keeps the dense array compact; re-home the moved fd's index.
  const int moved = poll_fds_.back();
  poll_fds_[slot] = moved;
  poll_fds_.pop_back();
  if (moved != fd) poll_index_[moved] = slot;
}

int Poller::Wait(int timeout_ms, std::vector<PollerEvent>* out) {
  out->clear();
#if ASPPI_NET_HAS_EPOLL
  if (backend_ == PollerBackend::kEpoll) {
    epoll_event events[128];
    const int n = ::epoll_wait(epoll_fd_.get(), events,
                               static_cast<int>(std::size(events)), timeout_ms);
    if (n < 0) return errno == EINTR ? 0 : -1;
    out->reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      PollerEvent event;
      event.fd = events[i].data.fd;
      event.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      event.writable = (events[i].events & EPOLLOUT) != 0;
      event.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out->push_back(event);
    }
    return n;
  }
#endif
  std::vector<pollfd> pfds;
  pfds.reserve(poll_fds_.size());
  for (int fd : poll_fds_) {
    const Interest& interest = interest_[fd];
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = static_cast<short>((interest.read ? POLLIN : 0) |
                                    (interest.write ? POLLOUT : 0));
    pfds.push_back(pfd);
  }
  const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (n < 0) return errno == EINTR ? 0 : -1;
  for (const pollfd& pfd : pfds) {
    if (pfd.revents == 0) continue;
    PollerEvent event;
    event.fd = pfd.fd;
    event.readable = (pfd.revents & (POLLIN | POLLHUP)) != 0;
    event.writable = (pfd.revents & POLLOUT) != 0;
    event.error = (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    out->push_back(event);
  }
  return static_cast<int>(out->size());
}

}  // namespace asppi::net
