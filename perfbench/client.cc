#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <memory>

#include "net/fd.h"
#include "net/frames.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

struct ConnState {
  int fd = -1;
  std::string out;                   // bytes not yet accepted by the socket
  std::deque<std::size_t> inflight;  // record indices awaiting a response
  asppi::net::LineSplitter splitter{1 << 22};
};

// Sends as much of `conn.out` as the socket takes. False on a hard error.
bool Flush(ConnState& conn) {
  while (!conn.out.empty()) {
    const ssize_t n = asppi::net::RetryOnEintr([&] {
      return ::send(conn.fd, conn.out.data(), conn.out.size(),
                    MSG_NOSIGNAL | MSG_DONTWAIT);
    });
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    conn.out.erase(0, static_cast<std::size_t>(n));
  }
  return true;
}

// Waits up to `wait_ns` for a connection to become readable (or writable
// while it has unsent bytes), sends what the sockets take, and hands every
// complete response line to on_line(connection index, line, arrival time).
// False when a connection failed or was closed.
bool PollConnections(
    std::vector<ConnState>& conns, std::uint64_t wait_ns,
    const std::function<void(std::size_t, std::string&, std::uint64_t)>&
        on_line) {
  std::vector<pollfd> pfds(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) {
    pfds[c].fd = conns[c].fd;
    pfds[c].events =
        static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT));
  }
  const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                         static_cast<long>(wait_ns % 1000000000)};
  const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
  if (ready < 0) return errno == EINTR;
  bool ok = true;
  std::vector<std::string> lines;
  char buf[64 * 1024];
  for (std::size_t c = 0; c < conns.size() && ready > 0; ++c) {
    ConnState& conn = conns[c];
    if ((pfds[c].revents & POLLOUT) != 0 && !Flush(conn)) ok = false;
    if ((pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    for (;;) {
      const ssize_t n = asppi::net::RetryOnEintr(
          [&] { return ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT); });
      if (n == 0) ok = false;
      if (n <= 0) break;
      lines.clear();
      conn.splitter.Feed(std::string_view(buf, static_cast<std::size_t>(n)),
                         &lines);
      const std::uint64_t done = NowNs();
      for (std::string& line : lines) on_line(c, line, done);
    }
  }
  return ok;
}

Status Classify(const std::string& line) {
  if (line.find("\"ok\":true") != std::string::npos) return Status::kOk;
  if (line.find("overloaded") != std::string::npos) return Status::kOverloaded;
  return Status::kError;
}

}  // namespace

std::uint64_t LegResult::Count(Status status) const {
  return static_cast<std::uint64_t>(
      std::count_if(records.begin(), records.end(),
                    [&](const RequestRecord& r) { return r.status == status; }));
}

std::vector<double> LegResult::OkLatenciesMs() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const RequestRecord& r : records) {
    if (r.status == Status::kOk) out.push_back(r.LatencyMs());
  }
  return out;
}

std::vector<double> LegResult::LagsMs() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const RequestRecord& r : records) out.push_back(r.LagMs());
  return out;
}

OpenLoopClient::OpenLoopClient(int port, int connections)
    : port_(port), connections_(std::max(1, connections)) {
  Connect();
}

OpenLoopClient::~OpenLoopClient() { CloseAll(); }

void OpenLoopClient::CloseAll() {
  for (int fd : fds_) ::close(fd);
  fds_.clear();
}

void OpenLoopClient::Connect() {
  CloseAll();
  for (int i = 0; i < connections_; ++i) {
    asppi::net::ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    if (!fd.valid() ||
        asppi::net::RetryOnEintr([&] {
          return ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
        }) < 0) {
      error_ = "connect to 127.0.0.1:" + std::to_string(port_) + " failed";
      return;
    }
    asppi::net::SetTcpNoDelay(fd.get());
    asppi::net::SetNonBlocking(fd.get());
    fds_.push_back(fd.Release());
  }
}

LegResult OpenLoopClient::Run(
    const LegPlan& plan,
    const std::function<std::string(std::uint64_t)>& line_of,
    const std::function<bool(std::uint64_t)>& capture) {
  LegResult result;
  result.plan = plan;
  if (!error_.empty() || fds_.empty()) return result;
  std::vector<ConnState> conns(fds_.size());
  for (std::size_t c = 0; c < conns.size(); ++c) conns[c].fd = fds_[c];
  const std::uint64_t expected = static_cast<std::uint64_t>(
      std::ceil(plan.rate_rps * plan.duration_s));
  result.records.reserve(expected + expected / 4 + 16);

  asppi::util::Rng gaps(plan.schedule_seed);
  const auto gap_ns = [&] {
    return static_cast<std::uint64_t>(-std::log(1.0 - gaps.Uniform()) /
                                      plan.rate_rps * 1e9);
  };
  const std::uint64_t slo_ns = static_cast<std::uint64_t>(plan.slo_ms * 1e6);
  const std::uint64_t start = NowNs() + 1000000;  // first send ≥ 1 ms out
  const std::uint64_t window_end =
      start + static_cast<std::uint64_t>(plan.duration_s * 1e9);
  const std::uint64_t drain_end =
      window_end + static_cast<std::uint64_t>(plan.drain_s * 1e9);
  std::uint64_t next_at = start + gap_ns();
  std::uint64_t outstanding = 0;
  std::size_t round_robin = 0;
  bool sending = true;
  bool broken = false;
  const auto on_line = [&](std::size_t c, std::string& line,
                           std::uint64_t done) {
    ConnState& conn = conns[c];
    if (conn.inflight.empty()) return;  // unsolicited line
    RequestRecord& record = result.records[conn.inflight.front()];
    conn.inflight.pop_front();
    --outstanding;
    record.done_ns = done;
    record.status = Classify(line);
    if (record.status != Status::kOk || done - record.scheduled_ns > slo_ns) {
      ++result.late;
    }
    if (capture(record.index)) {
      result.captured.emplace(record.index, std::move(line));
    }
  };

  for (;;) {
    std::uint64_t now = NowNs();
    while (sending && next_at <= now) {
      if (next_at >= window_end) break;
      ConnState& conn = conns[round_robin++ % conns.size()];
      RequestRecord record;
      record.index = plan.first_index + result.records.size();
      record.scheduled_ns = next_at;
      record.sent_ns = NowNs();
      conn.out += line_of(record.index);
      conn.out += '\n';
      conn.inflight.push_back(result.records.size());
      result.records.push_back(record);
      ++outstanding;
      if (!Flush(conn)) broken = true;
      next_at += gap_ns();
      now = NowNs();
    }
    if (sending && next_at >= window_end && now >= window_end) {
      sending = false;
      result.outstanding_at_window_end = outstanding;
    }
    if (plan.late_budget != 0 && sending) {
      // Requests still waiting past the SLO are late already.
      std::uint64_t late = result.late;
      for (const ConnState& conn : conns) {
        for (std::size_t index : conn.inflight) {
          if (now - result.records[index].scheduled_ns <= slo_ns) break;
          ++late;
        }
      }
      if (late > plan.late_budget) {
        result.aborted = true;
        sending = false;
        result.outstanding_at_window_end = outstanding;
      }
    }
    if (broken || (!sending && outstanding == 0) ||
        (!sending && now >= drain_end)) {
      break;
    }

    const std::uint64_t wake = sending ? std::min(next_at, window_end)
                                       : drain_end;
    if (!PollConnections(conns, wake > now ? wake - now : 0, on_line)) {
      broken = true;
    }
  }
  if (sending) result.outstanding_at_window_end = outstanding;
  if (outstanding != 0 || broken) Connect();
  return result;
}

ClosedResult OpenLoopClient::RunClosed(
    double duration_s, int window, std::uint64_t first_index,
    const std::function<std::string(std::uint64_t)>& line_of) {
  ClosedResult result;
  if (!error_.empty() || fds_.empty()) return result;
  std::vector<ConnState> conns(fds_.size());
  std::vector<std::size_t> outstanding(fds_.size(), 0);
  std::uint64_t next_index = first_index;
  bool broken = false;
  const auto send_one = [&](std::size_t c) {
    conns[c].out += line_of(next_index++);
    conns[c].out += '\n';
    ++outstanding[c];
    ++result.sent;
    if (!Flush(conns[c])) broken = true;
  };
  const std::uint64_t start = NowNs();
  const std::uint64_t end = start + static_cast<std::uint64_t>(duration_s * 1e9);
  const std::uint64_t drain_end = end + 10'000'000'000ULL;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = fds_[c];
    for (int k = 0; k < window; ++k) send_one(c);
  }
  std::uint64_t pending = result.sent;
  const auto on_line = [&](std::size_t c, std::string& line,
                           std::uint64_t done) {
    if (outstanding[c] == 0) return;  // unsolicited line
    --outstanding[c];
    --pending;
    if (Classify(line) != Status::kOk) {
      ++result.failed;
    } else if (done < end) {
      ++result.completed;
    }
    if (done < end) {
      send_one(c);
      ++pending;
    }
  };
  for (;;) {
    const std::uint64_t now = NowNs();
    if (broken || pending == 0 || now >= drain_end) break;
    if (!PollConnections(conns, (now < end ? end : drain_end) - now,
                         on_line)) {
      broken = true;
    }
  }
  result.failed += pending;
  result.seconds = duration_s;
  if (pending != 0 || broken) Connect();
  return result;
}

}  // namespace perfbench
