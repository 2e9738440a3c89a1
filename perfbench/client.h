// Open-loop NDJSON client for the serve workload.
//
// One thread drives every connection: it sends request i at its scheduled
// instant on a Poisson schedule (exponential gaps drawn from the leg's seed),
// whether or not earlier requests were answered, and reads responses in the
// gaps. Latency is timed from the scheduled instant, so a stall charges every
// request queued behind it; lag (actual send minus scheduled) says how far
// the client itself fell behind. Responses on one connection arrive in
// request order, so each connection keeps a FIFO of its outstanding requests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct LegPlan {
  double rate_rps = 100.0;
  double duration_s = 1.0;
  // Stream position of the leg's first request.
  std::uint64_t first_index = 0;
  std::uint64_t schedule_seed = 1;
  // A request is late when its latency exceeds slo_ms (failures and
  // requests still outstanding past slo_ms count as late). With a non-zero
  // budget the leg stops sending once more requests than that are late.
  double slo_ms = 50.0;
  std::uint64_t late_budget = 0;
  double drain_s = 10.0;
};

enum class Status : std::uint8_t { kPending, kOk, kOverloaded, kError };

struct RequestRecord {
  std::uint64_t index = 0;
  std::uint64_t scheduled_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  Status status = Status::kPending;

  double LatencyMs() const {
    return static_cast<double>(done_ns - scheduled_ns) / 1e6;
  }
  double LagMs() const {
    return static_cast<double>(sent_ns - scheduled_ns) / 1e6;
  }
};

struct LegResult {
  LegPlan plan;
  std::vector<RequestRecord> records;  // one per sent request, in send order
  std::map<std::uint64_t, std::string> captured;  // index → response line
  bool aborted = false;  // stopped early: late budget exhausted
  std::uint64_t outstanding_at_window_end = 0;
  std::uint64_t late = 0;

  std::uint64_t Count(Status status) const;
  std::uint64_t Sent() const { return records.size(); }
  // Latencies of requests answered ok, in ms.
  std::vector<double> OkLatenciesMs() const;
  std::vector<double> LagsMs() const;
};

struct ClosedResult {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;  // answered ok within the window
  std::uint64_t failed = 0;     // answered not ok, or never answered
  double seconds = 0.0;
};

class OpenLoopClient {
 public:
  OpenLoopClient(int port, int connections);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  // "" when every connection is up.
  const std::string& Error() const { return error_; }

  // Runs one leg. `line_of(i)` is request i (no newline); responses of
  // requests with capture(i) true are kept in LegResult::captured. Requests
  // still unanswered after the drain window stay kPending, and the
  // connections are re-opened so a late answer cannot be matched to a later
  // leg's request.
  LegResult Run(const LegPlan& plan,
                const std::function<std::string(std::uint64_t)>& line_of,
                const std::function<bool(std::uint64_t)>& capture);

  // Closed loop, for capacity: every connection keeps `window` requests
  // outstanding for `duration_s` (requests first_index, first_index+1, ...).
  ClosedResult RunClosed(double duration_s, int window,
                         std::uint64_t first_index,
                         const std::function<std::string(std::uint64_t)>& line_of);

 private:
  void Connect();
  void CloseAll();

  int port_;
  int connections_;
  std::vector<int> fds_;
  std::string error_;
};

}  // namespace perfbench
