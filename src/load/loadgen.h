// load::LoadGen — an open-loop NDJSON load generator for asppi_serve.
//
// Open-loop means the send schedule is independent of the server: request i
// is dispatched at a time drawn from a Poisson process of the target rate,
// whether or not earlier requests have been answered. A closed-loop client
// (send, wait, send) self-throttles when the server slows down and therefore
// under-reports tail latency; the open-loop schedule keeps queueing delay in
// the measurement, which is the delay real clients feel. Latency is measured
// from the SCHEDULED send instant — if the generator itself falls behind
// (blocking write into a full socket), that backlog is server-induced and
// belongs in the number.
//
// Mechanics: one sender thread walks the exponential-gap schedule and
// round-robins request lines over C blocking connections, pushing the
// scheduled timestamp into the connection's FIFO before the bytes leave; one
// reader thread per connection splits response lines (net::LineSplitter),
// pops the matching timestamp — per-connection responses arrive in request
// order — and records the latency plus an ok/overloaded/
// error classification. After the send window closes the readers drain until
// every request is answered or the drain timeout expires.
//
// FindMaxSustainableRps sweeps rates (geometric ladder, then bisection)
// until the highest rate still meeting the SLO is bracketed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load/workload.h"

namespace asppi::load {

struct LoadGenOptions {
  std::uint16_t port = 0;
  int connections = 8;
  double rate_rps = 500.0;
  int duration_ms = 2000;
  // How long to wait for in-flight responses after the send window closes.
  int drain_timeout_ms = 5000;
  WorkloadOptions workload;
};

struct LoadReport {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;  // answered but not ok/overloaded
  std::uint64_t unanswered = 0;
  int connect_failures = 0;
  double target_rps = 0.0;
  double achieved_rps = 0.0;
  double duration_s = 0.0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  std::uint64_t max_us = 0;

  // Every request connected, was answered, and answered ok.
  bool Healthy() const {
    return connect_failures == 0 && unanswered == 0 && errors == 0 &&
           overloaded == 0 && sent > 0;
  }
  std::string ToString() const;
};

// Runs one open-loop measurement against 127.0.0.1:options.port.
LoadReport RunLoad(const LoadGenOptions& options);

struct SloTarget {
  double p99_ms = 50.0;  // SLO: p99 latency bound
};

struct SweepPoint {
  double rate_rps = 0.0;
  LoadReport report;
  bool meets_slo = false;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  double max_sustainable_rps = 0.0;  // highest swept rate meeting the SLO
};

// Doubles the rate from `start_rps` until the SLO breaks (or `max_rps` is
// reached), then bisects the bracket `refine_steps` times. Each point reuses
// `base` with only rate_rps replaced.
SweepResult FindMaxSustainableRps(const LoadGenOptions& base,
                                  const SloTarget& slo, double start_rps,
                                  double max_rps, int refine_steps = 3);

}  // namespace asppi::load
