// load::Workload — deterministic scripted request streams for asppi_serve.
//
// A workload is (seed, AS count, op mix); request line i is a pure function
// of those three, derived through util::DeriveSeed(seed, i). That gives two
// properties the load and equivalence tooling lean on:
//
//   * bit-determinism at any parallelism: generating lines 0..n-1 with
//     ParallelFor at any --threads yields the same bytes as a serial loop,
//     so workload generation sits inside the metrics determinism guarantee;
//   * replayability: reactor_test's byte-equivalence gate feeds the SAME
//     line sequence to the reactor and to an in-process QueryService and
//     demands identical response bytes.
//
// The op mix is a scripted weight string, e.g. "impact:6,route:3,detect:1".
// Weights are integers; ops absent from the mix are never generated. The
// default mix approximates a production read-heavy query stream: mostly
// what-if impact queries with a tail of route lookups and detector runs.
//
// Generated ASN pairs draw from [1, as_count] — generated topologies number
// their ASes 1..N; a small hot set (Zipf-ish:
// 1/8 of draws hit `hot_set` victims) makes the cache ablation meaningful —
// a pure-uniform stream at 100k ASes would never hit the result cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace asppi::load {

struct MixEntry {
  std::string op;  // wire op name: impact|detect|route|defense|strategy|stats|health
  int weight = 0;
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  // ASN space to draw victims/attackers/origins/observers from.
  std::uint32_t as_count = 64;
  // Fraction of draws redirected to a small hot set of victims (cache hits).
  double hot_fraction = 0.125;
  std::size_t hot_set = 4;
  std::string mix = "impact:60,route:25,detect:10,stats:4,health:1";
};

class Workload {
 public:
  // Dies (ASPPI_CHECK) on a malformed mix string or unknown op name; use
  // ParseMix first when the string is user-supplied.
  explicit Workload(const WorkloadOptions& options);

  // The i-th request line (no trailing newline). Pure in (options, i).
  std::string Line(std::uint64_t i) const;

  // First n lines, newline-terminated each, in one buffer.
  std::string Script(std::uint64_t n) const;

  const std::vector<MixEntry>& mix() const { return mix_; }
  const WorkloadOptions& options() const { return options_; }

  // Parses "op:weight,op:weight,..."; returns false on malformed input or an
  // unknown op name.
  static bool ParseMix(const std::string& text, std::vector<MixEntry>* out);

 private:
  WorkloadOptions options_;
  std::vector<MixEntry> mix_;
  int total_weight_ = 0;
};

}  // namespace asppi::load
