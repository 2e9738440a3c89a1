// Small statistics helpers shared by the measurement layer and the benchmark
// harness: integer histograms, empirical CDFs, scalar summaries, and a
// thread-safe latency histogram for the serve layer.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace asppi::util {

// Histogram over non-negative integer keys (e.g. prepend counts).
class Histogram {
 public:
  void Add(int key, std::size_t count = 1);
  std::size_t Count(int key) const;
  std::size_t Total() const { return total_; }
  // Fraction of total mass at `key`; 0 if the histogram is empty.
  double Fraction(int key) const;
  // Fraction of total mass at keys >= `key`.
  double FractionAtLeast(int key) const;
  int MinKey() const;
  int MaxKey() const;
  bool Empty() const { return total_ == 0; }
  const std::map<int, std::size_t>& Buckets() const { return buckets_; }

 private:
  std::map<int, std::size_t> buckets_;
  std::size_t total_ = 0;
};

// Empirical CDF over doubles.
class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  std::size_t Size() const { return sorted_.size(); }
  bool Empty() const { return sorted_.empty(); }
  // P[X <= x].
  double At(double x) const;
  // Smallest sample s with P[X <= s] >= q, q in [0,1].
  double Quantile(double q) const;
  double Min() const;
  double Max() const;
  const std::vector<double>& Sorted() const { return sorted_; }

  // Evenly spaced (x, P[X<=x]) points suitable for plotting/printing.
  std::vector<std::pair<double, double>> Points(std::size_t max_points = 50) const;

 private:
  std::vector<double> sorted_;
};

// Running scalar summary.
struct Summary {
  std::size_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;
  double max = 0.0;

  void Add(double x);
  double Mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
  double Variance() const;
  double Stddev() const;
  std::string ToString() const;
};

// Thread-safe latency histogram: power-of-two buckets over nanoseconds
// (bucket k holds samples in [2^k, 2^(k+1))), recorded with one relaxed
// fetch_add so concurrent serve workers never contend. Quantiles are
// estimated by linear interpolation inside the covering bucket — at most one
// bucket width (~2x) of error, which is what a p99 needs to be useful, not a
// sorted-sample store that grows with traffic.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void RecordNs(std::uint64_t ns);

  std::uint64_t Count() const;
  // q in [0,1]; 0 when empty. Returns nanoseconds.
  double QuantileNs(double q) const;

  // Merged copy of the bucket counts (index = floor(log2(ns))).
  std::array<std::uint64_t, kBuckets> Snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

// Mean of a vector (0 for empty).
double Mean(const std::vector<double>& v);
// Population standard deviation (0 for size < 2).
double Stddev(const std::vector<double>& v);

}  // namespace asppi::util
