#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace asppi::util {

void Histogram::Add(int key, std::size_t count) {
  buckets_[key] += count;
  total_ += count;
}

std::size_t Histogram::Count(int key) const {
  auto it = buckets_.find(key);
  return it == buckets_.end() ? 0 : it->second;
}

double Histogram::Fraction(int key) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(Count(key)) / static_cast<double>(total_);
}

double Histogram::FractionAtLeast(int key) const {
  if (total_ == 0) return 0.0;
  std::size_t mass = 0;
  for (auto it = buckets_.lower_bound(key); it != buckets_.end(); ++it) {
    mass += it->second;
  }
  return static_cast<double>(mass) / static_cast<double>(total_);
}

int Histogram::MinKey() const {
  ASPPI_CHECK(!buckets_.empty());
  return buckets_.begin()->first;
}

int Histogram::MaxKey() const {
  ASPPI_CHECK(!buckets_.empty());
  return buckets_.rbegin()->first;
}

Cdf::Cdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::At(double x) const {
  if (sorted_.empty()) return 0.0;
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Cdf::Quantile(double q) const {
  ASPPI_CHECK(!sorted_.empty());
  ASPPI_CHECK_GE(q, 0.0);
  ASPPI_CHECK_LE(q, 1.0);
  if (q <= 0.0) return sorted_.front();
  std::size_t idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())));
  if (idx > 0) --idx;
  if (idx >= sorted_.size()) idx = sorted_.size() - 1;
  return sorted_[idx];
}

double Cdf::Min() const {
  ASPPI_CHECK(!sorted_.empty());
  return sorted_.front();
}

double Cdf::Max() const {
  ASPPI_CHECK(!sorted_.empty());
  return sorted_.back();
}

std::vector<std::pair<double, double>> Cdf::Points(std::size_t max_points) const {
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty() || max_points == 0) return out;
  const std::size_t n = sorted_.size();
  const std::size_t step = std::max<std::size_t>(1, n / max_points);
  for (std::size_t i = 0; i < n; i += step) {
    out.emplace_back(sorted_[i],
                     static_cast<double>(i + 1) / static_cast<double>(n));
  }
  if (out.back().first != sorted_.back()) {
    out.emplace_back(sorted_.back(), 1.0);
  }
  return out;
}

void Summary::Add(double x) {
  if (n == 0) {
    min = max = x;
  } else {
    min = std::min(min, x);
    max = std::max(max, x);
  }
  ++n;
  sum += x;
  sum_sq += x * x;
}

double Summary::Variance() const {
  if (n < 2) return 0.0;
  const double mean = Mean();
  return sum_sq / static_cast<double>(n) - mean * mean;
}

double Summary::Stddev() const { return std::sqrt(std::max(0.0, Variance())); }

std::string Summary::ToString() const {
  std::ostringstream os;
  os << "n=" << n << " mean=" << Mean() << " min=" << min << " max=" << max
     << " sd=" << Stddev();
  return os.str();
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Stddev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size()));
}

void LatencyHistogram::RecordNs(std::uint64_t ns) {
  std::size_t bucket = 0;
  while (bucket + 1 < kBuckets && (std::uint64_t{1} << (bucket + 1)) <= ns) {
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::Count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

std::array<std::uint64_t, LatencyHistogram::kBuckets>
LatencyHistogram::Snapshot() const {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double LatencyHistogram::QuantileNs(double q) const {
  const auto counts = Snapshot();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the requested quantile (1-based), then walk to its bucket.
  const double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const double before = seen;
    seen += static_cast<double>(counts[i]);
    if (seen >= rank) {
      const double lo = static_cast<double>(std::uint64_t{1} << i);
      const double hi = i + 1 >= kBuckets ? lo * 2.0
                                          : static_cast<double>(
                                                std::uint64_t{1} << (i + 1));
      const double frac =
          counts[i] == 0 ? 0.0
                         : (rank - before) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
  }
  return static_cast<double>(std::uint64_t{1} << (kBuckets - 1));
}

}  // namespace asppi::util
