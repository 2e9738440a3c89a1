#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::int64_t Tracer::Begin(const std::string& name, std::uint64_t id,
                           std::int64_t parent) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::End(std::int64_t index, double value) {
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now;
  span.value = value;
}

void Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t Tracer::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"value\":%.17g}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.value);
  }
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.Ms());
  }
  return out;
}

std::vector<double> Values(const std::vector<Span>& spans,
                           const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.value);
  }
  return out;
}

std::map<std::string, double> SelfTimeMsByLayer(
    const std::vector<Span>& spans) {
  // Children of one span run sequentially on the span's own thread, so the
  // time they cover is the sum of their durations.
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.Ms();
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].Layer()] += std::max(0.0, spans[i].Ms() - child_ms[i]);
  }
  return out;
}

}  // namespace perfbench
