// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's side of each public call into
// the library (the library itself carries no tracing). A span has a name
// ("<layer>.<what>"), an id shared by every span of one sweep point or served
// request, a parent (index of the enclosing span, -1 for a root), start/end
// on the steady clock, and one optional numeric attribute (e.g. a delta
// engine's wavefront size). Spans stay in memory until WriteJsonl at the end
// of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double value = 0.0;

  double Ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  // Text before the first '.', e.g. "bgp" for "bgp.converge".
  std::string Layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  // Opens a span and returns its index (the handle children pass as parent).
  std::int64_t Begin(const std::string& name, std::uint64_t id,
                     std::int64_t parent);
  void End(std::int64_t index, double value);
  // Records an already-finished span (e.g. a request timed by the client).
  void Add(Span span);

  std::vector<Span> Spans() const;
  std::size_t Size() const;
  // One JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; every method is a no-op when the tracer is null, so untraced
// runs pay one branch per call site.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t id,
             std::int64_t parent = -1)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, id, parent) : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void SetValue(double value) { value_ = value; }
  std::int64_t index() const { return index_; }
  void End() {
    if (tracer_ != nullptr && !ended_) tracer_->End(index_, value_);
    ended_ = true;
  }

 private:
  Tracer* tracer_;
  std::int64_t index_;
  double value_ = 0.0;
  bool ended_ = false;
};

// Exact quantile of `v` (nearest rank on a sorted copy); 0 when empty.
double Quantile(std::vector<double> v, double q);
double MeanOf(const std::vector<double>& v);

// Durations (ms) of every span called `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);
// Attribute values of every span called `name`.
std::vector<double> Values(const std::vector<Span>& spans,
                           const std::string& name);

// Self time per layer (ms): each span's duration minus the time its direct
// children cover, summed by Span::Layer().
std::map<std::string, double> SelfTimeMsByLayer(const std::vector<Span>& spans);

}  // namespace perfbench
