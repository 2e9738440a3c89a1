#include "attack/baseline_cache.h"

#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "bgp/routing_tree.h"
#include "util/check.h"
#include "util/metrics.h"

namespace asppi::attack {

namespace {

std::string KeyOf(const bgp::Announcement& announcement) {
  return std::to_string(announcement.origin) + '|' +
         announcement.prepends.KeyString();
}

// Hit/miss totals are deterministic for any thread count: the per-key
// shared_future guarantees exactly one miss per distinct announcement, and
// every other Get is a hit, however the lookups interleave.
struct CacheMetrics {
  util::Counter hits{"attack.baseline_cache.hits"};
  util::Counter misses{"attack.baseline_cache.misses"};
  util::Timer compute{"attack.baseline_cache.compute"};
};

CacheMetrics& Instr() {
  static CacheMetrics* m = new CacheMetrics();
  return *m;
}

}  // namespace

BaselineCache::BaselineCache(const topo::AsGraph& graph) : graph_(graph) {}

BaselineEntry BaselineCache::GetEntry(const bgp::Announcement& announcement) {
  const std::string key = KeyOf(announcement);
  std::promise<BaselineEntry> promise;
  std::shared_future<BaselineEntry> future;
  bool compute = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      Instr().hits.Add();
      future = it->second;
    } else {
      Instr().misses.Add();
      future = promise.get_future().share();
      entries_.emplace(key, future);
      compute = true;
    }
  }
  if (compute) {
    // Run outside the lock so distinct announcements converge concurrently;
    // waiters for *this* key block on the future instead of the mutex.
    util::ScopedTimer compute_timer(Instr().compute);
    try {
      // The paper's Fig. 2 tree gives Run's best routes; FromParentSlots
      // derives them from its parent slots. An error here would be a tree
      // bug, not bad input.
      std::string error;
      std::optional<bgp::PropagationResult> state =
          bgp::PropagationResult::FromParentSlots(
              graph_, announcement,
              bgp::RoutingTree(graph_, announcement).ParentSlots(), &error);
      ASPPI_CHECK(state.has_value())
          << "baseline of origin AS" << announcement.origin << ": " << error;
      BaselineEntry entry;
      entry.state =
          std::make_shared<const bgp::PropagationResult>(std::move(*state));
      entry.traversal =
          std::make_shared<const bgp::TraversalIndex>(*entry.state);
      promise.set_value(std::move(entry));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

void BaselineCache::Put(
    std::shared_ptr<const bgp::PropagationResult> baseline) {
  const std::string key = KeyOf(baseline->GetAnnouncement());
  std::promise<BaselineEntry> promise;
  auto future = promise.get_future().share();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!entries_.emplace(key, future).second) return;  // already present
  }
  BaselineEntry entry;
  entry.traversal = std::make_shared<const bgp::TraversalIndex>(*baseline);
  entry.state = std::move(baseline);
  promise.set_value(std::move(entry));
}

std::size_t BaselineCache::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace asppi::attack
