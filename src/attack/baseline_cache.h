// BaselineCache: memoizes converged attack-free propagation states.
//
// Every attack experiment starts from the victim's attack-free converged
// routing state — and the sweeps behind Figs. 7–14 re-derive that same state
// over and over: every attacker against one victim/λ, every monitor-set size
// against one attack, every training attacker in the placement optimizer.
// The baseline depends only on (origin, prepend policy), never on the
// attacker, so it is memoized here and handed out as
// shared_ptr<const PropagationResult>; AttackSimulator then warm-starts each
// attack from it through bgp::DeltaPropagator::Propagate().
//
// Alongside the converged state, each entry carries a bgp::TraversalIndex
// built once per baseline: it answers "how many ASes route through x?" in
// O(1), which the delta engine's pollution accounting consults per attack
// instead of re-scanning all n best paths.
//
// Thread-safe: concurrent GetEntry() calls for the same announcement compute
// the baseline exactly once (later callers block on the first caller's run);
// distinct announcements compute concurrently. Entries are never evicted or
// replaced, so GetRef()'s const reference stays valid for the cache's
// lifetime — the serve hot path reads the retained state in place with no
// per-query copy. Effectiveness is observable through the process-wide
// metrics registry — "attack.baseline_cache.hits" / ".misses" counters and
// the ".compute" timer (util/metrics.h); a same-victim λ-sweep must add
// exactly one miss per λ.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "bgp/delta.h"
#include "bgp/propagation.h"
#include "topology/as_graph.h"

namespace asppi::attack {

// One memoized baseline: the converged state plus its traversal index.
// Both pointers are non-null and immutable once published.
struct BaselineEntry {
  std::shared_ptr<const bgp::PropagationResult> state;
  std::shared_ptr<const bgp::TraversalIndex> traversal;
};

class BaselineCache {
 public:
  explicit BaselineCache(const topo::AsGraph& graph);

  // The converged attack-free state (with traversal index) for
  // `announcement`, computed at most once per distinct (origin, prepend
  // policy).
  BaselineEntry GetEntry(const bgp::Announcement& announcement);

  // Convenience: just the converged state.
  std::shared_ptr<const bgp::PropagationResult> Get(
      const bgp::Announcement& announcement) {
    return GetEntry(announcement).state;
  }

  // The retained converged state by reference — no shared_ptr bump, no copy.
  // Valid for the cache's lifetime (entries are never evicted or replaced).
  const bgp::PropagationResult& GetRef(const bgp::Announcement& announcement) {
    return *GetEntry(announcement).state;
  }

  // Pre-seeds the entry for `baseline`'s announcement (snapshot warm-load:
  // the baselines data/snapshot.cc derives from its checkpoints go straight
  // into the cache), building its traversal index eagerly. A later lookup for
  // the same announcement is a hit; Put over an existing entry is a no-op so
  // a computed state is never replaced.
  void Put(std::shared_ptr<const bgp::PropagationResult> baseline);

  // Number of memoized baselines. Hit/miss accounting lives in the metrics
  // registry (see the header comment), not on the instance.
  std::size_t Size() const;

  const topo::AsGraph& Graph() const { return graph_; }

 private:
  const topo::AsGraph& graph_;
  bgp::PropagationSimulator engine_;

  mutable std::mutex mu_;
  // shared_future so every waiter (including the computing thread) can
  // retrieve the same baseline; the promise is fulfilled outside the lock.
  std::unordered_map<std::string, std::shared_future<BaselineEntry>> entries_;
};

}  // namespace asppi::attack
