// BaselineCache: memoizes converged attack-free propagation states, and is
// the one place an attack's baseline comes from.
//
// Every attack experiment starts from the victim's attack-free converged
// routing state — and the sweeps behind Figs. 7–14 re-derive that same state
// over and over: every attacker against one victim/λ, every monitor-set size
// against one attack, every training attacker in the placement optimizer.
// The baseline depends only on (origin, prepend policy), never on the
// attacker, so it is memoized here and handed out as
// shared_ptr<const PropagationResult>; AttackSimulator (which owns a cache
// when its caller passes none) then warm-starts each attack from it through
// bgp::DeltaPropagator::Propagate(). A miss builds the baseline as the
// paper's Fig. 2 best-route tree (bgp::RoutingTree) in one pass, through
// PropagationResult::FromParentSlots: best routes and parent slots, no
// stored Adj-RIB-In, and at rest (Rounds() 0, every change round -1) — an
// attack's timing is counted from its own resume point, never from the
// baseline's.
//
// Alongside the converged state, each entry carries a bgp::TraversalIndex
// built once per baseline from its best-route tree: subtree sizes that
// answer "how many ASes route through x (or through any of these
// colluders)?" and "how many ASes hold a route?" in O(1) per AS, which the
// attack accounting consults instead of re-scanning all n best paths.
//
// Thread-safe: concurrent GetEntry() calls for the same announcement compute
// the baseline exactly once (later callers block on the first caller's run);
// distinct announcements compute concurrently. Entries are never evicted or
// replaced; a caller that reads a state pins it by holding the entry's
// shared_ptr. Effectiveness is observable through the process-wide metrics
// registry — "attack.baseline_cache.hits" / ".misses" counters and the
// ".compute" timer (util/metrics.h); a same-victim λ-sweep must add exactly
// one miss per λ.
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

  // GetEntry(announcement).state. Kept only for perfbench/main.cc, which
  // calls it and changes together with the benchmark; everything in src/,
  // tools/ and tests/ reads GetEntry.
  std::shared_ptr<const bgp::PropagationResult> Get(
      const bgp::Announcement& announcement) {
    return GetEntry(announcement).state;
  }

  // Pre-seeds the entry for `baseline`'s announcement (snapshot warm-load:
  // the baselines data/snapshot.cc derives from its parent slots go straight
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

  mutable std::mutex mu_;
  // shared_future so every waiter (including the computing thread) can
  // retrieve the same baseline; the promise is fulfilled outside the lock.
  std::unordered_map<std::string, std::shared_future<BaselineEntry>> entries_;
};

}  // namespace asppi::attack
