// Incremental per-monitor routing state for the online pipeline.
//
// StreamState maintains the latest-wins view of every (monitor, prefix)
// table entry as a sequenced update stream replays over a baseline RIB
// snapshot, and groups live entries into one bucket per observed prefix:
// its origin AS (the prefix owner the detector defends) and the prefix
// itself. The paper compares routes to the same prefix, so an origin that
// announces two prefixes with different padding has two buckets.
//
// The canonical reconstruction contract: `PathsToward(k)` returns the live
// entries of k's bucket in ascending (sequence, monitor) order, so
// `RouteSnapshot::FromMonitors(PathsToward(k), kLatestObserved)` is *the*
// snapshot implied by the events applied so far — the right-hand side of the
// batch/stream equivalence contract (DESIGN.md §4e).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "bgp/as_path.h"
#include "bgp/policy.h"
#include "data/measurement.h"

namespace asppi::stream {

using bgp::AsPath;
using topo::Asn;

// One observed prefix: the detector's unit of observation.
struct PrefixKey {
  Asn origin = 0;
  data::Prefix prefix;
  auto operator<=>(const PrefixKey&) const = default;
};

class StreamState {
 public:
  // Identifies one table slot: a prefix in one monitor's table.
  struct EntryKey {
    Asn monitor = 0;
    data::Prefix prefix;
    auto operator<=>(const EntryKey&) const = default;
  };

  // What one applied update did to the table, reported to the caller so the
  // incremental detector can patch its expansion index with exactly the
  // affected entries.
  struct Change {
    bool changed = false;  // false: no-op (withdrawal of an absent entry)
    EntryKey key;
    std::uint64_t sequence = 0;
    Asn old_victim = 0;  // 0 = slot was empty before
    AsPath old_path;
    Asn new_victim = 0;  // 0 = slot is empty now (withdrawal)
    AsPath new_path;
  };

  // Seeds the table from a converged RIB snapshot; entries carry sequence 0.
  void SeedBaseline(const data::RibSnapshot& rib);

  // Applies one update, latest-wins. A re-announcement of an identical path
  // still counts as a change (the entry's sequence advances, which can flip
  // latest-wins conflict resolution for derived routes).
  Change Apply(const data::Update& update);

  // Live entries of `key`'s prefix originated by `key.origin`, in ascending
  // (sequence, monitor) order. Empty if no monitor holds such a route.
  std::vector<std::pair<Asn, AsPath>> PathsToward(const PrefixKey& key) const;

  // Observed prefixes with at least one live entry, ascending.
  std::vector<PrefixKey> Prefixes() const;

  // The full current table as a RIB snapshot (drops sequence stamps).
  data::RibSnapshot ToRib() const;

  std::size_t NumEntries() const { return entries_.size(); }

 private:
  struct Entry {
    AsPath path;
    std::uint64_t sequence = 0;
    Asn victim = 0;
  };

  void Insert(const EntryKey& key, AsPath path, std::uint64_t sequence);

  std::map<EntryKey, Entry> entries_;
  // Observed prefix → live (sequence, monitor) keys, the canonical order.
  std::map<PrefixKey, std::set<std::pair<std::uint64_t, Asn>>> buckets_;
};

// Latest-wins replay of a whole update stream over a RIB snapshot (the batch
// analogue of feeding every event through StreamState::Apply): announcements
// overwrite the (monitor, prefix) slot, withdrawals erase it.
void ApplyUpdates(data::RibSnapshot& rib,
                  const std::vector<data::Update>& updates);

// The batch side of the same observation key. Every (origin, prefix) that
// some monitor of `rib` holds a route for, ascending.
std::set<PrefixKey> ObservedPrefixes(const data::RibSnapshot& rib);
// The monitors' routes to `key.prefix` that originate at `key.origin`, in
// ascending monitor order: what AsppDetector::Scan takes for that prefix.
std::vector<std::pair<Asn, AsPath>> PathsToward(const data::RibSnapshot& rib,
                                                const PrefixKey& key);

// The victim-aware rule's policies for `victim` under one declared
// announced padding `lambda` (paper Fig. 4: the victim checks the padding
// observed against what it announced): `lambda` for each of its prefixes in
// `before` that the declaration describes. A victim that pads every prefix
// alike in `before` is described everywhere, and padding observed below
// `lambda` is the rule's evidence. One that pads its prefixes differently is
// described only where a prefix's padding — the longest run of the victim's
// ASN after a first-hop neighbor on any path toward it, since stripping only
// ever shortens a run — equals `lambda`. The others, with their padding, go
// to `*undescribed`: the rule skips them instead of accusing them. A prefix
// absent from `before` gets no policy either.
std::map<PrefixKey, bgp::PrependPolicy> DeclaredVictimPolicies(
    const data::RibSnapshot& before, Asn victim, int lambda,
    std::map<PrefixKey, int>* undescribed);

}  // namespace asppi::stream
