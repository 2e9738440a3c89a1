// Online ASPP-interception detection over a sequenced update stream.
//
// The batch `detect::AsppDetector` rebuilds and re-strips full RouteSnapshots
// per Scan. IncrementalDetector maintains the same observation state
// incrementally, once per observed prefix (stream::PrefixKey: origin AS and
// prefix): suffix-expansion contributions (which monitor entry implies which
// derived route, resolved latest-wins), a segment index (every suffix of
// every stripped core → the owners holding it and their padding counts)
// answering the Fig.-4 witness query in one lookup, and the set of currently
// *triggered* observers (padding below baseline). One applied update touches
// only the affected prefix's state: the derived routes of the changed entry,
// the index rows of their core suffixes, and a re-evaluation of that
// prefix's triggered observers.
//
// Equivalence contract (the keystone, asserted by tests/stream_test.cc): at
// any point of the replay, `CurrentAlarms(k)` equals — as a set — the batch
// detector's `Scan(k.origin, BaselinePaths(k), CurrentPaths(k))` under
// `ConflictPolicy::kLatestObserved`. `Apply` reports the alarms newly raised
// by each event, stamped with its sequence number and prefix.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "detect/detector.h"
#include "detect/rules.h"
#include "stream/state.h"

namespace asppi::stream {

// An alarm raised by the online detector at a specific stream position.
struct StampedAlarm {
  std::uint64_t sequence = 0;
  Asn victim = 0;
  data::Prefix prefix;  // the victim's prefix the alarm is about
  detect::Alarm alarm;

  bool operator==(const StampedAlarm&) const = default;
};

// Total order for deterministic merges: (sequence, victim, prefix, alarm).
bool StampedAlarmLess(const StampedAlarm& a, const StampedAlarm& b);

class IncrementalDetector {
 public:
  struct Options {
    // Relationship graph for the hint rules (nullptr disables them).
    const topo::AsGraph* graph = nullptr;
    // Prefix owners' own prepend policies, per observed prefix, for the
    // victim-aware rule: `PadsFor(victim, neighbor)` of a prefix's entry is
    // what the victim announced for it. A prefix without an entry gets no
    // victim-aware rule (nullptr: none does), since an origin may pad its
    // prefixes differently (stream::DeclaredVictimPolicies).
    const std::map<PrefixKey, bgp::PrependPolicy>* victim_policies = nullptr;
    detect::DetectorOptions detector;
  };

  IncrementalDetector();
  explicit IncrementalDetector(const Options& options);

  // Seeds the pre-stream observation set (sequence 0): the fixed baseline
  // the trigger rule compares against, which is also the initial current
  // state. Call once, before the first Apply.
  void SeedBaseline(const data::RibSnapshot& rib);

  // Applies one update and returns the alarms it newly raised (alarms that
  // ceased to hold are dropped from the current set silently; the
  // `stream.alarms_retracted` counter accounts for them).
  std::vector<StampedAlarm> Apply(const data::Update& update);

  // The current alarm set for one observed prefix, sorted by
  // detect::AlarmLess.
  std::vector<detect::Alarm> CurrentAlarms(const PrefixKey& key) const;

  // Live monitor-path entries of one observed prefix in ascending
  // (sequence, monitor) order — the canonical order for a batch
  // kLatestObserved reconstruction. BaselinePaths is the seeded equivalent.
  std::vector<std::pair<Asn, AsPath>> CurrentPaths(const PrefixKey& key) const;
  std::vector<std::pair<Asn, AsPath>> BaselinePaths(const PrefixKey& key) const;

  const StreamState& State() const { return state_; }

 private:
  // The victim's policy for `target` if the victim-aware rule runs on it,
  // else nullptr.
  const bgp::PrependPolicy* VictimPolicy(const PrefixKey& target) const;

  struct Contribution {
    std::uint64_t sequence = 0;
    StreamState::EntryKey key;
    AsPath route;
  };

  // Everything the rules need about one observed prefix.
  struct PrefixState {
    // Derived-route contributions per owner AS, keyed by the table entry
    // they came from. The effective route is the latest-wins maximum by
    // (sequence, monitor, prefix).
    std::map<Asn, std::map<StreamState::EntryKey, Contribution>> contribs;
    // Effective route per owner (resolution winner), plus its stripped form
    // when it ends at the victim.
    struct Effective {
      std::uint64_t sequence = 0;
      StreamState::EntryKey key;
      AsPath route;
      bool strippable = false;
    };
    std::map<Asn, Effective> effective;
    // Strippable effective routes — the view the shared rules run over.
    detect::StrippedView stripped;
    // Suffix → owner → padding count: every suffix of every stripped core.
    // Answers "smallest-ASN owner whose core ends with `segment` and whose
    // padding exceeds λ" — the Fig.-4 witness — in one lookup.
    std::map<std::vector<Asn>, std::map<Asn, int>> segment_index;
    // The fixed pre-stream view (trigger comparisons).
    detect::StrippedView baseline;
    // Observers whose current padding is below their baseline padding.
    std::set<Asn> triggered;
    // Per-observer rule results: the Fig.-4/hint alarm and the victim-aware
    // alarm. The current alarm set is assembled from these with the batch
    // detector's dedup semantics.
    std::map<Asn, detect::Alarm> rule_alarms;
    std::map<Asn, detect::Alarm> victim_alarms;
    // Current alarm set, sorted by detect::AlarmLess.
    std::vector<detect::Alarm> alarm_set;
  };

  // Applies the (removal, addition) of one table entry, whose path
  // originates at `target.origin`, to that prefix's state. Emits
  // newly-raised alarms into `out`.
  void ApplyToPrefix(const PrefixKey& target, const StreamState::EntryKey& key,
                     std::uint64_t sequence, const AsPath* old_path,
                     const AsPath* new_path, std::vector<StampedAlarm>& out);

  // Recomputes the effective route of `owner`; returns true if it changed.
  bool ResolveEffective(PrefixState& ps, Asn victim, Asn owner);

  void IndexInsert(PrefixState& ps, Asn owner,
                   const detect::StrippedRoute& stripped);
  void IndexErase(PrefixState& ps, Asn owner,
                  const detect::StrippedRoute& stripped);

  // Re-runs the Fig.-4 rules for one triggered observer.
  void EvaluateObserver(Asn victim, PrefixState& ps, Asn observer);

  // Assembles the deduped, AlarmLess-sorted alarm set from the per-observer
  // rule results, mirroring the batch Scan's insertion order.
  std::vector<detect::Alarm> BuildAlarmSet(const PrefixState& ps) const;

  // Rebuilds the alarm set, diffs against the previous one, emits new
  // alarms stamped with `sequence`.
  void RefreshAlarms(const PrefixKey& target, PrefixState& ps,
                     std::uint64_t sequence, std::vector<StampedAlarm>& out);

  Options options_;
  StreamState state_;
  std::map<PrefixKey, PrefixState> prefixes_;
  // Baseline entries per observed prefix in canonical order (all sequence 0).
  std::map<PrefixKey, std::vector<std::pair<Asn, AsPath>>> baseline_paths_;
};

}  // namespace asppi::stream
