#include "stream/incremental.h"

#include <algorithm>
#include <tuple>

#include "util/metrics.h"

namespace asppi::stream {

namespace {

struct IncrementalMetrics {
  util::Counter events{"stream.events"};
  util::Counter alarms{"stream.alarms"};
  util::Counter retracted{"stream.alarms_retracted"};
  util::Counter reevals{"stream.reevaluations"};
  util::Counter index_inserts{"stream.index.segments_inserted"};
  util::Counter index_erases{"stream.index.segments_erased"};
  util::Counter index_lookups{"stream.index.lookups"};
};

IncrementalMetrics& Instr() {
  static IncrementalMetrics* m = new IncrementalMetrics();
  return *m;
}

}  // namespace

bool StampedAlarmLess(const StampedAlarm& a, const StampedAlarm& b) {
  if (a.sequence != b.sequence) return a.sequence < b.sequence;
  if (a.victim != b.victim) return a.victim < b.victim;
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  return detect::AlarmLess(a.alarm, b.alarm);
}

IncrementalDetector::IncrementalDetector() : IncrementalDetector(Options()) {}

IncrementalDetector::IncrementalDetector(const Options& options)
    : options_(options) {}

const bgp::PrependPolicy* IncrementalDetector::VictimPolicy(
    const PrefixKey& target) const {
  if (options_.victim_policies == nullptr ||
      !options_.detector.enable_victim_policy) {
    return nullptr;
  }
  const auto it = options_.victim_policies->find(target);
  return it == options_.victim_policies->end() ? nullptr : &it->second;
}

void IncrementalDetector::SeedBaseline(const data::RibSnapshot& rib) {
  state_.SeedBaseline(rib);
  // Contributions carry sequence 0; iteration over the RIB maps is already
  // the canonical ascending (sequence=0, monitor) order.
  for (const auto& [monitor, table] : rib.tables) {
    for (const auto& [prefix, path] : table) {
      if (path.Empty()) continue;
      const PrefixKey target{path.OriginAs(), prefix};
      PrefixState& ps = prefixes_[target];
      baseline_paths_[target].emplace_back(monitor, path);
      StreamState::EntryKey key{monitor, prefix};
      for (auto& [owner, route] : detect::ExpandObservedPath(monitor, path)) {
        Contribution contribution;
        contribution.sequence = 0;
        contribution.key = key;
        contribution.route = std::move(route);
        ps.contribs[owner].insert_or_assign(key, std::move(contribution));
      }
    }
  }
  for (auto& [target, ps] : prefixes_) {
    const Asn victim = target.origin;
    std::vector<Asn> owners;
    owners.reserve(ps.contribs.size());
    for (const auto& [owner, contributions] : ps.contribs) {
      owners.push_back(owner);
    }
    for (Asn owner : owners) ResolveEffective(ps, victim, owner);
    ps.baseline = ps.stripped;  // the fixed pre-stream view
    if (const bgp::PrependPolicy* policy = VictimPolicy(target)) {
      // Pre-existing policy violations belong to the initial alarm set (the
      // batch detector would report them on Scan(baseline, baseline)); they
      // are not stamped as stream alarms.
      for (const auto& [owner, stripped] : ps.stripped) {
        if (auto alarm =
                detect::VictimAwareAlarm(victim, owner, stripped, *policy)) {
          ps.victim_alarms.insert_or_assign(owner, std::move(*alarm));
        }
      }
      ps.alarm_set = BuildAlarmSet(ps);
    }
  }
}

std::vector<StampedAlarm> IncrementalDetector::Apply(
    const data::Update& update) {
  std::vector<StampedAlarm> out;
  Instr().events.Add();
  StreamState::Change change = state_.Apply(update);
  if (!change.changed) return out;
  if (change.old_victim != 0 && change.old_victim != change.new_victim) {
    ApplyToPrefix({change.old_victim, change.key.prefix}, change.key,
                  change.sequence, &change.old_path, nullptr, out);
  }
  if (change.new_victim != 0) {
    const AsPath* old_path =
        change.old_victim == change.new_victim ? &change.old_path : nullptr;
    ApplyToPrefix({change.new_victim, change.key.prefix}, change.key,
                  change.sequence, old_path, &change.new_path, out);
  }
  return out;
}

void IncrementalDetector::ApplyToPrefix(const PrefixKey& target,
                                        const StreamState::EntryKey& key,
                                        std::uint64_t sequence,
                                        const AsPath* old_path,
                                        const AsPath* new_path,
                                        std::vector<StampedAlarm>& out) {
  const Asn victim = target.origin;
  PrefixState& ps = prefixes_[target];
  std::set<Asn> dirty;
  if (old_path != nullptr) {
    for (auto& [owner, route] : detect::ExpandObservedPath(key.monitor,
                                                           *old_path)) {
      auto it = ps.contribs.find(owner);
      if (it != ps.contribs.end() && it->second.erase(key) > 0) {
        if (it->second.empty()) ps.contribs.erase(it);
        dirty.insert(owner);
      }
    }
  }
  if (new_path != nullptr) {
    for (auto& [owner, route] : detect::ExpandObservedPath(key.monitor,
                                                           *new_path)) {
      Contribution contribution;
      contribution.sequence = sequence;
      contribution.key = key;
      contribution.route = std::move(route);
      ps.contribs[owner].insert_or_assign(key, std::move(contribution));
      dirty.insert(owner);
    }
  }

  bool view_changed = false;
  for (Asn owner : dirty) {
    if (!ResolveEffective(ps, victim, owner)) continue;
    view_changed = true;
    auto now = ps.stripped.find(owner);
    auto before = ps.baseline.find(owner);
    const bool triggered = now != ps.stripped.end() &&
                           before != ps.baseline.end() &&
                           now->second.lambda < before->second.lambda;
    if (triggered) {
      ps.triggered.insert(owner);
    } else {
      ps.triggered.erase(owner);
      ps.rule_alarms.erase(owner);
    }
    if (const bgp::PrependPolicy* policy = VictimPolicy(target)) {
      std::optional<detect::Alarm> alarm;
      if (now != ps.stripped.end()) {
        alarm = detect::VictimAwareAlarm(victim, owner, now->second, *policy);
      }
      if (alarm) {
        ps.victim_alarms.insert_or_assign(owner, std::move(*alarm));
      } else {
        ps.victim_alarms.erase(owner);
      }
    }
  }
  if (!view_changed) return;

  // Any route change can create or destroy a witness (or hint evidence) for
  // any triggered observer of this prefix, so all of them re-evaluate. The
  // triggered set is empty in the attack-free steady state.
  for (Asn observer : ps.triggered) EvaluateObserver(victim, ps, observer);
  RefreshAlarms(target, ps, sequence, out);
}

bool IncrementalDetector::ResolveEffective(PrefixState& ps, Asn victim,
                                           Asn owner) {
  const Contribution* best = nullptr;
  auto cit = ps.contribs.find(owner);
  if (cit != ps.contribs.end()) {
    for (const auto& [key, contribution] : cit->second) {
      if (best == nullptr ||
          std::tie(contribution.sequence, contribution.key) >
              std::tie(best->sequence, best->key)) {
        best = &contribution;
      }
    }
  }
  auto eit = ps.effective.find(owner);
  if (best == nullptr) {
    if (eit == ps.effective.end()) return false;
    if (eit->second.strippable) {
      IndexErase(ps, owner, ps.stripped.at(owner));
      ps.stripped.erase(owner);
    }
    ps.effective.erase(eit);
    return true;
  }
  if (eit != ps.effective.end() && eit->second.route == best->route) {
    // Same route under a new resolution winner: nothing observable changed.
    eit->second.sequence = best->sequence;
    eit->second.key = best->key;
    return false;
  }
  if (eit != ps.effective.end() && eit->second.strippable) {
    IndexErase(ps, owner, ps.stripped.at(owner));
    ps.stripped.erase(owner);
  }
  PrefixState::Effective effective;
  effective.sequence = best->sequence;
  effective.key = best->key;
  effective.route = best->route;
  auto stripped = detect::StripVictimPadding(best->route, victim);
  effective.strippable = stripped.has_value();
  ps.effective.insert_or_assign(owner, std::move(effective));
  if (stripped) {
    IndexInsert(ps, owner, *stripped);
    ps.stripped.insert_or_assign(owner, std::move(*stripped));
  }
  return true;
}

void IncrementalDetector::IndexInsert(PrefixState& ps, Asn owner,
                                      const detect::StrippedRoute& stripped) {
  for (std::size_t i = 0; i < stripped.core.size(); ++i) {
    std::vector<Asn> suffix(stripped.core.begin() + static_cast<long>(i),
                            stripped.core.end());
    ps.segment_index[std::move(suffix)].insert_or_assign(owner,
                                                         stripped.lambda);
  }
  Instr().index_inserts.Add(stripped.core.size());
}

void IncrementalDetector::IndexErase(PrefixState& ps, Asn owner,
                                     const detect::StrippedRoute& stripped) {
  for (std::size_t i = 0; i < stripped.core.size(); ++i) {
    std::vector<Asn> suffix(stripped.core.begin() + static_cast<long>(i),
                            stripped.core.end());
    auto it = ps.segment_index.find(suffix);
    if (it == ps.segment_index.end()) continue;
    it->second.erase(owner);
    if (it->second.empty()) ps.segment_index.erase(it);
  }
  Instr().index_erases.Add(stripped.core.size());
}

void IncrementalDetector::EvaluateObserver(Asn victim, PrefixState& ps,
                                           Asn observer) {
  const detect::StrippedRoute& now = ps.stripped.at(observer);
  std::optional<detect::Alarm> alarm;
  // The segment rules need >= 2 core hops (per-neighbor padding differences
  // toward distinct first hops are legitimate traffic engineering).
  if (now.core.size() >= 2) {
    Instr().reevals.Add();
    const std::vector<Asn> segment(now.core.begin() + 1, now.core.end());
    Instr().index_lookups.Add();
    auto it = ps.segment_index.find(segment);
    if (it != ps.segment_index.end()) {
      // Ascending owner order reproduces the batch rule's linear-scan
      // witness choice (first qualifying observer by ASN).
      for (const auto& [witness, witness_lambda] : it->second) {
        if (witness == observer) continue;
        if (witness_lambda > now.lambda) {
          alarm = detect::MakeHighConfidenceAlarm(now.core.front(), observer,
                                                  now.lambda, witness,
                                                  witness_lambda);
          break;
        }
      }
    }
    if (!alarm && options_.graph != nullptr && options_.detector.enable_hints) {
      alarm = detect::HintAlarm(*options_.graph, victim, observer, now,
                                ps.stripped);
    }
  }
  if (alarm) {
    ps.rule_alarms.insert_or_assign(observer, std::move(*alarm));
  } else {
    ps.rule_alarms.erase(observer);
  }
}

std::vector<detect::Alarm> IncrementalDetector::BuildAlarmSet(
    const PrefixState& ps) const {
  std::vector<detect::Alarm> set;
  std::set<std::tuple<int, Asn, Asn>> seen;
  auto add_unique = [&](const detect::Alarm& alarm) {
    auto key = std::make_tuple(static_cast<int>(alarm.confidence),
                               alarm.suspect, alarm.observer);
    if (seen.insert(key).second) set.push_back(alarm);
  };
  // Same dedup and insertion order as the batch Scan: rule alarms by
  // ascending observer, then victim-aware alarms by ascending observer.
  for (const auto& [observer, alarm] : ps.rule_alarms) add_unique(alarm);
  for (const auto& [observer, alarm] : ps.victim_alarms) add_unique(alarm);
  std::sort(set.begin(), set.end(), detect::AlarmLess);
  return set;
}

void IncrementalDetector::RefreshAlarms(const PrefixKey& target,
                                        PrefixState& ps,
                                        std::uint64_t sequence,
                                        std::vector<StampedAlarm>& out) {
  std::vector<detect::Alarm> next = BuildAlarmSet(ps);
  std::vector<detect::Alarm> fresh;
  std::set_difference(next.begin(), next.end(), ps.alarm_set.begin(),
                      ps.alarm_set.end(), std::back_inserter(fresh),
                      detect::AlarmLess);
  const std::size_t retracted =
      ps.alarm_set.size() - (next.size() - fresh.size());
  Instr().alarms.Add(fresh.size());
  Instr().retracted.Add(retracted);
  for (detect::Alarm& alarm : fresh) {
    StampedAlarm stamped;
    stamped.sequence = sequence;
    stamped.victim = target.origin;
    stamped.prefix = target.prefix;
    stamped.alarm = std::move(alarm);
    out.push_back(std::move(stamped));
  }
  ps.alarm_set = std::move(next);
}

std::vector<detect::Alarm> IncrementalDetector::CurrentAlarms(
    const PrefixKey& key) const {
  auto it = prefixes_.find(key);
  return it == prefixes_.end() ? std::vector<detect::Alarm>{}
                               : it->second.alarm_set;
}

std::vector<std::pair<Asn, AsPath>> IncrementalDetector::CurrentPaths(
    const PrefixKey& key) const {
  return state_.PathsToward(key);
}

std::vector<std::pair<Asn, AsPath>> IncrementalDetector::BaselinePaths(
    const PrefixKey& key) const {
  auto it = baseline_paths_.find(key);
  return it == baseline_paths_.end() ? std::vector<std::pair<Asn, AsPath>>{}
                                     : it->second;
}

}  // namespace asppi::stream
