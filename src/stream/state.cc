#include "stream/state.h"

#include <algorithm>

#include "util/metrics.h"

namespace asppi::stream {

namespace {

struct StateMetrics {
  util::Counter announcements{"stream.state.announcements"};
  util::Counter withdrawals{"stream.state.withdrawals"};
  util::Counter noop_withdrawals{"stream.state.noop_withdrawals"};
};

StateMetrics& Instr() {
  static StateMetrics* m = new StateMetrics();
  return *m;
}

}  // namespace

void StreamState::SeedBaseline(const data::RibSnapshot& rib) {
  for (const auto& [monitor, table] : rib.tables) {
    for (const auto& [prefix, path] : table) {
      if (path.Empty()) continue;
      Insert({monitor, prefix}, path, 0);
    }
  }
}

void StreamState::Insert(const EntryKey& key, AsPath path,
                         std::uint64_t sequence) {
  Entry entry;
  entry.victim = path.OriginAs();
  entry.path = std::move(path);
  entry.sequence = sequence;
  buckets_[{entry.victim, key.prefix}].insert({sequence, key.monitor});
  entries_.insert_or_assign(key, std::move(entry));
}

StreamState::Change StreamState::Apply(const data::Update& update) {
  Change change;
  change.key = {update.monitor, update.prefix};
  change.sequence = update.sequence;

  auto it = entries_.find(change.key);
  if (it != entries_.end()) {
    change.old_victim = it->second.victim;
    change.old_path = it->second.path;
    auto bucket = buckets_.find({it->second.victim, change.key.prefix});
    bucket->second.erase({it->second.sequence, change.key.monitor});
    if (bucket->second.empty()) buckets_.erase(bucket);
  }

  if (update.withdraw) {
    if (it == entries_.end()) {
      Instr().noop_withdrawals.Add();
      return change;  // withdrawing nothing: no-op
    }
    Instr().withdrawals.Add();
    entries_.erase(it);
    change.changed = true;
    return change;
  }

  Instr().announcements.Add();
  change.changed = true;
  change.new_victim = update.path.OriginAs();
  change.new_path = update.path;
  Insert(change.key, update.path, update.sequence);
  return change;
}

std::vector<std::pair<Asn, AsPath>> StreamState::PathsToward(
    const PrefixKey& key) const {
  std::vector<std::pair<Asn, AsPath>> out;
  auto bucket = buckets_.find(key);
  if (bucket == buckets_.end()) return out;
  out.reserve(bucket->second.size());
  for (const auto& [sequence, monitor] : bucket->second) {
    out.emplace_back(monitor, entries_.at({monitor, key.prefix}).path);
  }
  return out;
}

std::vector<PrefixKey> StreamState::Prefixes() const {
  std::vector<PrefixKey> out;
  out.reserve(buckets_.size());
  for (const auto& [key, bucket] : buckets_) out.push_back(key);
  return out;
}

data::RibSnapshot StreamState::ToRib() const {
  data::RibSnapshot rib;
  for (const auto& [key, entry] : entries_) {
    rib.tables[key.monitor][key.prefix] = entry.path;
  }
  return rib;
}

std::set<PrefixKey> ObservedPrefixes(const data::RibSnapshot& rib) {
  std::set<PrefixKey> out;
  for (const auto& [monitor, table] : rib.tables) {
    for (const auto& [prefix, path] : table) {
      if (!path.Empty()) out.insert({path.OriginAs(), prefix});
    }
  }
  return out;
}

std::vector<std::pair<Asn, AsPath>> PathsToward(const data::RibSnapshot& rib,
                                                const PrefixKey& key) {
  std::vector<std::pair<Asn, AsPath>> out;
  for (const auto& [monitor, table] : rib.tables) {
    auto it = table.find(key.prefix);
    if (it != table.end() && !it->second.Empty() &&
        it->second.OriginAs() == key.origin) {
      out.emplace_back(monitor, it->second);
    }
  }
  return out;
}

std::map<PrefixKey, bgp::PrependPolicy> DeclaredVictimPolicies(
    const data::RibSnapshot& before, Asn victim, int lambda,
    std::map<PrefixKey, int>* undescribed) {
  std::map<PrefixKey, int> padding;  // 0: no path shows a first-hop neighbor
  for (const PrefixKey& key : ObservedPrefixes(before)) {
    if (key.origin != victim) continue;
    int& longest = padding[key];
    for (const auto& [monitor, path] : PathsToward(before, key)) {
      const std::span<const Asn> hops = path.Hops();
      const auto first_hop =
          std::find_if(hops.rbegin(), hops.rend(),
                       [victim](Asn hop) { return hop != victim; });
      if (first_hop == hops.rend()) continue;
      longest = std::max(longest,
                         static_cast<int>(first_hop - hops.rbegin()));
    }
  }
  std::set<int> paddings;
  for (const auto& [key, pads] : padding) {
    if (pads > 0) paddings.insert(pads);
  }
  std::map<PrefixKey, bgp::PrependPolicy> policies;
  for (const auto& [key, pads] : padding) {
    if (paddings.size() > 1 && pads > 0 && pads != lambda) {
      (*undescribed)[key] = pads;
      continue;
    }
    policies[key].SetDefault(victim, lambda);
  }
  return policies;
}

void ApplyUpdates(data::RibSnapshot& rib,
                  const std::vector<data::Update>& updates) {
  for (const data::Update& update : updates) {
    if (update.withdraw) {
      auto table = rib.tables.find(update.monitor);
      if (table == rib.tables.end()) continue;
      table->second.erase(update.prefix);
    } else {
      rib.tables[update.monitor][update.prefix] = update.path;
    }
  }
}

}  // namespace asppi::stream
