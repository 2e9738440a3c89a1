// Tests for src/stream/: the online update-stream detection pipeline.
//
// The keystone is the equivalence contract: at any point of a replay, the
// incremental detector's current alarm set equals the batch detector run on
// the snapshot implied by the events applied so far (under
// ConflictPolicy::kLatestObserved), and the sharded Pipeline's emission
// stream is bit-identical for any thread count, shard count, and window size.
#include "stream/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "data/formats.h"
#include "data/measurement.h"
#include "detect/detector.h"
#include "detect/monitors.h"
#include "stream/incremental.h"
#include "stream/state.h"
#include "stream/update_source.h"
#include "topology/generator.h"
#include "util/thread_pool.h"

namespace asppi::stream {
namespace {

using bgp::AsPath;
using topo::Asn;

AsPath P(std::initializer_list<Asn> hops) {
  return AsPath(std::vector<Asn>(hops));
}

// Independent latest-wins shadow of the monitor tables: reconstructs the
// snapshot implied by the events applied so far, without going through any
// stream:: code under test.
struct Shadow {
  std::map<StreamState::EntryKey, std::pair<std::uint64_t, AsPath>> entries;

  void Seed(const data::RibSnapshot& rib) {
    for (const auto& [monitor, table] : rib.tables) {
      for (const auto& [prefix, path] : table) {
        if (!path.Empty()) entries[{monitor, prefix}] = {0, path};
      }
    }
  }
  void Apply(const data::Update& update) {
    if (update.withdraw) {
      entries.erase({update.monitor, update.prefix});
    } else {
      entries[{update.monitor, update.prefix}] = {update.sequence,
                                                  update.path};
    }
  }
  // Entries of one observed prefix in the canonical (sequence, monitor)
  // order the equivalence contract is stated in.
  std::vector<std::pair<Asn, AsPath>> PathsToward(const PrefixKey& key) const {
    std::vector<std::pair<std::uint64_t, Asn>> keys;
    for (const auto& [slot, entry] : entries) {
      if (slot.prefix == key.prefix && entry.second.OriginAs() == key.origin) {
        keys.emplace_back(entry.first, slot.monitor);
      }
    }
    std::sort(keys.begin(), keys.end());
    std::vector<std::pair<Asn, AsPath>> out;
    for (const auto& [sequence, monitor] : keys) {
      out.emplace_back(monitor, entries.at({monitor, key.prefix}).second);
    }
    return out;
  }
};

std::vector<detect::Alarm> BatchAlarms(detect::AsppDetector& batch,
                                       const PrefixKey& key,
                                       const Shadow& baseline,
                                       const Shadow& current,
                                       const bgp::PrependPolicy* policy) {
  std::vector<detect::Alarm> alarms =
      batch.Scan(key.origin, baseline.PathsToward(key),
                 current.PathsToward(key), policy);
  std::sort(alarms.begin(), alarms.end(), detect::AlarmLess);
  return alarms;
}

// A generated corpus with interception attacks, an origin move, and
// withdrawals injected after the benign churn.
struct Corpus {
  topo::GeneratedTopology gen;
  std::vector<Asn> monitors;
  data::RibSnapshot rib;
  std::vector<data::Update> updates;
  std::set<PrefixKey> prefixes;  // every (origin, prefix) ever observed
  std::size_t num_attacks = 0;
};

Corpus MakeCorpus(std::uint64_t seed, std::size_t attacks,
                  std::size_t withdrawals) {
  topo::GeneratorParams params;
  params.seed = seed;
  params.num_tier2 = 30;
  params.num_tier3 = 80;
  params.num_stubs = 250;
  params.num_content = 5;
  Corpus corpus;
  corpus.gen = topo::GenerateInternetTopology(params);
  corpus.monitors = detect::TopDegreeMonitors(corpus.gen.graph, 8);
  data::MeasurementParams mp;
  mp.num_prefixes = 40;
  mp.num_churn_events = 60;
  mp.seed = seed + 1;
  data::MeasurementGenerator generator(corpus.gen.graph, mp);
  corpus.rib = generator.GenerateRib(corpus.monitors);
  corpus.updates = generator.GenerateUpdates(corpus.monitors);
  std::uint64_t seq =
      corpus.updates.empty() ? 1 : corpus.updates.back().sequence + 1;

  data::RibSnapshot final_table = corpus.rib;
  ApplyUpdates(final_table, corpus.updates);

  // Interception injections: re-announce currently-held padded routes with
  // the origin's run collapsed — exactly the attacker's modification.
  std::vector<std::pair<Asn, data::Prefix>> attacked;
  for (const auto& [monitor, table] : final_table.tables) {
    for (const auto& [prefix, path] : table) {
      if (attacked.size() >= attacks) break;
      if (path.OriginPadding() >= 2 && path.UniqueCount() >= 3) {
        data::Update attack;
        attack.sequence = seq++;
        attack.monitor = monitor;
        attack.prefix = prefix;
        attack.path = path;
        attack.path.CollapseRunsOf(path.OriginAs());
        corpus.updates.push_back(std::move(attack));
        attacked.emplace_back(monitor, prefix);
      }
    }
    if (attacked.size() >= attacks) break;
  }
  corpus.num_attacks = attacked.size();

  // One origin move: a slot changes hands between two victims.
  const data::MonitorRib& first_table = final_table.tables.begin()->second;
  for (const auto& [prefix, path] : first_table) {
    const Asn first_origin = first_table.begin()->second.OriginAs();
    if (path.OriginAs() != first_origin) {
      data::Update move;
      move.sequence = seq++;
      move.monitor = final_table.tables.begin()->first;
      move.prefix = first_table.begin()->first;
      move.path = path;
      corpus.updates.push_back(std::move(move));
      break;
    }
  }

  // Withdrawals of attacked slots (the retraction path).
  for (std::size_t i = 0; i < withdrawals && i < attacked.size(); ++i) {
    data::Update wd;
    wd.sequence = seq++;
    wd.monitor = attacked[i].first;
    wd.prefix = attacked[i].second;
    wd.withdraw = true;
    corpus.updates.push_back(std::move(wd));
  }

  for (const auto& [monitor, table] : corpus.rib.tables) {
    for (const auto& [prefix, path] : table) {
      corpus.prefixes.insert({path.OriginAs(), prefix});
    }
  }
  for (const data::Update& update : corpus.updates) {
    if (!update.withdraw) {
      corpus.prefixes.insert({update.path.OriginAs(), update.prefix});
    }
  }
  return corpus;
}

// --- the equivalence contract (keystone) -------------------------------------

TEST(StreamEquivalence, MatchesBatchDetectorAtEveryStreamPrefix) {
  Corpus corpus = MakeCorpus(/*seed=*/11, /*attacks=*/10, /*withdrawals=*/3);
  ASSERT_GT(corpus.num_attacks, 0u);

  IncrementalDetector::Options options;
  options.graph = &corpus.gen.graph;
  IncrementalDetector inc(options);
  inc.SeedBaseline(corpus.rib);

  detect::DetectorOptions batch_options;
  batch_options.conflict_policy =
      detect::RouteSnapshot::ConflictPolicy::kLatestObserved;
  detect::AsppDetector batch(&corpus.gen.graph, batch_options);

  Shadow baseline;
  baseline.Seed(corpus.rib);
  Shadow current = baseline;

  std::size_t emitted_total = 0;
  std::size_t step = 0;
  UpdateSource source(corpus.updates);
  data::Update update;
  while (source.Next(update)) {
    // Only the observed prefixes of the touched slot can change.
    std::set<PrefixKey> affected;
    auto held = current.entries.find({update.monitor, update.prefix});
    if (held != current.entries.end()) {
      affected.insert({held->second.second.OriginAs(), update.prefix});
    }
    if (!update.withdraw) {
      affected.insert({update.path.OriginAs(), update.prefix});
    }

    const std::vector<StampedAlarm> emitted = inc.Apply(update);
    current.Apply(update);
    emitted_total += emitted.size();
    for (const StampedAlarm& stamped : emitted) {
      EXPECT_EQ(stamped.sequence, update.sequence);
      EXPECT_TRUE(affected.count({stamped.victim, stamped.prefix}))
          << "alarm for untouched prefix " << stamped.prefix.ToString()
          << " of victim " << stamped.victim;
    }
    for (const PrefixKey& key : affected) {
      ASSERT_EQ(inc.CurrentAlarms(key),
                BatchAlarms(batch, key, baseline, current, nullptr))
          << "victim " << key.origin << " " << key.prefix.ToString()
          << " after seq " << update.sequence;
      ASSERT_EQ(inc.CurrentPaths(key), current.PathsToward(key))
          << "victim " << key.origin << " " << key.prefix.ToString()
          << " after seq " << update.sequence;
    }
    if (++step % 37 == 0) {
      for (const PrefixKey& key : corpus.prefixes) {
        ASSERT_EQ(inc.CurrentAlarms(key),
                  BatchAlarms(batch, key, baseline, current, nullptr))
            << "victim " << key.origin << " " << key.prefix.ToString()
            << " at full check, seq " << update.sequence;
      }
    }
  }
  for (const PrefixKey& key : corpus.prefixes) {
    EXPECT_EQ(inc.CurrentAlarms(key),
              BatchAlarms(batch, key, baseline, current, nullptr))
        << "victim " << key.origin << " " << key.prefix.ToString()
        << " at end of stream";
    EXPECT_EQ(inc.BaselinePaths(key), baseline.PathsToward(key));
  }
  EXPECT_GT(emitted_total, 0u) << "injected attacks raised no alarms";
}

// --- Pipeline determinism ----------------------------------------------------

TEST(Pipeline, EmissionsBitIdenticalAcrossThreadsShardsAndWindows) {
  Corpus corpus = MakeCorpus(/*seed=*/23, /*attacks=*/8, /*withdrawals=*/2);
  ASSERT_GT(corpus.num_attacks, 0u);

  auto run = [&](std::size_t threads, std::size_t shards,
                 std::size_t capacity) {
    util::ThreadPool pool(threads);
    Pipeline::Options options;
    options.num_shards = shards;
    options.queue_capacity = capacity;
    options.detector.graph = &corpus.gen.graph;
    Pipeline pipeline(&pool, options);
    pipeline.SeedBaseline(corpus.rib);
    UpdateSource source(corpus.updates);
    data::Update update;
    while (source.Next(update)) pipeline.Push(update);
    return pipeline.Finish();
  };

  const std::vector<StampedAlarm> reference = run(1, 1, 1024);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(run(4, 0, 1024), reference);  // shards = pool concurrency
  EXPECT_EQ(run(8, 0, 3), reference);     // tiny windows
  EXPECT_EQ(run(4, 5, 64), reference);    // shard count independent of pool

  // The pipeline's merged emissions equal the unsharded serial detector's.
  IncrementalDetector::Options options;
  options.graph = &corpus.gen.graph;
  IncrementalDetector inc(options);
  inc.SeedBaseline(corpus.rib);
  std::vector<StampedAlarm> serial;
  UpdateSource source(corpus.updates);
  data::Update update;
  while (source.Next(update)) {
    const std::vector<StampedAlarm> emitted = inc.Apply(update);
    serial.insert(serial.end(), emitted.begin(), emitted.end());
  }
  std::sort(serial.begin(), serial.end(), StampedAlarmLess);
  EXPECT_EQ(reference, serial);
}

// --- hand-built attack -------------------------------------------------------

TEST(IncrementalDetector, HandBuiltInterceptionStampedThenRetracted) {
  // Victim 5 pads λ=3; monitors 1 and 2 observe branches sharing the chain
  // behind AS3 (the Fig.-4 witness setup).
  const data::Prefix prefix = *data::Prefix::Parse("10.0.0.0/16");
  data::RibSnapshot rib;
  rib.tables[1][prefix] = P({2, 3, 4, 5, 5, 5});
  rib.tables[2][prefix] = P({9, 3, 4, 5, 5, 5});

  bgp::PrependPolicy policy;
  policy.SetDefault(5, 3);
  const std::map<PrefixKey, bgp::PrependPolicy> policies{{{5, prefix}, policy}};

  IncrementalDetector::Options options;
  options.victim_policies = &policies;
  IncrementalDetector inc(options);
  inc.SeedBaseline(rib);
  const PrefixKey target{5, prefix};
  EXPECT_TRUE(inc.CurrentAlarms(target).empty());

  // The attack: monitor 1's feed shows victim 5's padding stripped.
  data::Update attack;
  attack.sequence = 7;
  attack.monitor = 1;
  attack.prefix = prefix;
  attack.path = P({2, 3, 4, 5});
  const std::vector<StampedAlarm> emitted = inc.Apply(attack);
  ASSERT_FALSE(emitted.empty());
  // Observer 1's stripped core is [2 3 4]; AS9 still holds 3 pads along the
  // same chain, so the witness rule accuses AS2 of removing 3-1=2 copies.
  // (The victim-aware rule raises further alarms naming AS4, the victim's
  // neighbor on the stripped branch.)
  bool saw_witness_alarm = false;
  for (const StampedAlarm& stamped : emitted) {
    EXPECT_EQ(stamped.sequence, 7u);
    EXPECT_EQ(stamped.victim, 5u);
    EXPECT_EQ(stamped.prefix, prefix);
    if (stamped.alarm.confidence == detect::Alarm::Confidence::kHigh &&
        stamped.alarm.suspect == 2u && stamped.alarm.observer == 1u) {
      saw_witness_alarm = true;
      EXPECT_EQ(stamped.alarm.pads_removed, 2);
      EXPECT_NE(stamped.alarm.detail.find("chain behind AS2"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(saw_witness_alarm);

  // Batch agrees on the full current set (victim-aware alarms included).
  detect::DetectorOptions batch_options;
  batch_options.conflict_policy =
      detect::RouteSnapshot::ConflictPolicy::kLatestObserved;
  detect::AsppDetector batch(nullptr, batch_options);
  std::vector<detect::Alarm> expected = batch.Scan(
      5, inc.BaselinePaths(target), inc.CurrentPaths(target), &policy);
  std::sort(expected.begin(), expected.end(), detect::AlarmLess);
  EXPECT_EQ(inc.CurrentAlarms(target), expected);

  // Withdrawing the poisoned feed retracts every alarm; retractions are
  // silent (no emissions).
  data::Update withdraw;
  withdraw.sequence = 8;
  withdraw.monitor = 1;
  withdraw.prefix = prefix;
  withdraw.withdraw = true;
  EXPECT_TRUE(inc.Apply(withdraw).empty());
  EXPECT_TRUE(inc.CurrentAlarms(target).empty());
}

// --- the observation key: one origin, two prefixes ---------------------------

// The shape of AS789 in the generated corpus: one origin announces a λ=1
// prefix and a λ=5 one, and the λ=5 one later fails over to 9 pads. The
// paper compares routes to one prefix, so no side may read the light
// prefix's short route against the heavy prefix's padded one.
struct TwoPrefixOrigin {
  static constexpr Asn kOrigin = 789;
  const data::Prefix light = *data::Prefix::Parse("10.52.0.0/23");
  const data::Prefix heavy = *data::Prefix::Parse("10.178.0.0/23");
  data::RibSnapshot before;
  std::vector<data::Update> updates;
  data::RibSnapshot after;

  TwoPrefixOrigin() {
    before.tables[1][heavy] = P({2, 3, 789, 789, 789, 789, 789});
    before.tables[2][heavy] = P({9, 3, 789, 789, 789, 789, 789});
    // Monitor 1 learns the light prefix; monitor 2's heavy route fails over.
    updates.resize(2);
    updates[0].sequence = 1;
    updates[0].monitor = 1;
    updates[0].prefix = light;
    updates[0].path = P({2, 3, 789});
    updates[1].sequence = 2;
    updates[1].monitor = 2;
    updates[1].prefix = heavy;
    updates[1].path = P({9, 3, 789, 789, 789, 789, 789, 789, 789, 789, 789});
    after = before;
    ApplyUpdates(after, updates);
  }
};

TEST(ObservationKey, OneOriginTwoPrefixesRaisesNoAlarmInBatch) {
  const TwoPrefixOrigin o;
  const detect::AsppDetector batch(nullptr);
  const std::set<PrefixKey> keys = ObservedPrefixes(o.after);
  ASSERT_EQ(keys, (std::set<PrefixKey>{{789, o.light}, {789, o.heavy}}));
  std::vector<std::pair<Asn, AsPath>> merged_before;
  std::vector<std::pair<Asn, AsPath>> merged_after;
  for (const PrefixKey& key : keys) {
    const auto before = PathsToward(o.before, key);
    const auto after = PathsToward(o.after, key);
    EXPECT_TRUE(batch.Scan(key.origin, before, after).empty())
        << key.prefix.ToString();
    merged_before.insert(merged_before.end(), before.begin(), before.end());
    merged_after.insert(merged_after.end(), after.begin(), after.end());
  }
  // Keyed by origin alone, in (monitor, prefix) order, monitor 1's light
  // route reads as its heavy route stripped of 4 pads, and AS2 is accused.
  std::stable_sort(
      merged_after.begin(), merged_after.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::vector<detect::Alarm> merged =
      batch.Scan(TwoPrefixOrigin::kOrigin, merged_before, merged_after);
  EXPECT_NE(detect::FindAccusing(merged, 2), nullptr);
}

TEST(ObservationKey, OneOriginTwoPrefixesRaisesNoAlarmInStream) {
  const TwoPrefixOrigin o;
  IncrementalDetector inc;
  inc.SeedBaseline(o.before);
  for (const data::Update& update : o.updates) {
    EXPECT_TRUE(inc.Apply(update).empty()) << "seq " << update.sequence;
  }
  detect::DetectorOptions batch_options;
  batch_options.conflict_policy =
      detect::RouteSnapshot::ConflictPolicy::kLatestObserved;
  const detect::AsppDetector batch(nullptr, batch_options);
  for (const PrefixKey& key : ObservedPrefixes(o.after)) {
    EXPECT_TRUE(inc.CurrentAlarms(key).empty()) << key.prefix.ToString();
    EXPECT_TRUE(batch
                    .Scan(key.origin, inc.BaselinePaths(key),
                          inc.CurrentPaths(key))
                    .empty())
        << key.prefix.ToString();
  }
}

// --- the victim's announced padding, per prefix -----------------------------

// The shape of AS3360 in the measurement corpus: the victim pads one prefix
// once and another twice, and one declared λ=2 describes only the second.
// The victim-aware rule must skip the first instead of accusing every
// first-hop neighbor of stripping a pad that was never announced, and must
// still catch stripping on the second.
TEST(IncrementalDetector, VictimPolicySkipsAPrefixLambdaDoesNotDescribe) {
  constexpr Asn kVictim = 3360;
  const data::Prefix light = *data::Prefix::Parse("11.10.0.0/21");
  const data::Prefix heavy = *data::Prefix::Parse("10.11.0.0/18");
  data::RibSnapshot rib;
  rib.tables[1][light] = P({2, 3, 307, kVictim});
  rib.tables[2][light] = P({9, 3, 307, kVictim});
  rib.tables[1][heavy] = P({2, 3, 307, kVictim, kVictim});
  rib.tables[2][heavy] = P({9, 3, 307, kVictim, kVictim});

  std::map<PrefixKey, int> undescribed;
  const std::map<PrefixKey, bgp::PrependPolicy> policies =
      DeclaredVictimPolicies(rib, kVictim, 2, &undescribed);
  EXPECT_EQ(undescribed, (std::map<PrefixKey, int>{{{kVictim, light}, 1}}));
  ASSERT_EQ(policies.size(), 1u);
  EXPECT_EQ(policies.begin()->first, (PrefixKey{kVictim, heavy}));
  EXPECT_EQ(policies.begin()->second.PadsFor(kVictim, 307), 2);
  // Padded alike, a victim is described everywhere: padding below λ is then
  // the rule's evidence, not a reason to skip.
  data::RibSnapshot heavy_only;
  heavy_only.tables[1][heavy] = rib.tables[1][heavy];
  std::map<PrefixKey, int> none;
  EXPECT_EQ(DeclaredVictimPolicies(heavy_only, kVictim, 5, &none).size(), 1u);
  EXPECT_TRUE(none.empty());

  // One λ for every prefix accuses the lightly padded one.
  std::map<PrefixKey, bgp::PrependPolicy> uniform = policies;
  uniform[{kVictim, light}] = policies.begin()->second;
  IncrementalDetector::Options options;
  options.victim_policies = &uniform;
  IncrementalDetector accusing(options);
  accusing.SeedBaseline(rib);
  EXPECT_FALSE(accusing.CurrentAlarms({kVictim, light}).empty());

  options.victim_policies = &policies;
  IncrementalDetector inc(options);
  inc.SeedBaseline(rib);
  EXPECT_TRUE(inc.CurrentAlarms({kVictim, light}).empty());
  EXPECT_TRUE(inc.CurrentAlarms({kVictim, heavy}).empty());

  // Stripping the described prefix on monitor 1's branch is still caught.
  data::Update strip;
  strip.sequence = 1;
  strip.monitor = 1;
  strip.prefix = heavy;
  strip.path = P({2, 3, 307, kVictim});
  EXPECT_FALSE(inc.Apply(strip).empty());
  EXPECT_NE(detect::FindAccusing(inc.CurrentAlarms({kVictim, heavy}), 307),
            nullptr);
  EXPECT_TRUE(inc.CurrentAlarms({kVictim, light}).empty());
}

// --- StreamState -------------------------------------------------------------

TEST(StreamState, WithdrawHandling) {
  const data::Prefix prefix = *data::Prefix::Parse("10.0.0.0/16");
  data::RibSnapshot rib;
  rib.tables[1][prefix] = P({2, 5});
  StreamState state;
  state.SeedBaseline(rib);
  EXPECT_EQ(state.NumEntries(), 1u);

  // Withdrawing an absent slot is a no-op, not a change.
  data::Update noop;
  noop.sequence = 1;
  noop.monitor = 9;
  noop.prefix = prefix;
  noop.withdraw = true;
  EXPECT_FALSE(state.Apply(noop).changed);
  EXPECT_EQ(state.NumEntries(), 1u);

  data::Update withdraw;
  withdraw.sequence = 2;
  withdraw.monitor = 1;
  withdraw.prefix = prefix;
  withdraw.withdraw = true;
  const StreamState::Change change = state.Apply(withdraw);
  EXPECT_TRUE(change.changed);
  EXPECT_EQ(change.old_victim, 5u);
  EXPECT_EQ(change.new_victim, 0u);
  EXPECT_EQ(state.NumEntries(), 0u);
  EXPECT_TRUE(state.PathsToward({5, prefix}).empty());
  EXPECT_TRUE(state.Prefixes().empty());
}

TEST(StreamState, LatestWinsCanonicalOrder) {
  const data::Prefix p1 = *data::Prefix::Parse("10.0.0.0/16");
  const data::Prefix p2 = *data::Prefix::Parse("10.1.0.0/16");
  data::RibSnapshot rib;
  rib.tables[1][p1] = P({2, 5});
  rib.tables[3][p1] = P({4, 5});
  rib.tables[3][p2] = P({4, 5});
  StreamState state;
  state.SeedBaseline(rib);
  // AS5's two prefixes are observed apart.
  EXPECT_EQ(state.Prefixes(),
            (std::vector<PrefixKey>{{5, p1}, {5, p2}}));
  EXPECT_EQ(state.PathsToward({5, p2}).size(), 1u);
  // Baseline order: (0, monitor 1), (0, monitor 3).
  std::vector<std::pair<Asn, AsPath>> paths = state.PathsToward({5, p1});
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].first, 1u);
  EXPECT_EQ(paths[1].first, 3u);

  // Re-announcing monitor 1's slot moves it to the stream tail — even with
  // an identical path, its sequence advances.
  data::Update again;
  again.sequence = 5;
  again.monitor = 1;
  again.prefix = p1;
  again.path = P({2, 5});
  EXPECT_TRUE(state.Apply(again).changed);
  paths = state.PathsToward({5, p1});
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].first, 3u);
  EXPECT_EQ(paths[1].first, 1u);
}

// --- UpdateSource ------------------------------------------------------------

TEST(UpdateSource, CanonicalizesFileOrderAndRoundTrips) {
  std::vector<data::Update> updates(3);
  updates[0].sequence = 9;
  updates[0].monitor = 7018;
  updates[0].prefix = *data::Prefix::Parse("10.0.0.0/16");
  updates[0].path = P({1, 2});
  updates[1].sequence = 2;
  updates[1].monitor = 7018;
  updates[1].prefix = *data::Prefix::Parse("10.1.0.0/16");
  updates[1].withdraw = true;
  updates[2].sequence = 5;
  updates[2].monitor = 2914;
  updates[2].prefix = *data::Prefix::Parse("10.2.0.0/16");
  updates[2].path = P({3, 4});

  const std::string path = ::testing::TempDir() + "/stream_test_roundtrip.upd";
  data::WriteUpdatesFile(updates, path);
  UpdateSource source;
  ASSERT_EQ(UpdateSource::FromFile(path, source), "");
  ASSERT_EQ(source.Size(), 3u);
  // Replay order is ascending sequence regardless of file order.
  EXPECT_EQ(source.Events()[0].sequence, 2u);
  EXPECT_EQ(source.Events()[1].sequence, 5u);
  EXPECT_EQ(source.Events()[2].sequence, 9u);
  data::Update update;
  std::size_t count = 0;
  while (source.Next(update)) ++count;
  EXPECT_EQ(count, 3u);
  source.Reset();
  EXPECT_EQ(source.Remaining(), 3u);
}

TEST(UpdateSource, PropagatesLineNumberedParserErrors) {
  const std::string path = ::testing::TempDir() + "/stream_test_bad.upd";
  std::ofstream os(path);
  os << "1|7018|A|10.0.0.0/16|1 2\n";
  os << "2|7018|A|not-a-prefix|1 2\n";
  os.close();
  UpdateSource source;
  const std::string err = UpdateSource::FromFile(path, source);
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

// --- MeasurementGenerator stream properties ----------------------------------

TEST(MeasurementStream, SequencesStrictlyIncreasePerMonitorAndShapesHold) {
  Corpus corpus = MakeCorpus(/*seed=*/31, /*attacks=*/0, /*withdrawals=*/0);
  data::MeasurementParams mp;
  mp.num_prefixes = 40;
  mp.num_churn_events = 60;
  mp.seed = 32;
  data::MeasurementGenerator generator(corpus.gen.graph, mp);
  const std::vector<data::Update> updates =
      generator.GenerateUpdates(corpus.monitors);
  ASSERT_FALSE(updates.empty());
  std::map<Asn, std::uint64_t> last_seen;
  for (const data::Update& update : updates) {
    auto it = last_seen.find(update.monitor);
    if (it != last_seen.end()) {
      EXPECT_GT(update.sequence, it->second)
          << "monitor " << update.monitor << " sequence regressed";
    }
    last_seen[update.monitor] = update.sequence;
    if (update.withdraw) {
      EXPECT_TRUE(update.path.Empty());
    } else {
      EXPECT_FALSE(update.path.Empty());
    }
  }
}

TEST(MeasurementStream, StreamStateReplayMatchesBatchReplay) {
  Corpus corpus = MakeCorpus(/*seed=*/41, /*attacks=*/6, /*withdrawals=*/2);

  data::RibSnapshot batch_rib = corpus.rib;
  ApplyUpdates(batch_rib, corpus.updates);
  for (auto it = batch_rib.tables.begin(); it != batch_rib.tables.end();) {
    it = it->second.empty() ? batch_rib.tables.erase(it) : std::next(it);
  }

  StreamState state;
  state.SeedBaseline(corpus.rib);
  for (const data::Update& update : corpus.updates) state.Apply(update);
  EXPECT_TRUE(state.ToRib().tables == batch_rib.tables)
      << "event-at-a-time replay diverged from batch replay";
}

}  // namespace
}  // namespace asppi::stream
