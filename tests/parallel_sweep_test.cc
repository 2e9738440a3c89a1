// Tests for the parallel sweep engine: ThreadPool/ParallelFor coverage,
// BaselineCache correctness and hit accounting, and the determinism
// guarantee — sweep outputs are identical for 1 thread and N threads.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "attack/scenarios.h"
#include "bench/bench_common.h"
#include "detect/evaluation.h"
#include "detect/monitors.h"
#include "detect/placement.h"
#include "topology/generator.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace asppi {
namespace {

// Cache hit/miss accounting moved to the process-wide metrics registry, so
// the tests below assert on snapshot deltas instead of instance accessors.
std::uint64_t CounterValue(const std::string& name) {
  auto snapshot = util::Metrics::Global().TakeSnapshot();
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

topo::GeneratedTopology SweepTopo(std::uint64_t seed) {
  topo::GeneratorParams params;
  params.seed = seed;
  params.num_tier1 = 5;
  params.num_tier2 = 25;
  params.num_tier3 = 60;
  params.num_stubs = 250;
  params.num_content = 5;
  return topo::GenerateInternetTopology(params);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  util::ThreadPool pool(4);
  // Uneven chunking: 101 indices in chunks of 7 → 15 chunks, last one short.
  std::vector<std::atomic<int>> hits(101);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; },
                   /*chunk=*/7);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForHandlesEdgeCounts) {
  util::ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 1);
  // count smaller than one chunk still covers everything.
  calls = 0;
  pool.ParallelFor(3, [&](std::size_t) { ++calls; }, /*chunk=*/100);
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  util::ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // safe: no workers exist
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(
                   64,
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   },
                   /*chunk=*/1),
               std::runtime_error);
}

TEST(ThreadPool, FreeFunctionWithNullPoolIsSerial) {
  std::vector<int> order;
  util::ParallelFor(nullptr, 4,
                    [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(BaselineCache, CachedBaselineEqualsFreshRun) {
  auto gen = SweepTopo(91);
  attack::BaselineCache cache(gen.graph);
  const std::uint64_t hits0 = CounterValue("attack.baseline_cache.hits");
  const std::uint64_t misses0 = CounterValue("attack.baseline_cache.misses");

  bgp::Announcement announcement;
  announcement.origin = gen.tier1[0];
  announcement.prepends.SetDefault(announcement.origin, 3);

  auto first = cache.GetEntry(announcement).state;
  auto second = cache.GetEntry(announcement).state;
  EXPECT_EQ(first.get(), second.get()) << "hit must share the same state";
  EXPECT_EQ(CounterValue("attack.baseline_cache.misses") - misses0, 1u);
  EXPECT_EQ(CounterValue("attack.baseline_cache.hits") - hits0, 1u);
  EXPECT_EQ(cache.Size(), 1u);

  bgp::PropagationSimulator engine(gen.graph);
  bgp::PropagationResult fresh = engine.Run(announcement);
  ASSERT_EQ(first->Rounds(), fresh.Rounds());
  for (topo::Asn asn : gen.graph.Ases()) {
    EXPECT_EQ(first->BestAt(asn), fresh.BestAt(asn)) << "AS" << asn;
    EXPECT_EQ(first->FirstChangeRound(asn), fresh.FirstChangeRound(asn));
  }
}

TEST(BaselineCache, SimulatorWithoutACacheMemoizesItsBaselines) {
  auto gen = SweepTopo(97);
  const attack::AttackSimulator simulator(gen.graph);
  const std::uint64_t hits0 = CounterValue("attack.baseline_cache.hits");
  const std::uint64_t misses0 = CounterValue("attack.baseline_cache.misses");

  const auto first =
      simulator.RunAsppInterception(gen.tier1[0], gen.tier1[1], /*lambda=*/3);
  const auto second =
      simulator.RunAsppInterception(gen.tier1[0], gen.tier2[0], /*lambda=*/3);
  EXPECT_EQ(CounterValue("attack.baseline_cache.misses") - misses0, 1u);
  EXPECT_EQ(CounterValue("attack.baseline_cache.hits") - hits0, 1u);
  EXPECT_EQ(first.before, second.before) << "both runs read one baseline";
}

TEST(BaselineCache, LambdaSweepRunsOneUncachedBaselinePerLambda) {
  auto gen = SweepTopo(92);
  attack::BaselineCache cache(gen.graph);
  util::ThreadPool pool(4);
  const int max_lambda = 5;
  const std::uint64_t hits0 = CounterValue("attack.baseline_cache.hits");
  const std::uint64_t misses0 = CounterValue("attack.baseline_cache.misses");

  auto rows = bench::LambdaSweep(gen.graph, gen.tier1[0], gen.tier1[1],
                                 max_lambda, /*violate_valley_free=*/false,
                                 &pool, &cache);
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(max_lambda));
  EXPECT_EQ(CounterValue("attack.baseline_cache.misses") - misses0,
            static_cast<std::uint64_t>(max_lambda))
      << "exactly one uncached Run() per λ";
  EXPECT_EQ(CounterValue("attack.baseline_cache.hits") - hits0, 0u);

  // A second sweep against the same victim — e.g. another attacker — is
  // answered entirely from the cache.
  auto rows2 = bench::LambdaSweep(gen.graph, gen.tier1[0], gen.tier2[0],
                                  max_lambda, /*violate_valley_free=*/false,
                                  &pool, &cache);
  EXPECT_EQ(CounterValue("attack.baseline_cache.misses") - misses0,
            static_cast<std::uint64_t>(max_lambda));
  EXPECT_EQ(CounterValue("attack.baseline_cache.hits") - hits0,
            static_cast<std::uint64_t>(max_lambda));

  // Distinct λ values are distinct baselines: sweeping must not conflate
  // them (rows differ across λ in general, and each row's λ is recorded).
  for (int lambda = 1; lambda <= max_lambda; ++lambda) {
    EXPECT_EQ(rows[static_cast<std::size_t>(lambda - 1)].lambda, lambda);
  }
  (void)rows2;
}

TEST(AttackOutcome, RecordsExplicitLambda) {
  auto gen = SweepTopo(93);
  attack::AttackSimulator simulator(gen.graph);
  auto outcome =
      simulator.RunAsppInterception(gen.tier1[0], gen.tier1[1], /*lambda=*/4);
  EXPECT_EQ(outcome.lambda, 4);

  // Per-neighbor policy: λ is the strongest padding announced to any
  // neighbor, not a probe against a fake neighbor 0.
  bgp::Announcement announcement;
  announcement.origin = gen.tier1[0];
  announcement.prepends.SetDefault(announcement.origin, 2);
  const auto neighbors = gen.graph.NeighborsOf(announcement.origin);
  ASSERT_FALSE(neighbors.empty());
  announcement.prepends.SetForNeighbor(announcement.origin, neighbors[0].asn,
                                       6);
  auto policy_outcome =
      simulator.RunAsppInterceptionWithPolicy(announcement, gen.tier1[1]);
  EXPECT_EQ(policy_outcome.lambda, 6);
}

TEST(ParallelSweep, PairSweepIdenticalAcrossThreadCounts) {
  auto gen = SweepTopo(94);
  auto pairs = attack::SampleTier1Pairs(gen, 12, /*seed=*/3);
  ASSERT_FALSE(pairs.empty());

  attack::PairSweepOptions serial;
  serial.lambda = 3;
  auto baseline_rows = attack::RunPairSweep(gen.graph, pairs, serial);

  // Capture after the serial sweep: its internal baseline cache reports into
  // the same global counters.
  const std::uint64_t misses0 = CounterValue("attack.baseline_cache.misses");
  util::ThreadPool pool(4);
  attack::BaselineCache cache(gen.graph);
  attack::PairSweepOptions parallel;
  parallel.lambda = 3;
  parallel.pool = &pool;
  parallel.baseline_cache = &cache;
  auto parallel_rows = attack::RunPairSweep(gen.graph, pairs, parallel);

  ASSERT_EQ(baseline_rows.size(), parallel_rows.size());
  for (std::size_t i = 0; i < baseline_rows.size(); ++i) {
    EXPECT_EQ(baseline_rows[i].attacker, parallel_rows[i].attacker);
    EXPECT_EQ(baseline_rows[i].victim, parallel_rows[i].victim);
    // Bit-identical, not approximately equal: both paths run the same
    // operations in the same order per row.
    EXPECT_EQ(baseline_rows[i].before, parallel_rows[i].before);
    EXPECT_EQ(baseline_rows[i].after, parallel_rows[i].after);
  }
  // One baseline per distinct victim, however many attackers shared it.
  std::set<topo::Asn> victims;
  for (const auto& [attacker, victim] : pairs) victims.insert(victim);
  EXPECT_EQ(CounterValue("attack.baseline_cache.misses") - misses0,
            victims.size());
}

TEST(ParallelSweep, DetectionRatesIdenticalAcrossThreadCounts) {
  auto gen = SweepTopo(95);
  auto pairs = attack::SampleRandomPairs(gen, 12, /*seed=*/5);
  auto monitors = detect::TopDegreeMonitors(gen.graph, 40);
  detect::DetectionConfig config;
  config.lambda = 3;

  attack::AttackSimulator serial_simulator(gen.graph);
  auto serial_rates = detect::EvaluateDetectionRates(serial_simulator, pairs,
                                                     monitors, config);

  util::ThreadPool pool(4);
  attack::BaselineCache cache(gen.graph);
  attack::AttackSimulator cached_simulator(gen.graph, &cache);
  auto parallel_rates = detect::EvaluateDetectionRates(
      cached_simulator, pairs, monitors, config, &pool);

  EXPECT_EQ(serial_rates.instances, parallel_rates.instances);
  EXPECT_EQ(serial_rates.effective, parallel_rates.effective);
  EXPECT_EQ(serial_rates.detected, parallel_rates.detected);
  EXPECT_EQ(serial_rates.detected_high, parallel_rates.detected_high);
  EXPECT_EQ(serial_rates.suspect_correct, parallel_rates.suspect_correct);
}

TEST(ParallelSweep, PlacementIdenticalAcrossThreadCounts) {
  auto gen = SweepTopo(96);
  detect::PlacementConfig config;
  config.budget = 6;
  config.candidate_pool = 40;
  config.training_attacks = 12;
  config.seed = 17;
  auto serial = detect::SelectMonitorsForVictim(gen.graph, gen.tier2[0],
                                                config);

  util::ThreadPool pool(4);
  config.pool = &pool;
  auto parallel = detect::SelectMonitorsForVictim(gen.graph, gen.tier2[0],
                                                  config);

  EXPECT_EQ(serial.monitors, parallel.monitors);
  EXPECT_EQ(serial.training_effective, parallel.training_effective);
  EXPECT_EQ(serial.training_covered, parallel.training_covered);
}

}  // namespace
}  // namespace asppi
