// The engine-work contract as a committed golden: a fixed sweep workload at
// the figure benches' default scale must do exactly the engine work
// recorded in tests/golden/engine_counters.golden, at --threads 1 and 4.
//
// The workload is fig09's λ 1..8 tier-1 sweep, 12 random pairs at λ=3 in
// both attacker modes, one defended deployment point and one small strategy
// search. The recorded counters are the routing-tree builds and visits, the
// delta engine's propagations, rounds, decisions, announcements,
// withdrawals and wavefront, and the baseline cache's hits and misses. A
// change that means to alter the engine's work re-blesses the file in the
// same change, and its diff shows the work saved:
//
//   ASPPI_BLESS=1 ./build/tests/engine_counters_test
//
// rewrites the golden from the build at hand.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "attack/scenarios.h"
#include "bench/bench_common.h"
#include "defense/sweep.h"
#include "strategy/search.h"
#include "topology/generator.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace asppi {
namespace {

using CounterMap = std::map<std::string, std::uint64_t>;

const char kGoldenPath[] = ASPPI_TESTS_DIR "/golden/engine_counters.golden";

// Whether a counter is part of the engine-work contract. Timers and
// scheduling counters are not, and neither is defense.accept.*: how often a
// receiver's filter is asked depends on how the engine reads its slots.
bool Recorded(const std::string& name) {
  static const char* const kExact[] = {
      "engine.delta.propagations",     "engine.delta.rounds",
      "engine.delta.decisions",        "engine.delta.routes_announced",
      "engine.delta.routes_withdrawn", "engine.delta.wavefront_total",
      "engine.delta.wavefront_peak",   "attack.baseline_cache.hits",
      "attack.baseline_cache.misses"};
  if (name.starts_with("bgp.routing_tree.")) return true;
  for (const char* exact : kExact) {
    if (name == exact) return true;
  }
  return false;
}

CounterMap RecordedDelta(const util::Metrics::Snapshot& before,
                         const util::Metrics::Snapshot& after) {
  CounterMap delta;
  for (const auto& [name, value] : after.counters) {
    if (!Recorded(name)) continue;
    const auto it = before.counters.find(name);
    delta[name] = value - (it == before.counters.end() ? 0 : it->second);
  }
  return delta;
}

CounterMap RunWorkload(const topo::GeneratedTopology& topology,
                       std::size_t threads) {
  util::Metrics& metrics = util::Metrics::Global();
  const auto before = metrics.TakeSnapshot();
  {
    util::ThreadPool pool(threads);
    attack::BaselineCache cache(topology.graph);

    const attack::SweepScenario fig09 = attack::Tier1VsTier1(topology);
    bench::LambdaSweep(topology.graph, fig09.victim, fig09.attacker,
                       /*max_lambda=*/8, /*violate_valley_free=*/false, &pool,
                       &cache);

    const auto pairs = attack::SampleRandomPairs(topology, 12, /*seed=*/7);
    for (const bool violate : {false, true}) {
      attack::PairSweepOptions options;
      options.lambda = 3;
      options.violate_valley_free = violate;
      options.pool = &pool;
      options.baseline_cache = &cache;
      attack::RunPairSweep(topology.graph, pairs, options);
    }

    defense::DefenseSweepOptions defended;
    defended.fractions = {0.5};
    defended.strategies = {defense::Strategy::kTopDegree};
    defended.lambda = 3;
    defended.num_pairs = 1;
    defended.seed = 5;
    defended.pool = &pool;
    defended.baseline_cache = &cache;
    defense::RunDefenseSweep(topology.graph, defended);

    strategy::SearchOptions search;
    search.lambda = 3;
    search.beam_width = 2;
    search.rounds = 1;
    search.max_neighbors = 4;
    search.pool = &pool;
    search.baseline_cache = &cache;
    strategy::Search(topology.graph, search).Run(fig09.victim, fig09.attacker);
  }
  return RecordedDelta(before, metrics.TakeSnapshot());
}

std::string Render(const CounterMap& counters) {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << name << ' ' << value << '\n';
  }
  return out.str();
}

TEST(EngineCounters, DefaultScaleWorkloadMatchesGoldenAtOneAndFourThreads) {
  const topo::GeneratedTopology topology =
      topo::GenerateInternetTopology(topo::GeneratorParams{});
  const CounterMap one = RunWorkload(topology, 1);
  const CounterMap four = RunWorkload(topology, 4);
  ASSERT_GT(one.at("engine.delta.propagations"), 0u);
  EXPECT_EQ(Render(one), Render(four)) << "engine work depends on --threads";

  const std::string got = Render(one);
  if (std::getenv("ASPPI_BLESS") != nullptr) {
    std::ofstream(kGoldenPath) << got;
    GTEST_SKIP() << "blessed " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.is_open()) << "missing " << kGoldenPath;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace asppi
