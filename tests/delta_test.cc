// Equivalence and API tests for the incremental delta-convergence engine
// (src/bgp/delta.h, DESIGN.md §4h).
//
// The contract under test is absolute: DeltaPropagator::Propagate over a
// converged baseline must be *bit-identical* to PropagationSimulator::Resume
// with the same inputs — best routes, first-change rounds, every Adj-RIB-In
// slot, and the round count. The fixtures here cover the
// canonical topology shapes, generated Internet-like graphs, every attacker
// mode (valley-free-following and -violating, peer-export on and off), and
// a full pair sweep pinned at every λ against the Resume oracle
// (attack::DiffAgainstResume). The fuzzer's oracle legs (src/check/fuzzer.cc)
// extend the same check to randomized scenarios; tests/fuzz_corpus_test.cc
// replays any regressions they find.
#include "bgp/delta.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "attack/interceptor.h"
#include "attack/scenarios.h"
#include "bgp/propagation.h"
#include "topology/builders.h"
#include "topology/generator.h"
#include "util/metrics.h"

namespace asppi::bgp {
namespace {

using topo::AsGraph;
using topo::Relation;

Announcement Announce(Asn origin, int lambda = 1) {
  Announcement ann;
  ann.origin = origin;
  if (lambda > 1) ann.prepends.SetDefault(origin, lambda);
  return ann;
}

attack::AsppInterceptor MakeInterceptor(Asn attacker, Asn victim,
                                        bool violate_valley_free = false,
                                        bool export_stripped_to_peers = true) {
  attack::AsppInterceptor::Config config;
  config.attacker = attacker;
  config.victim = victim;
  config.violate_valley_free = violate_valley_free;
  config.export_stripped_to_peers = export_stripped_to_peers;
  return attack::AsppInterceptor(config);
}

// Bit-for-bit comparison of two converged states via the dense-state
// accessors: best routes, change rounds, the complete Adj-RIB-In, and the
// round count. Route::operator== is defaulted memberwise, so any divergence
// (path bytes, relation class, learned_from) trips here.
void ExpectStatesIdentical(const PropagationResult& full,
                           const PropagationResult& delta,
                           const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(full.Rounds(), delta.Rounds());
  EXPECT_EQ(full.BestRoutes(), delta.BestRoutes());
  EXPECT_EQ(full.FirstChangeRounds(), delta.FirstChangeRounds());
  EXPECT_EQ(full.RibIn(), delta.RibIn());
}

// Runs one interception through both engines directly (no AttackSimulator)
// and asserts Resume == Propagate().Materialize(). Separate interceptor
// instances per engine: the transform accumulates diagnostic state.
void ExpectEnginesAgree(const AsGraph& graph, Asn victim, Asn attacker,
                        int lambda, bool violate_valley_free = false,
                        bool export_stripped_to_peers = true) {
  const PropagationSimulator full_engine(graph);
  const DeltaPropagator delta_engine(graph);
  auto baseline = std::make_shared<const PropagationResult>(
      full_engine.Run(Announce(victim, lambda)));

  attack::AsppInterceptor full_attack = MakeInterceptor(
      attacker, victim, violate_valley_free, export_stripped_to_peers);
  const PropagationResult resumed =
      full_engine.Resume(*baseline, &full_attack, {attacker});

  attack::AsppInterceptor delta_attack = MakeInterceptor(
      attacker, victim, violate_valley_free, export_stripped_to_peers);
  const DeltaResult delta =
      delta_engine.Propagate(baseline, &delta_attack, {attacker});

  const std::string context =
      "victim=" + std::to_string(victim) +
      " attacker=" + std::to_string(attacker) +
      " lambda=" + std::to_string(lambda) +
      " violate=" + std::to_string(violate_valley_free) +
      " peers=" + std::to_string(export_stripped_to_peers);
  ExpectStatesIdentical(resumed, delta.Materialize(), context);
}

// --- equivalence on canonical fixture shapes -------------------------------

TEST(DeltaEquivalence, ProviderChainAllPositions) {
  AsGraph g = topo::ProviderChain(6);  // 1 ← 2 ← … ← 6 (providers above)
  for (Asn attacker : {2u, 4u, 6u}) {
    for (int lambda : {1, 2, 4}) {
      ExpectEnginesAgree(g, /*victim=*/1, attacker, lambda);
    }
  }
}

TEST(DeltaEquivalence, PeerClique) {
  AsGraph g = topo::PeerClique(5);
  ExpectEnginesAgree(g, /*victim=*/1, /*attacker=*/3, /*lambda=*/2);
  ExpectEnginesAgree(g, /*victim=*/2, /*attacker=*/5, /*lambda=*/3);
}

TEST(DeltaEquivalence, ValleyTopologyWithWithdrawals) {
  // The shape from propagation_test's valley-free cases: peers at the top,
  // customers below. Attacks here force best-route flips that retract
  // previously-exported routes, exercising the delta engine's withdrawal
  // path (clearing a held slot the sender no longer exports to).
  topo::GraphBuilder b;
  b.AddLink(3, 2, Relation::kCustomer);
  b.AddLink(2, 1, Relation::kCustomer);
  b.AddLink(3, 4, Relation::kPeer);
  b.AddLink(4, 5, Relation::kCustomer);
  b.AddLink(4, 6, Relation::kPeer);
  b.AddLink(6, 3, Relation::kPeer);
  b.AddLink(6, 7, Relation::kCustomer);
  AsGraph g = b.Freeze();
  for (Asn attacker : {4u, 5u, 6u, 7u}) {
    for (int lambda : {1, 3}) {
      ExpectEnginesAgree(g, /*victim=*/1, attacker, lambda);
      ExpectEnginesAgree(g, /*victim=*/1, attacker, lambda,
                         /*violate_valley_free=*/true);
    }
  }
}

TEST(DeltaEquivalence, SiblingTransit) {
  topo::GraphBuilder b;
  b.AddLink(1, 2, Relation::kPeer);
  b.AddLink(2, 3, Relation::kSibling);
  b.AddLink(4, 3, Relation::kCustomer);
  b.AddLink(4, 5, Relation::kCustomer);
  AsGraph g = b.Freeze();
  ExpectEnginesAgree(g, /*victim=*/1, /*attacker=*/5, /*lambda=*/2);
  ExpectEnginesAgree(g, /*victim=*/1, /*attacker=*/3, /*lambda=*/3,
                     /*violate_valley_free=*/true);
}

// --- equivalence on a generated Internet-like topology ---------------------

topo::GeneratedTopology SmallInternet() {
  topo::GeneratorParams params;
  params.seed = 907;
  params.num_tier1 = 4;
  params.num_tier2 = 15;
  params.num_tier3 = 40;
  params.num_stubs = 150;
  params.num_content = 4;
  params.num_sibling_pairs = 3;
  return topo::GenerateInternetTopology(params);
}

TEST(DeltaEquivalence, GeneratedTopologyAllAttackerModes) {
  const topo::GeneratedTopology gen = SmallInternet();
  const auto pairs = attack::SampleRandomPairs(gen, 6, /*seed=*/11);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [attacker, victim] : pairs) {
    for (const bool violate : {false, true}) {
      for (const bool peers : {true, false}) {
        ExpectEnginesAgree(gen.graph, victim, attacker, /*lambda=*/3, violate,
                           peers);
      }
    }
  }
}

TEST(DeltaEquivalence, Tier1AttackerLargeWavefront) {
  // Tier-1 vs tier-1 at high λ floods most of the graph — the wavefront is
  // nearly the whole AS set, so the adaptive flag-scan worklist path (the
  // one the full engine's linear scans correspond to) is exercised.
  const topo::GeneratedTopology gen = SmallInternet();
  const auto scenario = attack::Tier1VsTier1(gen);
  for (int lambda : {1, 2, 3, 5}) {
    ExpectEnginesAgree(gen.graph, scenario.victim, scenario.attacker, lambda);
  }
}

// --- acceptance: pair sweep pinned at every λ ------------------------------

TEST(DeltaEquivalence, PairSweepIdenticalAtEveryLambda) {
  const topo::GeneratedTopology gen = SmallInternet();
  const auto pairs = attack::SampleRandomPairs(gen, 12, /*seed=*/23);
  attack::BaselineCache cache(gen.graph);
  const attack::AttackSimulator sim(gen.graph, &cache);
  for (int lambda = 1; lambda <= 5; ++lambda) {
    attack::PairSweepOptions options;
    options.lambda = lambda;
    options.baseline_cache = &cache;
    const auto rows = attack::RunPairSweep(gen.graph, pairs, options);
    ASSERT_EQ(rows.size(), pairs.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE("lambda=" + std::to_string(lambda) +
                   " row=" + std::to_string(i));
      const attack::AttackOutcome outcome =
          sim.RunAsppInterception(rows[i].victim, rows[i].attacker, lambda);
      attack::AsppInterceptor oracle_attack =
          MakeInterceptor(rows[i].attacker, rows[i].victim);
      EXPECT_EQ(attack::DiffAgainstResume(outcome, oracle_attack), "");
      // Exact ==, not near: every row carries the oracle-checked fractions.
      EXPECT_EQ(rows[i].before, outcome.fraction_before);
      EXPECT_EQ(rows[i].after, outcome.fraction_after);
    }
  }
}

TEST(DeltaEquivalence, AttackSimulatorOutcomesMatch) {
  const topo::GeneratedTopology gen = SmallInternet();
  attack::BaselineCache cache(gen.graph);
  const attack::AttackSimulator sim(gen.graph, &cache);
  const auto pairs = attack::SampleRandomPairs(gen, 4, /*seed=*/31);
  for (const auto& [attacker, victim] : pairs) {
    SCOPED_TRACE("attacker=" + std::to_string(attacker) +
                 " victim=" + std::to_string(victim));
    const auto outcome = sim.RunAsppInterception(victim, attacker, 3);
    attack::AsppInterceptor oracle_attack = MakeInterceptor(attacker, victim);
    EXPECT_EQ(attack::DiffAgainstResume(outcome, oracle_attack), "");
    // The outcome reports the memoized baseline, and the attacked state
    // overlays that very state.
    EXPECT_EQ(outcome.before, cache.GetEntry(Announce(victim, 3)).state);
    EXPECT_EQ(&outcome.after.GetAnnouncement(),
              &outcome.before->GetAnnouncement());
  }
}

// --- DeltaResult query API -------------------------------------------------

TEST(DeltaResult, QueriesMatchMaterializedState) {
  const topo::GeneratedTopology gen = SmallInternet();
  const auto scenario = attack::Tier1VsTier1(gen);
  const PropagationSimulator full_engine(gen.graph);
  const DeltaPropagator delta_engine(gen.graph);
  auto baseline = std::make_shared<const PropagationResult>(
      full_engine.Run(Announce(scenario.victim, 3)));
  attack::AsppInterceptor attack =
      MakeInterceptor(scenario.attacker, scenario.victim);
  const DeltaResult delta =
      delta_engine.Propagate(baseline, &attack, {scenario.attacker});
  const PropagationResult dense = delta.Materialize();

  EXPECT_EQ(delta.Rounds(), dense.Rounds());
  for (std::size_t i = 0; i < gen.graph.NumAses(); ++i) {
    const Asn asn = gen.graph.AsnAt(i);
    EXPECT_EQ(delta.BestAt(asn), dense.BestAt(asn)) << "AS" << asn;
    EXPECT_EQ(delta.BestAtIndex(i), dense.BestAt(asn)) << "AS" << asn;
    EXPECT_EQ(delta.FirstChangeRound(asn), dense.FirstChangeRound(asn))
        << "AS" << asn;
  }
}

TEST(DeltaResult, TouchedIndicesAscendingAndExhaustive) {
  const topo::GeneratedTopology gen = SmallInternet();
  const auto scenario = attack::Tier1VsContent(gen);
  const PropagationSimulator full_engine(gen.graph);
  const DeltaPropagator delta_engine(gen.graph);
  auto baseline = std::make_shared<const PropagationResult>(
      full_engine.Run(Announce(scenario.victim, 2)));
  attack::AsppInterceptor attack =
      MakeInterceptor(scenario.attacker, scenario.victim);
  const DeltaResult delta =
      delta_engine.Propagate(baseline, &attack, {scenario.attacker});

  const auto& touched = delta.TouchedIndices();
  for (std::size_t k = 1; k < touched.size(); ++k) {
    EXPECT_LT(touched[k - 1], touched[k]);
  }
  // Every AS outside the overlay must read through to the baseline
  // unchanged: the wavefront is exactly the touched set.
  std::vector<bool> in_overlay(gen.graph.NumAses(), false);
  for (std::uint32_t index : touched) in_overlay[index] = true;
  for (std::size_t i = 0; i < gen.graph.NumAses(); ++i) {
    if (in_overlay[i]) continue;
    const Asn asn = gen.graph.AsnAt(i);
    EXPECT_EQ(delta.BestAt(asn), baseline->BestAt(asn)) << "AS" << asn;
    EXPECT_EQ(delta.FirstChangeRound(asn), -1) << "AS" << asn;
  }
}

// --- TraversalIndex --------------------------------------------------------

TEST(TraversalIndex, MatchesLinearScanEverywhere) {
  const topo::GeneratedTopology gen = SmallInternet();
  const PropagationSimulator engine(gen.graph);
  const PropagationResult baseline = engine.Run(Announce(gen.tier1.front(), 3));
  const TraversalIndex index(baseline);
  EXPECT_EQ(index.ReachableCount(), baseline.ReachableCount());
  for (std::size_t i = 0; i < gen.graph.NumAses(); ++i) {
    const Asn asn = gen.graph.AsnAt(i);
    EXPECT_EQ(index.TraversingCount(asn), baseline.AsesTraversing(asn).size())
        << "AS" << asn;
  }
}

// --- engine.delta.* metrics ------------------------------------------------

TEST(DeltaMetrics, WavefrontCountersRecorded) {
  const topo::GeneratedTopology gen = SmallInternet();
  attack::BaselineCache cache(gen.graph);
  const attack::AttackSimulator sim(gen.graph, &cache);
  const auto scenario = attack::Tier1VsTier1(gen);

  util::Metrics& metrics = util::Metrics::Global();
  const auto before = metrics.TakeSnapshot();
  const auto outcome =
      sim.RunAsppInterception(scenario.victim, scenario.attacker, 3);
  const auto after = metrics.TakeSnapshot();

  const auto counter_delta = [&](const std::string& name) -> std::uint64_t {
    auto it = after.counters.find(name);
    const std::uint64_t now = it == after.counters.end() ? 0 : it->second;
    auto prior = before.counters.find(name);
    const std::uint64_t was =
        prior == before.counters.end() ? 0 : prior->second;
    return now - was;
  };
  EXPECT_EQ(counter_delta("engine.delta.propagations"), 1u);
  const std::uint64_t wavefront = counter_delta("engine.delta.wavefront_total");
  EXPECT_EQ(wavefront, outcome.after.TouchedIndices().size());
  EXPECT_GT(counter_delta("engine.delta.rounds"), 0u);
  EXPECT_GT(counter_delta("engine.delta.decisions"), 0u);
}

// --- BaselineCache concurrent readers (satellite: TSan target) -------------

TEST(BaselineCacheConcurrency, SharedEntriesUnderConcurrentReaders) {
  const topo::GeneratedTopology gen = SmallInternet();
  attack::BaselineCache cache(gen.graph);
  const std::vector<Announcement> keys = {
      Announce(gen.tier1[0], 1), Announce(gen.tier1[1], 2),
      Announce(gen.tier2[0], 3), Announce(gen.stubs[0], 2)};

  // Warm one key up front so the run mixes hits with concurrent computes.
  const PropagationResult* warm = cache.GetEntry(keys[0]).state.get();

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 4; ++iter) {
        const Announcement& key = keys[(t + iter) % keys.size()];
        // Every lookup of a key resolves to the one retained state and its
        // index.
        const attack::BaselineEntry entry = cache.GetEntry(key);
        const attack::BaselineEntry again = cache.GetEntry(key);
        if (entry.state != again.state || entry.traversal != again.traversal) {
          mismatch.store(true);
        }
        if (key.origin == keys[0].origin && entry.state.get() != warm) {
          mismatch.store(true);
        }
        // Reading the pinned state while other threads compute other entries
        // is the TSan-checked access pattern QueryService relies on.
        const std::size_t reachable = entry.state->ReachableCount();
        if (reachable != entry.traversal->ReachableCount()) {
          mismatch.store(true);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(cache.Size(), keys.size());

  // Put over an existing entry is a no-op: the computed state survives.
  auto replacement = std::make_shared<const PropagationResult>(
      PropagationSimulator(gen.graph).Run(keys[0]));
  cache.Put(replacement);
  EXPECT_EQ(cache.GetEntry(keys[0]).state.get(), warm);
}

}  // namespace
}  // namespace asppi::bgp
