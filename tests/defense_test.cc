// Tests for the defense subsystem (src/defense/): policy parsing and Accept
// semantics, deployment-plan determinism and prefix nesting, the
// no-legitimate-filtering guarantee, defended attacks against the Resume
// oracle, and RunDefenseSweep's monotone curves and verify-mode cost.
#include "defense/policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attack/impact.h"
#include "defense/deployment.h"
#include "defense/sweep.h"
#include "topology/builders.h"
#include "topology/generator.h"
#include "util/metrics.h"

namespace asppi::defense {
namespace {

using topo::AsGraph;
using topo::Asn;

bool Traverses(const bgp::AsPath& path, Asn asn) {
  const std::span<const Asn> hops = path.Hops();
  return std::find(hops.begin(), hops.end(), asn) != hops.end();
}

// --- parsing ----------------------------------------------------------------

TEST(PolicyKinds, ParseAndRenderRoundTrip) {
  EXPECT_EQ(ParsePolicyKinds("rov"), kRov);
  EXPECT_EQ(ParsePolicyKinds("pathval"), kPathValidation);
  EXPECT_EQ(ParsePolicyKinds("detector"), kInlineDetector);
  EXPECT_EQ(ParsePolicyKinds("all"), kAllPolicies);
  EXPECT_EQ(ParsePolicyKinds("none"), kNoPolicy);
  EXPECT_EQ(ParsePolicyKinds("rov+detector"),
            static_cast<std::uint8_t>(kRov | kInlineDetector));
  EXPECT_FALSE(ParsePolicyKinds("rpki").has_value());
  EXPECT_EQ(PolicyKindsName(kAllPolicies), "rov+pathval+detector");
  EXPECT_EQ(PolicyKindsName(kNoPolicy), "none");
  // Render → parse is the identity on every mask.
  for (std::uint8_t kinds = 0; kinds <= kAllPolicies; ++kinds) {
    EXPECT_EQ(ParsePolicyKinds(PolicyKindsName(kinds)), kinds);
  }
}

TEST(StrategyNames, ParseAndRenderRoundTrip) {
  for (Strategy strategy : kAllStrategies) {
    EXPECT_EQ(ParseStrategy(StrategyName(strategy)), strategy);
  }
  EXPECT_FALSE(ParseStrategy("alphabetical").has_value());
}

// --- per-policy semantics on the Facebook anomaly topology ------------------

attack::AttackOutcome RunFacebookAttack(const AsGraph& g,
                                        const PolicySet* policy) {
  attack::AttackSimulator sim(g);
  return sim.RunAsppInterception(topo::fb::kFacebook, topo::fb::kSkTelecom,
                                 /*lambda=*/5, /*violate_valley_free=*/false,
                                 /*export_stripped_to_peers=*/true, policy);
}

TEST(PolicySemantics, RovIsBlindToInterception) {
  // The stripped route keeps the true origin, so ROV — even deployed
  // everywhere — changes nothing about the interception (the paper's core
  // point, measurable here).
  AsGraph g = topo::FacebookAnomalyTopology();
  PolicySet rov_everywhere(g);
  for (Asn asn : g.Ases()) {
    if (asn != topo::fb::kFacebook && asn != topo::fb::kSkTelecom) {
      rov_everywhere.Assign(asn, kRov);
    }
  }
  const attack::AttackOutcome undefended = RunFacebookAttack(g, nullptr);
  const attack::AttackOutcome defended = RunFacebookAttack(g, &rov_everywhere);
  EXPECT_EQ(defended.fraction_after, undefended.fraction_after);
  EXPECT_EQ(defended.newly_polluted, undefended.newly_polluted);
  EXPECT_GT(defended.fraction_after, defended.fraction_before);
}

TEST(PolicySemantics, PathValidationRejectsStrippedRoute) {
  // AT&T validates paths: the stripped delivery (one victim copy where five
  // were announced) is rejected and AT&T keeps its legitimate route.
  AsGraph g = topo::FacebookAnomalyTopology();
  PolicySet policy(g);
  policy.Assign(topo::fb::kAtt, kPathValidation);
  const attack::AttackOutcome defended = RunFacebookAttack(g, &policy);
  const auto& att_best = defended.after.BestAt(topo::fb::kAtt);
  ASSERT_TRUE(att_best.has_value());
  EXPECT_FALSE(Traverses(att_best->path, topo::fb::kSkTelecom));
  EXPECT_EQ(att_best->path.OriginAs(), topo::fb::kFacebook);

  // Undefended, AT&T falls for the interception.
  const attack::AttackOutcome undefended = RunFacebookAttack(g, nullptr);
  EXPECT_TRUE(Traverses(undefended.after.BestAt(topo::fb::kAtt)->path,
                        topo::fb::kSkTelecom));
  EXPECT_LT(defended.fraction_after, undefended.fraction_after);
}

TEST(PolicySemantics, InlineDetectorRejectsStrippedRoute) {
  // Detector-only deployment: the Fig. 4 victim-aware rule fires on the
  // Adj-RIB-In entry (observed λ=1, announced λ=5) and the route is dropped.
  AsGraph g = topo::FacebookAnomalyTopology();
  PolicySet policy(g);
  policy.Assign(topo::fb::kAtt, kInlineDetector);
  const attack::AttackOutcome defended = RunFacebookAttack(g, &policy);
  const auto& att_best = defended.after.BestAt(topo::fb::kAtt);
  ASSERT_TRUE(att_best.has_value());
  EXPECT_FALSE(Traverses(att_best->path, topo::fb::kSkTelecom));
}

TEST(PolicySemantics, NothingToStripMeansNothingToFilter) {
  // λ=1: the attack is a no-op and so is every policy — the defended run
  // must match the undefended one exactly.
  AsGraph g = topo::FacebookAnomalyTopology();
  PolicySet policy(g);
  for (Asn asn : g.Ases()) {
    if (asn != topo::fb::kFacebook && asn != topo::fb::kSkTelecom) {
      policy.Assign(asn, kAllPolicies);
    }
  }
  attack::AttackSimulator sim(g);
  const attack::AttackOutcome defended = sim.RunAsppInterception(
      topo::fb::kFacebook, topo::fb::kSkTelecom, /*lambda=*/1,
      /*violate_valley_free=*/false, /*export_stripped_to_peers=*/true,
      &policy);
  EXPECT_DOUBLE_EQ(defended.fraction_before, defended.fraction_after);
  EXPECT_TRUE(defended.newly_polluted.empty());
}

// --- no legitimate filtering ------------------------------------------------

TEST(NoLegitFiltering, FullDeploymentKeepsBaselineBitIdentical) {
  // Attack-free propagation with EVERY policy active everywhere must equal
  // the filterless run bit for bit — the theorem that lets BaselineCache
  // stay filterless and baselines be shared across all deployment points.
  topo::GeneratorParams params;
  params.seed = 311;
  params.num_tier1 = 4;
  params.num_tier2 = 15;
  params.num_tier3 = 40;
  params.num_stubs = 160;
  params.num_content = 4;
  auto gen = topo::GenerateInternetTopology(params);
  const Asn victim = gen.stubs[3];

  bgp::Announcement ann;
  ann.origin = victim;
  ann.prepends.SetDefault(victim, 4);

  PolicySet everywhere(gen.graph);
  for (Asn asn : gen.graph.Ases()) {
    if (asn != victim) everywhere.Assign(asn, kAllPolicies);
  }

  const bgp::PropagationSimulator sim(gen.graph);
  const bgp::PropagationResult plain = sim.Run(ann);
  const bgp::PropagationResult defended = sim.Run(ann, nullptr, &everywhere);
  EXPECT_EQ(plain.Rounds(), defended.Rounds());
  EXPECT_EQ(plain.BestRoutes(), defended.BestRoutes());
  EXPECT_EQ(bgp::FirstDifference(defended, plain, "defended", "plain"), "");
}

// --- deployment plans -------------------------------------------------------

TEST(DeploymentPlan, OrderingIsDeterministicAndExcludesPrincipals) {
  topo::GeneratorParams params;
  params.seed = 97;
  params.num_stubs = 120;
  auto gen = topo::GenerateInternetTopology(params);
  const Asn victim = gen.stubs[0];
  const Asn attacker = gen.tier2[1];

  for (Strategy strategy : kAllStrategies) {
    const DeploymentPlan a =
        DeploymentPlan::Make(gen.graph, strategy, victim, attacker, 11);
    const DeploymentPlan b =
        DeploymentPlan::Make(gen.graph, strategy, victim, attacker, 11);
    EXPECT_EQ(a.Order(), b.Order()) << StrategyName(strategy);
    EXPECT_EQ(a.Order().size(), gen.graph.NumAses() - 2)
        << StrategyName(strategy);
    EXPECT_EQ(std::find(a.Order().begin(), a.Order().end(), victim),
              a.Order().end());
    EXPECT_EQ(std::find(a.Order().begin(), a.Order().end(), attacker),
              a.Order().end());
  }
  // Different seeds reshuffle the random strategy (and only it).
  const DeploymentPlan r1 = DeploymentPlan::Make(
      gen.graph, Strategy::kRandom, victim, attacker, 1);
  const DeploymentPlan r2 = DeploymentPlan::Make(
      gen.graph, Strategy::kRandom, victim, attacker, 2);
  EXPECT_NE(r1.Order(), r2.Order());
  const DeploymentPlan t1 = DeploymentPlan::Make(
      gen.graph, Strategy::kTopDegree, victim, attacker, 1);
  const DeploymentPlan t2 = DeploymentPlan::Make(
      gen.graph, Strategy::kTopDegree, victim, attacker, 2);
  EXPECT_EQ(t1.Order(), t2.Order());
}

TEST(DeploymentPlan, FractionsAreNestedPrefixes) {
  topo::GeneratorParams params;
  params.seed = 98;
  params.num_stubs = 80;
  auto gen = topo::GenerateInternetTopology(params);
  const DeploymentPlan plan = DeploymentPlan::Make(
      gen.graph, Strategy::kVictimCone, gen.stubs[2], gen.tier2[0], 3);

  EXPECT_EQ(plan.CountAtFraction(0.0), 0u);
  EXPECT_EQ(plan.CountAtFraction(1.0), plan.Order().size());
  std::size_t last = 0;
  std::set<Asn> last_deployed;
  for (double fraction : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    const std::size_t count = plan.CountAtFraction(fraction);
    EXPECT_GE(count, last);
    const PolicySet set = plan.AtFraction(fraction, kAllPolicies);
    EXPECT_EQ(set.DeployedCount(), count);
    std::set<Asn> deployed;
    for (Asn asn : gen.graph.Ases()) {
      if (set.TagsOf(asn) != 0) deployed.insert(asn);
    }
    // Strict prefix nesting: every smaller deployment is contained.
    EXPECT_TRUE(std::includes(deployed.begin(), deployed.end(),
                              last_deployed.begin(), last_deployed.end()));
    last = count;
    last_deployed = std::move(deployed);
  }
}

TEST(DeploymentPlan, VictimConePutsNeighborsFirst) {
  // BFS from the victim: every direct neighbor precedes every AS at
  // distance two or more.
  AsGraph g = topo::FacebookAnomalyTopology();
  const Asn victim = topo::fb::kFacebook;
  const DeploymentPlan plan = DeploymentPlan::Make(
      g, Strategy::kVictimCone, victim, topo::fb::kSkTelecom, 1);
  std::set<Asn> neighbors;
  for (const topo::Edge& nb : g.NeighborsOf(victim)) {
    if (nb.asn != topo::fb::kSkTelecom) neighbors.insert(nb.asn);
  }
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    EXPECT_TRUE(neighbors.count(plan.Order()[i]))
        << "position " << i << " is AS" << plan.Order()[i]
        << ", not a victim neighbor";
  }
}

// --- digest / cache key -----------------------------------------------------

TEST(PolicySetDigest, EmptyHasNoCacheKeyAndAssignmentsChangeDigest) {
  AsGraph g = topo::FacebookAnomalyTopology();
  PolicySet empty(g);
  EXPECT_TRUE(empty.Empty());
  EXPECT_EQ(empty.CacheKey(), "");

  PolicySet a(g);
  a.Assign(topo::fb::kAtt, kRov);
  EXPECT_FALSE(a.Empty());
  EXPECT_NE(a.CacheKey(), "");
  EXPECT_EQ(a.CacheKey().find("|defense="), 0u);

  PolicySet b(g);
  b.Assign(topo::fb::kAtt, kRov);
  EXPECT_EQ(a.Digest(), b.Digest());
  b.Assign(topo::fb::kNtt, kPathValidation);
  EXPECT_NE(a.Digest(), b.Digest());
  // Round trip through the raw wire form preserves the digest.
  const PolicySet rehydrated(g, b.RawTags());
  EXPECT_EQ(rehydrated.Digest(), b.Digest());
  EXPECT_EQ(rehydrated.DeployedCount(), b.DeployedCount());
}

// --- defended engine equivalence -------------------------------------------

TEST(DefendedEngines, FullAndDeltaAgreeUnderDeployment) {
  topo::GeneratorParams params;
  params.seed = 420;
  params.num_tier1 = 4;
  params.num_tier2 = 15;
  params.num_tier3 = 40;
  params.num_stubs = 160;
  params.num_content = 4;
  auto gen = topo::GenerateInternetTopology(params);
  const Asn victim = gen.stubs[7];
  const Asn attacker = gen.tier2[2];

  const DeploymentPlan plan = DeploymentPlan::Make(
      gen.graph, Strategy::kTopDegree, victim, attacker, 1);
  const PolicySet policy = plan.AtFraction(0.4, kAllPolicies);

  attack::BaselineCache cache(gen.graph);
  const attack::AttackSimulator sim(gen.graph, &cache);
  const attack::AttackOutcome defended = sim.RunAsppInterception(
      victim, attacker, /*lambda=*/4, /*violate_valley_free=*/false,
      /*export_stripped_to_peers=*/true, &policy);

  attack::AsppInterceptor::Config config;
  config.attacker = attacker;
  config.victim = victim;
  attack::AsppInterceptor oracle_attack(config);
  EXPECT_EQ(attack::DiffAgainstResume(defended, oracle_attack, &policy), "");
  // The deployment changes the attacked state, so an oracle run without the
  // filter must notice: the check above really exercised the filter.
  attack::AsppInterceptor unfiltered_attack(config);
  EXPECT_NE(attack::DiffAgainstResume(defended, unfiltered_attack), "");
}

// --- sweep driver -----------------------------------------------------------

TEST(DefenseSweep, CurvesAreMonotoneAndEnginesAgree) {
  topo::GeneratorParams params;
  params.seed = 77;
  params.num_tier1 = 3;
  params.num_tier2 = 10;
  params.num_tier3 = 25;
  params.num_stubs = 100;
  params.num_content = 3;
  auto gen = topo::GenerateInternetTopology(params);

  DefenseSweepOptions options;
  options.fractions = {0.0, 0.5, 1.0};
  options.num_pairs = 3;
  options.lambda = 4;
  options.seed = 9;
  options.verify_engines = true;
  const std::vector<DefenseSweepPoint> points =
      RunDefenseSweep(gen.graph, options);
  ASSERT_EQ(points.size(), 3u * options.fractions.size());

  const Strategy* last_strategy = nullptr;
  double last_after = 0.0;
  for (const DefenseSweepPoint& point : points) {
    EXPECT_TRUE(point.engines_agree)
        << StrategyName(point.strategy) << " f=" << point.fraction;
    if (last_strategy != nullptr && *last_strategy == point.strategy) {
      EXPECT_LE(point.mean_fraction_after, last_after + 1e-9)
          << StrategyName(point.strategy) << " f=" << point.fraction;
    }
    last_strategy = &point.strategy;
    last_after = point.mean_fraction_after;
  }
  // Full deployment of all policies kills the interception outright.
  for (const DefenseSweepPoint& point : points) {
    if (point.fraction == 1.0) {
      EXPECT_EQ(point.mean_fraction_after, 0.0)
          << StrategyName(point.strategy);
    }
  }
}

TEST(DefenseSweep, VerifyModeRunsOneDeltaPropagationPerTask) {
  topo::GeneratorParams params;
  params.seed = 78;
  params.num_tier1 = 3;
  params.num_tier2 = 8;
  params.num_tier3 = 20;
  params.num_stubs = 60;
  auto gen = topo::GenerateInternetTopology(params);

  DefenseSweepOptions options;
  options.fractions = {0.0, 0.5, 1.0};
  options.num_pairs = 2;
  options.seed = 3;
  options.verify_engines = true;
  const std::uint64_t tasks = options.strategies.size() *
                              options.fractions.size() * options.num_pairs;

  util::Metrics& metrics = util::Metrics::Global();
  const util::Metrics::Snapshot before = metrics.TakeSnapshot();
  const std::vector<DefenseSweepPoint> points =
      RunDefenseSweep(gen.graph, options);
  const util::Metrics::Snapshot after = metrics.TakeSnapshot();
  const auto counted = [&](const std::string& name) -> std::uint64_t {
    const auto now = after.counters.find(name);
    const auto was = before.counters.find(name);
    return (now == after.counters.end() ? 0 : now->second) -
           (was == before.counters.end() ? 0 : was->second);
  };
  for (const DefenseSweepPoint& point : points) {
    EXPECT_TRUE(point.engines_agree) << StrategyName(point.strategy);
  }
  // Each task runs its attack once on the delta engine and checks that very
  // outcome with one Resume — no second attack to compare against.
  EXPECT_EQ(counted("defense.sweep.attacks"), tasks);
  EXPECT_EQ(counted("engine.delta.propagations"), tasks);
  EXPECT_EQ(counted("bgp.propagation.resumes"), tasks);
}

TEST(DefenseSweep, PairPickingIsDeterministic) {
  topo::GeneratorParams params;
  params.seed = 55;
  params.num_stubs = 60;
  auto gen = topo::GenerateInternetTopology(params);
  const auto a = PickSweepPairs(gen.graph, 6, 13);
  const auto b = PickSweepPairs(gen.graph, 6, 13);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 6u);
  for (const auto& [victim, attacker] : a) {
    EXPECT_NE(victim, attacker);
    EXPECT_TRUE(gen.graph.HasAs(victim));
    EXPECT_TRUE(gen.graph.HasAs(attacker));
  }
  EXPECT_NE(PickSweepPairs(gen.graph, 6, 14), a);
}

}  // namespace
}  // namespace asppi::defense
