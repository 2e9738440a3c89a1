// Property-based tests of the detector: no high-confidence false positives
// on legitimate (attack-free) routing dynamics, across seeds and random
// legitimate traffic-engineering policies. The soundness assertions route
// through check::Invariants — the same checkers the differential fuzzer
// runs — so detector properties are pinned once and enforced everywhere.
#include <gtest/gtest.h>

#include <algorithm>

#include "attack/impact.h"
#include "check/invariants.h"
#include "defense/deployment.h"
#include "defense/policy.h"
#include "detect/detector.h"
#include "detect/evaluation.h"
#include "detect/monitors.h"
#include "strategy/program.h"
#include "topology/as_graph.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace asppi::detect {
namespace {

using topo::GeneratedTopology;

GeneratedTopology MakeTopo(std::uint64_t seed) {
  topo::GeneratorParams params;
  params.seed = seed;
  params.num_tier1 = 5;
  params.num_tier2 = 25;
  params.num_tier3 = 70;
  params.num_stubs = 250;
  params.num_content = 4;
  return topo::GenerateInternetTopology(params);
}

using MonitorPaths = std::vector<std::pair<Asn, AsPath>>;

MonitorPaths PathsOf(const bgp::PropagationResult& state,
                     const std::vector<Asn>& monitors) {
  MonitorPaths out;
  for (Asn m : monitors) {
    const auto& best = state.BestAt(m);
    if (best.has_value()) out.emplace_back(m, best->path);
  }
  return out;
}

class DetectorProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorProperties, NoHighConfidenceFalsePositiveOnLegitTeChange) {
  // The victim legitimately changes its per-neighbor prepending between two
  // converged states; the detector may hint, but must never raise a
  // high-confidence alarm (both snapshots are internally consistent).
  GeneratedTopology gen = MakeTopo(GetParam());
  bgp::PropagationSimulator sim(gen.graph);
  util::Rng rng(util::DeriveSeed(GetParam(), 77));
  auto monitors = TopDegreeMonitors(gen.graph, 60);
  AsppDetector detector(&gen.graph);

  for (int trial = 0; trial < 3; ++trial) {
    Asn victim = gen.graph.AsnAt(rng.Below(gen.graph.NumAses()));
    std::span<const Asn> providers = gen.graph.Providers(victim);
    if (providers.empty()) continue;

    // Old policy: uniform λ1; new policy: smaller λ toward one provider
    // (classic inbound TE shift) and/or a reduced default.
    int lambda_old = 2 + static_cast<int>(rng.Below(5));
    bgp::Announcement old_ann;
    old_ann.origin = victim;
    old_ann.prepends.SetDefault(victim, lambda_old);

    bgp::Announcement new_ann;
    new_ann.origin = victim;
    int lambda_new = 1 + static_cast<int>(rng.Below(
                             static_cast<std::uint64_t>(lambda_old)));
    new_ann.prepends.SetDefault(victim, lambda_old);
    new_ann.prepends.SetForNeighbor(
        victim, providers[rng.Below(providers.size())], lambda_new);

    bgp::PropagationResult before = sim.Run(old_ann);
    bgp::PropagationResult after = sim.Run(new_ann);
    MonitorPaths prev_paths = PathsOf(before, monitors);
    MonitorPaths cur_paths = PathsOf(after, monitors);
    std::vector<Alarm> alarms = detector.Scan(victim, prev_paths, cur_paths);
    check::Violations violations;
    check::Invariants::CheckNoHighConfidence(alarms, violations);
    // Any hint alarms raised must at least satisfy their trigger conditions.
    check::Invariants::CheckAlarmsJustified(victim, prev_paths, cur_paths,
                                            alarms, nullptr, violations);
    // And the incremental detector must agree with this batch scan.
    check::Invariants::CheckStreamBatchEquivalence(
        &gen.graph, victim, prev_paths, cur_paths, nullptr, violations);
    EXPECT_TRUE(violations.empty()) << "victim AS" << victim;
    for (const std::string& violation : violations) {
      ADD_FAILURE() << violation;
    }
  }
}

TEST_P(DetectorProperties, NoAlarmsAtAllOnIdenticalSnapshots) {
  GeneratedTopology gen = MakeTopo(GetParam());
  bgp::PropagationSimulator sim(gen.graph);
  auto monitors = TopDegreeMonitors(gen.graph, 60);
  AsppDetector detector(&gen.graph);
  bgp::Announcement ann;
  ann.origin = gen.tier3[GetParam() % gen.tier3.size()];
  ann.prepends.SetDefault(ann.origin, 4);
  bgp::PropagationResult state = sim.Run(ann);
  MonitorPaths paths = PathsOf(state, monitors);
  EXPECT_TRUE(detector.Scan(ann.origin, paths, paths).empty());
}

TEST_P(DetectorProperties, VictimAwareRuleNoFalsePositiveWhenHonest) {
  // With the true announcement policy supplied, honest routing data never
  // triggers the victim-aware rule, even with per-neighbor differentiation.
  GeneratedTopology gen = MakeTopo(GetParam());
  bgp::PropagationSimulator sim(gen.graph);
  auto monitors = TopDegreeMonitors(gen.graph, 60);
  AsppDetector detector(&gen.graph);
  util::Rng rng(util::DeriveSeed(GetParam(), 78));

  Asn victim = gen.tier3[(GetParam() + 1) % gen.tier3.size()];
  bgp::Announcement ann;
  ann.origin = victim;
  ann.prepends.SetDefault(victim, 4);
  for (Asn provider : gen.graph.Providers(victim)) {
    if (rng.Chance(0.5)) {
      ann.prepends.SetForNeighbor(victim, provider,
                                  1 + static_cast<int>(rng.Below(4)));
    }
  }
  bgp::PropagationResult state = sim.Run(ann);
  MonitorPaths paths = PathsOf(state, monitors);
  std::vector<Alarm> alarms =
      detector.Scan(victim, paths, paths, &ann.prepends);
  EXPECT_TRUE(alarms.empty());
}

TEST_P(DetectorProperties, AttackAlarmsSurviveMonitorSubsets) {
  // If a monitor set detects the attack, any superset detects it too
  // (coverage is monotone) — checked on nested top-degree sets.
  GeneratedTopology gen = MakeTopo(GetParam());
  attack::AttackSimulator sim(gen.graph);
  Asn victim = gen.stubs[GetParam() % gen.stubs.size()];
  Asn attacker = gen.tier2[GetParam() % gen.tier2.size()];
  auto outcome = sim.RunAsppInterception(victim, attacker, 4);
  if (outcome.newly_polluted.empty()) return;
  DetectionConfig config;
  config.lambda = 4;
  bool detected_small =
      EvaluateDetectionOnOutcome(gen.graph, outcome,
                                 TopDegreeMonitors(gen.graph, 40), config)
          .detected;
  bool detected_large =
      EvaluateDetectionOnOutcome(gen.graph, outcome,
                                 TopDegreeMonitors(gen.graph, 160), config)
          .detected;
  if (detected_small) {
    EXPECT_TRUE(detected_large);
  }
}

TEST_P(DetectorProperties, WithholdingAttackerNeverFramesInnocents) {
  // Strategic attackers that withhold on random edges (uniform strip, no
  // poison): whenever the attacked state converges, every high-confidence
  // accusation must land inside the colluding set — withdrawn routes make
  // monitors reroute through innocent ASes, and none of those reroutes may
  // read as padding removal by the innocent AS. Checked undefended and under
  // a partial defense deployment (the filter changes which routes spread, not
  // the soundness of the witness rule).
  GeneratedTopology gen = MakeTopo(GetParam());
  attack::AttackSimulator sim(gen.graph);
  auto monitors = TopDegreeMonitors(gen.graph, 60);
  util::Rng rng(util::DeriveSeed(GetParam(), 81));

  for (int trial = 0; trial < 3; ++trial) {
    const Asn victim = gen.stubs[rng.Below(gen.stubs.size())];
    const Asn attacker = gen.tier2[rng.Below(gen.tier2.size())];
    if (victim == attacker) continue;
    const int lambda = 3 + static_cast<int>(rng.Below(3));
    strategy::DrawLimits limits;
    limits.allow_poison = false;  // poison frames by design; excluded here
    limits.allow_withhold = true;
    const std::vector<Asn> colluders{attacker};
    strategy::AttackerProgram program = strategy::DrawProgram(
        gen.graph, victim, colluders, lambda, limits, rng);

    bgp::Announcement ann;
    ann.origin = victim;
    ann.prepends.SetDefault(victim, lambda);
    const defense::DeploymentPlan plan = defense::DeploymentPlan::Make(
        gen.graph, defense::Strategy::kTopDegree, victim, attacker,
        GetParam());
    const defense::PolicySet deployment =
        plan.AtFraction(0.5, defense::kAllPolicies);

    for (const defense::PolicySet* filter :
         {static_cast<const defense::PolicySet*>(nullptr), &deployment}) {
      strategy::ProgramTransform transform(program);
      attack::AttackOutcome outcome = sim.RunTransform(
          ann, program.Colluders(), transform, filter);
      if (!outcome.converged) continue;  // cap snapshots void the oracle
      // Baseline monitor paths come from the shared attack-free state.
      MonitorPaths prev_paths = PathsOf(*outcome.before, monitors);
      MonitorPaths cur_paths;
      for (Asn m : monitors) {
        const auto& best = outcome.after.BestAt(m);
        if (best.has_value()) cur_paths.emplace_back(m, best->path);
      }
      check::Violations violations;
      check::Invariants::CheckStrategicAttack(
          gen.graph, program, outcome.after.Materialize(&transform, filter),
          prev_paths,
          cur_paths, outcome.converged, violations);
      EXPECT_TRUE(violations.empty())
          << "victim AS" << victim << " attacker AS" << attacker
          << (filter ? " (defended)" : " (undefended)");
      for (const std::string& violation : violations) {
        ADD_FAILURE() << violation;
      }
    }
  }
}

TEST(DetectorEvasion, WithholdingTowardMonitorsHidesTheAttack) {
  // The missed-detection face of withholding: an attacker that exports the
  // stripped route only downhill, withholding on every edge that leads
  // toward the vantage points, pollutes its customer cone while every
  // monitor's path is unchanged — the detector sees nothing, defended or
  // not. Hand-built so the outcome is exact:
  //
  //        3 ══ 2          (peers)
  //        │    │ \
  //        7    6  \       (AS6 under AS2; AS7 under AS3)
  //        │    │   \
  //        4    │    1     (victim, dual-homed under 2 and 3)
  //         \   │
  //          \  │
  //            5           (dual-homed under 4 and 6)
  topo::GraphBuilder b;
  b.AddLink(2, 1, topo::Relation::kCustomer);
  b.AddLink(3, 1, topo::Relation::kCustomer);
  b.AddLink(2, 3, topo::Relation::kPeer);
  b.AddLink(2, 6, topo::Relation::kCustomer);
  b.AddLink(3, 7, topo::Relation::kCustomer);
  b.AddLink(7, 4, topo::Relation::kCustomer);
  b.AddLink(4, 5, topo::Relation::kCustomer);
  b.AddLink(6, 5, topo::Relation::kCustomer);
  const topo::AsGraph graph = b.Freeze();

  // Victim AS1 pads ×3; AS5's honest best is the 5-hop route via AS6, not
  // the 6-hop route via the attacker AS4.
  bgp::Announcement ann;
  ann.origin = 1;
  ann.prepends.SetDefault(1, 3);
  strategy::AttackerProgram program(/*victim=*/1, {4});
  program.SetDefault(4, strategy::Directive{strategy::Send::kWithhold, 1, {}});
  program.SetForNeighbor(
      4, 5, strategy::Directive{strategy::Send::kAsCustomer, 1, {}});

  attack::AttackSimulator sim(graph);
  const std::vector<Asn> monitors{2, 3, 6, 7};
  const defense::DeploymentPlan plan = defense::DeploymentPlan::Make(
      graph, defense::Strategy::kTopDegree, 1, 4, /*seed=*/1);
  const defense::PolicySet deployment =
      plan.AtFraction(1.0, defense::kAllPolicies);

  for (const defense::PolicySet* filter :
       {static_cast<const defense::PolicySet*>(nullptr), &deployment}) {
    strategy::ProgramTransform transform(program);
    attack::AttackOutcome outcome =
        sim.RunTransform(ann, program.Colluders(), transform, filter);
    ASSERT_TRUE(outcome.converged);
    if (filter == nullptr) {
      // The stripped 4-hop route wins AS5 over: real interception happened.
      EXPECT_EQ(outcome.newly_polluted, std::vector<Asn>{5});
      ASSERT_TRUE(outcome.after.BestAt(5).has_value());
      EXPECT_EQ(outcome.after.BestAt(5)->path.ToString(), "4 7 3 1");
    }
    // Yet every monitor's path is byte-identical to the baseline, so the
    // detector has no signal at all — defended or not (a full deployment may
    // additionally block the stripped import at AS5, but it cannot conjure
    // a signal the monitors never receive).
    MonitorPaths prev_paths = PathsOf(*outcome.before, monitors);
    MonitorPaths cur_paths;
    for (Asn m : monitors) {
      const auto& best = outcome.after.BestAt(m);
      if (best.has_value()) cur_paths.emplace_back(m, best->path);
    }
    EXPECT_EQ(prev_paths, cur_paths);
    AsppDetector detector(&graph);
    EXPECT_TRUE(detector.Scan(1, prev_paths, cur_paths).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorProperties,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

}  // namespace
}  // namespace asppi::detect
