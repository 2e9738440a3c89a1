// The Resume oracle (attack::DiffAgainstResume) must catch every kind of
// corruption it claims to cover. Each case runs a real attack, checks that
// the honest outcome passes, then corrupts one field of a copy at a time —
// a fraction, newly_polluted, a reachable count, converged, one best route,
// one change round, the exports the Adj-RIB-In slots are derived from, the
// round count — and requires a difference line naming that field. Three
// attack shapes: a single attacker, a defended attack under a
// defense::PolicySet, and a two-colluder strategy::AttackerProgram (the
// any-colluder pollution path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "attack/interceptor.h"
#include "bgp/delta.h"
#include "defense/deployment.h"
#include "defense/policy.h"
#include "strategy/program.h"
#include "topology/generator.h"

namespace asppi::bgp {

// Reaches into a DeltaResult's overlay so a test can corrupt it.
class DeltaResultTestPeer {
 public:
  static int& Rounds(DeltaResult& result) { return result.rounds_; }
  // The overlay row of the smallest touched dense index, and that index.
  static DeltaRow& FirstRow(DeltaResult& result, std::size_t* index) {
    *index = result.touched_.front();
    return result.rows_.front();
  }
  // The first overlay row of an AS that did not export, and its index: an
  // AS whose best never changed but whose Adj-RIB-In did. Its best feeds no
  // slot, so corrupting it changes nothing else.
  static DeltaRow* FirstUnexportedRow(DeltaResult& result,
                                      std::size_t* index) {
    for (std::size_t p = 0; p < result.rows_.size(); ++p) {
      if (result.rows_[p].exported) continue;
      *index = result.touched_[p];
      return &result.rows_[p];
    }
    return nullptr;
  }
  // Marks every AS as not having exported: the Adj-RIB-In slots are then
  // derived as the baseline's.
  static void ForgetExports(DeltaResult& result) {
    for (DeltaRow& row : result.rows_) row.exported = false;
    result.seeds_.clear();
  }
};

}  // namespace asppi::bgp

namespace asppi::attack {
namespace {

using bgp::DeltaResultTestPeer;
using bgp::DeltaRow;
using bgp::Route;

using TransformFactory = std::function<std::unique_ptr<bgp::RouteTransform>()>;

// A present route becomes absent, an absent one becomes a default Route.
std::optional<Route> Flipped(const std::optional<Route>& route) {
  if (route.has_value()) return std::nullopt;
  return Route{};
}

struct Corruption {
  const char* field;  // must appear in the oracle's difference line
  std::function<void(AttackOutcome&)> apply;
};

std::vector<Corruption> AllCorruptions() {
  return {
      {"fraction_before",
       [](AttackOutcome& o) {
         o.fraction_before = std::nextafter(o.fraction_before, 2.0);
       }},
      {"fraction_after",
       [](AttackOutcome& o) {
         o.fraction_after = std::nextafter(o.fraction_after, 2.0);
       }},
      {"newly_polluted",
       [](AttackOutcome& o) { o.newly_polluted.push_back(o.victim); }},
      {"reachable_before", [](AttackOutcome& o) { ++o.reachable_before; }},
      {"reachable_after", [](AttackOutcome& o) { ++o.reachable_after; }},
      {"converged", [](AttackOutcome& o) { o.converged = !o.converged; }},
      {"best route",
       [](AttackOutcome& o) {
         std::size_t index = 0;
         DeltaRow* row = DeltaResultTestPeer::FirstUnexportedRow(o.after,
                                                                 &index);
         ASSERT_NE(row, nullptr);
         const std::optional<Route> now = o.after.BestAtIndex(index);
         row->best_set = true;
         row->best = Flipped(now);
       }},
      {"change round",
       [](AttackOutcome& o) {
         std::size_t index = 0;
         ++DeltaResultTestPeer::FirstRow(o.after, &index).first_change_round;
       }},
      {"Adj-RIB-In",
       [](AttackOutcome& o) { DeltaResultTestPeer::ForgetExports(o.after); }},
      {"rounds",
       [](AttackOutcome& o) { ++DeltaResultTestPeer::Rounds(o.after); }},
  };
}

void ExpectOracleCatchesEveryCorruption(const AttackOutcome& honest,
                                        const TransformFactory& transform,
                                        const bgp::ImportFilter* filter) {
  ASSERT_FALSE(honest.after.TouchedIndices().empty())
      << "the attack must move some state for the overlay corruptions";
  EXPECT_EQ(DiffAgainstResume(honest, *transform(), filter), "");
  for (const Corruption& corruption : AllCorruptions()) {
    SCOPED_TRACE(corruption.field);
    AttackOutcome corrupted = honest;
    corruption.apply(corrupted);
    const std::string diff = DiffAgainstResume(corrupted, *transform(), filter);
    EXPECT_NE(diff.find(corruption.field), std::string::npos) << diff;
  }
  // The corruptions worked on copies: the honest outcome still passes.
  EXPECT_EQ(DiffAgainstResume(honest, *transform(), filter), "");
}

topo::GeneratedTopology SmallInternet() {
  topo::GeneratorParams params;
  params.seed = 611;
  params.num_tier1 = 4;
  params.num_tier2 = 12;
  params.num_tier3 = 30;
  params.num_stubs = 120;
  params.num_content = 3;
  return topo::GenerateInternetTopology(params);
}

TransformFactory InterceptorFactory(Asn attacker, Asn victim) {
  return [attacker, victim] {
    AsppInterceptor::Config config;
    config.attacker = attacker;
    config.victim = victim;
    return std::make_unique<AsppInterceptor>(config);
  };
}

TEST(DiffAgainstResume, CatchesEveryCorruptionOfASingleAttacker) {
  const topo::GeneratedTopology gen = SmallInternet();
  const Asn victim = gen.stubs[3];
  const Asn attacker = gen.tier2[1];
  BaselineCache cache(gen.graph);
  const AttackSimulator sim(gen.graph, &cache);
  const AttackOutcome outcome = sim.RunAsppInterception(victim, attacker, 4);
  ASSERT_FALSE(outcome.newly_polluted.empty());
  ExpectOracleCatchesEveryCorruption(
      outcome, InterceptorFactory(attacker, victim), nullptr);
}

TEST(DiffAgainstResume, CatchesEveryCorruptionOfADefendedAttack) {
  const topo::GeneratedTopology gen = SmallInternet();
  const Asn victim = gen.stubs[3];
  const Asn attacker = gen.tier2[1];
  const defense::DeploymentPlan plan = defense::DeploymentPlan::Make(
      gen.graph, defense::Strategy::kTopDegree, victim, attacker, 1);
  const defense::PolicySet policy =
      plan.AtFraction(0.3, defense::kAllPolicies);
  BaselineCache cache(gen.graph);
  const AttackSimulator sim(gen.graph, &cache);
  const AttackOutcome outcome = sim.RunAsppInterception(
      victim, attacker, 4, /*violate_valley_free=*/false,
      /*export_stripped_to_peers=*/true, &policy);
  ExpectOracleCatchesEveryCorruption(
      outcome, InterceptorFactory(attacker, victim), &policy);
}

TEST(DiffAgainstResume, CatchesEveryCorruptionOfAColludingProgram) {
  const topo::GeneratedTopology gen = SmallInternet();
  const Asn victim = gen.stubs[5];
  std::vector<Asn> colluders{gen.tier1[0], gen.tier2[2]};
  std::sort(colluders.begin(), colluders.end());
  const strategy::AttackerProgram program(victim, colluders);
  bgp::Announcement announcement;
  announcement.origin = victim;
  announcement.prepends.SetDefault(victim, 4);
  BaselineCache cache(gen.graph);
  const AttackSimulator sim(gen.graph, &cache);
  strategy::ProgramTransform transform(program);
  const AttackOutcome outcome =
      sim.RunTransform(announcement, program.Colluders(), transform);
  ASSERT_EQ(outcome.colluders.size(), 2u);
  const TransformFactory program_transform = [&program] {
    return std::make_unique<strategy::ProgramTransform>(program);
  };
  ExpectOracleCatchesEveryCorruption(outcome, program_transform, nullptr);
}

}  // namespace
}  // namespace asppi::attack
