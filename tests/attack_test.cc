#include "attack/impact.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "attack/scenarios.h"
#include "topology/builders.h"
#include "topology/generator.h"

namespace asppi::attack {
namespace {

using topo::AsGraph;
using topo::Relation;

// --- the attack on the Facebook topology -----------------------------------

TEST(AsppAttack, SkTelecomStripsFacebookPads) {
  // Paper Section III, attack interpretation: SK Telecom (9318) removes two
  // of Facebook's five prepended ASNs; AT&T and NTT switch to the route
  // through Korea/China.
  AsGraph g = topo::FacebookAnomalyTopology();
  AttackSimulator sim(g);
  AttackOutcome outcome = sim.RunAsppInterception(
      topo::fb::kFacebook, topo::fb::kSkTelecom, /*lambda=*/5);

  const auto& att_best = outcome.after.BestAt(topo::fb::kAtt);
  ASSERT_TRUE(att_best.has_value());
  EXPECT_EQ(att_best->path.ToString(), "4134 9318 32934");
  const auto& ntt_best = outcome.after.BestAt(topo::fb::kNtt);
  ASSERT_TRUE(ntt_best.has_value());
  EXPECT_EQ(ntt_best->path.ToString(), "4134 9318 32934");

  // Before the attack nobody but China Telecom's branch traversed 9318.
  EXPECT_LT(outcome.fraction_before, outcome.fraction_after);
  // Level3 keeps its direct customer route.
  EXPECT_EQ(outcome.after.BestAt(topo::fb::kLevel3)->path.ToString(),
            "32934 32934 32934 32934 32934");
}

TEST(AsppAttack, NoPaddingMeansNoAdvantage) {
  // λ=1: there is nothing to strip; the attack is a no-op.
  AsGraph g = topo::FacebookAnomalyTopology();
  AttackSimulator sim(g);
  AttackOutcome outcome = sim.RunAsppInterception(
      topo::fb::kFacebook, topo::fb::kSkTelecom, /*lambda=*/1);
  EXPECT_DOUBLE_EQ(outcome.fraction_before, outcome.fraction_after);
  EXPECT_TRUE(outcome.newly_polluted.empty());
  EXPECT_EQ(outcome.after.BestAt(topo::fb::kAtt)->path.ToString(), "3356 32934");
}

TEST(AsppAttack, InterceptedTrafficStillReachesVictim) {
  // The defining property of interception vs blackholing: polluted ASes'
  // paths still terminate at the victim.
  AsGraph g = topo::FacebookAnomalyTopology();
  AttackSimulator sim(g);
  AttackOutcome outcome = sim.RunAsppInterception(
      topo::fb::kFacebook, topo::fb::kSkTelecom, 5);
  AsppInterceptor::Config config;
  config.attacker = topo::fb::kSkTelecom;
  config.victim = topo::fb::kFacebook;
  AsppInterceptor interceptor(config);
  const bgp::PropagationResult after = outcome.after.Materialize(&interceptor);
  for (Asn asn : after.AsesTraversing(topo::fb::kSkTelecom)) {
    EXPECT_EQ(after.BestAt(asn)->path.OriginAs(), topo::fb::kFacebook);
  }
}

TEST(AsppAttack, NoAnomalousLinksIntroduced) {
  // Every adjacent pair on every post-attack path is a real link — the
  // property that defeats link-anomaly detectors (paper §II-B).
  AsGraph g = topo::FacebookAnomalyTopology();
  AttackSimulator sim(g);
  AttackOutcome outcome = sim.RunAsppInterception(
      topo::fb::kFacebook, topo::fb::kSkTelecom, 5);
  for (Asn asn : g.Ases()) {
    const auto& best = outcome.after.BestAt(asn);
    if (!best) continue;
    std::vector<Asn> seq = best->path.DistinctSequence();
    // The receiving AS to the first hop is also a real link.
    if (!seq.empty()) {
      EXPECT_TRUE(g.HasLink(asn, seq.front()));
    }
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      EXPECT_TRUE(g.HasLink(seq[i], seq[i + 1]))
          << seq[i] << "-" << seq[i + 1];
    }
  }
}

TEST(AsppAttack, MoreLambdaNeverShrinksPollution) {
  // Monotonicity: pollution is non-decreasing in the victim's prepend count
  // (paper §VI-B-2: "the more hops being prepended ... larger chance").
  topo::GeneratorParams params;
  params.seed = 5;
  params.num_tier1 = 5;
  params.num_tier2 = 25;
  params.num_tier3 = 60;
  params.num_stubs = 200;
  params.num_content = 4;
  auto gen = topo::GenerateInternetTopology(params);
  AttackSimulator sim(gen.graph);
  Asn victim = gen.tier1[0];
  Asn attacker = gen.tier1[1];
  double prev = -1.0;
  for (int lambda = 1; lambda <= 6; ++lambda) {
    AttackOutcome outcome = sim.RunAsppInterception(victim, attacker, lambda);
    EXPECT_GE(outcome.fraction_after + 1e-9, prev) << "lambda=" << lambda;
    prev = outcome.fraction_after;
  }
}

TEST(AsppAttack, ViolatingPolicyAtLeastAsEffective) {
  topo::GeneratorParams params;
  params.seed = 6;
  params.num_tier1 = 5;
  params.num_tier2 = 25;
  params.num_tier3 = 60;
  params.num_stubs = 200;
  params.num_content = 4;
  auto gen = topo::GenerateInternetTopology(params);
  AttackSimulator sim(gen.graph);
  // A stub attacker: valley-free gives it almost no spread; violating does.
  Asn victim = gen.tier3[0];
  Asn attacker = gen.stubs[10];
  AttackOutcome obey = sim.RunAsppInterception(victim, attacker, 5, false);
  AttackOutcome violate = sim.RunAsppInterception(victim, attacker, 5, true);
  EXPECT_GE(violate.fraction_after + 1e-9, obey.fraction_after);
}

TEST(AsppAttack, AttackerEqualsVictimRejected) {
  AsGraph g = topo::PeerClique(3);
  AttackSimulator sim(g);
  EXPECT_DEATH(sim.RunAsppInterception(1, 1, 3), "differ");
}

TEST(AsppAttack, VictimWithNoPrependingUnaffectedEverywhere) {
  topo::GeneratorParams params;
  params.seed = 9;
  params.num_tier1 = 4;
  params.num_tier2 = 15;
  params.num_tier3 = 30;
  params.num_stubs = 80;
  params.num_content = 2;
  auto gen = topo::GenerateInternetTopology(params);
  AttackSimulator sim(gen.graph);
  AttackOutcome outcome =
      sim.RunAsppInterception(gen.tier2[0], gen.tier2[1], 1);
  // λ=1: all routes identical before and after.
  for (Asn asn : gen.graph.Ases()) {
    EXPECT_EQ(outcome.before->BestAt(asn), outcome.after.BestAt(asn));
  }
}

// --- baselines -----------------------------------------------------------------

TEST(OriginHijack, CreatesMoasAndBlackholes) {
  AsGraph g = topo::FacebookAnomalyTopology();
  AttackSimulator sim(g);
  AttackOutcome outcome =
      sim.RunOriginHijack(topo::fb::kFacebook, topo::fb::kSkTelecom, 5);
  // Polluted ASes now believe 9318 is the origin: blackholing.
  const auto& att_best = outcome.after.BestAt(topo::fb::kAtt);
  ASSERT_TRUE(att_best.has_value());
  EXPECT_EQ(att_best->path.OriginAs(), topo::fb::kSkTelecom);
}

TEST(BallaniInterception, FabricatesLink) {
  AsGraph g = topo::FacebookAnomalyTopology();
  AttackSimulator sim(g);
  // NTT intercepts Facebook by announcing the fabricated [2914 32934].
  AttackOutcome outcome = sim.RunBallaniInterception(
      topo::fb::kFacebook, topo::fb::kNtt, 5);
  const auto& att_best = outcome.after.BestAt(topo::fb::kAtt);
  ASSERT_TRUE(att_best.has_value());
  EXPECT_EQ(att_best->path.ToString(), "2914 32934");
  // The fabricated NTT-Facebook edge does not exist in the topology.
  EXPECT_FALSE(g.HasLink(topo::fb::kNtt, topo::fb::kFacebook));
}

TEST(Baselines, AsppVsBallaniRelativeStrength) {
  // Ballani interception shortens more aggressively (arbitrary AS dropping),
  // so its pollution should be at least that of the ASPP attack.
  topo::GeneratorParams params;
  params.seed = 12;
  params.num_tier1 = 5;
  params.num_tier2 = 20;
  params.num_tier3 = 50;
  params.num_stubs = 150;
  params.num_content = 3;
  auto gen = topo::GenerateInternetTopology(params);
  AttackSimulator sim(gen.graph);
  Asn victim = gen.tier2[0];
  Asn attacker = gen.tier2[5];
  double aspp =
      sim.RunAsppInterception(victim, attacker, 3).fraction_after;
  double ballani =
      sim.RunBallaniInterception(victim, attacker, 3).fraction_after;
  EXPECT_GE(ballani + 1e-9, aspp);
}

// --- scenarios -------------------------------------------------------------------

topo::GeneratedTopology SmallTopo(std::uint64_t seed) {
  topo::GeneratorParams params;
  params.seed = seed;
  params.num_tier1 = 6;
  params.num_tier2 = 30;
  params.num_tier3 = 80;
  params.num_stubs = 250;
  params.num_content = 5;
  return topo::GenerateInternetTopology(params);
}

TEST(Scenarios, Tier1PairsAreTier1AndDistinct) {
  auto gen = SmallTopo(1);
  auto pairs = SampleTier1Pairs(gen, 20, 7);
  EXPECT_EQ(pairs.size(), 20u);
  for (const auto& [a, v] : pairs) {
    EXPECT_NE(a, v);
    EXPECT_TRUE(std::find(gen.tier1.begin(), gen.tier1.end(), a) !=
                gen.tier1.end());
    EXPECT_TRUE(std::find(gen.tier1.begin(), gen.tier1.end(), v) !=
                gen.tier1.end());
  }
}

TEST(Scenarios, Tier1PairsCappedByPopulation) {
  auto gen = SmallTopo(1);
  auto pairs = SampleTier1Pairs(gen, 1000, 7);
  EXPECT_EQ(pairs.size(), 6u * 5u);  // all ordered pairs
}

TEST(Scenarios, RandomPairsDeterministic) {
  auto gen = SmallTopo(2);
  auto a = SampleRandomPairs(gen, 30, 11);
  auto b = SampleRandomPairs(gen, 30, 11);
  EXPECT_EQ(a, b);
  for (const auto& [x, y] : a) EXPECT_NE(x, y);
}

TEST(Scenarios, ArchetypesPickExpectedRoles) {
  auto gen = SmallTopo(3);
  auto t1t1 = Tier1VsTier1(gen);
  EXPECT_NE(t1t1.attacker, t1t1.victim);
  auto t1c = Tier1VsContent(gen);
  EXPECT_TRUE(std::find(gen.tier3.begin(), gen.tier3.end(), t1c.victim) !=
              gen.tier3.end());
  auto small = SmallVsSmall(gen);
  EXPECT_NE(small.attacker, small.victim);
}

TEST(Scenarios, EngineeredFig11ChainExists) {
  auto gen = SmallTopo(4);
  auto scenario = EngineerContentVsTier1(gen);
  const AsGraph& g = gen.graph;
  // The victim has a sibling that is a customer of the attacker.
  bool chain_found = false;
  for (Asn sibling : g.Siblings(scenario.victim)) {
    if (g.RelationOf(scenario.attacker, sibling) == Relation::kCustomer) {
      chain_found = true;
    }
  }
  EXPECT_TRUE(chain_found);
  // And the attacker has at least one provider.
  EXPECT_FALSE(g.Providers(scenario.attacker).empty());
}

TEST(Scenarios, EngineeredFig11AttackSpreadsValleyFree) {
  // The paper's surprise: a small content AS intercepts a tier-1 while
  // obeying valley-free export, thanks to the sibling chain.
  auto gen = SmallTopo(5);
  auto scenario = EngineerContentVsTier1(gen);
  AttackSimulator sim(gen.graph);
  AttackOutcome outcome = sim.RunAsppInterception(scenario.victim,
                                                  scenario.attacker,
                                                  /*lambda=*/6, false);
  EXPECT_GT(outcome.fraction_after, 0.10)
      << "engineered chain should spread the stripped route widely";
}

// --- pair sweep -----------------------------------------------------------------

TEST(PairSweep, SortedByImpact) {
  auto gen = SmallTopo(6);
  auto pairs = SampleTier1Pairs(gen, 10, 3);
  PairSweepOptions options;
  options.lambda = 3;
  auto results = RunPairSweep(gen.graph, pairs, options);
  ASSERT_EQ(results.size(), 10u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].after + 1e-12, results[i].after);
  }
}

}  // namespace
}  // namespace asppi::attack

namespace asppi::attack {
namespace {

// Paper §II-B: "the prepending is not limited to the origin AS" — the
// attacker may strip an *intermediary* prepender's padding instead.
TEST(AsppAttack, StripsIntermediaryPrepending) {
  // Chain 4←3←2←1 (providers above); AS2 pads its own ASN 4x on export.
  // AS4's normal route: [3 2 2 2 2 1]. Attacker AS3... AS3 is on-path
  // already; use a side route: add AS5 as a second provider of AS1 and a
  // customer of AS4, so AS4 chooses between the padded chain and AS5.
  topo::GraphBuilder b = topo::ProviderChain(4).ToBuilder();
  b.AddLink(4, 5, topo::Relation::kCustomer);   // 5 under 4
  b.AddLink(5, 1, topo::Relation::kCustomer);   // 1 also under 5
  topo::AsGraph g = b.Freeze();
  bgp::Announcement ann;
  ann.origin = 1;
  ann.prepends.SetDefault(2, 4);  // intermediary prepending by AS2

  // Without an attack AS4 prefers the unpadded branch via 5.
  const bgp::PropagationSimulator engine(g);
  AsppInterceptor::Config config;
  config.attacker = 3;
  config.victim = 1;
  config.padded_as = 2;  // strip the intermediary's pads, not the origin's
  AsppInterceptor interceptor(config);
  bgp::PropagationResult before = engine.Run(ann);
  EXPECT_EQ(before.BestAt(4)->path.ToString(), "5 1");
  EXPECT_EQ(before.BestAt(3)->path.ToString(), "2 2 2 2 1");

  bgp::PropagationResult after = engine.Resume(before, &interceptor, {3});
  // AS3 re-announces [3 2 1] (3 hops incl. itself); AS4 compares its
  // customer routes [5 1] (2) vs [3 2 1] (3) and keeps the short one, but
  // AS3's own customers switch to the stripped route.
  EXPECT_EQ(after.BestAt(4)->path.ToString(), "5 1");
  // Deeper check: the stripped route no longer carries AS2's padding.
  const auto& at3 = after.BestAt(3);
  ASSERT_TRUE(at3.has_value());
  EXPECT_EQ(at3->path.MaxRunOf(2), 4);  // attacker's own RIB keeps the pads
}

// --- λ recording with per-neighbor policies ---------------------------------

TEST(AttackOutcomeLambda, PerNeighborOverridesUseRealNeighborMax) {
  // Victim 100's only neighbors are providers 11 and 12 (DualHomedStub).
  // Once both carry overrides below the default, the default 6 is dead
  // configuration: the recorded λ must be the strongest padding an on-path
  // attacker can actually strip (4), not the configured maximum.
  AsGraph g = topo::DualHomedStub();
  AttackSimulator sim(g);
  bgp::Announcement ann;
  ann.origin = 100;
  ann.prepends.SetDefault(100, 6);
  ann.prepends.SetForNeighbor(100, 11, 3);
  ann.prepends.SetForNeighbor(100, 12, 4);
  AttackOutcome outcome = sim.RunAsppInterceptionWithPolicy(ann, 12);
  EXPECT_EQ(outcome.lambda, 4);
  EXPECT_EQ(ann.prepends.MaxPadsOf(100), 6);  // config max still overstates
}

TEST(AttackOutcomeLambda, LiveDefaultStillCounts) {
  // Only neighbor 11 is overridden; 12 falls back to the default 6, so the
  // default is genuinely announced and stays the recorded maximum.
  AsGraph g = topo::DualHomedStub();
  AttackSimulator sim(g);
  bgp::Announcement ann;
  ann.origin = 100;
  ann.prepends.SetDefault(100, 6);
  ann.prepends.SetForNeighbor(100, 11, 3);
  AttackOutcome outcome = sim.RunAsppInterceptionWithPolicy(ann, 12);
  EXPECT_EQ(outcome.lambda, 6);
}

// --- multi-colluder RunTransform --------------------------------------------

namespace {

// Minimal two-colluder interceptor: every listed colluder collapses the
// victim's padding on export. Lives here rather than in attack:: because the
// production multi-colluder path goes through strategy::ProgramTransform.
class StripAtColluders final : public bgp::RouteTransform {
 public:
  StripAtColluders(std::vector<Asn> colluders, Asn victim)
      : colluders_(std::move(colluders)), victim_(victim) {}
  bgp::ExportAction OnExport(Asn exporter, Asn, Relation, Relation,
                             bgp::AsPath& path) override {
    if (std::binary_search(colluders_.begin(), colluders_.end(), exporter)) {
      path.CollapseRunsOf(victim_);
    }
    return bgp::ExportAction::kDefault;
  }
  bool MightOverride(Asn) const override { return false; }

 private:
  std::vector<Asn> colluders_;
  Asn victim_;
};

}  // namespace

TEST(MultiColluderTransform, OutcomeRecordsColludersAndAnyColluderPollution) {
  AsGraph g = topo::FacebookAnomalyTopology();
  AttackSimulator sim(g);
  bgp::Announcement ann;
  ann.origin = topo::fb::kFacebook;
  ann.prepends.SetDefault(topo::fb::kFacebook, 5);
  const std::vector<Asn> colluders{topo::fb::kChinaTelecom,
                                   topo::fb::kSkTelecom};
  StripAtColluders transform(colluders, topo::fb::kFacebook);
  AttackOutcome outcome = sim.RunTransform(ann, colluders, transform);
  EXPECT_EQ(outcome.victim, topo::fb::kFacebook);
  EXPECT_EQ(outcome.attacker, topo::fb::kChinaTelecom);  // first colluder
  EXPECT_EQ(outcome.colluders, colluders);
  EXPECT_EQ(outcome.lambda, 5);
  EXPECT_TRUE(outcome.converged);
  // The fraction counts ASes (outside the colluder set and the victim)
  // whose best path traverses *any* colluder, over a denominator that
  // excludes all colluders — recompute it by hand from the converged RIB.
  std::size_t traversing = 0;
  std::size_t counted = 0;
  for (Asn asn : g.Ases()) {
    if (asn == topo::fb::kFacebook ||
        std::binary_search(colluders.begin(), colluders.end(), asn)) {
      continue;
    }
    ++counted;
    const auto& best = outcome.after.BestAt(asn);
    if (best.has_value() && (best->path.Contains(topo::fb::kChinaTelecom) ||
                             best->path.Contains(topo::fb::kSkTelecom))) {
      ++traversing;
    }
  }
  EXPECT_GT(outcome.fraction_after, 0.0);
  EXPECT_DOUBLE_EQ(outcome.fraction_after,
                   static_cast<double>(traversing) /
                       static_cast<double>(counted));
  for (Asn polluted : outcome.newly_polluted) {
    const auto& best = outcome.after.BestAt(polluted);
    ASSERT_TRUE(best.has_value());
    EXPECT_TRUE(best->path.Contains(topo::fb::kChinaTelecom) ||
                best->path.Contains(topo::fb::kSkTelecom));
  }
}

TEST(AsppAttack, StripTargetDefaultsToVictim) {
  AsppInterceptor::Config config;
  config.attacker = 9;
  config.victim = 7;
  AsppInterceptor interceptor(config);
  EXPECT_EQ(interceptor.StripTarget(), 7u);
  config.padded_as = 5;
  AsppInterceptor interceptor2(config);
  EXPECT_EQ(interceptor2.StripTarget(), 5u);
}

}  // namespace
}  // namespace asppi::attack
