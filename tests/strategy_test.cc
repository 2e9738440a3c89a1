// The strategy subsystem: AttackerProgram semantics (the paper model as a
// point of the space, partial strips, withholding, poison validation),
// DrawProgram's fuzzer contract, and the beam search's acceptance properties
// — optimizer dominance over the paper model on every fixture and generated
// topology, thread-count invariance, and bit-identity with the Resume oracle
// on every searched program.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "attack/impact.h"
#include "strategy/program.h"
#include "strategy/search.h"
#include "topology/builders.h"
#include "topology/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace asppi::strategy {
namespace {

using attack::AttackOutcome;
using attack::AttackSimulator;
using topo::AsGraph;

// Both states must agree on every AS's best route.
template <typename ViewA, typename ViewB>
void ExpectSameBestRoutes(const AsGraph& graph, const ViewA& a,
                          const ViewB& b) {
  for (Asn asn : graph.Ases()) {
    EXPECT_EQ(a.BestAt(asn), b.BestAt(asn)) << "AS" << asn;
  }
}

bgp::Announcement UniformAnnouncement(Asn victim, int lambda) {
  bgp::Announcement ann;
  ann.origin = victim;
  ann.prepends.SetDefault(victim, lambda);
  return ann;
}

// --- the paper model as a point of the program space -----------------------

TEST(Program, PaperModelMatchesInterceptorOnFacebook) {
  // PaperModel() compiled through ProgramTransform must land in exactly the
  // state attack::AsppInterceptor produces — the program space contains the
  // paper's attacker, it does not approximate it.
  AsGraph g = topo::FacebookAnomalyTopology();
  AttackSimulator sim(g);
  AttackOutcome classic = sim.RunAsppInterception(
      topo::fb::kFacebook, topo::fb::kSkTelecom, /*lambda=*/5);

  AttackerProgram program =
      AttackerProgram::PaperModel(topo::fb::kFacebook, topo::fb::kSkTelecom);
  ProgramTransform transform(program);
  AttackOutcome programmed =
      sim.RunTransform(UniformAnnouncement(topo::fb::kFacebook, 5),
                       program.Colluders(), transform);

  ExpectSameBestRoutes(g, classic.after, programmed.after);
  EXPECT_DOUBLE_EQ(classic.fraction_after, programmed.fraction_after);
  EXPECT_EQ(classic.newly_polluted, programmed.newly_polluted);
  EXPECT_EQ(programmed.lambda, 5);
  EXPECT_TRUE(programmed.converged);
}

TEST(Program, PaperModelMatchesInterceptorAllExportModes) {
  // All three of the interceptor's export modes: policy-obeying, stripped-to-
  // peers (customer masquerade), and valley-violating with adopt-best.
  topo::GeneratorParams params;
  params.seed = 21;
  params.num_tier1 = 4;
  params.num_tier2 = 12;
  params.num_tier3 = 30;
  params.num_stubs = 90;
  params.num_content = 2;
  auto gen = topo::GenerateInternetTopology(params);
  AttackSimulator sim(gen.graph);
  const Asn victim = gen.tier2[0];
  const Asn attacker = gen.tier2[3];
  const std::vector<std::pair<bool, bool>> modes{
      {false, true}, {false, false}, {true, true}};
  for (const auto& [violate, to_peers] : modes) {
    AttackOutcome classic =
        sim.RunAsppInterception(victim, attacker, 4, violate, to_peers);
    AttackerProgram program =
        AttackerProgram::PaperModel(victim, attacker, violate, to_peers);
    ProgramTransform transform(program);
    AttackOutcome programmed = sim.RunTransform(
        UniformAnnouncement(victim, 4), program.Colluders(), transform);
    ExpectSameBestRoutes(gen.graph, classic.after, programmed.after);
    EXPECT_DOUBLE_EQ(classic.fraction_after, programmed.fraction_after)
        << "violate=" << violate << " to_peers=" << to_peers;
  }
}

TEST(Program, WithholdEverywhereKeepsPollutionAtZero) {
  // A colluder that withholds on every edge exports nothing, so no AS can
  // route through it: pollution is exactly zero (withdrawn routes re-route
  // around the attacker, never through it).
  AsGraph g = topo::FacebookAnomalyTopology();
  AttackSimulator sim(g);
  AttackerProgram program(topo::fb::kFacebook, {topo::fb::kSkTelecom});
  program.SetDefault(topo::fb::kSkTelecom,
                     Directive{Send::kWithhold, 1, {}});
  ProgramTransform transform(program);
  AttackOutcome outcome =
      sim.RunTransform(UniformAnnouncement(topo::fb::kFacebook, 5),
                       program.Colluders(), transform);
  EXPECT_DOUBLE_EQ(outcome.fraction_after, 0.0);
  EXPECT_TRUE(outcome.newly_polluted.empty());
  EXPECT_TRUE(outcome.converged);
}

TEST(Program, PartialStripBoundedByFullStrip) {
  // strip_to = λ−1 (shave one pad per run) pollutes no more than the paper's
  // full strip, and no less than not attacking at all.
  AsGraph g = topo::FacebookAnomalyTopology();
  AttackSimulator sim(g);
  AttackOutcome full = sim.RunAsppInterception(topo::fb::kFacebook,
                                               topo::fb::kSkTelecom, 5);

  AttackerProgram stealth(topo::fb::kFacebook, {topo::fb::kSkTelecom});
  stealth.SetDefault(topo::fb::kSkTelecom,
                     Directive{Send::kAsCustomer, 4, {}});
  ProgramTransform transform(stealth);
  AttackOutcome partial =
      sim.RunTransform(UniformAnnouncement(topo::fb::kFacebook, 5),
                       stealth.Colluders(), transform);
  EXPECT_LE(partial.fraction_after, full.fraction_after + 1e-12);
  EXPECT_GE(partial.fraction_after + 1e-12, full.fraction_before);
}

// --- program structure ------------------------------------------------------

TEST(Program, KeyStringCanonicalAndDistinguishing) {
  AttackerProgram a(100, {9, 3});
  AttackerProgram b(100, {3, 9});  // same set, different spelling
  EXPECT_EQ(a.KeyString(), b.KeyString());
  EXPECT_EQ(a.Colluders(), (std::vector<Asn>{3, 9}));

  AttackerProgram c(100, {3, 9});
  c.SetForNeighbor(3, 7, Directive{Send::kWithhold, 1, {}});
  EXPECT_NE(a.KeyString(), c.KeyString());
  AttackerProgram d(100, {3, 9});
  d.SetAdoptBestStripped(true);
  EXPECT_NE(a.KeyString(), d.KeyString());
}

TEST(Program, UniformStripPerColluderDetectsDifferentialStripping) {
  AttackerProgram program(100, {3, 9});
  EXPECT_TRUE(program.UniformStripPerColluder());
  // Distinct strip_to on different colluders is still uniform per colluder.
  program.SetDefault(3, Directive{Send::kAsCustomer, 2, {}});
  EXPECT_TRUE(program.UniformStripPerColluder());
  // Send/withhold overrides that keep the colluder's strip_to stay uniform.
  program.SetForNeighbor(3, 7, Directive{Send::kWithhold, 2, {}});
  EXPECT_TRUE(program.UniformStripPerColluder());
  // A per-neighbor override with a different strip_to breaks it.
  program.SetForNeighbor(3, 8, Directive{Send::kAsCustomer, 1, {}});
  EXPECT_FALSE(program.UniformStripPerColluder());
}

TEST(Program, UsesPoisonScansDefaultsAndOverrides) {
  AttackerProgram program(100, {3});
  EXPECT_FALSE(program.UsesPoison());
  program.SetForNeighbor(3, 7, Directive{Send::kAsCustomer, 1, {42}});
  EXPECT_TRUE(program.UsesPoison());

  AttackerProgram defaulted(100, {3});
  defaulted.SetDefault(3, Directive{Send::kAsCustomer, 1, {42}});
  EXPECT_TRUE(defaulted.UsesPoison());
}

TEST(Program, PoisonListMustNotContainVictimOrColluders) {
  AttackerProgram program(100, {3, 9});
  EXPECT_DEATH(
      program.SetDefault(3, Directive{Send::kAsCustomer, 1, {100}}), "");
  EXPECT_DEATH(
      program.SetForNeighbor(3, 7, Directive{Send::kAsCustomer, 1, {9}}), "");
}

TEST(Program, DescribeRendersEveryDirective) {
  AttackerProgram program(100, {3});
  program.SetForNeighbor(3, 7, Directive{Send::kWithhold, 1, {}});
  const std::string text = Describe(program);
  EXPECT_NE(text.find("AS3"), std::string::npos) << text;
  EXPECT_NE(text.find(SendName(Send::kWithhold)), std::string::npos) << text;
}

// --- DrawProgram (the fuzzer's generator) -----------------------------------

TEST(Draw, ProgramsAreValidAndUniformStrip) {
  topo::GeneratorParams params;
  params.seed = 31;
  params.num_tier1 = 3;
  params.num_tier2 = 8;
  params.num_tier3 = 15;
  params.num_stubs = 40;
  auto gen = topo::GenerateInternetTopology(params);
  const Asn victim = gen.tier3[0];
  std::vector<Asn> colluders{gen.tier1[0], gen.tier2[1]};
  std::sort(colluders.begin(), colluders.end());
  DrawLimits limits;
  util::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    AttackerProgram program =
        DrawProgram(gen.graph, victim, colluders, /*lambda=*/5, limits, rng);
    EXPECT_EQ(program.Victim(), victim);
    EXPECT_EQ(program.Colluders(), colluders);
    // The fuzzer's accusation oracle requires uniform-per-colluder strips.
    EXPECT_TRUE(program.UniformStripPerColluder());
    for (const auto& [colluder, directive] : program.Defaults()) {
      // 0 = leave the padding untouched; positive values trim to ≤ λ copies.
      EXPECT_GE(directive.strip_to, 0);
      EXPECT_LE(directive.strip_to, 5);
    }
    auto check_poison = [&](const Directive& directive) {
      for (Asn poisoned : directive.poison) {
        EXPECT_TRUE(gen.graph.HasAs(poisoned));
        EXPECT_NE(poisoned, victim);
        EXPECT_FALSE(program.IsColluder(poisoned));
      }
    };
    for (const auto& [colluder, directive] : program.Defaults()) {
      check_poison(directive);
    }
    for (const auto& [edge, directive] : program.Overrides()) {
      check_poison(directive);
    }
  }
}

TEST(Draw, DeterministicInRngState) {
  topo::GeneratorParams params;
  params.seed = 32;
  params.num_tier1 = 3;
  params.num_tier2 = 8;
  params.num_tier3 = 15;
  params.num_stubs = 40;
  auto gen = topo::GenerateInternetTopology(params);
  const std::vector<Asn> colluders{gen.tier1[1]};
  DrawLimits limits;
  util::Rng a(99), b(99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(
        DrawProgram(gen.graph, gen.tier3[2], colluders, 4, limits, a)
            .KeyString(),
        DrawProgram(gen.graph, gen.tier3[2], colluders, 4, limits, b)
            .KeyString());
  }
}

// --- search: optimizer dominance --------------------------------------------

// One dominance check: the beam's best must never score below the paper
// model (which seeds the beam), and with verify_engines every scored
// program's full attacked state must match the Resume oracle bit for bit.
void ExpectDominates(const AsGraph& graph, Asn victim, Asn attacker,
                     int lambda) {
  SearchOptions options;
  options.lambda = lambda;
  options.beam_width = 3;
  options.rounds = 2;
  options.max_neighbors = 6;
  options.verify_engines = true;
  const Search search(graph, options);
  const SearchResult result = search.Run(victim, attacker);
  EXPECT_GE(result.gap, 0.0) << "AS" << attacker << " vs AS" << victim;
  EXPECT_GE(result.best.fraction_after, result.paper_after - 1e-12);
  EXPECT_EQ(result.engine_mismatches, 0u);
  EXPECT_GT(result.programs_scored, 0u);
}

TEST(Search, DominatesPaperModelOnFixtures) {
  // All five named fixtures; victim/attacker picked so the route actually
  // transits the attacker somewhere in the space.
  ExpectDominates(topo::ProviderChain(6), /*victim=*/1, /*attacker=*/3, 4);
  ExpectDominates(topo::PeerClique(5), 1, 3, 4);
  ExpectDominates(topo::ProviderStar(6), 2, 1, 4);
  ExpectDominates(topo::DualHomedStub(), 100, 12, 4);
  ExpectDominates(topo::FacebookAnomalyTopology(), topo::fb::kFacebook,
                  topo::fb::kSkTelecom, 5);
}

TEST(Search, DominatesPaperModelOnGeneratedTopologies) {
  for (std::uint64_t seed : {41u, 42u, 43u}) {
    topo::GeneratorParams params;
    params.seed = seed;
    params.num_tier1 = 3;
    params.num_tier2 = 10;
    params.num_tier3 = 25;
    params.num_stubs = 80;
    params.num_content = 2;
    auto gen = topo::GenerateInternetTopology(params);
    ExpectDominates(gen.graph, gen.tier2[0], gen.tier1[seed % 3], 4);
  }
}

TEST(Search, ColludingSetDominatesAndRecordsColluders) {
  topo::GeneratorParams params;
  params.seed = 44;
  params.num_tier1 = 3;
  params.num_tier2 = 10;
  params.num_tier3 = 25;
  params.num_stubs = 80;
  auto gen = topo::GenerateInternetTopology(params);
  std::vector<Asn> colluders{gen.tier1[0], gen.tier2[2]};
  std::sort(colluders.begin(), colluders.end());
  SearchOptions options;
  options.lambda = 4;
  options.beam_width = 3;
  options.rounds = 1;
  options.max_neighbors = 4;
  const Search search(gen.graph, options);
  const SearchResult result = search.Run(gen.tier3[1], colluders);
  EXPECT_GE(result.gap, 0.0);
  EXPECT_EQ(result.best.program.Colluders(), colluders);
}

// --- search: determinism ----------------------------------------------------

TEST(Search, ThreadCountInvariant) {
  // Same topology, same options: the serial search and an 8-thread pool must
  // select the identical best program with bit-equal fractions.
  topo::GeneratorParams params;
  params.seed = 51;
  params.num_tier1 = 4;
  params.num_tier2 = 12;
  params.num_tier3 = 30;
  params.num_stubs = 90;
  auto gen = topo::GenerateInternetTopology(params);
  SearchOptions serial;
  serial.lambda = 4;
  serial.beam_width = 4;
  serial.rounds = 2;
  serial.max_neighbors = 8;

  SearchOptions pooled = serial;
  util::ThreadPool pool(8);
  pooled.pool = &pool;

  const SearchResult a =
      Search(gen.graph, serial).Run(gen.tier2[1], gen.tier1[0]);
  const SearchResult b =
      Search(gen.graph, pooled).Run(gen.tier2[1], gen.tier1[0]);
  EXPECT_EQ(a.best.program.KeyString(), b.best.program.KeyString());
  EXPECT_EQ(a.best.fraction_after, b.best.fraction_after);
  EXPECT_EQ(a.paper_after, b.paper_after);
  EXPECT_EQ(a.programs_scored, b.programs_scored);
}

TEST(Search, SharedBaselineCacheDoesNotChangeTheAnswer) {
  AsGraph g = topo::FacebookAnomalyTopology();
  SearchOptions plain;
  plain.lambda = 5;
  plain.beam_width = 3;
  plain.rounds = 1;
  SearchOptions cached = plain;
  attack::BaselineCache cache(g);
  cached.baseline_cache = &cache;
  const SearchResult a =
      Search(g, plain).Run(topo::fb::kFacebook, topo::fb::kSkTelecom);
  const SearchResult b =
      Search(g, cached).Run(topo::fb::kFacebook, topo::fb::kSkTelecom);
  EXPECT_EQ(a.best.program.KeyString(), b.best.program.KeyString());
  EXPECT_EQ(a.best.fraction_after, b.best.fraction_after);
  EXPECT_GT(cache.Size(), 0u);
}

}  // namespace
}  // namespace asppi::strategy
