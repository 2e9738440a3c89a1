#include "infer/inference.h"

#include <gtest/gtest.h>

#include "detect/monitors.h"
#include "topology/builders.h"
#include "topology/generator.h"

namespace asppi::infer {
namespace {

using bgp::AsPath;

AsPath P(std::initializer_list<Asn> hops) {
  return AsPath(std::vector<Asn>(hops));
}

// --- InferredRelationships container ------------------------------------------

TEST(InferredRelationships, SetGetSymmetric) {
  InferredRelationships rels;
  rels.Set(10, 2, Relation::kCustomer);  // 2 is customer of 10
  EXPECT_EQ(rels.Get(10, 2), Relation::kCustomer);
  EXPECT_EQ(rels.Get(2, 10), Relation::kProvider);
  EXPECT_FALSE(rels.Get(1, 3).has_value());
}

TEST(InferredRelationships, ToGraph) {
  InferredRelationships rels;
  rels.Set(1, 2, Relation::kPeer);
  rels.Set(1, 3, Relation::kCustomer);
  topo::AsGraph g = rels.ToGraph();
  EXPECT_EQ(g.RelationOf(1, 2), Relation::kPeer);
  EXPECT_EQ(g.RelationOf(3, 1), Relation::kProvider);
}

// --- Gao on hand-built paths ------------------------------------------------------

TEST(Gao, OrientsProviderChains) {
  // Hub 10 has high degree; spokes announce through it.
  // Paths climb spoke → 10 → spoke.
  std::vector<AsPath> paths = {
      P({1, 10, 2}), P({1, 10, 3}), P({2, 10, 3}),
      P({4, 10, 1}), P({4, 10, 2}),
  };
  GaoParams params;
  params.peer_degree_ratio = 1.5;  // degree(10)=4 vs 2: not peers
  InferredRelationships rels = InferGao(paths, params);
  // 10 should be inferred as provider of each spoke it transits for.
  EXPECT_EQ(rels.Get(10, 1), Relation::kCustomer);
  EXPECT_EQ(rels.Get(10, 2), Relation::kCustomer);
  EXPECT_EQ(rels.Get(10, 3), Relation::kCustomer);
}

TEST(Gao, SeedsAreAuthoritative) {
  std::vector<AsPath> paths = {P({1, 10, 2}), P({3, 10, 2})};
  GaoParams params;
  params.seeds.emplace_back(10u, 2u, Relation::kPeer);
  InferredRelationships rels = InferGao(paths, params);
  EXPECT_EQ(rels.Get(10, 2), Relation::kPeer);
}

TEST(Gao, SiblingFromOpposingVotes) {
  // 5 and 6 transit for each other in equal measure → sibling.
  // Degrees: give both the same degree so tops alternate.
  std::vector<AsPath> paths = {
      P({1, 5, 6, 2}),  // top may be 5 or 6; orientation differs per path
      P({2, 6, 5, 1}),
  };
  GaoParams params;
  params.sibling_ratio = 1.0;
  params.peer_degree_ratio = 0.0;  // disable the peer heuristic
  InferredRelationships rels = InferGao(paths, params);
  EXPECT_EQ(rels.Get(5, 6), Relation::kSibling);
}

TEST(Gao, EmptyInput) {
  EXPECT_EQ(InferGao({}, GaoParams{}).Size(), 0u);
}

// --- end-to-end accuracy on ground truth ----------------------------------------------

topo::GeneratedTopology InferTopo(std::uint64_t seed) {
  topo::GeneratorParams params;
  params.seed = seed;
  params.num_tier1 = 6;
  params.num_tier2 = 30;
  params.num_tier3 = 80;
  params.num_stubs = 300;
  params.num_content = 5;
  return topo::GenerateInternetTopology(params);
}

class InferenceAccuracy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InferenceAccuracy, PipelineRecoversMostRelationships) {
  auto gen = InferTopo(GetParam());
  // Observe from many vantage points toward many origins.
  auto monitors = detect::TopDegreeMonitors(gen.graph, 60);
  std::vector<Asn> origins;
  for (std::size_t i = 0; i < gen.stubs.size(); i += 4) {
    origins.push_back(gen.stubs[i]);
  }
  for (Asn t2 : gen.tier2) origins.push_back(t2);
  std::vector<AsPath> paths = CollectPaths(gen.graph, monitors, origins);
  ASSERT_GT(paths.size(), 1000u);

  GaoParams params;
  // Seed with tier-1 peering links, as the paper does.
  for (std::size_t i = 0; i < gen.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < gen.tier1.size(); ++j) {
      params.seeds.emplace_back(gen.tier1[i], gen.tier1[j], Relation::kPeer);
    }
  }

  InferredRelationships gao = InferGao(paths, params);
  InferenceScore gao_score = Score(gao, gen.graph);
  EXPECT_GT(gao_score.evaluated, 400u);
  EXPECT_GT(gao_score.Accuracy(), 0.70) << "Gao accuracy";
  EXPECT_EQ(gao_score.spurious, 0u);  // paths only contain real links

  InferredRelationships consensus = InferConsensus(paths, params);
  InferenceScore consensus_score = Score(consensus, gen.graph);
  EXPECT_GT(consensus_score.Accuracy(), 0.70) << "consensus accuracy";
  // The consensus re-run should not do materially worse than plain Gao.
  EXPECT_GE(consensus_score.Accuracy() + 0.05, gao_score.Accuracy());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferenceAccuracy, ::testing::Values(41, 42));

TEST(CaidaLike, RecoversSomePeeringAndOrientsLinks) {
  // The CAIDA-like variant is the *secondary* engine (consensus diversity,
  // paper §IV-A); with sampled corpora at unit-test scale its inferred clique
  // may sit at richly-peered tier-2s rather than the true tier-1 core, so we
  // assert self-consistency and aggregate quality, not tier-1 recovery.
  auto gen = InferTopo(43);
  auto monitors = detect::TopDegreeMonitors(gen.graph, 50);
  std::vector<Asn> origins(gen.tier2.begin(), gen.tier2.end());
  for (std::size_t i = 0; i < gen.stubs.size(); i += 6) {
    origins.push_back(gen.stubs[i]);
  }
  std::vector<AsPath> paths = CollectPaths(gen.graph, monitors, origins);
  InferredRelationships caida = InferCaidaLike(paths);
  ASSERT_GT(caida.Size(), 100u);
  // Some true peer links are recovered as peers.
  std::size_t true_peers_recovered = 0;
  for (const auto& [pair, rel] : caida.Links()) {
    if (rel != Relation::kPeer) continue;
    if (gen.graph.RelationOf(pair.first, pair.second) == Relation::kPeer) {
      ++true_peers_recovered;
    }
  }
  EXPECT_GT(true_peers_recovered, 0u);
  // Aggregate orientation quality is well above chance.
  InferenceScore score = Score(caida, gen.graph);
  EXPECT_GT(score.Accuracy(), 0.6);
  EXPECT_EQ(score.spurious, 0u);
}

TEST(Score, CountsSpuriousAndMissed) {
  topo::GraphBuilder truth_builder;
  truth_builder.AddLink(1, 2, Relation::kPeer);
  truth_builder.AddLink(1, 3, Relation::kCustomer);
  topo::AsGraph truth = truth_builder.Freeze();
  InferredRelationships inferred;
  inferred.Set(1, 2, Relation::kPeer);      // correct
  inferred.Set(1, 4, Relation::kCustomer);  // spurious (AS4 unknown)
  InferenceScore score = Score(inferred, truth);
  EXPECT_EQ(score.evaluated, 1u);
  EXPECT_EQ(score.correct, 1u);
  EXPECT_EQ(score.spurious, 1u);
  EXPECT_EQ(score.missed, 1u);  // the 1-3 link was never inferred
}

TEST(CollectPaths, ProducesValidPaths) {
  auto gen = InferTopo(44);
  auto monitors = detect::TopDegreeMonitors(gen.graph, 10);
  const std::vector<topo::Asn> origins = {gen.stubs[0], gen.stubs[1]};
  std::vector<AsPath> paths = CollectPaths(gen.graph, monitors, origins);
  ASSERT_FALSE(paths.empty());
  for (const AsPath& path : paths) {
    EXPECT_FALSE(path.Empty());
    EXPECT_FALSE(path.HasLoop());
    // Consecutive distinct hops are real links.
    auto seq = path.DistinctSequence();
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      EXPECT_TRUE(gen.graph.HasLink(seq[i], seq[i + 1]));
    }
  }
}

}  // namespace
}  // namespace asppi::infer
