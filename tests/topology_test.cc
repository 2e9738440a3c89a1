#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "attack/interceptor.h"
#include "bgp/delta.h"
#include "bgp/propagation.h"
#include "defense/policy.h"
#include "topology/as_graph.h"
#include "topology/builders.h"
#include "topology/generator.h"
#include "topology/serialization.h"
#include "topology/tiers.h"
#include "util/crc32.h"

namespace asppi::topo {
namespace {

template <typename R>
std::vector<Asn> ToVec(R&& r) {
  return std::vector<Asn>(r.begin(), r.end());
}

// --- Relation ------------------------------------------------------------

TEST(Relation, ReverseIsInvolution) {
  for (Relation r : {Relation::kCustomer, Relation::kPeer, Relation::kProvider,
                     Relation::kSibling}) {
    EXPECT_EQ(Reverse(Reverse(r)), r);
  }
  EXPECT_EQ(Reverse(Relation::kCustomer), Relation::kProvider);
  EXPECT_EQ(Reverse(Relation::kPeer), Relation::kPeer);
  EXPECT_EQ(Reverse(Relation::kSibling), Relation::kSibling);
}

TEST(Relation, ParseNames) {
  Relation r;
  EXPECT_TRUE(ParseRelation("customer", r));
  EXPECT_EQ(r, Relation::kCustomer);
  EXPECT_TRUE(ParseRelation("sibling", r));
  EXPECT_EQ(r, Relation::kSibling);
  EXPECT_FALSE(ParseRelation("frenemy", r));
}

// --- GraphBuilder / AsGraph -------------------------------------------------

TEST(GraphBuilder, AddLinkCreatesBothDirections) {
  GraphBuilder b;
  b.AddLink(1, 2, Relation::kCustomer);  // 2 is customer of 1
  EXPECT_EQ(b.RelationOf(1, 2), Relation::kCustomer);
  EXPECT_EQ(b.RelationOf(2, 1), Relation::kProvider);
  AsGraph g = b.Freeze();
  EXPECT_EQ(g.RelationOf(1, 2), Relation::kCustomer);
  EXPECT_EQ(g.RelationOf(2, 1), Relation::kProvider);
  EXPECT_EQ(g.NumAses(), 2u);
  EXPECT_EQ(g.NumLinks(), 1u);
}

TEST(GraphBuilder, IdempotentReAdd) {
  GraphBuilder b;
  b.AddLink(1, 2, Relation::kPeer);
  b.AddLink(1, 2, Relation::kPeer);
  b.AddLink(2, 1, Relation::kPeer);
  EXPECT_EQ(b.NumLinks(), 1u);
  EXPECT_EQ(b.Freeze().NumLinks(), 1u);
}

TEST(AsGraph, RoleQueries) {
  GraphBuilder b;
  b.AddLink(10, 1, Relation::kCustomer);
  b.AddLink(10, 2, Relation::kCustomer);
  b.AddLink(10, 20, Relation::kPeer);
  b.AddLink(30, 10, Relation::kCustomer);  // 30 provides for 10
  b.AddLink(10, 40, Relation::kSibling);
  AsGraph g = b.Freeze();
  EXPECT_EQ(ToVec(g.Customers(10)), (std::vector<Asn>{1, 2}));
  EXPECT_EQ(ToVec(g.Peers(10)), (std::vector<Asn>{20}));
  EXPECT_EQ(ToVec(g.Providers(10)), (std::vector<Asn>{30}));
  EXPECT_EQ(ToVec(g.Siblings(10)), (std::vector<Asn>{40}));
  EXPECT_EQ(g.Degree(10), 5u);
}

TEST(AsGraph, RelationOfMissing) {
  GraphBuilder b;
  b.AddLink(1, 2, Relation::kPeer);
  AsGraph g = b.Freeze();
  EXPECT_FALSE(g.RelationOf(1, 3).has_value());
  EXPECT_FALSE(g.RelationOf(99, 1).has_value());
  EXPECT_FALSE(g.HasLink(2, 3));
}

TEST(AsGraph, DenseIndexRoundTrip) {
  GraphBuilder b;
  b.AddLink(7018, 32934, Relation::kCustomer);
  AsGraph g = b.Freeze();
  for (Asn asn : g.Ases()) {
    EXPECT_EQ(g.AsnAt(g.IndexOf(asn)), asn);
  }
  EXPECT_EQ(g.Find(7018), g.IndexOf(7018));
  EXPECT_EQ(g.Find(6939), kInvalidAsId);
}

TEST(AsGraph, DegreeRanking) {
  AsGraph g = ProviderStar(5);  // hub 1 has degree 5
  auto ranked = g.AsesByDegreeDesc();
  EXPECT_EQ(ranked.front(), 1u);
  // Spokes tie at degree 1; ties break by ascending ASN.
  EXPECT_EQ(ranked[1], 2u);
}

TEST(AsGraph, CustomerConeSize) {
  // 1 provides for 2, 2 provides for 3: cone(1) = {1,2,3}.
  AsGraph g = ProviderChain(3);
  EXPECT_EQ(g.CustomerConeSize(3), 3u);
  EXPECT_EQ(g.CustomerConeSize(2), 2u);
  EXPECT_EQ(g.CustomerConeSize(1), 1u);
}

TEST(AsGraph, Connectivity) {
  GraphBuilder b;
  b.AddLink(1, 2, Relation::kPeer);
  EXPECT_TRUE(b.Freeze().IsConnected());
  b.AddLink(3, 4, Relation::kPeer);
  EXPECT_FALSE(b.Freeze().IsConnected());
}

// --- CSR structure ----------------------------------------------------------

TEST(AsGraphCsr, RowsGroupedInRelationOrder) {
  GraphBuilder b;
  // Interleave relation classes so freeze has to regroup.
  b.AddLink(10, 40, Relation::kSibling);
  b.AddLink(10, 1, Relation::kCustomer);
  b.AddLink(10, 20, Relation::kPeer);
  b.AddLink(30, 10, Relation::kCustomer);
  b.AddLink(10, 2, Relation::kCustomer);
  AsGraph g = b.Freeze();
  const AsId id = g.IndexOf(10);
  std::vector<Relation> seen;
  for (const Edge& e : g.NeighborsAt(id)) seen.push_back(e.rel);
  EXPECT_EQ(seen,
            (std::vector<Relation>{Relation::kCustomer, Relation::kCustomer,
                                   Relation::kPeer, Relation::kProvider,
                                   Relation::kSibling}));
  // Insertion order is stable inside each group.
  EXPECT_EQ(ToVec(g.CustomersAt(id)), (std::vector<Asn>{1, 2}));
  // Every Edge segment is homogeneous in its relation class.
  for (Relation rel : {Relation::kCustomer, Relation::kPeer,
                       Relation::kProvider, Relation::kSibling}) {
    for (const Edge& e : g.EdgeSegmentAt(id, rel)) EXPECT_EQ(e.rel, rel);
  }
}

TEST(AsGraphCsr, BackSlotsInvertEveryEdge) {
  GeneratorParams params;
  params.seed = 3;
  params.num_tier1 = 4;
  params.num_tier2 = 12;
  params.num_tier3 = 30;
  params.num_stubs = 80;
  params.num_content = 2;
  params.num_sibling_pairs = 2;
  AsGraph g = GenerateInternetTopology(params).graph;
  for (AsId id = 0; id < g.NumAses(); ++id) {
    const auto row = g.NeighborsAt(id);
    for (std::size_t slot = 0; slot < row.size(); ++slot) {
      const Edge& e = row[slot];
      const Edge& back = g.NeighborsAt(e.id)[e.back_slot];
      EXPECT_EQ(back.id, id);
      EXPECT_EQ(back.asn, g.AsnAt(id));
      EXPECT_EQ(back.back_slot, slot);
      EXPECT_EQ(back.rel, Reverse(e.rel));
    }
  }
}

TEST(AsGraphCsr, PropagationRanksRespectCones) {
  // chain: 4 provides 3 provides 2 provides 1 → ranks 0,1,2,3 bottom-up.
  AsGraph g = ProviderChain(4);
  EXPECT_EQ(g.RankOf(1), 0u);
  EXPECT_EQ(g.RankOf(2), 1u);
  EXPECT_EQ(g.RankOf(3), 2u);
  EXPECT_EQ(g.RankOf(4), 3u);
  EXPECT_EQ(g.NumRanks(), 4u);
  // IdsByRank is the (rank, id) order and RankPosAt is its inverse.
  const auto by_rank = g.IdsByRank();
  ASSERT_EQ(by_rank.size(), g.NumAses());
  for (std::size_t pos = 0; pos < by_rank.size(); ++pos) {
    EXPECT_EQ(g.RankPosAt(by_rank[pos]), pos);
    if (pos > 0) {
      EXPECT_LE(g.RankAt(by_rank[pos - 1]), g.RankAt(by_rank[pos]));
    }
  }
  EXPECT_TRUE(g.ProviderCustomerAcyclic());
}

TEST(AsGraphCsr, SiblingGroupsShareRank) {
  GraphBuilder b;
  b.AddLink(3, 2, Relation::kCustomer);
  b.AddLink(2, 1, Relation::kCustomer);
  b.AddLink(3, 77, Relation::kSibling);
  AsGraph g = b.Freeze();
  EXPECT_EQ(g.RankOf(3), g.RankOf(77));
  EXPECT_EQ(g.RankOf(3), 2u);
}

TEST(AsGraphCsr, ToBuilderRoundTripPreservesTheGraph) {
  GeneratorParams params;
  params.seed = 11;
  params.num_tier1 = 4;
  params.num_tier2 = 10;
  params.num_tier3 = 25;
  params.num_stubs = 60;
  params.num_content = 2;
  AsGraph g = GenerateInternetTopology(params).graph;
  AsGraph round = g.ToBuilder().Freeze();
  ASSERT_EQ(round.NumAses(), g.NumAses());
  ASSERT_EQ(round.NumLinks(), g.NumLinks());
  EXPECT_EQ(round.IsConnected(), g.IsConnected());
  EXPECT_EQ(round.ProviderCustomerAcyclic(), g.ProviderCustomerAcyclic());
  for (Asn a : g.Ases()) {
    EXPECT_EQ(round.RankOf(a), g.RankOf(a));
    for (const Edge& e : g.NeighborsOf(a)) {
      EXPECT_EQ(round.RelationOf(a, e.asn), e.rel);
    }
  }
}

TEST(AsGraphCsr, CsrRoundTripThroughFromCsr) {
  GeneratorParams params;
  params.seed = 5;
  params.num_tier1 = 4;
  params.num_tier2 = 10;
  params.num_tier3 = 25;
  params.num_stubs = 60;
  params.num_content = 2;
  AsGraph g = GenerateInternetTopology(params).graph;
  std::string err;
  // Keep the original alive for the spans' lifetime via a copy on the heap.
  auto owner = std::make_shared<AsGraph>(g);
  std::optional<AsGraph> loaded = AsGraph::FromCsr(owner->Csr(), owner, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  EXPECT_EQ(loaded->NumAses(), g.NumAses());
  EXPECT_EQ(loaded->NumLinks(), g.NumLinks());
  for (Asn a : g.Ases()) {
    EXPECT_EQ(loaded->RankOf(a), g.RankOf(a));
    for (const Edge& e : g.NeighborsOf(a)) {
      EXPECT_EQ(loaded->RelationOf(a, e.asn), e.rel);
    }
  }
}

TEST(AsGraphCsr, FromCsrRejectsCorruptArrays) {
  GraphBuilder b;
  b.AddLink(10, 1, Relation::kCustomer);
  b.AddLink(10, 20, Relation::kPeer);
  b.AddLink(30, 10, Relation::kCustomer);
  auto owner = std::make_shared<AsGraph>(b.Freeze());
  const AsGraph::CsrArrays good = owner->Csr();
  std::string err;

  {  // Edge pointing at an out-of-range dense id.
    std::vector<Edge> edges(good.edges.begin(), good.edges.end());
    edges[0].id = static_cast<AsId>(owner->NumAses() + 7);
    AsGraph::CsrArrays bad = good;
    bad.edges = edges;
    EXPECT_FALSE(AsGraph::FromCsr(bad, owner, &err).has_value());
  }
  {  // Broken back slot.
    std::vector<Edge> edges(good.edges.begin(), good.edges.end());
    edges[0].back_slot += 1;
    AsGraph::CsrArrays bad = good;
    bad.edges = edges;
    EXPECT_FALSE(AsGraph::FromCsr(bad, owner, &err).has_value());
  }
  {  // Link count that disagrees with the edge count.
    AsGraph::CsrArrays bad = good;
    bad.num_links += 1;
    EXPECT_FALSE(AsGraph::FromCsr(bad, owner, &err).has_value());
  }
  {  // Interning table out of order.
    std::vector<Asn> lookup(good.lookup_asn.begin(), good.lookup_asn.end());
    std::swap(lookup.front(), lookup.back());
    AsGraph::CsrArrays bad = good;
    bad.lookup_asn = lookup;
    EXPECT_FALSE(AsGraph::FromCsr(bad, owner, &err).has_value());
  }
  {  // rank_pos no longer the inverse permutation of ids_by_rank.
    std::vector<std::uint32_t> pos(good.rank_pos.begin(), good.rank_pos.end());
    std::swap(pos.front(), pos.back());
    AsGraph::CsrArrays bad = good;
    bad.rank_pos = pos;
    EXPECT_FALSE(AsGraph::FromCsr(bad, owner, &err).has_value());
  }
}

// --- builders -----------------------------------------------------------------

TEST(Builders, FacebookTopologyShape) {
  AsGraph g = FacebookAnomalyTopology();
  EXPECT_EQ(g.NumAses(), 6u);
  EXPECT_EQ(g.RelationOf(fb::kLevel3, fb::kAtt), Relation::kPeer);
  EXPECT_EQ(g.RelationOf(fb::kLevel3, fb::kFacebook), Relation::kCustomer);
  EXPECT_EQ(g.RelationOf(fb::kFacebook, fb::kSkTelecom), Relation::kProvider);
  EXPECT_EQ(g.RelationOf(fb::kChinaTelecom, fb::kSkTelecom),
            Relation::kCustomer);
  EXPECT_TRUE(g.IsConnected());
}

TEST(Builders, DualHomedStub) {
  AsGraph g = DualHomedStub();
  EXPECT_EQ(ToVec(g.Providers(100)), (std::vector<Asn>{11, 12}));
  EXPECT_TRUE(g.IsConnected());
}

// --- tiers ----------------------------------------------------------------------

TEST(Tiers, FacebookTopologyTiers) {
  AsGraph g = FacebookAnomalyTopology();
  TierInfo tiers = ClassifyTiers(g);
  EXPECT_EQ(tiers.Tier1().size(), 4u);
  EXPECT_EQ(tiers.TierOf(fb::kAtt), 1);
  EXPECT_EQ(tiers.TierOf(fb::kSkTelecom), 2);
  // Facebook: customer of Level3 (tier1) → tier 2.
  EXPECT_EQ(tiers.TierOf(fb::kFacebook), 2);
}

TEST(Tiers, ChainTiers) {
  AsGraph g = ProviderChain(4);  // 4 provides 3 provides 2 provides 1
  TierInfo tiers = ClassifyTiers(g);
  EXPECT_EQ(tiers.TierOf(4), 1);
  EXPECT_EQ(tiers.TierOf(3), 2);
  EXPECT_EQ(tiers.TierOf(2), 3);
  EXPECT_EQ(tiers.TierOf(1), 4);
  EXPECT_EQ(tiers.MaxTier(), 4);
}

TEST(Tiers, SiblingInheritsTier) {
  GraphBuilder b = ProviderChain(3).ToBuilder();
  b.AddLink(3, 77, Relation::kSibling);
  const AsGraph g = b.Freeze();
  TierInfo tiers = ClassifyTiers(g);
  EXPECT_EQ(tiers.TierOf(77), 1);
}

// --- serialization ---------------------------------------------------------------

TEST(Serialization, RoundTrip) {
  GraphBuilder b = FacebookAnomalyTopology().ToBuilder();
  b.AddLink(fb::kNtt, 555, Relation::kSibling);
  AsGraph g = b.Freeze();
  std::ostringstream os;
  WriteAsRel(g, os);
  std::istringstream is(os.str());
  GraphBuilder parsed_builder;
  std::string err = ReadAsRel(is, parsed_builder);
  EXPECT_EQ(err, "");
  AsGraph parsed = parsed_builder.Freeze();
  EXPECT_EQ(parsed.NumAses(), g.NumAses());
  EXPECT_EQ(parsed.NumLinks(), g.NumLinks());
  for (Asn a : g.Ases()) {
    for (const auto& n : g.NeighborsOf(a)) {
      EXPECT_EQ(parsed.RelationOf(a, n.asn), n.rel)
          << a << "-" << n.asn;
    }
  }
}

TEST(Serialization, RejectsMalformedLine) {
  GraphBuilder g;
  std::istringstream is("1|2\n");
  EXPECT_NE(ReadAsRel(is, g), "");
}

TEST(Serialization, RejectsBadCode) {
  GraphBuilder g;
  std::istringstream is("1|2|7\n");
  EXPECT_NE(ReadAsRel(is, g), "");
}

TEST(Serialization, RejectsSelfLink) {
  GraphBuilder g;
  std::istringstream is("5|5|0\n");
  EXPECT_NE(ReadAsRel(is, g), "");
}

TEST(Serialization, RejectsConflict) {
  GraphBuilder g;
  std::istringstream is("1|2|0\n1|2|-1\n");
  EXPECT_NE(ReadAsRel(is, g), "");
}

TEST(Serialization, SkipsCommentsAndBlanks) {
  GraphBuilder g;
  std::istringstream is("# header\n\n1|2|0\n");
  EXPECT_EQ(ReadAsRel(is, g), "");
  EXPECT_EQ(g.NumLinks(), 1u);
}

TEST(Serialization, MissingFileErrors) {
  GraphBuilder g;
  EXPECT_NE(ReadAsRelFile("/nonexistent/file.topo", g), "");
}

// --- generator -------------------------------------------------------------------

class GeneratorTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorTest, StructuralInvariants) {
  GeneratorParams params;
  params.seed = GetParam();
  params.num_tier1 = 8;
  params.num_tier2 = 40;
  params.num_tier3 = 120;
  params.num_stubs = 400;
  params.num_content = 6;
  params.num_sibling_pairs = 4;
  GeneratedTopology topo = GenerateInternetTopology(params);
  const AsGraph& g = topo.graph;

  EXPECT_EQ(g.NumAses(), params.TotalAses());
  EXPECT_TRUE(g.IsConnected());
  EXPECT_TRUE(g.ProviderCustomerAcyclic());

  // Tier-1 clique: full peering, no providers.
  for (Asn a : topo.tier1) {
    EXPECT_TRUE(g.Providers(a).empty());
    for (Asn b : topo.tier1) {
      if (a != b) {
        EXPECT_EQ(g.RelationOf(a, b), Relation::kPeer);
      }
    }
  }
  // Everyone else has at least one provider.
  for (const auto& pool : {topo.tier2, topo.tier3, topo.stubs, topo.content}) {
    for (Asn a : pool) {
      EXPECT_FALSE(g.Providers(a).empty()) << "AS" << a;
    }
  }
  // Sibling pairs recorded and linked.
  EXPECT_EQ(topo.siblings.size(), params.num_sibling_pairs);
  for (const auto& [a, b] : topo.siblings) {
    EXPECT_EQ(g.RelationOf(a, b), Relation::kSibling);
  }
  // Tier classification finds exactly the generated core.
  TierInfo tiers = ClassifyTiers(g);
  EXPECT_EQ(tiers.Tier1(), topo.tier1);
}

TEST_P(GeneratorTest, DeterministicForSeed) {
  GeneratorParams params;
  params.seed = GetParam();
  params.num_tier1 = 5;
  params.num_tier2 = 20;
  params.num_tier3 = 50;
  params.num_stubs = 100;
  params.num_content = 3;
  GeneratedTopology a = GenerateInternetTopology(params);
  GeneratedTopology b = GenerateInternetTopology(params);
  EXPECT_EQ(a.graph.NumLinks(), b.graph.NumLinks());
  std::ostringstream osa, osb;
  WriteAsRel(a.graph, osa);
  WriteAsRel(b.graph, osb);
  EXPECT_EQ(osa.str(), osb.str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorTest,
                         ::testing::Values(1, 42, 1234, 99999));

TEST(Generator, Tier1ConesModerateButCovering) {
  // Calibration guard for the attack analysis: individual tier-1 customer
  // cones are modest (inferred 2011 cones were — this is what lets a
  // stripped route win >95 % of the Internet in Fig. 9), yet every AS sits
  // in at least one tier-1 cone and the top cone is substantial.
  GeneratorParams params;
  params.seed = 42;
  GeneratedTopology topo = GenerateInternetTopology(params);
  const double total = static_cast<double>(topo.graph.NumAses());
  double max_cone = 0.0;
  for (Asn t1 : topo.tier1) {
    double cone = static_cast<double>(topo.graph.CustomerConeSize(t1)) / total;
    EXPECT_LT(cone, 0.9) << "tier-1 AS" << t1 << " cone implausibly large";
    max_cone = std::max(max_cone, cone);
  }
  EXPECT_GT(max_cone, 0.10);
  // Union of cones covers everything: multi-source descent from the core
  // over provider→customer (and sibling) edges reaches every AS.
  std::set<Asn> covered(topo.tier1.begin(), topo.tier1.end());
  std::vector<Asn> frontier(topo.tier1.begin(), topo.tier1.end());
  while (!frontier.empty()) {
    Asn cur = frontier.back();
    frontier.pop_back();
    for (const AsGraph::Neighbor& n : topo.graph.NeighborsOf(cur)) {
      if (n.rel != Relation::kCustomer && n.rel != Relation::kSibling) {
        continue;
      }
      if (covered.insert(n.asn).second) frontier.push_back(n.asn);
    }
  }
  EXPECT_EQ(covered.size(), topo.graph.NumAses());
}

TEST(Generator, ContentAsesRichlyPeered) {
  GeneratorParams params;
  params.seed = 7;
  GeneratedTopology topo = GenerateInternetTopology(params);
  for (Asn c : topo.content) {
    EXPECT_GE(topo.graph.Peers(c).size(), params.content_min_peers / 2)
        << "content AS" << c;
  }
}

TEST(Generator, DegreeDistributionHeavyTailed) {
  GeneratorParams params;
  params.seed = 42;
  GeneratedTopology topo = GenerateInternetTopology(params);
  auto ranked = topo.graph.AsesByDegreeDesc();
  std::size_t top = topo.graph.Degree(ranked.front());
  std::size_t median = topo.graph.Degree(ranked[ranked.size() / 2]);
  EXPECT_GT(top, 20 * std::max<std::size_t>(median, 1));
}

TEST(Generator, Internet2026PresetShape) {
  const GeneratorParams p = Internet2026Params();
  EXPECT_EQ(p.seed, 2026u);
  EXPECT_GE(p.TotalAses(), 100000u);
}

// --- CSR equivalence vs pre-refactor goldens --------------------------------
//
// tests/golden/csr_equivalence.golden was captured by running the same
// emission code below against the PRE-refactor node-object AsGraph (PR 6
// HEAD): canonical topology dumps, degree rankings, and full-/delta-engine
// converged states for the committed fixtures, three generated topologies,
// and interception scenarios on each. The CSR graph must reproduce every
// byte — topology queries, tier classification, both engines, and the
// paper's headline fraction — proving the API redesign changed no result.

std::string JoinSorted(std::vector<Asn> v) {
  std::sort(v.begin(), v.end());
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(v[i]);
  }
  return out;
}

// Canonical per-AS dump: relation sets sorted by ASN, cone size, tier.
std::string CanonicalTopology(const AsGraph& g) {
  TierInfo tiers = ClassifyTiers(g);
  std::vector<Asn> ases = ToVec(g.Ases());
  std::sort(ases.begin(), ases.end());
  std::string out;
  out += "ases " + std::to_string(g.NumAses()) + "\n";
  out += "links " + std::to_string(g.NumLinks()) + "\n";
  out += "connected " + std::to_string(g.IsConnected() ? 1 : 0) + "\n";
  out +=
      "acyclic " + std::to_string(g.ProviderCustomerAcyclic() ? 1 : 0) + "\n";
  for (Asn a : ases) {
    out += "as " + std::to_string(a);
    out += " c=" + JoinSorted(ToVec(g.Customers(a)));
    out += " p=" + JoinSorted(ToVec(g.Peers(a)));
    out += " pr=" + JoinSorted(ToVec(g.Providers(a)));
    out += " s=" + JoinSorted(ToVec(g.Siblings(a)));
    out += " cone=" + std::to_string(g.CustomerConeSize(a));
    out += " tier=" + std::to_string(tiers.TierOf(a));
    out += "\n";
  }
  return out;
}

std::string DegreeOrderString(const AsGraph& g) {
  std::string out;
  for (Asn a : g.AsesByDegreeDesc()) out += std::to_string(a) + ";";
  return out;
}

std::uint32_t Crc(const std::string& s) {
  return util::Crc32(s.data(), s.size());
}

// Per-AS converged state text from any result with BestAt/FirstChangeRound.
template <typename Result>
std::string StateText(const AsGraph& g, const Result& r) {
  std::vector<Asn> ases = ToVec(g.Ases());
  std::sort(ases.begin(), ases.end());
  std::string out;
  for (Asn a : ases) {
    const auto& best = r.BestAt(a);
    out += std::to_string(a) + ":" +
           (best.has_value() ? best->path.ToString() : "-") + ":" +
           std::to_string(r.FirstChangeRound(a)) + "\n";
  }
  return out;
}

struct GoldenScenario {
  std::string name;
  Asn victim;
  Asn attacker;
  int lambda;
  bool violate;
};

void EmitTopology(std::string& out, const std::string& name, const AsGraph& g,
                  bool full_text) {
  const std::string canon = CanonicalTopology(g);
  char line[128];
  std::snprintf(line, sizeof(line), "topology %s crc=%u degcrc=%u\n",
                name.c_str(), Crc(canon), Crc(DegreeOrderString(g)));
  out += line;
  if (full_text) {
    out += "begin_canon " + name + "\n" + canon + "end_canon\n";
  }
}

void EmitScenario(std::string& out, const std::string& topo_name,
                  const AsGraph& g, const GoldenScenario& s,
                  const bgp::ImportFilter* filter = nullptr) {
  bgp::Announcement ann;
  ann.origin = s.victim;
  ann.prepends.SetDefault(s.victim, s.lambda);

  bgp::PropagationSimulator sim(g);
  auto base = std::make_shared<const bgp::PropagationResult>(
      sim.Run(ann, nullptr, filter));

  attack::AsppInterceptor::Config cfg;
  cfg.attacker = s.attacker;
  cfg.victim = s.victim;
  cfg.violate_valley_free = s.violate;
  attack::AsppInterceptor atk(cfg);
  bgp::PropagationResult after = sim.Resume(*base, &atk, {s.attacker}, filter);

  attack::AsppInterceptor atk2(cfg);
  bgp::DeltaPropagator delta(g);
  bgp::DeltaResult dafter = delta.Propagate(base, &atk2, {s.attacker}, filter);

  char frac[32];
  std::snprintf(frac, sizeof(frac), "%.9f",
                after.FractionTraversing(s.attacker));
  char line[256];
  std::snprintf(line, sizeof(line),
                "scenario %s.%s base_rounds=%d base_reach=%zu base_crc=%u "
                "atk_rounds=%d atk_reach=%zu atk_crc=%u delta_crc=%u frac=%s\n",
                topo_name.c_str(), s.name.c_str(), base->Rounds(),
                base->ReachableCount(), Crc(StateText(g, *base)),
                after.Rounds(), after.ReachableCount(),
                Crc(StateText(g, after)), Crc(StateText(g, dafter)), frac);
  out += line;
}

// The committed golden body (comment lines stripped), split where the
// generated-topology block starts.
void LoadGolden(std::string& fixtures, std::string& generated) {
  std::ifstream in(std::string(ASPPI_TESTS_DIR) +
                   "/golden/csr_equivalence.golden");
  ASSERT_TRUE(in.is_open()) << "missing tests/golden/csr_equivalence.golden";
  std::string line;
  bool in_generated = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    if (line.rfind("topology gen_", 0) == 0) in_generated = true;
    (in_generated ? generated : fixtures) += line + "\n";
  }
}

TEST(CsrEquivalence, FixtureTopologiesAndScenariosMatchGolden) {
  std::string want_fixtures, want_generated;
  LoadGolden(want_fixtures, want_generated);

  std::string got;
  {
    AsGraph g = ProviderChain(8);
    EmitTopology(got, "chain8", g, true);
    EmitScenario(got, "chain8", g, {"a5", 1, 5, 3, false});
  }
  {
    AsGraph g = PeerClique(6);
    EmitTopology(got, "clique6", g, true);
    EmitScenario(got, "clique6", g, {"a3", 1, 3, 2, false});
  }
  {
    AsGraph g = ProviderStar(12);
    EmitTopology(got, "star12", g, true);
    EmitScenario(got, "star12", g, {"a5", 2, 5, 3, false});
  }
  {
    AsGraph g = DualHomedStub();
    EmitTopology(got, "dualhomed", g, true);
    EmitScenario(got, "dualhomed", g, {"a21", 100, 21, 3, false});
    EmitScenario(got, "dualhomed", g, {"v21", 100, 21, 3, true});
  }
  {
    AsGraph g = FacebookAnomalyTopology();
    EmitTopology(got, "facebook", g, true);
    EmitScenario(got, "facebook", g,
                 {"skt", fb::kFacebook, fb::kSkTelecom, 3, false});
  }
  EXPECT_EQ(got, want_fixtures);
}

// Zero-deployment equivalence: running every golden fixture scenario through
// both engines with an EMPTY defense::PolicySet installed as the import
// filter must reproduce the committed golden bytes exactly — an undeployed
// defense layer is invisible at the bit level.
TEST(CsrEquivalence, EmptyPolicySetKeepsFixtureScenariosOnGolden) {
  std::string want_fixtures, want_generated;
  LoadGolden(want_fixtures, want_generated);

  std::string got;
  const auto emit_defended = [&got](const std::string& name, const AsGraph& g,
                                    const GoldenScenario& s) {
    const defense::PolicySet empty(g);
    EmitTopology(got, name, g, true);
    EmitScenario(got, name, g, s, &empty);
  };
  {
    AsGraph g = ProviderChain(8);
    emit_defended("chain8", g, {"a5", 1, 5, 3, false});
  }
  {
    AsGraph g = PeerClique(6);
    emit_defended("clique6", g, {"a3", 1, 3, 2, false});
  }
  {
    AsGraph g = ProviderStar(12);
    emit_defended("star12", g, {"a5", 2, 5, 3, false});
  }
  {
    AsGraph g = DualHomedStub();
    const defense::PolicySet empty(g);
    EmitTopology(got, "dualhomed", g, true);
    EmitScenario(got, "dualhomed", g, {"a21", 100, 21, 3, false}, &empty);
    EmitScenario(got, "dualhomed", g, {"v21", 100, 21, 3, true}, &empty);
  }
  {
    AsGraph g = FacebookAnomalyTopology();
    emit_defended("facebook", g,
                  {"skt", fb::kFacebook, fb::kSkTelecom, 3, false});
  }
  EXPECT_EQ(got, want_fixtures);
}

TEST(CsrEquivalence, GeneratedTopologiesAndScenariosMatchGolden) {
  std::string want_fixtures, want_generated;
  LoadGolden(want_fixtures, want_generated);

  std::string got;
  {
    GeneratorParams p;  // defaults, seed 42
    GeneratedTopology gen = GenerateInternetTopology(p);
    EmitTopology(got, "gen_default", gen.graph, false);
    EmitScenario(got, "gen_default", gen.graph,
                 {"s10xt5", gen.stubs[10], gen.tier3[5], 4, false});
    EmitScenario(got, "gen_default", gen.graph,
                 {"v_s10xt5", gen.stubs[10], gen.tier3[5], 4, true});
  }
  {
    GeneratorParams p;
    p.seed = 7;
    p.num_tier1 = 6;
    p.num_tier2 = 40;
    p.num_tier3 = 150;
    p.num_stubs = 600;
    p.num_content = 8;
    p.num_sibling_pairs = 5;
    GeneratedTopology gen = GenerateInternetTopology(p);
    EmitTopology(got, "gen_seed7", gen.graph, false);
    EmitScenario(got, "gen_seed7", gen.graph,
                 {"s33xt7", gen.stubs[33], gen.tier3[7], 4, false});
  }
  {
    GeneratorParams p;
    p.seed = 1337;
    p.num_tier1 = 12;
    p.num_tier2 = 300;
    p.num_tier3 = 1500;
    p.num_stubs = 8200;
    p.num_content = 40;
    p.num_sibling_pairs = 40;
    GeneratedTopology gen = GenerateInternetTopology(p);
    EmitTopology(got, "gen_10k", gen.graph, false);
    EmitScenario(got, "gen_10k", gen.graph,
                 {"s100xt17", gen.stubs[100], gen.tier2[17], 4, false});
  }
  EXPECT_EQ(got, want_generated);
}

}  // namespace
}  // namespace asppi::topo
