#include "bgp/routing_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "attack/baseline_cache.h"
#include "bgp/propagation.h"
#include "data/behavior.h"
#include "topology/builders.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace asppi::bgp {

// Readable failure messages for whole-route comparisons.
void PrintTo(const Route& route, std::ostream* os) {
  *os << "[" << route.path.ToString() << "] from AS" << route.learned_from
      << " (" << topo::RelationName(route.rel) << ", effective "
      << topo::RelationName(route.effective) << ")";
}

namespace {

using topo::AsGraph;
using topo::Relation;

Announcement Announce(Asn origin, int lambda = 1) {
  Announcement ann;
  ann.origin = origin;
  if (lambda > 1) ann.prepends.SetDefault(origin, lambda);
  return ann;
}

// A route spelled out field by field.
Route Held(const std::string& path, Asn from, Relation rel,
           Relation effective) {
  return Route{*AsPath::FromString(path), from, rel, effective};
}

Route Held(const std::string& path, Asn from, Relation rel) {
  return Held(path, from, rel, rel);
}

// The baseline the tree's parent slots build (what attack::BaselineCache
// holds) against Run's, under FirstBaselineDifference's rule.
void ExpectBaselineOfRun(const PropagationResult& built,
                         const PropagationResult& run) {
  EXPECT_EQ(FirstBaselineDifference(built, run, "tree"), "")
      << "origin AS" << run.GetAnnouncement().origin;
}

PropagationResult BuiltFromTree(const AsGraph& graph, const Announcement& ann) {
  std::string error;
  std::optional<PropagationResult> built = PropagationResult::FromParentSlots(
      graph, ann, RoutingTree(graph, ann).ParentSlots(), &error);
  EXPECT_TRUE(built.has_value()) << error;
  return std::move(*built);
}

// Every AS's tree route equals the one Run converges to, field for field,
// and so does the whole baseline its parent slots build.
void ExpectSameRoutesAsRun(const AsGraph& graph, const Announcement& ann) {
  const RoutingTree tree(graph, ann);
  const PropagationResult run = PropagationSimulator(graph).Run(ann);
  ExpectBaselineOfRun(BuiltFromTree(graph, ann), run);
  std::size_t differing = 0;
  for (topo::AsId id = 0; id < graph.NumAses(); ++id) {
    const Asn asn = graph.AsnAt(id);
    const std::optional<Route> got = tree.BestAt(asn);
    if (got == run.BestAt(asn)) continue;
    if (++differing <= 5) {
      ADD_FAILURE() << "origin AS" << ann.origin << ", AS" << asn
                    << ": tree " << ::testing::PrintToString(got) << ", Run "
                    << ::testing::PrintToString(run.BestAt(asn));
    }
  }
  EXPECT_EQ(differing, 0u) << "origin AS" << ann.origin;
}

TEST(RoutingTree, ChainClasses) {
  const AsGraph g = topo::ProviderChain(4);
  const Announcement ann = Announce(1);
  const RoutingTree tree(g, ann);
  EXPECT_FALSE(tree.BestAt(1).has_value());  // the origin
  EXPECT_EQ(tree.BestAt(2), Held("1", 1, Relation::kCustomer));
  EXPECT_EQ(tree.BestAt(4), Held("3 2 1", 3, Relation::kCustomer));
  ExpectSameRoutesAsRun(g, ann);
}

TEST(RoutingTree, DownhillClasses) {
  const AsGraph g = topo::ProviderChain(4);
  const Announcement ann = Announce(4);
  const RoutingTree tree(g, ann);
  EXPECT_EQ(tree.BestAt(3), Held("4", 4, Relation::kProvider));
  EXPECT_EQ(tree.BestAt(1), Held("2 3 4", 2, Relation::kProvider));
  ExpectSameRoutesAsRun(g, ann);
}

TEST(RoutingTree, PeerPhase) {
  const AsGraph g = topo::PeerClique(3);
  const Announcement ann = Announce(1);
  const RoutingTree tree(g, ann);
  EXPECT_EQ(tree.BestAt(2), Held("1", 1, Relation::kPeer));
  EXPECT_EQ(tree.BestAt(3), Held("1", 1, Relation::kPeer));
  ExpectSameRoutesAsRun(g, ann);
}

TEST(RoutingTree, PrependingCountsInLength) {
  const AsGraph g = topo::ProviderChain(3);
  const Announcement ann = Announce(1, 4);
  const RoutingTree tree(g, ann);
  EXPECT_EQ(tree.BestAt(2), Held("1 1 1 1", 1, Relation::kCustomer));
  EXPECT_EQ(tree.BestAt(3), Held("2 1 1 1 1", 2, Relation::kCustomer));
  ExpectSameRoutesAsRun(g, ann);
}

TEST(RoutingTree, PerNeighborPrepends) {
  const AsGraph g = topo::DualHomedStub();
  Announcement ann;
  ann.origin = 100;
  ann.prepends.SetForNeighbor(100, 11, 3);
  const RoutingTree tree(g, ann);
  EXPECT_EQ(tree.BestAt(11), Held("100 100 100", 100, Relation::kCustomer));
  EXPECT_EQ(tree.BestAt(12), Held("100", 100, Relation::kCustomer));
  // Tier-1 AS1 hears the padded route from its customer 11 and the short
  // one over its peer 2: customer class wins over length.
  EXPECT_EQ(tree.BestAt(1), Held("11 100 100 100", 11, Relation::kCustomer));
  ExpectSameRoutesAsRun(g, ann);
}

TEST(RoutingTree, UnreachableMarkedNone) {
  topo::GraphBuilder b;
  b.AddLink(2, 1, Relation::kCustomer);
  b.AddLink(2, 3, Relation::kPeer);
  b.AddLink(3, 4, Relation::kPeer);
  const AsGraph g = b.Freeze();
  const Announcement ann = Announce(1);
  const RoutingTree tree(g, ann);
  EXPECT_EQ(tree.BestAt(3), Held("2 1", 2, Relation::kPeer));
  // 3's route is peer class, which is not exported to a peer.
  EXPECT_FALSE(tree.BestAt(4).has_value());
  ExpectSameRoutesAsRun(g, ann);
}

TEST(RoutingTree, SiblingLinksCarryEachClass) {
  // Origin 10 has provider 1 and sibling 11. AS1's sibling 2 (customer
  // class), its peer 3 with 3's sibling 4 (peer class) and its customer 5
  // with 5's sibling 6 (provider class) each hear the route over a sibling
  // link in the class the sibling holds it.
  topo::GraphBuilder b;
  b.AddLink(1, 10, Relation::kCustomer);
  b.AddLink(10, 11, Relation::kSibling);
  b.AddLink(1, 2, Relation::kSibling);
  b.AddLink(1, 3, Relation::kPeer);
  b.AddLink(3, 4, Relation::kSibling);
  b.AddLink(1, 5, Relation::kCustomer);
  b.AddLink(5, 6, Relation::kSibling);
  const AsGraph g = b.Freeze();
  const Announcement ann = Announce(10, 2);
  const RoutingTree tree(g, ann);
  EXPECT_EQ(tree.BestAt(11),
            Held("10 10", 10, Relation::kSibling, Relation::kCustomer));
  EXPECT_EQ(tree.BestAt(2),
            Held("1 10 10", 1, Relation::kSibling, Relation::kCustomer));
  EXPECT_EQ(tree.BestAt(3), Held("1 10 10", 1, Relation::kPeer));
  EXPECT_EQ(tree.BestAt(4),
            Held("3 1 10 10", 3, Relation::kSibling, Relation::kPeer));
  EXPECT_EQ(tree.BestAt(5), Held("1 10 10", 1, Relation::kProvider));
  EXPECT_EQ(tree.BestAt(6),
            Held("5 1 10 10", 5, Relation::kSibling, Relation::kProvider));
  ExpectSameRoutesAsRun(g, ann);
}

TEST(RoutingTree, EqualLengthsGoToTheLowerNeighborAsn) {
  // AS9 (one hop from origin 1, but padding 2) and AS5 (two hops, no
  // padding) offer equally long routes to their common provider 100 and to
  // their common customer 200. The decision process takes the lower
  // neighbor ASN, 5, in both the customer (uphill) and provider (downhill)
  // phases, even though AS9 is settled first.
  topo::GraphBuilder b;
  b.AddLink(9, 1, Relation::kCustomer);
  b.AddLink(8, 1, Relation::kCustomer);
  b.AddLink(5, 8, Relation::kCustomer);
  b.AddLink(100, 9, Relation::kCustomer);
  b.AddLink(100, 5, Relation::kCustomer);
  b.AddLink(9, 200, Relation::kCustomer);
  b.AddLink(5, 200, Relation::kCustomer);
  const AsGraph g = b.Freeze();
  Announcement ann = Announce(1);
  ann.prepends.SetDefault(9, 2);  // intermediary prepending
  const RoutingTree tree(g, ann);
  EXPECT_EQ(tree.BestAt(100), Held("5 8 1", 5, Relation::kCustomer));
  EXPECT_EQ(tree.BestAt(200), Held("5 8 1", 5, Relation::kProvider));
  ExpectSameRoutesAsRun(g, ann);
}

// --- cross-check: the tree holds Run's routes on generated topologies ------

class EngineAgreement : public ::testing::TestWithParam<std::uint64_t> {};

// Whole routes — class, length, path and next hop — on topologies with
// sibling pairs, for uniform λ and for the measurement corpus's behaviour
// model (per-neighbor and intermediary prepending).
TEST_P(EngineAgreement, ClassAndLengthMatchPropagation) {
  topo::GeneratorParams params;
  params.seed = GetParam();
  params.num_tier1 = 6;
  params.num_tier2 = 30;
  params.num_tier3 = 80;
  params.num_stubs = 250;
  params.num_content = 5;
  params.num_sibling_pairs = 20;
  const topo::GeneratedTopology gen = topo::GenerateInternetTopology(params);
  util::Rng rng(util::DeriveSeed(GetParam(), 1));

  for (int trial = 0; trial < 3; ++trial) {
    const Asn origin = rng.Pick(gen.graph.Ases());
    ExpectSameRoutesAsRun(gen.graph,
                          Announce(origin, 1 + static_cast<int>(rng.Below(4))));
  }
  // Higher prepending rates than the corpus's (origins 0.9 against 0.15,
  // intermediaries 0.1 against 0.01), so ties between differently padded
  // paths are common.
  data::BehaviorParams behavior;
  behavior.prepend_prob = 0.9;
  behavior.intermediary_prob = 0.1;
  const data::AsppBehaviorModel model(behavior, GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    Announcement ann;
    ann.origin = rng.Pick(gen.graph.Ases());
    model.BuildPolicy(gen.graph, ann.origin, rng, ann.prepends);
    ExpectSameRoutesAsRun(gen.graph, ann);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(RoutingTree, HundredsOfPadsPerRouteMatchRun) {
  // λ = kMaxPads at the origin and per-neighbor intermediary pads of
  // 1..kMaxPads on every link: routes run to hundreds of hops, so the bucket
  // queue spans hundreds of distances, ASes are queued again at shorter
  // distances (stale entries), and most paths live on the heap.
  topo::GeneratorParams params;
  params.seed = 64;
  params.num_tier1 = 4;
  params.num_tier2 = 20;
  params.num_tier3 = 50;
  params.num_stubs = 150;
  params.num_content = 3;
  params.num_sibling_pairs = 10;
  const topo::GeneratedTopology gen = topo::GenerateInternetTopology(params);
  util::Rng rng(util::DeriveSeed(64, 1));
  std::size_t longest = 0;
  for (int trial = 0; trial < 3; ++trial) {
    Announcement ann = Announce(rng.Pick(gen.graph.Ases()), kMaxPads);
    for (topo::AsId id = 0; id < gen.graph.NumAses(); ++id) {
      const Asn asn = gen.graph.AsnAt(id);
      if (asn == ann.origin) continue;
      for (const topo::Edge& edge : gen.graph.NeighborsAt(id)) {
        ann.prepends.SetForNeighbor(
            asn, edge.asn, 1 + static_cast<int>(rng.Below(kMaxPads)));
      }
    }
    ExpectSameRoutesAsRun(gen.graph, ann);
    const PropagationResult built = BuiltFromTree(gen.graph, ann);
    for (const auto& best : built.BestRoutes()) {
      if (best) longest = std::max(longest, best->path.Length());
    }
  }
  EXPECT_GT(longest, 3u * kMaxPads);
}

TEST(RoutingTree, ReachableCountMatchesPropagation) {
  topo::GeneratorParams params;
  params.seed = 77;
  params.num_tier1 = 4;
  params.num_tier2 = 15;
  params.num_tier3 = 40;
  params.num_stubs = 100;
  params.num_content = 2;
  const topo::GeneratedTopology gen = topo::GenerateInternetTopology(params);
  const Announcement ann = Announce(gen.stubs[0], 2);
  const RoutingTree tree(gen.graph, ann);
  std::size_t reachable = 0;
  for (const Asn asn : gen.graph.Ases()) reachable += tree.BestAt(asn) ? 1 : 0;
  EXPECT_EQ(reachable, PropagationSimulator(gen.graph).Run(ann).ReachableCount());
}

TEST(RoutingTree, MatchesRunOnEveryAsAtInternet2026) {
  // The scale oracle gate: ~100k ASes with 400 sibling pairs, a stub victim
  // at uniform λ=3 and one under a behaviour-model policy.
  const topo::GeneratedTopology gen =
      topo::GenerateInternetTopology(topo::Internet2026Params());
  ExpectSameRoutesAsRun(gen.graph, Announce(gen.stubs[0], 3));

  util::Rng rng(util::DeriveSeed(2026, 1));
  data::BehaviorParams behavior;
  behavior.prepend_prob = 1.0;
  const data::AsppBehaviorModel model(behavior, 2026);
  Announcement ann;
  ann.origin = gen.stubs[1];
  model.BuildPolicy(gen.graph, ann.origin, rng, ann.prepends);
  ExpectSameRoutesAsRun(gen.graph, ann);
}

TEST(RoutingTree, CachedBaselinesMatchRunAtInternet2026) {
  // The scale gate for the baselines every attack starts from: a tier-1, a
  // stub and a behaviour-model victim, each BaselineCache entry against Run.
  const topo::GeneratedTopology gen =
      topo::GenerateInternetTopology(topo::Internet2026Params());
  attack::BaselineCache cache(gen.graph);
  std::vector<Announcement> announcements = {Announce(gen.tier1[0], 3),
                                             Announce(gen.stubs[2], 4)};
  util::Rng rng(util::DeriveSeed(2026, 2));
  data::BehaviorParams behavior;
  behavior.prepend_prob = 0.9;
  behavior.intermediary_prob = 0.1;
  const data::AsppBehaviorModel model(behavior, 2026);
  Announcement modelled;
  modelled.origin = gen.stubs[3];
  model.BuildPolicy(gen.graph, modelled.origin, rng, modelled.prepends);
  announcements.push_back(modelled);
  for (const Announcement& ann : announcements) {
    ExpectBaselineOfRun(*cache.GetEntry(ann).state,
                        PropagationSimulator(gen.graph).Run(ann));
  }
}

}  // namespace
}  // namespace asppi::bgp
