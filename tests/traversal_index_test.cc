// bgp::TraversalIndex against dense scans of the baseline it indexes. The
// index counts on the best-route tree (a subtree size per AS), so every
// count must equal what scanning all n best paths gives: each AS's traversal
// count, the reachable count, and colluder sets — nested ones, where one
// colluder is another's ancestor, included. Checked on generated topologies
// with sibling pairs under uniform-λ and behaviour-model policies, and for
// every AS of the internet2026 preset against a per-hop count of every best
// path.
#include "bgp/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/propagation.h"
#include "data/behavior.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace asppi::bgp {
namespace {

// ASes other than the colluders and the origin whose best path traverses
// any colluder: one pass over every best path.
std::size_t DenseTraversing(const PropagationResult& baseline,
                            std::span<const Asn> colluders) {
  const topo::AsGraph& graph = baseline.Graph();
  std::size_t count = 0;
  for (topo::AsId i = 0; i < graph.NumAses(); ++i) {
    const Asn asn = graph.AsnAt(i);
    const std::optional<Route>& best = baseline.BestRoutes()[i];
    if (asn == baseline.GetAnnouncement().origin || !best.has_value()) continue;
    if (std::find(colluders.begin(), colluders.end(), asn) != colluders.end()) {
      continue;
    }
    for (Asn colluder : colluders) {
      if (best->path.Contains(colluder)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

// Per-AS traversal counts the per-hop way: every best path adds one to each
// distinct hop on it other than its holder.
std::vector<std::size_t> HopCounts(const PropagationResult& baseline) {
  const topo::AsGraph& graph = baseline.Graph();
  std::vector<std::size_t> counts(graph.NumAses(), 0);
  std::vector<Asn> seen;
  for (topo::AsId i = 0; i < graph.NumAses(); ++i) {
    const Asn asn = graph.AsnAt(i);
    const std::optional<Route>& best = baseline.BestRoutes()[i];
    if (asn == baseline.GetAnnouncement().origin || !best.has_value()) continue;
    seen.clear();
    for (Asn hop : best->path.Hops()) {
      if (hop == asn || std::find(seen.begin(), seen.end(), hop) != seen.end()) {
        continue;
      }
      seen.push_back(hop);
      ++counts[graph.IndexOf(hop)];
    }
  }
  return counts;
}

// Every AS's count against `want` (indexed densely); reports the first few
// differences and their total.
void ExpectEveryAsCount(const TraversalIndex& index,
                        const PropagationResult& baseline,
                        const std::vector<std::size_t>& want) {
  const topo::AsGraph& graph = baseline.Graph();
  std::size_t differing = 0;
  for (topo::AsId i = 0; i < graph.NumAses(); ++i) {
    const Asn asn = graph.AsnAt(i);
    if (index.TraversingCount(asn) == want[i]) continue;
    if (++differing <= 5) {
      ADD_FAILURE() << "origin AS" << baseline.GetAnnouncement().origin
                    << ", AS" << asn << ": index "
                    << index.TraversingCount(asn) << ", dense " << want[i];
    }
  }
  EXPECT_EQ(differing, 0u) << "origin AS" << baseline.GetAnnouncement().origin;
}

// Sorted, duplicate-free colluder sets of 2–4 ASes, never the origin. Even
// draws are nested: a routed AS plus ASes from its own best path, so some
// colluders sit in others' subtrees. Odd draws are uniform.
std::vector<std::vector<Asn>> ColluderSets(const PropagationResult& baseline,
                                           util::Rng& rng, int count) {
  const topo::AsGraph& graph = baseline.Graph();
  const Asn origin = baseline.GetAnnouncement().origin;
  std::vector<std::vector<Asn>> sets;
  while (static_cast<int>(sets.size()) < count) {
    const std::size_t size = 2 + rng.Below(3);
    std::vector<Asn> set;
    if (sets.size() % 2 == 0) {
      const Asn leaf = rng.Pick(graph.Ases());
      const std::optional<Route>& best = baseline.BestAt(leaf);
      if (leaf == origin || !best.has_value()) continue;
      set.push_back(leaf);
      for (Asn hop : best->path.Hops()) {
        if (hop != origin && set.size() < size) set.push_back(hop);
      }
    }
    while (set.size() < size) {
      const Asn asn = rng.Pick(graph.Ases());
      if (asn != origin) set.push_back(asn);
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    if (set.size() >= 2) sets.push_back(std::move(set));
  }
  return sets;
}

void ExpectIndexMatchesDenseScans(const PropagationResult& baseline,
                                  util::Rng& rng) {
  SCOPED_TRACE("origin AS" + std::to_string(baseline.GetAnnouncement().origin));
  const TraversalIndex index(baseline);
  EXPECT_EQ(index.ReachableCount(), baseline.ReachableCount());

  const topo::AsGraph& graph = baseline.Graph();
  std::vector<std::size_t> dense(graph.NumAses());
  for (topo::AsId i = 0; i < graph.NumAses(); ++i) {
    dense[i] = baseline.AsesTraversing(graph.AsnAt(i)).size();
  }
  ExpectEveryAsCount(index, baseline, dense);

  std::size_t nested = 0;
  for (const std::vector<Asn>& set : ColluderSets(baseline, rng, 20)) {
    for (Asn colluder : set) {
      if (index.TraversingCount(colluder) == 0) continue;
      // A colluder with descendants that include another colluder.
      const std::vector<Asn> below = baseline.AsesTraversing(colluder);
      for (Asn other : set) {
        if (std::find(below.begin(), below.end(), other) != below.end()) {
          ++nested;
        }
      }
    }
    std::string name;
    for (Asn asn : set) name += " AS" + std::to_string(asn);
    EXPECT_EQ(index.TraversingCount(set), DenseTraversing(baseline, set))
        << "colluders" << name;
  }
  EXPECT_GT(nested, 0u) << "no colluder set was nested";
}

class TraversalIndexProperties
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraversalIndexProperties, CountsMatchDenseScans) {
  topo::GeneratorParams params;
  params.seed = GetParam();
  params.num_tier1 = 6;
  params.num_tier2 = 30;
  params.num_tier3 = 80;
  params.num_stubs = 250;
  params.num_content = 5;
  params.num_sibling_pairs = 20;
  const topo::GeneratedTopology gen = topo::GenerateInternetTopology(params);
  std::size_t sibling_links = 0;
  for (topo::AsId i = 0; i < gen.graph.NumAses(); ++i) {
    for (const topo::Edge& edge : gen.graph.NeighborsAt(i)) {
      sibling_links += edge.rel == topo::Relation::kSibling ? 1 : 0;
    }
  }
  ASSERT_GT(sibling_links, 0u);

  const PropagationSimulator engine(gen.graph);
  util::Rng rng(util::DeriveSeed(GetParam(), 2));
  for (int trial = 0; trial < 3; ++trial) {
    Announcement ann;
    ann.origin = rng.Pick(gen.graph.Ases());
    ann.prepends.SetDefault(ann.origin, 1 + static_cast<int>(rng.Below(4)));
    ExpectIndexMatchesDenseScans(engine.Run(ann), rng);
  }
  // The measurement corpus's behaviour model at raised rates: per-neighbor
  // and intermediary prepending on many paths.
  data::BehaviorParams behavior;
  behavior.prepend_prob = 0.9;
  behavior.intermediary_prob = 0.1;
  const data::AsppBehaviorModel model(behavior, GetParam());
  for (int trial = 0; trial < 3; ++trial) {
    Announcement ann;
    ann.origin = rng.Pick(gen.graph.Ases());
    model.BuildPolicy(gen.graph, ann.origin, rng, ann.prepends);
    ExpectIndexMatchesDenseScans(engine.Run(ann), rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraversalIndexProperties,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(TraversalIndex, MatchesHopCountsAtInternet2026) {
  // ~100k ASes with 400 sibling pairs: a tier-1 and a stub victim at λ=3.
  const topo::GeneratedTopology gen =
      topo::GenerateInternetTopology(topo::Internet2026Params());
  const PropagationSimulator engine(gen.graph);
  for (const Asn victim : {gen.tier1[0], gen.stubs[0]}) {
    Announcement ann;
    ann.origin = victim;
    ann.prepends.SetDefault(victim, 3);
    const PropagationResult baseline = engine.Run(ann);
    const TraversalIndex index(baseline);
    ExpectEveryAsCount(index, baseline, HopCounts(baseline));
    EXPECT_EQ(index.ReachableCount(), baseline.ReachableCount());
  }
}

}  // namespace
}  // namespace asppi::bgp
