// AS business-relationship inference from observed AS paths (paper §IV-A).
//
// The paper builds its topology by (1) running Gao's classic degree/transit
// voting algorithm seeded with tier-1 peering links, (2) running a
// CAIDA-style clique-based inference, (3) taking the links both agree on and
// re-running Gao seeded with that agreement set. We implement the same
// pipeline and — because our generator provides ground truth — can score it.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "bgp/as_path.h"
#include "topology/as_graph.h"

namespace asppi::infer {

using bgp::AsPath;
using topo::Asn;
using topo::Relation;

// Inferred relationship for the unordered link {a, b} with a < b:
// the stored Relation is b's role relative to a (kCustomer = "a provides for
// b"), matching AsGraph::AddLink(a, b, rel).
class InferredRelationships {
 public:
  void Set(Asn a, Asn b, Relation rel_of_b);
  // nullopt if the link was never classified.
  std::optional<Relation> Get(Asn a, Asn b) const;
  std::size_t Size() const { return links_.size(); }
  const std::map<std::pair<Asn, Asn>, Relation>& Links() const {
    return links_;
  }

  // Materializes an AsGraph (useful to feed the simulator with an inferred
  // topology, as the paper does).
  topo::AsGraph ToGraph() const;

 private:
  std::map<std::pair<Asn, Asn>, Relation> links_;
};

struct GaoParams {
  // Vote-ratio bound under which opposing transit votes mean "sibling".
  double sibling_ratio = 1.0;
  // Degree-ratio bound for the peering heuristic at the path's top provider.
  double peer_degree_ratio = 10.0;
  // Seed relationships forced into the result (e.g. tier-1 peering links, or
  // the consensus agreement set).
  std::vector<std::tuple<Asn, Asn, Relation>> seeds;
};

// Gao's algorithm over observed (prepend-collapsed) AS paths.
InferredRelationships InferGao(const std::vector<AsPath>& paths,
                               const GaoParams& params);

// CAIDA-like inference: infer the clique of top ASes first, classify
// clique-internal links as peering, and orient the rest by position relative
// to the clique (falling back to degree voting).
InferredRelationships InferCaidaLike(const std::vector<AsPath>& paths);

// The paper's consensus pipeline: links where Gao and CAIDA-like agree seed
// a Gao re-run.
InferredRelationships InferConsensus(const std::vector<AsPath>& paths,
                                     const GaoParams& params);

// Accuracy of an inference against the generator's ground truth.
struct InferenceScore {
  std::size_t evaluated = 0;  // inferred links that exist in the truth
  std::size_t correct = 0;
  std::size_t spurious = 0;  // inferred links absent from the truth
  std::size_t missed = 0;    // true links never inferred (not on any path)
  double Accuracy() const {
    return evaluated == 0
               ? 0.0
               : static_cast<double>(correct) / static_cast<double>(evaluated);
  }
};

InferenceScore Score(const InferredRelationships& inferred,
                     const topo::AsGraph& truth);

// Collects observation paths: the best route from every monitor to every
// origin, computed with the RoutingTree engine.
std::vector<AsPath> CollectPaths(const topo::AsGraph& graph,
                                 std::span<const Asn> monitors,
                                 std::span<const Asn> origins);

}  // namespace asppi::infer
