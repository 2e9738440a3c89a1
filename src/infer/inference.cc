#include "infer/inference.h"

#include <algorithm>
#include <set>

#include "bgp/routing_tree.h"
#include "util/check.h"

namespace asppi::infer {

namespace {

using PairKey = std::pair<Asn, Asn>;

PairKey Key(Asn a, Asn b) { return {std::min(a, b), std::max(a, b)}; }

// Degree of each AS as seen in the path set.
std::map<Asn, std::size_t> PathDegrees(
    const std::vector<std::vector<Asn>>& sequences) {
  std::map<Asn, std::set<Asn>> neighbors;
  for (const auto& seq : sequences) {
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      neighbors[seq[i]].insert(seq[i + 1]);
      neighbors[seq[i + 1]].insert(seq[i]);
    }
  }
  std::map<Asn, std::size_t> degrees;
  for (const auto& [asn, set] : neighbors) degrees[asn] = set.size();
  return degrees;
}

std::vector<std::vector<Asn>> CollapsePaths(const std::vector<AsPath>& paths) {
  std::vector<std::vector<Asn>> sequences;
  sequences.reserve(paths.size());
  for (const AsPath& path : paths) {
    std::vector<Asn> seq = path.DistinctSequence();
    if (seq.size() >= 2) sequences.push_back(std::move(seq));
  }
  return sequences;
}

// Directed transit votes: votes[{p, c}] = times p was observed providing
// transit toward c, plus peer-candidate counts at path tops.
struct Votes {
  std::map<PairKey, std::pair<std::size_t, std::size_t>> transit;
  // first = votes for "min-ASN side is the provider", second = other side
  std::map<PairKey, std::size_t> peer_candidates;
};

Votes CountVotes(const std::vector<std::vector<Asn>>& sequences,
                 const std::map<Asn, std::size_t>& degrees,
                 double peer_degree_ratio) {
  Votes votes;
  auto add_transit = [&votes](Asn provider, Asn customer) {
    auto key = Key(provider, customer);
    auto& [low_is_provider, high_is_provider] = votes.transit[key];
    if (provider == key.first) {
      ++low_is_provider;
    } else {
      ++high_is_provider;
    }
  };
  for (const auto& seq : sequences) {
    // Top provider: the highest-degree AS on the path.
    std::size_t top = 0;
    for (std::size_t i = 1; i < seq.size(); ++i) {
      if (degrees.at(seq[i]) > degrees.at(seq[top])) top = i;
    }
    // Uphill before the top (each next hop is the previous one's provider),
    // downhill after it.
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      if (i + 1 <= top) {
        add_transit(/*provider=*/seq[i + 1], /*customer=*/seq[i]);
      } else {
        add_transit(/*provider=*/seq[i], /*customer=*/seq[i + 1]);
      }
    }
    // Peering heuristic: the edge between the top provider and its
    // similar-degree neighbor is a peer candidate.
    auto consider_peer = [&](std::size_t i, std::size_t j) {
      double da = static_cast<double>(degrees.at(seq[i]));
      double db = static_cast<double>(degrees.at(seq[j]));
      double ratio = da > db ? da / db : db / da;
      if (ratio <= peer_degree_ratio) {
        ++votes.peer_candidates[Key(seq[i], seq[j])];
      }
    };
    if (top > 0) consider_peer(top - 1, top);
    if (top + 1 < seq.size()) consider_peer(top, top + 1);
  }
  return votes;
}

}  // namespace

void InferredRelationships::Set(Asn a, Asn b, Relation rel_of_b) {
  ASPPI_CHECK_NE(a, b);
  if (a < b) {
    links_[{a, b}] = rel_of_b;
  } else {
    links_[{b, a}] = topo::Reverse(rel_of_b);
  }
}

std::optional<Relation> InferredRelationships::Get(Asn a, Asn b) const {
  auto it = links_.find(Key(a, b));
  if (it == links_.end()) return std::nullopt;
  return a < b ? it->second : topo::Reverse(it->second);
}

topo::AsGraph InferredRelationships::ToGraph() const {
  topo::GraphBuilder builder;
  for (const auto& [pair, rel] : links_) {
    builder.AddLink(pair.first, pair.second, rel);
  }
  return builder.Freeze();
}

InferredRelationships InferGao(const std::vector<AsPath>& paths,
                               const GaoParams& params) {
  InferredRelationships result;
  std::vector<std::vector<Asn>> sequences = CollapsePaths(paths);
  if (sequences.empty()) return result;
  std::map<Asn, std::size_t> degrees = PathDegrees(sequences);
  Votes votes = CountVotes(sequences, degrees, params.peer_degree_ratio);

  std::set<PairKey> seeded;
  for (const auto& [a, b, rel] : params.seeds) {
    result.Set(a, b, rel);
    seeded.insert(Key(a, b));
  }

  for (const auto& [key, counts] : votes.transit) {
    if (seeded.contains(key)) continue;
    const auto [low_votes, high_votes] = counts;
    const Asn low = key.first;
    const Asn high = key.second;
    if (low_votes > 0 && high_votes > 0) {
      const double hi = static_cast<double>(std::max(low_votes, high_votes));
      const double lo = static_cast<double>(std::min(low_votes, high_votes));
      if (hi <= params.sibling_ratio * lo) {
        result.Set(low, high, Relation::kSibling);
        continue;
      }
    }
    // Peer heuristic: classify as peering when the peer-candidate votes
    // dominate the oriented transit votes.
    auto peer_it = votes.peer_candidates.find(key);
    const std::size_t peer_votes =
        peer_it == votes.peer_candidates.end() ? 0 : peer_it->second;
    const std::size_t oriented = std::max(low_votes, high_votes);
    if (peer_votes >= oriented && peer_votes > 0) {
      result.Set(low, high, Relation::kPeer);
      continue;
    }
    if (low_votes >= high_votes) {
      result.Set(low, high, Relation::kCustomer);  // low provides for high
    } else {
      result.Set(high, low, Relation::kCustomer);
    }
  }
  return result;
}

InferredRelationships InferCaidaLike(const std::vector<AsPath>& paths) {
  InferredRelationships result;
  std::vector<std::vector<Asn>> sequences = CollapsePaths(paths);
  if (sequences.empty()) return result;
  std::map<Asn, std::size_t> degrees = PathDegrees(sequences);

  // Adjacency as observed.
  std::set<PairKey> edges;
  for (const auto& seq : sequences) {
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      edges.insert(Key(seq[i], seq[i + 1]));
    }
  }
  auto adjacent = [&edges](Asn a, Asn b) { return edges.contains(Key(a, b)); };

  // Transit degree (AS-Rank style): distinct neighbors an AS is observed
  // *between*. Raw degree would crown richly-peered content ASes; transit
  // degree finds the true core.
  std::map<Asn, std::set<Asn>> transit_partners;
  for (const auto& seq : sequences) {
    for (std::size_t i = 1; i + 1 < seq.size(); ++i) {
      transit_partners[seq[i]].insert(seq[i - 1]);
      transit_partners[seq[i]].insert(seq[i + 1]);
    }
  }

  // Clique inference: greedily grow from the highest-transit-degree AS,
  // adding the next candidate adjacent to every current member.
  std::vector<std::pair<std::size_t, Asn>> by_degree;
  for (const auto& [asn, partners] : transit_partners) {
    by_degree.push_back({partners.size(), asn});
  }
  std::sort(by_degree.rbegin(), by_degree.rend());
  std::vector<Asn> clique;
  for (const auto& [degree, asn] : by_degree) {
    bool all_adjacent = true;
    for (Asn member : clique) {
      if (!adjacent(asn, member)) {
        all_adjacent = false;
        break;
      }
    }
    if (all_adjacent) clique.push_back(asn);
  }
  std::set<Asn> clique_set(clique.begin(), clique.end());

  // Orientation: votes with the path "top" = first clique member if present,
  // else the highest-degree AS.
  Votes votes;
  auto add_transit = [&votes](Asn provider, Asn customer) {
    auto key = Key(provider, customer);
    auto& counts = votes.transit[key];
    if (provider == key.first) {
      ++counts.first;
    } else {
      ++counts.second;
    }
  };
  auto transit_degree_of = [&transit_partners](Asn asn) {
    auto it = transit_partners.find(asn);
    return it == transit_partners.end() ? std::size_t{0} : it->second.size();
  };
  constexpr double kPeerTransitRatio = 4.0;
  for (const auto& seq : sequences) {
    std::size_t top = sequences.size();  // sentinel
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (clique_set.contains(seq[i])) {
        top = i;
        break;
      }
    }
    if (top >= seq.size()) {
      top = 0;
      for (std::size_t i = 1; i < seq.size(); ++i) {
        if (degrees.at(seq[i]) > degrees.at(seq[top])) top = i;
      }
    }
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      if (i + 1 <= top) {
        add_transit(seq[i + 1], seq[i]);
      } else {
        add_transit(seq[i], seq[i + 1]);
      }
    }
    // Peer heuristic (AS-Rank flavored): the edge at the path's apex between
    // ASes of comparable transit degree is likely settlement-free peering.
    auto consider_peer = [&](std::size_t i, std::size_t j) {
      double da = static_cast<double>(std::max<std::size_t>(
          transit_degree_of(seq[i]), 1));
      double db = static_cast<double>(std::max<std::size_t>(
          transit_degree_of(seq[j]), 1));
      double ratio = da > db ? da / db : db / da;
      if (ratio <= kPeerTransitRatio) {
        ++votes.peer_candidates[Key(seq[i], seq[j])];
      }
    };
    if (top > 0) consider_peer(top - 1, top);
    if (top + 1 < seq.size()) consider_peer(top, top + 1);
  }
  for (const auto& [key, counts] : votes.transit) {
    if (clique_set.contains(key.first) && clique_set.contains(key.second)) {
      result.Set(key.first, key.second, Relation::kPeer);
      continue;
    }
    auto peer_it = votes.peer_candidates.find(key);
    const std::size_t peer_votes =
        peer_it == votes.peer_candidates.end() ? 0 : peer_it->second;
    if (peer_votes >= std::max(counts.first, counts.second) &&
        peer_votes > 0) {
      result.Set(key.first, key.second, Relation::kPeer);
      continue;
    }
    if (counts.first >= counts.second) {
      result.Set(key.first, key.second, Relation::kCustomer);
    } else {
      result.Set(key.second, key.first, Relation::kCustomer);
    }
  }
  return result;
}

InferredRelationships InferConsensus(const std::vector<AsPath>& paths,
                                     const GaoParams& params) {
  InferredRelationships gao = InferGao(paths, params);
  InferredRelationships caida = InferCaidaLike(paths);
  GaoParams seeded = params;
  for (const auto& [pair, rel] : gao.Links()) {
    auto other = caida.Get(pair.first, pair.second);
    if (other.has_value() && *other == rel) {
      seeded.seeds.emplace_back(pair.first, pair.second, rel);
    }
  }
  return InferGao(paths, seeded);
}

InferenceScore Score(const InferredRelationships& inferred,
                     const topo::AsGraph& truth) {
  InferenceScore score;
  for (const auto& [pair, rel] : inferred.Links()) {
    if (!truth.HasAs(pair.first) || !truth.HasAs(pair.second)) {
      ++score.spurious;
      continue;
    }
    auto true_rel = truth.RelationOf(pair.first, pair.second);
    if (!true_rel.has_value()) {
      ++score.spurious;
      continue;
    }
    ++score.evaluated;
    if (*true_rel == rel) ++score.correct;
  }
  for (topo::AsId id = 0; id < truth.NumAses(); ++id) {
    const Asn a = truth.AsnAt(id);
    for (const topo::AsGraph::Neighbor& n : truth.NeighborsAt(id)) {
      if (a < n.asn && !inferred.Get(a, n.asn).has_value()) ++score.missed;
    }
  }
  return score;
}

std::vector<AsPath> CollectPaths(const topo::AsGraph& graph,
                                 std::span<const Asn> monitors,
                                 std::span<const Asn> origins) {
  std::vector<AsPath> paths;
  for (Asn origin : origins) {
    bgp::Announcement announcement;
    announcement.origin = origin;
    const bgp::RoutingTree tree(graph, announcement);
    for (Asn monitor : monitors) {
      std::optional<bgp::Route> best = tree.BestAt(monitor);
      if (!best) continue;
      // A collector peering with the monitor sees the monitor's own ASN at
      // the front of the exported path (RouteViews convention) — and without
      // it, core peering links (e.g. tier-1 meshes) never appear in the data.
      best->path.Prepend(monitor);
      paths.push_back(std::move(best->path));
    }
  }
  return paths;
}

}  // namespace asppi::infer
