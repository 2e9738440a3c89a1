#include "bgp/routing_tree.h"

#include <initializer_list>
#include <limits>

#include "util/check.h"
#include "util/metrics.h"

namespace asppi::bgp {

namespace {

using topo::AsGraph;
using topo::AsId;
using topo::Edge;
using topo::Relation;

// Per-phase BFS/Dijkstra visit counts (settled queue pops / relaxation
// scans), plus builds — the routing tree's share of a sweep's work.
struct TreeMetrics {
  util::Counter builds{"bgp.routing_tree.builds"};
  util::Counter phase1{"bgp.routing_tree.phase1_visits"};
  util::Counter phase2{"bgp.routing_tree.phase2_visits"};
  util::Counter phase3{"bgp.routing_tree.phase3_visits"};
};

TreeMetrics& Instr() {
  static TreeMetrics* m = new TreeMetrics();
  return *m;
}

// The phase that gave an AS its route, which is also the route's class. An
// AS keeps the first phase's route: customer > peer > provider.
enum Phase : std::uint8_t { kUnrouted, kCustomerPhase, kPeerPhase, kProviderPhase };

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
constexpr std::uint32_t kNoParent = PropagationResult::kNoParent;

// Dial's bucket queue: one bucket of ASes per route length, grown to the
// longest length pushed. Pads are at least 1, so every push made while a
// bucket drains lands in a later bucket, and the order within a bucket does
// not matter: offer breaks length ties by the lowest ASN whatever the order.
class BucketQueue {
 public:
  void Push(std::size_t dist, AsId node) {
    if (dist >= buckets_.size()) buckets_.resize(dist + 1);
    buckets_[dist].push_back(node);
  }

  // Calls visit(dist, node) for every entry in nondecreasing distance,
  // entries that visit pushes included, and leaves the queue empty.
  template <typename Visit>
  void Drain(Visit&& visit) {
    std::vector<AsId> bucket;
    for (std::size_t d = 0; d < buckets_.size(); ++d) {
      // Drained from a local: a push may grow buckets_ and move its rows.
      bucket.swap(buckets_[d]);
      for (const AsId node : bucket) visit(d, node);
      bucket.clear();
    }
  }

 private:
  std::vector<std::vector<AsId>> buckets_;
};

}  // namespace

RoutingTree::RoutingTree(const AsGraph& graph, const Announcement& announcement)
    : graph_(graph), announcement_(announcement) {
  ASPPI_CHECK(graph.HasAs(announcement.origin));
  Instr().builds.Add();
  const std::size_t n = graph.NumAses();
  const AsId origin = graph.IndexOf(announcement.origin);
  parent_slots_.assign(n, kNoParent);
  // dist[as]: length of the AS's route, pads included (kInf: none yet).
  std::vector<std::size_t> dist(n, kInf);
  std::vector<std::uint8_t> phase(n, kUnrouted);
  BucketQueue queue;

  // `u` offers its route over `edge` during phase `p`. A receiver routed by
  // an earlier phase ignores it; otherwise it keeps the shorter route, and of
  // two equally long ones the one from the lower neighbor ASN. Returns true
  // when the receiver's distance dropped, so it must be (re)queued.
  const auto offer = [&](AsId u, const Edge& edge, Phase p) {
    const AsId v = edge.id;
    if (phase[v] != kUnrouted && phase[v] != p) return false;
    const Asn u_asn = graph.AsnAt(u);
    const std::size_t nd =
        dist[u] + static_cast<std::size_t>(
                      announcement_.prepends.PadsFor(u_asn, edge.asn));
    if (nd < dist[v]) {
      dist[v] = nd;
      phase[v] = p;
      parent_slots_[v] = edge.back_slot;
      return true;
    }
    if (nd == dist[v] && u_asn < graph.NeighborsAt(v)[parent_slots_[v]].asn) {
      parent_slots_[v] = edge.back_slot;
    }
    return false;
  };
  // Dijkstra from what is queued, offering over the `rels` segments.
  const auto settle = [&](Phase p, std::initializer_list<Relation> rels) {
    std::uint64_t visits = 0;
    queue.Drain([&](std::size_t d, AsId u) {
      if (d != dist[u]) return;  // stale entry
      ++visits;
      for (const Relation rel : rels) {
        for (const Edge& edge : graph.EdgeSegmentAt(u, rel)) {
          if (offer(u, edge, p)) queue.Push(dist[edge.id], edge.id);
        }
      }
    });
    return visits;
  };

  // --- Phase 1: customer routes, up provider edges and across siblings ----
  // The origin ranks its own prefix like a customer route.
  dist[origin] = 0;
  phase[origin] = kCustomerPhase;
  queue.Push(0, origin);
  Instr().phase1.Add(
      settle(kCustomerPhase, {Relation::kProvider, Relation::kSibling}));

  // --- Phase 2: peer routes, one peer edge from a customer route, then ----
  // across siblings. Only ASes with sibling links seed the sibling pass.
  std::uint64_t peer_visits = 0;
  for (AsId w = 0; w < n; ++w) {
    if (phase[w] != kCustomerPhase) continue;
    ++peer_visits;
    for (const Edge& edge : graph.EdgeSegmentAt(w, Relation::kPeer)) {
      offer(w, edge, kPeerPhase);
    }
  }
  for (AsId v = 0; v < n; ++v) {
    if (phase[v] == kPeerPhase && !graph.SiblingsAt(v).empty()) {
      queue.Push(dist[v], v);
    }
  }
  peer_visits += settle(kPeerPhase, {Relation::kSibling});
  Instr().phase2.Add(peer_visits);

  // --- Phase 3: provider routes, down customer edges and across siblings --
  // Every routed AS exports its best route to its customers; relaxation may
  // chain through provider-route-only ASes (Provider-Customer* suffix).
  for (AsId u = 0; u < n; ++u) {
    if (phase[u] != kUnrouted) queue.Push(dist[u], u);
  }
  Instr().phase3.Add(
      settle(kProviderPhase, {Relation::kCustomer, Relation::kSibling}));
}

std::optional<Route> RoutingTree::BestAt(Asn asn) const {
  // The parent chain from `asn` up to its root, the origin (or `asn` itself
  // when it has no route).
  std::vector<AsId> chain;
  AsId at = graph_.IndexOf(asn);
  while (parent_slots_[at] != kNoParent) {
    chain.push_back(at);
    at = graph_.NeighborsAt(at)[parent_slots_[at]].id;
  }
  // Down the chain, each AS's best route is its parent's export to it.
  std::optional<Route> best;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const Edge& up = graph_.NeighborsAt(*it)[parent_slots_[*it]];
    best = engine_detail::AttackFreeSlot(graph_, announcement_, up, best);
    ASPPI_CHECK(best.has_value())
        << "AS" << up.asn << " exports no route to its tree child AS"
        << graph_.AsnAt(*it);
  }
  return best;
}

}  // namespace asppi::bgp
