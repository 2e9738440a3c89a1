#include "check/reference_engine.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"

namespace asppi::check {

namespace {

struct OracleMetrics {
  util::Counter converges{"check.reference.converges"};
  util::Counter rounds{"check.reference.rounds"};
  util::Counter sequential_fallbacks{"check.reference.sequential_fallbacks"};
  util::Counter unsettled{"check.reference.unsettled"};
};

OracleMetrics& Instr() {
  static OracleMetrics* m = new OracleMetrics();
  return *m;
}

// Local-preference ranking, re-stated from the paper (§IV-B): an AS is paid
// for customer traffic and pays for provider traffic, siblings are
// intra-organization. Deliberately not LocalPrefOf() from bgp/policy.h — the
// oracle re-derives the ordering so a constant typo there would diverge here.
int RankOf(Relation effective) {
  switch (effective) {
    case Relation::kCustomer:
      return 3;
    case Relation::kSibling:
      return 2;
    case Relation::kPeer:
      return 1;
    case Relation::kProvider:
      return 0;
  }
  return -1;
}

// The decision process: class, then length including prepends, then lowest
// neighbor ASN.
bool Better(const ReferenceRoute& a, const ReferenceRoute& b) {
  if (RankOf(a.effective) != RankOf(b.effective)) {
    return RankOf(a.effective) > RankOf(b.effective);
  }
  if (a.path.Length() != b.path.Length()) {
    return a.path.Length() < b.path.Length();
  }
  return a.learned_from < b.learned_from;
}

// Valley-free export rule, re-stated: routes of customer/sibling class are
// exported to everyone; peer/provider-class routes only downward (to
// customers) and to siblings. `to_rel` is the receiver's role relative to
// the exporter.
bool ExportAllowed(Relation route_class, Relation to_rel) {
  if (route_class == Relation::kCustomer || route_class == Relation::kSibling) {
    return true;
  }
  return to_rel == Relation::kCustomer || to_rel == Relation::kSibling;
}

}  // namespace

ReferenceEngine::ReferenceEngine(const topo::AsGraph& graph) : graph_(graph) {}

ReferenceEngine::State MirrorFastState(const topo::AsGraph& graph,
                                       const bgp::PropagationResult& state) {
  ReferenceEngine::State mirror(graph.NumAses());
  for (std::size_t i = 0; i < graph.NumAses(); ++i) {
    const auto& best = state.BestAt(graph.AsnAt(i));
    if (!best.has_value()) continue;
    ReferenceRoute route;
    route.path = best->path;
    route.learned_from = best->learned_from;
    route.rel = best->rel;
    route.effective = best->effective;
    mirror[i] = std::move(route);
  }
  return mirror;
}

std::optional<ReferenceRoute> ReferenceEngine::Deliver(
    const bgp::Announcement& announcement, const ReferenceAttack* attack,
    Asn from, const std::optional<ReferenceRoute>& from_best, Asn to,
    Relation from_rel_to_self) const {
  const bool is_origin = (from == announcement.origin);
  // The receiver's role as the exporter sees it.
  const Relation to_rel = topo::Reverse(from_rel_to_self);

  bgp::AsPath path;
  Relation out_class = Relation::kCustomer;  // own prefix ranks like customer
  if (is_origin) {
    path = bgp::AsPath::Origin(from, announcement.prepends.PadsFor(from, to));
  } else {
    if (!from_best.has_value()) return std::nullopt;
    // Sender-side loop avoidance: never offer a route back through an AS
    // already on it.
    if (from_best->path.Contains(to)) return std::nullopt;
    path = from_best->path;
    path.Prepend(from, announcement.prepends.PadsFor(from, to));
    out_class = from_best->effective;
  }

  // The attacker hook: strip the victim's runs, then export per its boldness.
  bool force = false;
  if (attack != nullptr && from == attack->attacker &&
      path.Contains(attack->victim)) {
    const int removed = path.CollapseRunsOf(attack->victim);
    if (removed > 0) {
      if (attack->violate_valley_free) {
        force = true;
      } else if (attack->export_stripped_to_peers) {
        // Stripped routes masquerade as customer routes: announce everywhere
        // except upward.
        force = (to_rel != Relation::kProvider);
      }
    }
  }

  const bool policy_ok =
      is_origin || ExportAllowed(out_class, to_rel);
  if (!force && !policy_ok) return std::nullopt;
  // Receiver-side loop detection.
  if (path.Contains(to)) return std::nullopt;

  ReferenceRoute route;
  route.path = std::move(path);
  route.learned_from = from;
  route.rel = from_rel_to_self;
  // Sibling links transport the underlying class; real inter-domain
  // boundaries re-classify by the business relationship.
  route.effective = (from_rel_to_self == Relation::kSibling)
                        ? out_class
                        : from_rel_to_self;
  return route;
}

std::optional<ReferenceRoute> ReferenceEngine::ComputeBest(
    const bgp::Announcement& announcement, const State& state,
    const ReferenceAttack* attack, std::size_t u) const {
  const Asn u_asn = graph_.AsnAt(u);
  std::vector<std::optional<ReferenceRoute>> candidates;
  std::optional<ReferenceRoute> best;
  const bool attacker_here = attack != nullptr && u_asn == attack->attacker;
  for (const topo::AsGraph::Neighbor& nb : graph_.NeighborsOf(u_asn)) {
    std::optional<ReferenceRoute> offered =
        Deliver(announcement, attack, nb.asn, state[graph_.IndexOf(nb.asn)],
                u_asn, nb.rel);
    if (attacker_here) candidates.push_back(offered);
    if (offered.has_value() && (!best.has_value() || Better(*offered, *best))) {
      best = std::move(offered);
    }
  }
  // The policy-violating attacker overrides the decision process: among
  // received routes containing the victim it adopts the one whose
  // *stripped* form is shortest (ties by the normal decision order).
  if (attacker_here && attack->violate_valley_free) {
    const ReferenceRoute* chosen = nullptr;
    std::size_t chosen_len = 0;
    int strippable = 0;
    for (const auto& candidate : candidates) {
      if (!candidate.has_value() || !candidate->path.Contains(attack->victim)) {
        continue;
      }
      bgp::AsPath stripped = candidate->path;
      strippable =
          std::max(strippable, stripped.CollapseRunsOf(attack->victim));
      const std::size_t len = stripped.Length();
      if (chosen == nullptr || len < chosen_len ||
          (len == chosen_len && Better(*candidate, *chosen))) {
        chosen = &*candidate;
        chosen_len = len;
      }
    }
    if (chosen != nullptr && strippable > 0) best = *chosen;
  }
  return best;
}

ReferenceEngine::State ReferenceEngine::Step(
    const bgp::Announcement& announcement, const State& state,
    const ReferenceAttack* attack) const {
  const std::size_t n = graph_.NumAses();
  ASPPI_CHECK_EQ(state.size(), n);
  const std::size_t origin = graph_.IndexOf(announcement.origin);
  State next(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (u == origin) continue;  // the origin always keeps its own prefix
    next[u] = ComputeBest(announcement, state, attack, u);
  }
  return next;
}

ReferenceEngine::State ReferenceEngine::Converge(
    const bgp::Announcement& announcement,
    const ReferenceAttack* attack, bool* settled) const {
  ASPPI_CHECK(graph_.HasAs(announcement.origin));
  if (attack != nullptr) {
    ASPPI_CHECK(graph_.HasAs(attack->attacker));
    ASPPI_CHECK_NE(attack->attacker, attack->victim);
  }
  Instr().converges.Add();
  const std::size_t n = graph_.NumAses();
  const std::size_t origin = graph_.IndexOf(announcement.origin);
  State state(n);

  // Phase 1 — synchronous (Jacobi) rounds: every AS recomputes from the
  // previous round's state. This is the maximally schedule-independent way to
  // reach the Gao-Rexford fixpoint, and on attack-free (and most attacked)
  // instances it settles in O(diameter) rounds.
  constexpr int kJacobiRounds = 2000;
  int round = 0;
  bool stable = false;
  while (round < kJacobiRounds) {
    ++round;
    State next = Step(announcement, state, attack);
    if (next == state) {
      stable = true;
      break;
    }
    state = std::move(next);
  }

  // Phase 2 — sequential (Gauss-Seidel) sweeps, each AS updating in place in
  // dense-index order. The attacker's path rewriting can couple two ASes into
  // a synchronous 2-cycle (each flips based on the other's stale route) that
  // every *asynchronous* activation — including the event-driven simulator's
  // — resolves; a sequential sweep is such a schedule, so it finishes what
  // Jacobi cannot. The fixpoints of both schedules coincide, so which phase
  // terminates does not affect the answer. A few attacked instances settle
  // under neither schedule within the cap; the caller is told.
  if (!stable) {
    Instr().sequential_fallbacks.Add();
    constexpr int kMaxSweeps = 10000;
    for (int sweep = 0; !stable && sweep < kMaxSweeps; ++sweep) {
      ++round;
      bool changed = false;
      for (std::size_t u = 0; u < n; ++u) {
        if (u == origin) continue;
        std::optional<ReferenceRoute> best =
            ComputeBest(announcement, state, attack, u);
        if (best != state[u]) {
          state[u] = std::move(best);
          changed = true;
        }
      }
      stable = !changed;
    }
    if (!stable) Instr().unsettled.Add();
  }
  Instr().rounds.Add(static_cast<std::uint64_t>(round));
  if (settled != nullptr) *settled = stable;
  return state;
}

std::vector<Asn> ReferenceEngine::Traversing(const State& state, Asn origin,
                                             Asn x) const {
  std::vector<Asn> out;
  for (std::size_t i = 0; i < state.size(); ++i) {
    const Asn asn = graph_.AsnAt(i);
    if (asn == x || asn == origin) continue;
    if (state[i].has_value() && state[i]->path.Contains(x)) out.push_back(asn);
  }
  return out;
}

ReferenceEngine::Outcome ReferenceEngine::RunInterception(
    const bgp::Announcement& announcement, Asn attacker,
    bool violate_valley_free, bool export_stripped_to_peers) const {
  ReferenceAttack attack;
  attack.attacker = attacker;
  attack.victim = announcement.origin;
  attack.violate_valley_free = violate_valley_free;
  attack.export_stripped_to_peers = export_stripped_to_peers;

  Outcome outcome;
  outcome.before = Converge(announcement);
  outcome.after = Converge(announcement, &attack, &outcome.settled);

  const std::vector<Asn> before_set =
      Traversing(outcome.before, announcement.origin, attacker);
  const std::vector<Asn> after_set =
      Traversing(outcome.after, announcement.origin, attacker);
  const std::size_t n = graph_.NumAses();
  if (n > 2) {
    const double denom = static_cast<double>(n - 2);
    outcome.fraction_before = static_cast<double>(before_set.size()) / denom;
    outcome.fraction_after = static_cast<double>(after_set.size()) / denom;
  }
  for (Asn asn : after_set) {
    bool was = false;
    for (Asn b : before_set) {
      if (b == asn) {
        was = true;
        break;
      }
    }
    if (!was) outcome.newly_polluted.push_back(asn);
  }
  return outcome;
}

}  // namespace asppi::check
