#include "bgp/propagation.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace asppi::bgp {

namespace {

// Engine counters (DESIGN.md §4d). All are work counters, not scheduling
// counters: a deterministic workload produces identical totals for any
// thread count.
struct EngineMetrics {
  util::Counter runs{"bgp.propagation.runs"};
  util::Counter resumes{"bgp.propagation.resumes"};
  util::Counter rounds{"bgp.propagation.rounds"};
  util::Counter decisions{"bgp.propagation.decisions"};
  util::Counter announced{"bgp.propagation.routes_announced"};
  util::Counter withdrawn{"bgp.propagation.routes_withdrawn"};
  util::Timer converge_time{"bgp.propagation.converge"};
};

EngineMetrics& Instr() {
  static EngineMetrics* m = new EngineMetrics();
  return *m;
}

std::string RenderRoute(const std::optional<Route>& route) {
  if (!route.has_value()) return "<none>";
  return util::Format("[%s] from AS%u", route->path.ToString().c_str(),
                      static_cast<unsigned>(route->learned_from));
}

// One candidate export from `u_asn` to the neighbor (v_asn, v_rel):
// `send == false` means nothing crosses the wire this round (either no route
// to offer after sender-side loop avoidance, or policy/transform suppressed
// it). `path` is only meaningful when `send` is set.
struct WireExport {
  bool send = false;
  AsPath path;
  Relation out_class = Relation::kCustomer;
};

// The export as it leaves `u_asn`: the origin announces its own prefix
// (ranked like a customer route), everyone else re-exports its best route
// behind its own pads, and the transform's OnExport hook may rewrite the
// path or force/suppress the send.
WireExport BuildExport(const Announcement& announcement, Asn u_asn,
                       bool is_origin, const std::optional<Route>& best,
                       Asn v_asn, Relation v_rel, RouteTransform* transform) {
  WireExport out;
  // Never send a route back through an AS already on it (sender-side loop
  // avoidance; the receiver would discard it anyway).
  if (!is_origin && (!best.has_value() || best->path.Contains(v_asn))) {
    return out;
  }
  if (!is_origin) out.out_class = best->effective;
  const bool policy_ok =
      is_origin ? MayExportOwn(v_rel) : MayExport(out.out_class, v_rel);
  // Only a transform can send what the policy suppresses, so without one a
  // suppressed export needs no path.
  if (!policy_ok && transform == nullptr) return out;
  const int pads = announcement.prepends.PadsFor(u_asn, v_asn);
  out.path = is_origin ? AsPath::Origin(u_asn, pads)
                       : AsPath::Prepended(u_asn, pads, best->path);
  ExportAction action = ExportAction::kDefault;
  if (transform != nullptr) {
    action = transform->OnExport(u_asn, v_asn, v_rel, out.out_class, out.path);
  }
  out.send = (action == ExportAction::kForce) ||
             (action == ExportAction::kDefault && policy_ok);
  return out;
}

// Import-policy gate at the receiver (dense id `v`, ASN `v_asn`). A null
// filter accepts everything; MightFilter narrows the per-delivery cost to
// deployed receivers.
bool AcceptDelivery(const ImportFilter* filter, topo::AsId v, Asn v_asn,
                    const Route& route, const Announcement& announcement) {
  if (filter == nullptr || !filter->MightFilter(v)) return true;
  return filter->Accept(v, v_asn, route, announcement.origin,
                        announcement.prepends);
}

// The Adj-RIB-In entry a delivered `wire` becomes at the receiver.
Route DeliverRoute(WireExport&& wire, Asn u_asn, Relation v_rel) {
  Route route;
  route.path = std::move(wire.path);
  route.learned_from = u_asn;
  route.rel = topo::Reverse(v_rel);  // u's role relative to v
  // Sibling links transport the underlying class; real boundaries
  // re-classify by the business relationship.
  route.effective =
      (route.rel == Relation::kSibling) ? wire.out_class : route.rel;
  return route;
}

}  // namespace

namespace engine_detail {

Delivery ExportTo(const Announcement& announcement, Asn u_asn, bool is_origin,
                  const std::optional<Route>& best, const topo::Edge& to,
                  RouteTransform* transform, const ImportFilter* filter) {
  Delivery out;
  WireExport wire = BuildExport(announcement, u_asn, is_origin, best, to.asn,
                                to.rel, transform);
  out.sent = wire.send;
  // Receiver-side loop detection: a path containing the receiver is
  // discarded and invalidates any previous route from this neighbor.
  if (!wire.send || wire.path.Contains(to.asn)) return out;
  Route route = DeliverRoute(std::move(wire), u_asn, to.rel);
  // Import policy (defense/): a filtered route behaves like a looped one —
  // it crossed the wire but never enters the receiver's Adj-RIB-In.
  if (AcceptDelivery(filter, to.id, to.asn, route, announcement)) {
    out.route = std::move(route);
  }
  return out;
}

std::optional<Route> AttackFreeSlot(const topo::AsGraph& graph,
                                    const Announcement& announcement,
                                    const topo::Edge& from,
                                    const std::optional<Route>& from_best) {
  return ExportTo(announcement, from.asn, from.asn == announcement.origin,
                  from_best, graph.NeighborsAt(from.id)[from.back_slot],
                  nullptr, nullptr)
      .route;
}

RouteKey RouteKey::Of(const Route& route) {
  return RouteKey{route.LocalPref(), route.path.Length(), route.learned_from};
}

bool RouteKey::Beats(const RouteKey& other) const {
  if (local_pref != other.local_pref) return local_pref > other.local_pref;
  if (length != other.length) return length < other.length;
  return learned_from < other.learned_from;
}

std::optional<RouteKey> DeliveryKeyBeating(const Announcement& announcement,
                                           Asn u_asn, bool is_origin,
                                           const std::optional<Route>& best,
                                           Asn v_asn, Relation v_rel,
                                           const RouteKey* incumbent) {
  // BuildExport without a transform, then DeliverRoute. Without a transform
  // the receiver-side loop check never fires: the sender-side one has already
  // kept the receiver off the sender's path, and the pads are the sender's.
  if (!is_origin && !best.has_value()) return std::nullopt;
  const Relation out_class = is_origin ? Relation::kCustomer : best->effective;
  if (!(is_origin ? MayExportOwn(v_rel) : MayExport(out_class, v_rel))) {
    return std::nullopt;
  }
  const Relation rel = topo::Reverse(v_rel);
  RouteKey key;
  key.local_pref =
      LocalPrefOf(rel == Relation::kSibling ? out_class : rel);
  key.length =
      static_cast<std::size_t>(announcement.prepends.PadsFor(u_asn, v_asn)) +
      (is_origin ? 0 : best->path.Length());
  key.learned_from = u_asn;
  if (incumbent != nullptr && !key.Beats(*incumbent)) return std::nullopt;
  if (!is_origin && best->path.Contains(v_asn)) return std::nullopt;
  return key;
}

bool AttackFreeDelivers(bool is_origin, const std::optional<Route>& best,
                        Asn v_asn, Relation v_rel) {
  if (is_origin) return MayExportOwn(v_rel);
  return best.has_value() && MayExport(best->effective, v_rel) &&
         !best->path.Contains(v_asn);
}

std::optional<Route> ChooseBest(Asn u_asn,
                                std::span<const std::optional<Route>> rib,
                                RouteTransform* transform) {
  const std::optional<Route>* best = nullptr;
  for (const auto& candidate : rib) {
    if (!candidate.has_value()) continue;
    if (best == nullptr || BetterRoute(*candidate, **best)) {
      best = &candidate;
    }
  }
  std::optional<Route> chosen = best ? *best : std::optional<Route>{};
  if (transform != nullptr && transform->MightOverride(u_asn)) {
    if (auto overridden = transform->OverrideBest(u_asn, rib, chosen)) {
      chosen = std::move(overridden);
    }
  }
  return chosen;
}

}  // namespace engine_detail

const std::optional<Route>& PropagationResult::BestAt(Asn asn) const {
  return best_[graph_->IndexOf(asn)];
}

int PropagationResult::FirstChangeRound(Asn asn) const {
  return first_change_round_[graph_->IndexOf(asn)];
}

std::vector<Asn> PropagationResult::AsesTraversing(Asn x) const {
  std::vector<Asn> out;
  for (std::size_t i = 0; i < best_.size(); ++i) {
    Asn asn = graph_->AsnAt(i);
    if (asn == x || asn == announcement_.origin) continue;
    if (best_[i] && best_[i]->path.Contains(x)) out.push_back(asn);
  }
  return out;
}

double PropagationResult::FractionTraversing(Asn x) const {
  const std::size_t n = graph_->NumAses();
  if (n <= 2) return 0.0;
  return static_cast<double>(AsesTraversing(x).size()) /
         static_cast<double>(n - 2);
}

std::optional<Route> PropagationResult::RibAt(topo::AsId as,
                                              std::uint32_t slot) const {
  if (!rib_in_.empty()) return rib_in_[as][slot];
  const topo::Edge& from = graph_->NeighborsAt(as)[slot];
  return engine_detail::AttackFreeSlot(*graph_, announcement_, from,
                                       best_[from.id]);
}

void PropagationResult::StoreRibSlots() {
  parent_slots_ = {};
  if (!rib_in_.empty()) return;
  std::vector<std::vector<std::optional<Route>>> rib(graph_->NumAses());
  for (topo::AsId i = 0; i < rib.size(); ++i) {
    rib[i].reserve(graph_->DegreeAt(i));
    for (std::uint32_t slot = 0; slot < graph_->DegreeAt(i); ++slot) {
      rib[i].push_back(RibAt(i, slot));
    }
  }
  rib_in_ = std::move(rib);
}

std::vector<std::uint32_t> PropagationResult::ParentSlots() const {
  ASPPI_CHECK(converged_) << "only a converged state is a best-route tree";
  if (!parent_slots_.empty()) return parent_slots_;
  const std::size_t n = graph_->NumAses();
  std::vector<std::uint32_t> parent_slots(n, kNoParent);
  for (std::size_t i = 0; i < n; ++i) {
    if (!best_[i].has_value()) continue;
    const auto neighbors = graph_->NeighborsAt(static_cast<topo::AsId>(i));
    const auto parent = std::find_if(
        neighbors.begin(), neighbors.end(), [&](const topo::Edge& edge) {
          return edge.asn == best_[i]->learned_from;
        });
    ASPPI_CHECK(parent != neighbors.end())
        << "AS" << graph_->AsnAt(i) << " holds a route from a non-neighbor";
    parent_slots[i] = static_cast<std::uint32_t>(parent - neighbors.begin());
  }
  return parent_slots;
}

std::optional<std::vector<topo::AsId>> ParentsFirst(
    const topo::AsGraph& graph, std::span<const std::uint32_t> parent_slots,
    topo::AsId* cycle_at) {
  constexpr std::uint32_t kNoParent = PropagationResult::kNoParent;
  // Walk each AS's parent chain up to an AS already placed (or a root), then
  // place the chain top-down. Meeting an AS of the chain being walked again
  // closes a cycle.
  const std::size_t n = parent_slots.size();
  enum : std::uint8_t { kUnplaced, kOnChain, kPlaced };
  std::vector<std::uint8_t> mark(n, kUnplaced);
  std::vector<topo::AsId> order;
  order.reserve(n);
  std::vector<topo::AsId> chain;
  for (topo::AsId start = 0; start < n; ++start) {
    for (topo::AsId at = start; mark[at] == kUnplaced;) {
      mark[at] = kOnChain;
      chain.push_back(at);
      if (parent_slots[at] == kNoParent) break;
      at = graph.NeighborsAt(at)[parent_slots[at]].id;
      if (mark[at] == kOnChain) {
        *cycle_at = at;
        return std::nullopt;
      }
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      mark[*it] = kPlaced;
      order.push_back(*it);
    }
    chain.clear();
  }
  return order;
}

std::optional<PropagationResult> PropagationResult::FromParentSlots(
    const topo::AsGraph& graph, Announcement announcement,
    std::vector<std::uint32_t> parent_slots, std::string* error) {
  const std::size_t n = graph.NumAses();
  const auto fail = [&](topo::AsId id, const std::string& why) {
    *error = "AS" + std::to_string(graph.AsnAt(id)) + ": " + why;
    return std::nullopt;
  };
  ASPPI_CHECK(parent_slots.size() == n)
      << "parent slots do not cover the graph";
  if (!graph.HasAs(announcement.origin)) {
    *error = "origin AS" + std::to_string(announcement.origin) +
             " not in the graph";
    return std::nullopt;
  }
  const topo::AsId origin = graph.IndexOf(announcement.origin);
  for (topo::AsId i = 0; i < n; ++i) {
    if (parent_slots[i] == kNoParent) continue;
    if (i == origin) return fail(i, "the origin has a parent");
    if (parent_slots[i] >= graph.DegreeAt(i)) {
      return fail(i, "parent slot " + std::to_string(parent_slots[i]) +
                         " outside its degree " +
                         std::to_string(graph.DegreeAt(i)));
    }
  }

  topo::AsId cycle_at = 0;
  const std::optional<std::vector<topo::AsId>> order =
      ParentsFirst(graph, parent_slots, &cycle_at);
  if (!order.has_value()) return fail(cycle_at, "parent links form a cycle");

  // Parents-first, each AS's parent holds its best route by the AS's turn,
  // so one export from the parent gives the AS its own.
  PropagationResult result;
  result.graph_ = &graph;
  result.announcement_ = std::move(announcement);
  result.first_change_round_.assign(n, -1);
  result.best_.resize(n);
  for (topo::AsId u : *order) {
    if (parent_slots[u] == kNoParent) continue;
    const topo::Edge& up = graph.NeighborsAt(u)[parent_slots[u]];
    result.best_[u] = engine_detail::AttackFreeSlot(
        graph, result.announcement_, up, result.best_[up.id]);
    if (!result.best_[u].has_value()) {
      return fail(u, "parent AS" + std::to_string(up.asn) +
                         " delivers it no route");
    }
  }
  result.parent_slots_ = std::move(parent_slots);
  return result;
}

std::size_t PropagationResult::ReachableCount() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < best_.size(); ++i) {
    if (graph_->AsnAt(i) == announcement_.origin) continue;
    if (best_[i]) ++count;
  }
  return count;
}

namespace {

// FirstDifference past the round counts; change rounds only when `timing`.
std::string FirstStateDifference(const PropagationResult& got,
                                 const PropagationResult& want,
                                 const char* got_name, const char* want_name,
                                 bool timing) {
  const topo::AsGraph& graph = want.Graph();
  if (got.Converged() != want.Converged()) {
    return util::Format("converged: %s %d, %s %d", got_name, got.Converged(),
                        want_name, want.Converged());
  }
  if (got.Graph().NumAses() != graph.NumAses()) {
    return util::Format("graph: %s %zu ASes, %s %zu", got_name,
                        got.Graph().NumAses(), want_name, graph.NumAses());
  }
  for (topo::AsId i = 0; i < graph.NumAses(); ++i) {
    const unsigned asn = graph.AsnAt(i);
    if (got.BestRoutes()[i] != want.BestRoutes()[i]) {
      return util::Format("AS%u best route: %s %s, %s %s", asn, got_name,
                          RenderRoute(got.BestRoutes()[i]).c_str(), want_name,
                          RenderRoute(want.BestRoutes()[i]).c_str());
    }
    if (timing && got.FirstChangeRounds()[i] != want.FirstChangeRounds()[i]) {
      return util::Format("AS%u change round: %s %d, %s %d", asn, got_name,
                          got.FirstChangeRounds()[i], want_name,
                          want.FirstChangeRounds()[i]);
    }
    const auto neighbors = graph.NeighborsAt(i);
    for (std::uint32_t slot = 0; slot < neighbors.size(); ++slot) {
      const std::optional<Route> got_slot = got.RibAt(i, slot);
      const std::optional<Route> want_slot = want.RibAt(i, slot);
      if (got_slot != want_slot) {
        return util::Format("AS%u Adj-RIB-In slot for AS%u: %s %s, %s %s", asn,
                            neighbors[slot].asn, got_name,
                            RenderRoute(got_slot).c_str(), want_name,
                            RenderRoute(want_slot).c_str());
      }
    }
  }
  return "";
}

}  // namespace

std::string FirstDifference(const PropagationResult& got,
                            const PropagationResult& want,
                            const char* got_name, const char* want_name) {
  if (got.Rounds() != want.Rounds()) {
    return util::Format("rounds: %s %d, %s %d", got_name, got.Rounds(),
                        want_name, want.Rounds());
  }
  return FirstStateDifference(got, want, got_name, want_name,
                              /*timing=*/true);
}

std::string FirstBaselineDifference(const PropagationResult& built,
                                    const PropagationResult& run,
                                    const char* built_name) {
  return FirstStateDifference(built, run, built_name, "Run", /*timing=*/false);
}

PropagationSimulator::PropagationSimulator(const topo::AsGraph& graph)
    : graph_(graph) {}

PropagationResult PropagationSimulator::Run(const Announcement& announcement,
                                            RouteTransform* transform,
                                            const ImportFilter* filter) const {
  ASPPI_CHECK(graph_.HasAs(announcement.origin))
      << "origin AS" << announcement.origin << " not in graph";
  PropagationResult state;
  state.graph_ = &graph_;
  state.announcement_ = announcement;
  const std::size_t n = graph_.NumAses();
  state.best_.resize(n);
  state.first_change_round_.assign(n, -1);
  state.rib_in_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    state.rib_in_[i].resize(graph_.DegreeAt(static_cast<topo::AsId>(i)));
  }

  std::vector<std::uint8_t> need_export(n, 0);
  need_export[graph_.IndexOf(announcement.origin)] = 1;
  Instr().runs.Add();
  RunLoop(state, transform, filter, need_export);
  return state;
}

PropagationResult PropagationSimulator::Resume(const PropagationResult& prior,
                                               RouteTransform* transform,
                                               const std::vector<Asn>& dirty,
                                               const ImportFilter* filter) const {
  ASPPI_CHECK(prior.graph_ == &graph_) << "state from a different graph";
  PropagationResult state = prior;
  state.StoreRibSlots();
  state.rounds_ = 0;
  state.converged_ = true;
  std::fill(state.first_change_round_.begin(), state.first_change_round_.end(),
            -1);
  std::vector<std::uint8_t> need_export(graph_.NumAses(), 0);
  for (Asn asn : dirty) {
    const std::size_t idx = graph_.IndexOf(asn);
    need_export[idx] = 1;
    // The transform may change what this AS *chooses*, not only what it
    // exports (OverrideBest) — refresh its decision before re-announcing.
    Decide(state, idx, transform);
  }
  Instr().resumes.Add();
  RunLoop(state, transform, filter, need_export);
  return state;
}

void PropagationSimulator::RunLoop(PropagationResult& state,
                                   RouteTransform* transform,
                                   const ImportFilter* filter,
                                   std::vector<std::uint8_t>& need_export) const {
  util::ScopedTimer converge_timer(Instr().converge_time);
  const std::size_t n = graph_.NumAses();
  std::vector<std::uint8_t> dirty(n, 0);
#ifndef NDEBUG
  // Satellite invariant: every edge carries its target's dense id and back
  // slot, so the converged loop must never translate an ASN (all IndexOf
  // calls happen at seeding, before this point).
  const std::uint64_t lookups_before = topo::detail::AsnLookupCount();
#endif

  // Synchronous rounds: all round-r exports are decided upon in round r+1,
  // so FirstChangeRound() measures hop-waves from the event source. This
  // schedule is convergent because the policy system is Gao-Rexford-safe by
  // construction: sibling links transport the underlying route class (see
  // Route::effective) and every topology is provider-customer acyclic.
  //
  // Both phase scans walk IdsByRank() — customer-cone tier order, lowest
  // first — instead of raw id order, so announcement waves sweep up the
  // hierarchy the way they propagate. The phases are read/write disjoint
  // (exports read best_, decisions write it), so any within-phase permutation
  // converges to the identical state; rank order just reaches that state
  // with better flag locality on generated topologies.
  const std::span<const topo::AsId> by_rank = graph_.IdsByRank();
  int round = 0;
  while (true) {
    // Export phase: everything flagged sends its current view.
    bool any_export = false;
    for (topo::AsId u : by_rank) {
      if (!need_export[u]) continue;
      any_export = true;
      need_export[u] = 0;
      ExportFrom(state, u, transform, filter, dirty);
    }
    if (!any_export) break;
    ++round;
    // Adversarial transforms can force valley-violating exports whose
    // preference cycles never settle (Griffin's dispute wheels). Stop at the
    // cap and flag the state instead of aborting: the cap snapshot is still
    // deterministic, and the delta engine stops at the identical point.
    if (round >= engine_detail::kMaxRounds) {
      state.converged_ = false;
      break;
    }

    // Decision phase: receivers of changed slots re-run the decision process.
    bool any_change = false;
    for (topo::AsId v : by_rank) {
      if (!dirty[v]) continue;
      dirty[v] = 0;
      if (Decide(state, v, transform)) {
        any_change = true;
        if (state.first_change_round_[v] < 0) {
          state.first_change_round_[v] = round;
        }
        need_export[v] = 1;
      }
    }
    if (!any_change) break;
  }
  state.rounds_ = round;
  Instr().rounds.Add(static_cast<std::uint64_t>(round));
#ifndef NDEBUG
  ASPPI_CHECK_EQ(topo::detail::AsnLookupCount(), lookups_before)
      << "ASN hash/interning lookup inside the propagation loop";
#endif
}

void PropagationSimulator::ExportFrom(PropagationResult& state, std::size_t u,
                                      RouteTransform* transform,
                                      const ImportFilter* filter,
                                      std::vector<std::uint8_t>& dirty) const {
  const Asn u_asn = graph_.AsnAt(u);
  const bool is_origin = (u_asn == state.announcement_.origin);
  const std::optional<Route>& best = state.best_[u];
  std::uint64_t announced = 0, withdrawn = 0;

  for (const topo::Edge& edge :
       graph_.NeighborsAt(static_cast<topo::AsId>(u))) {
    engine_detail::Delivery delivery = engine_detail::ExportTo(
        state.announcement_, u_asn, is_origin, best, edge, transform, filter);
    if (delivery.sent) ++announced;
    auto& slot_route = state.rib_in_[edge.id][edge.back_slot];
    if (delivery.route == slot_route) continue;
    // A held slot cleared because nothing was sent is a withdrawal.
    if (!delivery.sent) ++withdrawn;
    slot_route = std::move(delivery.route);
    dirty[edge.id] = 1;
  }
  // One shard update per exporter, not per neighbor.
  if (announced != 0) Instr().announced.Add(announced);
  if (withdrawn != 0) Instr().withdrawn.Add(withdrawn);
}

bool PropagationSimulator::Decide(PropagationResult& state, std::size_t u,
                                  RouteTransform* transform) const {
  Instr().decisions.Add();
  const Asn u_asn = graph_.AsnAt(u);
  // The origin always prefers its own prefix; learned routes for it are
  // loop-discarded at delivery anyway.
  if (u_asn == state.announcement_.origin) return false;

  std::optional<Route> chosen =
      engine_detail::ChooseBest(u_asn, state.rib_in_[u], transform);
  if (chosen == state.best_[u]) return false;
  state.best_[u] = std::move(chosen);
  return true;
}

}  // namespace asppi::bgp
