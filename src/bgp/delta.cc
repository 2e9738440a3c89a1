#include "bgp/delta.h"

#include <algorithm>
#include <deque>

#include "util/check.h"
#include "util/metrics.h"

namespace asppi::bgp {

namespace {

using engine_detail::RouteKey;

// Delta-engine counters (DESIGN.md §4h). Work counters only — deterministic
// for any thread count, like the full engine's bgp.propagation.* family.
struct DeltaMetrics {
  util::Counter propagations{"engine.delta.propagations"};
  util::Counter rounds{"engine.delta.rounds"};
  util::Counter decisions{"engine.delta.decisions"};
  util::Counter announced{"engine.delta.routes_announced"};
  util::Counter withdrawn{"engine.delta.routes_withdrawn"};
  // Total ASes with an overlay row at convergence, summed over runs.
  util::Counter wavefront_total{"engine.delta.wavefront_total"};
  // Largest single-round export worklist, summed over runs.
  util::Counter wavefront_peak{"engine.delta.wavefront_peak"};
  util::Timer converge_time{"engine.delta.converge"};
};

DeltaMetrics& Instr() {
  static DeltaMetrics* m = new DeltaMetrics();
  return *m;
}

}  // namespace

// --- TraversalIndex ---------------------------------------------------------

TraversalIndex::TraversalIndex(const PropagationResult& baseline)
    : graph_(&baseline.Graph()),
      origin_(graph_->IndexOf(baseline.GetAnnouncement().origin)) {
  const std::vector<std::uint32_t> parent_slots = baseline.ParentSlots();
  topo::AsId cycle_at = 0;
  const std::optional<std::vector<topo::AsId>> order =
      ParentsFirst(*graph_, parent_slots, &cycle_at);
  ASPPI_CHECK(order.has_value())
      << "best routes form a cycle at AS" << graph_->AsnAt(cycle_at);
  const std::size_t n = graph_->NumAses();
  parent_.assign(n, kNoParent);
  size_.assign(n, 1);
  for (topo::AsId i = 0; i < n; ++i) {
    const std::uint32_t slot = parent_slots[i];
    if (slot != PropagationResult::kNoParent) {
      parent_[i] = graph_->NeighborsAt(i)[slot].id;
    }
  }
  // Children come after their parents, so a reverse pass finishes each
  // subtree before adding it to its parent's.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    if (parent_[*it] != kNoParent) size_[parent_[*it]] += size_[*it];
  }
}

std::size_t TraversalIndex::TraversingCount(Asn x) const {
  return size_[graph_->IndexOf(x)] - 1;
}

std::size_t TraversalIndex::TraversingCount(
    std::span<const Asn> colluders) const {
  std::vector<topo::AsId> ids;
  ids.reserve(colluders.size());
  for (Asn asn : colluders) ids.push_back(graph_->IndexOf(asn));
  // The subtrees of the colluders with no colluder above them are disjoint,
  // and together they hold every AS whose path traverses a colluder plus
  // every colluder itself.
  std::size_t covered = 0;
  for (topo::AsId id : ids) {
    bool nested = false;
    for (topo::AsId at = parent_[id]; at != kNoParent && !nested;
         at = parent_[at]) {
      nested = std::find(ids.begin(), ids.end(), at) != ids.end();
    }
    if (!nested) covered += size_[id];
  }
  return covered - ids.size();
}

// --- DeltaResult ------------------------------------------------------------

const DeltaRow* DeltaResult::RowOf(std::size_t index) const {
  auto it = std::lower_bound(touched_.begin(), touched_.end(),
                             static_cast<std::uint32_t>(index));
  if (it != touched_.end() && *it == index) {
    return &rows_[static_cast<std::size_t>(it - touched_.begin())];
  }
  return nullptr;
}

const std::optional<Route>& DeltaResult::BestAtIndex(std::size_t index) const {
  const DeltaRow* row = RowOf(index);
  if (row != nullptr && row->best_set) return row->best;
  return base_->BestRoutes()[index];
}

const std::optional<Route>& DeltaResult::BestAt(Asn asn) const {
  return BestAtIndex(Graph().IndexOf(asn));
}

int DeltaResult::FirstChangeRound(Asn asn) const {
  const DeltaRow* row = RowOf(Graph().IndexOf(asn));
  // Untouched ASes never changed since the resume point — matches the full
  // engine's Resume(), which resets every change round to -1 first.
  return row != nullptr ? row->first_change_round : -1;
}

PropagationResult DeltaResult::Materialize(RouteTransform* transform,
                                           const ImportFilter* filter) const {
  PropagationResult out = *base_;
  out.StoreRibSlots();  // the baseline's slots, from its best routes
  out.rounds_ = rounds_;
  out.converged_ = converged_;
  std::fill(out.first_change_round_.begin(), out.first_change_round_.end(),
            -1);
  for (std::size_t p = 0; p < touched_.size(); ++p) {
    const std::size_t i = touched_[p];
    if (rows_[p].best_set) out.best_[i] = rows_[p].best;
    out.first_change_round_[i] = rows_[p].first_change_round;
  }
  // An AS that exported last did so from the best it holds now.
  std::vector<std::uint32_t> exporters = seeds_;
  for (std::size_t p = 0; p < touched_.size(); ++p) {
    if (rows_[p].exported) exporters.push_back(touched_[p]);
  }
  const Announcement& announcement = GetAnnouncement();
  for (std::uint32_t u : exporters) {
    const Asn u_asn = Graph().AsnAt(u);
    for (const topo::Edge& edge : Graph().NeighborsAt(u)) {
      out.rib_in_[edge.id][edge.back_slot] =
          engine_detail::ExportTo(announcement, u_asn,
                                  u_asn == announcement.origin, out.best_[u],
                                  edge, transform, filter)
              .route;
    }
  }
  return out;
}

// --- DeltaPropagator --------------------------------------------------------

// Mutable propagation state. Rows live in a deque, so they never move while
// others are created. No slot is stored: `Held` names the best each slot
// derives from.
struct DeltaPropagator::Work {
  static constexpr std::uint8_t kDirty = 1;     // in dirty_list
  static constexpr std::uint8_t kExported = 2;  // exported since the resume
  static constexpr std::uint8_t kRewrites = 4;  // transform MightRewrite

  // A best decided this phase, committed to its row once exported.
  struct Change {
    std::uint32_t index;
    std::optional<Route> best;
  };

  Work(const PropagationResult& base, RouteTransform* transform,
       const ImportFilter* filter)
      : base_best(base.BestRoutes()),
        announcement(base.GetAnnouncement()),
        transform(transform),
        filter(filter),
        row_of(base_best.size(), -1),
        state(base_best.size(), 0) {}

  const std::vector<std::optional<Route>>& base_best;
  const Announcement& announcement;
  RouteTransform* transform;
  const ImportFilter* filter;
  std::vector<std::int32_t> row_of;  // dense index → rows position, or -1
  std::deque<DeltaRow> rows;
  std::vector<std::uint32_t> touched;  // in creation order
  std::vector<std::uint8_t> state;
  std::vector<std::uint32_t> dirty_list;
  std::vector<Change> changes;  // in rank order
  std::uint64_t decisions = 0;
  std::uint64_t announced = 0;
  std::uint64_t withdrawn = 0;

  DeltaRow& MutableRow(std::size_t index) {
    if (row_of[index] < 0) {
      row_of[index] = static_cast<std::int32_t>(rows.size());
      rows.emplace_back();
      touched.push_back(static_cast<std::uint32_t>(index));
    }
    return rows[static_cast<std::size_t>(row_of[index])];
  }
  // The best as of the last commit: in a decision phase, the phase start's.
  const std::optional<Route>& BestOfIdx(std::size_t index) const {
    const std::int32_t pos = row_of[index];
    if (pos >= 0 && rows[static_cast<std::size_t>(pos)].best_set) {
      return rows[static_cast<std::size_t>(pos)].best;
    }
    return base_best[index];
  }
  // What an AS's slots derive from: its baseline best until it exports,
  // then BestOfIdx, as every change is exported before a decision reads it.
  const std::optional<Route>& Held(std::size_t index) const {
    return (state[index] & kExported) ? BestOfIdx(index) : base_best[index];
  }
  // Whether no transform or filter acts on the slot u feeds at a receiver
  // (`filtered`: MightFilter there): it is AttackFreeSlot's from Held(u).
  bool AttackFree(std::size_t u, bool filtered) const {
    return !(state[u] & kExported) || (!(state[u] & kRewrites) && !filtered);
  }
  // The route the slot for neighbor `from` holds, built.
  std::optional<Route> SlotRoute(const topo::AsGraph& graph,
                                 const topo::Edge& from, bool filtered) const {
    const bool attack_free = AttackFree(from.id, filtered);
    return engine_detail::ExportTo(
               announcement, from.asn, from.asn == announcement.origin,
               Held(from.id), graph.NeighborsAt(from.id)[from.back_slot],
               attack_free ? nullptr : transform,
               attack_free ? nullptr : filter)
        .route;
  }
  void Commit(Change& change) {
    DeltaRow& row = MutableRow(change.index);
    row.best = std::move(change.best);
    row.best_set = true;
  }
  void MarkDirty(std::size_t index) {
    if (!(state[index] & kDirty)) {
      state[index] |= kDirty;
      dirty_list.push_back(static_cast<std::uint32_t>(index));
    }
  }
};

DeltaPropagator::DeltaPropagator(const topo::AsGraph& graph)
    : graph_(graph) {}

DeltaResult DeltaPropagator::Propagate(
    std::shared_ptr<const PropagationResult> base, RouteTransform* transform,
    const std::vector<Asn>& dirty, const ImportFilter* filter) const {
  ASPPI_CHECK(base != nullptr && &base->Graph() == &graph_)
      << "baseline from a different graph";
  util::ScopedTimer converge_timer(Instr().converge_time);
  Instr().propagations.Add();

  const std::size_t n = graph_.NumAses();
  Work work(*base, transform, filter);

  // Seed exactly like Resume(): refresh the dirty ASes' decisions (the
  // transform may change what they *choose*, not only what they export)
  // without recording a change round. With nothing exported, they commit
  // at once.
  std::vector<std::uint32_t> seeds;
  for (Asn asn : dirty) {
    seeds.push_back(graph_.IndexOf(asn));
    DecideDelta(work, seeds.back());
    for (Work::Change& change : work.changes) work.Commit(change);
    work.changes.clear();
  }
  std::ranges::sort(seeds, {},
                    [this](topo::AsId a) { return graph_.RankPosAt(a); });
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
#ifndef NDEBUG
  // All ASN translations happen at seeding; the wavefront below speaks dense
  // ids only (edge targets and back slots come off the frozen graph).
  const std::uint64_t lookups_before = topo::detail::AsnLookupCount();
#endif

  // Same synchronous schedule as PropagationSimulator::RunLoop, visiting
  // worklists in the full engine's IdsByRank order: round 1 exports the
  // seeds, every later round the previous decision phase's changes. A small
  // dirty list sorts its rank positions; a large one (a sizeable share of
  // the graph) is cheaper to find by scanning IdsByRank.
  const std::span<const topo::AsId> by_rank = graph_.IdsByRank();
  std::vector<std::uint32_t>& dirty_list = work.dirty_list;
  std::size_t peak_wavefront = seeds.size();
  int round = 0;
  bool converged = true;
  for (std::uint32_t seed : seeds) {
    ExportFromDelta(work, seed, work.BestOfIdx(seed));
  }
  while (!seeds.empty()) {
    ++round;
    // Same cap and same stop point as the full engine's RunLoop: a
    // persistently oscillating adversarial policy yields a flagged,
    // deterministic round-cap snapshot instead of an abort.
    if (round >= engine_detail::kMaxRounds) {
      converged = false;
      break;
    }
    if (dirty_list.size() < n / 8) {
      for (std::uint32_t& v : dirty_list) v = graph_.RankPosAt(v);
      std::sort(dirty_list.begin(), dirty_list.end());
      for (std::uint32_t& v : dirty_list) v = by_rank[v];
    } else {
      dirty_list.clear();
      for (topo::AsId v : by_rank) {
        if (work.state[v] & Work::kDirty) dirty_list.push_back(v);
      }
    }
    work.changes.reserve(dirty_list.size());
    for (std::uint32_t v : dirty_list) {
      work.state[v] &= ~Work::kDirty;
      if (DecideDelta(work, v)) {
        DeltaRow& row = work.MutableRow(v);
        if (row.first_change_round < 0) row.first_change_round = round;
      }
    }
    dirty_list.clear();
    if (work.changes.empty()) break;
    // Each change is committed once exported: no exporter reads another's
    // best, and the decisions above all read their phase's starting bests.
    peak_wavefront = std::max(peak_wavefront, work.changes.size());
    for (Work::Change& change : work.changes) {
      ExportFromDelta(work, change.index, change.best);
      work.Commit(change);
    }
    work.changes.clear();
  }
#ifndef NDEBUG
  ASPPI_CHECK_EQ(topo::detail::AsnLookupCount(), lookups_before)
      << "ASN hash/interning lookup inside the delta propagation loop";
#endif

  DeltaResult result;
  result.base_ = std::move(base);
  result.rounds_ = round;
  result.converged_ = converged;
  // Ascending: sorted while few, found by a scan once they are many.
  if (work.touched.size() < n / 8) {
    std::sort(work.touched.begin(), work.touched.end());
  } else {
    work.touched.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (work.row_of[i] >= 0) work.touched.push_back(i);
    }
  }
  result.touched_ = std::move(work.touched);
  result.rows_.reserve(result.touched_.size());
  for (std::uint32_t index : result.touched_) {
    DeltaRow& row = work.rows[static_cast<std::size_t>(work.row_of[index])];
    row.exported = (work.state[index] & Work::kExported) != 0;
    result.rows_.push_back(std::move(row));
  }
  result.seeds_ = std::move(seeds);

  Instr().rounds.Add(static_cast<std::uint64_t>(round));
  Instr().decisions.Add(work.decisions);
  if (work.announced != 0) Instr().announced.Add(work.announced);
  if (work.withdrawn != 0) Instr().withdrawn.Add(work.withdrawn);
  Instr().wavefront_total.Add(result.touched_.size());
  Instr().wavefront_peak.Add(peak_wavefront);
  return result;
}

void DeltaPropagator::ExportFromDelta(Work& work, std::size_t u,
                                      const std::optional<Route>& best) const {
  const Announcement& announcement = work.announcement;
  const Asn u_asn = graph_.AsnAt(u);
  const bool is_origin = (u_asn == announcement.origin);
  const std::optional<Route>& held = work.Held(u);  // rows never move
  const bool exported = (work.state[u] & Work::kExported) != 0;
  const bool rewrites =
      work.transform != nullptr && work.transform->MightRewrite(u_asn);

  for (const topo::Edge& edge :
       graph_.NeighborsAt(static_cast<topo::AsId>(u))) {
    bool sent = false;
    bool same = false;
    if (!rewrites && (work.filter == nullptr ||
                      !work.filter->MightFilter(edge.id))) {
      // Both slots are AttackFreeSlot's, compared unbuilt: the pads before
      // the best path, the class carried across a sibling link.
      sent = engine_detail::AttackFreeDelivers(is_origin, best, edge.asn,
                                               edge.rel);
      same = sent == engine_detail::AttackFreeDelivers(is_origin, held,
                                                        edge.asn, edge.rel) &&
             (!sent || is_origin ||
              (held->path == best->path &&
               (edge.rel != Relation::kSibling ||
                held->effective == best->effective)));
    } else {
      engine_detail::Delivery delivery = engine_detail::ExportTo(
          announcement, u_asn, is_origin, best, edge, work.transform,
          work.filter);
      sent = delivery.sent;
      same = delivery.route ==
             engine_detail::ExportTo(announcement, u_asn, is_origin, held,
                                     edge, exported ? work.transform : nullptr,
                                     exported ? work.filter : nullptr)
                 .route;
    }
    if (sent) ++work.announced;
    if (same) continue;
    // Same accounting as the full engine: clearing a held slot because
    // nothing was sent is a withdrawal.
    if (!sent) ++work.withdrawn;
    work.MutableRow(edge.id);
    work.MarkDirty(edge.id);
  }
  work.state[u] |= Work::kExported | (rewrites ? Work::kRewrites : 0);
}

bool DeltaPropagator::DecideDelta(Work& work, std::size_t u) const {
  ++work.decisions;
  const Announcement& announcement = work.announcement;
  const Asn u_asn = graph_.AsnAt(u);
  if (u_asn == announcement.origin) return false;

  const std::span<const topo::Edge> neighbors =
      graph_.NeighborsAt(static_cast<topo::AsId>(u));
  const auto slots = static_cast<std::uint32_t>(neighbors.size());
  const bool filtered = work.filter != nullptr && work.filter->MightFilter(u);

  std::optional<Route> chosen;
  if (work.transform != nullptr && work.transform->MightOverride(u_asn)) {
    // OverrideBest needs a contiguous Adj-RIB-In view; build the row.
    // MightOverride keeps this off every AS but the attacker.
    std::vector<std::optional<Route>> rib(slots);
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
      rib[slot] = work.SlotRoute(graph_, neighbors[slot], filtered);
    }
    chosen = engine_detail::ChooseBest(u_asn, rib, work.transform);
  } else {
    // One fold over the row's decision keys: an attack-free slot's from the
    // sender's held best without building the route, any other slot's from
    // its built route. Keys never tie (one sender per slot), so the winner
    // is ChooseBest's pick, and only it is (re)built for keeps.
    RouteKey best_key;
    std::uint32_t best_slot = slots;
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
      const RouteKey* incumbent = best_slot < slots ? &best_key : nullptr;
      const topo::Edge& from = neighbors[slot];
      std::optional<RouteKey> key;
      if (work.AttackFree(from.id, filtered)) {
        key = engine_detail::DeliveryKeyBeating(
            announcement, from.asn, from.asn == announcement.origin,
            work.Held(from.id), u_asn, topo::Reverse(from.rel), incumbent);
      } else if (const auto route = work.SlotRoute(graph_, from, filtered)) {
        key = RouteKey::Of(*route);
        if (incumbent != nullptr && !key->Beats(*incumbent)) key.reset();
      }
      if (!key.has_value()) continue;
      best_key = *key;
      best_slot = slot;
    }
    if (best_slot < slots) {
      chosen = work.SlotRoute(graph_, neighbors[best_slot], filtered);
    }
  }

  if (chosen == work.BestOfIdx(u)) return false;
  work.changes.push_back({static_cast<std::uint32_t>(u), std::move(chosen)});
  return true;
}

}  // namespace asppi::bgp
