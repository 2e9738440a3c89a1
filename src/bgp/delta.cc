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

PropagationResult DeltaResult::Materialize() const {
  PropagationResult out = *base_;
  out.StoreRibSlots();
  out.rounds_ = rounds_;
  out.converged_ = converged_;
  std::fill(out.first_change_round_.begin(), out.first_change_round_.end(),
            -1);
  for (std::size_t p = 0; p < touched_.size(); ++p) {
    const std::size_t i = touched_[p];
    const DeltaRow& row = rows_[p];
    if (row.best_set) out.best_[i] = row.best;
    out.first_change_round_[i] = row.first_change_round;
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(row.rib.size()); ++slot) {
      if (row.HasRibOverride(slot)) out.rib_in_[i][slot] = row.rib[slot];
    }
  }
  return out;
}

// --- DeltaPropagator --------------------------------------------------------

// Mutable propagation state: the baseline plus an overlay row per touched AS
// and the two phase worklists. `row_of` maps dense AS index → overlay row in
// O(1) with no hashing; rows live in a deque, so references to one row stay
// valid while other rows are created. Rib slot overrides are bitmask-gated
// (see DeltaRow): row creation allocates but never copies baseline routes,
// and per-slot access is one bit test plus a direct index. A slot without an
// override is the baseline's, derived from the sender's baseline best route
// (never read from a stored Adj-RIB-In): compared and ranked in place by the
// engine_detail helpers, built only where a route is needed.
struct DeltaPropagator::Work {
  std::shared_ptr<const PropagationResult> base;
  std::vector<std::int32_t> row_of;  // dense index → rows position, or -1
  std::deque<DeltaRow> rows;
  std::vector<std::uint32_t> touched;  // rows creation order (unsorted)
  std::vector<std::uint8_t> in_export;
  std::vector<std::uint8_t> in_dirty;
  std::vector<std::uint32_t> export_list;
  std::vector<std::uint32_t> dirty_list;
  std::uint64_t decisions = 0;
  std::uint64_t announced = 0;
  std::uint64_t withdrawn = 0;

  DeltaRow& MutableRow(std::size_t index) {
    std::int32_t pos = row_of[index];
    if (pos < 0) {
      pos = static_cast<std::int32_t>(rows.size());
      row_of[index] = pos;
      rows.emplace_back();
      touched.push_back(static_cast<std::uint32_t>(index));
    }
    return rows[static_cast<std::size_t>(pos)];
  }
  const DeltaRow* FindRow(std::size_t index) const {
    const std::int32_t pos = row_of[index];
    return pos >= 0 ? &rows[static_cast<std::size_t>(pos)] : nullptr;
  }
  const std::optional<Route>& BestOfIdx(std::size_t index) const {
    const DeltaRow* row = FindRow(index);
    if (row != nullptr && row->best_set) return row->best;
    return base->BestRoutes()[index];
  }
  // The override of slot `slot` at `index`, or nullptr for the baseline's.
  const std::optional<Route>* OverrideAt(std::size_t index,
                                         std::uint32_t slot) const {
    const DeltaRow* row = FindRow(index);
    return row != nullptr && row->HasRibOverride(slot) ? &row->rib[slot]
                                                       : nullptr;
  }
  // The baseline's slot `slot` at `index`, built: what the neighbor there
  // exports from its baseline best route.
  std::optional<Route> BaseRibAt(std::size_t index, std::uint32_t slot) const {
    const topo::AsGraph& graph = base->Graph();
    const topo::Edge& from =
        graph.NeighborsAt(static_cast<topo::AsId>(index))[slot];
    return engine_detail::AttackFreeSlot(graph, base->GetAnnouncement(), from,
                                         base->BestRoutes()[from.id]);
  }
  void SetRib(std::size_t index, std::uint32_t slot,
              std::optional<Route> value) {
    DeltaRow& row = MutableRow(index);
    if (row.rib.empty()) {
      const std::size_t degree =
          base->Graph().DegreeAt(static_cast<topo::AsId>(index));
      row.rib.resize(degree);
      row.rib_mask.assign((degree + 63) / 64, 0);
    }
    row.rib_mask[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    row.rib[slot] = std::move(value);
  }
  void MarkDirty(std::size_t index) {
    if (!in_dirty[index]) {
      in_dirty[index] = 1;
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
  Work work;
  work.base = base;
  work.row_of.assign(n, -1);
  work.in_export.assign(n, 0);
  work.in_dirty.assign(n, 0);

  // Seed exactly like Resume(): flag the dirty ASes for export and refresh
  // their decisions (the transform may change what they *choose*, not only
  // what they export) — without recording a change round.
  for (Asn asn : dirty) {
    const std::size_t idx = graph_.IndexOf(asn);
    if (!work.in_export[idx]) {
      work.in_export[idx] = 1;
      work.export_list.push_back(static_cast<std::uint32_t>(idx));
    }
    DecideDelta(work, idx, transform);
  }
#ifndef NDEBUG
  // All ASN translations happen at seeding; the wavefront below speaks dense
  // ids only (edge targets and back slots come off the frozen graph).
  const std::uint64_t lookups_before = topo::detail::AsnLookupCount();
#endif

  // Same synchronous schedule as PropagationSimulator::RunLoop, driven by
  // worklists. Each phase visits its worklist in the graph's precomputed
  // rank order (the full engine's IdsByRank scans): for small worklists a
  // rank-position sort is cheapest, but once the wavefront covers a sizeable
  // share of the graph a scan over IdsByRank — exactly what the full engine
  // does — beats the sort. Either way the visit order, and hence every wire
  // action, is identical.
  const std::span<const topo::AsId> by_rank = graph_.IdsByRank();
  const auto for_each_rank_ordered = [&](std::vector<std::uint32_t>& list,
                                         std::vector<std::uint8_t>& flags,
                                         auto&& body) {
    if (list.size() >= n / 8) {
      for (topo::AsId idx : by_rank) {
        if (!flags[idx]) continue;
        flags[idx] = 0;
        body(idx);
      }
    } else {
      std::sort(list.begin(), list.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return graph_.RankPosAt(a) < graph_.RankPosAt(b);
                });
      for (std::uint32_t idx : list) {
        flags[idx] = 0;
        body(idx);
      }
    }
    list.clear();
  };

  std::size_t peak_wavefront = 0;
  int round = 0;
  bool converged = true;
  while (true) {
    if (work.export_list.empty()) break;
    peak_wavefront = std::max(peak_wavefront, work.export_list.size());
    for_each_rank_ordered(work.export_list, work.in_export,
                          [&](std::uint32_t u) {
      ExportFromDelta(work, u, transform, filter);
    });
    ++round;
    // Same cap and same stop point as the full engine's RunLoop: a
    // persistently oscillating adversarial policy yields a flagged,
    // deterministic round-cap snapshot instead of an abort.
    if (round >= engine_detail::kMaxRounds) {
      converged = false;
      break;
    }

    bool any_change = false;
    for_each_rank_ordered(work.dirty_list, work.in_dirty,
                          [&](std::uint32_t v) {
      if (DecideDelta(work, v, transform)) {
        any_change = true;
        DeltaRow& row = work.MutableRow(v);  // exists: best was just written
        if (row.first_change_round < 0) row.first_change_round = round;
        if (!work.in_export[v]) {
          work.in_export[v] = 1;
          work.export_list.push_back(v);
        }
      }
    });
    if (!any_change) break;
  }
#ifndef NDEBUG
  ASPPI_CHECK_EQ(topo::detail::AsnLookupCount(), lookups_before)
      << "ASN hash/interning lookup inside the delta propagation loop";
#endif

  DeltaResult result;
  result.base_ = std::move(base);
  result.rounds_ = round;
  result.converged_ = converged;
  result.touched_ = std::move(work.touched);
  std::sort(result.touched_.begin(), result.touched_.end());
  result.rows_.reserve(result.touched_.size());
  for (std::uint32_t index : result.touched_) {
    result.rows_.push_back(
        std::move(work.rows[static_cast<std::size_t>(work.row_of[index])]));
  }

  Instr().rounds.Add(static_cast<std::uint64_t>(round));
  Instr().decisions.Add(work.decisions);
  if (work.announced != 0) Instr().announced.Add(work.announced);
  if (work.withdrawn != 0) Instr().withdrawn.Add(work.withdrawn);
  Instr().wavefront_total.Add(result.touched_.size());
  Instr().wavefront_peak.Add(peak_wavefront);
  return result;
}

void DeltaPropagator::ExportFromDelta(Work& work, std::size_t u,
                                      RouteTransform* transform,
                                      const ImportFilter* filter) const {
  const Announcement& announcement = work.base->GetAnnouncement();
  const Asn u_asn = graph_.AsnAt(u);
  const bool is_origin = (u_asn == announcement.origin);
  // Safe as a reference: it aims into the immutable baseline or into a deque
  // row, and nothing below mutates any row's `best`.
  const std::optional<Route>& best = work.BestOfIdx(u);
  const std::optional<Route>& base_best = work.base->BestRoutes()[u];

  for (const topo::Edge& edge :
       graph_.NeighborsAt(static_cast<topo::AsId>(u))) {
    engine_detail::Delivery delivery = engine_detail::ExportTo(
        announcement, u_asn, is_origin, best, edge, transform, filter);
    if (delivery.sent) ++work.announced;
    // Unchanged from what the receiver's slot holds: its override, or else
    // what u's baseline best exports there.
    const std::optional<Route>* held = work.OverrideAt(edge.id, edge.back_slot);
    if (held != nullptr ? delivery.route == *held
                        : engine_detail::SameAsDelivery(
                              delivery.route, announcement, u_asn, is_origin,
                              base_best, edge.asn, edge.rel)) {
      continue;
    }
    // Same accounting as the full engine: clearing a held slot because
    // nothing was sent is a withdrawal.
    if (!delivery.sent) ++work.withdrawn;
    work.SetRib(edge.id, edge.back_slot, std::move(delivery.route));
    work.MarkDirty(edge.id);
  }
}

bool DeltaPropagator::DecideDelta(Work& work, std::size_t u,
                                  RouteTransform* transform) const {
  ++work.decisions;
  const Announcement& announcement = work.base->GetAnnouncement();
  const Asn u_asn = graph_.AsnAt(u);
  if (u_asn == announcement.origin) return false;

  const std::span<const topo::Edge> neighbors =
      graph_.NeighborsAt(static_cast<topo::AsId>(u));
  const auto slots = static_cast<std::uint32_t>(neighbors.size());

  std::optional<Route> chosen;
  if (transform != nullptr && transform->MightOverride(u_asn)) {
    // OverrideBest needs a contiguous Adj-RIB-In view; build the merged row.
    // MightOverride keeps this off every AS but the attacker.
    std::vector<std::optional<Route>> merged(slots);
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
      const std::optional<Route>* held = work.OverrideAt(u, slot);
      merged[slot] = held != nullptr ? *held : work.BaseRibAt(u, slot);
    }
    chosen = engine_detail::ChooseBest(u_asn, merged, transform);
  } else {
    // One fold over the row's decision keys: an override's from its route,
    // a baseline slot's from the sender's baseline best without building
    // the route. Keys never tie (one sender per slot), so the winner is
    // ChooseBest's pick, and only it is built.
    RouteKey best_key;
    std::uint32_t best_slot = slots;
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
      const RouteKey* incumbent = best_slot < slots ? &best_key : nullptr;
      if (const std::optional<Route>* held = work.OverrideAt(u, slot)) {
        if (!held->has_value()) continue;
        const RouteKey key = RouteKey::Of(**held);
        if (incumbent != nullptr && !key.Beats(*incumbent)) continue;
        best_key = key;
      } else {
        const topo::Edge& from = neighbors[slot];
        const std::optional<RouteKey> key = engine_detail::DeliveryKeyBeating(
            announcement, from.asn, from.asn == announcement.origin,
            work.base->BestRoutes()[from.id], u_asn, topo::Reverse(from.rel),
            incumbent);
        if (!key.has_value()) continue;
        best_key = *key;
      }
      best_slot = slot;
    }
    if (best_slot < slots) {
      const std::optional<Route>* held = work.OverrideAt(u, best_slot);
      chosen = held != nullptr ? *held : work.BaseRibAt(u, best_slot);
    }
  }

  if (chosen == work.BestOfIdx(u)) return false;
  DeltaRow& mutable_row = work.MutableRow(u);
  mutable_row.best_set = true;
  mutable_row.best = std::move(chosen);
  return true;
}

}  // namespace asppi::bgp
