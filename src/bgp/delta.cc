#include "bgp/delta.h"

#include <algorithm>
#include <deque>

#include "util/check.h"
#include "util/metrics.h"

namespace asppi::bgp {

namespace {

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
  // Rounds the baseline needed beyond what the delta run did, summed over
  // runs — how much convergence work warm-starting skipped.
  util::Counter early_exit_rounds{"engine.delta.early_exit_rounds"};
  util::Timer converge_time{"engine.delta.converge"};
};

DeltaMetrics& Instr() {
  static DeltaMetrics* m = new DeltaMetrics();
  return *m;
}

}  // namespace

// --- TraversalIndex ---------------------------------------------------------

TraversalIndex::TraversalIndex(const PropagationResult& baseline)
    : graph_(&baseline.Graph()) {
  const std::size_t n = graph_->NumAses();
  counts_.assign(n, 0);
  const auto& best = baseline.BestRoutes();
  const Asn origin = baseline.GetAnnouncement().origin;
  std::vector<Asn> seen;  // per-path hop dedup (paths are short)
  for (std::size_t j = 0; j < n; ++j) {
    const Asn asn_j = graph_->AsnAt(j);
    if (asn_j == origin) continue;
    if (!best[j].has_value()) continue;
    ++reachable_;
    seen.clear();
    for (Asn hop : best[j]->path.Hops()) {
      if (hop == asn_j) continue;  // AsesTraversing excludes x itself
      if (std::find(seen.begin(), seen.end(), hop) != seen.end()) continue;
      seen.push_back(hop);
      ++counts_[graph_->IndexOf(hop)];
    }
  }
}

std::size_t TraversalIndex::TraversingCount(Asn x) const {
  return counts_[graph_->IndexOf(x)];
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

std::vector<Asn> DeltaResult::AsesTraversing(Asn x) const {
  std::vector<Asn> out;
  const topo::AsGraph& graph = Graph();
  const Asn origin = GetAnnouncement().origin;
  const std::size_t n = graph.NumAses();
  for (std::size_t i = 0; i < n; ++i) {
    Asn asn = graph.AsnAt(i);
    if (asn == x || asn == origin) continue;
    const std::optional<Route>& best = BestAtIndex(i);
    if (best && best->path.Contains(x)) out.push_back(asn);
  }
  return out;
}

double DeltaResult::FractionTraversing(Asn x) const {
  const std::size_t n = Graph().NumAses();
  if (n <= 2) return 0.0;
  return static_cast<double>(AsesTraversing(x).size()) /
         static_cast<double>(n - 2);
}

std::size_t DeltaResult::ReachableCount() const {
  // Baseline count corrected by overlay rows that gained or lost a route.
  std::size_t count = base_->ReachableCount();
  const auto& base_best = base_->BestRoutes();
  const topo::AsGraph& graph = Graph();
  const Asn origin = GetAnnouncement().origin;
  for (std::size_t p = 0; p < touched_.size(); ++p) {
    const DeltaRow& row = rows_[p];
    if (!row.best_set) continue;
    const std::size_t i = touched_[p];
    if (graph.AsnAt(i) == origin) continue;
    const bool was = base_best[i].has_value();
    const bool now = row.best.has_value();
    if (now && !was) ++count;
    if (!now && was) --count;
  }
  return count;
}

PropagationResult DeltaResult::Materialize() const {
  PropagationResult out = *base_;
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
// and per-slot access is one bit test plus a direct index.
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
  const std::optional<Route>& RibAt(std::size_t index,
                                    std::uint32_t slot) const {
    if (const DeltaRow* row = FindRow(index)) {
      if (row->HasRibOverride(slot)) return row->rib[slot];
    }
    return base->RibIn()[index][slot];
  }
  void SetRib(std::size_t index, std::uint32_t slot,
              std::optional<Route> value) {
    DeltaRow& row = MutableRow(index);
    if (row.rib.empty()) {
      const std::size_t degree = base->RibIn()[index].size();
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
    if (round >= kMaxRounds) {
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
  const int base_rounds = result.base_->Rounds();
  if (base_rounds > round) {
    Instr().early_exit_rounds.Add(
        static_cast<std::uint64_t>(base_rounds - round));
  }
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

  for (const topo::Edge& edge :
       graph_.NeighborsAt(static_cast<topo::AsId>(u))) {
    engine_detail::Delivery delivery = engine_detail::ExportTo(
        announcement, u_asn, is_origin, best, edge, transform, filter);
    if (delivery.sent) ++work.announced;
    if (delivery.route == work.RibAt(edge.id, edge.back_slot)) continue;
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
  const Asn u_asn = graph_.AsnAt(u);
  if (u_asn == work.base->GetAnnouncement().origin) return false;

  const auto& base_rib = work.base->RibIn()[u];
  const DeltaRow* row = work.FindRow(u);
  const bool has_overrides = row != nullptr && !row->rib.empty();

  std::optional<Route> chosen;
  if (transform != nullptr && transform->MightOverride(u_asn)) {
    // OverrideBest needs a contiguous Adj-RIB-In view; materialize the
    // merged row. MightOverride keeps this off every AS but the attacker.
    if (!has_overrides) {
      chosen = engine_detail::ChooseBest(u_asn, base_rib, transform);
    } else {
      std::vector<std::optional<Route>> merged(base_rib.begin(),
                                               base_rib.end());
      for (std::uint32_t slot = 0;
           slot < static_cast<std::uint32_t>(merged.size()); ++slot) {
        if (row->HasRibOverride(slot)) merged[slot] = row->rib[slot];
      }
      chosen = engine_detail::ChooseBest(u_asn, merged, transform);
    }
  } else if (!has_overrides) {
    chosen = engine_detail::ChooseBest(u_asn, base_rib, transform);
  } else {
    // Merged fold without materialization: same ascending slot order and
    // same strict-BetterRoute fold as ChooseBest, so the pick is identical.
    const std::optional<Route>* folded = nullptr;
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(base_rib.size()); ++slot) {
      const std::optional<Route>* candidate =
          row->HasRibOverride(slot) ? &row->rib[slot] : &base_rib[slot];
      if (!candidate->has_value()) continue;
      if (folded == nullptr || BetterRoute(**candidate, **folded)) {
        folded = candidate;
      }
    }
    if (folded != nullptr) chosen = *folded;
  }

  if (chosen == work.BestOfIdx(u)) return false;
  DeltaRow& mutable_row = work.MutableRow(u);
  mutable_row.best_set = true;
  mutable_row.best = std::move(chosen);
  return true;
}

}  // namespace asppi::bgp
