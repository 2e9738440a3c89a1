#include "attack/impact.h"

#include <algorithm>

#include "util/check.h"
#include "util/strings.h"

namespace asppi::attack {

namespace {

// Pollution predicate generalized to attacker sets: a route counts when its
// path traverses any colluder.
bool TraversesAny(const std::optional<bgp::Route>& route,
                  std::span<const Asn> colluders) {
  if (!route.has_value()) return false;
  for (Asn asn : colluders) {
    if (route->path.Contains(asn)) return true;
  }
  return false;
}

bool IsColluder(Asn asn, std::span<const Asn> colluders) {
  return std::binary_search(colluders.begin(), colluders.end(), asn);
}

// The paper's denominator excludes attacker and victim (n−2); a colluding
// set excludes every colluder the same way.
double PollutionDenominator(const topo::AsGraph& graph,
                            std::span<const Asn> colluders) {
  const std::size_t n = graph.NumAses();
  const std::size_t excluded = colluders.size() + 1;
  return n > excluded ? static_cast<double>(n - excluded) : 0.0;
}

}  // namespace

AttackSimulator::AttackSimulator(const topo::AsGraph& graph,
                                 BaselineCache* baseline_cache)
    : graph_(graph),
      delta_engine_(graph),
      owned_cache_(baseline_cache == nullptr
                       ? std::make_unique<BaselineCache>(graph)
                       : nullptr),
      baseline_cache_(baseline_cache != nullptr ? baseline_cache
                                                : owned_cache_.get()) {
  ASPPI_CHECK(&baseline_cache_->Graph() == &graph)
      << "baseline cache built on a different graph";
}

AttackOutcome AttackSimulator::RunWithTransform(
    const bgp::Announcement& announcement, std::span<const Asn> colluders,
    bgp::RouteTransform& transform, int lambda,
    const bgp::ImportFilter* filter) const {
  ASPPI_CHECK(!colluders.empty()) << "attack needs at least one attacker";
  ASPPI_CHECK(std::is_sorted(colluders.begin(), colluders.end()));
  for (std::size_t i = 0; i < colluders.size(); ++i) {
    const Asn asn = colluders[i];
    ASPPI_CHECK(graph_.HasAs(asn)) << "attacker AS" << asn;
    ASPPI_CHECK_NE(asn, announcement.origin) << "origin cannot collude";
    if (i > 0) {
      ASPPI_CHECK_NE(asn, colluders[i - 1]) << "duplicate colluder";
    }
  }
  const Asn attacker = colluders.front();
  AttackOutcome outcome;
  outcome.victim = announcement.origin;
  outcome.attacker = attacker;
  outcome.colluders.assign(colluders.begin(), colluders.end());
  outcome.lambda = lambda;

  const BaselineEntry entry = baseline_cache_->GetEntry(announcement);
  outcome.before = entry.state;
  const std::vector<Asn> dirty(colluders.begin(), colluders.end());
  bgp::DeltaResult delta =
      delta_engine_.Propagate(outcome.before, &transform, dirty, filter);
  outcome.converged = delta.Converged();

  // Incremental accounting: only touched ASes can change their route or
  // their traversal membership, so the traversal index's baseline counts are
  // adjusted over the wavefront instead of re-scanning all n best paths.
  // Touched indices are ascending, so newly_polluted comes out in dense-index
  // order — the order the oracle's dense scan (DiffAgainstResume) produces.
  const auto& base_best = outcome.before->BestRoutes();
  const std::size_t before_count = entry.traversal->TraversingCount(colluders);
  std::size_t after_count = before_count;
  outcome.reachable_before = entry.traversal->ReachableCount();
  outcome.reachable_after = outcome.reachable_before;
  const std::vector<std::uint32_t>& touched = delta.TouchedIndices();
  for (std::size_t p = 0; p < touched.size(); ++p) {
    const Asn asn = graph_.AsnAt(touched[p]);
    if (asn == announcement.origin) continue;
    const std::optional<bgp::Route>& was = base_best[touched[p]];
    const bgp::DeltaRow& row = delta.Rows()[p];
    const std::optional<bgp::Route>& now = row.best_set ? row.best : was;
    // Reachability counts colluders; pollution does not.
    outcome.reachable_after += now.has_value() ? 1 : 0;
    outcome.reachable_after -= was.has_value() ? 1 : 0;
    if (IsColluder(asn, colluders)) continue;
    const bool was_p = TraversesAny(was, colluders);
    const bool now_p = TraversesAny(now, colluders);
    if (now_p && !was_p) {
      ++after_count;
      outcome.newly_polluted.push_back(asn);
    } else if (was_p && !now_p) {
      --after_count;
    }
  }
  const double denom = PollutionDenominator(graph_, colluders);
  if (denom > 0.0) {
    outcome.fraction_before = static_cast<double>(before_count) / denom;
    outcome.fraction_after = static_cast<double>(after_count) / denom;
  }
  outcome.after = std::move(delta);
  return outcome;
}

int AttackSimulator::RecordedLambda(
    const bgp::Announcement& announcement) const {
  const std::span<const topo::Edge> edges =
      graph_.NeighborsOf(announcement.origin);
  std::vector<Asn> neighbors;
  neighbors.reserve(edges.size());
  for (const topo::Edge& edge : edges) neighbors.push_back(edge.asn);
  return announcement.prepends.MaxPadsToward(announcement.origin, neighbors);
}

AttackOutcome AttackSimulator::RunTransform(
    const bgp::Announcement& announcement, std::span<const Asn> colluders,
    bgp::RouteTransform& transform, const bgp::ImportFilter* filter) const {
  return RunWithTransform(announcement, colluders, transform,
                          RecordedLambda(announcement), filter);
}

AttackOutcome AttackSimulator::RunAsppInterception(
    Asn victim, Asn attacker, int lambda, bool violate_valley_free,
    bool export_stripped_to_peers, const bgp::ImportFilter* filter) const {
  ASPPI_CHECK_GE(lambda, 1);
  bgp::Announcement announcement;
  announcement.origin = victim;
  announcement.prepends.SetDefault(victim, lambda);
  return RunAsppInterceptionWithPolicy(announcement, attacker,
                                       violate_valley_free,
                                       export_stripped_to_peers, filter);
}

AttackOutcome AttackSimulator::RunAsppInterceptionWithPolicy(
    const bgp::Announcement& announcement, Asn attacker,
    bool violate_valley_free, bool export_stripped_to_peers,
    const bgp::ImportFilter* filter) const {
  AsppInterceptor::Config config;
  config.attacker = attacker;
  config.victim = announcement.origin;
  config.violate_valley_free = violate_valley_free;
  config.export_stripped_to_peers = export_stripped_to_peers;
  AsppInterceptor interceptor(config);
  const Asn colluders[] = {attacker};
  return RunWithTransform(announcement, colluders, interceptor,
                          RecordedLambda(announcement), filter);
}

AttackOutcome AttackSimulator::RunOriginHijack(
    Asn victim, Asn attacker, int lambda,
    const bgp::ImportFilter* filter) const {
  bgp::Announcement announcement;
  announcement.origin = victim;
  announcement.prepends.SetDefault(victim, lambda);
  OriginHijacker hijacker(attacker);
  const Asn colluders[] = {attacker};
  return RunWithTransform(announcement, colluders, hijacker, lambda, filter);
}

AttackOutcome AttackSimulator::RunBallaniInterception(
    Asn victim, Asn attacker, int lambda,
    const bgp::ImportFilter* filter) const {
  bgp::Announcement announcement;
  announcement.origin = victim;
  announcement.prepends.SetDefault(victim, lambda);
  BallaniInterceptor interceptor(attacker, victim);
  const Asn colluders[] = {attacker};
  return RunWithTransform(announcement, colluders, interceptor, lambda,
                          filter);
}

std::vector<PairImpact> RunPairSweep(
    const topo::AsGraph& graph,
    const std::vector<std::pair<Asn, Asn>>& attacker_victim_pairs,
    const PairSweepOptions& options) {
  // Without a shared cache the simulator owns one for this call, so every
  // attacker against a repeated victim still reuses one baseline.
  const AttackSimulator simulator(graph, options.baseline_cache);

  std::vector<PairImpact> results(attacker_victim_pairs.size());
  util::ParallelFor(
      options.pool, attacker_victim_pairs.size(), [&](std::size_t i) {
        const auto& [attacker, victim] = attacker_victim_pairs[i];
        AttackOutcome outcome = simulator.RunAsppInterception(
            victim, attacker, options.lambda, options.violate_valley_free,
            options.export_stripped_to_peers, options.filter);
        results[i] = PairImpact{attacker, victim, outcome.fraction_before,
                                outcome.fraction_after};
      });
  // Total order (pollution desc, then attacker, then victim): rows tied on
  // every key are identical, so the ranking is unique and thread-count- and
  // input-permutation-independent.
  std::sort(results.begin(), results.end(),
            [](const PairImpact& a, const PairImpact& b) {
              if (a.after != b.after) return a.after > b.after;
              if (a.attacker != b.attacker) return a.attacker < b.attacker;
              return a.victim < b.victim;
            });
  return results;
}

std::string DiffAgainstResume(const AttackOutcome& outcome,
                              bgp::RouteTransform& transform,
                              const bgp::ImportFilter* filter) {
  ASPPI_CHECK(outcome.before != nullptr) << "outcome has no baseline";
  const bgp::PropagationResult& before = *outcome.before;
  const topo::AsGraph& graph = before.Graph();
  const std::span<const Asn> colluders = outcome.colluders;
  const bgp::PropagationResult want = bgp::PropagationSimulator(graph).Resume(
      before, &transform, outcome.colluders, filter);
  const bgp::PropagationResult got =
      outcome.after.Materialize(&transform, filter);

  if (outcome.converged != want.Converged()) {
    return util::Format("converged: outcome %d, Resume %d", outcome.converged,
                        want.Converged());
  }
  if (std::string diff = bgp::FirstDifference(got, want, "outcome", "Resume");
      !diff.empty()) {
    return diff;
  }

  // Pollution, re-derived from the two dense states with one any-colluder
  // scan (the production path counts incrementally over the wavefront).
  const Asn origin = before.GetAnnouncement().origin;
  std::size_t before_count = 0;
  std::size_t after_count = 0;
  std::vector<Asn> newly_polluted;
  for (std::size_t index = 0; index < graph.NumAses(); ++index) {
    const Asn asn = graph.AsnAt(static_cast<std::uint32_t>(index));
    if (asn == origin || IsColluder(asn, colluders)) continue;
    const bool was_p = TraversesAny(before.BestRoutes()[index], colluders);
    const bool now_p = TraversesAny(want.BestRoutes()[index], colluders);
    if (was_p) ++before_count;
    if (now_p) ++after_count;
    if (now_p && !was_p) newly_polluted.push_back(asn);
  }
  const double denom = PollutionDenominator(graph, colluders);
  const double fraction_before =
      denom > 0.0 ? static_cast<double>(before_count) / denom : 0.0;
  const double fraction_after =
      denom > 0.0 ? static_cast<double>(after_count) / denom : 0.0;
  if (outcome.fraction_before != fraction_before) {
    return util::Format("fraction_before: outcome %.17g, Resume %.17g",
                        outcome.fraction_before, fraction_before);
  }
  if (outcome.fraction_after != fraction_after) {
    return util::Format("fraction_after: outcome %.17g, Resume %.17g",
                        outcome.fraction_after, fraction_after);
  }
  if (outcome.newly_polluted != newly_polluted) {
    const auto [got_it, want_it] =
        std::mismatch(outcome.newly_polluted.begin(),
                      outcome.newly_polluted.end(), newly_polluted.begin(),
                      newly_polluted.end());
    const auto render = [](auto it, const std::vector<Asn>& list) {
      return it == list.end() ? std::string("<end>")
                              : "AS" + std::to_string(*it);
    };
    return util::Format(
        "newly_polluted entry %zu: outcome %s, Resume %s",
        static_cast<std::size_t>(got_it - outcome.newly_polluted.begin()),
        render(got_it, outcome.newly_polluted).c_str(),
        render(want_it, newly_polluted).c_str());
  }
  if (outcome.reachable_before != before.ReachableCount()) {
    return util::Format("reachable_before: outcome %zu, dense %zu",
                        outcome.reachable_before, before.ReachableCount());
  }
  if (outcome.reachable_after != want.ReachableCount()) {
    return util::Format("reachable_after: outcome %zu, Resume %zu",
                        outcome.reachable_after, want.ReachableCount());
  }
  return "";
}

}  // namespace asppi::attack
