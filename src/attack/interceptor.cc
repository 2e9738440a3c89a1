#include "attack/interceptor.h"

#include <algorithm>

#include "util/check.h"

namespace asppi::attack {

AsppInterceptor::AsppInterceptor(const Config& config) : config_(config) {
  ASPPI_CHECK_NE(config.attacker, config.victim)
      << "attacker and victim must differ";
  ASPPI_CHECK_NE(config.attacker, 0u);
  ASPPI_CHECK_NE(config.victim, 0u);
}

ExportAction AsppInterceptor::OnExport(Asn exporter, Asn /*to*/,
                                       Relation to_rel,
                                       Relation /*learned_from*/,
                                       AsPath& path) {
  if (exporter != config_.attacker) return ExportAction::kDefault;
  if (!path.Contains(config_.victim)) return ExportAction::kDefault;
  const int removed = path.CollapseRunsOf(StripTarget());
  // Nothing stripped (λ = 1): the attack gains nothing; behave normally.
  if (removed == 0) return ExportAction::kDefault;
  if (config_.violate_valley_free) return ExportAction::kForce;
  if (!config_.export_stripped_to_peers) return ExportAction::kDefault;
  // The stripped route masquerades as a customer route, so announcing it to
  // customers, siblings and peers raises no valley-free flag anywhere; the
  // restrained attacker only avoids announcing upward.
  return to_rel == Relation::kProvider ? ExportAction::kDefault
                                       : ExportAction::kForce;
}

std::optional<bgp::Route> AsppInterceptor::OverrideBest(
    Asn asn, std::span<const std::optional<bgp::Route>> candidates,
    const std::optional<bgp::Route>& policy_best) {
  if (!config_.violate_valley_free || asn != config_.attacker) {
    return std::nullopt;
  }
  // A policy-violating interceptor maximizes spread: among every received
  // route containing the victim, adopt the one whose stripped form is
  // shortest (ties broken by the normal decision order).
  const bgp::Route* chosen = nullptr;
  std::size_t chosen_len = 0;
  int strippable = 0;
  for (const auto& candidate : candidates) {
    if (!candidate.has_value() || !candidate->path.Contains(config_.victim)) {
      continue;
    }
    AsPath stripped = candidate->path;
    strippable = std::max(strippable,
                          stripped.CollapseRunsOf(StripTarget()));
    const std::size_t len = stripped.Length();
    if (chosen == nullptr || len < chosen_len ||
        (len == chosen_len && bgp::BetterRoute(*candidate, *chosen))) {
      chosen = &*candidate;
      chosen_len = len;
    }
  }
  // No padding anywhere (λ = 1): the attack is a no-op; keep normal routing.
  if (chosen == nullptr || strippable == 0) return std::nullopt;
  if (policy_best.has_value() && *policy_best == *chosen) return std::nullopt;
  return *chosen;
}

OriginHijacker::OriginHijacker(Asn attacker, int pads)
    : attacker_(attacker), pads_(pads) {
  ASPPI_CHECK_GE(pads, 1);
}

ExportAction OriginHijacker::OnExport(Asn exporter, Asn /*to*/,
                                      Relation /*to_rel*/,
                                      Relation /*learned_from*/,
                                      AsPath& path) {
  if (exporter != attacker_) return ExportAction::kDefault;
  path = AsPath::Origin(attacker_, pads_);
  // The hijacker announces "its own" prefix to everyone.
  return ExportAction::kForce;
}

BallaniInterceptor::BallaniInterceptor(Asn attacker, Asn victim)
    : attacker_(attacker), victim_(victim) {
  ASPPI_CHECK_NE(attacker, victim);
}

ExportAction BallaniInterceptor::OnExport(Asn exporter, Asn /*to*/,
                                          Relation /*to_rel*/,
                                          Relation /*learned_from*/,
                                          AsPath& path) {
  if (exporter != attacker_) return ExportAction::kDefault;
  path = AsPath({attacker_, victim_});
  return ExportAction::kForce;
}

}  // namespace asppi::attack
