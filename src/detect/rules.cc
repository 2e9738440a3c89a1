#include "detect/rules.h"

#include <algorithm>

#include "util/strings.h"

namespace asppi::detect {

using topo::Relation;

std::optional<StrippedRoute> StripVictimPadding(const AsPath& path,
                                                Asn victim) {
  const std::span<const Asn> hops = path.Hops();
  if (hops.empty() || hops.back() != victim) return std::nullopt;
  StrippedRoute out;
  std::size_t end = hops.size();
  while (end > 0 && hops[end - 1] == victim) {
    --end;
    ++out.lambda;
  }
  out.core.assign(hops.begin(), hops.begin() + static_cast<long>(end));
  for (Asn asn : out.core) {
    if (asn == victim) return std::nullopt;  // victim mid-path: malformed
  }
  return out;
}

bool PathEndsWith(const std::vector<Asn>& hay, const std::vector<Asn>& tail) {
  if (hay.size() < tail.size()) return false;
  return std::equal(tail.begin(), tail.end(),
                    hay.end() - static_cast<long>(tail.size()));
}

StrippedView BuildStrippedView(const RouteSnapshot& current, Asn victim) {
  StrippedView view;
  for (const auto& [observer, path] : current.Routes()) {
    auto stripped = StripVictimPadding(path, victim);
    if (stripped) view.emplace(observer, std::move(*stripped));
  }
  return view;
}

Alarm MakeHighConfidenceAlarm(Asn suspect, Asn observer, int lambda_now,
                              Asn witness, int witness_lambda) {
  Alarm alarm;
  alarm.confidence = Alarm::Confidence::kHigh;
  alarm.suspect = suspect;
  alarm.observer = observer;
  alarm.pads_removed = witness_lambda - lambda_now;
  alarm.detail = util::Format(
      "chain behind AS%u observed with %d pads at AS%u but %d pads here",
      static_cast<unsigned>(suspect), witness_lambda,
      static_cast<unsigned>(witness), lambda_now);
  return alarm;
}

std::optional<Alarm> HighConfidenceAlarm(Asn observer, const StrippedRoute& now,
                                         const StrippedView& view) {
  if (now.core.size() < 2) return std::nullopt;
  const Asn suspect = now.core.front();
  // Every honest AS forwards ONE path, so any other observed route containing
  // the same chain directly before the victim must carry the same padding
  // count; more padding behind the same chain ⇒ the suspect removed copies.
  const std::vector<Asn> segment(now.core.begin() + 1, now.core.end());
  for (const auto& [other, stripped] : view) {
    if (other == observer) continue;
    if (!PathEndsWith(stripped.core, segment)) continue;
    if (now.lambda < stripped.lambda) {
      // One independent witness suffices.
      return MakeHighConfidenceAlarm(suspect, observer, now.lambda, other,
                                     stripped.lambda);
    }
  }
  return std::nullopt;
}

std::optional<Alarm> HintAlarm(const topo::AsGraph& graph, Asn victim,
                               Asn observer, const StrippedRoute& now,
                               const StrippedView& view) {
  if (now.core.size() < 2) return std::nullopt;
  const Asn suspect = now.core.front();
  const Asn as_i1 = now.core[1];  // AS_{I-1}
  for (const auto& [other, stripped] : view) {
    if (other == observer) continue;
    if (stripped.core.empty()) continue;
    if (now.lambda >= stripped.lambda) continue;
    // Another AS holds a strictly longer padded route.
    if (stripped.core.size() + static_cast<std::size_t>(stripped.lambda) <=
        now.core.size() + static_cast<std::size_t>(now.lambda)) {
      continue;
    }
    const Asn as_l = stripped.core.front();
    if (!graph.HasAs(as_l) || !graph.HasAs(as_i1)) continue;
    auto rel = graph.RelationOf(as_l, as_i1);  // role of AS_{I-1} at AS'_L
    if (!rel) continue;

    bool suspicious = false;
    std::string why;
    if (*rel == Relation::kCustomer) {
      // AS'_L's customer had the short route and would have exported it.
      suspicious = true;
      why = "customer withheld shorter route";
    } else if (*rel == Relation::kPeer) {
      // Peer-learned shorter routes are exportable when customer-learned:
      // suspicious only if the short route has no peer link (pure
      // customer chain), which AS_{I-1} would export to its peer AS'_L.
      bool any_peer_link = false;
      std::vector<Asn> chain = now.core;
      chain.push_back(victim);
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        auto link = graph.RelationOf(chain[i], chain[i + 1]);
        if (link && *link == Relation::kPeer) any_peer_link = true;
      }
      if (!any_peer_link) {
        suspicious = true;
        why = "peer withheld customer-chain route";
      }
    } else if (*rel == Relation::kProvider) {
      const Asn as_l1 = stripped.core.size() >= 2 ? stripped.core[1] : victim;
      auto up = graph.RelationOf(as_l, as_l1);  // role of AS'_{L-1} at AS'_L
      if (up && *up == Relation::kProvider) {
        suspicious = true;
        why = "provider preferred longer provider route";
      }
    }
    if (suspicious) {
      // One hint per observer is enough.
      Alarm alarm;
      alarm.confidence = Alarm::Confidence::kPossible;
      alarm.suspect = suspect;
      alarm.observer = observer;
      alarm.pads_removed = stripped.lambda - now.lambda;
      alarm.detail = util::Format("%s (vs AS%u)", why.c_str(),
                                  static_cast<unsigned>(as_l));
      return alarm;
    }
  }
  return std::nullopt;
}

std::optional<Alarm> VictimAwareAlarm(Asn victim, Asn observer,
                                      const StrippedRoute& now,
                                      const bgp::PrependPolicy& policy) {
  if (now.core.empty()) return std::nullopt;
  const Asn first_neighbor = now.core.back();
  const int announced = policy.PadsFor(victim, first_neighbor);
  if (now.lambda >= announced) return std::nullopt;
  Alarm alarm;
  alarm.confidence = Alarm::Confidence::kHigh;
  alarm.suspect = first_neighbor;
  alarm.observer = observer;
  alarm.pads_removed = announced - now.lambda;
  alarm.detail = util::Format(
      "victim announced %d pads toward AS%u but only %d observed", announced,
      static_cast<unsigned>(first_neighbor), now.lambda);
  return alarm;
}

}  // namespace asppi::detect
