#include "check/invariants.h"

#include <algorithm>
#include <map>
#include <optional>

#include "data/measurement.h"
#include "data/prefix.h"
#include "detect/observation.h"
#include "detect/rules.h"
#include "stream/incremental.h"
#include "util/strings.h"

namespace asppi::check {

namespace {

using bgp::AsPath;
using util::Format;

// Trailing-run strip, re-stated from the paper: a route to the victim's
// prefix splits into (core, λ) where λ is the trailing run of victim copies.
// Routes not ending at the victim, or with the victim mid-path, don't strip.
struct Stripped {
  std::vector<Asn> core;
  int lambda = 0;
};

std::optional<Stripped> Strip(const AsPath& path, Asn victim) {
  const std::span<const Asn> hops = path.Hops();
  if (hops.empty() || hops.back() != victim) return std::nullopt;
  Stripped out;
  std::size_t end = hops.size();
  while (end > 0 && hops[end - 1] == victim) {
    --end;
    ++out.lambda;
  }
  out.core.assign(hops.begin(), hops.begin() + static_cast<long>(end));
  for (Asn asn : out.core) {
    if (asn == victim) return std::nullopt;
  }
  return out;
}

bool EndsWith(const std::vector<Asn>& hay, const std::vector<Asn>& tail) {
  if (hay.size() < tail.size()) return false;
  return std::equal(tail.begin(), tail.end(),
                    hay.end() - static_cast<long>(tail.size()));
}

// Observer → stripped route over the suffix-expanded observation set.
std::map<Asn, Stripped> StrippedViewOf(
    const std::vector<std::pair<Asn, AsPath>>& monitor_paths, Asn victim,
    detect::RouteSnapshot::ConflictPolicy policy) {
  std::map<Asn, Stripped> view;
  const detect::RouteSnapshot snapshot =
      detect::RouteSnapshot::FromMonitors(monitor_paths, policy);
  for (const auto& [owner, path] : snapshot.Routes()) {
    if (auto stripped = Strip(path, victim)) {
      view.emplace(owner, std::move(*stripped));
    }
  }
  return view;
}

std::string Render(const std::optional<ReferenceRoute>& route) {
  if (!route.has_value()) return "<none>";
  return Format("[%s] from AS%u", route->path.ToString().c_str(),
                static_cast<unsigned>(route->learned_from));
}

}  // namespace

void Invariants::CheckPath(const topo::AsGraph& graph, Asn self,
                           const AsPath& path, const PathChecks& checks,
                           Violations& out) {
  if (path.Empty()) {
    out.push_back(Format("path-empty: AS%u holds an empty path",
                         static_cast<unsigned>(self)));
    return;
  }
  if (path.HasLoop()) {
    out.push_back(Format("path-loop: AS%u holds %s",
                         static_cast<unsigned>(self),
                         path.ToString().c_str()));
  }
  if (path.Contains(self)) {
    out.push_back(Format("path-self: AS%u appears on its own route %s",
                         static_cast<unsigned>(self),
                         path.ToString().c_str()));
  }
  if (path.OriginAs() != checks.origin) {
    out.push_back(Format("path-origin: AS%u route %s does not end at AS%u",
                         static_cast<unsigned>(self), path.ToString().c_str(),
                         static_cast<unsigned>(checks.origin)));
  }
  if (checks.max_origin_padding > 0 &&
      path.OriginPadding() > checks.max_origin_padding) {
    out.push_back(Format(
        "path-padding: AS%u route %s carries %d origin copies (max %d)",
        static_cast<unsigned>(self), path.ToString().c_str(),
        path.OriginPadding(), checks.max_origin_padding));
  }

  // Traffic direction: self -> seq[0] -> ... -> origin. Every hop must be a
  // real link; the Gao-Rexford shape climbs providers, crosses at most one
  // peer link, then descends customers (siblings transparent).
  std::vector<Asn> chain;
  chain.push_back(self);
  const std::vector<Asn> seq = path.DistinctSequence();
  chain.insert(chain.end(), seq.begin(), seq.end());
  bool descended = false;
  bool used_peer = false;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const auto rel = graph.RelationOf(chain[i], chain[i + 1]);
    if (!rel.has_value()) {
      out.push_back(Format(
          "path-links: AS%u route %s uses non-adjacent hop AS%u->AS%u",
          static_cast<unsigned>(self), path.ToString().c_str(),
          static_cast<unsigned>(chain[i]),
          static_cast<unsigned>(chain[i + 1])));
      return;  // shape analysis is meaningless past a phantom link
    }
    if (!checks.require_valley_free) continue;
    switch (*rel) {
      case Relation::kProvider:  // moving up
        if (descended) {
          out.push_back(Format("valley-free: AS%u route %s climbs after the "
                               "peak at AS%u->AS%u",
                               static_cast<unsigned>(self),
                               path.ToString().c_str(),
                               static_cast<unsigned>(chain[i]),
                               static_cast<unsigned>(chain[i + 1])));
          return;
        }
        break;
      case Relation::kPeer:
        if (used_peer) {
          out.push_back(Format("valley-free: AS%u route %s crosses two peer "
                               "links",
                               static_cast<unsigned>(self),
                               path.ToString().c_str()));
          return;
        }
        used_peer = true;
        descended = true;
        break;
      case Relation::kCustomer:  // moving down
        descended = true;
        break;
      case Relation::kSibling:  // transparent
        break;
    }
  }
}

void Invariants::CheckConvergedState(const topo::AsGraph& graph,
                                     const bgp::PropagationResult& state,
                                     Violations& out) {
  const bgp::Announcement& ann = state.GetAnnouncement();
  const bool connected = graph.IsConnected();
  PathChecks checks;
  checks.origin = ann.origin;
  checks.max_origin_padding = ann.prepends.MaxPadsOf(ann.origin);
  checks.require_valley_free = true;

  for (Asn asn : graph.Ases()) {
    if (asn == ann.origin) continue;
    const auto& best = state.BestAt(asn);
    if (!best.has_value()) {
      if (connected) {
        out.push_back(Format("reachability: AS%u has no route to AS%u",
                             static_cast<unsigned>(asn),
                             static_cast<unsigned>(ann.origin)));
      }
      continue;
    }
    CheckPath(graph, asn, best->path, checks, out);
  }

  // Preference + stability: a converged Gao-Rexford state is a fixpoint of
  // one naive decision round — if any AS would switch (e.g. to an available
  // customer route it should have preferred), the state is wrong.
  const ReferenceEngine oracle(graph);
  const ReferenceEngine::State mirror = MirrorFastState(graph, state);
  const ReferenceEngine::State stepped = oracle.Step(ann, mirror);
  for (std::size_t i = 0; i < mirror.size(); ++i) {
    if (mirror[i] != stepped[i]) {
      out.push_back(Format(
          "stability: AS%u holds %s but one decision round yields %s",
          static_cast<unsigned>(graph.AsnAt(i)), Render(mirror[i]).c_str(),
          Render(stepped[i]).c_str()));
    }
  }

  CheckNextHopConsistency(graph, state, /*skip_learned_from=*/0, out);
}

void Invariants::CheckNextHopConsistency(const topo::AsGraph& graph,
                                         const bgp::PropagationResult& state,
                                         Asn skip_learned_from,
                                         Violations& out) {
  const bgp::Announcement& ann = state.GetAnnouncement();
  for (Asn asn : graph.Ases()) {
    if (asn == ann.origin) continue;
    const auto& best = state.BestAt(asn);
    if (!best.has_value()) continue;
    const Asn via = best->learned_from;
    if (via != 0 && via == skip_learned_from) continue;
    const int pads = ann.prepends.PadsFor(via, asn);
    const std::span<const Asn> hops = best->path.Hops();

    // The stored path must open with exactly `pads` copies of the neighbor,
    // followed by the neighbor's own stored best path (empty for the origin).
    std::vector<Asn> expected(static_cast<std::size_t>(pads), via);
    if (via != ann.origin) {
      const auto& via_best = state.BestAt(via);
      if (!via_best.has_value()) {
        out.push_back(Format(
            "next-hop: AS%u learned %s from AS%u, which holds no route",
            static_cast<unsigned>(asn), best->path.ToString().c_str(),
            static_cast<unsigned>(via)));
        continue;
      }
      expected.insert(expected.end(), via_best->path.Hops().begin(),
                      via_best->path.Hops().end());
    }
    if (!std::ranges::equal(hops, expected)) {
      out.push_back(Format(
          "next-hop: AS%u holds %s but AS%u's best plus %d pad(s) gives %s",
          static_cast<unsigned>(asn), best->path.ToString().c_str(),
          static_cast<unsigned>(via), pads,
          AsPath(expected).ToString().c_str()));
    }
  }
}

void Invariants::CheckInterception(const topo::AsGraph& graph,
                                   const attack::AttackOutcome& outcome,
                                   Violations& out) {
  const Asn victim = outcome.victim;
  const Asn attacker = outcome.attacker;
  const bgp::Announcement& ann = outcome.after.GetAnnouncement();
  const bool connected = graph.IsConnected();

  std::vector<Asn> traversing_before;
  std::vector<Asn> traversing_after;
  for (Asn asn : graph.Ases()) {
    if (asn == victim) continue;
    const auto& best = outcome.after.BestAt(asn);
    if (!best.has_value()) {
      if (connected) {
        out.push_back(Format("delivery: AS%u lost its route under the attack",
                             static_cast<unsigned>(asn)));
      }
      continue;
    }
    const auto stripped = Strip(best->path, victim);
    if (!stripped.has_value()) {
      out.push_back(Format(
          "delivery: AS%u's post-attack route %s does not terminate cleanly "
          "at AS%u",
          static_cast<unsigned>(asn), best->path.ToString().c_str(),
          static_cast<unsigned>(victim)));
      continue;
    }
    // The neighbor the victim announced this branch to: the last core hop,
    // or the holder itself when it borders the victim.
    const Asn branch = stripped->core.empty() ? asn : stripped->core.back();
    const int announced = ann.prepends.PadsFor(victim, branch);
    const bool traverses = asn != attacker && best->path.Contains(attacker);
    if (traverses) {
      // λ−1 copies removed: the stripped interception route keeps exactly
      // one victim copy however much padding the branch announced.
      if (stripped->lambda != 1) {
        out.push_back(Format(
            "interception-shorter: AS%u's route %s traverses the attacker "
            "but carries %d victim copies (want 1 = %d announced minus %d "
            "removed)",
            static_cast<unsigned>(asn), best->path.ToString().c_str(),
            stripped->lambda, announced, announced - 1));
      }
    } else if (asn != attacker && stripped->lambda != announced) {
      out.push_back(Format(
          "padding-preserved: AS%u's route %s avoids the attacker but "
          "carries %d victim copies (announced %d toward AS%u)",
          static_cast<unsigned>(asn), best->path.ToString().c_str(),
          stripped->lambda, announced, static_cast<unsigned>(branch)));
    }
    if (asn != attacker && best->path.Contains(attacker)) {
      traversing_after.push_back(asn);
    }
    const auto& before = outcome.before->BestAt(asn);
    if (asn != attacker && before.has_value() &&
        before->path.Contains(attacker)) {
      traversing_before.push_back(asn);
    }
  }

  // Pollution accounting re-derived: newly_polluted = after \ before, and
  // the fractions are the set sizes over n−2.
  std::vector<Asn> expected_polluted;
  for (Asn asn : traversing_after) {
    if (std::find(traversing_before.begin(), traversing_before.end(), asn) ==
        traversing_before.end()) {
      expected_polluted.push_back(asn);
    }
  }
  if (expected_polluted != outcome.newly_polluted) {
    out.push_back(Format(
        "pollution-set: outcome reports %zu newly polluted ASes, re-derived "
        "%zu",
        outcome.newly_polluted.size(), expected_polluted.size()));
  }
  const std::size_t n = graph.NumAses();
  if (n > 2) {
    const double denom = static_cast<double>(n - 2);
    const double want_after =
        static_cast<double>(traversing_after.size()) / denom;
    const double want_before =
        static_cast<double>(traversing_before.size()) / denom;
    if (outcome.fraction_after != want_after ||
        outcome.fraction_before != want_before) {
      out.push_back(Format(
          "pollution-fraction: outcome reports %.6f/%.6f, re-derived "
          "%.6f/%.6f (before/after)",
          outcome.fraction_before, outcome.fraction_after, want_before,
          want_after));
    }
  }
}

void Invariants::CheckStrategicAttack(
    const topo::AsGraph& graph, const strategy::AttackerProgram& program,
    const bgp::PropagationResult& attacked,
    const std::vector<std::pair<Asn, AsPath>>& previous,
    const std::vector<std::pair<Asn, AsPath>>& current, bool converged,
    Violations& out) {
  const Asn victim = program.Victim();

  // Edge-by-edge delivery audit: whatever a colluder's neighbor holds in its
  // Adj-RIB-In slot for that colluder must be explainable by the program's
  // directive for the (colluder → neighbor) edge.
  for (Asn colluder : program.Colluders()) {
    for (const topo::Edge& nb : graph.NeighborsOf(colluder)) {
      const strategy::Directive& directive =
          program.DirectiveFor(colluder, nb.asn);
      const std::optional<bgp::Route> slot =
          attacked.RibAt(nb.id, nb.back_slot);
      const bool receiver_poisoned =
          std::find(directive.poison.begin(), directive.poison.end(),
                    nb.asn) != directive.poison.end();
      if (directive.send == strategy::Send::kWithhold) {
        if (slot.has_value()) {
          out.push_back(Format(
              "strategy-withhold: AS%u withholds from AS%u yet the slot "
              "holds %s",
              static_cast<unsigned>(colluder), static_cast<unsigned>(nb.asn),
              slot->path.ToString().c_str()));
        }
        continue;
      }
      if (!slot.has_value()) continue;
      const AsPath& path = slot->path;
      if (receiver_poisoned) {
        out.push_back(Format(
            "strategy-poison-self: AS%u poisons AS%u on their edge yet the "
            "slot holds %s (loop check should have dropped it)",
            static_cast<unsigned>(colluder), static_cast<unsigned>(nb.asn),
            path.ToString().c_str()));
        continue;
      }
      if (path.Empty() || path.First() != colluder) {
        out.push_back(Format(
            "strategy-sender: AS%u's slot from AS%u holds %s, which does not "
            "open with the colluder",
            static_cast<unsigned>(nb.asn), static_cast<unsigned>(colluder),
            path.ToString().c_str()));
        continue;
      }
      if (directive.strip_to >= 1 &&
          path.MaxRunOf(victim) > directive.strip_to) {
        out.push_back(Format(
            "strategy-strip: AS%u -> AS%u carries a victim run of %d, "
            "directive trims to %d (path %s)",
            static_cast<unsigned>(colluder), static_cast<unsigned>(nb.asn),
            path.MaxRunOf(victim), directive.strip_to,
            path.ToString().c_str()));
      }
      for (Asn poison : directive.poison) {
        if (!path.Contains(poison)) {
          out.push_back(Format(
              "strategy-poison: AS%u -> AS%u lacks poison AS%u (path %s)",
              static_cast<unsigned>(colluder), static_cast<unsigned>(nb.asn),
              static_cast<unsigned>(poison), path.ToString().c_str()));
        }
      }
    }
  }

  // Accusation oracle, sound only for converged states under uniform
  // per-colluder, poison-free programs: padding is then a deterministic
  // function of the chain, so the witness rule can never pin a non-colluder.
  // Poison splices an innocent ASN into the path — blame-shifting is what
  // path stuffing is for — and a round-cap snapshot mixes stale unstripped
  // paths with stripped ones, so either condition voids the soundness
  // argument. Victim policy deliberately withheld — the victim-aware rule
  // accuses the victim-adjacent branch head, which is innocent under any
  // mid-path attacker.
  if (converged && program.UniformStripPerColluder() && !program.UsesPoison()) {
    // Soundness is claimed for honest vantage points only. The detector's
    // suffix expansion infers a route for every AS on a monitor path, but a
    // colluder strips the victim run it re-announces, so the observed suffix
    // misrepresents the true route of the colluder itself and of every AS
    // behind it on that path (they received the unstripped run). Rows in
    // front of the first colluder are honest: their owners genuinely hold
    // the stripped route. Build the stripped views with that taint filter —
    // the production Scan cannot (it does not know the colluders), which is
    // exactly why its framing alarms on tainted rows are out of scope here.
    auto trusted_view = [&program, victim](
        const std::vector<std::pair<Asn, bgp::AsPath>>& paths) {
      detect::StrippedView view;
      auto add = [&view, victim](Asn owner, std::span<const Asn> hops,
                                 std::size_t from) {
        if (view.count(owner)) return;  // first observation wins, as in Scan
        auto stripped =
            detect::StripVictimPadding(AsPath(hops.subspan(from)), victim);
        if (stripped) view.emplace(owner, std::move(*stripped));
      };
      for (const auto& [monitor, path] : paths) {
        if (program.IsColluder(monitor)) continue;
        const std::span<const Asn> hops = path.Hops();
        if (hops.empty()) continue;
        add(monitor, hops, 0);
        std::size_t i = 0;
        while (i < hops.size()) {
          const Asn as = hops[i];
          std::size_t j = i;
          while (j < hops.size() && hops[j] == as) ++j;
          if (program.IsColluder(as)) break;  // this row and deeper: tainted
          if (j < hops.size()) add(as, hops, j);
          i = j;
        }
      }
      return view;
    };
    const detect::StrippedView prev_view = trusted_view(previous);
    const detect::StrippedView cur_view = trusted_view(current);
    for (const auto& [observer, now] : cur_view) {
      auto before = prev_view.find(observer);
      if (before == prev_view.end()) continue;
      if (now.lambda >= before->second.lambda) continue;
      if (now.core.size() < 2) continue;
      const std::optional<detect::Alarm> alarm =
          detect::HighConfidenceAlarm(observer, now, cur_view);
      if (!alarm || alarm->confidence != detect::Alarm::Confidence::kHigh) {
        continue;
      }
      if (!program.IsColluder(alarm->suspect)) {
        out.push_back(Format(
            "strategy-accusation: witness rule accuses AS%u, outside the "
            "colluding set (observer AS%u): %s",
            static_cast<unsigned>(alarm->suspect),
            static_cast<unsigned>(alarm->observer), alarm->detail.c_str()));
      }
    }
  }
}

void Invariants::CheckDefendedState(const topo::AsGraph& graph,
                                    const defense::PolicySet& policy,
                                    Asn origin, Asn attacker,
                                    const bgp::PrependPolicy& prepends,
                                    const bgp::PropagationResult& state,
                                    Violations& out) {
  // §II-B run-length rule, re-stated: on a loop-free path every maximal run
  // of AS X carries exactly PadsFor(X, successor) copies, the successor
  // being the receiver-side hop adjacent to the run. Fewer copies prove
  // someone removed padding.
  const auto undercut = [&prepends](Asn receiver, const AsPath& path) {
    const std::span<const Asn> hops = path.Hops();
    Asn successor = receiver;
    std::size_t i = 0;
    while (i < hops.size()) {
      const Asn run_asn = hops[i];
      std::size_t run = 0;
      while (i < hops.size() && hops[i] == run_asn) {
        ++run;
        ++i;
      }
      if (static_cast<int>(run) < prepends.PadsFor(run_asn, successor)) {
        return true;
      }
      successor = run_asn;
    }
    return false;
  };

  for (std::size_t i = 0; i < graph.NumAses(); ++i) {
    const Asn asn = graph.AsnAt(i);
    const std::uint8_t tags = policy.TagsAt(static_cast<topo::AsId>(i));
    const std::optional<bgp::Route>& best = state.BestRoutes()[i];

    if (best.has_value() && asn != origin) {
      if ((tags & defense::kRov) && best->path.OriginAs() != origin) {
        out.push_back(Format(
            "defense-rov: AS%u runs ROV yet selected [%s] originating at "
            "AS%u",
            static_cast<unsigned>(asn), best->path.ToString().c_str(),
            static_cast<unsigned>(best->path.OriginAs())));
      }
      if ((tags & defense::kPathValidation) && undercut(asn, best->path)) {
        out.push_back(Format(
            "defense-pathval: AS%u validates paths yet selected the "
            "undercut route [%s]",
            static_cast<unsigned>(asn), best->path.ToString().c_str()));
      }
      if (tags & defense::kInlineDetector) {
        const std::optional<detect::StrippedRoute> stripped =
            detect::StripVictimPadding(best->path, origin);
        if (stripped.has_value() &&
            detect::VictimAwareAlarm(origin, asn, *stripped, prepends)
                .has_value()) {
          out.push_back(Format(
              "defense-detector: AS%u runs the inline detector yet selected "
              "the accusable route [%s]",
              static_cast<unsigned>(asn), best->path.ToString().c_str()));
        }
      }
    }

    // Propagation side: whatever a defended neighbor exported into this
    // AS's Adj-RIB-In was that neighbor's accepted best — so it obeys the
    // neighbor's own policies too.
    const std::span<const topo::Edge> neighbors =
        graph.NeighborsAt(static_cast<topo::AsId>(i));
    for (std::uint32_t slot = 0; slot < neighbors.size(); ++slot) {
      const topo::Edge& nb = neighbors[slot];
      if (nb.asn == attacker) continue;  // rewritten exports, tag or not
      const std::uint8_t nb_tags = policy.TagsAt(nb.id);
      if (nb_tags == 0) continue;
      const std::optional<bgp::Route> held =
          state.RibAt(static_cast<topo::AsId>(i), slot);
      if (!held.has_value()) continue;
      const AsPath& path = held->path;
      if ((nb_tags & defense::kRov) && path.OriginAs() != origin) {
        out.push_back(Format(
            "defense-rov-propagated: ROV AS%u exported [%s] originating at "
            "AS%u to AS%u",
            static_cast<unsigned>(nb.asn), path.ToString().c_str(),
            static_cast<unsigned>(path.OriginAs()),
            static_cast<unsigned>(asn)));
      }
      if ((nb_tags & defense::kPathValidation) && undercut(asn, path)) {
        out.push_back(Format(
            "defense-pathval-propagated: validating AS%u exported the "
            "undercut route [%s] to AS%u",
            static_cast<unsigned>(nb.asn), path.ToString().c_str(),
            static_cast<unsigned>(asn)));
      }
    }
  }
}

void Invariants::CheckAlarmsJustified(
    Asn victim, const std::vector<std::pair<Asn, AsPath>>& previous,
    const std::vector<std::pair<Asn, AsPath>>& current,
    const std::vector<detect::Alarm>& alarms,
    const bgp::PrependPolicy* victim_policy, Violations& out) {
  using detect::Alarm;
  const auto policy = detect::RouteSnapshot::ConflictPolicy::kFirstObserved;
  const std::map<Asn, Stripped> prev_view =
      StrippedViewOf(previous, victim, policy);
  const std::map<Asn, Stripped> cur_view =
      StrippedViewOf(current, victim, policy);

  for (const Alarm& alarm : alarms) {
    const auto now_it = cur_view.find(alarm.observer);
    if (now_it == cur_view.end()) {
      out.push_back(Format(
          "alarm-witness: AS%u raised an alarm but holds no strippable "
          "route (%s)",
          static_cast<unsigned>(alarm.observer), alarm.detail.c_str()));
      continue;
    }
    const Stripped& now = now_it->second;

    if (alarm.confidence == Alarm::Confidence::kHigh) {
      // Justification 1 — the Fig.-4 witness rule: padding dropped, the
      // suspect heads the observer's core, and some other AS holds the same
      // chain behind the suspect with exactly pads_removed more copies.
      bool justified = false;
      const auto before_it = prev_view.find(alarm.observer);
      if (before_it != prev_view.end() && now.core.size() >= 2 &&
          now.core.front() == alarm.suspect &&
          now.lambda < before_it->second.lambda) {
        const std::vector<Asn> segment(now.core.begin() + 1, now.core.end());
        for (const auto& [other, stripped] : cur_view) {
          if (other == alarm.observer) continue;
          if (!EndsWith(stripped.core, segment)) continue;
          if (stripped.lambda > now.lambda &&
              stripped.lambda - now.lambda == alarm.pads_removed) {
            justified = true;
            break;
          }
        }
      }
      // Justification 2 — the victim-aware rule: observed padding toward the
      // first neighbor undercuts what the victim announced to it.
      if (!justified && victim_policy != nullptr && !now.core.empty() &&
          now.core.back() == alarm.suspect) {
        const int announced = victim_policy->PadsFor(victim, alarm.suspect);
        justified = now.lambda < announced &&
                    alarm.pads_removed == announced - now.lambda;
      }
      if (!justified) {
        out.push_back(Format(
            "alarm-witness: high-confidence alarm against AS%u (observer "
            "AS%u, %d pads) has no independent witness: %s",
            static_cast<unsigned>(alarm.suspect),
            static_cast<unsigned>(alarm.observer), alarm.pads_removed,
            alarm.detail.c_str()));
      }
      continue;
    }

    // Hint alarms: check the trigger conditions (padding drop, suspect heads
    // the core, some strictly longer padded route exists).
    const auto before_it = prev_view.find(alarm.observer);
    bool triggered = before_it != prev_view.end() && now.core.size() >= 2 &&
                     now.core.front() == alarm.suspect &&
                     now.lambda < before_it->second.lambda;
    if (triggered) {
      bool longer_exists = false;
      for (const auto& [other, stripped] : cur_view) {
        if (other == alarm.observer) continue;
        if (stripped.lambda > now.lambda &&
            stripped.core.size() + static_cast<std::size_t>(stripped.lambda) >
                now.core.size() + static_cast<std::size_t>(now.lambda)) {
          longer_exists = true;
          break;
        }
      }
      triggered = longer_exists;
    }
    if (!triggered) {
      out.push_back(Format(
          "alarm-trigger: hint alarm against AS%u (observer AS%u) without a "
          "padding-drop trigger: %s",
          static_cast<unsigned>(alarm.suspect),
          static_cast<unsigned>(alarm.observer), alarm.detail.c_str()));
    }
  }
}

void Invariants::CheckNoHighConfidence(const std::vector<detect::Alarm>& alarms,
                                       Violations& out) {
  for (const detect::Alarm& alarm : alarms) {
    if (alarm.confidence == detect::Alarm::Confidence::kHigh) {
      out.push_back(Format(
          "false-positive: high-confidence alarm against AS%u (observer "
          "AS%u): %s",
          static_cast<unsigned>(alarm.suspect),
          static_cast<unsigned>(alarm.observer), alarm.detail.c_str()));
    }
  }
}

void Invariants::CheckStreamBatchEquivalence(
    const topo::AsGraph* graph, Asn victim,
    const std::vector<std::pair<Asn, AsPath>>& previous,
    const std::vector<std::pair<Asn, AsPath>>& current,
    const bgp::PrependPolicy* victim_policy, Violations& out) {
  // Replay previous→current as a single-prefix update stream.
  const data::Prefix prefix = data::SyntheticPrefix(0);
  data::RibSnapshot rib;
  for (const auto& [monitor, path] : previous) {
    rib.tables[monitor][prefix] = path;
  }

  std::map<stream::PrefixKey, bgp::PrependPolicy> victim_policies;
  if (victim_policy != nullptr) {
    victim_policies[{victim, prefix}] = *victim_policy;
  }
  stream::IncrementalDetector::Options options;
  options.graph = graph;
  options.victim_policies = &victim_policies;
  stream::IncrementalDetector incremental(options);
  incremental.SeedBaseline(rib);

  std::uint64_t sequence = 1;
  for (const auto& [monitor, path] : current) {
    data::Update update;
    update.sequence = sequence++;
    update.monitor = monitor;
    update.prefix = prefix;
    update.path = path;
    incremental.Apply(update);
  }
  for (const auto& [monitor, path] : previous) {
    const bool still_present =
        std::any_of(current.begin(), current.end(),
                    [m = monitor](const auto& entry) { return entry.first == m; });
    if (still_present) continue;
    data::Update update;
    update.sequence = sequence++;
    update.monitor = monitor;
    update.prefix = prefix;
    update.withdraw = true;
    incremental.Apply(update);
  }

  detect::DetectorOptions batch_options;
  batch_options.conflict_policy =
      detect::RouteSnapshot::ConflictPolicy::kLatestObserved;
  const detect::AsppDetector batch(graph, batch_options);
  std::vector<detect::Alarm> batch_alarms =
      batch.Scan(victim, previous, current, victim_policy);
  std::sort(batch_alarms.begin(), batch_alarms.end(), detect::AlarmLess);

  const std::vector<detect::Alarm> stream_alarms =
      incremental.CurrentAlarms({victim, prefix});
  if (stream_alarms == batch_alarms) return;
  out.push_back(Format(
      "stream-batch: incremental detector holds %zu alarm(s), batch scan "
      "%zu for victim AS%u",
      stream_alarms.size(), batch_alarms.size(),
      static_cast<unsigned>(victim)));
  for (const detect::Alarm& alarm : stream_alarms) {
    if (std::find(batch_alarms.begin(), batch_alarms.end(), alarm) ==
        batch_alarms.end()) {
      out.push_back(Format("stream-batch:   stream-only: %s (suspect AS%u)",
                           alarm.detail.c_str(),
                           static_cast<unsigned>(alarm.suspect)));
    }
  }
  for (const detect::Alarm& alarm : batch_alarms) {
    if (std::find(stream_alarms.begin(), stream_alarms.end(), alarm) ==
        stream_alarms.end()) {
      out.push_back(Format("stream-batch:   batch-only: %s (suspect AS%u)",
                           alarm.detail.c_str(),
                           static_cast<unsigned>(alarm.suspect)));
    }
  }
}

}  // namespace asppi::check
