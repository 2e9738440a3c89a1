#include "strategy/program.h"

#include <algorithm>

#include "util/check.h"

namespace asppi::strategy {

const char* SendName(Send send) {
  switch (send) {
    case Send::kPolicy:
      return "policy";
    case Send::kAsCustomer:
      return "as-customer";
    case Send::kForce:
      return "force";
    case Send::kWithhold:
      return "withhold";
  }
  return "?";
}

namespace {

// Canonical directive rendering for KeyString: "s<send>t<strip>[p1,2,...]".
std::string EncodeDirective(const Directive& directive) {
  std::string out = "s" + std::to_string(static_cast<int>(directive.send)) +
                    "t" + std::to_string(directive.strip_to);
  if (!directive.poison.empty()) {
    out += 'p';
    for (std::size_t i = 0; i < directive.poison.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(directive.poison[i]);
    }
  }
  return out;
}

}  // namespace

AttackerProgram::AttackerProgram(Asn victim, std::vector<Asn> colluders)
    : victim_(victim), colluders_(std::move(colluders)) {
  ASPPI_CHECK_NE(victim, 0u);
  ASPPI_CHECK(!colluders_.empty()) << "program needs at least one attacker";
  std::sort(colluders_.begin(), colluders_.end());
  colluders_.erase(std::unique(colluders_.begin(), colluders_.end()),
                   colluders_.end());
  for (Asn colluder : colluders_) {
    ASPPI_CHECK_NE(colluder, 0u);
    ASPPI_CHECK_NE(colluder, victim) << "victim cannot collude against itself";
    defaults_[colluder] = Directive{};
  }
}

AttackerProgram AttackerProgram::PaperModel(Asn victim, Asn attacker,
                                            bool violate_valley_free,
                                            bool export_stripped_to_peers) {
  AttackerProgram program(victim, {attacker});
  Directive directive;
  directive.strip_to = 1;
  if (violate_valley_free) {
    directive.send = Send::kForce;
    program.SetAdoptBestStripped(true);
  } else if (export_stripped_to_peers) {
    directive.send = Send::kAsCustomer;
  } else {
    directive.send = Send::kPolicy;
  }
  program.SetDefault(attacker, directive);
  return program;
}

bool AttackerProgram::IsColluder(Asn asn) const {
  return std::binary_search(colluders_.begin(), colluders_.end(), asn);
}

void AttackerProgram::CheckDirective(Asn colluder,
                                     const Directive& directive) const {
  ASPPI_CHECK(IsColluder(colluder)) << "AS" << colluder << " not a colluder";
  ASPPI_CHECK_GE(directive.strip_to, 0);
  for (Asn poison : directive.poison) {
    ASPPI_CHECK_NE(poison, 0u);
    ASPPI_CHECK_NE(poison, victim_) << "cannot poison with the victim";
    ASPPI_CHECK(!IsColluder(poison)) << "cannot poison with a colluder";
  }
}

void AttackerProgram::SetDefault(Asn colluder, Directive directive) {
  CheckDirective(colluder, directive);
  defaults_[colluder] = std::move(directive);
}

void AttackerProgram::SetForNeighbor(Asn colluder, Asn neighbor,
                                     Directive directive) {
  CheckDirective(colluder, directive);
  overrides_[{colluder, neighbor}] = std::move(directive);
}

const Directive& AttackerProgram::DirectiveFor(Asn colluder,
                                               Asn neighbor) const {
  if (auto it = overrides_.find({colluder, neighbor});
      it != overrides_.end()) {
    return it->second;
  }
  auto it = defaults_.find(colluder);
  ASPPI_CHECK(it != defaults_.end()) << "AS" << colluder << " not a colluder";
  return it->second;
}

bool AttackerProgram::UniformStripPerColluder() const {
  for (const auto& [edge, directive] : overrides_) {
    if (directive.strip_to != defaults_.at(edge.first).strip_to) return false;
  }
  return true;
}

bool AttackerProgram::UsesPoison() const {
  for (const auto& [colluder, directive] : defaults_) {
    if (!directive.poison.empty()) return true;
  }
  for (const auto& [edge, directive] : overrides_) {
    if (!directive.poison.empty()) return true;
  }
  return false;
}

std::string AttackerProgram::KeyString() const {
  std::string key = "v" + std::to_string(victim_) + "|a";
  for (std::size_t i = 0; i < colluders_.size(); ++i) {
    if (i > 0) key += ',';
    key += std::to_string(colluders_[i]);
  }
  key += "|b";
  key += adopt_best_stripped_ ? '1' : '0';
  for (const auto& [colluder, directive] : defaults_) {
    key += "|d" + std::to_string(colluder) + ':' + EncodeDirective(directive);
  }
  for (const auto& [edge, directive] : overrides_) {
    key += "|o" + std::to_string(edge.first) + ',' +
           std::to_string(edge.second) + ':' + EncodeDirective(directive);
  }
  return key;
}

std::string Describe(const AttackerProgram& program) {
  const auto render = [](const Directive& directive) {
    std::string out = std::string(SendName(directive.send));
    if (directive.send != Send::kWithhold) {
      out += " strip_to=" + std::to_string(directive.strip_to);
      if (!directive.poison.empty()) {
        out += " poison=[";
        for (std::size_t i = 0; i < directive.poison.size(); ++i) {
          if (i > 0) out += ',';
          out += std::to_string(directive.poison[i]);
        }
        out += ']';
      }
    }
    return out;
  };
  std::string out = "victim AS" + std::to_string(program.Victim()) +
                    ", colluders [";
  for (std::size_t i = 0; i < program.Colluders().size(); ++i) {
    if (i > 0) out += ',';
    out += "AS" + std::to_string(program.Colluders()[i]);
  }
  out += "]";
  if (program.AdoptBestStripped()) out += ", adopt-best-stripped";
  out += '\n';
  for (const auto& [colluder, directive] : program.Defaults()) {
    out += "  AS" + std::to_string(colluder) + " -> *: " +
           render(directive) + '\n';
  }
  for (const auto& [edge, directive] : program.Overrides()) {
    out += "  AS" + std::to_string(edge.first) + " -> AS" +
           std::to_string(edge.second) + ": " + render(directive) + '\n';
  }
  return out;
}

ProgramTransform::ProgramTransform(const AttackerProgram& program)
    : program_(program) {}

bgp::ExportAction ProgramTransform::OnExport(Asn exporter, Asn to,
                                             topo::Relation to_rel,
                                             topo::Relation /*learned_from*/,
                                             bgp::AsPath& path) {
  if (!program_.IsColluder(exporter)) return bgp::ExportAction::kDefault;
  const Directive& directive = program_.DirectiveFor(exporter, to);
  if (directive.send == Send::kWithhold) return bgp::ExportAction::kSuppress;
  if (!path.Contains(program_.Victim())) return bgp::ExportAction::kDefault;

  bool modified = false;
  if (directive.strip_to >= 1) {
    modified = path.TrimRunsOf(program_.Victim(), directive.strip_to) > 0;
  }

  if (!directive.poison.empty()) {
    // Splice poison ASNs right after the exporter's own leading run, so the
    // path still opens with the exporter (the receiver's sanity view) and
    // still ends at the victim. ASNs already on the path are skipped — the
    // splice never manufactures a loop.
    std::vector<Asn> to_insert;
    for (Asn poison : directive.poison) {
      if (path.Contains(poison)) continue;
      if (std::find(to_insert.begin(), to_insert.end(), poison) !=
          to_insert.end()) {
        continue;
      }
      to_insert.push_back(poison);
    }
    if (!to_insert.empty()) {
      std::vector<Asn> hops(path.Hops().begin(), path.Hops().end());
      std::size_t lead = 0;
      while (lead < hops.size() && hops[lead] == exporter) ++lead;
      hops.insert(hops.begin() + static_cast<long>(lead), to_insert.begin(),
                  to_insert.end());
      path = bgp::AsPath(hops);
      modified = true;
    }
  }

  // An unmodified route carries no attack; behave like any honest AS (this is
  // also what keeps λ=1 victims safe from the paper attacker).
  if (!modified) return bgp::ExportAction::kDefault;

  switch (directive.send) {
    case Send::kPolicy:
      return bgp::ExportAction::kDefault;
    case Send::kAsCustomer:
      // The rewritten route masquerades as a customer route: export sideways
      // and downhill raises no valley-free flag; only refrain from announcing
      // upward (attack::AsppInterceptor's default mode).
      return to_rel == topo::Relation::kProvider ? bgp::ExportAction::kDefault
                                                 : bgp::ExportAction::kForce;
    case Send::kForce:
      return bgp::ExportAction::kForce;
    case Send::kWithhold:
      break;  // handled above
  }
  return bgp::ExportAction::kDefault;
}

std::optional<bgp::Route> ProgramTransform::OverrideBest(
    Asn asn, std::span<const std::optional<bgp::Route>> candidates,
    const std::optional<bgp::Route>& policy_best) {
  if (!program_.AdoptBestStripped() || !program_.IsColluder(asn)) {
    return std::nullopt;
  }
  // Identical to attack::AsppInterceptor: among every received route
  // containing the victim, adopt the one whose stripped form is shortest
  // (ties broken by the normal decision order).
  const bgp::Route* chosen = nullptr;
  std::size_t chosen_len = 0;
  int strippable = 0;
  for (const auto& candidate : candidates) {
    if (!candidate.has_value() ||
        !candidate->path.Contains(program_.Victim())) {
      continue;
    }
    bgp::AsPath stripped = candidate->path;
    strippable =
        std::max(strippable, stripped.CollapseRunsOf(program_.Victim()));
    const std::size_t len = stripped.Length();
    if (chosen == nullptr || len < chosen_len ||
        (len == chosen_len && bgp::BetterRoute(*candidate, *chosen))) {
      chosen = &*candidate;
      chosen_len = len;
    }
  }
  if (chosen == nullptr || strippable == 0) return std::nullopt;
  if (policy_best.has_value() && *policy_best == *chosen) return std::nullopt;
  return *chosen;
}

bool ProgramTransform::MightRewrite(Asn exporter) const {
  return program_.IsColluder(exporter);
}

bool ProgramTransform::MightOverride(Asn asn) const {
  return program_.AdoptBestStripped() && program_.IsColluder(asn);
}

AttackerProgram DrawProgram(const topo::AsGraph& graph, Asn victim,
                            std::span<const Asn> colluders, int lambda,
                            const DrawLimits& limits, util::Rng& rng) {
  ASPPI_CHECK_GE(lambda, 1);
  AttackerProgram program(victim,
                          std::vector<Asn>(colluders.begin(), colluders.end()));

  const auto draw_poison = [&](std::vector<Asn>& out) {
    const std::size_t count = 1 + rng.Below(2);
    for (std::size_t i = 0; i < count; ++i) {
      // Rejection-sample a real, non-victim, non-colluding ASN; a bounded
      // number of tries keeps the draw total even on tiny all-colluder
      // topologies.
      for (int tries = 0; tries < 8; ++tries) {
        const Asn candidate = graph.AsnAt(
            static_cast<std::uint32_t>(rng.Below(graph.NumAses())));
        if (candidate == victim || program.IsColluder(candidate)) continue;
        if (std::find(out.begin(), out.end(), candidate) != out.end()) {
          continue;
        }
        out.push_back(candidate);
        break;
      }
    }
  };
  const auto draw_send = [&]() {
    switch (rng.Below(limits.allow_violate ? 3 : 2)) {
      case 0:
        return Send::kAsCustomer;
      case 1:
        return Send::kPolicy;
      default:
        return Send::kForce;
    }
  };

  for (Asn colluder : program.Colluders()) {
    Directive base;
    // strip_to = 0 (leave padding) through λ (trim to full padding = no-op on
    // the victim's own runs, still meaningful against intermediary prepends).
    base.strip_to = static_cast<int>(rng.Range(0, lambda));
    base.send = draw_send();
    if (limits.allow_poison && rng.Chance(0.25)) draw_poison(base.poison);
    program.SetDefault(colluder, base);

    const std::span<const topo::Edge> neighbors = graph.NeighborsOf(colluder);
    if (neighbors.empty()) continue;
    const std::size_t overrides = rng.Below(limits.max_overrides + 1);
    for (std::size_t i = 0; i < overrides; ++i) {
      const topo::Edge& edge = neighbors[rng.Below(neighbors.size())];
      // Overrides share the colluder's strip_to (UniformStripPerColluder
      // holds by construction — see the accusation-oracle precondition).
      Directive directive = base;
      if (limits.allow_withhold && rng.Chance(0.4)) {
        directive.send = Send::kWithhold;
      } else {
        directive.send = draw_send();
        directive.poison.clear();
        if (limits.allow_poison && rng.Chance(0.3)) {
          draw_poison(directive.poison);
        }
      }
      program.SetForNeighbor(colluder, edge.asn, directive);
    }
  }
  if (limits.allow_violate && rng.Chance(0.2)) {
    program.SetAdoptBestStripped(true);
  }
  return program;
}

}  // namespace asppi::strategy
