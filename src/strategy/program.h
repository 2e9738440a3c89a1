// Adaptive interception strategies: the attacker model behind the paper's
// §II-B attack, generalized into a small program the attacker (or a colluding
// set of attackers) executes at export time.
//
// The paper's attacker does exactly one thing: collapse the victim's
// prepended runs to a single copy and re-export the stripped route downhill
// and sideways. An AttackerProgram widens that to the full power a malicious
// BGP speaker set actually has, per (colluder, neighbor) edge:
//
//   * announce or withhold the route entirely (Send::kWithhold),
//   * strip partially — trim every victim run to any λ' ≤ λ (strip_to),
//     including the stealthy λ−1 attacker that shaves one pad per run,
//   * poison — splice real ASNs into the exported path so chosen networks
//     drop it at their receiver-side loop check,
//   * follow, stretch (customer-masquerade), or outright violate the
//     valley-free export rule (Send::kPolicy / kAsCustomer / kForce).
//
// ProgramTransform compiles a program into a bgp::RouteTransform, executed
// bit-identically by both convergence engines; the paper's attacker is the
// PaperModel() point of this space (tests assert state-level equivalence
// with attack::AsppInterceptor).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/transform.h"
#include "topology/as_graph.h"
#include "util/rng.h"

namespace asppi::strategy {

using topo::Asn;

// What a colluder does with the (possibly rewritten) route on one edge.
enum class Send : std::uint8_t {
  kPolicy,      // export per the normal valley-free rules
  kAsCustomer,  // export to customers, siblings and peers (paper §VI-B:
                // the stripped route masquerades as a customer route)
  kForce,       // export to everyone, providers included (policy violation)
  kWithhold,    // do not announce on this edge at all
};

const char* SendName(Send send);

// Per-edge instruction. strip_to = 0 leaves the victim's padding untouched;
// k >= 1 trims every victim run to at most k copies (1 = the paper's full
// strip). `poison` ASNs are spliced into the exported path right after the
// colluder's own leading run — any AS on the poison list drops the route at
// its receiver-side loop check, steering pollution around it.
struct Directive {
  Send send = Send::kAsCustomer;
  int strip_to = 1;
  std::vector<Asn> poison;

  bool operator==(const Directive&) const = default;
};

// A complete strategy for one victim: the colluding attacker set, a default
// directive per colluder, and per-(colluder, neighbor) overrides — the same
// default/override shape as bgp::PrependPolicy, with the same canonical
// KeyString() so search can deduplicate candidates.
class AttackerProgram {
 public:
  AttackerProgram() = default;
  // `colluders` is sorted and deduplicated; must be non-empty and must not
  // contain the victim. Every colluder starts with the paper directive
  // (kAsCustomer, strip to 1, no poison).
  AttackerProgram(Asn victim, std::vector<Asn> colluders);

  // The paper's §II-B attacker as a point in this space. Mirrors
  // attack::AsppInterceptor's three export modes exactly:
  // violate_valley_free → kForce + adopt-best-stripped; otherwise
  // export_stripped_to_peers selects kAsCustomer vs kPolicy.
  static AttackerProgram PaperModel(Asn victim, Asn attacker,
                                    bool violate_valley_free = false,
                                    bool export_stripped_to_peers = true);

  Asn Victim() const { return victim_; }
  const std::vector<Asn>& Colluders() const { return colluders_; }
  bool IsColluder(Asn asn) const;

  // Violate-mode decision override: each colluder adopts the received route
  // whose stripped form is shortest instead of the policy-preferred one
  // (attack::AsppInterceptor's OverrideBest, applied at every colluder).
  bool AdoptBestStripped() const { return adopt_best_stripped_; }
  void SetAdoptBestStripped(bool adopt) { adopt_best_stripped_ = adopt; }

  // `colluder` must be in Colluders(); poison lists must not contain the
  // victim or any colluder (checked).
  void SetDefault(Asn colluder, Directive directive);
  void SetForNeighbor(Asn colluder, Asn neighbor, Directive directive);

  // Override for (colluder, neighbor), else the colluder's default.
  const Directive& DirectiveFor(Asn colluder, Asn neighbor) const;

  // True when every colluder applies one strip_to on every edge (withhold,
  // poison and send may still vary per neighbor). In this subspace observed
  // padding is a deterministic function of the announcement chain, so —
  // absent poison — the detector's witness rule provably never accuses
  // outside the colluding set; the precondition for CheckStrategicAttack's
  // accusation oracle. Per-neighbor differential stripping breaks this: it
  // can frame the innocent first hop of a differently-stripped branch.
  bool UniformStripPerColluder() const;

  // True when any directive (default or override) poisons. Poisoning splices
  // an innocent ASN into exported paths, so the witness rule blames the
  // stuffed AS — framing is the *point* of path stuffing, and the accusation
  // oracle does not apply to poisoning programs.
  bool UsesPoison() const;

  // Canonical encoding (victim, colluders, adopt flag, defaults and
  // overrides in sorted order). Equal keys ⇒ identical attack behaviour.
  std::string KeyString() const;

  const std::map<Asn, Directive>& Defaults() const { return defaults_; }
  const std::map<std::pair<Asn, Asn>, Directive>& Overrides() const {
    return overrides_;
  }

 private:
  void CheckDirective(Asn colluder, const Directive& directive) const;

  Asn victim_ = 0;
  std::vector<Asn> colluders_;
  bool adopt_best_stripped_ = false;
  std::map<Asn, Directive> defaults_;
  std::map<std::pair<Asn, Asn>, Directive> overrides_;
};

// Compiles a program into the export hook both engines execute. Non-owning:
// `program` must outlive the transform.
class ProgramTransform final : public bgp::RouteTransform {
 public:
  explicit ProgramTransform(const AttackerProgram& program);

  bgp::ExportAction OnExport(Asn exporter, Asn to, topo::Relation to_rel,
                             topo::Relation learned_from,
                             bgp::AsPath& path) override;

  std::optional<bgp::Route> OverrideBest(
      Asn asn, std::span<const std::optional<bgp::Route>> candidates,
      const std::optional<bgp::Route>& policy_best) override;

  bool MightRewrite(Asn exporter) const override;
  bool MightOverride(Asn asn) const override;

 private:
  const AttackerProgram& program_;
};

// Human-readable one-line-per-directive rendering for reports and CLIs.
std::string Describe(const AttackerProgram& program);

// Knobs for DrawProgram (the fuzzer's strategy generator).
struct DrawLimits {
  // Per-colluder cap on per-neighbor overrides.
  std::size_t max_overrides = 3;
  bool allow_withhold = true;
  bool allow_poison = true;
  // Policy-violating sends and the adopt-best-stripped override.
  bool allow_violate = true;
};

// Draws a random program for `victim` executed by `colluders` against a
// victim announcing up to `lambda` pads. Deterministic in the rng state.
// Drawn programs always satisfy UniformStripPerColluder() — overrides vary
// send/withhold/poison but share the colluder's strip_to — so the fuzzer's
// accusation oracle applies whenever the draw happens to be poison-free.
// Poison ASNs are real ASes of `graph`, never the victim or a colluder.
AttackerProgram DrawProgram(const topo::AsGraph& graph, Asn victim,
                            std::span<const Asn> colluders, int lambda,
                            const DrawLimits& limits, util::Rng& rng);

}  // namespace asppi::strategy
