// Attacker models, implemented as bgp::RouteTransform hooks.
//
// AsppInterceptor is the paper's contribution: the attacker M receives the
// victim's route [* V…V] (λ prepended copies) and re-exports [M * V] with the
// duplicate Vs removed, making the malicious route λ−1 hops shorter than any
// legitimate one — without introducing a bogus origin (MOAS) or a
// non-existent AS link (paper §II-B).
//
// The two classic hijack models are provided as baselines: OriginHijacker
// (bogus origin: [M…M]) and BallaniInterceptor (invalid next hop: [M V],
// fabricating an M–V adjacency). Both are detectable by prior tools; the
// ASPP attack is not, which is the paper's point.
#pragma once

#include "bgp/transform.h"

namespace asppi::attack {

using bgp::Asn;
using bgp::AsPath;
using bgp::ExportAction;
using bgp::Relation;

// The ASPP-based interception attacker.
class AsppInterceptor final : public bgp::RouteTransform {
 public:
  struct Config {
    Asn attacker = 0;
    Asn victim = 0;
    // Export behaviour (paper §VI-B). The stripped route [M * V] is
    // indistinguishable from a customer route to its receivers, so the
    // "follow valley-free" attacker announces it to customers, siblings AND
    // peers — the resulting paths still look valley-free to everyone — and
    // only refrains from announcing upward ("the attacker can only pollute
    // its customers, peers, and peers' customers"). With
    // violate_valley_free=true the attacker drops even that restraint: it
    // adopts the received route whose *stripped* form is shortest (not the
    // policy-preferred one) and announces it to providers as well — the
    // "violate routing policy" series of Figs. 11/12.
    bool violate_valley_free = false;
    // If false, a cautious attacker re-exports the stripped route strictly
    // per its own valley-free class (peer-/provider-learned stripped routes
    // reach only its customers — pollution bounded by the attacker's
    // customer cone). Default true per the paper's model ("the attacker can
    // pollute its customers, peers, and peers' customers").
    bool export_stripped_to_peers = true;
    // The AS whose prepended copies are stripped. 0 (default) strips the
    // victim's own padding; the paper notes the target "is not limited to
    // the origin AS. It can be any ASes who perform AS path prepending
    // before the attacker" — set this to strip an intermediary prepender.
    Asn padded_as = 0;
  };

  // The ASN whose runs this attacker collapses.
  Asn StripTarget() const {
    return config_.padded_as == 0 ? config_.victim : config_.padded_as;
  }

  explicit AsppInterceptor(const Config& config);

  ExportAction OnExport(Asn exporter, Asn to, Relation to_rel,
                        Relation learned_from, AsPath& path) override;

  std::optional<bgp::Route> OverrideBest(
      Asn asn, std::span<const std::optional<bgp::Route>> candidates,
      const std::optional<bgp::Route>& policy_best) override;

  // OnExport only ever acts at the attacker.
  bool MightRewrite(Asn exporter) const override {
    return exporter == config_.attacker;
  }
  // OverrideBest only ever acts at the attacker, and only in violate mode.
  bool MightOverride(Asn asn) const override {
    return config_.violate_valley_free && asn == config_.attacker;
  }

  const Config& GetConfig() const { return config_; }

 private:
  Config config_;
};

// Baseline: prefix ownership hijack (origin AS attack). The attacker
// announces the prefix as its own: every export becomes [M…M] (λ copies).
// Traffic to polluted ASes is blackholed.
class OriginHijacker final : public bgp::RouteTransform {
 public:
  OriginHijacker(Asn attacker, int pads = 1);

  ExportAction OnExport(Asn exporter, Asn to, Relation to_rel,
                        Relation learned_from, AsPath& path) override;

  bool MightRewrite(Asn exporter) const override {
    return exporter == attacker_;
  }
  bool MightOverride(Asn) const override { return false; }

 private:
  Asn attacker_;
  int pads_;
};

// Baseline: Ballani-style interception (invalid next hop). The attacker
// announces [M V], dropping every intermediate AS and fabricating a direct
// M–V link.
class BallaniInterceptor final : public bgp::RouteTransform {
 public:
  BallaniInterceptor(Asn attacker, Asn victim);

  ExportAction OnExport(Asn exporter, Asn to, Relation to_rel,
                        Relation learned_from, AsPath& path) override;

  bool MightRewrite(Asn exporter) const override {
    return exporter == attacker_;
  }
  bool MightOverride(Asn) const override { return false; }

 private:
  Asn attacker_;
  Asn victim_;
};

}  // namespace asppi::attack
