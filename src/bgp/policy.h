// Gao-Rexford routing policy: local preference classes, valley-free export
// rules, and per-neighbor prepending configuration.
#pragma once

#include <map>
#include <span>
#include <string>
#include <utility>

#include "topology/types.h"

namespace asppi::bgp {

using topo::Asn;
using topo::Relation;

// Local-preference class of a route by the relationship of the neighbor it
// was learned from. Higher is preferred. An AS pays for provider traffic and
// is paid for customer traffic, so: customer > sibling > peer > provider
// (paper §IV-B; sibling routes are intra-organization and slot between
// customer and peer).
int LocalPrefOf(Relation learned_from);

// Local-pref class of the origin's own prefix (beats everything).
inline constexpr int kSelfLocalPref = 1000;

// Valley-free export rule: may a route learned from a neighbor with
// relationship `learned_from` be exported to a neighbor with relationship
// `to`? Customer- and sibling-learned routes are exported to everyone;
// peer-/provider-learned routes only to customers and siblings. The origin's
// own prefix (no learned_from) is exported to everyone.
bool MayExport(Relation learned_from, Relation to);
bool MayExportOwn(Relation to);

// Largest pad count the serving path accepts from outside the process: the
// wire protocol's "lambda", asppi_snapshot's --policy/--lambda,
// asppi_serve's --lambda and snapshot files all bound pads to 1..kMaxPads.
inline constexpr int kMaxPads = 64;

// Per-exporter, per-neighbor AS-path prepending configuration.
//
// PadsFor(exporter, neighbor) is the number of copies of `exporter`'s ASN
// prepended when exporting to `neighbor` (>= 1; 1 = ordinary BGP, no ASPP).
// Source prepending is configured on the origin AS; intermediary prepending
// on any transit AS (paper §II-A distinguishes both).
class PrependPolicy {
 public:
  // Sets the default pad count for every export by `exporter`.
  void SetDefault(Asn exporter, int pads);
  // Overrides the pad count for a specific neighbor of `exporter`.
  void SetForNeighbor(Asn exporter, Asn neighbor, int pads);

  int PadsFor(Asn exporter, Asn neighbor) const;

  // Largest pad count `exporter` announces to any neighbor under this policy
  // (its default, or the biggest per-neighbor override). Note this is a pure
  // configuration maximum: when every actual neighbor carries an override,
  // the default is dead configuration and this overstates what any receiver
  // ever sees — use MaxPadsToward with the real neighbor set in that case.
  int MaxPadsOf(Asn exporter) const;

  // Largest pad count `exporter` announces to any neighbor in `neighbors` —
  // the λ an AttackOutcome reports: the strongest padding an on-path attacker
  // can actually strip. Unlike MaxPadsOf, a default that no listed neighbor
  // falls back to (every one overridden) does not inflate the answer. Empty
  // `neighbors` degrades to MaxPadsOf.
  int MaxPadsToward(Asn exporter, std::span<const Asn> neighbors) const;

  // Canonical text encoding of the whole policy (defaults and overrides in
  // sorted order) — the cache key component for baseline memoization. Two
  // policies with equal keys produce identical propagation.
  std::string KeyString() const;

  bool Empty() const { return defaults_.empty() && overrides_.empty(); }

  // Raw configuration, for serializers (data/snapshot.cc).
  const std::map<Asn, int>& Defaults() const { return defaults_; }
  const std::map<std::pair<Asn, Asn>, int>& Overrides() const {
    return overrides_;
  }

 private:
  std::map<Asn, int> defaults_;
  std::map<std::pair<Asn, Asn>, int> overrides_;
};

}  // namespace asppi::bgp
