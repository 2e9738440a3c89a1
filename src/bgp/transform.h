// Export-time route manipulation hooks.
//
// A RouteTransform sees every (exporter → neighbor) announcement just before
// it leaves the exporter, after the exporter's own prepending has been
// applied. This is exactly the power a malicious BGP speaker has: it can
// rewrite the AS-PATH it sends and choose whom to send to — and nothing more.
// The ASPP-interception attacker (attack/) is implemented as one of these.
#pragma once

#include <optional>
#include <span>

#include "bgp/as_path.h"
#include "bgp/policy.h"
#include "bgp/route.h"
#include "topology/types.h"

namespace asppi::bgp {

enum class ExportAction {
  kDefault,   // follow the normal valley-free export policy
  kForce,     // export even if policy would suppress (policy violation)
  kSuppress,  // do not export even if policy would allow
};

class RouteTransform {
 public:
  virtual ~RouteTransform() = default;

  // Called for each potential export. `learned_from` is the relationship
  // class the route was learned through (kCustomer for the origin's own
  // prefix), `to` is the neighbor being exported to. `path` already carries
  // the exporter's own prepends and may be modified in place. The action and
  // the path must depend on the arguments alone: the delta engine stores no
  // Adj-RIB-In and re-derives a slot by calling this again.
  virtual ExportAction OnExport(Asn exporter, Asn to, Relation to_rel,
                                Relation learned_from, AsPath& path) = 0;

  // Contract: must return true for every `exporter` where OnExport may do
  // anything but return kDefault with `path` untouched. Where it says no,
  // the delta engine ranks and compares the exporter's routes without
  // building them; the conservative default costs a route per slot read.
  virtual bool MightRewrite(Asn /*exporter*/) const { return true; }

  // Optional hook into the decision process at `asn`: `candidates` is the
  // Adj-RIB-In (one optional slot per neighbor) and `policy_best` what the
  // normal decision process chose. Return a different route to adopt it
  // instead; nullopt keeps the default. A policy-violating interceptor uses
  // this to pick the received route whose *stripped* form is shortest rather
  // than the policy-preferred one.
  virtual std::optional<Route> OverrideBest(
      Asn /*asn*/, std::span<const std::optional<Route>> /*candidates*/,
      const std::optional<Route>& /*policy_best*/) {
    return std::nullopt;
  }

  // Contract: must return true for every `asn` where OverrideBest may return
  // a value. The engines only invoke OverrideBest (and, in the delta engine,
  // only materialize the contiguous Adj-RIB-In view it needs) where this says
  // so; the conservative default keeps unknown transforms correct at the cost
  // of per-decision work. Transforms that never override — or override at one
  // known AS, like the policy-violating interceptor — should narrow it.
  virtual bool MightOverride(Asn /*asn*/) const { return true; }
};

// A transform that does nothing (base case / control runs).
class IdentityTransform final : public RouteTransform {
 public:
  ExportAction OnExport(Asn, Asn, Relation, Relation, AsPath&) override {
    return ExportAction::kDefault;
  }
  bool MightRewrite(Asn) const override { return false; }
  bool MightOverride(Asn) const override { return false; }
};

// Import-time route acceptance hook — the defensive mirror of
// RouteTransform. Where a RouteTransform models what a malicious *sender*
// can do, an ImportFilter models what a defensive *receiver* can do: inspect
// every route as it arrives in its Adj-RIB-In and refuse to install it. A
// refused delivery behaves exactly like the receiver-side loop check — the
// announcement crossed the wire (the sender's advertisement stays
// outstanding) but the receiver's slot for that neighbor is invalidated.
//
// Both engines evaluate the filter inside the shared engine_detail delivery
// kernel (engine_detail::ExportTo), so full and delta runs honor
// policies bit-identically by construction. defense::PolicySet (defense/) is
// the production implementation.
//
// Threading: Accept is called concurrently from sweep threads; implementations
// must be const-thread-safe (count through util::Metrics, never members).
class ImportFilter {
 public:
  virtual ~ImportFilter() = default;

  // Should the receiver (dense index `receiver`, ASN `receiver_asn`) install
  // `route` — already in post-delivery Adj-RIB-In form — for the prefix
  // announced by `origin` under prepend policy `prepends`? Called inside the
  // propagation loops: implementations must not intern ASNs through the
  // graph (debug builds assert via topo::detail::AsnLookupCount).
  virtual bool Accept(topo::AsId receiver, Asn receiver_asn, const Route& route,
                      Asn origin, const PrependPolicy& prepends) const = 0;

  // Contract: must return true for every receiver where Accept may return
  // false. The engines skip the Accept call entirely where this says no —
  // with sparse deployments that is almost everywhere.
  virtual bool MightFilter(topo::AsId /*receiver*/) const { return true; }
};

}  // namespace asppi::bgp
