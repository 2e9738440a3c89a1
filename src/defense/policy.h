// Per-AS defense policies evaluated inside the propagation engines.
//
// A PolicySet assigns each AS a (possibly empty) set of defensive policies
// and implements bgp::ImportFilter over them, so both the full
// PropagationSimulator and the DeltaPropagator honor the deployment
// identically through the shared engine_detail::ExportTo kernel
// (DESIGN.md §4j). Three policies ship:
//
//   kRov            ROV-style origin filtering: drop any announcement whose
//                   origin AS differs from the prefix's registered origin
//                   (the victim). Stops origin hijacks outright; blind to
//                   ASPP interception, which keeps the true origin — the
//                   paper's core point, now measurable.
//   kPathValidation Path validation: additionally reject paths carrying the
//                   §II-B prepend-strip signature — any maximal run of some
//                   AS X that is shorter than the padding X is configured to
//                   announce toward its successor on the path. Catches the
//                   ASPP interceptor (and Ballani-style stripping) for λ≥2.
//   kInlineDetector The Fig. 4 victim-aware detection rule run inline on the
//                   Adj-RIB-In (detect/rules.h VictimAwareAlarm): reject a
//                   route whose observed λ toward the victim's first neighbor
//                   is below what the victim's policy announces there.
//
// Evaluation order is fixed — ROV, then path validation, then the inline
// detector — and the first rejecting policy wins; the defense.* counters
// attribute each filtered route to that policy. None of the three ever
// rejects a legitimate route (the origin matches and every run carries
// exactly its configured padding), so defended and undefended attack-free
// baselines are bit-identical — AttackSimulator exploits this by keeping its
// BaselineCache filterless.
//
// Thread-safety: a frozen PolicySet is safe to share across sweep threads
// (Accept is const and counts only through util::Metrics).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/policy.h"
#include "bgp/transform.h"
#include "topology/as_graph.h"

namespace asppi::defense {

using topo::Asn;

// Bit flags; an AS may run several policies at once.
enum PolicyKind : std::uint8_t {
  kNoPolicy = 0,
  kRov = 1,
  kPathValidation = 2,
  kInlineDetector = 4,
  kAllPolicies = kRov | kPathValidation | kInlineDetector,
};

// "rov", "pathval", "detector", "all", or '+'-joined combinations
// ("rov+detector"); nullopt on unknown names. "none" parses to kNoPolicy.
std::optional<std::uint8_t> ParsePolicyKinds(const std::string& text);
// Canonical rendering of a kind mask ("rov+pathval+detector", "none").
std::string PolicyKindsName(std::uint8_t kinds);

class PolicySet final : public bgp::ImportFilter {
 public:
  // An empty deployment over `graph` (accepts everything, zero cost).
  explicit PolicySet(const topo::AsGraph& graph);
  // Rehydrates from dense per-AsId tag bytes (snapshot load); `tags` must
  // have exactly graph.NumAses() entries.
  PolicySet(const topo::AsGraph& graph, std::vector<std::uint8_t> tags);

  // ORs `kinds` into the AS's tag. The ASN must exist in the graph.
  void Assign(Asn asn, std::uint8_t kinds);
  void AssignAt(topo::AsId id, std::uint8_t kinds);

  std::uint8_t TagsAt(topo::AsId id) const { return tags_[id]; }
  std::uint8_t TagsOf(Asn asn) const { return tags_[graph_->IndexOf(asn)]; }

  bool Empty() const { return deployed_ == 0; }
  // Number of ASes with at least one policy assigned.
  std::size_t DeployedCount() const { return deployed_; }

  // Dense per-AsId tag bytes, parallel to the graph's AS order — the
  // snapshot wire form (data/snapshot.cc kDefense section).
  const std::vector<std::uint8_t>& RawTags() const { return tags_; }

  // CRC-32 over the dense tag bytes: equal digests over the same graph ⇒
  // identical filtering behaviour.
  std::uint32_t Digest() const;
  // Cache-key component for serve::QueryService: empty string for an empty
  // deployment (so undefended results keep their historical keys), else a
  // short digest token. Appended to CanonicalKey so defended and undefended
  // what-if results can never alias in the result cache.
  std::string CacheKey() const;

  const topo::AsGraph& Graph() const { return *graph_; }

  // --- bgp::ImportFilter ----------------------------------------------------
  bool Accept(topo::AsId receiver, Asn receiver_asn, const bgp::Route& route,
              Asn origin, const bgp::PrependPolicy& prepends) const override;
  bool MightFilter(topo::AsId receiver) const override {
    return tags_[receiver] != 0;
  }

 private:
  const topo::AsGraph* graph_;
  std::vector<std::uint8_t> tags_;  // dense, indexed by AsId
  std::size_t deployed_ = 0;
};

}  // namespace asppi::defense
