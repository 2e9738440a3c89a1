// Tier classification of an AS graph.
//
// Tier 1 = provider-free ASes (paper: "an AS with no providers and peering
// with all other tier-1 ASes"); among provider-free candidates we keep the
// densely inter-peered core. Every other AS gets tier = 1 + min tier over its
// providers (siblings inherit the better of the pair), matching the informal
// tier-k language of the paper ("Tier-4 and Tier-5 ASes").
#pragma once

#include <vector>

#include "topology/as_graph.h"

namespace asppi::topo {

class TierInfo {
 public:
  // Tier of `asn`; tier 1 is the core. ASes unreachable from the core via
  // provider chains get the sentinel kUnranked.
  static constexpr int kUnranked = 99;

  int TierOf(Asn asn) const;
  const std::vector<Asn>& Tier1() const { return tier1_; }
  // All ASes of exactly tier `t`, in ASN order.
  std::vector<Asn> AsesAtTier(int t) const;
  int MaxTier() const { return max_tier_; }

 private:
  friend TierInfo ClassifyTiers(const AsGraph& graph);

  const AsGraph* graph_ = nullptr;
  std::vector<int> tier_by_index_;
  std::vector<Asn> tier1_;
  int max_tier_ = 0;
};

// The result keeps a pointer to `graph`, which must outlive it; hence no
// temporary graphs.
TierInfo ClassifyTiers(const AsGraph& graph);
TierInfo ClassifyTiers(AsGraph&&) = delete;

}  // namespace asppi::topo
