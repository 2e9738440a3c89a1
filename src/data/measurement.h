// Synthetic measurement corpus: RIB snapshots at monitors plus an update
// stream, standing in for the RouteViews/RIPE data of the paper (2010–2011).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "bgp/as_path.h"
#include "data/behavior.h"
#include "data/prefix.h"
#include "topology/as_graph.h"

namespace asppi::data {

using bgp::AsPath;

// One monitor's table: prefix → best AS path.
using MonitorRib = std::map<Prefix, AsPath>;

// A full RIB snapshot across monitors.
struct RibSnapshot {
  std::map<Asn, MonitorRib> tables;
};

// One BGP update as seen by a collector.
struct Update {
  std::uint64_t sequence = 0;
  Asn monitor = 0;
  Prefix prefix;
  bool withdraw = false;
  AsPath path;  // empty for withdrawals
};

struct MeasurementParams {
  std::size_t num_prefixes = 1500;
  std::size_t num_churn_events = 600;
  std::uint64_t seed = 2011;
  BehaviorParams behavior;
};

// Generates the corpus; the fast bgp::RoutingTree computes each prefix's
// tables.
//
// RIB model: each prefix originates at a random AS whose prepend policy is
// drawn from the behaviour model; monitors record their converged best paths.
//
// Update model: a churn event re-announces a prefix under its *backup*
// policy (failure of the primary) or back — monitors whose route changed emit
// updates. Backup routes carry more padding, which is exactly why the paper
// sees heavier prepending in update files than in tables (§VI-A).
class MeasurementGenerator {
 public:
  MeasurementGenerator(const topo::AsGraph& graph,
                       const MeasurementParams& params);

  // Converged tables for `monitors`.
  RibSnapshot GenerateRib(const std::vector<Asn>& monitors) const;

  // Update stream for the same corpus.
  std::vector<Update> GenerateUpdates(const std::vector<Asn>& monitors) const;

  // Origin chosen for prefix index i (deterministic).
  Asn OriginOf(std::size_t prefix_index) const;

 private:
  struct PrefixPlan {
    Prefix prefix;
    Asn origin = 0;
    int lambda = 1;
    bgp::PrependPolicy primary;
    bgp::PrependPolicy backup;
  };

  const topo::AsGraph& graph_;
  MeasurementParams params_;
  std::vector<PrefixPlan> plans_;
};

}  // namespace asppi::data
