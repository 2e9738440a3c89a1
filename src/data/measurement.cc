#include "data/measurement.h"

#include "bgp/routing_tree.h"
#include "util/check.h"
#include "util/rng.h"

namespace asppi::data {

MeasurementGenerator::MeasurementGenerator(const topo::AsGraph& graph,
                                           const MeasurementParams& params)
    : graph_(graph), params_(params) {
  AsppBehaviorModel model(params.behavior, params.seed);
  util::Rng rng(util::DeriveSeed(params.seed, 0xdeadbeef));
  plans_.reserve(params.num_prefixes);
  const auto& ases = graph.Ases();
  for (std::size_t i = 0; i < params.num_prefixes; ++i) {
    PrefixPlan plan;
    plan.prefix = SyntheticPrefix(i);
    plan.origin = ases[rng.Below(ases.size())];
    plan.lambda = model.BuildPolicy(graph, plan.origin, rng, plan.primary);
    model.BuildBackupPolicy(graph, plan.origin, plan.lambda, plan.backup);
    plans_.push_back(std::move(plan));
  }
}

Asn MeasurementGenerator::OriginOf(std::size_t prefix_index) const {
  ASPPI_CHECK_LT(prefix_index, plans_.size());
  return plans_[prefix_index].origin;
}

RibSnapshot MeasurementGenerator::GenerateRib(
    const std::vector<Asn>& monitors) const {
  RibSnapshot snapshot;
  for (Asn monitor : monitors) snapshot.tables[monitor];  // ensure presence
  for (const PrefixPlan& plan : plans_) {
    bgp::Announcement announcement;
    announcement.origin = plan.origin;
    announcement.prepends = plan.primary;
    const bgp::RoutingTree tree(graph_, announcement);
    for (Asn monitor : monitors) {
      std::optional<bgp::Route> best = tree.BestAt(monitor);
      if (best) snapshot.tables[monitor][plan.prefix] = std::move(best->path);
    }
  }
  return snapshot;
}

std::vector<Update> MeasurementGenerator::GenerateUpdates(
    const std::vector<Asn>& monitors) const {
  std::vector<Update> updates;
  util::Rng rng(util::DeriveSeed(params_.seed, 0xca11));
  std::uint64_t sequence = 0;
  for (std::size_t event = 0; event < params_.num_churn_events; ++event) {
    const PrefixPlan& plan = plans_[rng.Below(plans_.size())];
    // Failure of the primary: re-announce under the backup policy (more
    // padding). With probability ½ the event is instead a restoration,
    // re-announcing the primary.
    const bool failover = rng.Chance(0.5);
    bgp::Announcement announcement;
    announcement.origin = plan.origin;
    announcement.prepends = failover ? plan.backup : plan.primary;
    const bgp::RoutingTree tree(graph_, announcement);
    for (Asn monitor : monitors) {
      if (monitor == plan.origin) continue;
      std::optional<bgp::Route> best = tree.BestAt(monitor);
      Update update;
      update.sequence = sequence++;
      update.monitor = monitor;
      update.prefix = plan.prefix;
      if (best) {
        update.path = std::move(best->path);
      } else {
        update.withdraw = true;
      }
      updates.push_back(std::move(update));
    }
  }
  return updates;
}

}  // namespace asppi::data
