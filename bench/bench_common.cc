#include "bench/bench_common.h"

namespace asppi::bench {

std::vector<SweepRow> LambdaSweep(const topo::AsGraph& graph,
                                  topo::Asn victim, topo::Asn attacker,
                                  int max_lambda, bool violate_valley_free,
                                  util::ThreadPool* pool,
                                  attack::BaselineCache* baseline_cache,
                                  const bgp::ImportFilter* filter) {
  if (max_lambda < 1) return {};
  attack::AttackSimulator simulator(graph, baseline_cache);
  std::vector<SweepRow> rows(static_cast<std::size_t>(max_lambda));
  util::ParallelFor(pool, rows.size(), [&](std::size_t i) {
    const int lambda = static_cast<int>(i) + 1;
    attack::AttackOutcome outcome = simulator.RunAsppInterception(
        victim, attacker, lambda, violate_valley_free,
        /*export_stripped_to_peers=*/true, filter);
    rows[i] = SweepRow{lambda, outcome.fraction_after, outcome.fraction_before};
  });
  return rows;
}

util::Table SweepTable(const std::vector<SweepRow>& rows,
                       const std::string& after_label,
                       const std::string& before_label) {
  util::Table table({"num_prepending_asns", after_label, before_label});
  for (const SweepRow& row : rows) {
    table.Row()
        .Cell(row.lambda)
        .Cell(100.0 * row.after, 1)
        .Cell(100.0 * row.before, 1);
  }
  return table;
}

}  // namespace asppi::bench
