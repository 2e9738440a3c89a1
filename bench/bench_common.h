// Shared sweep helpers for the figure/table reproduction binaries.
//
// Every binary regenerates one table or figure of the paper on the default
// synthetic topology (seeded, deterministic). Harness concerns — flags,
// topology construction, pool/cache wiring, banner, table/CSV/JSON output —
// live in bench::Experiment (bench/experiment.h); this header keeps only the
// λ-sweep computation the sweep figures share.
#pragma once

#include <string>
#include <vector>

#include "attack/impact.h"
#include "bench/experiment.h"
#include "topology/generator.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace asppi::bench {

// One point of a λ-sweep (paper Figs. 9–12).
struct SweepRow {
  int lambda = 1;
  double after = 0.0;   // fraction of ASes traversing the attacker, attacked
  double before = 0.0;  // same fraction without the attack
};

// Runs the ASPP interception for λ = 1..max_lambda. `pool` (optional) runs
// the λ points in parallel; rows come back in λ order either way.
// `baseline_cache` (optional) memoizes the per-λ attack-free baselines —
// exactly one uncached propagation per λ, shared with any other sweep using
// the same cache. `filter` (optional, e.g. a defense::PolicySet from
// Experiment::DefenseDeployment) gates every import during the attacked
// re-convergence; baselines stay filterless (see attack/impact.h).
std::vector<SweepRow> LambdaSweep(const topo::AsGraph& graph,
                                  topo::Asn victim, topo::Asn attacker,
                                  int max_lambda, bool violate_valley_free,
                                  util::ThreadPool* pool = nullptr,
                                  attack::BaselineCache* baseline_cache = nullptr,
                                  const bgp::ImportFilter* filter = nullptr);

// Formats a λ-sweep as the paper's figures do (percent polluted per λ).
util::Table SweepTable(const std::vector<SweepRow>& rows,
                       const std::string& after_label,
                       const std::string& before_label);

}  // namespace asppi::bench
