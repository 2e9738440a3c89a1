// Attacker-model selection for the sweep experiments (--attacker-model=):
//   paper    — the §II-B strip-everything interceptor (the default; delegates
//              to attack::RunPairSweep bit-identically),
//   stealth  — the strip-to-λ−1 attacker that shaves one pad per run, much
//              harder to witness against,
//   search   — strategy::Search per pair; rows report the worst program the
//              beam finds, i.e. an upper envelope over the paper model.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "attack/impact.h"
#include "strategy/search.h"
#include "topology/as_graph.h"

namespace asppi::strategy {

enum class AttackerModel { kPaper, kStealth, kSearch };

std::optional<AttackerModel> ParseAttackerModel(std::string_view text);
const char* AttackerModelName(AttackerModel model);

// RunPairSweep under the chosen model. kPaper is exactly
// attack::RunPairSweep(graph, pairs, options); the other models score each
// pair through strategy machinery with the same cache/pool/filter options
// and the same total-order row ranking. `search` tunes the kSearch
// model (ignored otherwise; null = SearchOptions defaults).
std::vector<attack::PairImpact> RunModelPairSweep(
    const topo::AsGraph& graph,
    const std::vector<std::pair<Asn, Asn>>& attacker_victim_pairs,
    AttackerModel model, const attack::PairSweepOptions& options,
    const SearchOptions* search = nullptr);

}  // namespace asppi::strategy
