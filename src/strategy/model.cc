#include "strategy/model.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace asppi::strategy {

std::optional<AttackerModel> ParseAttackerModel(std::string_view text) {
  if (text == "paper") return AttackerModel::kPaper;
  if (text == "stealth") return AttackerModel::kStealth;
  if (text == "search") return AttackerModel::kSearch;
  return std::nullopt;
}

const char* AttackerModelName(AttackerModel model) {
  switch (model) {
    case AttackerModel::kPaper:
      return "paper";
    case AttackerModel::kStealth:
      return "stealth";
    case AttackerModel::kSearch:
      return "search";
  }
  return "?";
}

namespace {

// The same unique ranking attack::RunPairSweep applies.
void SortRows(std::vector<attack::PairImpact>& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const attack::PairImpact& a, const attack::PairImpact& b) {
              if (a.after != b.after) return a.after > b.after;
              if (a.attacker != b.attacker) return a.attacker < b.attacker;
              return a.victim < b.victim;
            });
}

}  // namespace

std::vector<attack::PairImpact> RunModelPairSweep(
    const topo::AsGraph& graph,
    const std::vector<std::pair<Asn, Asn>>& attacker_victim_pairs,
    AttackerModel model, const attack::PairSweepOptions& options,
    const SearchOptions* search) {
  if (model == AttackerModel::kPaper) {
    return attack::RunPairSweep(graph, attacker_victim_pairs, options);
  }

  attack::BaselineCache local_cache(graph);
  attack::BaselineCache* cache = options.baseline_cache != nullptr
                                     ? options.baseline_cache
                                     : &local_cache;
  std::vector<attack::PairImpact> rows(attacker_victim_pairs.size());

  if (model == AttackerModel::kStealth) {
    const attack::AttackSimulator simulator(graph, cache);
    util::ParallelFor(
        options.pool, attacker_victim_pairs.size(), [&](std::size_t i) {
          const auto& [attacker, victim] = attacker_victim_pairs[i];
          AttackerProgram program = AttackerProgram::PaperModel(
              victim, attacker, options.violate_valley_free,
              options.export_stripped_to_peers);
          // λ−1 keeps one extra pad per run: the observed drop is a single
          // copy, below every witness threshold that expects the full strip.
          Directive directive = program.DirectiveFor(attacker, 0);
          directive.strip_to = std::max(1, options.lambda - 1);
          program.SetDefault(attacker, directive);
          ProgramTransform transform(program);
          bgp::Announcement local;
          local.origin = victim;
          local.prepends.SetDefault(victim, options.lambda);
          const attack::AttackOutcome outcome = simulator.RunTransform(
              local, program.Colluders(), transform, options.filter);
          rows[i] = attack::PairImpact{attacker, victim,
                                       outcome.fraction_before,
                                       outcome.fraction_after};
        });
    SortRows(rows);
    return rows;
  }

  // kSearch: one beam search per pair. The pool parallelizes across pairs,
  // so each inner search runs serially (nested fan-out would oversubscribe
  // and gains nothing — pair counts dominate).
  SearchOptions search_options = search != nullptr ? *search : SearchOptions{};
  search_options.lambda = options.lambda;
  search_options.pool = nullptr;
  search_options.baseline_cache = cache;
  search_options.filter = options.filter;
  const Search searcher(graph, search_options);
  util::ParallelFor(
      options.pool, attacker_victim_pairs.size(), [&](std::size_t i) {
        const auto& [attacker, victim] = attacker_victim_pairs[i];
        const SearchResult result = searcher.Run(victim, attacker);
        rows[i] = attack::PairImpact{attacker, victim,
                                     result.best.fraction_before,
                                     result.best.fraction_after};
      });
  SortRows(rows);
  return rows;
}

}  // namespace asppi::strategy
