#include "strategy/search.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/check.h"

namespace asppi::strategy {

namespace {

// One beam mutation: replace a colluder's default directive, one per-edge
// override, or toggle the adopt-best-stripped decision override.
struct Move {
  enum class Kind { kDefault, kOverride, kAdopt };
  Kind kind = Kind::kDefault;
  Asn colluder = 0;
  Asn neighbor = 0;
  Directive directive;
};

AttackerProgram Apply(const AttackerProgram& base, const Move& move) {
  AttackerProgram next = base;
  switch (move.kind) {
    case Move::Kind::kDefault:
      next.SetDefault(move.colluder, move.directive);
      break;
    case Move::Kind::kOverride:
      next.SetForNeighbor(move.colluder, move.neighbor, move.directive);
      break;
    case Move::Kind::kAdopt:
      next.SetAdoptBestStripped(!base.AdoptBestStripped());
      break;
  }
  return next;
}

}  // namespace

Search::Search(const topo::AsGraph& graph, const SearchOptions& options)
    : graph_(graph), options_(options) {
  ASPPI_CHECK_GE(options.lambda, 1);
  ASPPI_CHECK_GE(options.beam_width, 1u);
}

SearchResult Search::Run(Asn victim, Asn attacker) const {
  const Asn colluders[] = {attacker};
  return Run(victim, colluders);
}

SearchResult Search::Run(Asn victim, std::span<const Asn> colluders) const {
  bgp::Announcement announcement;
  announcement.origin = victim;
  announcement.prepends.SetDefault(victim, options_.lambda);

  const attack::AttackSimulator scorer(graph_, options_.baseline_cache);

  SearchResult result;
  std::size_t mismatches = 0;
  const auto score = [&](const AttackerProgram& program) {
    ProgramTransform transform(program);
    attack::AttackOutcome outcome = scorer.RunTransform(
        announcement, program.Colluders(), transform, options_.filter);
    if (options_.verify_engines) {
      ProgramTransform retransform(program);
      if (!attack::DiffAgainstResume(outcome, retransform, options_.filter)
               .empty()) {
        // Caller-side accumulation: scoring runs under ParallelFor, so the
        // mismatch count is summed from per-slot flags, not incremented here.
        return ScoredProgram{program, outcome.fraction_before, -1.0};
      }
    }
    // An oscillating program never establishes a stable interception — its
    // round-cap fractions are not steady-state impact. Score it zero so the
    // optimizer discards it (the paper-model seed always converges, so the
    // dominance guarantee is unaffected).
    if (!outcome.converged) {
      return ScoredProgram{program, outcome.fraction_before, 0.0};
    }
    return ScoredProgram{program, outcome.fraction_before,
                         outcome.fraction_after};
  };

  // The paper model seeds the beam: every colluder starts with the
  // strip-everything customer-masquerade directive, so the search result can
  // never fall below the paper attacker (beam merges always retain the
  // incumbents).
  const AttackerProgram paper(
      victim, std::vector<Asn>(colluders.begin(), colluders.end()));
  std::set<std::string> seen;
  seen.insert(paper.KeyString());
  ScoredProgram paper_scored = score(paper);
  ++result.programs_scored;
  if (paper_scored.fraction_after < 0.0) {
    ++mismatches;
    paper_scored.fraction_after = 0.0;
  }
  result.paper_after = paper_scored.fraction_after;

  // Deterministic move set, built once: default-directive variants per
  // colluder, per-edge overrides toward the highest-degree neighbors, poison
  // picks from the top-degree ASes, and the adopt toggle.
  std::vector<int> strips;
  for (int candidate : {0, 1, options_.lambda - 1, options_.lambda}) {
    if (candidate >= 0 &&
        std::find(strips.begin(), strips.end(), candidate) == strips.end()) {
      strips.push_back(candidate);
    }
  }
  std::vector<Asn> poison_pool;
  if (options_.poison_candidates > 0) {
    for (Asn asn : graph_.AsesByDegreeDesc()) {
      if (asn == victim || paper.IsColluder(asn)) continue;
      poison_pool.push_back(asn);
      if (poison_pool.size() >= options_.poison_candidates) break;
    }
  }

  std::vector<Move> moves;
  for (Asn colluder : paper.Colluders()) {
    for (int strip : strips) {
      Move move;
      move.kind = Move::Kind::kDefault;
      move.colluder = colluder;
      move.directive.send = Send::kAsCustomer;
      move.directive.strip_to = strip;
      moves.push_back(move);
      if (options_.allow_violate) {
        move.directive.send = Send::kForce;
        moves.push_back(move);
      }
    }
    {
      Move move;
      move.kind = Move::Kind::kDefault;
      move.colluder = colluder;
      move.directive.send = Send::kPolicy;
      move.directive.strip_to = 1;
      moves.push_back(move);
    }

    // Highest-degree neighbors first: that is where one export decision
    // steers the most downstream pollution. Ties break on ASN for a stable
    // move order.
    std::vector<topo::Edge> ranked(graph_.NeighborsOf(colluder).begin(),
                                   graph_.NeighborsOf(colluder).end());
    std::sort(ranked.begin(), ranked.end(),
              [this](const topo::Edge& a, const topo::Edge& b) {
                const std::size_t da = graph_.NeighborsOf(a.asn).size();
                const std::size_t db = graph_.NeighborsOf(b.asn).size();
                if (da != db) return da > db;
                return a.asn < b.asn;
              });
    if (ranked.size() > options_.max_neighbors) {
      ranked.resize(options_.max_neighbors);
    }
    for (const topo::Edge& edge : ranked) {
      if (options_.allow_withhold) {
        Move move;
        move.kind = Move::Kind::kOverride;
        move.colluder = colluder;
        move.neighbor = edge.asn;
        move.directive.send = Send::kWithhold;
        moves.push_back(move);
      }
      for (int strip : strips) {
        Move move;
        move.kind = Move::Kind::kOverride;
        move.colluder = colluder;
        move.neighbor = edge.asn;
        move.directive.send = Send::kAsCustomer;
        move.directive.strip_to = strip;
        moves.push_back(move);
      }
      for (Asn poison : poison_pool) {
        if (poison == edge.asn) continue;
        Move move;
        move.kind = Move::Kind::kOverride;
        move.colluder = colluder;
        move.neighbor = edge.asn;
        move.directive.send = Send::kAsCustomer;
        move.directive.strip_to = 1;
        move.directive.poison.push_back(poison);
        moves.push_back(move);
      }
    }
  }
  if (options_.allow_violate) {
    Move move;
    move.kind = Move::Kind::kAdopt;
    moves.push_back(move);
  }

  std::vector<ScoredProgram> beam;
  beam.push_back(paper_scored);

  for (std::size_t round = 0; round < options_.rounds; ++round) {
    std::vector<AttackerProgram> candidates;
    for (const ScoredProgram& survivor : beam) {
      for (const Move& move : moves) {
        AttackerProgram candidate = Apply(survivor.program, move);
        if (seen.insert(candidate.KeyString()).second) {
          candidates.push_back(std::move(candidate));
        }
      }
    }
    if (candidates.empty()) break;

    // Slot-indexed scoring: identical output for any thread count.
    std::vector<ScoredProgram> scored(candidates.size());
    util::ParallelFor(options_.pool, candidates.size(), [&](std::size_t i) {
      scored[i] = score(candidates[i]);
    });
    result.programs_scored += candidates.size();
    for (ScoredProgram& entry : scored) {
      if (entry.fraction_after < 0.0) {
        ++mismatches;
        entry.fraction_after = 0.0;
      }
      beam.push_back(std::move(entry));
    }

    // Total order: pollution descending, canonical key ascending. Keys are
    // unique (the `seen` dedup), so the ranking — and therefore the chosen
    // beam and the final best program — is unambiguous.
    std::sort(beam.begin(), beam.end(),
              [](const ScoredProgram& a, const ScoredProgram& b) {
                if (a.fraction_after != b.fraction_after) {
                  return a.fraction_after > b.fraction_after;
                }
                return a.program.KeyString() < b.program.KeyString();
              });
    if (beam.size() > options_.beam_width) beam.resize(options_.beam_width);
  }

  result.best = beam.front();
  result.gap = result.best.fraction_after - result.paper_after;
  result.engine_mismatches = mismatches;
  return result;
}

}  // namespace asppi::strategy
