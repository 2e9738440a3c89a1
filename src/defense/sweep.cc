#include "defense/sweep.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace asppi::defense {

namespace {

struct SweepMetrics {
  util::Counter points{"defense.sweep.points"};
  util::Counter attacks{"defense.sweep.attacks"};
  util::Timer sweep_time{"defense.sweep.run"};
};

SweepMetrics& Instr() {
  static SweepMetrics* m = new SweepMetrics();
  return *m;
}

}  // namespace

std::vector<std::pair<Asn, Asn>> PickSweepPairs(const topo::AsGraph& graph,
                                                std::size_t count,
                                                std::uint64_t seed) {
  ASPPI_CHECK_GE(graph.NumAses(), 2u) << "need at least two ASes";
  util::Rng rng(util::DeriveSeed(seed, 0xA115));
  // Sample among the transit heavyweights (see header): top-degree pool of
  // max(32, n/200) ASes, never fewer than two.
  std::vector<Asn> ases = graph.AsesByDegreeDesc();
  const std::size_t pool_size =
      std::min(ases.size(),
               std::max<std::size_t>(32, graph.NumAses() / 200));
  ases.resize(std::max<std::size_t>(pool_size, 2));
  std::vector<std::pair<Asn, Asn>> pairs;
  pairs.reserve(count);
  // Deterministic rejection loop; duplicates allowed only after the distinct
  // pair space is plausibly exhausted.
  const std::size_t max_tries = count * 64 + 64;
  std::size_t tries = 0;
  while (pairs.size() < count && tries < max_tries) {
    ++tries;
    const Asn victim = rng.Pick(ases);
    const Asn attacker = rng.Pick(ases);
    if (victim == attacker) continue;
    bool duplicate = false;
    for (const auto& [v, a] : pairs) {
      if (v == victim && a == attacker) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) pairs.emplace_back(victim, attacker);
  }
  while (pairs.size() < count && !pairs.empty()) pairs.push_back(pairs[0]);
  return pairs;
}

std::vector<DefenseSweepPoint> RunDefenseSweep(
    const topo::AsGraph& graph, const DefenseSweepOptions& options) {
  util::ScopedTimer sweep_timer(Instr().sweep_time);

  const std::vector<std::pair<Asn, Asn>> pairs =
      options.pairs.empty()
          ? PickSweepPairs(graph, options.num_pairs, options.seed)
          : options.pairs;
  ASPPI_CHECK(!pairs.empty()) << "defense sweep needs at least one pair";

  const attack::AttackSimulator simulator(graph, options.baseline_cache);

  const std::size_t num_strategies = options.strategies.size();
  const std::size_t num_fractions = options.fractions.size();
  const std::size_t num_pairs = pairs.size();

  // One deployment ordering per (strategy, pair); every fraction of that
  // pair's sweep is a nested prefix of it.
  std::vector<DeploymentPlan> plans(num_strategies * num_pairs);
  util::ParallelFor(options.pool, plans.size(), [&](std::size_t i) {
    const std::size_t s = i / num_pairs;
    const std::size_t j = i % num_pairs;
    plans[i] = DeploymentPlan::Make(graph, options.strategies[s],
                                    pairs[j].first, pairs[j].second,
                                    util::DeriveSeed(options.seed, j));
  });

  struct TaskResult {
    double before = 0.0;
    double after = 0.0;
    std::size_t deployed = 0;
    bool agree = true;
  };
  const std::size_t num_tasks = num_strategies * num_fractions * num_pairs;
  std::vector<TaskResult> results(num_tasks);

  util::ParallelFor(options.pool, num_tasks, [&](std::size_t t) {
    const std::size_t s = t / (num_fractions * num_pairs);
    const std::size_t f = (t / num_pairs) % num_fractions;
    const std::size_t j = t % num_pairs;
    const auto& [victim, attacker] = pairs[j];

    const DeploymentPlan& plan = plans[s * num_pairs + j];
    const PolicySet set =
        plan.AtFraction(options.fractions[f], options.kinds);

    Instr().attacks.Add();
    TaskResult& out = results[t];
    out.deployed = set.DeployedCount();
    const attack::AttackOutcome outcome = simulator.RunAsppInterception(
        victim, attacker, options.lambda, options.violate_valley_free,
        options.export_stripped_to_peers, &set);
    if (options.verify_engines) {
      attack::AsppInterceptor::Config config;
      config.attacker = attacker;
      config.victim = victim;
      config.violate_valley_free = options.violate_valley_free;
      config.export_stripped_to_peers = options.export_stripped_to_peers;
      attack::AsppInterceptor interceptor(config);
      out.agree = attack::DiffAgainstResume(outcome, interceptor, &set).empty();
    }
    out.before = outcome.fraction_before;
    out.after = outcome.fraction_after;
  });

  // Fixed-order reduction: (strategy, fraction) points, pairs in j order —
  // identical totals for any thread count.
  std::vector<DefenseSweepPoint> points;
  points.reserve(num_strategies * num_fractions);
  for (std::size_t s = 0; s < num_strategies; ++s) {
    for (std::size_t f = 0; f < num_fractions; ++f) {
      DefenseSweepPoint point;
      point.strategy = options.strategies[s];
      point.fraction = options.fractions[f];
      for (std::size_t j = 0; j < num_pairs; ++j) {
        const TaskResult& r =
            results[(s * num_fractions + f) * num_pairs + j];
        point.mean_deployed += static_cast<double>(r.deployed);
        point.mean_fraction_before += r.before;
        point.mean_fraction_after += r.after;
        point.engines_agree = point.engines_agree && r.agree;
      }
      const double denom = static_cast<double>(num_pairs);
      point.mean_deployed /= denom;
      point.mean_fraction_before /= denom;
      point.mean_fraction_after /= denom;
      Instr().points.Add();
      points.push_back(point);
    }
  }
  return points;
}

}  // namespace asppi::defense
