#include "check/fuzzer.h"

#include <algorithm>
#include <filesystem>

#include "attack/impact.h"
#include "bgp/propagation.h"
#include "bgp/routing_tree.h"
#include "check/reference_engine.h"
#include "defense/deployment.h"
#include "defense/policy.h"
#include "detect/detector.h"
#include "strategy/program.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/strings.h"

namespace asppi::check {

namespace {

using util::Format;

struct FuzzMetrics {
  util::Counter iterations{"check.fuzz.iterations"};
  util::Counter failures{"check.fuzz.failures"};
  util::Counter shrink_evals{"check.fuzz.shrink_evals"};
  util::Counter alt_fixpoints{"check.fuzz.alt_fixpoints"};
};

FuzzMetrics& Instr() {
  static FuzzMetrics* m = new FuzzMetrics();
  return *m;
}

// Keep failure reports readable: a systemic divergence violates hundreds of
// per-AS invariants; the first couple dozen identify it.
constexpr std::size_t kMaxViolations = 24;

void Truncate(Violations& out) {
  if (out.size() <= kMaxViolations) return;
  const std::size_t dropped = out.size() - kMaxViolations;
  out.resize(kMaxViolations);
  out.push_back(Format("(+%zu more violations)", dropped));
}

std::string RenderRoute(const std::optional<bgp::Route>& route) {
  if (!route.has_value()) return "<none>";
  return Format("[%s] from AS%u", route->path.ToString().c_str(),
                static_cast<unsigned>(route->learned_from));
}

std::string RenderRef(const std::optional<ReferenceRoute>& route) {
  if (!route.has_value()) return "<none>";
  return Format("[%s] from AS%u", route->path.ToString().c_str(),
                static_cast<unsigned>(route->learned_from));
}

// Fast engine state vs oracle state, AS by AS: path, next hop and class.
// `fast` is a bgp::PropagationResult, a bgp::DeltaResult (delta-engine
// output) or a bgp::RoutingTree.
template <typename FastState>
void CompareStates(const char* tag, const topo::AsGraph& graph, Asn origin,
                   const FastState& fast,
                   const ReferenceEngine::State& oracle, Violations& out) {
  for (std::size_t i = 0; i < graph.NumAses(); ++i) {
    const Asn asn = graph.AsnAt(i);
    if (asn == origin) continue;
    const std::optional<bgp::Route>& f = fast.BestAt(asn);
    const std::optional<ReferenceRoute>& r = oracle[i];
    const bool same =
        f.has_value() == r.has_value() &&
        (!f.has_value() ||
         (f->path == r->path && f->learned_from == r->learned_from &&
          f->effective == r->effective));
    if (!same) {
      out.push_back(Format("diff-%s: AS%u engine holds %s, oracle %s", tag,
                           static_cast<unsigned>(asn),
                           RenderRoute(f).c_str(), RenderRef(r).c_str()));
    }
  }
}

// The delta engine's outcome vs the Resume oracle (attack::DiffAgainstResume)
// — no alternative-fixpoint escape hatch: both replay the identical
// synchronous event schedule, so even attacker-induced multi-equilibrium
// instances must land in the same fixpoint.
void CheckAgainstResume(const char* tag, const attack::AttackOutcome& outcome,
                        bgp::RouteTransform& transform,
                        const bgp::ImportFilter* filter, Violations& out) {
  const std::string diff = attack::DiffAgainstResume(outcome, transform, filter);
  if (!diff.empty()) out.push_back(Format("diff-%s: %s", tag, diff.c_str()));
}

attack::AsppInterceptor InterceptorFor(const ScenarioInstance& instance) {
  attack::AsppInterceptor::Config config;
  config.attacker = instance.attacker;
  config.victim = instance.victim;
  config.violate_valley_free = instance.violate_valley_free;
  config.export_stripped_to_peers = instance.export_stripped_to_peers;
  return attack::AsppInterceptor(config);
}

// `state` is a bgp::PropagationResult or a bgp::DeltaResult.
template <typename State>
std::vector<std::pair<Asn, bgp::AsPath>> MonitorPaths(
    const State& state, const std::vector<Asn>& monitors) {
  std::vector<std::pair<Asn, bgp::AsPath>> paths;
  for (Asn monitor : monitors) {
    const std::optional<bgp::Route>& best = state.BestAt(monitor);
    if (best.has_value()) paths.emplace_back(monitor, best->path);
  }
  return paths;
}

std::size_t TotalAses(const Scenario& s) {
  return s.tier1 + s.tier2 + s.tier3 + s.stubs + s.content;
}

}  // namespace

Fuzzer::Fuzzer(const FuzzOptions& options) : options_(options) {}

Scenario Fuzzer::ScenarioFor(std::size_t iteration) const {
  // Everything below depends only on (seed, iteration): the shard that runs
  // the iteration never influences the scenario.
  util::Rng rng(util::DeriveSeed(options_.seed, iteration));
  Scenario s;
  s.mode = Scenario::Mode::kGen;
  s.note = Format("asppi_fuzz --seed %llu, iteration %zu",
                  static_cast<unsigned long long>(options_.seed), iteration);
  s.topo_seed = rng();
  s.tier1 = 1 + rng.Below(3);
  s.tier2 = 1 + rng.Below(6);
  s.tier3 = rng.Below(11);
  s.stubs = 4 + rng.Below(33);
  s.content = rng.Below(3);
  s.sibling_pairs = rng.Chance(0.5) ? 1 + rng.Below(2) : 0;
  s.num_monitors = 4 + rng.Below(9);
  s.lambda = 1 + static_cast<int>(rng.Below(6));
  s.per_neighbor_pads = rng.Chance(0.3);
  s.violate_valley_free = rng.Chance(0.2);
  s.export_stripped_to_peers = rng.Chance(0.75);
  static const char* kVictimRoles[] = {"stub", "stub", "tier3", "content"};
  static const char* kAttackerRoles[] = {"tier2", "tier3", "stub", "tier1"};
  s.victim_ref = Format("%s:%llu", kVictimRoles[rng.Below(4)],
                        static_cast<unsigned long long>(rng.Below(64)));
  s.attacker_ref = Format("%s:%llu", kAttackerRoles[rng.Below(4)],
                          static_cast<unsigned long long>(rng.Below(64)));
  s.strat_colluders = 1 + rng.Below(3);
  s.strat_overrides = rng.Below(4);
  s.strat_poison = rng.Chance(0.5);
  s.strat_withhold = rng.Chance(0.6);
  return s;
}

Violations Fuzzer::RunScenario(const Scenario& scenario) const {
  Violations out;
  std::string error;
  std::optional<ScenarioInstance> instance = Materialize(scenario, &error);
  if (!instance.has_value()) {
    out.push_back("materialize: " + error);
    return out;
  }
  const topo::AsGraph& graph = instance->graph;
  const bgp::Announcement& announcement = instance->announcement;
  const Asn victim = instance->victim;

  // Leg 1 — attack-free propagation: event-driven simulator vs oracle, plus
  // the full converged-state invariants.
  const bgp::PropagationSimulator simulator(graph);
  const bgp::PropagationResult baseline = simulator.Run(announcement);
  const ReferenceEngine oracle(graph);
  const ReferenceEngine::State ref_before = oracle.Converge(announcement);
  CompareStates("baseline", graph, victim, baseline, ref_before, out);
  Invariants::CheckConvergedState(graph, baseline, out);

  // Leg 2 — RoutingTree (the paper's Fig. 2 three-phase algorithm) vs the
  // same oracle state, route for route.
  CompareStates("tree", graph, victim, bgp::RoutingTree(graph, announcement),
                ref_before, out);

  // Leg 3 — the interception attack: AttackSimulator (the delta engine) vs
  // the reference oracle end to end.
  attack::BaselineCache baseline_cache(graph);
  const attack::AttackSimulator attack_sim(graph, &baseline_cache);
  attack::AttackOutcome outcome = attack_sim.RunAsppInterceptionWithPolicy(
      announcement, instance->attacker, instance->violate_valley_free,
      instance->export_stripped_to_peers);
  if (options_.inject_bug) {
    // Deterministic corruption of the engine-under-test's result; every
    // scenario must now diverge, which exercises reporting and shrinking.
    if (!outcome.newly_polluted.empty()) {
      outcome.newly_polluted.pop_back();
    } else {
      outcome.fraction_after += 0.25;
    }
  }
  // Leg 3a — the baseline the attack started from, leg 3's BaselineCache
  // entry (built from the RoutingTree's parent slots), against leg 1's Run:
  // convergence, every best route and every Adj-RIB-In slot. The entry is at
  // rest, so it holds no round count or change rounds to compare.
  if (std::string diff =
          bgp::FirstBaselineDifference(*outcome.before, baseline, "cache");
      !diff.empty()) {
    out.push_back("diff-cached-baseline: " + diff);
  }
  const ReferenceEngine::Outcome ref_outcome = oracle.RunInterception(
      announcement, instance->attacker, instance->violate_valley_free,
      instance->export_stripped_to_peers);
  // Attacked states need care: the attacker's path rewriting voids the
  // Gao-Rexford uniqueness guarantee, so on rare instances the event-driven
  // engine and the oracle legitimately settle into *different* stable
  // equilibria (e.g. two neighbors each adopting the stripped route the
  // other then can't see, by sender-side loop avoidance), and on a few the
  // oracle's own iteration does not settle within its cap. A mismatch, or
  // an unsettled oracle, is a divergence unless the engine's state is
  // provably an alternative fixpoint: one oracle Step over it changes
  // nothing.
  Violations attack_diffs;
  if (ref_outcome.settled) {
    CompareStates("attacked", graph, victim, outcome.after, ref_outcome.after,
                  attack_diffs);
  } else {
    attack_diffs.push_back("diff-attacked: the oracle did not settle");
  }
  bool alternative_fixpoint = false;
  if (!attack_diffs.empty()) {
    ReferenceAttack ref_attack;
    ref_attack.attacker = instance->attacker;
    ref_attack.victim = victim;
    ref_attack.violate_valley_free = instance->violate_valley_free;
    ref_attack.export_stripped_to_peers = instance->export_stripped_to_peers;
    attack::AsppInterceptor interceptor = InterceptorFor(*instance);
    const ReferenceEngine::State mirror =
        MirrorFastState(graph, outcome.after.Materialize(&interceptor));
    alternative_fixpoint =
        oracle.Step(announcement, mirror, &ref_attack) == mirror;
    if (alternative_fixpoint) Instr().alt_fixpoints.Add();
  }
  if (!alternative_fixpoint) {
    out.insert(out.end(), attack_diffs.begin(), attack_diffs.end());
    if (outcome.newly_polluted != ref_outcome.newly_polluted) {
      out.push_back(Format(
          "diff-pollution: engine reports %zu newly polluted ASes, oracle "
          "%zu",
          outcome.newly_polluted.size(), ref_outcome.newly_polluted.size()));
    }
    if (outcome.fraction_before != ref_outcome.fraction_before ||
        outcome.fraction_after != ref_outcome.fraction_after) {
      out.push_back(Format(
          "diff-fraction: engine reports %.6f/%.6f, oracle %.6f/%.6f "
          "(before/after)",
          outcome.fraction_before, outcome.fraction_after,
          ref_outcome.fraction_before, ref_outcome.fraction_after));
    }
  }
  // Either way the engine's own accounting must be internally consistent —
  // CheckInterception re-derives pollution and fractions from the engine's
  // before/after states, so a corrupted outcome is caught even when the
  // equilibria differ.
  Invariants::CheckInterception(graph, outcome, out);

  // Leg 3b — the same outcome against the Resume oracle, bit for bit: the
  // whole attacked state plus the delta engine's incremental pollution
  // accounting.
  {
    attack::AsppInterceptor interceptor = InterceptorFor(*instance);
    CheckAgainstResume("engine", outcome, interceptor, nullptr, out);
  }

  // Leg 4 — detection: alarm soundness on the attacked view, no false
  // accusations on the quiet view, and stream == batch equivalence.
  const std::vector<std::pair<Asn, bgp::AsPath>> previous =
      MonitorPaths(*outcome.before, instance->monitors);
  const std::vector<std::pair<Asn, bgp::AsPath>> current =
      MonitorPaths(outcome.after, instance->monitors);
  const detect::AsppDetector detector(&graph);
  const std::vector<detect::Alarm> alarms = detector.Scan(
      victim, previous, current, &announcement.prepends);
  Invariants::CheckAlarmsJustified(victim, previous, current, alarms,
                                   &announcement.prepends, out);
  const std::vector<detect::Alarm> quiet = detector.Scan(
      victim, previous, previous, &announcement.prepends);
  Invariants::CheckNoHighConfidence(quiet, out);
  Invariants::CheckStreamBatchEquivalence(&graph, victim, previous, current,
                                          &announcement.prepends, out);

  // Leg 5 — per-AS defense policies under a deployment plan. Strategy,
  // fraction, and plan seed are pure functions of the scenario, so a saved
  // repro replays the identical deployment.
  {
    util::Rng drng(util::DeriveSeed(scenario.topo_seed, 0xdefe));
    const defense::Strategy strategy =
        defense::kAllStrategies[drng.Below(3)];
    static constexpr double kFractions[] = {0.25, 0.5, 0.75, 1.0};
    const double fraction = kFractions[drng.Below(4)];
    // Vary the mix: under kAllPolicies the ordered Accept chain lets pathval
    // shadow the inline detector, so detector-only mixes must appear too.
    static constexpr std::uint8_t kKindChoices[] = {
        defense::kAllPolicies, defense::kRov, defense::kPathValidation,
        defense::kInlineDetector,
        static_cast<std::uint8_t>(defense::kRov | defense::kInlineDetector)};
    const std::uint8_t kinds = kKindChoices[drng.Below(5)];
    const defense::DeploymentPlan plan = defense::DeploymentPlan::Make(
        graph, strategy, victim, instance->attacker, drng());
    const defense::PolicySet policy = plan.AtFraction(fraction, kinds);

    // No legit filtering: the attack-free fixpoint with every policy active
    // must be bit-identical to the filterless baseline — ROV, path
    // validation, and the inline detector never reject a legitimate route,
    // and the detector never raises a false accusation, under any plan.
    const bgp::PropagationResult defended_baseline =
        simulator.Run(announcement, nullptr, &policy);
    if (std::string diff = bgp::FirstDifference(defended_baseline, baseline,
                                                "defended", "filterless");
        !diff.empty()) {
      out.push_back("diff-defense-legit: " + diff);
    }

    // Defended attack: the delta engine matches the Resume oracle with the
    // filter active, and the converged state honours every deployed policy.
    const attack::AttackOutcome defended =
        attack_sim.RunAsppInterceptionWithPolicy(
            announcement, instance->attacker, instance->violate_valley_free,
            instance->export_stripped_to_peers, &policy);
    attack::AsppInterceptor interceptor = InterceptorFor(*instance);
    CheckAgainstResume("defense-engine", defended, interceptor, &policy, out);
    Invariants::CheckDefendedState(graph, policy, victim, instance->attacker,
                                   announcement.prepends,
                                   defended.after.Materialize(&interceptor,
                                                              &policy),
                                   out);
  }

  // Leg 6 — strategic attacker programs: a seeded strategy::AttackerProgram
  // draw (per-neighbor announce/withhold, partial strips, poisoning,
  // collusion) runs through the delta engine, which must match the Resume
  // oracle bit for bit — and the converged state must be explainable edge
  // by edge by the program itself (withheld slots empty, strip bounds
  // honoured, poison delivered, witness rule confined to the colluding set).
  // The paper-shape invariants (CheckInterception) deliberately do NOT run
  // here: a strip_to ≥ 2 program legitimately leaves more than one victim
  // copy behind.
  {
    util::Rng srng(util::DeriveSeed(scenario.topo_seed, 0x57a7));
    std::vector<Asn> colluders{instance->attacker};
    const std::size_t want =
        std::max<std::size_t>(1, scenario.strat_colluders);
    for (int tries = 0;
         colluders.size() < want && colluders.size() + 1 < graph.NumAses() &&
         tries < 64;
         ++tries) {
      const Asn candidate =
          graph.AsnAt(static_cast<std::uint32_t>(srng.Below(graph.NumAses())));
      if (candidate == victim) continue;
      if (std::find(colluders.begin(), colluders.end(), candidate) !=
          colluders.end()) {
        continue;
      }
      colluders.push_back(candidate);
    }
    strategy::DrawLimits limits;
    limits.max_overrides = scenario.strat_overrides;
    limits.allow_poison = scenario.strat_poison;
    limits.allow_withhold = scenario.strat_withhold;
    const strategy::AttackerProgram program = strategy::DrawProgram(
        graph, victim, colluders, scenario.lambda, limits, srng);

    strategy::ProgramTransform transform(program);
    const attack::AttackOutcome strat = attack_sim.RunTransform(
        announcement, program.Colluders(), transform);
    strategy::ProgramTransform oracle_transform(program);
    CheckAgainstResume("strategy-engine", strat, oracle_transform, nullptr,
                       out);
    Invariants::CheckStrategicAttack(
        graph, program, strat.after.Materialize(&oracle_transform),
        MonitorPaths(*strat.before, instance->monitors),
        MonitorPaths(strat.after, instance->monitors), strat.converged, out);
  }

  Truncate(out);
  return out;
}

Scenario Fuzzer::Shrink(const Scenario& scenario) const {
  if (scenario.mode != Scenario::Mode::kGen) return scenario;
  Scenario best = scenario;
  std::size_t evals = 0;
  const auto still_fails = [&](const Scenario& candidate) {
    if (evals >= options_.shrink_budget) return false;
    ++evals;
    Instr().shrink_evals.Add();
    return !RunScenario(candidate).empty();
  };

  bool progress = true;
  while (progress && evals < options_.shrink_budget) {
    progress = false;

    // Topology sizes: jump to the floor, halve toward it, then decrement.
    struct SizeField {
      std::size_t Scenario::*member;
      std::size_t floor;
    };
    const SizeField kSizes[] = {
        {&Scenario::stubs, 1},        {&Scenario::tier3, 0},
        {&Scenario::tier2, 1},        {&Scenario::content, 0},
        {&Scenario::sibling_pairs, 0}, {&Scenario::tier1, 1},
        {&Scenario::num_monitors, 1},
    };
    for (const SizeField& field : kSizes) {
      while (best.*(field.member) > field.floor) {
        const std::size_t value = best.*(field.member);
        const std::size_t tries[] = {field.floor,
                                     field.floor + (value - field.floor) / 2,
                                     value - 1};
        bool shrunk = false;
        for (std::size_t t : tries) {
          if (t >= value) continue;
          Scenario candidate = best;
          candidate.*(field.member) = t;
          if (TotalAses(candidate) < 3) continue;
          if (still_fails(candidate)) {
            best = std::move(candidate);
            progress = true;
            shrunk = true;
            break;
          }
        }
        if (!shrunk) break;
      }
    }

    // λ toward 1, knobs toward the simplest settings.
    while (best.lambda > 1) {
      Scenario candidate = best;
      candidate.lambda = std::max(1, best.lambda / 2);
      if (candidate.lambda == best.lambda) candidate.lambda = best.lambda - 1;
      if (!still_fails(candidate)) break;
      best = std::move(candidate);
      progress = true;
    }
    if (best.per_neighbor_pads) {
      Scenario candidate = best;
      candidate.per_neighbor_pads = false;
      if (still_fails(candidate)) {
        best = std::move(candidate);
        progress = true;
      }
    }
    if (best.violate_valley_free) {
      Scenario candidate = best;
      candidate.violate_valley_free = false;
      if (still_fails(candidate)) {
        best = std::move(candidate);
        progress = true;
      }
    }

    // Strategy-draw knobs: fewer colluders, fewer overrides, then the
    // boldness bits — a minimized repro should name the simplest program
    // that still diverges.
    while (best.strat_colluders > 1) {
      Scenario candidate = best;
      candidate.strat_colluders = best.strat_colluders - 1;
      if (!still_fails(candidate)) break;
      best = std::move(candidate);
      progress = true;
    }
    while (best.strat_overrides > 0) {
      Scenario candidate = best;
      candidate.strat_overrides = best.strat_overrides - 1;
      if (!still_fails(candidate)) break;
      best = std::move(candidate);
      progress = true;
    }
    for (bool Scenario::*knob :
         {&Scenario::strat_poison, &Scenario::strat_withhold}) {
      if (best.*knob) {
        Scenario candidate = best;
        candidate.*knob = false;
        if (still_fails(candidate)) {
          best = std::move(candidate);
          progress = true;
        }
      }
    }
  }
  return best;
}

FuzzResult Fuzzer::Run() const {
  FuzzResult result;
  result.iterations = options_.iterations;
  if (!options_.corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.corpus_dir, ec);
  }
  std::vector<std::uint8_t> failed(options_.iterations, 0);
  std::vector<Violations> found(options_.iterations);
  util::ParallelFor(options_.pool, options_.iterations, [&](std::size_t i) {
    Instr().iterations.Add();
    Violations violations = RunScenario(ScenarioFor(i));
    if (!violations.empty()) {
      failed[i] = 1;
      found[i] = std::move(violations);
    }
  });

  for (std::size_t i = 0; i < options_.iterations; ++i) {
    if (!failed[i]) continue;
    Instr().failures.Add();
    FuzzFailure failure;
    failure.iteration = i;
    failure.scenario = ScenarioFor(i);
    if (options_.minimize) {
      failure.scenario = Shrink(failure.scenario);
      failure.violations = RunScenario(failure.scenario);
    } else {
      failure.violations = std::move(found[i]);
    }
    if (!options_.corpus_dir.empty()) {
      const std::string path = Format(
          "%s/fuzz-seed%llu-iter%zu.scn", options_.corpus_dir.c_str(),
          static_cast<unsigned long long>(options_.seed), i);
      if (failure.scenario.SaveFile(path)) failure.repro_path = path;
    }
    result.failures.push_back(std::move(failure));
  }
  return result;
}

}  // namespace asppi::check
