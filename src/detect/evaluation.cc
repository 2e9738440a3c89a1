#include "detect/evaluation.h"

#include <algorithm>
#include <limits>
#include <set>

#include "detect/monitors.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace asppi::detect {

namespace {

using MonitorPaths = std::vector<std::pair<Asn, AsPath>>;

// Harness-level counters: one evaluation per (attacker, victim) instance,
// one replayed round per hop-wave snapshot handed to the detector.
struct EvalMetrics {
  util::Counter evaluations{"detect.evaluations"};
  util::Counter rounds_replayed{"detect.rounds_replayed"};
};

EvalMetrics& Instr() {
  static EvalMetrics* m = new EvalMetrics();
  return *m;
}

}  // namespace

DetectionResult EvaluateDetection(const attack::AttackSimulator& simulator,
                                  Asn victim, Asn attacker,
                                  const std::vector<Asn>& monitors,
                                  const DetectionConfig& config) {
  attack::AttackOutcome outcome = simulator.RunAsppInterception(
      victim, attacker, config.lambda, config.violate_valley_free);
  return EvaluateDetectionOnOutcome(simulator.Graph(), outcome, monitors,
                                    config);
}

DetectionResult EvaluateDetectionOnOutcome(const topo::AsGraph& graph,
                                           const attack::AttackOutcome& outcome,
                                           const std::vector<Asn>& monitors,
                                           const DetectionConfig& config) {
  Instr().evaluations.Add();
  DetectionResult result;
  const Asn victim = outcome.victim;
  const Asn attacker = outcome.attacker;
  result.polluted_count = outcome.newly_polluted.size();
  result.effective = !outcome.newly_polluted.empty();
  if (!result.effective) return result;

  AsppDetector::Options options;
  options.enable_hints = config.hints;
  options.enable_victim_policy = config.victim_aware;
  AsppDetector detector(&graph, options);

  bgp::PrependPolicy victim_policy;
  victim_policy.SetDefault(victim, outcome.lambda);
  const bgp::PrependPolicy* policy =
      config.victim_aware ? &victim_policy : nullptr;

  const MonitorPaths before = PathsAt(*outcome.before, monitors, attacker);

  // Detection timing: replay the attack's hop-waves. At round r each monitor
  // shows its post-attack route if it had switched by r, else its old route.
  // The first round whose snapshot raises an alarm is the detection round.
  std::set<int> rounds;
  for (Asn m : monitors) {
    if (m == attacker) continue;
    int r = outcome.after.FirstChangeRound(m);
    if (r >= 0) rounds.insert(r);
  }

  for (int round : rounds) {
    Instr().rounds_replayed.Add();
    MonitorPaths current;
    current.reserve(before.size());
    for (Asn m : monitors) {
      if (m == attacker) continue;
      int changed = outcome.after.FirstChangeRound(m);
      const auto& best = (changed >= 0 && changed <= round)
                             ? outcome.after.BestAt(m)
                             : outcome.before->BestAt(m);
      if (best.has_value()) current.emplace_back(m, best->path);
    }
    std::vector<Alarm> alarms = detector.Scan(victim, before, current, policy);
    if (alarms.empty()) continue;
    result.detected = true;
    result.detected_high = HasHighConfidence(alarms);
    result.suspect_correct = FindAccusing(alarms, attacker) != nullptr;
    result.detection_round = round;
    break;
  }

  if (result.detected) {
    // Synchronous rounds discretize asynchronous BGP: within a round,
    // updates process in arbitrary order, so an AS and the alarming monitor
    // that switched in the same round are ordered by a deterministic
    // per-AS jitter. Without this, every same-wave AS would count as
    // "polluted before detection", biasing the Fig. 14 CDF pessimistically.
    auto jitter = [](Asn asn) {
      return static_cast<double>(util::DeriveSeed(asn, 0x31773)) /
             static_cast<double>(std::numeric_limits<std::uint64_t>::max());
    };
    double monitor_jitter = 1.0;
    for (Asn m : monitors) {
      if (m == attacker) continue;
      if (outcome.after.FirstChangeRound(m) == result.detection_round) {
        monitor_jitter = std::min(monitor_jitter, jitter(m));
      }
    }
    std::size_t already = 0;
    for (Asn asn : outcome.newly_polluted) {
      int r = outcome.after.FirstChangeRound(asn);
      if (r < 0) continue;
      if (r < result.detection_round ||
          (r == result.detection_round && jitter(asn) < monitor_jitter)) {
        ++already;
      }
    }
    result.polluted_before_detection =
        static_cast<double>(already) /
        static_cast<double>(outcome.newly_polluted.size());
  }
  return result;
}

DetectionRates EvaluateDetectionRates(
    const attack::AttackSimulator& simulator,
    const std::vector<std::pair<Asn, Asn>>& attacker_victim_pairs,
    const std::vector<Asn>& monitors, const DetectionConfig& config,
    util::ThreadPool* pool) {
  std::vector<DetectionResult> results(attacker_victim_pairs.size());
  util::ParallelFor(pool, attacker_victim_pairs.size(), [&](std::size_t i) {
    const auto& [attacker, victim] = attacker_victim_pairs[i];
    results[i] =
        EvaluateDetection(simulator, victim, attacker, monitors, config);
  });
  DetectionRates rates;
  for (const DetectionResult& result : results) {
    ++rates.instances;
    if (!result.effective) continue;
    ++rates.effective;
    if (result.detected) ++rates.detected;
    if (result.detected_high) ++rates.detected_high;
    if (result.suspect_correct) ++rates.suspect_correct;
  }
  return rates;
}

}  // namespace asppi::detect
