// The Facebook routing anomaly of Mar 22, 2011 (paper Section III),
// replayed end to end: the six-AS topology, the normal and anomalous BGP
// states, the attack interpretation, and what the detector concludes from
// US vantage points.
#include <cstdio>

#include "attack/impact.h"
#include "detect/detector.h"
#include "topology/builders.h"

using namespace asppi;
using namespace asppi::topo::fb;

namespace {

template <typename State>  // PropagationResult or DeltaResult
void ShowRoute(const State& state, topo::Asn asn,
               const char* name) {
  const auto& best = state.BestAt(asn);
  std::printf("  %-14s AS%-6u: %s\n", name, asn,
              best ? best->path.ToString().c_str() : "<none>");
}

}  // namespace

int main() {
  std::printf("The Facebook anomaly, Mar 22 2011 (paper Section III)\n");
  std::printf("=====================================================\n\n");

  topo::AsGraph graph = topo::FacebookAnomalyTopology();
  attack::AttackSimulator simulator(graph);

  // Facebook normally announces its prefix with five copies of AS32934.
  attack::AttackOutcome outcome =
      simulator.RunAsppInterception(kFacebook, kSkTelecom, /*lambda=*/5);

  std::printf("normal state (Facebook prepends x5 to both providers):\n");
  ShowRoute(*outcome.before, kAtt, "AT&T");
  ShowRoute(*outcome.before, kNtt, "NTT");
  ShowRoute(*outcome.before, kLevel3, "Level3");
  ShowRoute(*outcome.before, kChinaTelecom, "ChinaTelecom");

  std::printf("\nSK Telecom (AS9318) strips 4 of the 5 prepended ASNs:\n");
  ShowRoute(outcome.after, kAtt, "AT&T");
  ShowRoute(outcome.after, kNtt, "NTT");
  ShowRoute(outcome.after, kLevel3, "Level3");
  ShowRoute(outcome.after, kChinaTelecom, "ChinaTelecom");
  std::printf(
      "\n-> AT&T and NTT now reach Facebook through Korea and China, exactly\n"
      "   the observed anomaly. Traffic still terminates at Facebook\n"
      "   (interception, not blackholing), and no fake link or bogus origin\n"
      "   exists for classic detectors to flag.\n");

  // What can monitors conclude? Feed before/after routes of the US vantage
  // points to the detector.
  std::vector<std::pair<topo::Asn, bgp::AsPath>> before_paths, after_paths;
  for (topo::Asn monitor : {kAtt, kNtt, kLevel3}) {
    before_paths.emplace_back(monitor, outcome.before->BestAt(monitor)->path);
    after_paths.emplace_back(monitor, outcome.after.BestAt(monitor)->path);
  }
  detect::AsppDetector detector(&graph);
  auto alarms = detector.Scan(kFacebook, before_paths, after_paths);
  std::printf("\ndetector on US vantage points alone: %zu alarm(s)\n",
              alarms.size());
  for (const auto& alarm : alarms) {
    std::printf("  [%s] suspect AS%u at observer AS%u: %s\n",
                alarm.confidence == detect::Alarm::Confidence::kHigh
                    ? "HIGH"
                    : "possible",
                alarm.suspect, alarm.observer, alarm.detail.c_str());
  }

  // The prefix owner knows its own policy — with the victim-aware rule the
  // stripped branch is provable.
  bgp::PrependPolicy policy;
  policy.SetDefault(kFacebook, 5);
  auto owner_alarms =
      detector.Scan(kFacebook, before_paths, after_paths, &policy);
  std::printf("\nwith the prefix owner's own policy (victim-aware rule): %zu "
              "alarm(s)\n",
              owner_alarms.size());
  for (const auto& alarm : owner_alarms) {
    std::printf("  [%s] suspect AS%u: %s\n",
                alarm.confidence == detect::Alarm::Confidence::kHigh
                    ? "HIGH"
                    : "possible",
                alarm.suspect, alarm.detail.c_str());
  }
  std::printf(
      "\n-> from US monitors alone the TE and attack interpretations are\n"
      "   indistinguishable (the paper's conclusion); the prefix owner's own\n"
      "   announcement policy pins the stripped branch on AS9318.\n");
  return 0;
}
