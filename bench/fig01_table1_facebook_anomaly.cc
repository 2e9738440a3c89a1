// Reproduces paper Figure 1 (the BGP view of the Facebook anomaly of Mar 22,
// 2011) and Table I (the data-plane traceroute during the anomaly).
//
// The six-AS topology is the paper's exactly; we show the normal route, the
// anomalous route after SK Telecom's branch carries only 3 of Facebook's 5
// prepended ASNs, and a simulated traceroute whose delay structure matches
// Table I (the Pacific crossings dominate).
#include <cstdio>

#include "attack/impact.h"
#include "bench/experiment.h"
#include "bgp/propagation.h"
#include "data/traceroute.h"
#include "topology/builders.h"

namespace {

using namespace asppi;
using topo::fb::kAtt;
using topo::fb::kChinaTelecom;
using topo::fb::kFacebook;
using topo::fb::kLevel3;
using topo::fb::kNtt;
using topo::fb::kSkTelecom;

template <typename State>  // PropagationResult or DeltaResult
void PrintRoutes(const char* title, const State& result) {
  std::printf("%s\n", title);
  for (topo::Asn asn : {kLevel3, kAtt, kNtt, kChinaTelecom, kSkTelecom}) {
    const auto& best = result.BestAt(asn);
    std::printf("  AS%-6u best route: %s\n", asn,
                best ? best->path.ToString().c_str() : "<none>");
  }
}

data::TracerouteSimulator MakeDataPlane() {
  data::TracerouteSimulator sim;
  // Delay model calibrated to Table I: ~41 ms inside the access ISP, the
  // trans-Pacific hops push the clock past 220 ms, Facebook answers ~249 ms.
  sim.SetLocalDelay(1);
  sim.SetDefaultLinkDelay(20);
  sim.SetHopCount(kAtt, 3);
  sim.SetHopCount(kChinaTelecom, 3);
  sim.SetHopCount(kSkTelecom, 2);
  sim.SetHopCount(kFacebook, 3);
  sim.SetHopCount(kLevel3, 3);
  sim.SetLinkDelay(kAtt, kChinaTelecom, 90);        // US → China
  sim.SetLinkDelay(kChinaTelecom, kSkTelecom, 87);  // China → Korea
  sim.SetLinkDelay(kSkTelecom, kFacebook, 21);      // Korea → US edge
  sim.SetLinkDelay(kAtt, kLevel3, 15);
  sim.SetLinkDelay(kLevel3, kFacebook, 12);
  sim.SetIntraAsDelay(2);
  return sim;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Experiment e(
      "Figure 1 + Table I: the Facebook routing anomaly",
      "at 7:15 GMT Mar 22 2011 the 5-hop route (4134 9318 32934x3) beat the "
      "normal 7-hop route (3356 32934x5); AT&T and NTT rerouted through "
      "Korea/China");
  if (!e.ParseFlags(argc, argv)) return 1;
  e.PrintHeader();
  std::printf("\n");

  topo::AsGraph graph = topo::FacebookAnomalyTopology();
  bgp::PropagationSimulator engine(graph);

  // Normal state: Facebook prepends 5 copies to all providers.
  bgp::Announcement normal;
  normal.origin = kFacebook;
  normal.prepends.SetDefault(kFacebook, 5);
  bgp::PropagationResult before = engine.Run(normal);
  PrintRoutes("[normal] Facebook announces 32934 x5 to all providers:", before);

  // Anomaly, interpretation 1 (traffic engineering): Facebook itself sends
  // only 3 copies toward SK Telecom.
  bgp::Announcement anomaly = normal;
  anomaly.prepends.SetForNeighbor(kFacebook, kSkTelecom, 3);
  bgp::PropagationResult after = engine.Run(anomaly);
  PrintRoutes("\n[anomaly/TE] only 3 copies announced toward AS9318:", after);

  // Anomaly, interpretation 2 (ASPP interception): SK Telecom strips the
  // padding from the uniformly announced route.
  attack::AttackSimulator attack_sim(graph);
  attack::AttackOutcome attack =
      attack_sim.RunAsppInterception(kFacebook, kSkTelecom, 5);
  PrintRoutes("\n[anomaly/attack] AS9318 strips 4 of 5 prepended ASNs:",
              attack.after);
  e.Note(
      "  -> both interpretations produce the same anomalous routes; from US\n"
      "     vantage points they are indistinguishable (paper Section III).");

  // Table I: traceroute along both data paths.
  data::TracerouteSimulator dataplane = MakeDataPlane();
  std::printf("\n[Table I] traceroute US -> Facebook, normal route:\n%s",
              data::TracerouteSimulator::FormatTable(
                  dataplane.Run(bgp::AsPath({kAtt, kLevel3, kFacebook,
                                             kFacebook, kFacebook, kFacebook,
                                             kFacebook})))
                  .c_str());
  // The data path from an AT&T customer: AT&T itself, then AT&T's best route.
  const auto& att_route = attack.after.BestAt(kAtt);
  std::vector<topo::Asn> hops{kAtt};
  for (topo::Asn hop : att_route->path.Hops()) hops.push_back(hop);
  bgp::AsPath anomalous(hops);
  std::printf("\n[Table I] traceroute US -> Facebook, during the anomaly:\n%s",
              data::TracerouteSimulator::FormatTable(dataplane.Run(anomalous))
                  .c_str());
  e.Note(
      "\nshape check: the anomalous path's final-hop delay should be ~2x the\n"
      "normal path's (cross-ocean detour, Table I: 249 ms vs the usual "
      "~70-130 ms).");
  return e.Finish();
}
