// End-to-end integration tests across modules, mirroring the paper's actual
// pipeline (§IV): observe AS paths → infer relationships (consensus) →
// simulate the attack on the *inferred* topology → detect it — plus
// file-format round trips through the whole chain.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "attack/impact.h"
#include "attack/scenarios.h"
#include "data/characterize.h"
#include "data/formats.h"
#include "data/measurement.h"
#include "detect/evaluation.h"
#include "detect/monitors.h"
#include "infer/inference.h"
#include "topology/generator.h"
#include "topology/serialization.h"

namespace asppi {
namespace {

topo::GeneratedTopology PipelineTopo(std::uint64_t seed) {
  topo::GeneratorParams params;
  params.seed = seed;
  params.num_tier1 = 6;
  params.num_tier2 = 30;
  params.num_tier3 = 80;
  params.num_stubs = 300;
  params.num_content = 5;
  return topo::GenerateInternetTopology(params);
}

// The paper's preprocessing: paths in, consensus-inferred topology out,
// attack simulated on the inferred graph. The inferred graph's attack impact
// should correlate with ground truth.
TEST(Pipeline, AttackOnInferredTopologyTracksGroundTruth) {
  auto gen = PipelineTopo(71);
  // Observe paths from many vantage points to many origins.
  auto monitors = detect::TopDegreeMonitors(gen.graph, 60);
  // Every AS originates a prefix, as in a full routing table.
  auto paths = infer::CollectPaths(gen.graph, monitors, gen.graph.Ases());

  infer::GaoParams params;
  for (std::size_t i = 0; i < gen.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < gen.tier1.size(); ++j) {
      params.seeds.emplace_back(gen.tier1[i], gen.tier1[j],
                                topo::Relation::kPeer);
    }
  }
  infer::InferredRelationships inferred = infer::InferConsensus(paths, params);
  topo::AsGraph inferred_graph = inferred.ToGraph();
  ASSERT_GT(inferred_graph.NumAses(), gen.graph.NumAses() / 2);

  // Attack on both graphs: victim/attacker must exist in the inferred graph.
  topo::Asn victim = gen.tier2[0];
  topo::Asn attacker = gen.tier1[0];
  ASSERT_TRUE(inferred_graph.HasAs(victim));
  ASSERT_TRUE(inferred_graph.HasAs(attacker));

  attack::AttackSimulator truth_sim(gen.graph);
  attack::AttackSimulator inferred_sim(inferred_graph);
  auto truth = truth_sim.RunAsppInterception(victim, attacker, 4);
  auto approx = inferred_sim.RunAsppInterception(victim, attacker, 4);

  // Both agree the attack is substantial, within a loose band: the inferred
  // graph misses links never observed on any path.
  EXPECT_GT(truth.fraction_after, 0.2);
  EXPECT_GT(approx.fraction_after, 0.2);
  EXPECT_NEAR(approx.fraction_after, truth.fraction_after, 0.35);
}

TEST(Pipeline, TopologyFileRoundTripPreservesAttackResults) {
  auto gen = PipelineTopo(72);
  std::ostringstream os;
  topo::WriteAsRel(gen.graph, os);
  topo::GraphBuilder parsed_builder;
  std::istringstream is(os.str());
  ASSERT_EQ(topo::ReadAsRel(is, parsed_builder), "");
  topo::AsGraph parsed = parsed_builder.Freeze();

  topo::Asn victim = gen.tier3[0];
  topo::Asn attacker = gen.tier2[0];
  attack::AttackSimulator original(gen.graph);
  attack::AttackSimulator roundtrip(parsed);
  auto a = original.RunAsppInterception(victim, attacker, 3);
  auto b = roundtrip.RunAsppInterception(victim, attacker, 3);
  EXPECT_DOUBLE_EQ(a.fraction_after, b.fraction_after);
  EXPECT_EQ(a.newly_polluted.size(), b.newly_polluted.size());
}

TEST(Pipeline, RibFilesDriveTheDetector) {
  // Simulate an attack, dump monitor RIBs (before/after) to the .rib text
  // format, re-read them, and confirm the detector still catches the attack
  // purely from the files — the asppi_detect tool's code path.
  auto gen = PipelineTopo(73);
  attack::AttackSimulator simulator(gen.graph);
  topo::Asn victim = gen.stubs[1];
  topo::Asn attacker = gen.tier2[1];
  auto outcome = simulator.RunAsppInterception(victim, attacker, 4);
  ASSERT_FALSE(outcome.newly_polluted.empty());

  auto monitors = detect::TopDegreeMonitors(gen.graph, 100);
  data::Prefix prefix = *data::Prefix::Parse("10.0.0.0/16");
  data::RibSnapshot before, after;
  for (topo::Asn m : monitors) {
    if (m == attacker) continue;
    const auto& b = outcome.before->BestAt(m);
    const auto& a = outcome.after.BestAt(m);
    if (b.has_value()) before.tables[m][prefix] = b->path;
    if (a.has_value()) after.tables[m][prefix] = a->path;
  }
  std::ostringstream os_before, os_after;
  data::WriteRib(before, os_before);
  data::WriteRib(after, os_after);
  data::RibSnapshot before2, after2;
  std::istringstream is_before(os_before.str()), is_after(os_after.str());
  ASSERT_EQ(data::ReadRib(is_before, before2), "");
  ASSERT_EQ(data::ReadRib(is_after, after2), "");

  std::vector<std::pair<topo::Asn, bgp::AsPath>> prev, cur;
  for (const auto& [m, table] : before2.tables) {
    prev.emplace_back(m, table.begin()->second);
  }
  for (const auto& [m, table] : after2.tables) {
    cur.emplace_back(m, table.begin()->second);
  }
  detect::AsppDetector detector(&gen.graph);
  auto alarms = detector.Scan(victim, prev, cur);
  EXPECT_FALSE(alarms.empty());
  EXPECT_NE(detect::FindAccusing(alarms, attacker), nullptr);
}

TEST(Pipeline, MeasurementCorpusFeedsCharacterizationAfterFileRoundTrip) {
  auto gen = PipelineTopo(74);
  data::MeasurementParams mp;
  mp.num_prefixes = 60;
  mp.num_churn_events = 30;
  data::MeasurementGenerator generator(gen.graph, mp);
  auto monitors = detect::TopDegreeMonitors(gen.graph, 12);

  std::ostringstream rib_os, upd_os;
  data::WriteRib(generator.GenerateRib(monitors), rib_os);
  data::WriteUpdates(generator.GenerateUpdates(monitors), upd_os);

  data::RibSnapshot rib;
  std::vector<data::Update> updates;
  std::istringstream rib_is(rib_os.str()), upd_is(upd_os.str());
  ASSERT_EQ(data::ReadRib(rib_is, rib), "");
  ASSERT_EQ(data::ReadUpdates(upd_is, updates), "");

  auto fractions = data::PrependFractionPerMonitor(rib);
  EXPECT_EQ(fractions.size(), monitors.size());
  for (double f : fractions) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  EXPECT_FALSE(data::PrependRunHistogram(updates).Empty());
}

TEST(Pipeline, DetectionSurvivesInferredRelationshipsForHints) {
  // The hint rules consume AS relationships; feeding them the *inferred*
  // graph (as a real deployment would) must not break detection.
  auto gen = PipelineTopo(75);
  auto monitors = detect::TopDegreeMonitors(gen.graph, 80);
  auto paths = infer::CollectPaths(gen.graph, monitors, gen.tier2);
  infer::InferredRelationships inferred =
      infer::InferGao(paths, infer::GaoParams{});
  topo::AsGraph inferred_graph = inferred.ToGraph();

  attack::AttackSimulator simulator(gen.graph);
  topo::Asn victim = gen.stubs[2];
  topo::Asn attacker = gen.tier2[2];
  auto outcome = simulator.RunAsppInterception(victim, attacker, 4);
  if (outcome.newly_polluted.empty()) GTEST_SKIP();

  std::vector<std::pair<topo::Asn, bgp::AsPath>> prev, cur;
  for (topo::Asn m : monitors) {
    if (m == attacker) continue;
    const auto& b = outcome.before->BestAt(m);
    const auto& a = outcome.after.BestAt(m);
    if (b.has_value() && a.has_value()) {
      prev.emplace_back(m, b->path);
      cur.emplace_back(m, a->path);
    }
  }
  detect::AsppDetector detector(&inferred_graph);
  auto alarms = detector.Scan(victim, prev, cur);
  EXPECT_FALSE(alarms.empty());
}

}  // namespace
}  // namespace asppi
