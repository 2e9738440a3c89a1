#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "data/behavior.h"
#include "data/characterize.h"
#include "data/formats.h"
#include "data/measurement.h"
#include "data/prefix.h"
#include "data/traceroute.h"
#include "detect/monitors.h"
#include "topology/builders.h"
#include "topology/generator.h"

namespace asppi::data {
namespace {

// --- Prefix ------------------------------------------------------------------

TEST(Prefix, ToStringAndParse) {
  Prefix p{0x45ABE000u, 20};  // 69.171.224.0/20 (the Facebook prefix)
  EXPECT_EQ(p.ToString(), "69.171.224.0/20");
  auto parsed = Prefix::Parse("69.171.224.0/20");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, p);
}

TEST(Prefix, ParseRejectsBadInput) {
  EXPECT_FALSE(Prefix::Parse("69.171.224.0").has_value());
  EXPECT_FALSE(Prefix::Parse("69.171.224.0/33").has_value());
  EXPECT_FALSE(Prefix::Parse("256.0.0.0/8").has_value());
  EXPECT_FALSE(Prefix::Parse("1.2.3/8").has_value());
  // Non-canonical (host bits set).
  EXPECT_FALSE(Prefix::Parse("69.171.224.1/20").has_value());
}

TEST(Prefix, ContainsAddress) {
  Prefix p = *Prefix::Parse("69.171.224.0/20");
  EXPECT_TRUE(p.ContainsAddress(0x45ABE001u));   // 69.171.224.1
  EXPECT_TRUE(p.ContainsAddress(0x45ABEFFFu));   // 69.171.239.255
  EXPECT_FALSE(p.ContainsAddress(0x45ABF000u));  // 69.171.240.0
}

TEST(Prefix, SyntheticDistinct) {
  std::set<Prefix> seen;
  for (std::size_t i = 0; i < 500; ++i) {
    Prefix p = SyntheticPrefix(i);
    EXPECT_EQ(p, p.Canonical());
    EXPECT_TRUE(seen.insert(p).second) << p.ToString();
  }
}

// --- behaviour model -----------------------------------------------------------

TEST(Behavior, LambdaDistributionMatchesAnchors) {
  BehaviorParams params;
  AsppBehaviorModel model(params, 1);
  util::Rng rng(99);
  std::size_t total = 50000;
  std::size_t no_prepend = 0, two = 0, three = 0, over_ten = 0;
  for (std::size_t i = 0; i < total; ++i) {
    int lambda = model.SampleLambda(rng);
    EXPECT_GE(lambda, 1);
    EXPECT_LE(lambda, params.max_lambda);
    if (lambda == 1) ++no_prepend;
    if (lambda == 2) ++two;
    if (lambda == 3) ++three;
    if (lambda > 10) ++over_ten;
  }
  double prepended = static_cast<double>(total - no_prepend);
  // Origin prepend probability ~22 %.
  EXPECT_NEAR(prepended / static_cast<double>(total), params.prepend_prob, 0.02);
  // Paper Fig. 6 anchors among prepended routes: λ=2 ≈ 34 %+ at origins
  // (we calibrate 52 % since short-padded routes survive selection more
  // often), λ=3 ≈ 30 %, and ~1 % above 10.
  EXPECT_NEAR(two / prepended, params.lambda2_mass, 0.03);
  EXPECT_NEAR(three / prepended, params.lambda3_mass, 0.03);
  EXPECT_LT(over_ten / prepended, 0.16);
  EXPECT_GT(over_ten / prepended, 0.01);
}

TEST(Behavior, BuildPolicySetsDefaults) {
  topo::AsGraph g = topo::DualHomedStub();
  BehaviorParams params;
  params.prepend_prob = 1.0;  // always prepend
  params.intermediary_prob = 0.0;
  AsppBehaviorModel model(params, 2);
  util::Rng rng(5);
  bgp::PrependPolicy policy;
  int lambda = model.BuildPolicy(g, 100, rng, policy);
  EXPECT_GE(lambda, 2);
  // Default applies to any neighbor not overridden; overrides never exceed λ.
  EXPECT_LE(policy.PadsFor(100, 11), lambda);
  EXPECT_LE(policy.PadsFor(100, 12), lambda);
  EXPECT_TRUE(policy.PadsFor(100, 11) == lambda ||
              policy.PadsFor(100, 12) == lambda);
}

TEST(Behavior, BackupPolicyPadsMore) {
  topo::AsGraph g = topo::DualHomedStub();
  BehaviorParams params;
  AsppBehaviorModel model(params, 3);
  bgp::PrependPolicy backup;
  model.BuildBackupPolicy(g, 100, 3, backup);
  EXPECT_EQ(backup.PadsFor(100, 11), 3 + params.backup_extra_pads);
}

// --- measurement corpus -----------------------------------------------------------

topo::GeneratedTopology MeasurementTopo() {
  topo::GeneratorParams params;
  params.seed = 31;
  params.num_tier1 = 5;
  params.num_tier2 = 25;
  params.num_tier3 = 60;
  params.num_stubs = 200;
  params.num_content = 4;
  return topo::GenerateInternetTopology(params);
}

TEST(Measurement, RibHasRoutesForAllMonitors) {
  auto gen = MeasurementTopo();
  MeasurementParams params;
  params.num_prefixes = 40;
  params.num_churn_events = 0;
  MeasurementGenerator generator(gen.graph, params);
  auto monitors = detect::TopDegreeMonitors(gen.graph, 10);
  RibSnapshot snapshot = generator.GenerateRib(monitors);
  EXPECT_EQ(snapshot.tables.size(), monitors.size());
  for (const auto& [monitor, table] : snapshot.tables) {
    EXPECT_GE(table.size(), params.num_prefixes - 1);  // own-origin excluded
    for (const auto& [prefix, path] : table) {
      EXPECT_FALSE(path.Empty());
      EXPECT_FALSE(path.HasLoop());
    }
  }
}

TEST(Measurement, Deterministic) {
  auto gen = MeasurementTopo();
  MeasurementParams params;
  params.num_prefixes = 20;
  params.num_churn_events = 10;
  auto monitors = detect::TopDegreeMonitors(gen.graph, 5);
  MeasurementGenerator a(gen.graph, params), b(gen.graph, params);
  std::ostringstream osa, osb;
  WriteRib(a.GenerateRib(monitors), osa);
  WriteRib(b.GenerateRib(monitors), osb);
  EXPECT_EQ(osa.str(), osb.str());
  EXPECT_EQ(a.GenerateUpdates(monitors).size(),
            b.GenerateUpdates(monitors).size());
}

TEST(Measurement, UpdatesShowMorePrependingThanTables) {
  // The paper's §VI-A observation: update streams carry more prepended
  // routes than stable tables (backup routes become visible during churn).
  auto gen = MeasurementTopo();
  MeasurementParams params;
  params.num_prefixes = 120;
  params.num_churn_events = 150;
  MeasurementGenerator generator(gen.graph, params);
  auto monitors = detect::TopDegreeMonitors(gen.graph, 12);
  RibSnapshot snapshot = generator.GenerateRib(monitors);
  std::vector<Update> updates = generator.GenerateUpdates(monitors);
  double table_mean = util::Mean(PrependFractionPerMonitor(snapshot));
  double update_mean = util::Mean(PrependFractionPerMonitorUpdates(updates));
  EXPECT_GT(update_mean, table_mean);
}

TEST(Measurement, RunHistogramDominatedBySmallLambdas) {
  auto gen = MeasurementTopo();
  MeasurementParams params;
  params.num_prefixes = 200;
  params.num_churn_events = 0;
  MeasurementGenerator generator(gen.graph, params);
  auto monitors = detect::TopDegreeMonitors(gen.graph, 10);
  util::Histogram hist = PrependRunHistogram(generator.GenerateRib(monitors));
  ASSERT_FALSE(hist.Empty());
  // λ∈{2,3} dominates; very large paddings are rare (paper Fig. 6).
  EXPECT_GT(hist.Fraction(2) + hist.Fraction(3), 0.5);
  EXPECT_LT(hist.FractionAtLeast(11), 0.2);
}

// --- characterization helpers --------------------------------------------------------

TEST(Characterize, LongestRun) {
  EXPECT_EQ(LongestRun(bgp::AsPath({1, 2, 2, 2, 3})), 3);
  EXPECT_EQ(LongestRun(bgp::AsPath({1, 2, 3})), 1);
  EXPECT_EQ(LongestRun(bgp::AsPath{}), 0);
  EXPECT_EQ(LongestRun(bgp::AsPath({7, 7})), 2);
}

TEST(Characterize, FractionsBounded) {
  RibSnapshot snapshot;
  snapshot.tables[1][*Prefix::Parse("10.0.0.0/16")] = bgp::AsPath({2, 3});
  snapshot.tables[1][*Prefix::Parse("10.1.0.0/16")] = bgp::AsPath({2, 3, 3});
  auto fractions = PrependFractionPerMonitor(snapshot);
  ASSERT_EQ(fractions.size(), 1u);
  EXPECT_DOUBLE_EQ(fractions[0], 0.5);
}

TEST(Characterize, SubsetFilter) {
  RibSnapshot snapshot;
  snapshot.tables[1][*Prefix::Parse("10.0.0.0/16")] = bgp::AsPath({2, 3, 3});
  snapshot.tables[2][*Prefix::Parse("10.0.0.0/16")] = bgp::AsPath({2, 3});
  auto only2 = PrependFractionPerMonitor(snapshot, {2});
  ASSERT_EQ(only2.size(), 1u);
  EXPECT_DOUBLE_EQ(only2[0], 0.0);
}

// --- formats --------------------------------------------------------------------------

TEST(Formats, RibRoundTrip) {
  RibSnapshot snapshot;
  snapshot.tables[7018][*Prefix::Parse("69.171.224.0/20")] =
      bgp::AsPath({3356, 32934, 32934});
  snapshot.tables[2914][*Prefix::Parse("10.0.0.0/16")] = bgp::AsPath({4134, 9318});
  std::ostringstream os;
  WriteRib(snapshot, os);
  RibSnapshot parsed;
  std::istringstream is(os.str());
  EXPECT_EQ(ReadRib(is, parsed), "");
  EXPECT_EQ(parsed.tables.size(), 2u);
  EXPECT_EQ(parsed.tables[7018].begin()->second.ToString(),
            "3356 32934 32934");
}

TEST(Formats, UpdateRoundTrip) {
  std::vector<Update> updates(2);
  updates[0].sequence = 1;
  updates[0].monitor = 7018;
  updates[0].prefix = *Prefix::Parse("10.0.0.0/16");
  updates[0].path = bgp::AsPath({3356, 32934});
  updates[1].sequence = 2;
  updates[1].monitor = 7018;
  updates[1].prefix = *Prefix::Parse("10.0.0.0/16");
  updates[1].withdraw = true;
  std::ostringstream os;
  WriteUpdates(updates, os);
  std::vector<Update> parsed;
  std::istringstream is(os.str());
  EXPECT_EQ(ReadUpdates(is, parsed), "");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].path.ToString(), "3356 32934");
  EXPECT_TRUE(parsed[1].withdraw);
}

TEST(Formats, RejectsMalformed) {
  RibSnapshot snapshot;
  std::istringstream bad_rib("7018|not-a-prefix|1 2\n");
  EXPECT_NE(ReadRib(bad_rib, snapshot), "");
  std::vector<Update> updates;
  std::istringstream bad_upd("1|7018|X|10.0.0.0/16\n");
  EXPECT_NE(ReadUpdates(bad_upd, updates), "");
  std::istringstream w_with_path("1|7018|W|10.0.0.0/16|1 2\n");
  EXPECT_NE(ReadUpdates(w_with_path, updates), "");
}

TEST(Formats, MissingFiles) {
  RibSnapshot snapshot;
  EXPECT_NE(ReadRibFile("/nonexistent.rib", snapshot), "");
  std::vector<Update> updates;
  EXPECT_NE(ReadUpdatesFile("/nonexistent.upd", updates), "");
}

TEST(Formats, ErrorsCarryLineNumberAndField) {
  // The bad line is line 3 (comment and a good entry precede it), and the
  // message names the offending field so a 10M-line dump is debuggable.
  RibSnapshot snapshot;
  std::istringstream bad_prefix(
      "# comment\n7018|10.0.0.0/16|1 2\n7018|not-a-prefix|1 2\n");
  std::string err = ReadRib(bad_prefix, snapshot);
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("not-a-prefix"), std::string::npos) << err;

  std::vector<Update> updates;
  std::istringstream bad_path("1|7018|A|10.0.0.0/16|1 x 2\n");
  err = ReadUpdates(bad_path, updates);
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("bad as-path"), std::string::npos) << err;

  std::istringstream bad_seq("nope|7018|A|10.0.0.0/16|1 2\n");
  err = ReadUpdates(bad_seq, updates);
  EXPECT_NE(err.find("bad sequence"), std::string::npos) << err;
}

TEST(Formats, RejectsOutOfRangeMonitor) {
  // 2^32 does not fit an ASN; a silent truncation would alias monitor 0.
  RibSnapshot snapshot;
  std::istringstream rib("4294967296|10.0.0.0/16|1 2\n");
  std::string err = ReadRib(rib, snapshot);
  EXPECT_NE(err.find("bad monitor ASN"), std::string::npos) << err;
  std::istringstream zero("0|10.0.0.0/16|1 2\n");
  EXPECT_NE(ReadRib(zero, snapshot).find("bad monitor ASN"),
            std::string::npos);

  std::vector<Update> updates;
  std::istringstream upd("1|4294967296|A|10.0.0.0/16|1 2\n");
  err = ReadUpdates(upd, updates);
  EXPECT_NE(err.find("bad monitor ASN"), std::string::npos) << err;
  EXPECT_TRUE(updates.empty());
}

TEST(Formats, UpdateRoundTripPreservesEveryField) {
  std::vector<Update> updates(3);
  updates[0].sequence = 10;
  updates[0].monitor = 4294967295u;  // max 32-bit ASN survives intact
  updates[0].prefix = *Prefix::Parse("69.171.224.0/20");
  updates[0].path = bgp::AsPath({3356, 32934, 32934, 32934});
  updates[1].sequence = 11;
  updates[1].monitor = 7018;
  updates[1].prefix = *Prefix::Parse("10.0.0.0/16");
  updates[1].withdraw = true;
  updates[2].sequence = 12;
  updates[2].monitor = 7018;
  updates[2].prefix = *Prefix::Parse("10.0.0.0/16");
  updates[2].path = bgp::AsPath({1, 2, 3});
  std::ostringstream os;
  WriteUpdates(updates, os);
  std::vector<Update> parsed;
  std::istringstream is(os.str());
  ASSERT_EQ(ReadUpdates(is, parsed), "");
  ASSERT_EQ(parsed.size(), updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(parsed[i].sequence, updates[i].sequence);
    EXPECT_EQ(parsed[i].monitor, updates[i].monitor);
    EXPECT_EQ(parsed[i].prefix, updates[i].prefix);
    EXPECT_EQ(parsed[i].withdraw, updates[i].withdraw);
    EXPECT_EQ(parsed[i].path, updates[i].path);
  }
}

// --- traceroute (paper Table I) ----------------------------------------------------------

TEST(Traceroute, CrossOceanDelayJump) {
  // The anomalous route: AT&T customer → 7018 → 4134 → 9318 → 32934, with the
  // Pacific crossings dominating the delay exactly as in Table I.
  TracerouteSimulator sim;
  sim.SetLocalDelay(1);
  sim.SetHopCount(7018, 3);
  sim.SetHopCount(4134, 3);
  sim.SetHopCount(9318, 2);
  sim.SetHopCount(32934, 3);
  sim.SetLinkDelay(7018, 4134, 90);   // US → China
  sim.SetLinkDelay(4134, 9318, 85);   // China → Korea
  sim.SetLinkDelay(9318, 32934, 20);  // Korea → US edge (via transit)
  sim.SetDefaultLinkDelay(40);

  bgp::AsPath path({7018, 4134, 9318, 32934, 32934, 32934});
  auto hops = sim.Run(path);
  ASSERT_GE(hops.size(), 10u);
  EXPECT_EQ(hops.front().ip, "192.168.1.1");
  // Prepends collapse: exactly 1 + 3 + 3 + 2 + 3 hops.
  EXPECT_EQ(hops.size(), 12u);
  // Monotone non-decreasing delays.
  for (std::size_t i = 1; i < hops.size(); ++i) {
    EXPECT_GE(hops[i].delay_ms + 2.0, hops[i - 1].delay_ms);
  }
  // The hop entering China Telecom shows the ocean jump.
  double att_last = 0.0, china_first = 0.0;
  for (const auto& hop : hops) {
    if (hop.asn == 7018) att_last = hop.delay_ms;
    if (hop.asn == 4134 && china_first == 0.0) china_first = hop.delay_ms;
  }
  EXPECT_GT(china_first - att_last, 60.0);
}

TEST(Traceroute, FormatLooksLikeTableI) {
  TracerouteSimulator sim;
  auto hops = sim.Run(bgp::AsPath({7018, 32934}));
  std::string table = TracerouteSimulator::FormatTable(hops);
  EXPECT_NE(table.find("Hop"), std::string::npos);
  EXPECT_NE(table.find("AS7018"), std::string::npos);
  EXPECT_NE(table.find("ms"), std::string::npos);
}

TEST(Traceroute, DeterministicForSeed) {
  TracerouteSimulator sim;
  bgp::AsPath path({7018, 3356, 32934});
  auto a = sim.Run(path, 7);
  auto b = sim.Run(path, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].delay_ms, b[i].delay_ms);
  }
}

}  // namespace
}  // namespace asppi::data
