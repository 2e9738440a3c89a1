// Smoke test for bench::Experiment: a fig09-style λ-sweep produces the same
// numbers through the unified entry point as a direct computation, and the
// --json run report lands on disk with the documented schema.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/experiment.h"
#include "topology/generator.h"
#include "util/json.h"

namespace asppi {
namespace {

topo::GeneratorParams SmallParams() {
  topo::GeneratorParams params;
  params.seed = 77;
  params.num_tier1 = 5;
  params.num_tier2 = 25;
  params.num_tier3 = 60;
  params.num_stubs = 250;
  params.num_content = 5;
  params.num_sibling_pairs = 3;
  return params;
}

std::vector<char*> Argv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& arg : storage) argv.push_back(arg.data());
  return argv;
}

TEST(Experiment, TopologyFlagsReachTheGenerator) {
  bench::Experiment e("test", "caption");
  e.WithTopologyFlags();
  std::vector<std::string> args = {"experiment_test", "--seed=77",
                                   "--tier1=5",       "--tier2=25",
                                   "--tier3=60",      "--stubs=250",
                                   "--content=5",     "--siblings=3",
                                   "--threads=2"};
  auto argv = Argv(args);
  ASSERT_TRUE(e.ParseFlags(static_cast<int>(argv.size()), argv.data()));
  const topo::GeneratorParams params = e.Params();
  EXPECT_EQ(params.seed, 77u);
  EXPECT_EQ(params.num_tier1, 5u);
  EXPECT_EQ(params.num_stubs, 250u);
  EXPECT_EQ(params.num_sibling_pairs, 3u);
}

TEST(Experiment, UnknownFlagIsARejectedParse) {
  bench::Experiment e("test", "caption");
  e.WithThreadsFlag();
  std::vector<std::string> args = {"experiment_test", "--tier3=60"};
  auto argv = Argv(args);
  EXPECT_FALSE(e.ParseFlags(static_cast<int>(argv.size()), argv.data()));
}

TEST(Experiment, LambdaFlagAcceptsOnlyOneThroughMaxPads) {
  // Every --lambda reaches engines that abort below one pad, so the one
  // shared check rejects 0 (and anything past kMaxPads) before they run.
  const auto lambda_of = [](const std::string& value) -> std::optional<int> {
    bench::Experiment e("test", "caption");
    e.Flags().DefineInt("lambda", 4, "victim prepend count");
    std::vector<std::string> args = {"experiment_test", "--lambda=" + value};
    auto argv = Argv(args);
    EXPECT_TRUE(e.ParseFlags(static_cast<int>(argv.size()), argv.data()));
    int lambda = 0;
    if (!e.LambdaFlag(&lambda)) return std::nullopt;
    return lambda;
  };
  EXPECT_EQ(lambda_of("1"), 1);
  EXPECT_EQ(lambda_of("64"), 64);
  EXPECT_EQ(lambda_of("0"), std::nullopt);
  EXPECT_EQ(lambda_of("-3"), std::nullopt);
  EXPECT_EQ(lambda_of("65"), std::nullopt);
}

// The fig09-style sweep through Experiment must be bit-identical to the same
// computation done directly against the generator — the harness adds
// observability, never changes results.
TEST(Experiment, SweepThroughExperimentMatchesDirectComputation) {
  const std::string json_path =
      ::testing::TempDir() + "/experiment_test_report.json";
  std::remove(json_path.c_str());

  auto direct_gen = topo::GenerateInternetTopology(SmallParams());
  auto direct_rows = bench::LambdaSweep(
      direct_gen.graph, direct_gen.tier1[0], direct_gen.tier1[1],
      /*max_lambda=*/4, /*violate_valley_free=*/false);

  bench::Experiment e("Experiment smoke", "fig09-style sweep");
  e.WithTopologyFlags();
  std::vector<std::string> args = {
      "experiment_test", "--seed=77",   "--tier1=5",   "--tier2=25",
      "--tier3=60",      "--stubs=250", "--content=5", "--siblings=3",
      "--threads=4",     "--json=" + json_path};
  auto argv = Argv(args);
  ASSERT_TRUE(e.ParseFlags(static_cast<int>(argv.size()), argv.data()));
  const auto& gen = e.GenerateTopology();
  auto rows = bench::LambdaSweep(gen.graph, gen.tier1[0], gen.tier1[1],
                                 /*max_lambda=*/4,
                                 /*violate_valley_free=*/false, e.Pool(),
                                 e.Baseline());

  ASSERT_EQ(rows.size(), direct_rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].lambda, direct_rows[i].lambda);
    EXPECT_EQ(rows[i].before, direct_rows[i].before);
    EXPECT_EQ(rows[i].after, direct_rows[i].after);
  }

  util::Table table =
      bench::SweepTable(rows, "pct_polluted", "pct_before_attack");
  e.RecordTable(table);
  e.Note("smoke note");
  EXPECT_EQ(e.Finish(0), 0);

  // The report must exist, parse, and carry the schema of DESIGN.md §4d.
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "run report not written to " << json_path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto report = util::Json::Parse(buffer.str());
  ASSERT_TRUE(report.has_value());
  const util::Json* meta = report->Find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->Find("binary")->AsString(), "experiment_test");
  EXPECT_EQ(meta->Find("seed")->AsDouble(), 77.0);
  EXPECT_EQ(meta->Find("flags")->Find("threads")->AsString(), "4");
  const util::Json* counters = report->Find("metrics")->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("bgp.routing_tree.builds"), nullptr);
  EXPECT_GT(counters->Find("bgp.routing_tree.builds")->AsDouble(), 0.0);
  const util::Json* json_rows = report->Find("rows");
  ASSERT_NE(json_rows, nullptr);
  ASSERT_EQ(json_rows->Items().size(), rows.size());
  EXPECT_DOUBLE_EQ(
      json_rows->Items()[0].Find("num_prepending_asns")->AsDouble(), 1.0);
  const util::Json* notes = report->Find("notes");
  ASSERT_NE(notes, nullptr);
  ASSERT_EQ(notes->Items().size(), 1u);
  EXPECT_EQ(notes->Items()[0].AsString(), "smoke note");

  std::remove(json_path.c_str());
}

TEST(Experiment, UnwritableJsonPathFailsTheRun) {
  bench::Experiment e("test", "caption");
  std::vector<std::string> args = {"experiment_test",
                                   "--json=/nonexistent-dir/report.json"};
  auto argv = Argv(args);
  ASSERT_TRUE(e.ParseFlags(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(e.Finish(0), 1);
  EXPECT_EQ(e.Finish(2), 2) << "a failing run keeps its own exit code";
}

}  // namespace
}  // namespace asppi
