// Tests for the process-wide metrics registry (src/util/metrics.h): handle
// registration and accumulation, shard folding on thread exit, the
// determinism guarantee — workload counters are bit-identical for any
// --threads value — and the run-report JSON round-trip.
//
// The registry is a process-global singleton shared with every other test in
// this binary, so assertions work on snapshot *deltas* around the code under
// test, never on absolute values.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "attack/scenarios.h"
#include "defense/sweep.h"
#include "detect/evaluation.h"
#include "detect/monitors.h"
#include "load/workload.h"
#include "net/frames.h"
#include "topology/generator.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace asppi {
namespace {

using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap CounterDelta(const util::Metrics::Snapshot& before,
                        const util::Metrics::Snapshot& after) {
  CounterMap delta;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    const std::uint64_t prior = it == before.counters.end() ? 0 : it->second;
    if (value != prior) delta[name] = value - prior;
  }
  return delta;
}

// Scheduling counters (and all wall-clock timers) are inherently
// thread-count-dependent and excluded from the determinism guarantee.
CounterMap DropThreadPoolCounters(CounterMap delta) {
  std::erase_if(delta, [](const auto& entry) {
    return entry.first.starts_with("util.thread_pool.");
  });
  return delta;
}

TEST(Metrics, CounterHandleAccumulatesIntoSnapshot) {
  util::Metrics& metrics = util::Metrics::Global();
  const auto before = metrics.TakeSnapshot();
  util::Counter counter("test.metrics.counter_accumulates");
  counter.Add();
  counter.Add(41);
  const auto delta = CounterDelta(before, metrics.TakeSnapshot());
  auto it = delta.find("test.metrics.counter_accumulates");
  ASSERT_NE(it, delta.end());
  EXPECT_EQ(it->second, 42u);
}

TEST(Metrics, InterningIsStableAcrossHandles) {
  util::Metrics& metrics = util::Metrics::Global();
  const auto id1 = metrics.CounterId("test.metrics.interned");
  const auto id2 = metrics.CounterId("test.metrics.interned");
  EXPECT_EQ(id1, id2);
  // Two handles for the same name feed the same counter.
  const auto before = metrics.TakeSnapshot();
  util::Counter a("test.metrics.interned");
  util::Counter b("test.metrics.interned");
  a.Add(3);
  b.Add(4);
  const auto delta = CounterDelta(before, metrics.TakeSnapshot());
  EXPECT_EQ(delta.at("test.metrics.interned"), 7u);
}

TEST(Metrics, TimerRecordsCountAndTotal) {
  util::Metrics& metrics = util::Metrics::Global();
  const auto before = metrics.TakeSnapshot();
  util::Timer timer("test.metrics.timer");
  timer.RecordNs(1000);
  timer.RecordNs(250);
  const auto after = metrics.TakeSnapshot();
  auto it = after.timers.find("test.metrics.timer");
  ASSERT_NE(it, after.timers.end());
  const auto prior = before.timers.find("test.metrics.timer");
  const std::uint64_t count0 =
      prior == before.timers.end() ? 0 : prior->second.count;
  const std::uint64_t ns0 =
      prior == before.timers.end() ? 0 : prior->second.total_ns;
  EXPECT_EQ(it->second.count - count0, 2u);
  EXPECT_EQ(it->second.total_ns - ns0, 1250u);
}

TEST(Metrics, ExitedThreadsFoldIntoRetiredTotals) {
  util::Metrics& metrics = util::Metrics::Global();
  const auto before = metrics.TakeSnapshot();
  util::Counter counter("test.metrics.thread_exit");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 1000; ++i) counter.Add();
    });
  }
  for (auto& thread : threads) thread.join();
  // Every increment from the (now exited) threads must survive.
  const auto delta = CounterDelta(before, metrics.TakeSnapshot());
  EXPECT_EQ(delta.at("test.metrics.thread_exit"), 4000u);
}

TEST(Metrics, GaugesAreLastWriteWins) {
  util::Metrics& metrics = util::Metrics::Global();
  metrics.SetGauge("test.metrics.gauge", 3.0);
  metrics.SetGauge("test.metrics.gauge", 8.0);
  const auto snapshot = metrics.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("test.metrics.gauge"), 8.0);
}

// The ISSUE-level guarantee: for a fixed seed the emitted workload metrics
// (propagation rounds, cache hits/misses, decision invocations, detector
// counts) are bit-identical for --threads=1 and --threads=8.
TEST(Metrics, WorkloadCountersIdenticalAcrossThreadCounts) {
  topo::GeneratorParams params;
  params.seed = 1201;
  params.num_tier1 = 5;
  params.num_tier2 = 25;
  params.num_tier3 = 60;
  params.num_stubs = 250;
  params.num_content = 5;
  auto gen = topo::GenerateInternetTopology(params);
  auto pairs = attack::SampleTier1Pairs(gen, 10, /*seed=*/7);
  ASSERT_FALSE(pairs.empty());
  auto monitors = detect::TopDegreeMonitors(gen.graph, 30);
  detect::DetectionConfig config;
  config.lambda = 3;

  util::Metrics& metrics = util::Metrics::Global();
  auto run_workload = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    attack::BaselineCache cache(gen.graph);
    attack::PairSweepOptions options;
    options.lambda = 3;
    options.pool = &pool;
    options.baseline_cache = &cache;
    auto rows = attack::RunPairSweep(gen.graph, pairs, options);
    attack::AttackSimulator simulator(gen.graph, &cache);
    auto rates = detect::EvaluateDetectionRates(simulator, pairs, monitors,
                                                config, &pool);
    // Defended leg: the defense.* counters (policy evaluations, per-policy
    // filter counts, sweep accounting) are inside the same bit-determinism
    // guarantee as the engine counters.
    defense::DefenseSweepOptions defense_options;
    defense_options.fractions = {0.0, 0.5};
    defense_options.num_pairs = 4;
    defense_options.lambda = 3;
    defense_options.seed = 5;
    defense_options.pool = &pool;
    defense_options.baseline_cache = &cache;
    auto points = defense::RunDefenseSweep(gen.graph, defense_options);
    return std::tuple{rows.size(), rates.instances, points.size()};
  };

  const auto before1 = metrics.TakeSnapshot();
  auto result1 = run_workload(1);
  const auto after1 = metrics.TakeSnapshot();
  auto result8 = run_workload(8);
  const auto after8 = metrics.TakeSnapshot();

  EXPECT_EQ(result1, result8);
  const auto delta1 = DropThreadPoolCounters(CounterDelta(before1, after1));
  const auto delta8 = DropThreadPoolCounters(CounterDelta(after1, after8));
  // Same names, same values — compare the whole maps so a divergence names
  // the offending counter in the failure message.
  EXPECT_EQ(delta1, delta8);
  // Sanity: the workload actually exercised the instrumented layers. Its
  // baselines come from the routing tree (attack::BaselineCache).
  EXPECT_GT(delta1.at("bgp.routing_tree.builds"), 0u);
  // The sweep defaults to the delta engine, so its wavefront accounting is
  // inside the whole-map equality above — bit-identical for any --threads.
  EXPECT_GT(delta1.at("engine.delta.propagations"), 0u);
  EXPECT_GT(delta1.at("attack.baseline_cache.misses"), 0u);
  EXPECT_GT(delta1.at("detect.evaluations"), 0u);
  // Defense counters ride the same guarantee (the whole-map equality above
  // already pins them; these prove the defended leg actually filtered).
  EXPECT_GT(delta1.at("defense.accept.evaluations"), 0u);
  EXPECT_GT(delta1.at("defense.pathval.filtered"), 0u);
  EXPECT_GT(delta1.at("defense.sweep.attacks"), 0u);
}

// The serving-stack counters ride the same guarantee: workload generation
// (load.workload.*) and NDJSON framing (net.frames.*) are pure functions of
// their inputs, so the metrics they emit are bit-identical whether the
// script is generated serially or by an 8-thread ParallelFor, and however
// the byte stream is torn before the splitter sees it.
TEST(Metrics, NetAndLoadCountersIdenticalAcrossThreadCounts) {
  util::Metrics& metrics = util::Metrics::Global();
  load::WorkloadOptions options;
  options.seed = 314;
  options.as_count = 96;
  const load::Workload workload(options);
  const std::uint64_t n = 400;

  auto run_workload = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    std::vector<std::string> lines(n);
    pool.ParallelFor(n, [&](std::size_t i) { lines[i] = workload.Line(i); });
    std::string stream;
    for (const std::string& line : lines) stream += line + "\n";
    stream += std::string(512, 'x') + "\n";  // one oversized line
    // Feed the stream torn at a thread-count-dependent boundary: framing
    // counters must not care how the bytes arrived.
    net::LineSplitter splitter(/*max_line_bytes=*/256);
    std::vector<std::string> split;
    const std::size_t cut = stream.size() / (threads + 1);
    splitter.Feed(std::string_view(stream).substr(0, cut), &split);
    splitter.Feed(std::string_view(stream).substr(cut), &split);
    return split.size();
  };

  auto serving_only = [](CounterMap delta) {
    std::erase_if(delta, [](const auto& entry) {
      return !entry.first.starts_with("net.") &&
             !entry.first.starts_with("load.");
    });
    return delta;
  };

  const auto before1 = metrics.TakeSnapshot();
  const std::size_t split1 = run_workload(1);
  const auto after1 = metrics.TakeSnapshot();
  const std::size_t split8 = run_workload(8);
  const auto after8 = metrics.TakeSnapshot();

  EXPECT_EQ(split1, split8);
  const auto delta1 = serving_only(CounterDelta(before1, after1));
  const auto delta8 = serving_only(CounterDelta(after1, after8));
  EXPECT_EQ(delta1, delta8);
  EXPECT_EQ(delta1.at("load.workload.lines"), n);
  EXPECT_EQ(delta1.at("net.frames.lines"), split1);
  EXPECT_EQ(delta1.at("net.frames.oversized"), 1u);
}

// The run report written by --json must survive a serialize → parse round
// trip with ordering and values intact.
TEST(Metrics, RunReportJsonRoundTrip) {
  util::Json meta = util::Json::Object();
  meta["binary"] = util::Json("fig09_sweep_t1_t1");
  meta["seed"] = util::Json(std::uint64_t{42});
  util::Json flags = util::Json::Object();
  flags["threads"] = util::Json("8");
  meta["flags"] = std::move(flags);

  util::Json counters = util::Json::Object();
  counters["bgp.propagation.rounds"] = util::Json(std::uint64_t{123456});
  util::Json timers = util::Json::Object();
  util::Json timer = util::Json::Object();
  timer["count"] = util::Json(std::uint64_t{17});
  timer["total_ns"] = util::Json(std::uint64_t{987654321});
  timers["attack.baseline_cache.compute"] = std::move(timer);
  util::Json metrics = util::Json::Object();
  metrics["counters"] = std::move(counters);
  metrics["timers"] = std::move(timers);

  util::Json rows = util::Json::Array();
  util::Json row = util::Json::Object();
  row["lambda"] = util::Json(3.0);
  row["polluted"] = util::Json(0.31);
  rows.Push(std::move(row));

  util::Json report = util::Json::Object();
  report["meta"] = std::move(meta);
  report["metrics"] = std::move(metrics);
  report["rows"] = std::move(rows);

  const std::string text = report.ToString(/*indent=*/2);
  auto parsed = util::Json::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, report);
  // Key order is preserved, not alphabetized: meta before metrics.
  EXPECT_LT(text.find("\"meta\""), text.find("\"metrics\""));
  EXPECT_EQ(parsed->Find("metrics")
                ->Find("timers")
                ->Find("attack.baseline_cache.compute")
                ->Find("total_ns")
                ->AsDouble(),
            987654321.0);
}

}  // namespace
}  // namespace asppi
