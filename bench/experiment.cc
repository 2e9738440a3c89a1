#include "bench/experiment.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>
#include <utility>

#include "topology/serialization.h"
#include "util/check.h"
#include "util/strings.h"
#include "util/json.h"
#include "util/metrics.h"

// The build stamps asppi_bench_common with `git describe` output so a run
// report identifies the exact tree it came from.
#ifndef ASPPI_GIT_DESCRIBE
#define ASPPI_GIT_DESCRIBE "unknown"
#endif

namespace asppi::bench {

Experiment::Experiment(std::string name, std::string caption)
    : name_(std::move(name)), caption_(std::move(caption)) {
  flags_.DefineBool("csv", false, "emit CSV instead of an aligned table");
  flags_.DefineString("json", "",
                      "write a JSON run report (meta, metrics, rows, notes) "
                      "to this path");
  flags_.DefineBool("metrics", false,
                    "print the metrics registry after the run");
}

Experiment& Experiment::WithThreadsFlag() {
  if (!has_threads_flag_) {
    flags_.DefineUint(
        "threads",
        std::max<unsigned int>(1, std::thread::hardware_concurrency()),
        "worker threads for the sweep engine (output is identical for any "
        "value)");
    has_threads_flag_ = true;
  }
  return *this;
}

Experiment& Experiment::WithDefenseFlags() {
  if (!flags_.IsDefined("defense")) {
    flags_.DefineString("defense", "none",
                        "defense policies deployed ASes run: rov / pathval / "
                        "detector / all, '+'-joined ('none' = undefended)");
    flags_.DefineDouble("deploy-frac", 0.5,
                        "fraction of ASes deploying --defense, in [0, 1]");
    flags_.DefineString("deploy-strategy", "top-degree",
                        "deployment placement: top-degree, random, or "
                        "victim-cone");
    flags_.DefineUint("deploy-seed", 1,
                      "shuffle seed for --deploy-strategy=random");
  }
  return *this;
}

std::shared_ptr<const defense::PolicySet> Experiment::DefenseDeployment(
    const topo::AsGraph& graph, topo::Asn victim, topo::Asn attacker) {
  ASPPI_CHECK(flags_.IsDefined("defense"))
      << "DefenseDeployment() requires WithDefenseFlags()";
  const std::string& kinds_text = flags_.GetString("defense");
  if (kinds_text == "none") return nullptr;
  const std::optional<std::uint8_t> kinds =
      defense::ParsePolicyKinds(kinds_text);
  if (!kinds.has_value() || *kinds == defense::kNoPolicy) {
    if (!kinds.has_value()) {
      std::fprintf(stderr, "warning: unknown --defense '%s', running "
                   "undefended\n", kinds_text.c_str());
    }
    return nullptr;
  }
  const double frac = flags_.GetDouble("deploy-frac");
  if (frac <= 0.0) return nullptr;
  const std::string& strategy_text = flags_.GetString("deploy-strategy");
  const std::optional<defense::Strategy> strategy =
      defense::ParseStrategy(strategy_text);
  if (!strategy.has_value()) {
    std::fprintf(stderr, "warning: unknown --deploy-strategy '%s', running "
                 "undefended\n", strategy_text.c_str());
    return nullptr;
  }
  if (*strategy == defense::Strategy::kVictimCone && !graph.HasAs(victim)) {
    std::fprintf(stderr, "warning: --deploy-strategy=victim-cone needs a "
                 "single victim; running undefended\n");
    return nullptr;
  }
  const defense::DeploymentPlan plan = defense::DeploymentPlan::Make(
      graph, *strategy, victim, attacker, flags_.GetUint("deploy-seed"));
  auto set = std::make_shared<defense::PolicySet>(
      plan.AtFraction(std::min(frac, 1.0), *kinds));
  Note("defense: %zu AS(es) deploy %s (%s, frac=%.2f)", set->DeployedCount(),
       defense::PolicyKindsName(*kinds).c_str(),
       defense::StrategyName(*strategy), std::min(frac, 1.0));
  return set;
}

Experiment& Experiment::WithTopologyFlags() {
  WithThreadsFlag();
  if (!has_topology_flags_) {
    flags_.DefineString("preset", "",
                        "named topology preset: 'internet2026' (~100k ASes, "
                        "Internet-2026 scale); explicitly set tier-size/seed "
                        "flags override individual preset fields");
    flags_.DefineUint("seed", 42, "topology seed");
    flags_.DefineUint("tier1", 10, "number of tier-1 ASes");
    flags_.DefineUint("tier2", 120, "number of tier-2 ASes");
    flags_.DefineUint("tier3", 700, "number of tier-3 ASes");
    flags_.DefineUint("stubs", 3000, "number of stub ASes");
    flags_.DefineUint("content", 20, "number of content/CDN ASes");
    flags_.DefineUint("siblings", 15, "number of sibling pairs");
    has_topology_flags_ = true;
  }
  return *this;
}

bool Experiment::ParseFlags(int argc, char** argv) {
  if (argc > 0 && argv != nullptr && argv[0] != nullptr) {
    std::string path = argv[0];
    const std::size_t slash = path.find_last_of('/');
    binary_ = slash == std::string::npos ? path : path.substr(slash + 1);
  }
  return flags_.Parse(argc, argv);
}

topo::GeneratorParams Experiment::Params() const {
  ASPPI_CHECK(has_topology_flags_)
      << "Params() requires WithTopologyFlags()";
  topo::GeneratorParams params;
  const std::string& preset = flags_.GetString("preset");
  const bool has_preset = !preset.empty();
  if (has_preset) {
    ASPPI_CHECK(preset == "internet2026")
        << "unknown --preset '" << preset << "' (valid: internet2026)";
    params = topo::Internet2026Params();
  }
  // With a preset, an individual flag only wins when given explicitly —
  // otherwise its un-asked-for default would undo the preset.
  const auto take = [&](const char* name, auto* field) {
    if (!has_preset || flags_.WasSet(name)) {
      *field = flags_.GetUint(name);
    }
  };
  take("seed", &params.seed);
  take("tier1", &params.num_tier1);
  take("tier2", &params.num_tier2);
  take("tier3", &params.num_tier3);
  take("stubs", &params.num_stubs);
  take("content", &params.num_content);
  take("siblings", &params.num_sibling_pairs);
  return params;
}

const topo::GeneratedTopology& Experiment::GenerateTopology() {
  return GenerateTopology(Params());
}

const topo::GeneratedTopology& Experiment::GenerateTopology(
    const topo::GeneratorParams& params) {
  ASPPI_CHECK(!topology_.has_value()) << "topology generated twice";
  topology_ = topo::GenerateInternetTopology(params);
  PrintHeader();
  const topo::GeneratedTopology& t = *topology_;
  std::printf(
      "topology: %zu ASes (%zu tier-1, %zu tier-2, %zu tier-3, %zu stubs, "
      "%zu content), %zu links, seed %llu\n",
      t.graph.NumAses(), t.tier1.size(), t.tier2.size(), t.tier3.size(),
      t.stubs.size(), t.content.size(), t.graph.NumLinks(),
      static_cast<unsigned long long>(params.seed));
  util::Metrics::Global().SetGauge("experiment.topology.ases",
                                   static_cast<double>(t.graph.NumAses()));
  util::Metrics::Global().SetGauge("experiment.topology.links",
                                   static_cast<double>(t.graph.NumLinks()));
  return t;
}

const topo::GeneratedTopology& Experiment::Topology() const {
  ASPPI_CHECK(topology_.has_value()) << "GenerateTopology() not called";
  return *topology_;
}

topo::GeneratedTopology& Experiment::MutableTopology() {
  ASPPI_CHECK(topology_.has_value()) << "GenerateTopology() not called";
  ASPPI_CHECK(baseline_ == nullptr)
      << "topology must not change under a live BaselineCache";
  return *topology_;
}

void Experiment::PrintHeader() {
  std::printf("== %s ==\n", name_.c_str());
  std::printf("paper: %s\n", caption_.c_str());
}

bool Experiment::LoadTopology(const std::string& path, topo::AsGraph* graph) {
  topo::GraphBuilder builder;
  std::string err = topo::ReadAsRelFile(path, builder);
  if (!err.empty()) {
    std::fprintf(stderr, "error reading topology: %s\n", err.c_str());
    return false;
  }
  *graph = builder.Freeze();
  return true;
}

const topo::AsGraph* Experiment::LoadTopologyOrSnapshot(
    const std::string& path, topo::AsGraph* graph, data::Snapshot* snapshot) {
  if (data::Snapshot::SniffFile(path)) {
    std::string err = data::Snapshot::Load(path, *snapshot);
    if (!err.empty()) {
      std::fprintf(stderr, "error reading snapshot: %s\n", err.c_str());
      return nullptr;
    }
    return &snapshot->Graph();
  }
  if (!LoadTopology(path, graph)) return nullptr;
  return graph;
}

bool Experiment::AsnFlag(const std::string& name, topo::Asn* out) const {
  const std::string& text = flags_.GetText(name);
  const std::optional<std::uint32_t> asn = util::ParseAsn(text);
  if (!asn.has_value()) {
    std::fprintf(stderr,
                 "error: --%s='%s' is not a valid AS number "
                 "(decimal, 0..4294967295)\n",
                 name.c_str(), text.c_str());
    return false;
  }
  *out = static_cast<topo::Asn>(*asn);
  return true;
}

bool Experiment::LambdaFlag(int* out, bool zero_is_off) const {
  const std::int64_t lambda = flags_.GetInt("lambda");
  if ((lambda < 1 && !(zero_is_off && lambda == 0)) ||
      lambda > bgp::kMaxPads) {
    std::fprintf(stderr, "error: --lambda must be in %s1..%d\n",
                 zero_is_off ? "0 (off) or " : "", bgp::kMaxPads);
    return false;
  }
  *out = static_cast<int>(lambda);
  return true;
}

util::ThreadPool* Experiment::Pool() {
  ASPPI_CHECK(has_threads_flag_) << "Pool() requires a --threads flag";
  if (!pool_) {
    const std::uint64_t threads =
        std::max<std::uint64_t>(1, flags_.GetUint("threads"));
    util::Metrics::Global().SetGauge("experiment.threads",
                                     static_cast<double>(threads));
    pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(threads));
  }
  return pool_.get();
}

attack::BaselineCache* Experiment::Baseline() {
  if (!baseline_) {
    baseline_ = std::make_unique<attack::BaselineCache>(Topology().graph);
  }
  return baseline_.get();
}

void Experiment::Note(const char* fmt, ...) {
  char buffer[2048];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  std::printf("%s\n", buffer);
  notes_.emplace_back(buffer);
}

void Experiment::PrintTable(const util::Table& table) {
  if (flags_.GetBool("csv")) {
    table.PrintCsv(std::cout);
  } else {
    table.PrintPretty(std::cout);
  }
  std::cout.flush();
  tables_.push_back(table.ToJson());
}

void Experiment::RecordTable(const util::Table& table) {
  tables_.push_back(table.ToJson());
}

int Experiment::Finish(int exit_code) {
  util::Metrics::Snapshot snapshot = util::Metrics::Global().TakeSnapshot();

  if (flags_.GetBool("metrics")) {
    std::printf("\n-- metrics --\n");
    for (const auto& [name, value] : snapshot.counters) {
      std::printf("%-42s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
    for (const auto& [name, stat] : snapshot.timers) {
      std::printf("%-42s %llu calls, %.3f ms\n", name.c_str(),
                  static_cast<unsigned long long>(stat.count),
                  static_cast<double>(stat.total_ns) / 1e6);
    }
    for (const auto& [name, value] : snapshot.gauges) {
      std::printf("%-42s %g\n", name.c_str(), value);
    }
  }

  const std::string& json_path = flags_.GetString("json");
  if (!json_path.empty()) {
    util::Json meta = util::Json::Object();
    meta["binary"] = util::Json(binary_);
    meta["experiment"] = util::Json(name_);
    meta["caption"] = util::Json(caption_);
    meta["git"] = util::Json(ASPPI_GIT_DESCRIBE);
    if (flags_.IsDefined("seed")) {
      meta["seed"] = util::Json(flags_.GetUint("seed"));
    }
    util::Json flag_values = util::Json::Object();
    for (const auto& [name, value] : flags_.Values()) {
      flag_values[name] = util::Json(value);
    }
    meta["flags"] = std::move(flag_values);

    util::Json counters = util::Json::Object();
    for (const auto& [name, value] : snapshot.counters) {
      counters[name] = util::Json(value);
    }
    util::Json timers = util::Json::Object();
    for (const auto& [name, stat] : snapshot.timers) {
      util::Json entry = util::Json::Object();
      entry["count"] = util::Json(stat.count);
      entry["total_ns"] = util::Json(stat.total_ns);
      timers[name] = std::move(entry);
    }
    util::Json gauges = util::Json::Object();
    for (const auto& [name, value] : snapshot.gauges) {
      gauges[name] = util::Json(value);
    }
    util::Json metrics = util::Json::Object();
    metrics["counters"] = std::move(counters);
    metrics["timers"] = std::move(timers);
    metrics["gauges"] = std::move(gauges);

    util::Json rows = util::Json::Array();
    for (const util::Json& table : tables_) {
      for (std::size_t i = 0; i < table.Items().size(); ++i) {
        rows.Push(table.Items()[i]);
      }
    }
    util::Json notes = util::Json::Array();
    for (const std::string& note : notes_) notes.Push(util::Json(note));

    util::Json report = util::Json::Object();
    report["meta"] = std::move(meta);
    report["metrics"] = std::move(metrics);
    report["rows"] = std::move(rows);
    report["notes"] = std::move(notes);

    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write run report to %s\n",
                   json_path.c_str());
      return exit_code == 0 ? 1 : exit_code;
    }
    report.Write(out, /*indent=*/2);
    out << "\n";
  }
  return exit_code;
}

}  // namespace asppi::bench
