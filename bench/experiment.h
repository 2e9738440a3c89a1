// Experiment: the single entry point every figure/table binary and tool goes
// through — flag registration, topology construction, thread pool and
// baseline cache wiring, banner printing, and output (aligned table, --csv,
// --json run report, --metrics dump).
//
// Canonical bench shape:
//
//   bench::Experiment e("Figure 9: ...", "paper caption");
//   e.WithTopologyFlags();
//   e.Flags().DefineInt("max_lambda", 8, "...");
//   if (!e.ParseFlags(argc, argv)) return 1;
//   e.GenerateTopology();                       // prints the banner
//   ... compute, using e.Pool() and e.Baseline() ...
//   e.PrintTable(table);                        // pretty or CSV per --csv
//   e.Note("shape check (paper): ...");         // printed + recorded
//   return e.Finish();                          // --json / --metrics, exit code
//
// Tools skip WithTopologyFlags() (they load a topology file instead) and use
// WithThreadsFlag() + LoadTopology(); everything downstream is identical, so
// --threads, --json, and the error path exist exactly once in the codebase.
//
// The --json report schema (see DESIGN.md §4d):
//   { "meta":    { "binary", "experiment", "caption", "git", "seed"?, "flags" },
//     "metrics": { "counters", "timers", "gauges" },
//     "rows":    [ {column: value, ...}, ... ],
//     "notes":   [ "...", ... ] }
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "data/snapshot.h"
#include "defense/deployment.h"
#include "defense/policy.h"
#include "topology/generator.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace asppi::bench {

class Experiment {
 public:
  // `name` heads the banner; `caption` is the paper's expected shape.
  Experiment(std::string name, std::string caption);

  // Experiment-specific flags are defined on this before ParseFlags().
  util::Flags& Flags() { return flags_; }
  const util::Flags& Flags() const { return flags_; }

  // Registers the synthetic-topology flags (--seed, tier sizes, --siblings,
  // --preset) plus --threads. For binaries that generate their own topology.
  // --preset=internet2026 swaps in topo::Internet2026Params() (~100k ASes);
  // explicitly given tier-size/seed flags still override preset fields.
  Experiment& WithTopologyFlags();

  // Registers only --threads. For tools that load a topology file.
  Experiment& WithThreadsFlag();

  // Registers --defense (policy kinds, default "none"), --deploy-frac,
  // --deploy-strategy, and --deploy-seed, so any sweep binary can re-run its
  // figure under a partial defense deployment.
  Experiment& WithDefenseFlags();

  // Builds the deployment the defense flags describe over `graph`: the first
  // ⌈frac·n⌉ ASes of the --deploy-strategy ordering (excluding `victim` and
  // `attacker`; either may be 0), each running the --defense policies.
  // Returns nullptr — no filtering — for --defense=none (the default) or
  // --deploy-frac=0, and also (with a warning) when
  // --deploy-strategy=victim-cone is asked for without a victim.
  std::shared_ptr<const defense::PolicySet> DefenseDeployment(
      const topo::AsGraph& graph, topo::Asn victim, topo::Asn attacker);

  // Parses argv (records the binary name for the run report). Returns false
  // after printing usage on --help or a flag error; main() should return 1.
  bool ParseFlags(int argc, char** argv);

  // Generator parameters from the parsed flags (WithTopologyFlags only).
  topo::GeneratorParams Params() const;

  // Generates the topology from the flags (or an adjusted `params`) and
  // prints the banner. Call once, after ParseFlags().
  const topo::GeneratedTopology& GenerateTopology();
  const topo::GeneratedTopology& GenerateTopology(
      const topo::GeneratorParams& params);
  const topo::GeneratedTopology& Topology() const;
  // For scenario builders that engineer extra links into the generated graph
  // (Fig. 11's sibling chain). Use before Baseline() is built.
  topo::GeneratedTopology& MutableTopology();

  // Prints the two banner lines (name + caption) without a topology summary —
  // for experiments on hand-built topologies. GenerateTopology() includes it.
  void PrintHeader();

  // Reads an as-rel topology file into `graph`. On failure prints the shared
  // error line to stderr and returns false; main() should return 1.
  bool LoadTopology(const std::string& path, topo::AsGraph* graph);

  // Loads `path` as either a binary snapshot (when it starts with the
  // snapshot magic — see data/snapshot.h) or an as-rel text file, so every
  // tool accepts both formats through one flag. On snapshot load `*snapshot`
  // is filled and the returned pointer aims at its graph; on text load
  // `*graph` is filled. Returns nullptr on failure (error printed).
  const topo::AsGraph* LoadTopologyOrSnapshot(const std::string& path,
                                              topo::AsGraph* graph,
                                              data::Snapshot* snapshot);

  // Parses the flag `name` as an AS number via util::ParseAsn (strict:
  // decimal digits only, must fit in 32 bits). On failure prints the shared
  // error line and returns false; main() should return 1.
  bool AsnFlag(const std::string& name, topo::Asn* out) const;

  // Reads --lambda, the victim's prepend count, which every engine takes in
  // 1..bgp::kMaxPads; with `zero_is_off`, 0 (no prepend policy) is accepted
  // too. Out of range, prints the shared error line and returns false;
  // main() should return 1.
  bool LambdaFlag(int* out, bool zero_is_off = false) const;

  // Thread pool sized by --threads (lazily built; requires a threads flag).
  // Outputs are bit-identical for any --threads value.
  util::ThreadPool* Pool();

  // Baseline cache over the generated topology (lazily built; requires
  // GenerateTopology() first).
  attack::BaselineCache* Baseline();

  // printf-style commentary: printed immediately and recorded in the run
  // report's `notes` array.
  void Note(const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 2, 3)))
#endif
      ;

  // Prints `table` per --csv and records its rows for the run report.
  void PrintTable(const util::Table& table);

  // Records `table`'s rows for the run report without printing (for tools
  // that keep their own stdout formatting).
  void RecordTable(const util::Table& table);

  // Dumps metrics per --metrics, writes the --json run report (if requested),
  // and passes `exit_code` through so `return e.Finish();` ends main().
  int Finish(int exit_code = 0);

 private:
  std::string name_;
  std::string caption_;
  std::string binary_;
  util::Flags flags_;
  bool has_threads_flag_ = false;
  bool has_topology_flags_ = false;
  std::optional<topo::GeneratedTopology> topology_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<attack::BaselineCache> baseline_;
  std::vector<std::string> notes_;
  std::vector<util::Json> tables_;
};

}  // namespace asppi::bench
