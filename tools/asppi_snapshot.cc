// asppi_snapshot — compile a topology (+ prepend policy + optional
// precomputed baseline routing states) into the binary snapshot format
// (data/snapshot.h) that asppi_serve and the --snapshot fast path of the
// batch tools load by mmap.
//
//   $ asppi_snapshot --topo=topology.topo --out=topology.snap
//   $ asppi_snapshot --topo=topology.topo --out=topology.snap
//       --baselines=3831,9002 --lambda=4 --policy=3831:4
//   $ asppi_snapshot --topo=topology.topo --out=defended.snap
//       --defense=top-degree:0.3:rov+pathval
//   $ asppi_snapshot --info --topo=topology.snap
//
// --defense embeds a per-AS defense deployment (kDefense section) that
// asppi_serve activates as the import filter for every what-if query.
//
// --baselines precomputes the attack-free converged state for each listed
// origin (announced with the snapshot policy overlaid by a uniform --lambda
// default) and embeds each as one parent slot per AS (format v4, 4 bytes per
// AS), so a server warm-starts without running propagation. --verify reloads
// the written file and cross-checks the graph and policy against the
// text-loaded corpus, and every derived baseline state against
// PropagationSimulator::Run, before reporting success.
#include <cstdio>
#include <set>

#include "attack/baseline_cache.h"
#include "bench/experiment.h"
#include "bgp/propagation.h"
#include "data/snapshot.h"
#include "defense/deployment.h"
#include "defense/policy.h"
#include "serve/service.h"
#include "util/strings.h"
#include "util/table.h"

using namespace asppi;

namespace {

// "asn:pads[,asn:pads...]" → per-origin default pad counts.
bool ParsePolicyFlag(const std::string& text, bgp::PrependPolicy* policy) {
  if (text.empty()) return true;
  for (const std::string& item : util::Split(text, ',')) {
    const std::vector<std::string> parts = util::Split(item, ':');
    std::optional<std::uint32_t> asn;
    std::optional<std::uint64_t> pads;
    if (parts.size() == 2) {
      asn = util::ParseAsn(parts[0]);
      pads = util::ParseUint(parts[1]);
    }
    if (!asn.has_value() || !pads.has_value() || *pads < 1 ||
        *pads > bgp::kMaxPads) {
      std::fprintf(stderr,
                   "error: --policy entry '%s' is not ASN:PADS "
                   "(pads in 1..%d)\n",
                   item.c_str(), bgp::kMaxPads);
      return false;
    }
    policy->SetDefault(static_cast<topo::Asn>(*asn), static_cast<int>(*pads));
  }
  return true;
}

bool ParseBaselinesFlag(const std::string& text, std::vector<topo::Asn>* out) {
  if (text.empty()) return true;
  std::set<topo::Asn> origins;
  for (const std::string& item : util::Split(text, ',')) {
    const std::optional<std::uint32_t> asn = util::ParseAsn(item);
    if (!asn.has_value()) {
      std::fprintf(stderr,
                   "error: --baselines entry '%s' is not a valid AS number\n",
                   item.c_str());
      return false;
    }
    origins.insert(static_cast<topo::Asn>(*asn));
  }
  out->assign(origins.begin(), origins.end());
  return true;
}

// "--defense=" spec → dense per-AsId tag bytes. Two forms:
//   ASN:KINDS[,ASN:KINDS...]      explicit per-AS assignment
//   STRATEGY:FRAC[:KINDS]         plan-based corpus-wide deployment, where
//                                 STRATEGY is top-degree or random
//                                 (victim-cone needs a victim and is a
//                                 per-attack notion, not a corpus property)
// KINDS is rov / pathval / detector / all or a '+'-joined combination
// (default all). `seed` feeds the random strategy's shuffle.
bool ParseDefenseFlag(const std::string& text, const topo::AsGraph& graph,
                      std::uint64_t seed, std::vector<std::uint8_t>* tags) {
  if (text.empty()) return true;
  auto bad = [&text](const char* why) {
    std::fprintf(stderr, "error: --defense spec '%s': %s\n", text.c_str(), why);
    return false;
  };
  const std::vector<std::string> head = util::Split(
      util::Split(text, ',')[0], ':');
  if (!head.empty() && defense::ParseStrategy(head[0]).has_value()) {
    const defense::Strategy strategy = *defense::ParseStrategy(head[0]);
    if (strategy == defense::Strategy::kVictimCone) {
      return bad("victim-cone plans need a victim; use asppi_defense");
    }
    if (head.size() < 2 || head.size() > 3) {
      return bad("expected STRATEGY:FRAC[:KINDS]");
    }
    const std::optional<double> frac = util::ParseDouble(head[1]);
    if (!frac.has_value() || *frac < 0.0 || *frac > 1.0) {
      return bad("FRAC must be in [0, 1]");
    }
    std::uint8_t kinds = defense::kAllPolicies;
    if (head.size() == 3) {
      const std::optional<std::uint8_t> parsed =
          defense::ParsePolicyKinds(head[2]);
      if (!parsed.has_value()) return bad("unknown KINDS");
      kinds = *parsed;
    }
    const defense::DeploymentPlan plan = defense::DeploymentPlan::Make(
        graph, strategy, /*victim=*/0, /*attacker=*/0, seed);
    *tags = plan.AtFraction(*frac, kinds).RawTags();
    return true;
  }
  defense::PolicySet set(graph);
  for (const std::string& item : util::Split(text, ',')) {
    const std::vector<std::string> parts = util::Split(item, ':');
    if (parts.size() != 2) return bad("expected ASN:KINDS entries");
    const std::optional<std::uint32_t> asn = util::ParseAsn(parts[0]);
    const std::optional<std::uint8_t> kinds =
        defense::ParsePolicyKinds(parts[1]);
    if (!asn.has_value() || !kinds.has_value()) {
      return bad("expected ASN:KINDS entries");
    }
    if (!graph.HasAs(*asn)) return bad("AS not in topology");
    set.Assign(static_cast<topo::Asn>(*asn), *kinds);
  }
  *tags = set.RawTags();
  return true;
}

// Structural graph equality (same ASes in order, same relations), the
// --verify cross-check between the text loader and the snapshot loader.
bool SameGraph(const topo::AsGraph& a, const topo::AsGraph& b) {
  if (a.NumAses() != b.NumAses() || a.NumLinks() != b.NumLinks()) return false;
  for (topo::Asn asn : a.Ases()) {
    if (!b.HasAs(asn)) return false;
    for (const auto& neighbor : a.NeighborsOf(asn)) {
      const auto rel = b.RelationOf(asn, neighbor.asn);
      if (!rel.has_value() || *rel != neighbor.rel) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Experiment e("asppi_snapshot",
                      "compile a topology into a binary snapshot");
  e.WithThreadsFlag();
  e.Flags().DefineString("topo", "topology.topo",
                         "as-rel topology file (or a snapshot, with --info)");
  e.Flags().DefineString("out", "topology.snap", "output snapshot path");
  e.Flags().DefineString("baselines", "",
                         "comma-separated origin ASNs whose attack-free "
                         "baselines are precomputed and embedded, each as "
                         "one parent slot per AS (format v4)");
  e.Flags().DefineInt("lambda", 4,
                      "default prepend count for embedded baselines (1..64)");
  e.Flags().DefineString("policy", "",
                         "prepend policy defaults to embed, as "
                         "ASN:PADS[,ASN:PADS...]");
  e.Flags().DefineString("defense", "",
                         "defense deployment to embed: ASN:KINDS[,...] or "
                         "STRATEGY:FRAC[:KINDS] (top-degree|random)");
  e.Flags().DefineUint("seed", 1, "shuffle seed for --defense=random:...");
  e.Flags().DefineBool("info", false,
                       "print the info section of --topo (a snapshot; "
                       "only format v4 loads) and exit");
  e.Flags().DefineBool("verify", false,
                       "reload the written snapshot and cross-check it "
                       "against the text-loaded corpus, and each baseline's "
                       "best routes and Adj-RIB-In against a fresh "
                       "propagation run");
  int lambda = 0;
  if (!e.ParseFlags(argc, argv) || !e.LambdaFlag(&lambda)) return 1;

  if (e.Flags().GetBool("info")) {
    data::Snapshot snapshot;
    std::string err = data::Snapshot::Load(e.Flags().GetString("topo"),
                                           snapshot);
    if (!err.empty()) {
      std::fprintf(stderr, "error reading snapshot: %s\n", err.c_str());
      return 1;
    }
    const data::SnapshotInfo& info = snapshot.Info();
    e.PrintHeader();
    std::printf("snapshot %s\n", e.Flags().GetString("topo").c_str());
    std::printf("  version:   %u\n", info.version);
    std::printf("  creator:   %s\n", info.creator.c_str());
    std::printf("  ases:      %llu\n",
                static_cast<unsigned long long>(info.num_ases));
    std::printf("  links:     %llu\n",
                static_cast<unsigned long long>(info.num_links));
    std::printf("  baselines: %llu\n",
                static_cast<unsigned long long>(info.num_baselines));
    std::printf("  defended:  %llu\n",
                static_cast<unsigned long long>(info.num_defense_tagged));
    return e.Finish();
  }

  topo::AsGraph graph;
  if (!e.LoadTopology(e.Flags().GetString("topo"), &graph)) return 1;

  bgp::PrependPolicy policy;
  if (!ParsePolicyFlag(e.Flags().GetString("policy"), &policy)) return 1;
  std::vector<topo::Asn> origins;
  if (!ParseBaselinesFlag(e.Flags().GetString("baselines"), &origins)) {
    return 1;
  }
  for (topo::Asn origin : origins) {
    if (!graph.HasAs(origin)) {
      std::fprintf(stderr, "error: --baselines origin AS%u not in topology\n",
                   origin);
      return 1;
    }
  }

  e.Note("topology: %zu ASes, %zu links", graph.NumAses(), graph.NumLinks());

  // Converge each requested origin's attack-free baseline, announced as
  // serve::AnnouncementFor derives it per request, so the embedded
  // baselines are warm cache entries, not near misses.
  std::vector<std::shared_ptr<const bgp::PropagationResult>> baselines(
      origins.size());
  if (!origins.empty()) {
    attack::BaselineCache cache(graph);
    e.Pool()->ParallelFor(origins.size(), [&](std::size_t i) {
      baselines[i] =
          cache.GetEntry(serve::AnnouncementFor(policy, origins[i], lambda))
              .state;
    });
    e.Note("converged %zu baseline(s) at lambda=%d", baselines.size(), lambda);
  }

  std::vector<std::uint8_t> defense_tags;
  if (!ParseDefenseFlag(e.Flags().GetString("defense"), graph,
                        e.Flags().GetUint("seed"), &defense_tags)) {
    return 1;
  }
  std::size_t defended = 0;
  for (std::uint8_t tag : defense_tags) defended += tag != 0 ? 1 : 0;
  if (!defense_tags.empty()) {
    e.Note("defense: %zu AS(es) tagged", defended);
  }

  const std::string out = e.Flags().GetString("out");
  std::string err = data::WriteSnapshotFile(out, graph, policy, baselines,
                                            "asppi_snapshot", defense_tags);
  if (!err.empty()) {
    std::fprintf(stderr, "error writing snapshot: %s\n", err.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu ASes, %zu links, %zu baselines, %zu defended)\n",
              out.c_str(), graph.NumAses(), graph.NumLinks(), baselines.size(),
              defended);

  if (e.Flags().GetBool("verify")) {
    data::Snapshot reloaded;
    err = data::Snapshot::Load(out, reloaded);
    if (!err.empty()) {
      std::fprintf(stderr, "verify failed: %s\n", err.c_str());
      return 1;
    }
    if (!SameGraph(graph, reloaded.Graph()) ||
        policy.KeyString() != reloaded.Policy().KeyString() ||
        reloaded.Baselines().size() != baselines.size() ||
        reloaded.DefenseTags() != defense_tags) {
      std::fprintf(stderr,
                   "verify failed: reloaded snapshot differs from the "
                   "text-loaded corpus\n");
      return 1;
    }
    // Each baseline the loader derived from its parent slots must be what
    // an independent engine converges to, PropagationSimulator::Run:
    // convergence, every best route and every Adj-RIB-In slot
    // (bgp::FirstBaselineDifference). A loaded baseline is at rest, so it
    // holds no round count or change rounds to compare.
    const bgp::PropagationSimulator engine(reloaded.Graph());
    for (std::size_t i = 0; i < baselines.size(); ++i) {
      const bgp::PropagationResult& loaded = *reloaded.Baselines()[i];
      const std::string diff = bgp::FirstBaselineDifference(
          loaded, engine.Run(loaded.GetAnnouncement()), "snapshot");
      if (!diff.empty()) {
        std::fprintf(stderr, "verify failed: baseline %zu (origin AS%u): %s\n",
                     i, baselines[i]->GetAnnouncement().origin, diff.c_str());
        return 1;
      }
    }
    e.Note("verify: snapshot round-trips the text-loaded corpus, and %zu "
           "baseline(s) match a fresh propagation run",
           baselines.size());
  }

  util::Table table({"ases", "links", "baselines", "lambda", "defended"});
  table.Row()
      .Cell(static_cast<std::uint64_t>(graph.NumAses()))
      .Cell(static_cast<std::uint64_t>(graph.NumLinks()))
      .Cell(static_cast<std::uint64_t>(baselines.size()))
      .Cell(lambda)
      .Cell(static_cast<std::uint64_t>(defended));
  e.RecordTable(table);
  return e.Finish();
}
