#include "defense/policy.h"

#include "detect/rules.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace asppi::defense {

namespace {

// Defense counters (DESIGN.md §4j). Work counters only: a deterministic
// workload filters the same routes regardless of thread count, so totals are
// bit-identical for any --threads (asserted by tests/metrics_test.cc).
struct DefenseMetrics {
  util::Counter evaluations{"defense.accept.evaluations"};
  util::Counter rov_filtered{"defense.rov.filtered"};
  util::Counter pathval_filtered{"defense.pathval.filtered"};
  util::Counter detector_filtered{"defense.detector.filtered"};
  util::Counter detector_alarms{"defense.detector.alarms"};
};

DefenseMetrics& Instr() {
  static DefenseMetrics* m = new DefenseMetrics();
  return *m;
}

// Does `path` carry the §II-B prepend-strip signature under `prepends`?
// Every maximal run of an AS X on a legitimate path has exactly
// PadsFor(X, successor) copies, where the successor is the AS that X
// exported to — the hop adjacent to the run on the receiver side
// (`receiver_asn` for the first run). A shorter run proves someone removed
// copies. Runs can never merge on loop-free paths (the engines discard
// looped deliveries before the filter runs), so the per-run check is exact.
bool PathLooksStripped(Asn receiver_asn, const bgp::AsPath& path,
                       const bgp::PrependPolicy& prepends) {
  const std::span<const Asn> hops = path.Hops();
  Asn successor = receiver_asn;
  std::size_t i = 0;
  while (i < hops.size()) {
    const Asn run_asn = hops[i];
    std::size_t run = 0;
    while (i < hops.size() && hops[i] == run_asn) {
      ++run;
      ++i;
    }
    if (static_cast<int>(run) < prepends.PadsFor(run_asn, successor)) {
      return true;
    }
    successor = run_asn;
  }
  return false;
}

}  // namespace

std::optional<std::uint8_t> ParsePolicyKinds(const std::string& text) {
  std::uint8_t kinds = kNoPolicy;
  for (const std::string& part : util::Split(text, '+')) {
    if (part == "rov") {
      kinds |= kRov;
    } else if (part == "pathval") {
      kinds |= kPathValidation;
    } else if (part == "detector") {
      kinds |= kInlineDetector;
    } else if (part == "all") {
      kinds |= kAllPolicies;
    } else if (part == "none" || part.empty()) {
      // no-op
    } else {
      return std::nullopt;
    }
  }
  return kinds;
}

std::string PolicyKindsName(std::uint8_t kinds) {
  if ((kinds & kAllPolicies) == 0) return "none";
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += '+';
    out += name;
  };
  if (kinds & kRov) append("rov");
  if (kinds & kPathValidation) append("pathval");
  if (kinds & kInlineDetector) append("detector");
  return out;
}

PolicySet::PolicySet(const topo::AsGraph& graph)
    : graph_(&graph), tags_(graph.NumAses(), 0) {}

PolicySet::PolicySet(const topo::AsGraph& graph, std::vector<std::uint8_t> tags)
    : graph_(&graph), tags_(std::move(tags)) {
  ASPPI_CHECK_EQ(tags_.size(), graph.NumAses())
      << "defense tags do not match the graph";
  for (std::uint8_t tag : tags_) {
    if (tag != 0) ++deployed_;
  }
}

void PolicySet::Assign(Asn asn, std::uint8_t kinds) {
  AssignAt(graph_->IndexOf(asn), kinds);
}

void PolicySet::AssignAt(topo::AsId id, std::uint8_t kinds) {
  if (kinds == 0) return;
  if (tags_[id] == 0) ++deployed_;
  tags_[id] |= kinds;
}

std::uint32_t PolicySet::Digest() const {
  return util::Crc32(tags_.data(), tags_.size());
}

std::string PolicySet::CacheKey() const {
  if (Empty()) return "";
  return util::Format("|defense=%08x", Digest());
}

bool PolicySet::Accept(topo::AsId receiver, Asn receiver_asn,
                       const bgp::Route& route, Asn origin,
                       const bgp::PrependPolicy& prepends) const {
  const std::uint8_t tags = tags_[receiver];
  Instr().evaluations.Add();

  if (tags & kRov) {
    if (route.path.OriginAs() != origin) {
      Instr().rov_filtered.Add();
      return false;
    }
  }
  if (tags & kPathValidation) {
    // Path validation subsumes origin validation (a signed path attests the
    // origin too) and additionally proves per-hop padding integrity.
    if (route.path.OriginAs() != origin ||
        PathLooksStripped(receiver_asn, route.path, prepends)) {
      Instr().pathval_filtered.Add();
      return false;
    }
  }
  if (tags & kInlineDetector) {
    // The victim-aware Fig. 4 rule on this single Adj-RIB-In entry. Routes
    // the rule cannot strip (foreign origin, victim mid-path) are not its
    // business — it never claims them.
    const std::optional<detect::StrippedRoute> stripped =
        detect::StripVictimPadding(route.path, origin);
    if (stripped.has_value()) {
      const std::optional<detect::Alarm> alarm =
          detect::VictimAwareAlarm(origin, receiver_asn, *stripped, prepends);
      if (alarm.has_value()) {
        Instr().detector_alarms.Add();
        Instr().detector_filtered.Add();
        return false;
      }
    }
  }
  return true;
}

}  // namespace asppi::defense
