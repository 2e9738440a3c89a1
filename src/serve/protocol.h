// The asppi_serve wire protocol: newline-delimited JSON over TCP.
//
// Each request is one JSON object on one line; each response is one JSON
// object on one line. Requests carry an "op" discriminator:
//
//   {"op":"impact","victim":V,"attacker":A}            what-if interception
//       optional: "lambda" (victim prepend count, default = server's),
//                 "violate" (attacker violates valley-free, default false)
//   {"op":"detect","victim":V,"attacker":A}            run attack + detector
//       optional: "lambda", "violate", "monitors" (top-degree vantage count)
//   {"op":"route","origin":O,"observer":B}             converged best path
//       optional: "lambda" (origin prepend count, default = server's)
//   {"op":"defense","victim":V,"attacker":A}           defended what-if
//       optional: "lambda", "violate",
//                 "strategy" ("top-degree"|"random"|"victim-cone",
//                             default top-degree),
//                 "frac" (deployment fraction in [0,1], default 1.0),
//                 "policies" ("rov"/"pathval"/"detector"/"all" or '+'-joined,
//                             default "all"),
//                 "seed" (deployment seed for the random strategy, default 1)
//       Runs the interception twice — undefended, and with the requested
//       deployment active as the engines' import filter — and reports both
//       pollution fractions.
//   {"op":"strategy","victim":V,"attacker":A}          worst-case attacker
//       optional: "lambda", "beam" (beam width, [1, 16], default 4),
//                 "rounds" (mutation rounds, [1, 8], default 2)
//       Beam-searches the strategic AttackerProgram space (per-neighbor
//       withhold/partial-strip/poison/forced-export) for the pair and
//       reports the worst program found next to the paper model's
//       pollution; best >= paper by construction (the paper model seeds
//       the beam).
//   {"op":"stats"}                                     cache/latency/counters
//   {"op":"health"}                                    liveness + corpus size
//   {"op":"reload"}                                    swap in a new epoch
//       Admin op: the front end intercepts it before service dispatch
//       (serve/epoch.h) and answer with the new epoch id, or an error when
//       no snapshot source is configured. In-flight queries keep the epoch
//       they started on.
//
// Responses always contain "ok" (bool); failures add "error" with a message
// (parse failures include the line/column from util::Json::Parse). The server
// may also answer {"ok":false,"error":"overloaded",...} under backpressure
// without ever parsing the request body.
//
// ParseRequest validates shape strictly: ASN fields must be integral JSON
// numbers in [0, 2^32-1], "lambda" in [1, 64], "monitors" in [1, 65536] —
// so a malformed or hostile line is rejected before it reaches the
// simulation engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "defense/deployment.h"
#include "defense/policy.h"
#include "topology/types.h"

namespace asppi::serve {

using topo::Asn;

enum class Op {
  kImpact,
  kDetect,
  kRoute,
  kDefense,
  kStrategy,
  kStats,
  kHealth,
  kReload,
};

// One past the last Op value (sizes per-op counter arrays).
inline constexpr int kOpCount = static_cast<int>(Op::kReload) + 1;

const char* OpName(Op op);

struct Request {
  Op op = Op::kHealth;
  Asn victim = 0;    // impact/detect/defense; the announcement origin for route
  Asn attacker = 0;  // impact/detect/defense
  Asn observer = 0;  // route
  int lambda = 0;    // 0 = use the service default
  std::size_t monitors = 0;  // 0 = use the service default
  bool violate_valley_free = false;
  // defense only; zero elsewhere so CanonicalKey stays op-uniform.
  defense::Strategy deploy_strategy = defense::Strategy::kTopDegree;
  double deploy_frac = 0.0;
  std::uint8_t deploy_kinds = 0;     // defense::PolicyKind mask
  std::uint64_t deploy_seed = 0;
  // strategy only; zero elsewhere (0 = use the service defaults).
  std::size_t beam = 0;
  std::size_t search_rounds = 0;
};

// Parses and validates one request line. Returns "" on success (filling
// `out`), else a human-readable error message.
std::string ParseRequest(std::string_view line, Request* out);

// Canonical byte key for the result cache: a fixed-order rendering of every
// request field that can affect the response. Two requests with the same
// canonical key — however their JSON was spelled — get the same answer, which
// is what makes cache hits safe.
std::string CanonicalKey(const Request& request);

// True for ops whose responses are pure functions of the request (and thus
// cacheable); stats/health reflect live server state and are not.
bool IsCacheable(Op op);

// Serialized {"ok":false,"error":message} line (no trailing newline).
std::string ErrorResponse(const std::string& message);

}  // namespace asppi::serve
