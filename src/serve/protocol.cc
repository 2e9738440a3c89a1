#include "serve/protocol.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "bgp/policy.h"
#include "util/json.h"
#include "util/strings.h"

namespace asppi::serve {

namespace {

using util::Json;

// Reads an integral JSON number member in [min, max]. Returns false (with
// `error` set) on a present-but-invalid member, true otherwise; `found` says
// whether the member existed.
bool ReadBoundedInt(const Json& object, const char* name, std::uint64_t min,
                    std::uint64_t max, std::uint64_t* out, bool* found,
                    std::string* error) {
  *found = false;
  const Json* member = object.Find(name);
  if (member == nullptr) return true;
  if (member->GetType() != Json::Type::kNumber) {
    *error = std::string("field '") + name + "' must be a number";
    return false;
  }
  const double v = member->AsDouble();
  if (!std::isfinite(v) || v != std::floor(v) || v < 0.0 ||
      v > 18446744073709549568.0) {
    *error = std::string("field '") + name + "' must be a non-negative integer";
    return false;
  }
  const auto value = static_cast<std::uint64_t>(v);
  if (value < min || value > max) {
    *error = std::string("field '") + name + "' out of range [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = value;
  *found = true;
  return true;
}

bool RequireAsn(const Json& object, const char* name, Asn* out,
                std::string* error) {
  std::uint64_t value = 0;
  bool found = false;
  if (!ReadBoundedInt(object, name,
                      /*min=*/0,
                      /*max=*/std::numeric_limits<std::uint32_t>::max(), &value,
                      &found, error)) {
    return false;
  }
  if (!found) {
    *error = std::string("missing required field '") + name + "'";
    return false;
  }
  *out = static_cast<Asn>(value);
  return true;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kImpact:
      return "impact";
    case Op::kDetect:
      return "detect";
    case Op::kRoute:
      return "route";
    case Op::kDefense:
      return "defense";
    case Op::kStrategy:
      return "strategy";
    case Op::kStats:
      return "stats";
    case Op::kHealth:
      return "health";
    case Op::kReload:
      return "reload";
  }
  return "unknown";
}

std::string ParseRequest(std::string_view line, Request* out) {
  std::string error;
  std::optional<Json> parsed = Json::Parse(line, &error);
  if (!parsed.has_value()) return "bad request JSON: " + error;
  const Json& object = *parsed;
  if (!object.IsObject()) return "request must be a JSON object";

  const Json* op = object.Find("op");
  if (op == nullptr) return "missing required field 'op'";
  if (op->GetType() != Json::Type::kString) return "field 'op' must be a string";

  Request request;
  const std::string& name = op->AsString();
  if (name == "impact") {
    request.op = Op::kImpact;
  } else if (name == "detect") {
    request.op = Op::kDetect;
  } else if (name == "route") {
    request.op = Op::kRoute;
  } else if (name == "defense") {
    request.op = Op::kDefense;
  } else if (name == "strategy") {
    request.op = Op::kStrategy;
  } else if (name == "stats") {
    request.op = Op::kStats;
  } else if (name == "health") {
    request.op = Op::kHealth;
  } else if (name == "reload") {
    request.op = Op::kReload;
  } else {
    return "unknown op '" + name + "'";
  }

  if (request.op == Op::kImpact || request.op == Op::kDetect ||
      request.op == Op::kDefense || request.op == Op::kStrategy) {
    if (!RequireAsn(object, "victim", &request.victim, &error)) return error;
    if (!RequireAsn(object, "attacker", &request.attacker, &error)) return error;
    if (request.victim == request.attacker) {
      return "victim and attacker must differ";
    }
    // "violate" picks the fixed attacker's valley stance; the strategy op's
    // search space already spans policy-violating exports, so the knob does
    // not apply there (and must stay zero for CanonicalKey uniformity).
    if (request.op != Op::kStrategy) {
      const Json* violate = object.Find("violate");
      if (violate != nullptr) {
        if (violate->GetType() != Json::Type::kBool) {
          return "field 'violate' must be a boolean";
        }
        request.violate_valley_free = violate->AsBool();
      }
    }
  }
  if (request.op == Op::kRoute) {
    if (!RequireAsn(object, "origin", &request.victim, &error)) return error;
    if (!RequireAsn(object, "observer", &request.observer, &error)) return error;
  }
  if (request.op == Op::kImpact || request.op == Op::kDetect ||
      request.op == Op::kRoute || request.op == Op::kDefense ||
      request.op == Op::kStrategy) {
    std::uint64_t value = 0;
    bool found = false;
    if (!ReadBoundedInt(object, "lambda", 1, bgp::kMaxPads, &value, &found,
                        &error)) {
      return error;
    }
    if (found) request.lambda = static_cast<int>(value);
  }
  if (request.op == Op::kStrategy) {
    std::uint64_t value = 0;
    bool found = false;
    if (!ReadBoundedInt(object, "beam", 1, 16, &value, &found, &error)) {
      return error;
    }
    if (found) request.beam = static_cast<std::size_t>(value);
    if (!ReadBoundedInt(object, "rounds", 1, 8, &value, &found, &error)) {
      return error;
    }
    if (found) request.search_rounds = static_cast<std::size_t>(value);
  }
  if (request.op == Op::kDefense) {
    request.deploy_frac = 1.0;
    request.deploy_kinds = defense::kAllPolicies;
    request.deploy_seed = 1;
    const Json* strategy = object.Find("strategy");
    if (strategy != nullptr) {
      if (strategy->GetType() != Json::Type::kString) {
        return "field 'strategy' must be a string";
      }
      const std::optional<defense::Strategy> parsed_strategy =
          defense::ParseStrategy(strategy->AsString());
      if (!parsed_strategy.has_value()) {
        return "unknown strategy '" + strategy->AsString() + "'";
      }
      request.deploy_strategy = *parsed_strategy;
    }
    const Json* frac = object.Find("frac");
    if (frac != nullptr) {
      if (frac->GetType() != Json::Type::kNumber) {
        return "field 'frac' must be a number";
      }
      const double v = frac->AsDouble();
      if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
        return "field 'frac' out of range [0, 1]";
      }
      request.deploy_frac = v;
    }
    const Json* policies = object.Find("policies");
    if (policies != nullptr) {
      if (policies->GetType() != Json::Type::kString) {
        return "field 'policies' must be a string";
      }
      const std::optional<std::uint8_t> kinds =
          defense::ParsePolicyKinds(policies->AsString());
      if (!kinds.has_value()) {
        return "unknown policies '" + policies->AsString() + "'";
      }
      request.deploy_kinds = *kinds;
    }
    std::uint64_t value = 0;
    bool found = false;
    if (!ReadBoundedInt(object, "seed", 1,
                        std::numeric_limits<std::uint64_t>::max() - 2048, &value,
                        &found, &error)) {
      return error;
    }
    if (found) request.deploy_seed = value;
  }
  if (request.op == Op::kDetect) {
    std::uint64_t value = 0;
    bool found = false;
    if (!ReadBoundedInt(object, "monitors", 1, 65536, &value, &found, &error)) {
      return error;
    }
    if (found) request.monitors = static_cast<std::size_t>(value);
  }
  *out = request;
  return "";
}

std::string CanonicalKey(const Request& request) {
  // Unused fields are always zero after ParseRequest, so one fixed-order
  // rendering covers every op without per-op cases.
  std::string key = OpName(request.op);
  key += '|';
  key += std::to_string(request.victim);
  key += '|';
  key += std::to_string(request.attacker);
  key += '|';
  key += std::to_string(request.observer);
  key += '|';
  key += std::to_string(request.lambda);
  key += '|';
  key += std::to_string(request.monitors);
  key += '|';
  key += request.violate_valley_free ? '1' : '0';
  key += '|';
  key += defense::StrategyName(request.deploy_strategy);
  key += '|';
  // %.17g round-trips every double, so two distinguishable fractions can
  // never collapse onto one cache key.
  key += util::Format("%.17g", request.deploy_frac);
  key += '|';
  key += std::to_string(request.deploy_kinds);
  key += '|';
  key += std::to_string(request.deploy_seed);
  key += '|';
  key += std::to_string(request.beam);
  key += '|';
  key += std::to_string(request.search_rounds);
  return key;
}

bool IsCacheable(Op op) {
  return op == Op::kImpact || op == Op::kDetect || op == Op::kRoute ||
         op == Op::kDefense || op == Op::kStrategy;
}

std::string ErrorResponse(const std::string& message) {
  Json response = Json::Object();
  response["ok"] = Json(false);
  response["error"] = Json(message);
  return response.ToString(-1);
}

}  // namespace asppi::serve
