// The serve subsystem: protocol parsing/validation, QueryService equivalence
// with direct library computation (the acceptance property — a what-if answer
// over the wire is byte-for-byte what the batch tools compute), and
// result-cache correctness. The concurrent suite is a TSan target. The TCP
// front end's behavior is pinned in reactor_test.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/impact.h"
#include "defense/deployment.h"
#include "defense/policy.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "topology/generator.h"
#include "util/json.h"
#include "util/rng.h"

namespace asppi::serve {
namespace {

topo::GeneratedTopology TestTopology() {
  topo::GeneratorParams params;
  params.seed = 5;
  params.num_tier1 = 4;
  params.num_tier2 = 15;
  params.num_tier3 = 40;
  params.num_stubs = 120;
  params.num_content = 3;
  return topo::GenerateInternetTopology(params);
}

util::Json MustParse(const std::string& text) {
  std::string error;
  auto parsed = util::Json::Parse(text, &error);
  EXPECT_TRUE(parsed.has_value()) << error << " in: " << text;
  return parsed ? *parsed : util::Json();
}

// --- protocol ----------------------------------------------------------------

TEST(Protocol, ParsesEveryOp) {
  Request request;
  EXPECT_EQ(ParseRequest(R"({"op":"impact","victim":7,"attacker":9})",
                         &request),
            "");
  EXPECT_EQ(request.op, Op::kImpact);
  EXPECT_EQ(request.victim, 7u);
  EXPECT_EQ(request.attacker, 9u);
  EXPECT_EQ(request.lambda, 0);
  EXPECT_FALSE(request.violate_valley_free);

  EXPECT_EQ(ParseRequest(
                R"({"op":"detect","victim":7,"attacker":9,"lambda":6,)"
                R"("monitors":50,"violate":true})",
                &request),
            "");
  EXPECT_EQ(request.op, Op::kDetect);
  EXPECT_EQ(request.lambda, 6);
  EXPECT_EQ(request.monitors, 50u);
  EXPECT_TRUE(request.violate_valley_free);

  EXPECT_EQ(ParseRequest(R"({"op":"route","origin":3,"observer":12})",
                         &request),
            "");
  EXPECT_EQ(request.op, Op::kRoute);
  EXPECT_EQ(request.victim, 3u);  // origin rides in the victim slot
  EXPECT_EQ(request.observer, 12u);

  EXPECT_EQ(ParseRequest(R"({"op":"stats"})", &request), "");
  EXPECT_EQ(request.op, Op::kStats);
  EXPECT_EQ(ParseRequest(R"({"op":"health"})", &request), "");
  EXPECT_EQ(request.op, Op::kHealth);
}

TEST(Protocol, RejectsMalformedRequests) {
  const char* kBad[] = {
      "",                                              // empty line
      "not json",                                      // parse failure
      "[1,2,3]",                                       // not an object
      R"({"victim":1,"attacker":2})",                  // missing op
      R"({"op":"frobnicate"})",                        // unknown op
      R"({"op":"impact","victim":1})",                 // missing attacker
      R"({"op":"impact","attacker":2})",               // missing victim
      R"({"op":"impact","victim":5,"attacker":5})",    // victim == attacker
      R"({"op":"impact","victim":-1,"attacker":2})",   // negative ASN
      R"({"op":"impact","victim":1.5,"attacker":2})",  // fractional ASN
      R"({"op":"impact","victim":4294967296,"attacker":2})",  // > 2^32-1
      R"({"op":"impact","victim":"1","attacker":2})",  // string ASN
      R"({"op":"impact","victim":1,"attacker":2,"lambda":0})",   // λ < 1
      R"({"op":"impact","victim":1,"attacker":2,"lambda":65})",  // λ > 64
      R"({"op":"detect","victim":1,"attacker":2,"monitors":0})",
      R"({"op":"detect","victim":1,"attacker":2,"monitors":70000})",
      R"({"op":"impact","victim":1,"attacker":2,"violate":1})",  // non-bool
      R"({"op":"route","origin":1})",                  // missing observer
  };
  for (const char* line : kBad) {
    Request request;
    EXPECT_NE(ParseRequest(line, &request), "") << "accepted: " << line;
  }
}

TEST(Protocol, ParseErrorsCarryJsonPosition) {
  Request request;
  const std::string err = ParseRequest("{\"op\" \"impact\"}", &request);
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("column"), std::string::npos) << err;
}

TEST(Protocol, CanonicalKeyIgnoresJsonSpelling) {
  // Same request, three spellings: field order, whitespace, and an explicit
  // default must all map to one cache key.
  Request a, b, c;
  ASSERT_EQ(ParseRequest(
                R"({"op":"impact","victim":7,"attacker":9,"violate":false})",
                &a),
            "");
  ASSERT_EQ(ParseRequest(R"({ "attacker": 9, "victim": 7, "op": "impact" })",
                         &b),
            "");
  ASSERT_EQ(ParseRequest(R"({"op":"impact","victim":7,"attacker":9})", &c),
            "");
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(c));

  Request different;
  ASSERT_EQ(ParseRequest(
                R"({"op":"impact","victim":7,"attacker":9,"lambda":6})",
                &different),
            "");
  EXPECT_NE(CanonicalKey(a), CanonicalKey(different));
}

TEST(Protocol, CanonicalKeyZeroesFieldsTheOpIgnores) {
  // A route request never reads "monitors"; ParseRequest must not let stray
  // fields poison the key (two identical routes → one cache entry).
  Request a, b;
  ASSERT_EQ(ParseRequest(R"({"op":"route","origin":3,"observer":12})", &a),
            "");
  ASSERT_EQ(ParseRequest(
                R"({"op":"route","origin":3,"observer":12,"monitors":99})",
                &b),
            "");
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST(Protocol, ParsesDefenseWithDefaults) {
  Request request;
  ASSERT_EQ(ParseRequest(R"({"op":"defense","victim":7,"attacker":9})",
                         &request),
            "");
  EXPECT_EQ(request.op, Op::kDefense);
  EXPECT_EQ(request.deploy_strategy, defense::Strategy::kTopDegree);
  EXPECT_EQ(request.deploy_frac, 1.0);
  EXPECT_EQ(request.deploy_kinds, defense::kAllPolicies);
  EXPECT_EQ(request.deploy_seed, 1u);

  ASSERT_EQ(ParseRequest(
                R"({"op":"defense","victim":7,"attacker":9,)"
                R"("strategy":"victim-cone","frac":0.25,)"
                R"("policies":"rov+detector","seed":42})",
                &request),
            "");
  EXPECT_EQ(request.deploy_strategy, defense::Strategy::kVictimCone);
  EXPECT_EQ(request.deploy_frac, 0.25);
  EXPECT_EQ(request.deploy_kinds,
            static_cast<std::uint8_t>(defense::kRov | defense::kInlineDetector));
  EXPECT_EQ(request.deploy_seed, 42u);

  const char* kBad[] = {
      R"({"op":"defense","victim":7,"attacker":9,"strategy":"magic"})",
      R"({"op":"defense","victim":7,"attacker":9,"frac":1.5})",
      R"({"op":"defense","victim":7,"attacker":9,"frac":-0.1})",
      R"({"op":"defense","victim":7,"attacker":9,"policies":"rpki"})",
      R"({"op":"defense","victim":7,"attacker":9,"frac":"half"})",
  };
  for (const char* line : kBad) {
    EXPECT_NE(ParseRequest(line, &request), "") << "accepted: " << line;
  }
}

TEST(Protocol, DefenseCanonicalKeySeparatesDeployments) {
  // The cache-aliasing regression: two defense requests differing only in a
  // deployment knob must never share a cache key.
  auto parse = [](const std::string& line) {
    Request request;
    EXPECT_EQ(ParseRequest(line, &request), "") << line;
    return request;
  };
  const Request base =
      parse(R"({"op":"defense","victim":7,"attacker":9,"frac":0.25})");
  EXPECT_EQ(CanonicalKey(base),
            CanonicalKey(parse(
                R"({"frac":0.250,"attacker":9,"victim":7,"op":"defense"})")));
  EXPECT_NE(CanonicalKey(base),
            CanonicalKey(parse(
                R"({"op":"defense","victim":7,"attacker":9,"frac":0.75})")));
  EXPECT_NE(CanonicalKey(base),
            CanonicalKey(parse(R"({"op":"defense","victim":7,"attacker":9,)"
                               R"("frac":0.25,"strategy":"random"})")));
  EXPECT_NE(CanonicalKey(base),
            CanonicalKey(parse(R"({"op":"defense","victim":7,"attacker":9,)"
                               R"("frac":0.25,"policies":"rov"})")));
  EXPECT_NE(CanonicalKey(base),
            CanonicalKey(parse(R"({"op":"defense","victim":7,"attacker":9,)"
                               R"("frac":0.25,"seed":2})")));
  // And a defense request never aliases the plain impact of the same pair.
  EXPECT_NE(CanonicalKey(base),
            CanonicalKey(parse(R"({"op":"impact","victim":7,"attacker":9})")));
}

TEST(Protocol, ParsesStrategyWithDefaults) {
  Request request;
  ASSERT_EQ(ParseRequest(R"({"op":"strategy","victim":7,"attacker":9})",
                         &request),
            "");
  EXPECT_EQ(request.op, Op::kStrategy);
  EXPECT_EQ(request.victim, 7u);
  EXPECT_EQ(request.attacker, 9u);
  EXPECT_EQ(request.beam, 0u);          // 0 = use the service default
  EXPECT_EQ(request.search_rounds, 0u);
  ASSERT_EQ(ParseRequest(R"({"op":"strategy","victim":7,"attacker":9,)"
                         R"("lambda":4,"beam":8,"rounds":3})",
                         &request),
            "");
  EXPECT_EQ(request.lambda, 4);
  EXPECT_EQ(request.beam, 8u);
  EXPECT_EQ(request.search_rounds, 3u);
}

TEST(Protocol, StrategyRejectsOutOfRangeSearchKnobs) {
  Request request;
  for (const char* line : {
           R"({"op":"strategy","victim":7,"attacker":9,"beam":0})",
           R"({"op":"strategy","victim":7,"attacker":9,"beam":17})",
           R"({"op":"strategy","victim":7,"attacker":9,"rounds":0})",
           R"({"op":"strategy","victim":7,"attacker":9,"rounds":9})",
       }) {
    EXPECT_NE(ParseRequest(line, &request), "") << "accepted: " << line;
  }
}

TEST(Protocol, StrategyCanonicalKeySeparatesSearchKnobs) {
  auto parse = [](const std::string& line) {
    Request request;
    EXPECT_EQ(ParseRequest(line, &request), "") << line;
    return request;
  };
  const Request base =
      parse(R"({"op":"strategy","victim":7,"attacker":9})");
  EXPECT_EQ(CanonicalKey(base),
            CanonicalKey(parse(
                R"({ "attacker": 9, "op": "strategy", "victim": 7 })")));
  EXPECT_NE(CanonicalKey(base),
            CanonicalKey(parse(
                R"({"op":"strategy","victim":7,"attacker":9,"beam":8})")));
  EXPECT_NE(CanonicalKey(base),
            CanonicalKey(parse(
                R"({"op":"strategy","victim":7,"attacker":9,"rounds":3})")));
  EXPECT_NE(CanonicalKey(base),
            CanonicalKey(parse(R"({"op":"impact","victim":7,"attacker":9})")));
}

TEST(Protocol, CacheabilityAndErrors) {
  EXPECT_TRUE(IsCacheable(Op::kImpact));
  EXPECT_TRUE(IsCacheable(Op::kDetect));
  EXPECT_TRUE(IsCacheable(Op::kRoute));
  EXPECT_TRUE(IsCacheable(Op::kDefense));
  EXPECT_FALSE(IsCacheable(Op::kStats));
  EXPECT_FALSE(IsCacheable(Op::kHealth));

  const util::Json error = MustParse(ErrorResponse("boom \"quoted\""));
  EXPECT_FALSE(error.Find("ok")->AsBool());
  EXPECT_EQ(error.Find("error")->AsString(), "boom \"quoted\"");
}

// --- service equivalence -----------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : gen_(TestTopology()) {}

  topo::GeneratedTopology gen_;
};

TEST_F(ServiceTest, ImpactMatchesDirectSimulation) {
  QueryService service(gen_.graph, {});
  const topo::Asn victim = gen_.stubs[2];
  const topo::Asn attacker = gen_.tier2[0];

  const std::string response = service.Handle(
      R"({"op":"impact","victim":)" + std::to_string(victim) +
      R"(,"attacker":)" + std::to_string(attacker) + "}");
  const util::Json json = MustParse(response);
  ASSERT_TRUE(json.Find("ok")->AsBool()) << response;

  attack::AttackSimulator simulator(gen_.graph);
  const auto outcome = simulator.RunAsppInterception(
      victim, attacker, service.Options().default_lambda);
  EXPECT_EQ(json.Find("fraction_before")->AsDouble(),
            outcome.fraction_before);
  EXPECT_EQ(json.Find("fraction_after")->AsDouble(), outcome.fraction_after);
  EXPECT_EQ(json.Find("newly_polluted")->AsDouble(),
            static_cast<double>(outcome.newly_polluted.size()));
  EXPECT_EQ(json.Find("lambda")->AsDouble(),
            static_cast<double>(service.Options().default_lambda));
}

TEST_F(ServiceTest, StrategyOpDominatesThePaperModel) {
  QueryService service(gen_.graph, {});
  const topo::Asn victim = gen_.stubs[2];
  const topo::Asn attacker = gen_.tier2[0];
  const std::string line =
      R"({"op":"strategy","victim":)" + std::to_string(victim) +
      R"(,"attacker":)" + std::to_string(attacker) +
      R"(,"beam":2,"rounds":1})";
  const util::Json json = MustParse(service.Handle(line));
  ASSERT_TRUE(json.Find("ok")->AsBool());
  const double paper = json.Find("fraction_after_paper")->AsDouble();
  const double best = json.Find("fraction_after_best")->AsDouble();
  EXPECT_GE(best, paper);  // the dominance gate, served over the wire
  EXPECT_DOUBLE_EQ(json.Find("gap")->AsDouble(), best - paper);
  EXPECT_GT(json.Find("programs_scored")->AsDouble(), 0.0);
  EXPECT_FALSE(json.Find("best_program")->AsString().empty());
  EXPECT_EQ(json.Find("beam")->AsDouble(), 2.0);
  EXPECT_EQ(json.Find("rounds")->AsDouble(), 1.0);

  // The search's paper-model seed is the impact op's attacker: the scores
  // must agree exactly, or the served gap would be measured against a
  // different baseline than the one the impact endpoint reports.
  const util::Json impact = MustParse(service.Handle(
      R"({"op":"impact","victim":)" + std::to_string(victim) +
      R"(,"attacker":)" + std::to_string(attacker) + "}"));
  ASSERT_TRUE(impact.Find("ok")->AsBool());
  EXPECT_EQ(impact.Find("fraction_after")->AsDouble(), paper);

  const util::Json stats = MustParse(service.Handle(R"({"op":"stats"})"));
  EXPECT_EQ(stats.Find("requests")->Find("strategy")->AsDouble(), 1.0);
}

TEST_F(ServiceTest, RouteMatchesConvergedBaseline) {
  QueryService service(gen_.graph, {});
  const topo::Asn origin = gen_.stubs[4];
  const topo::Asn observer = gen_.tier1[1];
  constexpr int kLambda = 3;

  const std::string response = service.Handle(
      R"({"op":"route","origin":)" + std::to_string(origin) +
      R"(,"observer":)" + std::to_string(observer) +
      R"(,"lambda":3})");
  const util::Json json = MustParse(response);
  ASSERT_TRUE(json.Find("ok")->AsBool()) << response;
  ASSERT_TRUE(json.Find("found")->AsBool()) << response;

  bgp::PropagationSimulator engine(gen_.graph);
  bgp::Announcement announcement;
  announcement.origin = origin;
  announcement.prepends.SetDefault(origin, kLambda);
  const auto result = engine.Run(announcement);
  const auto& best = result.BestAt(observer);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(json.Find("path")->AsString(), best->path.ToString());
  EXPECT_EQ(json.Find("hops")->AsDouble(),
            static_cast<double>(best->path.Length()));
}

TEST_F(ServiceTest, RouteAtOriginReportsNoPath) {
  QueryService service(gen_.graph, {});
  const topo::Asn origin = gen_.stubs[0];
  const std::string response = service.Handle(
      R"({"op":"route","origin":)" + std::to_string(origin) +
      R"(,"observer":)" + std::to_string(origin) + "}");
  const util::Json json = MustParse(response);
  ASSERT_TRUE(json.Find("ok")->AsBool()) << response;
  EXPECT_FALSE(json.Find("found")->AsBool()) << response;
}

TEST_F(ServiceTest, DetectReportsAttackConsistently) {
  QueryService service(gen_.graph, {});
  const topo::Asn victim = gen_.stubs[6];
  const topo::Asn attacker = gen_.tier2[2];
  const std::string line =
      R"({"op":"detect","victim":)" + std::to_string(victim) +
      R"(,"attacker":)" + std::to_string(attacker) + R"(,"monitors":40})";
  const util::Json json = MustParse(service.Handle(line));
  ASSERT_TRUE(json.Find("ok")->AsBool());
  ASSERT_NE(json.Find("alarms"), nullptr);
  for (const util::Json& alarm : json.Find("alarms")->Items()) {
    ASSERT_NE(alarm.Find("suspect"), nullptr);
    ASSERT_NE(alarm.Find("observer"), nullptr);
    ASSERT_NE(alarm.Find("confidence"), nullptr);
  }
  // attacker_accused ⇒ some alarm names the attacker as suspect.
  if (json.Find("attacker_accused")->AsBool()) {
    bool named = false;
    for (const util::Json& alarm : json.Find("alarms")->Items()) {
      named |= alarm.Find("suspect")->AsDouble() ==
               static_cast<double>(attacker);
    }
    EXPECT_TRUE(named);
  }
}

TEST_F(ServiceTest, CachedAndUncachedServicesAgreeByteForByte) {
  // Identical corpus, cache on vs cache off (asppi_serve --cache=0): every
  // response must be byte-identical, and a repeat through the cache must
  // return exactly the bytes the engines produced.
  ServiceOptions no_cache;
  no_cache.cache_capacity = 0;
  QueryService cached(gen_.graph, {});
  QueryService uncached(gen_.graph, {}, no_cache);

  const std::vector<std::string> lines = {
      R"({"op":"impact","victim":)" + std::to_string(gen_.stubs[1]) +
          R"(,"attacker":)" + std::to_string(gen_.tier1[0]) + "}",
      R"({"op":"route","origin":)" + std::to_string(gen_.stubs[1]) +
          R"(,"observer":)" + std::to_string(gen_.tier2[3]) + "}",
      R"({"op":"detect","victim":)" + std::to_string(gen_.stubs[3]) +
          R"(,"attacker":)" + std::to_string(gen_.tier2[1]) + "}",
  };
  for (const std::string& line : lines) {
    const std::string first = cached.Handle(line);
    EXPECT_EQ(first, uncached.Handle(line)) << line;
    EXPECT_EQ(first, cached.Handle(line)) << "cache changed bytes: " << line;
  }
  const auto stats = cached.Cache().GetStats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
  const auto ablated = uncached.Cache().GetStats();
  EXPECT_EQ(ablated.entries, 0u);
}

TEST_F(ServiceTest, WarmedBaselineSkipsPropagationButNotCorrectness) {
  const topo::Asn victim = gen_.stubs[7];
  const topo::Asn attacker = gen_.tier2[4];
  constexpr int kLambda = 4;

  bgp::PropagationSimulator engine(gen_.graph);
  bgp::Announcement announcement;
  announcement.origin = victim;
  announcement.prepends.SetDefault(victim, kLambda);
  auto baseline = std::make_shared<const bgp::PropagationResult>(
      engine.Run(announcement));

  QueryService warm(gen_.graph, {});
  EXPECT_EQ(warm.WarmBaselines({baseline}), 1u);
  QueryService cold(gen_.graph, {});

  const std::string line =
      R"({"op":"impact","victim":)" + std::to_string(victim) +
      R"(,"attacker":)" + std::to_string(attacker) + "}";
  EXPECT_EQ(warm.Handle(line), cold.Handle(line));
}

TEST_F(ServiceTest, DefenseOpMatchesDirectLibraryComputation) {
  QueryService service(gen_.graph, {});
  const topo::Asn victim = gen_.stubs[2];
  const topo::Asn attacker = gen_.tier2[0];

  const std::string response = service.Handle(
      R"({"op":"defense","victim":)" + std::to_string(victim) +
      R"(,"attacker":)" + std::to_string(attacker) +
      R"(,"strategy":"victim-cone","frac":0.5})");
  const util::Json json = MustParse(response);
  ASSERT_TRUE(json.Find("ok")->AsBool()) << response;

  const int lambda = service.Options().default_lambda;
  const defense::DeploymentPlan plan = defense::DeploymentPlan::Make(
      gen_.graph, defense::Strategy::kVictimCone, victim, attacker, 1);
  const defense::PolicySet policy =
      plan.AtFraction(0.5, defense::kAllPolicies);
  attack::AttackSimulator simulator(gen_.graph);
  const auto undefended =
      simulator.RunAsppInterception(victim, attacker, lambda);
  const auto defended = simulator.RunAsppInterception(
      victim, attacker, lambda, /*violate_valley_free=*/false,
      /*export_stripped_to_peers=*/true, &policy);

  // The undefended attack must actually bite here, or this test pins nothing.
  ASSERT_GT(undefended.fraction_after, undefended.fraction_before);
  EXPECT_EQ(json.Find("deployed")->AsDouble(),
            static_cast<double>(policy.DeployedCount()));
  EXPECT_EQ(json.Find("fraction_after_undefended")->AsDouble(),
            undefended.fraction_after);
  EXPECT_EQ(json.Find("fraction_after_defended")->AsDouble(),
            defended.fraction_after);
  EXPECT_EQ(json.Find("prevented")->AsDouble(),
            undefended.fraction_after - defended.fraction_after);
  EXPECT_EQ(json.Find("strategy")->AsString(), "victim-cone");
  EXPECT_EQ(json.Find("policies")->AsString(), "rov+pathval+detector");
  EXPECT_LT(defended.fraction_after, undefended.fraction_after);
}

TEST_F(ServiceTest, DefenseDeploymentPointsNeverAliasInTheCache) {
  // Same pair, two fractions: both answers must come back distinct, and a
  // repeat of each must return its own first-run bytes (cache hits, not
  // cross-contamination).
  QueryService service(gen_.graph, {});
  const std::string head =
      R"({"op":"defense","victim":)" + std::to_string(gen_.stubs[2]) +
      R"(,"attacker":)" + std::to_string(gen_.tier2[0]) +
      R"(,"strategy":"victim-cone","frac":)";
  const std::string low = head + "0.25}";
  const std::string high = head + "0.75}";

  const std::string low_first = service.Handle(low);
  const std::string high_first = service.Handle(high);
  EXPECT_NE(low_first, high_first);
  EXPECT_EQ(service.Handle(low), low_first);
  EXPECT_EQ(service.Handle(high), high_first);
  const auto stats = service.Cache().GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);

  const util::Json low_json = MustParse(low_first);
  const util::Json high_json = MustParse(high_first);
  // Nested plans: the bigger deployment prevents at least as much.
  EXPECT_GE(high_json.Find("prevented")->AsDouble(),
            low_json.Find("prevented")->AsDouble());
  EXPECT_GT(high_json.Find("deployed")->AsDouble(),
            low_json.Find("deployed")->AsDouble());
}

TEST_F(ServiceTest, ActiveDefenseChangesWhatIfAnswersWithoutKeyAliasing) {
  // A corpus-wide deployment (ServiceOptions.active_defense — the snapshot
  // kDefense path) must change impact answers, and its digest in the cache
  // key must keep defended bytes from ever masquerading as undefended ones.
  const topo::Asn victim = gen_.stubs[2];
  const topo::Asn attacker = gen_.tier2[0];
  const defense::DeploymentPlan plan = defense::DeploymentPlan::Make(
      gen_.graph, defense::Strategy::kTopDegree, victim, attacker, 1);
  auto deployment = std::make_shared<const defense::PolicySet>(
      plan.AtFraction(1.0, defense::kAllPolicies));

  ServiceOptions defended_options;
  defended_options.active_defense = deployment;
  QueryService defended(gen_.graph, {}, defended_options);
  QueryService undefended(gen_.graph, {});

  const std::string line =
      R"({"op":"impact","victim":)" + std::to_string(victim) +
      R"(,"attacker":)" + std::to_string(attacker) + "}";
  const std::string defended_first = defended.Handle(line);
  const std::string undefended_first = undefended.Handle(line);
  const util::Json defended_json = MustParse(defended_first);
  const util::Json undefended_json = MustParse(undefended_first);
  ASSERT_TRUE(defended_json.Find("ok")->AsBool());
  ASSERT_TRUE(undefended_json.Find("ok")->AsBool());
  // Full deployment of all policies stops the λ-stripping outright.
  ASSERT_GT(undefended_json.Find("fraction_after")->AsDouble(),
            undefended_json.Find("fraction_before")->AsDouble());
  EXPECT_LT(defended_json.Find("fraction_after")->AsDouble(),
            undefended_json.Find("fraction_after")->AsDouble());
  // Repeats stay byte-stable through each service's own cache.
  EXPECT_EQ(defended.Handle(line), defended_first);
  EXPECT_EQ(undefended.Handle(line), undefended_first);

  // health reports the active deployment size.
  const util::Json health = MustParse(defended.Handle(R"({"op":"health"})"));
  EXPECT_EQ(health.Find("defense_deployed")->AsDouble(),
            static_cast<double>(deployment->DeployedCount()));
  const util::Json bare = MustParse(undefended.Handle(R"({"op":"health"})"));
  EXPECT_EQ(bare.Find("defense_deployed")->AsDouble(), 0.0);
}

TEST_F(ServiceTest, StatsAndHealthAreWellFormed) {
  QueryService service(gen_.graph, {});
  service.Handle(R"({"op":"impact","victim":)" +
                 std::to_string(gen_.stubs[0]) + R"(,"attacker":)" +
                 std::to_string(gen_.tier1[0]) + "}");

  const util::Json health = MustParse(service.Handle(R"({"op":"health"})"));
  EXPECT_TRUE(health.Find("ok")->AsBool());
  EXPECT_EQ(health.Find("status")->AsString(), "serving");
  EXPECT_EQ(health.Find("ases")->AsDouble(),
            static_cast<double>(gen_.graph.NumAses()));
  EXPECT_EQ(health.Find("links")->AsDouble(),
            static_cast<double>(gen_.graph.NumLinks()));

  const util::Json stats = MustParse(service.Handle(R"({"op":"stats"})"));
  EXPECT_TRUE(stats.Find("ok")->AsBool());
  const util::Json* requests = stats.Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->Find("impact")->AsDouble(), 1.0);
  ASSERT_NE(stats.Find("cache"), nullptr);
  ASSERT_NE(stats.Find("latency"), nullptr);
  EXPECT_GE(stats.Find("latency")->Find("p99_us")->AsDouble(),
            stats.Find("latency")->Find("p50_us")->AsDouble());
}

TEST_F(ServiceTest, MalformedLineGetsStructuredError) {
  QueryService service(gen_.graph, {});
  const util::Json json = MustParse(service.Handle("{\"op\":"));
  EXPECT_FALSE(json.Find("ok")->AsBool());
  EXPECT_NE(json.Find("error")->AsString().find("line 1"), std::string::npos);
}

TEST_F(ServiceTest, ConcurrentMixedHandleIsRaceFree) {
  // TSan target: many threads hammering one service with a cacheable mix.
  // Every response for a given line must equal the single-threaded answer.
  QueryService service(gen_.graph, {});
  std::vector<std::string> lines;
  for (int i = 0; i < 4; ++i) {
    lines.push_back(R"({"op":"impact","victim":)" +
                    std::to_string(gen_.stubs[i]) + R"(,"attacker":)" +
                    std::to_string(gen_.tier2[i]) + "}");
    lines.push_back(R"({"op":"route","origin":)" +
                    std::to_string(gen_.stubs[i]) + R"(,"observer":)" +
                    std::to_string(gen_.tier1[0]) + "}");
  }
  lines.push_back(R"({"op":"stats"})");
  lines.push_back(R"({"op":"health"})");

  QueryService reference(gen_.graph, {});
  std::vector<std::string> expected;
  for (const std::string& line : lines) expected.push_back(reference.Handle(line));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const std::size_t pick = (t * 50 + i) % lines.size();
        const std::string response = service.Handle(lines[pick]);
        // stats/health answers vary over time; only pin the cacheable ops,
        // which are the last-two-excluded prefix of `lines`.
        if (pick < lines.size() - 2 && response != expected[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- request-line mutation harness ------------------------------------------

// A request as ordered (key, raw JSON value) pairs, so a mutation can rename,
// repeat, drop or retype one field before the line is rendered.
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string Render(const Fields& fields) {
  std::string line = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    line += '"' + fields[i].first + "\":" + fields[i].second;
  }
  return line + "}";
}

// Values outside most fields' bounds in protocol.h, non-finite (JSON has no
// literal for NaN or infinity, and 1e999 overflows a double), fractional, or
// of the wrong type. None is a valid beam or rounds count, so a strategy
// search widens past the valid line's beam 1, one round only where a key is
// dropped, renamed or flipped, and the result cache computes each such
// request once.
constexpr const char* kHostileValues[] = {
    "-1",     "0",          "17",
    "65",     "4294967296", "18446744073709551616",
    "1e308",  "1e999",      "-1e999",
    "NaN",    "Infinity",   "-0",
    "0.5",    "2.000001",   "\"12\"",
    "true",   "null",       "[]",
    "{}",     "[1,2]",      "\"\"",
    "\"impact\"", "99999999999999999999999"};

// A valid request line of one of the ops over the fixture, among a few
// (victim, attacker) pairs so the result cache bounds the engine work.
Fields ValidRequest(const topo::GeneratedTopology& gen, util::Rng& rng) {
  const std::size_t pair = rng.Below(3);
  const std::string victim = std::to_string(gen.stubs[pair]);
  const std::string attacker = std::to_string(gen.tier2[pair]);
  switch (rng.Below(8)) {
    case 0:
      return {{"op", "\"impact\""}, {"victim", victim}, {"attacker", attacker},
              {"lambda", "3"},      {"violate", "false"}};
    case 1:
      return {{"op", "\"detect\""}, {"victim", victim}, {"attacker", attacker},
              {"monitors", "8"}};
    case 2:
      return {{"op", "\"route\""}, {"origin", victim}, {"observer", attacker},
              {"lambda", "2"}};
    case 3:
      return {{"op", "\"defense\""},     {"victim", victim},
              {"attacker", attacker},    {"strategy", "\"random\""},
              {"frac", "0.5"},           {"policies", "\"rov+pathval\""},
              {"seed", "3"}};
    case 4:
      return {{"op", "\"strategy\""}, {"victim", victim},
              {"attacker", attacker}, {"beam", "1"}, {"rounds", "1"}};
    case 5:
      return {{"op", "\"stats\""}};
    case 6:
      return {{"op", "\"health\""}};
    default:
      return {{"op", "\"reload\""}};
  }
}

// `inner` inside `depth` array levels.
std::string Nested(std::size_t depth, const std::string& inner) {
  return std::string(depth, '[') + inner + std::string(depth, ']');
}

// One to three mutations of a valid request: renamed, repeated or dropped
// keys and hostile or deeply nested values on the fields, then byte flips,
// truncation or nesting of the whole line past Json::kMaxDepth.
std::string MutatedLine(Fields fields, util::Rng& rng) {
  const std::size_t past_cap = util::Json::kMaxDepth + 1 + rng.Below(200);
  const std::size_t edits = 1 + rng.Below(3);
  std::vector<std::size_t> byte_edits;
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.Below(fields.size());
    switch (rng.Below(9)) {
      case 0: {  // a renamed key: another field's name, or a near miss
        static const char* const kKeys[] = {
            "op",   "victim", "attacker", "origin", "observer", "lambda",
            "beam", "rounds", "monitors", "frac",   "violate",  ""};
        fields[at].first = rng.Chance(0.5)
                               ? std::string(kKeys[rng.Below(std::size(kKeys))])
                               : fields[at].first + "_";
        break;
      }
      case 1: {  // a repeated key, with its own or a hostile value
        std::pair<std::string, std::string> copy = fields[at];
        if (rng.Chance(0.5)) {
          copy.second = kHostileValues[rng.Below(std::size(kHostileValues))];
        }
        fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(
                                           rng.Below(fields.size() + 1)),
                      std::move(copy));
        break;
      }
      case 2:  // a dropped key
        fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(at));
        if (fields.empty()) fields.push_back({"op", "\"health\""});
        break;
      case 3:
      case 4:  // a hostile value
        fields[at].second =
            kHostileValues[rng.Below(std::size(kHostileValues))];
        break;
      case 5:  // a value nested past the cap, or just inside it
        fields[at].second = Nested(
            rng.Chance(0.8) ? past_cap : util::Json::kMaxDepth - 1, "1");
        break;
      default:  // byte flips, truncation and whole-line nesting
        byte_edits.push_back(rng.Below(3));
        break;
    }
  }
  std::string line = Render(fields);
  for (const std::size_t kind : byte_edits) {
    if (line.empty()) break;
    if (kind == 0) {
      line[rng.Below(line.size())] ^= static_cast<char>(1u << rng.Below(8));
    } else if (kind == 1) {
      line.resize(rng.Below(line.size()));
    } else {
      line = Nested(past_cap, line);
    }
  }
  return line;
}

TEST_F(ServiceTest, MutatedRequestLinesAlwaysGetOneWellFormedAnswer) {
  // 2,000 request lines, each a valid request of one of the ops mutated from
  // DeriveSeed(kSeed, i). Every answer is one JSON object with a boolean
  // "ok", and an "error" string when it is false; no line may abort.
  constexpr std::uint64_t kSeed = 24;
  constexpr std::size_t kLines = 2000;
  QueryService service(gen_.graph, {});
  std::size_t ok = 0;
  std::size_t errors = 0;
  for (std::size_t i = 0; i < kLines; ++i) {
    util::Rng rng(util::DeriveSeed(kSeed, i));
    const std::string line = MutatedLine(ValidRequest(gen_, rng), rng);
    const std::string response = service.Handle(line);
    std::string parse_error;
    const std::optional<util::Json> answer =
        util::Json::Parse(response, &parse_error);
    ASSERT_TRUE(answer.has_value() && answer->IsObject() &&
                response.find('\n') == std::string::npos)
        << "line " << i << ": " << line << "\nanswer: " << response << " ("
        << parse_error << ")";
    const util::Json* ok_field = answer->Find("ok");
    ASSERT_TRUE(ok_field != nullptr &&
                ok_field->GetType() == util::Json::Type::kBool)
        << "line " << i << ": " << line << "\nanswer: " << response;
    if (ok_field->AsBool()) {
      ++ok;
      continue;
    }
    ++errors;
    const util::Json* error = answer->Find("error");
    ASSERT_TRUE(error != nullptr &&
                error->GetType() == util::Json::Type::kString)
        << "line " << i << ": " << line << "\nanswer: " << response;
  }
  // Mutated lines take both paths: answers (engine ops among them) and
  // errors.
  EXPECT_GT(ok, kLines / 20);
  EXPECT_GT(errors, kLines / 2);
}

}  // namespace
}  // namespace asppi::serve
