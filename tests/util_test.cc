#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "util/crc32.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/lru_cache.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace asppi::util {
namespace {

// --- Rng ---------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    std::int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(13);
  double sum = 0.0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) sum += rng.Geometric(0.5);
  EXPECT_NEAR(sum / kTrials, 2.0, 0.1);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 30u);
  for (std::size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(17);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<std::size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, DeriveSeedIndependentStreams) {
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_EQ(DeriveSeed(5, 7), DeriveSeed(5, 7));
}

TEST(Rng, DeriveSeedHasNoLinearCollisionFamilies) {
  // Regression: an earlier DeriveSeed folded its inputs linearly —
  // SplitMix64(seed ^ (k·stream)) — so any pair with equal seed ⊕ k·stream
  // collided exactly; e.g. (s, 0) and (s ^ k, 1) produced identical
  // sub-seeds, silently aliasing fuzzer iterations across (seed, iteration)
  // pairs. The two-round mix must break every such family.
  constexpr std::uint64_t k = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t s : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    EXPECT_NE(DeriveSeed(s, 0), DeriveSeed(s ^ k, 1)) << "seed " << s;
    EXPECT_NE(DeriveSeed(s, 1), DeriveSeed(s ^ k, 2)) << "seed " << s;
    EXPECT_NE(DeriveSeed(s ^ (2 * k), 0), DeriveSeed(s, 2)) << "seed " << s;
  }
  // And a dense grid of small (seed, stream) pairs stays collision-free.
  std::set<std::uint64_t> outputs;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    for (std::uint64_t stream = 0; stream < 128; ++stream) {
      outputs.insert(DeriveSeed(seed, stream));
    }
  }
  EXPECT_EQ(outputs.size(), 32u * 128u);
}

TEST(Rng, SplitForksIndependentDeterministicStreams) {
  // Split depends only on (parent seed, stream): draining the parent first
  // must not change the fork, and equal streams fork identical sequences.
  Rng drained(99);
  (void)drained();
  (void)drained();
  Rng fork = drained.Split(5);
  Rng fresh_fork = Rng(99).Split(5);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fork(), fresh_fork()) << "draw " << i;
  }
  EXPECT_NE(Rng(99).Split(5)(), Rng(99).Split(6)());
  EXPECT_EQ(drained.Seed(), 99u);
  EXPECT_EQ(fork.Seed(), DeriveSeed(99, 5));
}

TEST(Rng, ZipfSkewsLow) {
  Rng rng(23);
  std::size_t low = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  EXPECT_GT(low, 400u);  // heavy head
}

// --- Histogram -----------------------------------------------------------

TEST(Histogram, Fractions) {
  Histogram h;
  h.Add(2, 34);
  h.Add(3, 22);
  h.Add(4, 44);
  EXPECT_EQ(h.Total(), 100u);
  EXPECT_DOUBLE_EQ(h.Fraction(2), 0.34);
  EXPECT_DOUBLE_EQ(h.Fraction(3), 0.22);
  EXPECT_DOUBLE_EQ(h.Fraction(7), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionAtLeast(3), 0.66);
  EXPECT_EQ(h.MinKey(), 2);
  EXPECT_EQ(h.MaxKey(), 4);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_TRUE(h.Empty());
  EXPECT_DOUBLE_EQ(h.Fraction(1), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionAtLeast(0), 0.0);
}

// --- Cdf -------------------------------------------------------------------

TEST(Cdf, BasicQuantiles) {
  Cdf cdf({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(cdf.At(3.0), 0.6);
  EXPECT_DOUBLE_EQ(cdf.At(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.At(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(cdf.Min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Max(), 5.0);
}

TEST(Cdf, PointsCoverRange) {
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(i);
  Cdf cdf(samples);
  auto points = cdf.Points(20);
  EXPECT_LE(points.size(), 60u);
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i - 1].first, points[i].first);
    EXPECT_LE(points[i - 1].second, points[i].second);
  }
}

// --- Summary ----------------------------------------------------------------

TEST(Summary, Accumulates) {
  Summary s;
  for (double x : {2.0, 4.0, 6.0}) s.Add(x);
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_NEAR(s.Stddev(), 1.632993, 1e-5);
}

TEST(Stats, VectorHelpers) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

// --- strings -----------------------------------------------------------------

TEST(Strings, Split) {
  EXPECT_EQ(Split("a|b|c", '|'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a||", '|'), (std::vector<std::string>{"a", "", ""}));
  EXPECT_EQ(Split("", '|'), (std::vector<std::string>{""}));
}

TEST(Strings, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  7018  3356\t32934 "),
            (std::vector<std::string>{"7018", "3356", "32934"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt(" -7 "), -7);
  EXPECT_FALSE(ParseInt("4x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("1 2").has_value());
}

TEST(Strings, ParseUintRejectsNegative) {
  EXPECT_EQ(ParseUint("32934"), 32934u);
  EXPECT_FALSE(ParseUint("-1").has_value());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.34"), 0.34);
  EXPECT_FALSE(ParseDouble("0.3.4").has_value());
}

TEST(Strings, JoinAndFormat) {
  EXPECT_EQ(Join(std::vector<int>{1, 2, 3}, " "), "1 2 3");
  EXPECT_EQ(Format("%d-%s", 5, "x"), "5-x");
}

// --- Table ---------------------------------------------------------------------

TEST(Table, CsvOutput) {
  Table t({"lambda", "polluted"});
  t.Row().Cell(1).Cell(0.30, 2);
  t.Row().Cell(2).Cell(0.80, 2);
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "lambda,polluted\n1,0.30\n2,0.80\n");
}

TEST(Table, CsvQuotesPerRfc4180) {
  Table t({"victim", "detail"});
  t.Row().Cell("AS7018").Cell("chain behind AS1, 3 pads");
  t.Row().Cell("AS1239").Cell("said \"possible\"");
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(),
            "victim,detail\n"
            "AS7018,\"chain behind AS1, 3 pads\"\n"
            "AS1239,\"said \"\"possible\"\"\"\n");
}

TEST(Table, JsonRowsKeyedByHeader) {
  Table t({"lambda", "label"});
  t.Row().Cell(2).Cell("x");
  std::ostringstream os;
  t.PrintJson(os);
  auto parsed = Json::Parse(os.str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->IsArray());
  ASSERT_EQ(parsed->Items().size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->Items()[0].Find("lambda")->AsDouble(), 2.0);
  EXPECT_EQ(parsed->Items()[0].Find("label")->AsString(), "x");
  EXPECT_EQ(*parsed, t.ToJson());
}

TEST(Table, PrettyAligns) {
  Table t({"a", "long_header"});
  t.Row().Cell(std::int64_t{1}).Cell("x");
  std::ostringstream os;
  t.PrintPretty(os);
  EXPECT_NE(os.str().find("long_header"), std::string::npos);
  EXPECT_NE(os.str().find("|"), std::string::npos);
}

// --- Flags ------------------------------------------------------------------

TEST(Flags, ParsesAllTypes) {
  Flags flags;
  flags.DefineInt("n", 5, "count");
  flags.DefineDouble("p", 0.5, "prob");
  flags.DefineBool("verbose", false, "verbosity");
  flags.DefineString("out", "x.csv", "output");
  flags.DefineUint("seed", 42, "seed");
  const char* argv[] = {"prog", "--n=7",      "--p", "0.25",
                        "--verbose", "--seed=99", "pos"};
  ASSERT_TRUE(flags.Parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("n"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("p"), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetUint("seed"), 99u);
  EXPECT_EQ(flags.GetString("out"), "x.csv");
  EXPECT_EQ(flags.Positional(), (std::vector<std::string>{"pos"}));
}

TEST(Flags, RejectsUnknownFlag) {
  Flags flags;
  flags.DefineInt("n", 5, "count");
  const char* argv[] = {"prog", "--typo=7"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(Flags, RejectsBadValue) {
  Flags flags;
  flags.DefineInt("n", 5, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(Flags, DefaultsApply) {
  Flags flags;
  flags.DefineInt("n", 5, "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("n"), 5);
}

TEST(FlagsDeathTest, DuplicateDefinitionIsFatalAndNamesTheFlag) {
  Flags flags;
  flags.DefineUint("threads", 1, "first definition");
  EXPECT_DEATH(flags.DefineUint("threads", 2, "second definition"),
               "duplicate flag --threads");
}

TEST(Flags, ValuesReportCurrentStateInNameOrder) {
  Flags flags;
  flags.DefineUint("seed", 42, "seed");
  flags.DefineBool("csv", false, "csv");
  EXPECT_TRUE(flags.IsDefined("seed"));
  EXPECT_FALSE(flags.IsDefined("nope"));
  const char* argv[] = {"prog", "--seed=7"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)));
  const auto values = flags.Values();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], (std::pair<std::string, std::string>{"csv", "false"}));
  EXPECT_EQ(values[1], (std::pair<std::string, std::string>{"seed", "7"}));
}

// --- ParseAsn ----------------------------------------------------------------

TEST(Strings, ParseAsnAcceptsFullRange) {
  EXPECT_EQ(ParseAsn("0"), 0u);
  EXPECT_EQ(ParseAsn("1"), 1u);
  EXPECT_EQ(ParseAsn("3831"), 3831u);
  EXPECT_EQ(ParseAsn("4294967295"), 4294967295u);
}

TEST(Strings, ParseAsnRejectsGarbageAndOverflow) {
  // Garbage suffixes and non-decimal spellings must be rejected, not
  // silently truncated — the tools route every ASN flag through here.
  EXPECT_FALSE(ParseAsn("").has_value());
  EXPECT_FALSE(ParseAsn("abc").has_value());
  EXPECT_FALSE(ParseAsn("12x").has_value());
  EXPECT_FALSE(ParseAsn("12 ").has_value());
  EXPECT_FALSE(ParseAsn(" 12").has_value());
  EXPECT_FALSE(ParseAsn("-1").has_value());
  EXPECT_FALSE(ParseAsn("+1").has_value());
  EXPECT_FALSE(ParseAsn("0x10").has_value());
  EXPECT_FALSE(ParseAsn("1.5").has_value());
  // One past 2^32-1: fits in uint64, not in an ASN.
  EXPECT_FALSE(ParseAsn("4294967296").has_value());
  EXPECT_FALSE(ParseAsn("99999999999999999999").has_value());
}

// --- Crc32 -------------------------------------------------------------------

TEST(Crc32, KnownAnswer) {
  // The IEEE CRC-32 check value (e.g. RFC 3720 appendix).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = Crc32(data.data(), data.size());
  std::uint32_t crc = 0;
  for (std::size_t split = 0; split <= data.size(); ++split) {
    crc = Crc32(data.data(), split);
    crc = Crc32Extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split=" << split;
  }
}

// --- Json parser -------------------------------------------------------------

TEST(JsonParse, RoundTripsRunReportShape) {
  // The --json run-report document shape (meta, metrics, rows, notes).
  Json report = Json::Object();
  Json meta = Json::Object();
  meta["binary"] = Json("perf_serve");
  meta["seed"] = Json(static_cast<std::uint64_t>(42));
  report["meta"] = std::move(meta);
  Json metrics = Json::Object();
  metrics["serve.requests"] = Json(static_cast<std::uint64_t>(12));
  metrics["frac"] = Json(0.03728123);
  report["metrics"] = std::move(metrics);
  Json rows = Json::Array();
  Json row = Json::Object();
  row["mode"] = Json("cache");
  row["p99_ms"] = Json(1.625);
  row["ok"] = Json(true);
  row["none"] = Json();
  rows.Push(std::move(row));
  report["rows"] = std::move(rows);
  Json notes = Json::Array();
  notes.Push(Json("escaped \"quotes\" and\nnewlines\tand unicode é"));
  report["notes"] = std::move(notes);

  for (int indent : {-1, 0, 2}) {
    std::string error;
    auto parsed = Json::Parse(report.ToString(indent), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_TRUE(*parsed == report) << "indent=" << indent;
    // Reserialization is byte-stable.
    EXPECT_EQ(parsed->ToString(indent), report.ToString(indent));
  }
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  struct Case {
    const char* text;
    const char* expect;  // substring of the error
  };
  const Case cases[] = {
      {"", "line 1, column 1"},
      {"{\"a\":1,}", "line 1, column 8"},
      {"{\"a\" 1}", "expected ':' after object key"},
      {"[1, 2", "line 1, column 6"},
      {"{\"a\":\n  tru}", "line 2, column 3"},
      {"\"unterminated", "unterminated string"},
      {"{\"a\":1} trailing", "trailing garbage"},
      {"[1, 1e99999]", "invalid number"},
      {"\"bad \\u12zz escape\"", "invalid hex digit"},
      {"{1: 2}", "line 1, column 2"},
  };
  for (const Case& c : cases) {
    std::string error;
    auto parsed = Json::Parse(c.text, &error);
    EXPECT_FALSE(parsed.has_value()) << c.text;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << "input: " << c.text << "\nerror: " << error;
  }
}

TEST(JsonParse, NestedStructuresAndEscapes) {
  std::string error;
  auto parsed = Json::Parse(
      "{\"a\":[1,-2.5,3e2],\"b\":{\"c\":\"\\u0041\\n\"},\"d\":null}", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("a")->Items()[2].AsDouble(), 300.0);
  EXPECT_EQ(parsed->Find("b")->Find("c")->AsString(), "A\n");
  EXPECT_EQ(parsed->Find("d")->GetType(), Json::Type::kNull);
}

TEST(JsonParse, NestingIsCappedAtMaxDepth) {
  // The parser recurses once per level, so depth is capped (at 64) to keep
  // hostile input off the end of a pool thread's stack; the cap itself
  // parses.
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  ASSERT_EQ(Json::kMaxDepth, 64);
  std::string error;
  EXPECT_TRUE(Json::Parse(nested(64), &error).has_value()) << error;
  EXPECT_TRUE(Json::Parse("{\"a\":" + nested(63) + "}", &error).has_value())
      << error;
  for (const int depth : {65, 60000}) {
    error.clear();
    EXPECT_FALSE(Json::Parse(nested(depth), &error).has_value()) << depth;
    EXPECT_NE(error.find("nesting deeper than 64 levels"), std::string::npos)
        << error;
  }
  EXPECT_FALSE(Json::Parse(std::string(60000, '{'), &error).has_value());
}

// --- ShardedLruCache ---------------------------------------------------------

TEST(LruCache, PutGetAndRecencyEviction) {
  ShardedLruCache cache(/*capacity=*/2, /*num_shards=*/1);
  EXPECT_EQ(cache.Put("a", "1"), 0u);
  EXPECT_EQ(cache.Put("b", "2"), 0u);
  ASSERT_NE(cache.Get("a"), nullptr);  // refresh "a": now "b" is LRU
  EXPECT_EQ(cache.Put("c", "3"), 1u);  // evicts "b"
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(*cache.Get("a"), "1");
  ASSERT_NE(cache.Get("c"), nullptr);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(LruCache, OverwriteKeepsSingleEntry) {
  ShardedLruCache cache(4, 1);
  cache.Put("k", "old");
  cache.Put("k", "new");
  ASSERT_NE(cache.Get("k"), nullptr);
  EXPECT_EQ(*cache.Get("k"), "new");
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(LruCache, ZeroCapacityDisablesStorage) {
  ShardedLruCache cache(0, 8);
  EXPECT_EQ(cache.Put("k", "v"), 0u);
  EXPECT_EQ(cache.Get("k"), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(LruCache, StatsCountHitsAndMisses) {
  ShardedLruCache cache(8, 2);
  cache.Put("a", "1");
  (void)cache.Get("a");
  (void)cache.Get("a");
  (void)cache.Get("nope");
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

// The TSan race suite: concurrent insert/lookup/evict over a key space much
// larger than capacity, so eviction races Get's value hand-off constantly.
// Correctness claims: no crash/race, every returned value matches its key,
// and the hit/miss totals add up.
TEST(LruCache, ConcurrentInsertLookupEvict) {
  ShardedLruCache cache(/*capacity=*/64, /*num_shards=*/4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 512;  // 8x capacity: constant eviction pressure
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> bad_values{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = (i * 31 + t * 7919) % kKeySpace;
        const std::string key = "key" + std::to_string(k);
        if ((i + t) % 3 == 0) {
          cache.Put(key, "value" + std::to_string(k));
        } else {
          gets.fetch_add(1);
          auto value = cache.Get(key);
          if (value != nullptr && *value != "value" + std::to_string(k)) {
            bad_values.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad_values.load(), 0u);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, gets.load());
  EXPECT_LE(stats.entries, 64u);
}

// --- LatencyHistogram --------------------------------------------------------

TEST(LatencyHistogram, QuantilesBracketRecordedValues) {
  LatencyHistogram histogram;
  for (int i = 0; i < 1000; ++i) histogram.RecordNs(1000);   // ~1us
  for (int i = 0; i < 10; ++i) histogram.RecordNs(1000000);  // ~1ms
  EXPECT_EQ(histogram.Count(), 1010u);
  // p50 falls in the 1us bucket (power-of-two bounds: [512, 1024)... the
  // bucket containing 1000), far below 1ms.
  EXPECT_LT(histogram.QuantileNs(0.50), 3000.0);
  EXPECT_GT(histogram.QuantileNs(0.999), 500000.0);
  EXPECT_EQ(histogram.QuantileNs(0.0), histogram.QuantileNs(0.0));  // no NaN
}

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.Count(), 0u);
  EXPECT_EQ(histogram.QuantileNs(0.5), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordsAllCounted) {
  LatencyHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.RecordNs(static_cast<std::uint64_t>(100 + t * 1000 + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.Count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace asppi::util
