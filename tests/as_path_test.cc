#include "bgp/as_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "bgp/route.h"

namespace asppi::bgp {
namespace {

TEST(AsPath, OriginSingleCopy) {
  AsPath p = AsPath::Origin(32934);
  EXPECT_EQ(p.Length(), 1u);
  EXPECT_EQ(p.OriginAs(), 32934u);
  EXPECT_EQ(p.First(), 32934u);
  EXPECT_EQ(p.OriginPadding(), 1);
  EXPECT_FALSE(p.HasPrepending());
}

TEST(AsPath, OriginWithPrepending) {
  AsPath p = AsPath::Origin(32934, 5);
  EXPECT_EQ(p.Length(), 5u);
  EXPECT_EQ(p.UniqueCount(), 1u);
  EXPECT_EQ(p.OriginPadding(), 5);
  EXPECT_EQ(p.TotalPadding(), 4u);
  EXPECT_TRUE(p.HasPrepending());
}

TEST(AsPath, PrependBuildsFacebookRoute) {
  // Paper Section III: 7018 3356 32934 32934 32934 32934 32934.
  AsPath p = AsPath::Origin(32934, 5);
  p.Prepend(3356);
  p.Prepend(7018);
  EXPECT_EQ(p.ToString(), "7018 3356 32934 32934 32934 32934 32934");
  EXPECT_EQ(p.Length(), 7u);
  EXPECT_EQ(p.UniqueCount(), 3u);
  EXPECT_EQ(p.OriginPadding(), 5);
}

TEST(AsPath, PrependMultiple) {
  AsPath p = AsPath::Origin(1);
  p.Prepend(2, 3);
  EXPECT_EQ(p.ToString(), "2 2 2 1");
  EXPECT_EQ(p.First(), 2u);
}

TEST(AsPath, ContainsAndDistinct) {
  AsPath p(std::vector<Asn>{4134, 9318, 32934, 32934, 32934});
  EXPECT_TRUE(p.Contains(9318));
  EXPECT_FALSE(p.Contains(7018));
  EXPECT_EQ(p.DistinctSequence(), (std::vector<Asn>{4134, 9318, 32934}));
}

TEST(AsPath, CollapseRunsOfVictimIsTheAttack) {
  // Attacker M=9318 receives [* V V V] and strips to [* V] (paper §II-B).
  AsPath p(std::vector<Asn>{9318, 32934, 32934, 32934});
  int removed = p.CollapseRunsOf(32934);
  EXPECT_EQ(removed, 2);
  EXPECT_EQ(p.ToString(), "9318 32934");
}

TEST(AsPath, CollapseRunsOfIgnoresOtherAses) {
  AsPath p(std::vector<Asn>{7, 7, 5, 5, 3});
  EXPECT_EQ(p.CollapseRunsOf(5), 1);
  EXPECT_EQ(p.ToString(), "7 7 5 3");
}

TEST(AsPath, CollapseRunsOfNonConsecutiveKeepsBoth) {
  // Non-consecutive occurrences are a loop, not prepending; collapse must
  // only merge consecutive runs.
  AsPath p(std::vector<Asn>{5, 3, 5, 5});
  EXPECT_EQ(p.CollapseRunsOf(5), 1);
  EXPECT_EQ(p.ToString(), "5 3 5");
}

TEST(AsPath, CollapseRunsOfAbsentAsnIsNoop) {
  AsPath p(std::vector<Asn>{1, 2, 3});
  EXPECT_EQ(p.CollapseRunsOf(9), 0);
  EXPECT_EQ(p.ToString(), "1 2 3");
}

TEST(AsPath, CollapseAllRuns) {
  AsPath p(std::vector<Asn>{2, 2, 7, 5, 5, 5});
  EXPECT_EQ(p.CollapseAllRuns(), 3);
  EXPECT_EQ(p.ToString(), "2 7 5");
}

TEST(AsPath, MaxRunOf) {
  AsPath p(std::vector<Asn>{5, 5, 3, 5, 5, 5});
  EXPECT_EQ(p.MaxRunOf(5), 3);
  EXPECT_EQ(p.MaxRunOf(3), 1);
  EXPECT_EQ(p.MaxRunOf(9), 0);
}

TEST(AsPath, LoopDetection) {
  EXPECT_FALSE(AsPath(std::vector<Asn>{1, 2, 2, 3}).HasLoop());
  EXPECT_TRUE(AsPath(std::vector<Asn>{1, 2, 1}).HasLoop());
  EXPECT_TRUE(AsPath(std::vector<Asn>{1, 2, 2, 1}).HasLoop());
  EXPECT_FALSE(AsPath{}.HasLoop());
}

TEST(AsPath, OriginPaddingMiddlePrependsExcluded) {
  // Intermediary prepending: 9318 9318 32934 — origin padding is 1.
  AsPath p(std::vector<Asn>{9318, 9318, 32934});
  EXPECT_EQ(p.OriginPadding(), 1);
  EXPECT_EQ(p.TotalPadding(), 1u);
}

TEST(AsPath, RoundTripString) {
  AsPath p(std::vector<Asn>{7018, 4134, 9318, 32934, 32934, 32934});
  auto parsed = AsPath::FromString(p.ToString());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, p);
}

TEST(AsPath, FromStringRejectsGarbage) {
  EXPECT_FALSE(AsPath::FromString("12 monkeys").has_value());
  EXPECT_FALSE(AsPath::FromString("1 -2 3").has_value());
  EXPECT_FALSE(AsPath::FromString("99999999999999").has_value());
}

TEST(AsPath, TrimRunsOfKeepsRequestedCopies) {
  // Partial strip: λ=5 origin run trimmed to λ'=2 removes three copies.
  AsPath p(std::vector<Asn>{9318, 32934, 32934, 32934, 32934, 32934});
  EXPECT_EQ(p.TrimRunsOf(32934, 2), 3);
  EXPECT_EQ(p.ToString(), "9318 32934 32934");
}

TEST(AsPath, TrimRunsOfKeepAtLeastRunIsNoop) {
  AsPath p(std::vector<Asn>{9318, 32934, 32934, 32934});
  EXPECT_EQ(p.TrimRunsOf(32934, 5), 0);
  EXPECT_EQ(p.ToString(), "9318 32934 32934 32934");
}

TEST(AsPath, TrimRunsOfOneMatchesCollapse) {
  const std::vector<Asn> hops{7018, 4134, 4134, 9318, 32934, 32934, 32934};
  AsPath trimmed(hops);
  AsPath collapsed(hops);
  EXPECT_EQ(trimmed.TrimRunsOf(32934, 1), collapsed.CollapseRunsOf(32934));
  EXPECT_EQ(trimmed, collapsed);
}

TEST(AsPath, TrimRunsOfTrimsEveryRun) {
  // Mid-path runs of the target are trimmed too, not just the origin run —
  // the strip directive must not leave intermediary padding behind.
  AsPath p(std::vector<Asn>{4, 7, 7, 7, 2, 7, 7, 7});
  EXPECT_EQ(p.TrimRunsOf(7, 2), 2);
  EXPECT_EQ(p.ToString(), "4 7 7 2 7 7");
}

TEST(AsPath, FromStringEmptyIsEmptyPath) {
  auto parsed = AsPath::FromString("");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->Empty());
}

// --- storage: inline up to kInlineHops, on the heap beyond -----------------

// A 4-byte size, a 4-byte capacity and ten inline hops sharing their bytes
// with the heap pointer; a route with its optional flag then fills one
// 64-byte cache line.
static_assert(sizeof(AsPath) == 48);
static_assert(sizeof(std::optional<Route>) == 64);
static_assert(AsPath::kInlineHops == 10);

// `n` distinct hops first, first + 1, ..., so misplaced hops show.
std::vector<Asn> Numbered(std::size_t n, Asn first = 1) {
  std::vector<Asn> hops(n);
  for (std::size_t i = 0; i < n; ++i) hops[i] = first + static_cast<Asn>(i);
  return hops;
}

bool HopsAre(const AsPath& path, const std::vector<Asn>& hops) {
  return std::ranges::equal(path.Hops(), hops);
}

TEST(AsPathStorage, EveryConstructionAgreesOnBothSidesOfTheInlineLimit) {
  for (const std::size_t n : {0, 1, 9, 10, 11, 64, 300}) {
    SCOPED_TRACE(n);
    const std::vector<Asn> hops = Numbered(n);
    const AsPath from_vector(hops);
    EXPECT_EQ(from_vector.Length(), n);
    EXPECT_TRUE(HopsAre(from_vector, hops));

    const std::optional<AsPath> parsed =
        AsPath::FromString(from_vector.ToString());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, from_vector);

    // One hop at a time, origin first, as the hops cross the limit.
    AsPath grown;
    for (auto it = hops.rbegin(); it != hops.rend(); ++it) grown.Prepend(*it);
    EXPECT_EQ(grown, from_vector);
    if (n == 0) continue;

    const AsPath origin = AsPath::Origin(7, static_cast<int>(n));
    EXPECT_TRUE(HopsAre(origin, std::vector<Asn>(n, 7)));
    EXPECT_EQ(origin.OriginPadding(), static_cast<int>(n));

    // `pads` copies of an exporter in front of an n - pads hop tail, built
    // in one step and by prepending a copy of the tail.
    const std::size_t pads = (n + 1) / 2;
    const AsPath tail(Numbered(n - pads));
    std::vector<Asn> want(pads, 99);
    const std::vector<Asn> tail_hops = Numbered(n - pads);
    want.insert(want.end(), tail_hops.begin(), tail_hops.end());
    const AsPath exported =
        AsPath::Prepended(99, static_cast<int>(pads), tail);
    EXPECT_TRUE(HopsAre(exported, want));
    EXPECT_TRUE(HopsAre(tail, tail_hops)) << "the tail is left as it was";
    AsPath prepended = tail;
    prepended.Prepend(99, static_cast<int>(pads));
    EXPECT_EQ(prepended, exported);
  }
}

TEST(AsPathStorage, CopyMoveAndSelfAssignmentBetweenInlineAndHeap) {
  const AsPath inline_path(Numbered(4));
  const AsPath heap_path(Numbered(40, 100));
  for (const AsPath* from : {&inline_path, &heap_path}) {
    for (const AsPath* start : {&inline_path, &heap_path}) {
      SCOPED_TRACE(::testing::Message() << from->Length() << " hops over "
                                        << start->Length());
      AsPath copied = *start;
      copied = *from;
      EXPECT_EQ(copied, *from);
      // A copy owns its hops: changing it leaves the source alone.
      copied.Prepend(5, 3);
      EXPECT_EQ(copied.Length(), from->Length() + 3);
      EXPECT_NE(copied, *from);

      AsPath source = *from;
      AsPath moved = *start;
      moved = std::move(source);
      EXPECT_EQ(moved, *from);
      source = *start;  // a moved-from path takes a new value
      EXPECT_EQ(source, *start);
    }
    const AsPath copy_constructed(*from);
    EXPECT_EQ(copy_constructed, *from);
    AsPath donor = *from;
    const AsPath move_constructed(std::move(donor));
    EXPECT_EQ(move_constructed, *from);

    AsPath self = *from;
    AsPath& alias = self;
    self = alias;
    EXPECT_EQ(self, *from);
    self = std::move(alias);
    EXPECT_EQ(self, *from);
  }
}

TEST(AsPathStorage, StripsShrinkAHeapPathBelowTheInlineLimit) {
  // 3 2 2 2, then 20 copies of origin 1: a 24-hop path on the heap.
  std::vector<Asn> hops = {3, 2, 2, 2};
  hops.insert(hops.end(), 20, 1);

  AsPath collapsed(hops);
  EXPECT_EQ(collapsed.CollapseRunsOf(1), 19);
  EXPECT_EQ(collapsed.ToString(), "3 2 2 2 1");

  AsPath trimmed(hops);
  EXPECT_EQ(trimmed.TrimRunsOf(1, 4), 16);
  EXPECT_EQ(trimmed.ToString(), "3 2 2 2 1 1 1 1");

  AsPath all(hops);
  EXPECT_EQ(all.CollapseAllRuns(), 21);
  EXPECT_EQ(all.ToString(), "3 2 1");

  // The shrunk paths still equal, copy to and grow like paths that were
  // never on the heap.
  EXPECT_EQ(collapsed, AsPath({3, 2, 2, 2, 1}));
  EXPECT_EQ(all, AsPath({3, 2, 1}));
  AsPath copy = all;
  EXPECT_EQ(copy, AsPath({3, 2, 1}));
  all.Prepend(9, 30);
  EXPECT_EQ(all.Length(), 33u);
  EXPECT_EQ(all.First(), 9u);
  EXPECT_EQ(all.OriginAs(), 1u);
  EXPECT_EQ(all.MaxRunOf(9), 30);
}

TEST(AsPathStorage, EqualHopsAreEqualInEitherForm) {
  // Both hold 3 2 1; one was built inline, the other shrank from the heap.
  AsPath from_heap(Numbered(30, 100));
  from_heap = AsPath({3, 2, 1});
  AsPath stripped(std::vector<Asn>{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 1});
  stripped.CollapseRunsOf(3);
  const AsPath built({3, 2, 1});
  EXPECT_EQ(from_heap, built);
  EXPECT_EQ(stripped, built);
  EXPECT_EQ(stripped, from_heap);
  EXPECT_NE(stripped, AsPath({3, 2}));
  EXPECT_NE(stripped, AsPath({3, 2, 1, 1}));
}

}  // namespace
}  // namespace asppi::bgp
