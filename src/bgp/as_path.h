// AS-PATH attribute with first-class support for AS-path prepending (ASPP).
//
// Hops are stored most-recent-first: front() is the neighbor the route was
// learned from, back() is the origin AS. Prepended paths contain consecutive
// duplicates, e.g. "7018 3356 32934 32934 32934" (paper Section III).
//
// Storage: up to kInlineHops hops live inside the object and only a longer
// path owns a heap block, so the common route (a few hops plus a few pads)
// is one 48-byte value and copying or exporting it allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "topology/types.h"

namespace asppi::bgp {

using topo::Asn;

class AsPath {
 public:
  // Hops held without a heap block. On the internet2026 preset every best
  // route of 20 random victims fits at λ=3, and 91% of them at λ=6.
  static constexpr std::uint32_t kInlineHops = 10;

  AsPath() = default;
  explicit AsPath(std::span<const Asn> hops);
  explicit AsPath(std::initializer_list<Asn> hops)
      : AsPath(std::span<const Asn>(hops.begin(), hops.size())) {}
  // Copies and moves of an inline path copy the object's 48 bytes and call
  // nothing; routes are copied and moved several times per export.
  AsPath(const AsPath& other) {
    if (other.OnHeap()) {
      *this = other;  // a block of its own, unless the hops now fit inline
    } else {
      TakeBytes(other);
    }
  }
  AsPath(AsPath&& other) noexcept { Steal(other); }
  AsPath& operator=(const AsPath& other);
  AsPath& operator=(AsPath&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }
  ~AsPath() { Release(); }

  // Origin announcement: `copies` occurrences of the origin ASN (λ in the
  // paper; copies >= 1).
  static AsPath Origin(Asn origin, int copies = 1);
  // `pads` copies of `asn` in front of `tail`'s hops (pads >= 1): the path an
  // exporter sends, built in one step.
  static AsPath Prepended(Asn asn, int pads, const AsPath& tail);

  // Prepends `asn` `times` times at the front (what a BGP speaker does on
  // export; times > 1 is AS-path prepending).
  void Prepend(Asn asn, int times = 1);

  bool Empty() const { return size_ == 0; }
  // Total number of ASN occurrences including duplicates — the length BGP's
  // decision process compares.
  std::size_t Length() const { return size_; }
  // Number of distinct ASes on the path.
  std::size_t UniqueCount() const;

  Asn First() const;   // most recent hop (the sender)
  Asn OriginAs() const;  // last hop

  bool Contains(Asn asn) const;

  // Number of consecutive occurrences of the origin ASN at the tail — the
  // origin's prepend count λ (1 if no prepending).
  int OriginPadding() const;
  // Total duplicate occurrences anywhere (source + intermediary prepending):
  // Length() - UniqueCount().
  std::size_t TotalPadding() const { return Length() - UniqueCount(); }
  bool HasPrepending() const { return TotalPadding() > 0; }
  // Longest run of `asn` anywhere in the path (0 if absent).
  int MaxRunOf(Asn asn) const;

  // The ASPP-interception primitive: collapse every consecutive run of `asn`
  // to a single occurrence. Returns the number of copies removed. This is
  // exactly the attacker's modification: [M * V…V] → [M * V] (paper §II-B).
  int CollapseRunsOf(Asn asn);
  // Partial-strip generalization: trim every consecutive run of `asn` down to
  // at most `keep` occurrences (keep >= 1; runs already <= keep are
  // untouched). Returns copies removed. TrimRunsOf(asn, 1) is exactly
  // CollapseRunsOf(asn); keep = λ−1 is the stealthy attacker that shaves one
  // pad per run instead of all of them.
  int TrimRunsOf(Asn asn, int keep);
  // Collapse *all* consecutive duplicate runs (of any ASN) to length 1.
  // Returns copies removed. Used to compute "the path without any ASPP".
  int CollapseAllRuns();

  // Sequence of distinct ASes in path order (duplicates collapsed) — the
  // AS-level route the traffic actually takes.
  std::vector<Asn> DistinctSequence() const;

  // True if the path visits some distinct AS twice non-consecutively — a
  // routing loop (consecutive duplicates are legitimate prepending, not
  // loops).
  bool HasLoop() const;

  // The hops, valid until this path is next modified, moved or destroyed.
  std::span<const Asn> Hops() const { return {Data(), size_}; }

  // "7018 3356 32934 32934" — the RouteViews-style rendering.
  std::string ToString() const;
  // Parses the rendering above; nullopt on malformed input.
  static std::optional<AsPath> FromString(const std::string& text);

  // Equal hops, whether held inline or on the heap.
  bool operator==(const AsPath& other) const;

 private:
  bool OnHeap() const { return capacity_ > kInlineHops; }
  const Asn* Data() const { return OnHeap() ? heap_ : inline_; }
  Asn* Data() { return OnHeap() ? heap_ : inline_; }
  // Drops the hops and makes room for `n` of them, reusing the storage held
  // when it is large enough; the caller writes all `n` through the result.
  Asn* Resize(std::uint32_t n);
  // Returns the heap block, if any, and leaves the path empty and inline.
  void Release() {
    if (OnHeap()) delete[] heap_;
    capacity_ = kInlineHops;
    size_ = 0;
  }
  // Copies `other`'s size, capacity and storage bytes: its inline hops, or
  // its heap pointer. This path must hold no block of its own, which would
  // leak.
  void TakeBytes(const AsPath& other) {
    size_ = other.size_;
    capacity_ = other.capacity_;
    std::memcpy(inline_, other.inline_, sizeof(inline_));
  }
  // Takes `other`'s hops, inline or its heap block, and leaves it empty.
  void Steal(AsPath& other) {
    TakeBytes(other);
    other.capacity_ = kInlineHops;
    other.size_ = 0;
  }
  std::uint32_t size_ = 0;
  // kInlineHops while the hops are inline; otherwise the heap block's size.
  std::uint32_t capacity_ = kInlineHops;
  union {
    // Zeroed, so a byte copy of a short or empty path reads no
    // indeterminate value.
    Asn inline_[kInlineHops] = {};
    Asn* heap_;
  };
};

}  // namespace asppi::bgp
