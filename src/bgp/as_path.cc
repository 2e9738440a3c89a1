#include "bgp/as_path.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "util/check.h"
#include "util/strings.h"

namespace asppi::bgp {

namespace {

// A hop count as the 4-byte size field holds it.
std::uint32_t HopCount(std::uint64_t n) {
  ASPPI_CHECK_LE(n, std::numeric_limits<std::uint32_t>::max());
  return static_cast<std::uint32_t>(n);
}

}  // namespace

AsPath::AsPath(std::span<const Asn> hops) {
  std::copy_n(hops.data(), hops.size(), Resize(HopCount(hops.size())));
}

AsPath& AsPath::operator=(const AsPath& other) {
  if (this != &other) {
    std::copy_n(other.Data(), other.size_, Resize(other.size_));
  }
  return *this;
}

Asn* AsPath::Resize(std::uint32_t n) {
  if (n > capacity_) {
    Release();
    heap_ = new Asn[n];
    capacity_ = n;
  }
  size_ = n;
  return Data();
}

AsPath AsPath::Origin(Asn origin, int copies) {
  ASPPI_CHECK_GE(copies, 1);
  AsPath p;
  std::fill_n(p.Resize(HopCount(static_cast<std::uint64_t>(copies))),
              copies, origin);
  return p;
}

AsPath AsPath::Prepended(Asn asn, int pads, const AsPath& tail) {
  ASPPI_CHECK_GE(pads, 1);
  AsPath p;
  Asn* hops =
      p.Resize(HopCount(static_cast<std::uint64_t>(pads) + tail.size_));
  std::fill_n(hops, pads, asn);
  std::copy_n(tail.Data(), tail.size_, hops + pads);
  return p;
}

void AsPath::Prepend(Asn asn, int times) {
  ASPPI_CHECK_GE(times, 1);
  const std::uint32_t n =
      HopCount(static_cast<std::uint64_t>(times) + size_);
  if (n <= capacity_) {
    Asn* hops = Data();
    std::memmove(hops + times, hops, size_ * sizeof(Asn));
    std::fill_n(hops, times, asn);
    size_ = n;
  } else {
    *this = Prepended(asn, times, *this);
  }
}

std::size_t AsPath::UniqueCount() const {
  const std::span<const Asn> hops = Hops();
  std::unordered_set<Asn> distinct(hops.begin(), hops.end());
  return distinct.size();
}

Asn AsPath::First() const {
  ASPPI_CHECK(!Empty());
  return Data()[0];
}

Asn AsPath::OriginAs() const {
  ASPPI_CHECK(!Empty());
  return Data()[size_ - 1];
}

bool AsPath::Contains(Asn asn) const {
  return std::ranges::find(Hops(), asn) != Hops().end();
}

int AsPath::OriginPadding() const {
  if (Empty()) return 0;
  const std::span<const Asn> hops = Hops();
  const Asn origin = hops.back();
  int count = 0;
  for (auto it = hops.rbegin(); it != hops.rend() && *it == origin; ++it) {
    ++count;
  }
  return count;
}

int AsPath::MaxRunOf(Asn asn) const {
  int best = 0;
  int run = 0;
  for (Asn hop : Hops()) {
    run = (hop == asn) ? run + 1 : 0;
    best = std::max(best, run);
  }
  return best;
}

// The three strips below compact the hops in place: the write position
// never passes the read position, so no hop is overwritten before it is read.

int AsPath::CollapseRunsOf(Asn asn) {
  Asn* hops = Data();
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < size_; ++i) {
    if (hops[i] == asn && kept > 0 && hops[kept - 1] == asn) continue;
    hops[kept++] = hops[i];
  }
  const int removed = static_cast<int>(size_ - kept);
  size_ = kept;
  return removed;
}

int AsPath::TrimRunsOf(Asn asn, int keep) {
  ASPPI_CHECK_GE(keep, 1);
  Asn* hops = Data();
  std::uint32_t kept = 0;
  int run = 0;
  for (std::uint32_t i = 0; i < size_; ++i) {
    run = (hops[i] == asn) ? run + 1 : 0;
    if (run <= keep) hops[kept++] = hops[i];
  }
  const int removed = static_cast<int>(size_ - kept);
  size_ = kept;
  return removed;
}

int AsPath::CollapseAllRuns() {
  Asn* hops = Data();
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < size_; ++i) {
    if (kept > 0 && hops[kept - 1] == hops[i]) continue;
    hops[kept++] = hops[i];
  }
  const int removed = static_cast<int>(size_ - kept);
  size_ = kept;
  return removed;
}

std::vector<Asn> AsPath::DistinctSequence() const {
  std::vector<Asn> out;
  for (Asn hop : Hops()) {
    if (out.empty() || out.back() != hop) out.push_back(hop);
  }
  return out;
}

bool AsPath::HasLoop() const {
  std::vector<Asn> seq = DistinctSequence();
  std::unordered_set<Asn> seen;
  for (Asn asn : seq) {
    if (!seen.insert(asn).second) return true;
  }
  return false;
}

std::string AsPath::ToString() const {
  return util::Join(Hops(), " ");
}

std::optional<AsPath> AsPath::FromString(const std::string& text) {
  std::vector<Asn> hops;
  for (const std::string& token : util::SplitWhitespace(text)) {
    auto asn = util::ParseUint(token);
    if (!asn || *asn > 0xffffffffULL) return std::nullopt;
    hops.push_back(static_cast<Asn>(*asn));
  }
  return AsPath(hops);
}

bool AsPath::operator==(const AsPath& other) const {
  return std::ranges::equal(Hops(), other.Hops());
}

}  // namespace asppi::bgp
