#include "data/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <utility>

#include "util/crc32.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace asppi::data {

namespace {

struct SnapshotMetrics {
  util::Counter writes{"data.snapshot.writes"};
  util::Counter loads{"data.snapshot.loads"};
  util::Counter load_errors{"data.snapshot.load_errors"};
  util::Timer load_time{"data.snapshot.load"};
};

SnapshotMetrics& Instr() {
  static SnapshotMetrics* m = new SnapshotMetrics();
  return *m;
}

enum SectionType : std::uint32_t {
  kInfo = 1,
  // 2 was v1's link-list section; version-1 files are rejected as skew.
  kPolicy = 3,
  kBaselines = 4,
  kCsrGraph = 5,  // v2: frozen CSR arrays, mapped zero-copy
  kDefense = 6,   // optional: per-AsId defense-policy tag bytes
};

constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8;
constexpr std::size_t kSectionEntrySize = 4 + 4 + 8 + 8;
// n | edge count | link count | rank count | connected | acyclic | reserved.
constexpr std::size_t kCsrHeaderSize = 8 + 8 + 8 + 4 + 1 + 1 + 2;
static_assert(kCsrHeaderSize % 8 == 0,
              "CSR arrays must start 8-aligned after the section header");
constexpr std::size_t AlignUp8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }
// Defense tags are a defense::PolicyKind bit mask; bits above kAllPolicies
// (rov | pathval | detector = 7) only exist in corrupted or future files,
// and future files bump the snapshot version.
constexpr std::uint8_t kMaxDefenseTagByte = 7;

// --- byte-packed little-endian encoding -----------------------------------

class ByteWriter {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  void Raw(const void* data, std::size_t bytes) {
    if (bytes != 0) out_.append(static_cast<const char*>(data), bytes);
  }
  void PadTo8() { out_.append(AlignUp8(out_.size()) - out_.size(), '\0'); }

  const std::string& Bytes() const { return out_; }

 private:
  std::string out_;
};

class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  bool U8(std::uint8_t* v) {
    if (pos_ + 1 > size_) return false;
    *v = data_[pos_++];
    return true;
  }
  bool U32(std::uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool I32(std::int32_t* v) {
    std::uint32_t u;
    if (!U32(&u)) return false;
    std::memcpy(v, &u, sizeof(*v));
    return true;
  }
  bool U64(std::uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool Str(std::string* s) {
    std::uint32_t len;
    if (!U32(&len) || pos_ + len > size_) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }
  std::size_t Remaining() const { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- policy / baseline encodings --------------------------------------------

// Pads outside 1..kMaxPads are neither written nor read: PrependPolicy's
// setters abort on pads < 1, and the protocol and the flags that feed a
// snapshot cap pads at kMaxPads, so a file is held to the same bound.
bool ValidPads(std::int64_t pads) { return pads >= 1 && pads <= bgp::kMaxPads; }

std::string PadsError(std::int64_t pads) {
  return "pad count " + std::to_string(pads) + " outside 1.." +
         std::to_string(bgp::kMaxPads);
}

std::string CheckPolicy(const bgp::PrependPolicy& policy) {
  for (const auto& [asn, pads] : policy.Defaults()) {
    if (!ValidPads(pads)) return PadsError(pads);
  }
  for (const auto& [key, pads] : policy.Overrides()) {
    if (!ValidPads(pads)) return PadsError(pads);
  }
  return "";
}

void WritePolicy(ByteWriter& w, const bgp::PrependPolicy& policy) {
  w.U64(policy.Defaults().size());
  for (const auto& [asn, pads] : policy.Defaults()) {
    w.U32(asn);
    w.I32(pads);
  }
  w.U64(policy.Overrides().size());
  for (const auto& [key, pads] : policy.Overrides()) {
    w.U32(key.first);
    w.U32(key.second);
    w.I32(pads);
  }
}

std::string ReadPolicy(ByteReader& r, bgp::PrependPolicy* policy) {
  std::uint64_t num_defaults;
  if (!r.U64(&num_defaults)) return "truncated";
  for (std::uint64_t i = 0; i < num_defaults; ++i) {
    std::uint32_t asn;
    std::int32_t pads;
    if (!r.U32(&asn) || !r.I32(&pads)) return "truncated";
    if (!ValidPads(pads)) return PadsError(pads);
    policy->SetDefault(asn, pads);
  }
  std::uint64_t num_overrides;
  if (!r.U64(&num_overrides)) return "truncated";
  for (std::uint64_t i = 0; i < num_overrides; ++i) {
    std::uint32_t exporter, neighbor;
    std::int32_t pads;
    if (!r.U32(&exporter) || !r.U32(&neighbor) || !r.I32(&pads)) {
      return "truncated";
    }
    if (!ValidPads(pads)) return PadsError(pads);
    policy->SetForNeighbor(exporter, neighbor, pads);
  }
  return "";
}

// The CSR section copies the frozen arrays verbatim, so the on-disk byte
// order is the host's — fine everywhere this code builds (the explicit
// little-endian framing around it keeps the rest of the format portable).
static_assert(std::endian::native == std::endian::little,
              "kCsrGraph serialization assumes a little-endian host");

std::string BuildCsrSection(const topo::AsGraph& graph) {
  const topo::AsGraph::CsrArrays csr = graph.Csr();
  ByteWriter w;
  w.U64(csr.asn_of.size());
  w.U64(csr.edges.size());
  w.U64(csr.num_links);
  w.U32(csr.num_ranks);
  w.U8(csr.connected ? 1 : 0);
  w.U8(csr.acyclic ? 1 : 0);
  w.U8(0);
  w.U8(0);
  // Every array padded to the next 8-byte boundary (the trailing pad keeps
  // the section itself 8-aligned in case a later section wants alignment
  // too). Pad bytes are covered by the section CRC like any payload byte.
  auto emit = [&w](const void* data, std::size_t bytes) {
    w.Raw(data, bytes);
    w.PadTo8();
  };
  emit(csr.asn_of.data(), csr.asn_of.size_bytes());
  emit(csr.lookup_asn.data(), csr.lookup_asn.size_bytes());
  emit(csr.lookup_id.data(), csr.lookup_id.size_bytes());
  emit(csr.offsets.data(), csr.offsets.size_bytes());
  emit(csr.seg_ends.data(), csr.seg_ends.size_bytes());
  emit(csr.ranks.data(), csr.ranks.size_bytes());
  emit(csr.ids_by_rank.data(), csr.ids_by_rank.size_bytes());
  emit(csr.rank_pos.data(), csr.rank_pos.size_bytes());
  emit(csr.edge_asns.data(), csr.edge_asns.size_bytes());
  emit(csr.edges.data(), csr.edges.size_bytes());
  return w.Bytes();
}

// Builds the graph's spans directly over the mapped section bytes; `keepalive`
// (the whole mapping) is held by the graph. AsGraph::FromCsr re-validates
// every structural invariant, so nothing a CRC collision lets through can
// reach the engines as an out-of-bounds index.
std::string ParseCsrSection(const unsigned char* base, std::size_t size,
                            std::shared_ptr<const void> keepalive,
                            topo::AsGraph* out) {
  if (reinterpret_cast<std::uintptr_t>(base) % 8 != 0) {
    return "section not on an 8-aligned file offset";
  }
  ByteReader header(base, std::min(size, kCsrHeaderSize));
  std::uint64_t n64, m64, num_links;
  std::uint32_t num_ranks;
  std::uint8_t connected, acyclic, reserved0, reserved1;
  if (!header.U64(&n64) || !header.U64(&m64) || !header.U64(&num_links) ||
      !header.U32(&num_ranks) || !header.U8(&connected) ||
      !header.U8(&acyclic) || !header.U8(&reserved0) ||
      !header.U8(&reserved1)) {
    return "truncated header";
  }
  // AsId and the offsets array are 32-bit, so plausible counts fit easily;
  // this also keeps every byte-size computation below overflow-free.
  if (n64 >= 0xFFFFFFFFull || m64 > 0xFFFFFFFFull) {
    return "implausible entity counts";
  }
  const std::size_t n = static_cast<std::size_t>(n64);
  const std::size_t m = static_cast<std::size_t>(m64);
  std::size_t pos = kCsrHeaderSize;
  bool truncated = false;
  auto take = [&](std::size_t bytes) -> const unsigned char* {
    if (bytes > size || pos > size - bytes) {
      truncated = true;
      return nullptr;
    }
    const unsigned char* p = base + pos;
    pos = AlignUp8(pos + bytes);
    return p;
  };
  const unsigned char* asn_of = take(n * 4);
  const unsigned char* lookup_asn = take(n * 4);
  const unsigned char* lookup_id = take(n * 4);
  const unsigned char* offsets = take((n + 1) * 4);
  const unsigned char* seg_ends = take(3 * n * 4);
  const unsigned char* ranks = take(n * 4);
  const unsigned char* ids_by_rank = take(n * 4);
  const unsigned char* rank_pos = take(n * 4);
  const unsigned char* edge_asns = take(m * 4);
  const unsigned char* edges = take(m * sizeof(topo::Edge));
  if (truncated) return "truncated arrays";
  if (pos != size) return "trailing bytes";

  topo::AsGraph::CsrArrays arrays;
  arrays.asn_of = {reinterpret_cast<const topo::Asn*>(asn_of), n};
  arrays.lookup_asn = {reinterpret_cast<const topo::Asn*>(lookup_asn), n};
  arrays.lookup_id = {reinterpret_cast<const topo::AsId*>(lookup_id), n};
  arrays.offsets = {reinterpret_cast<const std::uint32_t*>(offsets), n + 1};
  arrays.seg_ends = {reinterpret_cast<const std::uint32_t*>(seg_ends), 3 * n};
  arrays.ranks = {reinterpret_cast<const std::uint32_t*>(ranks), n};
  arrays.ids_by_rank = {reinterpret_cast<const topo::AsId*>(ids_by_rank), n};
  arrays.rank_pos = {reinterpret_cast<const std::uint32_t*>(rank_pos), n};
  arrays.edge_asns = {reinterpret_cast<const topo::Asn*>(edge_asns), m};
  arrays.edges = {reinterpret_cast<const topo::Edge*>(edges), m};
  arrays.num_links = num_links;
  arrays.num_ranks = num_ranks;
  arrays.connected = connected != 0;
  arrays.acyclic = acyclic != 0;

  std::string err;
  std::optional<topo::AsGraph> graph =
      topo::AsGraph::FromCsr(arrays, std::move(keepalive), &err);
  if (!graph.has_value()) return err;
  *out = std::move(*graph);
  return "";
}

// One baseline: the announcement, then per AS in dense order its parent slot
// (u32, bgp::PropagationResult::ParentSlots). The graph it derives over is
// the same file's kCsrGraph section, slot order intact.
std::string WriteBaseline(ByteWriter& w, const bgp::PropagationResult& state) {
  if (!state.Converged()) return "not a converged state";
  w.U32(state.GetAnnouncement().origin);
  WritePolicy(w, state.GetAnnouncement().prepends);
  for (std::uint32_t slot : state.ParentSlots()) w.U32(slot);
  return "";
}

std::string ReadBaseline(
    ByteReader& r, const topo::AsGraph& graph,
    std::shared_ptr<const bgp::PropagationResult>* out) {
  bgp::Announcement announcement;
  if (!r.U32(&announcement.origin)) return "truncated origin";
  if (std::string err = ReadPolicy(r, &announcement.prepends); !err.empty()) {
    return "policy: " + err;
  }
  // The record is checked against the section before the slots are sized.
  const std::size_t n = graph.NumAses();
  if (r.Remaining() / 4 < n) {
    return "truncated: " + std::to_string(n) + " ASes need " +
           std::to_string(4 * n) + " bytes, the section has " +
           std::to_string(r.Remaining()) + " left";
  }
  std::vector<std::uint32_t> parent_slots(n);
  for (std::uint32_t& slot : parent_slots) r.U32(&slot);
  std::string err;
  std::optional<bgp::PropagationResult> state =
      bgp::PropagationResult::FromParentSlots(graph, std::move(announcement),
                                              std::move(parent_slots), &err);
  if (!state.has_value()) return err;
  *out = std::make_shared<const bgp::PropagationResult>(std::move(*state));
  return "";
}

// Read-only mmap of a whole file; falls back to nothing (Load reports the
// error) when the file cannot be opened or mapped.
class MappedFile {
 public:
  ~MappedFile() {
    if (data_ != nullptr && data_ != MAP_FAILED) munmap(data_, size_);
    if (fd_ >= 0) close(fd_);
  }

  std::string Open(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) return "cannot open file";
    struct stat st{};
    if (fstat(fd_, &st) != 0) return "cannot stat file";
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ == 0) return "empty file";
    data_ = mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (data_ == MAP_FAILED) {
      data_ = nullptr;
      return "mmap failed";
    }
    return "";
  }

  const unsigned char* Data() const {
    return static_cast<const unsigned char*>(data_);
  }
  std::size_t Size() const { return size_; }

 private:
  int fd_ = -1;
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

struct SectionEntry {
  std::uint32_t type = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

}  // namespace

std::string WriteSnapshotFile(
    const std::string& path, const topo::AsGraph& graph,
    const bgp::PrependPolicy& policy,
    const std::vector<std::shared_ptr<const bgp::PropagationResult>>&
        baselines,
    const std::string& creator,
    const std::vector<std::uint8_t>& defense_tags) {
  ByteWriter info;
  info.Str(creator);
  info.U64(graph.NumAses());
  info.U64(graph.NumLinks());
  info.U64(baselines.size());

  if (std::string err = CheckPolicy(policy); !err.empty()) {
    return "policy: " + err;
  }
  ByteWriter policy_section;
  WritePolicy(policy_section, policy);

  ByteWriter baseline_section;
  baseline_section.U64(baselines.size());
  for (std::size_t i = 0; i < baselines.size(); ++i) {
    const auto& baseline = baselines[i];
    if (baseline == nullptr || &baseline->Graph() != &graph) {
      return "baseline was not computed over the snapshot graph";
    }
    if (std::string err = CheckPolicy(baseline->GetAnnouncement().prepends);
        !err.empty()) {
      return "baseline " + std::to_string(i) + " policy: " + err;
    }
    if (std::string err = WriteBaseline(baseline_section, *baseline);
        !err.empty()) {
      return "baseline " + std::to_string(i) + ": " + err;
    }
  }

  ByteWriter defense_section;
  if (!defense_tags.empty()) {
    if (defense_tags.size() != graph.NumAses()) {
      return "defense tags must cover every AS exactly once";
    }
    for (std::uint8_t tag : defense_tags) {
      if (tag > kMaxDefenseTagByte) return "invalid defense tag byte";
    }
    defense_section.U64(defense_tags.size());
    defense_section.Raw(defense_tags.data(), defense_tags.size());
  }

  // kCsrGraph first: the payload begins right after the fixed-size table, so
  // the CSR section always lands on the 8-aligned file offset its arrays
  // assume — each table entry is itself 8-aligned, so the property holds for
  // any section count (later sections are byte-packed and indifferent to
  // alignment).
  static_assert(kHeaderSize % 8 == 0 && kSectionEntrySize % 8 == 0);
  const std::string csr = BuildCsrSection(graph);
  std::vector<std::pair<std::uint32_t, const std::string*>> sections = {
      {kCsrGraph, &csr},
      {kInfo, &info.Bytes()},
      {kPolicy, &policy_section.Bytes()},
      {kBaselines, &baseline_section.Bytes()},
  };
  // Omitted when empty so undefended snapshots keep their historical bytes.
  if (!defense_tags.empty()) {
    sections.emplace_back(kDefense, &defense_section.Bytes());
  }

  ByteWriter header;
  header.U8(kSnapshotMagic[0]);
  for (int i = 1; i < 8; ++i) header.U8(kSnapshotMagic[i]);
  header.U32(kSnapshotVersion);
  header.U32(static_cast<std::uint32_t>(sections.size()));

  std::uint64_t offset = kHeaderSize + sections.size() * kSectionEntrySize;
  ByteWriter table;
  std::uint64_t total = offset;
  for (const auto& [type, bytes] : sections) {
    table.U32(type);
    table.U32(util::Crc32(bytes->data(), bytes->size()));
    table.U64(offset);
    table.U64(bytes->size());
    offset += bytes->size();
    total += bytes->size();
  }
  header.U64(total);  // declared file size

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return "cannot open " + path + " for writing";
  out << header.Bytes() << table.Bytes();
  for (const auto& [type, bytes] : sections) out << *bytes;
  out.flush();
  if (!out) return "short write to " + path;
  Instr().writes.Add();
  return "";
}

Snapshot::Snapshot() : graph_(std::make_unique<topo::AsGraph>()) {}

bool Snapshot::SniffFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kSnapshotMagic, sizeof(magic)) == 0;
}

std::string Snapshot::Load(const std::string& path, Snapshot& out) {
  util::ScopedTimer load_timer(Instr().load_time);
  auto fail = [&path](const std::string& message) {
    Instr().load_errors.Add();
    return path + ": " + message;
  };

  // Shared so the zero-copy graph can keep the mapping alive past Load.
  auto file = std::make_shared<MappedFile>();
  if (std::string err = file->Open(path); !err.empty()) return fail(err);

  ByteReader header(file->Data(), file->Size());
  char magic[8];
  for (char& c : magic) {
    std::uint8_t byte;
    if (!header.U8(&byte)) return fail("truncated header");
    c = static_cast<char>(byte);
  }
  if (std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    return fail("bad magic (not a snapshot file)");
  }
  std::uint32_t version, section_count;
  std::uint64_t declared_size;
  if (!header.U32(&version) || !header.U32(&section_count) ||
      !header.U64(&declared_size)) {
    return fail("truncated header");
  }
  if (version != kSnapshotVersion) {
    return fail("version skew: file has version " + std::to_string(version) +
                ", loader reads version " + std::to_string(kSnapshotVersion));
  }
  if (declared_size != file->Size()) {
    return fail("truncated file: header declares " +
                std::to_string(declared_size) + " bytes, file has " +
                std::to_string(file->Size()));
  }
  if (kHeaderSize + section_count * kSectionEntrySize > file->Size()) {
    return fail("truncated section table");
  }

  ByteReader table(file->Data() + kHeaderSize,
                   section_count * kSectionEntrySize);
  std::vector<SectionEntry> entries(section_count);
  std::set<std::uint32_t> types;
  for (SectionEntry& entry : entries) {
    table.U32(&entry.type);
    table.U32(&entry.crc);
    table.U64(&entry.offset);
    table.U64(&entry.size);
    // Each section type appears at most once: a second copy would otherwise
    // merge into (policy) or silently replace (info) the first.
    if (!types.insert(entry.type).second) {
      return fail("section " + std::to_string(entry.type) + ": repeated");
    }
    if (entry.offset > file->Size() ||
        entry.size > file->Size() - entry.offset) {
      return fail("section " + std::to_string(entry.type) +
                  ": out-of-bounds extent");
    }
    // CRC the mapped bytes in place before any section is parsed.
    const std::uint32_t crc =
        util::Crc32(file->Data() + entry.offset, entry.size);
    if (crc != entry.crc) {
      return fail("section " + std::to_string(entry.type) + ": CRC mismatch");
    }
  }

  Snapshot loaded;
  bool have_graph = false;
  for (const SectionEntry& entry : entries) {
    ByteReader r(file->Data() + entry.offset, entry.size);
    switch (entry.type) {
      case kInfo: {
        if (!r.Str(&loaded.info_.creator) || !r.U64(&loaded.info_.num_ases) ||
            !r.U64(&loaded.info_.num_links) ||
            !r.U64(&loaded.info_.num_baselines)) {
          return fail("info section: truncated");
        }
        loaded.info_.version = version;
        break;
      }
      case kCsrGraph: {
        if (std::string err =
                ParseCsrSection(file->Data() + entry.offset, entry.size, file,
                                loaded.graph_.get());
            !err.empty()) {
          return fail("csr graph section: " + err);
        }
        have_graph = true;
        break;
      }
      case kPolicy: {
        if (std::string err = ReadPolicy(r, &loaded.policy_); !err.empty()) {
          return fail("policy section: " + err);
        }
        if (!r.AtEnd()) return fail("policy section: trailing bytes");
        break;
      }
      case kBaselines: {
        if (!have_graph) return fail("baselines section before the graph");
        std::uint64_t count;
        if (!r.U64(&count)) return fail("baselines section: truncated");
        for (std::uint64_t i = 0; i < count; ++i) {
          std::shared_ptr<const bgp::PropagationResult> baseline;
          if (std::string err = ReadBaseline(r, *loaded.graph_, &baseline);
              !err.empty()) {
            return fail("baseline " + std::to_string(i) + ": " + err);
          }
          loaded.baselines_.push_back(std::move(baseline));
        }
        if (!r.AtEnd()) return fail("baselines section: trailing bytes");
        break;
      }
      case kDefense: {
        if (!have_graph) return fail("defense section before the graph");
        std::uint64_t count;
        if (!r.U64(&count)) return fail("defense section: truncated");
        if (count != loaded.graph_->NumAses()) {
          return fail("defense section: tag count disagrees with the graph");
        }
        if (entry.size != 8 + count) {
          return fail("defense section: size disagrees with tag count");
        }
        const unsigned char* tags = file->Data() + entry.offset + 8;
        loaded.defense_tags_.assign(tags, tags + count);
        for (std::uint8_t tag : loaded.defense_tags_) {
          if (tag > kMaxDefenseTagByte) {
            return fail("defense section: invalid tag byte");
          }
          if (tag != 0) ++loaded.info_.num_defense_tagged;
        }
        break;
      }
      default:
        // Unknown section types are ignored (forward-compatible additions).
        break;
    }
  }
  if (!have_graph) return fail("missing graph section");
  if (loaded.info_.num_ases != loaded.graph_->NumAses() ||
      loaded.info_.num_links != loaded.graph_->NumLinks() ||
      loaded.info_.num_baselines != loaded.baselines_.size()) {
    return fail("info section disagrees with payload");
  }

  out = std::move(loaded);
  Instr().loads.Add();
  return "";
}

}  // namespace asppi::data
