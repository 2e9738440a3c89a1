// Binary topology snapshots: a versioned, checksummed, mmap-able compilation
// of an AS graph, a prepend policy, and (optionally) precomputed attack-free
// baseline routing states.
//
// Every batch tool re-reads the as-rel text format and re-converges the
// victim's baseline on each invocation; the serve subsystem (and any tool
// whose --topo names a snapshot) loads this format instead — fixed
// width binary records read straight out of an mmap'ed region, no line
// splitting, no strtol, and optionally no convergence at all when the
// snapshot carries baselines (rebuilt from their parent slots by
// bgp::PropagationResult::FromParentSlots and pre-seeded into
// attack::BaselineCache).
//
// Layout (all integers little-endian, byte-packed):
//
//   header:  magic "ASPPISNP" | u32 version | u32 section_count | u64 file_size
//   table:   section_count × { u32 type | u32 crc32 | u64 offset | u64 size }
//   payload: the sections, back to back
//
// Section types:
//   kInfo     (1): creator string + entity counts (printed by --info)
//   kPolicy   (3): PrependPolicy defaults + per-neighbor overrides
//   kBaselines(4): u64 count, then per baseline: u32 origin | its
//                  PrependPolicy (kPolicy's encoding) | n × u32 parent
//                  slots, in dense AS order. A parent slot is the position,
//                  in the AS's own adjacency row, of the neighbor its best
//                  route came from (0xFFFFFFFF: no route, and always for the
//                  origin) — a converged baseline is a best-route tree, so
//                  every best route is derived from it at load and every
//                  Adj-RIB-In slot on demand (PropagationResult::RibAt). A
//                  loaded baseline is at rest: Rounds() 0, every change
//                  round -1.
//   kCsrGraph (5): the frozen AsGraph's CSR arrays verbatim, every array
//                  8-byte aligned relative to the file start. Loading is
//                  zero-copy: the graph's spans alias the mmap'ed region
//                  (validated by AsGraph::FromCsr) and the mapping is held
//                  alive by the graph's keepalive for the snapshot's
//                  lifetime. Written first so its file offset is the fixed,
//                  8-aligned end of the section table.
//   kDefense  (6): optional — one defense-policy tag byte per AS, dense in
//                  AsId order (defense::PolicySet::RawTags). Stored as raw
//                  bytes so the data layer stays independent of the defense
//                  library; consumers rehydrate via the PolicySet tag
//                  constructor. Omitted entirely for an empty deployment,
//                  keeping undefended snapshots byte-identical to pre-kDefense
//                  writers. Loaders that predate the section ignore it.
//
// Loading validates the magic, version (only kSnapshotVersion loads; v1, v2
// and v3 files are version skew), declared file size, section bounds, that no
// section type repeats, and each section's CRC32 before touching its
// payload; a truncated file, flipped bit, or version skew yields a clean
// error string, never UB. Payloads are then held to what the writer emits
// even behind a valid CRC: the CSR section passes AsGraph::FromCsr's
// structural validation (extents, id ranges, back slots, grouping,
// interning table, ranks), every pad count lies in 1..bgp::kMaxPads, a
// baseline record's 4n bytes are present before its slots are sized, and
// PropagationResult::FromParentSlots rejects a parent slot outside its AS's
// degree, an origin with a parent, a parent cycle, and a parent that
// delivers its child no route — so a crafted file cannot smuggle an
// out-of-bounds index, an aborting pad count or an oversized allocation
// into the engines. The graph a Snapshot owns lives on the heap so loaded
// baselines (which hold a pointer to it) survive moves of the Snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgp/propagation.h"
#include "topology/as_graph.h"

namespace asppi::data {

inline constexpr char kSnapshotMagic[8] = {'A', 'S', 'P', 'P',
                                           'I', 'S', 'N', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 4;

struct SnapshotInfo {
  std::uint32_t version = kSnapshotVersion;
  std::string creator;
  std::uint64_t num_ases = 0;
  std::uint64_t num_links = 0;
  std::uint64_t num_baselines = 0;
  // ASes with a non-empty defense tag (0 when the file has no kDefense
  // section); counted from the payload at load, not trusted from the file.
  std::uint64_t num_defense_tagged = 0;
};

// Compiles `graph` + `policy` (+ optional `baselines`) into `path`. Each
// baseline must be an attack-free, filterless, converged state over `graph`
// — what PropagationSimulator::Run(announcement) and attack::BaselineCache
// produce — since only its best-route tree is stored.
// `creator` identifies the producing tool in the info section.
// `defense_tags`, when non-empty, must hold exactly graph.NumAses() per-AsId
// policy-tag bytes (defense::PolicySet::RawTags) and becomes the kDefense
// section. Every pad count in `policy` and in each baseline's announcement
// must lie in 1..bgp::kMaxPads, the range Load accepts. Returns "" on
// success, else an error message.
std::string WriteSnapshotFile(
    const std::string& path, const topo::AsGraph& graph,
    const bgp::PrependPolicy& policy,
    const std::vector<std::shared_ptr<const bgp::PropagationResult>>&
        baselines,
    const std::string& creator,
    const std::vector<std::uint8_t>& defense_tags = {});

// A loaded snapshot: owns the graph, the policy, and the derived baselines.
class Snapshot {
 public:
  Snapshot();
  Snapshot(Snapshot&&) noexcept = default;
  Snapshot& operator=(Snapshot&&) noexcept = default;

  // mmap + validate + materialize. Returns "" on success, else an error
  // message ("<path>: section 2: CRC mismatch"). `out` is only modified on
  // success.
  static std::string Load(const std::string& path, Snapshot& out);

  // True if `path` starts with the snapshot magic (the tools use this to
  // route a file to the binary or the text loader).
  static bool SniffFile(const std::string& path);

  const SnapshotInfo& Info() const { return info_; }
  const topo::AsGraph& Graph() const { return *graph_; }
  const bgp::PrependPolicy& Policy() const { return policy_; }
  const std::vector<std::shared_ptr<const bgp::PropagationResult>>&
  Baselines() const {
    return baselines_;
  }
  // Per-AsId defense-policy tag bytes; empty when the file carries no
  // kDefense section, else exactly Graph().NumAses() entries.
  const std::vector<std::uint8_t>& DefenseTags() const { return defense_tags_; }

 private:
  SnapshotInfo info_;
  std::unique_ptr<topo::AsGraph> graph_;
  bgp::PrependPolicy policy_;
  std::vector<std::shared_ptr<const bgp::PropagationResult>> baselines_;
  std::vector<std::uint8_t> defense_tags_;
};

}  // namespace asppi::data
