// Binary snapshot format: round-trip fidelity (graph, policy, checkpointed
// baselines — stored as parent slots, derived back at load — at small and
// internet2026 scale), warm-start equivalence through attack::BaselineCache,
// and the corruption contract — a truncated file, flipped bit, wrong magic,
// version skew, repeated section, a CRC-repaired out-of-range pad count, or
// parent slots that are no best-route tree yield a clean error string, never
// UB, an abort or an oversized allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "bgp/propagation.h"
#include "data/snapshot.h"
#include "topology/generator.h"
#include "topology/serialization.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace asppi::data {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "asppi_snapshot_test_" + name;
}

topo::GeneratedTopology SmallTopology(std::uint64_t seed = 7) {
  topo::GeneratorParams params;
  params.seed = seed;
  params.num_tier1 = 4;
  params.num_tier2 = 15;
  params.num_tier3 = 40;
  params.num_stubs = 120;
  params.num_content = 3;
  return topo::GenerateInternetTopology(params);
}

bool SameGraph(const topo::AsGraph& a, const topo::AsGraph& b) {
  if (a.NumAses() != b.NumAses() || a.NumLinks() != b.NumLinks()) return false;
  for (topo::Asn asn : a.Ases()) {
    if (!b.HasAs(asn)) return false;
    for (const auto& neighbor : a.NeighborsOf(asn)) {
      const auto rel = b.RelationOf(asn, neighbor.asn);
      if (!rel.has_value() || *rel != neighbor.rel) return false;
    }
  }
  return true;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Snapshot, RoundTripsGraphAndPolicy) {
  const auto gen = SmallTopology();
  bgp::PrependPolicy policy;
  policy.SetDefault(gen.tier1[0], 4);
  policy.SetDefault(gen.stubs[0], 2);
  policy.SetForNeighbor(gen.stubs[0], gen.tier1[1], 6);

  const std::string path = TempPath("roundtrip.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, policy, {}, "snapshot_test"),
            "");

  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  EXPECT_TRUE(SameGraph(gen.graph, snapshot.Graph()));
  EXPECT_EQ(policy.KeyString(), snapshot.Policy().KeyString());
  EXPECT_EQ(snapshot.Info().version, kSnapshotVersion);
  EXPECT_EQ(snapshot.Info().creator, "snapshot_test");
  EXPECT_EQ(snapshot.Info().num_ases, gen.graph.NumAses());
  EXPECT_EQ(snapshot.Info().num_links, gen.graph.NumLinks());
  EXPECT_EQ(snapshot.Info().num_baselines, 0u);
  EXPECT_TRUE(snapshot.Baselines().empty());
  std::remove(path.c_str());
}

TEST(Snapshot, SniffFileRoutesFormats) {
  const auto gen = SmallTopology();
  const std::string snap_path = TempPath("sniff.snap");
  const std::string text_path = TempPath("sniff.topo");
  ASSERT_EQ(WriteSnapshotFile(snap_path, gen.graph, {}, {}, "t"), "");
  topo::WriteAsRelFile(gen.graph, text_path);
  EXPECT_TRUE(Snapshot::SniffFile(snap_path));
  EXPECT_FALSE(Snapshot::SniffFile(text_path));
  EXPECT_FALSE(Snapshot::SniffFile(TempPath("does_not_exist")));
  std::remove(snap_path.c_str());
  std::remove(text_path.c_str());
}

// The state a snapshot derived for a baseline equals the converged one bit
// for bit: announcement, every best route (learned_from included) and
// Adj-RIB-In slot. It is at rest: round count 0, every change round -1.
void ExpectSameState(const bgp::PropagationResult& converged,
                     const bgp::PropagationResult& loaded) {
  const std::string diff =
      bgp::FirstBaselineDifference(loaded, converged, "snapshot");
  EXPECT_EQ(diff, "");
  EXPECT_EQ(converged.GetAnnouncement().origin,
            loaded.GetAnnouncement().origin);
  EXPECT_EQ(converged.GetAnnouncement().prepends.KeyString(),
            loaded.GetAnnouncement().prepends.KeyString());
  EXPECT_TRUE(converged.BestRoutes() == loaded.BestRoutes()) << diff;
  EXPECT_EQ(loaded.Rounds(), 0);
  EXPECT_TRUE(std::all_of(loaded.FirstChangeRounds().begin(),
                          loaded.FirstChangeRounds().end(),
                          [](int round) { return round == -1; }));
}

// Each origin's attack-free baseline, announced with λ=4.
std::vector<std::shared_ptr<const bgp::PropagationResult>> ConvergeBaselines(
    const topo::AsGraph& graph, const std::vector<topo::Asn>& origins) {
  bgp::PropagationSimulator engine(graph);
  std::vector<std::shared_ptr<const bgp::PropagationResult>> baselines;
  for (topo::Asn origin : origins) {
    bgp::Announcement announcement;
    announcement.origin = origin;
    announcement.prepends.SetDefault(origin, 4);
    baselines.push_back(std::make_shared<const bgp::PropagationResult>(
        engine.Run(announcement)));
  }
  return baselines;
}

// Writes `baselines` into a snapshot, loads it back, and compares every
// derived state with its converged original.
void ExpectBaselinesRoundTrip(
    const topo::AsGraph& graph,
    const std::vector<std::shared_ptr<const bgp::PropagationResult>>&
        baselines,
    const std::string& name) {
  const std::string path = TempPath(name);
  ASSERT_EQ(WriteSnapshotFile(path, graph, {}, baselines, "t"), "");
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  std::remove(path.c_str());
  ASSERT_EQ(snapshot.Baselines().size(), baselines.size());
  for (std::size_t i = 0; i < baselines.size(); ++i) {
    SCOPED_TRACE("baseline " + std::to_string(i));
    ExpectSameState(*baselines[i], *snapshot.Baselines()[i]);
  }
}

TEST(Snapshot, RoundTripsBaselinesExactly) {
  // The generator's 15 sibling pairs put best routes learned over a sibling
  // link (their class transported from the far side) into both baselines.
  const auto gen = SmallTopology(11);
  ASSERT_EQ(gen.siblings.size(), 15u);
  const auto baselines =
      ConvergeBaselines(gen.graph, {gen.stubs[3], gen.tier1[0]});
  for (const auto& baseline : baselines) {
    EXPECT_TRUE(std::any_of(
        baseline->BestRoutes().begin(), baseline->BestRoutes().end(),
        [](const std::optional<bgp::Route>& route) {
          return route.has_value() && route->rel == topo::Relation::kSibling;
        }));
  }
  ExpectBaselinesRoundTrip(gen.graph, baselines, "baselines.snap");
}

TEST(Snapshot, RoundTripsInternet2026BaselinesExactly) {
  // The same gate at the scale the server runs: ~100k ASes, a tier-1 and a
  // stub victim.
  const topo::GeneratedTopology gen =
      topo::GenerateInternetTopology(topo::Internet2026Params());
  ExpectBaselinesRoundTrip(
      gen.graph, ConvergeBaselines(gen.graph, {gen.tier1[0], gen.stubs[0]}),
      "internet2026.snap");
}

TEST(Snapshot, WarmStartedAttackMatchesColdRun) {
  // The acceptance property behind snapshot fast paths: an attack resumed
  // from a loaded checkpoint is bit-identical to one whose baseline was
  // converged from scratch.
  const auto gen = SmallTopology(13);
  const topo::Asn victim = gen.stubs[5];
  const topo::Asn attacker = gen.tier2[1];
  constexpr int kLambda = 4;

  bgp::PropagationSimulator engine(gen.graph);
  bgp::Announcement announcement;
  announcement.origin = victim;
  announcement.prepends.SetDefault(victim, kLambda);
  auto baseline = std::make_shared<const bgp::PropagationResult>(
      engine.Run(announcement));

  const std::string path = TempPath("warm.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {baseline}, "t"), "");
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  ASSERT_EQ(snapshot.Baselines().size(), 1u);

  // Warm: the loaded checkpoint pre-seeds the cache over the *snapshot's*
  // graph; cold: a fresh convergence over the original graph.
  attack::BaselineCache warm_cache(snapshot.Graph());
  warm_cache.Put(snapshot.Baselines()[0]);
  attack::AttackSimulator warm(snapshot.Graph(), &warm_cache);
  attack::AttackSimulator cold(gen.graph);

  const auto warm_outcome =
      warm.RunAsppInterception(victim, attacker, kLambda);
  const auto cold_outcome =
      cold.RunAsppInterception(victim, attacker, kLambda);
  EXPECT_EQ(warm_outcome.fraction_before, cold_outcome.fraction_before);
  EXPECT_EQ(warm_outcome.fraction_after, cold_outcome.fraction_after);
  EXPECT_EQ(warm_outcome.newly_polluted, cold_outcome.newly_polluted);
  for (topo::Asn asn : gen.graph.Ases()) {
    const auto& want = cold_outcome.after.BestAt(asn);
    const auto& got = warm_outcome.after.BestAt(asn);
    ASSERT_EQ(want.has_value(), got.has_value()) << "AS" << asn;
    if (want.has_value()) {
      EXPECT_EQ(want->path.ToString(), got->path.ToString()) << "AS" << asn;
    }
  }
  std::remove(path.c_str());
}

// --- editing a written snapshot image ----------------------------------------

// Little-endian field access into a snapshot image.
std::uint64_t LoadLe(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

void StoreLe(std::string& bytes, std::size_t at, int width, std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>(v >> (8 * i));
  }
}

// Section-table entry for the first section of `type` (-1 if absent).
// Header: magic[8] version@8 section_count@12 file_size@16; entries of 24
// bytes each follow at offset 24 as { u32 type | u32 crc | u64 off | u64 size }.
struct TableEntry {
  std::size_t entry_offset = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

std::optional<TableEntry> FindSection(const std::string& bytes,
                                      std::uint32_t type) {
  const std::uint64_t count = LoadLe(bytes, 12, 4);
  for (std::uint64_t s = 0; s < count; ++s) {
    const std::size_t at = 24 + s * 24;
    if (LoadLe(bytes, at, 4) != type) continue;
    return TableEntry{at, LoadLe(bytes, at + 8, 8), LoadLe(bytes, at + 16, 8)};
  }
  return std::nullopt;
}

// Recomputes `entry`'s CRC after its payload was edited, so the edit gets
// past the checksum and reaches the section parser.
void RestampCrc(std::string& bytes, const TableEntry& entry) {
  StoreLe(bytes, entry.entry_offset + 4, 4,
          util::Crc32(bytes.data() + entry.offset, entry.size));
}

constexpr std::uint32_t kInfoSectionType = 1;
constexpr std::uint32_t kPolicySectionType = 3;
constexpr std::uint32_t kBaselinesSectionType = 4;
constexpr std::uint32_t kDefenseSectionType = 6;

// --- kDefense section --------------------------------------------------------

TEST(Snapshot, RoundTripsDefenseTags) {
  const auto gen = SmallTopology(29);
  // One tag byte per AsId; exercise every valid PolicyKind mask 0..7.
  std::vector<std::uint8_t> tags(gen.graph.NumAses());
  std::size_t deployed = 0;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    tags[i] = static_cast<std::uint8_t>(i % 8);
    if (tags[i] != 0) ++deployed;
  }

  const std::string path = TempPath("defense.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t", tags), "");
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  EXPECT_EQ(snapshot.DefenseTags(), tags);
  EXPECT_EQ(snapshot.Info().num_defense_tagged, deployed);
  EXPECT_TRUE(FindSection(ReadFile(path), kDefenseSectionType).has_value());
  std::remove(path.c_str());
}

TEST(Snapshot, EmptyDeploymentOmitsTheDefenseSection) {
  // An undefended snapshot must carry NO kDefense section at all, so its
  // bytes stay identical to what pre-kDefense writers produced and old
  // loaders never see an unknown section.
  const auto gen = SmallTopology();
  const std::string path = TempPath("nodefense.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t",
                              std::vector<std::uint8_t>{}),
            "");
  EXPECT_FALSE(FindSection(ReadFile(path), kDefenseSectionType).has_value());
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  EXPECT_TRUE(snapshot.DefenseTags().empty());
  EXPECT_EQ(snapshot.Info().num_defense_tagged, 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, WriterRejectsMalformedDefenseTags) {
  const auto gen = SmallTopology();
  const std::string path = TempPath("badtags.snap");
  // Wrong cardinality: must cover every AS exactly once.
  std::vector<std::uint8_t> short_tags(gen.graph.NumAses() - 1, 1);
  EXPECT_NE(WriteSnapshotFile(path, gen.graph, {}, {}, "t", short_tags), "");
  // A tag with bits above kAllPolicies is not a valid PolicyKind mask.
  std::vector<std::uint8_t> bad_tags(gen.graph.NumAses(), 0);
  bad_tags[3] = 8;
  EXPECT_NE(WriteSnapshotFile(path, gen.graph, {}, {}, "t", bad_tags), "");
}

TEST(Snapshot, LoadRejectsCraftedDefenseTagBehindTheCrc) {
  // Like the CSR structural check: an out-of-range tag byte whose section CRC
  // has been re-stamped passes the checksum but must still be rejected before
  // it can reach PolicySet rehydration.
  const auto gen = SmallTopology();
  std::vector<std::uint8_t> tags(gen.graph.NumAses(), 1);
  const std::string path = TempPath("craftedtag.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t", tags), "");
  std::string bytes = ReadFile(path);

  const auto entry = FindSection(bytes, kDefenseSectionType);
  ASSERT_TRUE(entry.has_value());
  // Payload is u64 count + tag bytes; poison the last tag and re-stamp.
  bytes[entry->offset + entry->size - 1] = static_cast<char>(0xFF);
  RestampCrc(bytes, *entry);
  WriteFile(path, bytes);

  Snapshot snapshot;
  const std::string err = Snapshot::Load(path, snapshot);
  EXPECT_NE(err.find("invalid tag byte"), std::string::npos) << err;
  std::remove(path.c_str());
}

// --- corruption contract -----------------------------------------------------

TEST(Snapshot, LoadRejectsMissingFile) {
  Snapshot snapshot;
  const std::string err = Snapshot::Load(TempPath("nope.snap"), snapshot);
  EXPECT_NE(err, "");
}

TEST(Snapshot, LoadRejectsBadMagic) {
  const auto gen = SmallTopology();
  const std::string path = TempPath("magic.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  std::string bytes = ReadFile(path);
  bytes[0] = 'X';
  WriteFile(path, bytes);
  Snapshot snapshot;
  const std::string err = Snapshot::Load(path, snapshot);
  EXPECT_NE(err.find("magic"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Snapshot, LoadRejectsVersionSkew) {
  // Newer files and the retired v1, v2 and v3 formats alike: only
  // kSnapshotVersion loads.
  const auto gen = SmallTopology();
  const std::string path = TempPath("version.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  const std::string bytes = ReadFile(path);
  for (const std::uint32_t version : {kSnapshotVersion + 1, 3u, 2u, 1u}) {
    std::string skewed = bytes;
    StoreLe(skewed, 8, 4, version);
    WriteFile(path, skewed);
    Snapshot snapshot;
    const std::string err = Snapshot::Load(path, snapshot);
    EXPECT_NE(err.find("version skew"), std::string::npos)
        << "version " << version << ": " << err;
  }
  std::remove(path.c_str());
}

TEST(Snapshot, LoadRejectsRepeatedSections) {
  // A second copy of a section would merge into the first (policy defaults)
  // or replace it (info, baselines); any repeated type is an error instead.
  // The copy goes in as one more table entry with its payload appended: every
  // existing section shifts by one 24-byte entry, so the CSR section stays
  // 8-aligned and only the repeat is wrong with the file.
  const auto gen = SmallTopology();
  bgp::PropagationSimulator engine(gen.graph);
  bgp::Announcement announcement;
  announcement.origin = gen.stubs[0];
  announcement.prepends.SetDefault(announcement.origin, 3);
  auto baseline = std::make_shared<const bgp::PropagationResult>(
      engine.Run(announcement));
  bgp::PrependPolicy policy;
  policy.SetDefault(gen.tier1[0], 4);
  const std::string path = TempPath("repeated.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, policy, {baseline}, "t"), "");
  const std::string bytes = ReadFile(path);
  const std::uint64_t count = LoadLe(bytes, 12, 4);
  const std::size_t table_end = 24 + count * 24;

  for (const std::uint32_t type :
       {kInfoSectionType, kPolicySectionType, kBaselinesSectionType}) {
    const auto entry = FindSection(bytes, type);
    ASSERT_TRUE(entry.has_value()) << "section " << type;
    std::string table = bytes.substr(24, table_end - 24);
    for (std::uint64_t s = 0; s < count; ++s) {
      StoreLe(table, s * 24 + 8, 8, LoadLe(table, s * 24 + 8, 8) + 24);
    }
    std::string copy = bytes.substr(entry->entry_offset, 24);
    StoreLe(copy, 8, 8, bytes.size() + 24);
    std::string header = bytes.substr(0, 24);
    StoreLe(header, 12, 4, count + 1);
    StoreLe(header, 16, 8, bytes.size() + 24 + entry->size);
    WriteFile(path, header + table + copy + bytes.substr(table_end) +
                        bytes.substr(entry->offset, entry->size));

    Snapshot snapshot;
    const std::string err = Snapshot::Load(path, snapshot);
    EXPECT_NE(err.find("section " + std::to_string(type) + ": repeated"),
              std::string::npos)
        << err;
  }
  std::remove(path.c_str());
}

TEST(Snapshot, PadCountsOutsideTheProtocolRangeNeverLoadOrWrite) {
  // PrependPolicy aborts on pads < 1, and --policy, --lambda and the wire
  // protocol all cap pads at 64. A CRC-repaired pad count of 0 or 65 — in the
  // corpus policy or in a baseline's announcement — is a load error, and the
  // writer refuses what the loader would refuse.
  const auto gen = SmallTopology();
  bgp::PropagationSimulator engine(gen.graph);
  bgp::Announcement announcement;
  announcement.origin = gen.stubs[0];
  announcement.prepends.SetDefault(announcement.origin, 3);
  auto baseline = std::make_shared<const bgp::PropagationResult>(
      engine.Run(announcement));
  bgp::PrependPolicy policy;
  policy.SetDefault(gen.tier1[0], 4);
  const std::string path = TempPath("pads.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, policy, {baseline}, "t"), "");
  const std::string bytes = ReadFile(path);

  // The first default's i32 pads: kPolicy is u64 count | u32 asn | i32 pads;
  // kBaselines is u64 count | u32 origin | the announcement's policy.
  const auto policy_entry = FindSection(bytes, kPolicySectionType);
  const auto baselines_entry = FindSection(bytes, kBaselinesSectionType);
  ASSERT_TRUE(policy_entry.has_value());
  ASSERT_TRUE(baselines_entry.has_value());
  struct PadsField {
    TableEntry section;
    std::size_t at;         // offset within the section
    std::uint64_t written;  // the pad count the writer put there
  };
  const PadsField fields[] = {{*policy_entry, 8 + 4, 4},
                              {*baselines_entry, 8 + 4 + 8 + 4, 3}};
  for (const PadsField& field : fields) {
    const std::size_t at = field.section.offset + field.at;
    ASSERT_EQ(LoadLe(bytes, at, 4), field.written);
    for (const std::uint32_t pads : {0u, 65u}) {
      std::string crafted = bytes;
      StoreLe(crafted, at, 4, pads);
      RestampCrc(crafted, field.section);
      WriteFile(path, crafted);
      Snapshot snapshot;
      const std::string err = Snapshot::Load(path, snapshot);
      EXPECT_NE(err.find("pad count " + std::to_string(pads) + " outside 1..64"),
                std::string::npos)
          << err;
    }
  }

  bgp::PrependPolicy too_long;
  too_long.SetDefault(gen.tier1[0], 65);
  EXPECT_NE(WriteSnapshotFile(path, gen.graph, too_long, {}, "t"), "");
  bgp::Announcement padded = announcement;
  padded.prepends.SetForNeighbor(gen.stubs[0], gen.tier1[0], 65);
  auto padded_baseline =
      std::make_shared<const bgp::PropagationResult>(engine.Run(padded));
  EXPECT_NE(WriteSnapshotFile(path, gen.graph, {}, {padded_baseline}, "t"),
            "");
  std::remove(path.c_str());
}

TEST(Snapshot, LoadRejectsParentSlotsThatAreNotABestRouteTree) {
  // Behind a repaired CRC, parent slots that cannot be a converged
  // best-route tree, or a record cut short, are a clean error naming the
  // baseline and the AS — never an out-of-bounds index, an endless walk up a
  // cycle, or arrays sized past the section.
  const auto gen = SmallTopology();
  const topo::AsGraph& graph = gen.graph;
  bgp::PropagationSimulator engine(graph);
  bgp::Announcement announcement;
  announcement.origin = gen.stubs[0];
  announcement.prepends.SetDefault(announcement.origin, 3);
  auto baseline = std::make_shared<const bgp::PropagationResult>(
      engine.Run(announcement));
  const std::string path = TempPath("parents.snap");
  ASSERT_EQ(WriteSnapshotFile(path, graph, {}, {baseline}, "t"), "");
  const std::string bytes = ReadFile(path);
  const auto entry = FindSection(bytes, kBaselinesSectionType);
  ASSERT_TRUE(entry.has_value());

  // u64 count | u32 origin | policy (u64 1 | u32 asn | i32 pads | u64 0),
  // then one u32 parent slot per AS in dense order.
  const std::size_t slots = entry->offset + 8 + 4 + 24;
  const auto slot_toward = [&graph](topo::AsId from, topo::AsId to) {
    const auto row = graph.NeighborsAt(from);
    return static_cast<std::uint32_t>(
        std::find_if(row.begin(), row.end(),
                     [to](const topo::Edge& edge) { return edge.id == to; }) -
        row.begin());
  };
  const auto label = [&graph](topo::AsId id) {
    return "AS" + std::to_string(graph.AsnAt(id)) + ": ";
  };
  const topo::AsId origin = graph.IndexOf(announcement.origin);
  ASSERT_EQ(LoadLe(bytes, slots + 4 * origin, 4),
            bgp::PropagationResult::kNoParent);

  // A provider-learned best route may go down to customers only: exporting
  // it to the AS's peer or provider `y` is not policy-legal. `y` must not be
  // on the path, or making it the child would close a cycle instead.
  topo::AsId exporter = 0, child = 0;
  bool found = false;
  for (topo::AsId x = 0; x < graph.NumAses() && !found; ++x) {
    const auto& best = baseline->BestRoutes()[x];
    if (!best.has_value() || best->effective != topo::Relation::kProvider) {
      continue;
    }
    for (const topo::Edge& edge : graph.NeighborsAt(x)) {
      if ((edge.rel == topo::Relation::kPeer ||
           edge.rel == topo::Relation::kProvider) &&
          edge.id != origin && !best->path.Contains(edge.asn)) {
        exporter = x;
        child = edge.id;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);

  const topo::AsId a = graph.IndexOf(gen.tier1[0]);
  const topo::AsId b = graph.NeighborsAt(a)[0].id;
  ASSERT_NE(b, origin);
  struct Case {
    const char* name;
    std::vector<std::pair<topo::AsId, std::uint32_t>> slots;  // AS → slot
    std::vector<std::string> any_of;  // the error contains one of these
  };
  const Case cases[] = {
      {"slot past the degree",
       {{a, static_cast<std::uint32_t>(graph.DegreeAt(a))}},
       {label(a) + "parent slot " + std::to_string(graph.DegreeAt(a)) +
        " outside its degree"}},
      {"origin with a parent",
       {{origin, 0}},
       {label(origin) + "the origin has a parent"}},
      {"two-AS cycle",
       {{a, slot_toward(a, b)}, {b, slot_toward(b, a)}},
       {label(a) + "parent links form a cycle",
        label(b) + "parent links form a cycle"}},
      {"export that is not policy-legal",
       {{child, slot_toward(child, exporter)}},
       {label(child) + "parent AS" + std::to_string(graph.AsnAt(exporter)) +
        " delivers it no route"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string crafted = bytes;
    for (const auto& [id, slot] : c.slots) {
      StoreLe(crafted, slots + 4 * id, 4, slot);
    }
    RestampCrc(crafted, *entry);
    WriteFile(path, crafted);
    Snapshot snapshot;
    const std::string err = Snapshot::Load(path, snapshot);
    EXPECT_TRUE(std::any_of(c.any_of.begin(), c.any_of.end(),
                            [&err](const std::string& want) {
                              return err.find("baseline 0: " + want) !=
                                     std::string::npos;
                            }))
        << err;
  }

  // A record cut short: kBaselines is the file's last section, so dropping
  // its last parent slot only needs the table, the header and the CRC to
  // agree with the shorter file.
  ASSERT_EQ(entry->offset + entry->size, bytes.size());
  std::string cut = bytes.substr(0, bytes.size() - 4);
  StoreLe(cut, entry->entry_offset + 16, 8, entry->size - 4);
  StoreLe(cut, 16, 8, cut.size());
  TableEntry shorter = *entry;
  shorter.size -= 4;
  RestampCrc(cut, shorter);
  WriteFile(path, cut);
  Snapshot snapshot;
  const std::string err = Snapshot::Load(path, snapshot);
  EXPECT_NE(err.find("baseline 0: truncated: " +
                     std::to_string(graph.NumAses()) + " ASes need"),
            std::string::npos)
      << err;
  std::remove(path.c_str());
}

TEST(Snapshot, SeededMutationsOfPolicyAndBaselinesLoadOrFailCleanly) {
  // 2,000 seeded mutations of a small snapshot's kPolicy and kBaselines
  // payloads, each behind a repaired CRC so it reaches the section parsers:
  // parent slots, pad counts, the origin and the length fields. Every
  // mutated file must load (and its baselines index like a served
  // snapshot's) or return an error; none may abort.
  constexpr std::uint64_t kSeed = 23;
  constexpr std::size_t kMutations = 2000;
  const auto gen = SmallTopology();
  const topo::AsGraph& graph = gen.graph;
  const std::size_t n = graph.NumAses();
  bgp::Announcement announcement;
  announcement.origin = gen.stubs[0];
  announcement.prepends.SetDefault(announcement.origin, 3);
  const topo::Asn first_neighbor = graph.NeighborsOf(gen.stubs[0])[0].asn;
  announcement.prepends.SetForNeighbor(announcement.origin, first_neighbor, 5);
  attack::BaselineCache cache(graph);
  bgp::PrependPolicy policy;
  policy.SetDefault(gen.tier1[0], 4);
  policy.SetForNeighbor(gen.tier1[1], gen.tier1[2], 2);
  const std::string path = TempPath("mutated.snap");
  ASSERT_EQ(WriteSnapshotFile(path, graph, policy,
                              {cache.GetEntry(announcement).state}, "t"),
            "");
  const std::string bytes = ReadFile(path);
  const auto policy_entry = FindSection(bytes, kPolicySectionType);
  const auto baselines_entry = FindSection(bytes, kBaselinesSectionType);
  ASSERT_TRUE(policy_entry.has_value());
  ASSERT_TRUE(baselines_entry.has_value());

  // Field offsets within each section. A policy is u64 defaults | defaults ×
  // {u32 asn | i32 pads} | u64 overrides | overrides × {u32 | u32 | i32}; a
  // baseline record is u32 origin | its policy | n × u32 parent slots, after
  // kBaselines' u64 count.
  struct Field {
    const TableEntry* section;
    std::size_t at;
    int width;
  };
  const auto policy_fields = [](const TableEntry* section, std::size_t at) {
    // One default and one override, as written above.
    return std::vector<Field>{{section, at, 8},
                              {section, at + 8 + 4, 4},
                              {section, at + 16, 8},
                              {section, at + 24 + 8, 4}};
  };
  std::vector<Field> fields = policy_fields(&*policy_entry, 0);
  const std::vector<Field> baseline_policy =
      policy_fields(&*baselines_entry, 12);
  fields.insert(fields.end(), baseline_policy.begin(), baseline_policy.end());
  fields.push_back({&*baselines_entry, 0, 8});  // baseline count
  fields.push_back({&*baselines_entry, 8, 4});  // origin
  const std::size_t slots_at = 12 + 36;
  ASSERT_EQ(slots_at + 4 * n, baselines_entry->size);

  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutations; ++i) {
    util::Rng rng(util::DeriveSeed(kSeed, i));
    std::string crafted = bytes;
    const auto value = [&rng](std::uint64_t original) -> std::uint64_t {
      switch (rng.Below(4)) {
        case 0: return original + 1;
        case 1: return original - 1;
        case 2: return rng.Below(70);
        default: return rng();
      }
    };
    const std::size_t edits = 1 + rng.Below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      Field field;
      if (rng.Chance(0.5)) {  // a parent slot
        const topo::AsId as = static_cast<topo::AsId>(rng.Below(n));
        field = {&*baselines_entry, slots_at + 4 * as, 4};
        if (rng.Chance(0.5)) {
          StoreLe(crafted, field.section->offset + field.at, 4,
                  rng.Chance(0.2) ? bgp::PropagationResult::kNoParent
                                  : rng.Below(graph.DegreeAt(as) + 1));
          continue;
        }
      } else {  // a pad count, a length, the origin
        field = fields[rng.Below(fields.size())];
      }
      const std::size_t at = field.section->offset + field.at;
      StoreLe(crafted, at, field.width,
              value(LoadLe(crafted, at, field.width)));
    }
    RestampCrc(crafted, *policy_entry);
    RestampCrc(crafted, *baselines_entry);
    WriteFile(path, crafted);
    Snapshot snapshot;
    if (!Snapshot::Load(path, snapshot).empty()) {
      ++rejected;
      continue;
    }
    ++loaded;
    attack::BaselineCache served(snapshot.Graph());
    for (const auto& baseline : snapshot.Baselines()) served.Put(baseline);
  }
  EXPECT_EQ(loaded + rejected, kMutations);
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, LoadRejectsEveryTruncation) {
  // Chopping the file anywhere — inside the header, the section table, or a
  // section payload — must produce a clean error, never UB. Sampled stride
  // keeps the test fast while covering all three regions.
  const auto gen = SmallTopology();
  const std::string path = TempPath("trunc.snap");
  bgp::PrependPolicy policy;
  policy.SetDefault(gen.tier1[0], 3);
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, policy, {}, "t"), "");
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 64u);

  const std::string cut_path = TempPath("trunc.cut.snap");
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 128 ? 1 : 997)) {
    WriteFile(cut_path, bytes.substr(0, cut));
    Snapshot snapshot;
    const std::string err = Snapshot::Load(cut_path, snapshot);
    EXPECT_NE(err, "") << "truncated at " << cut << " of " << bytes.size();
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(Snapshot, LoadRejectsFlippedPayloadBits) {
  // A flipped bit anywhere in a section payload fails that section's CRC.
  const auto gen = SmallTopology();
  const std::string path = TempPath("crc.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  const std::string bytes = ReadFile(path);
  const std::string flip_path = TempPath("crc.flip.snap");
  // Skip the 24-byte header + table; flip bytes across the payload.
  for (std::size_t pos = bytes.size() / 2; pos < bytes.size(); pos += 1013) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x40);
    WriteFile(flip_path, corrupted);
    Snapshot snapshot;
    const std::string err = Snapshot::Load(flip_path, snapshot);
    EXPECT_NE(err, "") << "flipped byte at " << pos;
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

// --- zero-copy CSR section (since format v2) ---------------------------------

TEST(Snapshot, LoadReportsVersion4) {
  const auto gen = SmallTopology();
  const std::string path = TempPath("v4.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  EXPECT_EQ(snapshot.Info().version, 4u);
  std::remove(path.c_str());
}

TEST(Snapshot, GraphOutlivesTheSnapshotFile) {
  // The zero-copy graph holds the mapping alive; deleting the file after
  // Load must not invalidate it (POSIX keeps mapped pages of unlinked
  // files).
  const auto gen = SmallTopology();
  const std::string path = TempPath("unlink.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  std::remove(path.c_str());
  EXPECT_TRUE(SameGraph(gen.graph, snapshot.Graph()));
}

TEST(Snapshot, CsrStructuralValidationBehindTheCrc) {
  // A corrupted CSR payload whose table CRC has been recomputed passes the
  // checksum but must still be rejected by AsGraph::FromCsr's structural
  // validation — the defense against crafted (not just bit-rotted) files.
  const auto gen = SmallTopology();
  const std::string path = TempPath("crafted.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  std::string bytes = ReadFile(path);

  // Section table entry 0 is kCsrGraph: type@24 crc@28 offset@32 size@40.
  // Its payload starts at 120; the u64 link count lives at bytes 16..23 of
  // the section. Nudge it and re-stamp the CRC.
  const std::size_t section_off = 120;
  std::uint64_t size = 0;
  for (int i = 0; i < 8; ++i) {
    size |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(bytes[40 + i]))
            << (8 * i);
  }
  bytes[section_off + 16] = static_cast<char>(bytes[section_off + 16] ^ 1);
  const std::uint32_t crc = util::Crc32(bytes.data() + section_off, size);
  for (int i = 0; i < 4; ++i) {
    bytes[28 + i] = static_cast<char>(crc >> (8 * i));
  }
  WriteFile(path, bytes);

  Snapshot snapshot;
  const std::string err = Snapshot::Load(path, snapshot);
  EXPECT_NE(err.find("csr graph section"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Snapshot, LoadedSnapshotSurvivesMove) {
  // The loaded baselines point at the snapshot's heap-owned graph; a move
  // must not invalidate them.
  const auto gen = SmallTopology(17);
  bgp::PropagationSimulator engine(gen.graph);
  bgp::Announcement announcement;
  announcement.origin = gen.stubs[0];
  announcement.prepends.SetDefault(announcement.origin, 2);
  auto baseline = std::make_shared<const bgp::PropagationResult>(
      engine.Run(announcement));
  const std::string path = TempPath("move.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {baseline}, "t"), "");

  Snapshot loaded;
  ASSERT_EQ(Snapshot::Load(path, loaded), "");
  Snapshot moved = std::move(loaded);
  ASSERT_EQ(moved.Baselines().size(), 1u);
  EXPECT_EQ(&moved.Baselines()[0]->Graph(), &moved.Graph());
  EXPECT_EQ(moved.Baselines()[0]->ReachableCount(),
            baseline->ReachableCount());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace asppi::data
