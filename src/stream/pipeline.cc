#include "stream/pipeline.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/check.h"
#include "util/metrics.h"

namespace asppi::stream {

namespace {

struct PipelineMetrics {
  util::Counter events{"stream.pipeline.events"};
  util::Counter batches{"stream.pipeline.batches"};
  util::Counter origin_moves{"stream.pipeline.origin_moves"};
  util::Counter dropped_withdrawals{"stream.pipeline.dropped_withdrawals"};
};

PipelineMetrics& Instr() {
  static PipelineMetrics* m = new PipelineMetrics();
  return *m;
}

}  // namespace

Pipeline::Pipeline(util::ThreadPool* pool, const Options& options)
    : pool_(pool), options_(options) {
  std::size_t num_shards = options.num_shards;
  if (num_shards == 0) num_shards = pool != nullptr ? pool->NumThreads() : 1;
  ASPPI_CHECK(options_.queue_capacity > 0) << "queue capacity must be positive";
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.emplace_back(Shard{IncrementalDetector(options.detector), {}});
  }
  util::Metrics::Global().SetGauge("stream.pipeline.shards",
                                   static_cast<double>(num_shards));
}

void Pipeline::SeedBaseline(const data::RibSnapshot& rib) {
  std::vector<data::RibSnapshot> shard_ribs(shards_.size());
  for (const auto& [monitor, table] : rib.tables) {
    for (const auto& [prefix, path] : table) {
      if (path.Empty()) continue;
      const Asn victim = path.OriginAs();
      owner_of_.insert_or_assign({monitor, prefix}, victim);
      shard_ribs[ShardOf(victim)].tables[monitor][prefix] = path;
    }
  }
  util::ParallelFor(pool_, shards_.size(), [&](std::size_t i) {
    shards_[i].detector.SeedBaseline(shard_ribs[i]);
  });
}

void Pipeline::Push(const data::Update& update) {
  Instr().events.Add();
  const StreamState::EntryKey key{update.monitor, update.prefix};
  auto it = owner_of_.find(key);
  if (update.withdraw) {
    if (it == owner_of_.end()) {
      // Withdrawing a slot no shard holds: a no-op everywhere; don't burden
      // a queue with it.
      Instr().dropped_withdrawals.Add();
      return;
    }
    Enqueue(ShardOf(it->second), update);
    owner_of_.erase(it);
    return;
  }
  const Asn new_victim = update.path.OriginAs();
  if (it != owner_of_.end() && it->second != new_victim) {
    // Origin move: the old victim's shard must see the slot vacated. Same
    // sequence — this is one event, split across two victims.
    Instr().origin_moves.Add();
    data::Update vacate = update;
    vacate.withdraw = true;
    vacate.path = AsPath();
    Enqueue(ShardOf(it->second), std::move(vacate));
  }
  Enqueue(ShardOf(new_victim), update);
  owner_of_.insert_or_assign(key, new_victim);
}

void Pipeline::Enqueue(std::size_t shard, data::Update update) {
  shards_[shard].queue.push_back(std::move(update));
  queue_peak_ = std::max(queue_peak_, shards_[shard].queue.size());
  if (shards_[shard].queue.size() >= options_.queue_capacity) Flush();
}

void Pipeline::Flush() {
  bool any = false;
  for (const Shard& shard : shards_) {
    if (!shard.queue.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return;
  Instr().batches.Add();
  // Per-shard output slots keep the merge order a pure function of the
  // input, regardless of which worker runs which shard.
  std::vector<std::vector<StampedAlarm>> slots(shards_.size());
  util::ParallelFor(pool_, shards_.size(), [&](std::size_t i) {
    Shard& shard = shards_[i];
    for (const data::Update& update : shard.queue) {
      std::vector<StampedAlarm> emitted = shard.detector.Apply(update);
      slots[i].insert(slots[i].end(),
                      std::make_move_iterator(emitted.begin()),
                      std::make_move_iterator(emitted.end()));
    }
    shard.queue.clear();
  });
  for (std::vector<StampedAlarm>& slot : slots) {
    alarms_.insert(alarms_.end(), std::make_move_iterator(slot.begin()),
                   std::make_move_iterator(slot.end()));
  }
}

std::vector<StampedAlarm> Pipeline::Finish() {
  Flush();
  std::sort(alarms_.begin(), alarms_.end(), StampedAlarmLess);
  util::Metrics::Global().SetGauge("stream.pipeline.queue_peak",
                                   static_cast<double>(queue_peak_));
  return alarms_;
}

std::vector<detect::Alarm> Pipeline::CurrentAlarms(
    const PrefixKey& key) const {
  return shards_[ShardOf(key.origin)].detector.CurrentAlarms(key);
}

const IncrementalDetector& Pipeline::DetectorFor(Asn victim) const {
  return shards_[ShardOf(victim)].detector;
}

}  // namespace asppi::stream
