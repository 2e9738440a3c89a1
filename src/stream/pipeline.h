// Sharded online detection pipeline.
//
// The Pipeline distributes victims (prefix-owner ASes) over N independent
// IncrementalDetector shards (`victim % num_shards`) and processes update
// windows on a util::ThreadPool. The Fig.-4 witness rule compares routes of
// *different* monitors to the same observed prefix (origin and prefix), so
// each such observation set must live in one shard; sharding by victim keeps
// it there, with the victim's other prefixes beside it (DESIGN.md §4e).
//
// Determinism: a serial dispatcher assigns every event to its shard (queue
// fill order depends only on the input order and the shard function), windows
// flush when any shard queue reaches capacity (again input-dependent only),
// each shard applies its queue in order, and Finish() merges all emissions
// sorted by StampedAlarmLess. The emitted alarm stream is therefore
// bit-identical for any thread count and any shard count that keeps victims
// co-located — and equals the emissions of a single unsharded
// IncrementalDetector fed the same stream.
//
// Origin moves: if an announcement changes the origin AS of a (monitor,
// prefix) slot, the dispatcher synthesizes a withdrawal (same sequence) to
// the old victim's shard before routing the announcement to the new one —
// exactly what a single detector's StreamState reports as a cross-victim
// change.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "stream/incremental.h"
#include "stream/update_source.h"
#include "util/thread_pool.h"

namespace asppi::stream {

class Pipeline {
 public:
  struct Options {
    // Number of detector shards. 0 = the pool's concurrency (or 1 without a
    // pool). Must stay fixed for a given stream to keep shard assignment —
    // and thus per-shard apply order — reproducible.
    std::size_t num_shards = 0;
    // Per-shard queue bound; reaching it flushes the current window.
    std::size_t queue_capacity = 1024;
    IncrementalDetector::Options detector;
  };

  // `pool` may be nullptr (serial windows). The pool is borrowed, not owned.
  Pipeline(util::ThreadPool* pool, const Options& options);

  // Seeds every shard's baseline from the converged RIB. Call once, first.
  void SeedBaseline(const data::RibSnapshot& rib);

  // Routes one event to its shard; may flush a full window. Events must
  // arrive in replay order (ascending sequence — what UpdateSource yields).
  void Push(const data::Update& update);

  // Drains all shard queues (window barrier).
  void Flush();

  // Final flush; returns every alarm emitted over the whole stream, sorted
  // by StampedAlarmLess. The pipeline stays queryable afterwards.
  std::vector<StampedAlarm> Finish();

  // Current alarm set for one observed prefix (delegates to its victim's
  // shard's detector).
  std::vector<detect::Alarm> CurrentAlarms(const PrefixKey& key) const;
  const IncrementalDetector& DetectorFor(Asn victim) const;

  std::size_t NumShards() const { return shards_.size(); }
  std::size_t QueuePeak() const { return queue_peak_; }

 private:
  struct Shard {
    IncrementalDetector detector;
    std::vector<data::Update> queue;
  };

  std::size_t ShardOf(Asn victim) const { return victim % shards_.size(); }
  void Enqueue(std::size_t shard, data::Update update);

  util::ThreadPool* pool_;
  Options options_;
  std::vector<Shard> shards_;
  // Serial dispatcher's view of each slot's current origin, for routing
  // withdrawals and detecting origin moves.
  std::map<StreamState::EntryKey, Asn> owner_of_;
  std::vector<StampedAlarm> alarms_;
  std::size_t queue_peak_ = 0;
};

}  // namespace asppi::stream
