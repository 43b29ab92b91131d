// IngestRouter: the fleet's ingestion front-end.
//
// Partitions items by home id onto the owning shard's bounded queue,
// buffering per shard so the queue lock is amortized over `batch_size`
// items. Backpressure (block) or shedding happens at the queue according to
// its FullPolicy; the router reports what it offered and what was accepted.
//
// A router instance is single-producer: it keeps unsynchronized per-shard
// buffers. The shard queues themselves are MPSC, so concurrent producers
// are supported by giving each producer thread its own IngestRouter over
// the same shards. Per-home determinism then requires all items of one home
// to flow through one producer in timestamp order — the per-home total
// order the shard preserves is the enqueue order.
#pragma once

#include <cstddef>
#include <vector>

#include "fleet/item.hpp"
#include "fleet/shard.hpp"

namespace fiat::fleet {

/// Maps home ids to shard indexes: contiguous ranges over the sorted home
/// ids (shard 0 gets the lowest ids, and so on, balanced within +/-1 home).
class HomePartition {
 public:
  HomePartition() = default;
  /// `sorted_ids` must be ascending and duplicate-free.
  static HomePartition contiguous(const std::vector<HomeId>& sorted_ids,
                                  std::size_t shard_count);

  std::size_t shard_of(HomeId id) const;
  std::size_t shard_count() const { return range_start_.size(); }
  /// Home ids of shard `i`'s range: [first(i), first(i+1)).
  HomeId range_start(std::size_t shard) const { return range_start_[shard]; }

 private:
  std::vector<HomeId> range_start_;  // range_start_[i] = first home id of shard i
};

class IngestRouter {
 public:
  IngestRouter(std::vector<Shard*> shards, HomePartition partition,
               std::size_t batch_size = 128);
  ~IngestRouter();

  IngestRouter(const IngestRouter&) = delete;
  IngestRouter& operator=(const IngestRouter&) = delete;

  /// Buffers the item towards its shard; flushes that shard's buffer when it
  /// reaches batch_size. Acceptance/shedding is only known at flush time, so
  /// the return value reports routing success (false = no such shard).
  /// Moves from FleetEngine::ingest's own copy, so the producer builds one
  /// item temporary per ingest, not two.
  bool ingest(FleetItem&& item);
  /// Pushes out all buffered items. Returns how many were accepted.
  std::size_t flush();

  std::size_t packets_offered() const { return packets_offered_; }
  std::size_t proofs_offered() const { return proofs_offered_; }
  std::size_t accepted() const { return accepted_; }

 private:
  std::vector<Shard*> shards_;
  HomePartition partition_;
  std::size_t batch_size_;
  std::vector<std::vector<FleetItem>> buffers_;  // per shard
  std::size_t packets_offered_ = 0;
  std::size_t proofs_offered_ = 0;
  std::size_t accepted_ = 0;
};

}  // namespace fiat::fleet
