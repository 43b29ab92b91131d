#include "fleet/router.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fiat::fleet {

const char* full_policy_name(FullPolicy p) {
  switch (p) {
    case FullPolicy::kBlock: return "block";
    case FullPolicy::kShed: return "shed";
  }
  return "?";
}

HomePartition HomePartition::contiguous(const std::vector<HomeId>& sorted_ids,
                                        std::size_t shard_count) {
  if (shard_count == 0) throw LogicError("HomePartition: zero shards");
  if (!std::is_sorted(sorted_ids.begin(), sorted_ids.end())) {
    throw LogicError("HomePartition: ids must be sorted");
  }
  HomePartition p;
  std::size_t n = sorted_ids.size();
  std::size_t shards = std::min(shard_count, std::max<std::size_t>(n, 1));
  p.range_start_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // Balanced split: shard i starts at index floor(i*n/shards).
    std::size_t start = i * n / shards;
    p.range_start_.push_back(n == 0 ? 0 : sorted_ids[start]);
  }
  return p;
}

std::size_t HomePartition::shard_of(HomeId id) const {
  if (range_start_.size() <= 1) return 0;
  auto it = std::upper_bound(range_start_.begin() + 1, range_start_.end(), id);
  return static_cast<std::size_t>(it - range_start_.begin()) - 1;
}

IngestRouter::IngestRouter(std::vector<Shard*> shards, HomePartition partition,
                           std::size_t batch_size)
    : shards_(std::move(shards)),
      partition_(std::move(partition)),
      batch_size_(batch_size ? batch_size : 1),
      buffers_(shards_.size()) {
  if (partition_.shard_count() != shards_.size()) {
    throw LogicError("IngestRouter: partition/shard count mismatch");
  }
}

IngestRouter::~IngestRouter() { flush(); }

bool IngestRouter::ingest(FleetItem&& item) {
  std::size_t shard = partition_.shard_of(item.home);
  if (shard >= shards_.size()) return false;
  // Lifecycle commands ride the proof lane in the offered counters: both are
  // rare control-plane datagrams next to the packet firehose.
  if (item.kind == FleetItem::Kind::kPacket) {
    ++packets_offered_;
  } else {
    ++proofs_offered_;
  }
  auto& buf = buffers_[shard];
  buf.push_back(std::move(item));
  if (buf.size() >= batch_size_) {
    accepted_ += shards_[shard]->queue().push_batch(buf);
  }
  return true;
}

std::size_t IngestRouter::flush() {
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    if (buffers_[i].empty()) continue;
    accepted += shards_[i]->queue().push_batch(buffers_[i]);
  }
  accepted_ += accepted;
  return accepted;
}

}  // namespace fiat::fleet
