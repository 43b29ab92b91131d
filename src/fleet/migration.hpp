// The cut barrier of a cluster live migration (DESIGN.md §12.2).
//
// The controller flips routing the instant it decides to migrate; the
// source node completes the cut (ordinal watermark) when it reaches the cut
// message in its FIFO queue, and the destination blocks in wait() until then
// before it restores. FIFO queues guarantee the destination's install
// precedes any post-flip item, so no item ever lands on a node that does not
// yet host its home. abandon() exists solely for the abort path: a discarded
// cut must never leave the destination parked in wait() forever.
//
// The restore the destination runs after the cut — like the failover
// re-placement and the supervisor's restart — is HomeRuntime::restore
// (fleet/home_runtime.hpp), the fleet's one restore routine.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace fiat::fleet {

/// One migration's cut barrier (see file comment). Created by the controller
/// at routing-flip time; completed by the source, awaited by the
/// destination. The wall clock starts at construction so the destination can
/// report end-to-end handoff latency (flip -> home live again).
class Handoff {
 public:
  struct Cut {
    bool ok = false;  // false = abandoned (abort path): skip the install
    std::uint64_t ordinal = 0;  // items of the home processed at the cut
    double sim_ts = 0.0;        // sim time of the routing flip
  };

  Handoff() : created_(std::chrono::steady_clock::now()) {}

  /// Source side: publishes the cut watermark. First writer wins; a
  /// complete() after abandon() is a no-op.
  void complete(std::uint64_t ordinal, double sim_ts);
  /// Abort side: wakes the destination with ok=false.
  void abandon();
  /// Destination side: blocks until complete() or abandon().
  Cut wait();

  /// Wall seconds since the routing flip (the handoff-latency sample).
  double age_seconds() const;

 private:
  std::chrono::steady_clock::time_point created_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  Cut cut_;
};

}  // namespace fiat::fleet
