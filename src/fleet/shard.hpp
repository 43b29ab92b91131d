// A Shard owns a contiguous range of homes and processes their items on one
// worker thread, strictly in arrival (= enqueue) order. Because the router
// gives every home to exactly one shard and the queue is FIFO, each home
// sees a total order over its own packets and proofs — the same order a
// single-proxy deployment would see — while homes on different shards
// proceed with no ordering relationship at all. That is the entire
// determinism story: per-home state only ever touched by one thread, fed in
// timestamp order.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "fleet/bounded_queue.hpp"
#include "fleet/home.hpp"
#include "fleet/item.hpp"
#include "fleet/stats.hpp"
#include "telemetry/signals.hpp"
#include "telemetry/sink.hpp"

namespace fiat::fleet {

class ShardSupervisor;

class Shard {
 public:
  /// `homes` is this shard's contiguous slice of the fleet (sorted by id).
  /// `trace_capacity` bounds this shard's telemetry trace ring (0 disables
  /// tracing). `supervisor`, when set, wraps every item in the recovery path
  /// (fleet/supervisor.hpp) and the worker processes item by item; it must
  /// outlive the shard.
  Shard(std::vector<Home> homes, std::size_t queue_capacity, FullPolicy policy,
        std::size_t trace_capacity = 8192,
        ShardSupervisor* supervisor = nullptr);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void start();
  /// Closes the queue and joins the worker. With `drain` every item accepted
  /// before the close is processed; without it the backlog is popped but
  /// skipped (counted as discarded), so stop never waits on proxy work.
  void stop(bool drain);

  BoundedQueue<FleetItem>& queue() { return queue_; }

  /// Worker-side processing of one item (find_home + apply_item, no
  /// durability work); public so a shards=1 caller (or a test) can run the
  /// identical code path synchronously.
  void process(const FleetItem& item);

  /// Worker-side batched processing (DESIGN.md §15): groups the slice per
  /// home (per-home arrival order preserved — homes are independent, so
  /// cross-home reordering is unobservable), hands each home's contiguous
  /// packet runs to FiatProxy::process_batch, and processes proofs scalar
  /// between runs. Byte-identical bookkeeping to calling process() per item.
  void process_batch(std::span<const FleetItem> items);

  /// Engine knob (--no-batch): when false the worker loop processes drained
  /// batches item by item through the scalar path. Supervised shards always
  /// do. Set before start().
  void set_batch(bool enabled) { batch_enabled_ = enabled; }

  std::vector<Home>& homes() { return homes_; }
  const std::vector<Home>& homes() const { return homes_; }
  Home* find_home(HomeId id);

  /// Replaces this shard's homes wholesale (supervisor restart path). Ids
  /// must match the original slice; telemetry is re-wired to the shard's
  /// sink. Worker-thread-only once started.
  void adopt_homes(std::vector<Home> homes);

  /// Snapshot; includes queue stats. Worker-owned counters are only
  /// consistent after the join — calling this on a started-but-not-stopped
  /// shard throws fiat::LogicError (it would read torn stats).
  ShardStats stats() const;

  /// This shard's homes' attack ledgers merged (campaign grading). Same
  /// stopped-state rule as stats().
  core::AttackLedger attack_ledger() const;

  /// Proofs this shard's homes rejected for lifecycle reasons (revoked /
  /// expired / not-yet-enrolled credentials). Same stopped-state rule as
  /// stats().
  std::size_t lifecycle_rejected_proofs() const;

  /// This shard's homes' correlation fingerprints (fleet/signal_probe.hpp),
  /// sorted by home id. Flushes open events first so an escalated event in
  /// flight has committed its costume signatures. Same stopped-state rule as
  /// stats().
  telemetry::SignalSet signals();

  /// This shard's thread-owned telemetry sink (its homes' proxies record
  /// into it too). Written by the worker; same stopped-state rule as
  /// stats().
  telemetry::Sink& telemetry() {
    require_quiescent("telemetry()");
    return sink_;
  }
  const telemetry::Sink& telemetry() const {
    require_quiescent("telemetry()");
    return sink_;
  }

 private:
  void run();
  /// Counts one item this worker applied (ShardStats packets / proofs).
  void count(const FleetItem& item);
  /// Throws unless the worker is not running (never started, or joined).
  void require_quiescent(const char* op) const;

  std::vector<Home> homes_;
  std::vector<HomeId> home_ids_;  // sorted, parallel lookup for find_home
  BoundedQueue<FleetItem> queue_;
  telemetry::Sink sink_;
  telemetry::Histogram* tm_queue_wait_ = nullptr;  // kWall
  telemetry::Histogram* tm_batch_items_ = nullptr;  // kWall
  std::thread worker_;
  ShardSupervisor* supervisor_ = nullptr;
  bool batch_enabled_ = true;
  // Reusable batch scratch (worker-owned). Groups are grow-only so the
  // per-home index vectors keep their capacity across batches.
  struct HomeGroup {
    HomeId home = 0;
    std::vector<std::uint32_t> idx;
  };
  std::vector<HomeGroup> batch_groups_;
  std::vector<net::PacketRecord> batch_pkts_;
  std::vector<core::AttackLabel> batch_labels_;
  bool started_ = false;
  bool stopped_ = false;  // worker joined; counters safe to read
  // Worker-owned counters: written only by the worker thread (or by the
  // owner before start / after join), read after join.
  std::size_t packets_ = 0;
  std::size_t proofs_ = 0;
  std::size_t discarded_ = 0;
  double busy_seconds_ = 0.0;
  // Set (under the queue's closed flag ordering) before a no-drain stop.
  std::atomic<bool> discard_{false};
};

}  // namespace fiat::fleet
