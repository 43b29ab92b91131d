// FleetEngine: the sharded multi-home proxy runtime.
//
// Hosts N independent homes (each its own FiatProxy, device set, keystore
// and RNG stream) behind a single ingestion front-end:
//
//   ingest(item) -> IngestRouter -> per-shard BoundedQueue -> Shard worker
//                                                             -> home proxy
//
// Lifecycle: construct -> start() -> ingest()... -> drain() | abort()
//            -> report() / stats().
//
// Determinism contract (asserted in tests/test_fleet.cpp):
//  * per-home results depend only on that home's item stream, never on the
//    shard count: with shards=1 the per-home SecurityReport is byte-identical
//    to driving a FiatProxy directly, and shards=K reproduces shards=1
//    home-for-home;
//  * required of the caller: all items of one home ingested from one thread
//    in timestamp order (the single-threaded merged-stream feed the CLI and
//    benches use satisfies this trivially).
// Backpressure: queues are bounded; FullPolicy::kBlock stalls the producer,
// FullPolicy::kShed drops and counts. Nothing grows without bound.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/humanness.hpp"
#include "core/report.hpp"
#include "fleet/correlator.hpp"
#include "fleet/enrollment.hpp"
#include "fleet/home.hpp"
#include "fleet/router.hpp"
#include "fleet/shard.hpp"
#include "fleet/stats.hpp"
#include "fleet/supervisor.hpp"

namespace fiat::fleet {

struct FleetConfig {
  std::size_t shards = 1;
  /// Per-shard queue capacity (items).
  std::size_t queue_capacity = 8192;
  FullPolicy on_full = FullPolicy::kBlock;
  /// Router buffering: items per queue-lock acquisition.
  std::size_t ingest_batch = 128;
  /// Per-shard telemetry trace ring capacity (spans); 0 disables tracing.
  std::size_t trace_capacity = 8192;
  /// Hand whole drained queue batches to the batch pipeline (DESIGN.md §15).
  /// Per-home results are byte-identical either way; --no-batch forces the
  /// per-item scalar loop (the golden matrix's reference engine), and so
  /// does supervision (recovery.enabled).
  bool batch = true;
  /// Durability + crash supervision (fleet/supervisor.hpp). Disabled by
  /// default: the unsupervised hot path is unchanged.
  RecoveryConfig recovery;
};

/// Merged fleet-wide report: per-home security reports plus the aggregate
/// verdict/health counters and the runtime's own stats.
struct FleetReport {
  struct HomeEntry {
    HomeId home = 0;
    core::ProxyCounters counters;
    core::SecurityReport report;
  };

  std::vector<HomeEntry> homes;  // sorted by home id
  core::ProxyCounters totals;
  /// Fleet-wide campaign grading: every home's AttackLedger merged. Empty
  /// (and silent in render()) when no campaign ran.
  core::AttackLedger attack;
  std::size_t homes_with_incidents = 0;
  FleetStats stats;

  /// Aggregate rendering: totals, runtime table, and the first `max_homes`
  /// per-home summary lines (0 = all).
  std::string render(std::size_t max_homes = 8) const;
};

class FleetEngine {
 public:
  FleetEngine(std::vector<HomeSpec> homes, const core::HumannessVerifier& humanness,
              FleetConfig config = {});

  std::size_t home_count() const { return home_count_; }
  std::size_t shard_count() const { return shards_.size(); }
  const HomePartition& partition() const { return partition_; }
  std::size_t shard_of(HomeId id) const { return partition_.shard_of(id); }

  void start();

  // ---- ingestion front-end (single producer; see class comment) ----------
  bool ingest(FleetItem item) {
    // Revocations are recorded in the fleet-wide ledger BEFORE routing: even
    // if the item is shed, crashes mid-process, or its journal entry is
    // later lost, restores re-apply it (the "never forgotten" guarantee).
    if (item.kind == FleetItem::Kind::kLifecycle &&
        item.lifecycle_cmd.op == crypto::LifecycleCommand::Op::kRevoke) {
      revocations_.record(item.home, item.client_id,
                          item.lifecycle_cmd.effective_ts);
    }
    return router_->ingest(std::move(item));
  }
  bool ingest_packet(HomeId home, const net::PacketRecord& pkt) {
    return ingest(FleetItem::packet(home, pkt));
  }
  bool ingest_proof(HomeId home, double now, std::string client_id,
                    std::vector<std::uint8_t> payload) {
    return ingest(
        FleetItem::proof(home, now, std::move(client_id), std::move(payload)));
  }
  bool ingest_lifecycle(HomeId home, double now, std::string client_id,
                        crypto::LifecycleCommand cmd) {
    return ingest(
        FleetItem::lifecycle(home, now, std::move(client_id), std::move(cmd)));
  }

  /// Graceful stop: flush the router, close the queues, process every
  /// accepted item, join the workers.
  void drain();
  /// Hard stop: close the queues and discard the backlog (counted). Never
  /// waits on remaining proxy work, so it cannot deadlock against a full
  /// pipeline.
  void abort();
  bool stopped() const { return stopped_; }

  /// Runtime counters. Requires a stopped engine (worker counters are only
  /// safe to read after the join).
  FleetStats stats() const;
  /// Flushes open events on every home proxy and builds the merged report.
  /// Requires a stopped engine.
  FleetReport report();

  /// Every home's correlation fingerprint, merged in shard order (the
  /// SignalSet keeps itself sorted by home id, so the order is cosmetic —
  /// the result is byte-identical for any shard count). Requires a stopped
  /// engine.
  telemetry::SignalSet signals();
  /// Marks correlator-flagged homes on the per-shard rows and copies the
  /// rollups into the totals (FleetStats::render's `flagged` column and
  /// `correlation:` line).
  void annotate_stats(FleetStats& stats, const CorrelationReport& report) const;

  /// Direct access for tests (stopped engine only).
  Shard& shard(std::size_t i) { return *shards_[i]; }

  /// The recovery ledger; nullptr unless config.recovery.enabled.
  Supervisor* supervisor() { return supervisor_.get(); }
  const Supervisor* supervisor() const { return supervisor_.get(); }

  /// Fleet-wide revocation ledger (populated at ingest; re-applied by
  /// supervised restarts).
  const RevocationLedger& revocations() const { return revocations_; }

  /// All per-shard registries merged into one snapshot, plus engine-level
  /// ingest counters and the run's wall time. Requires a stopped engine.
  /// Domain::kSim entries in the snapshot are byte-identical across
  /// fixed-seed runs of the same config (see telemetry/metrics.hpp).
  telemetry::MetricsRegistry merged_metrics() const;
  /// Every shard's trace spans merged in deterministic (start, home, seq)
  /// order. Requires a stopped engine.
  std::vector<telemetry::TraceSpan> merged_trace() const;

 private:
  void require_stopped(const char* op) const;

  FleetConfig config_;
  std::size_t home_count_ = 0;
  HomePartition partition_;
  RevocationLedger revocations_;  // before shards_: restarts read it
  std::unique_ptr<Supervisor> supervisor_;  // before shards_: outlives them
  std::vector<std::unique_ptr<ShardSupervisor>> shard_supervisors_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<IngestRouter> router_;
  bool started_ = false;
  bool stopped_ = false;
  std::chrono::steady_clock::time_point start_time_;
  double wall_seconds_ = 0.0;
};

}  // namespace fiat::fleet
