// Crash supervision for the fleet runtime (DESIGN.md §11).
//
// A Supervisor is the fleet-level ledger: it owns the durable stores
// (SnapshotStore and JournalStore) and the (mutex-protected) restart/
// quarantine/resume logs every shard reports into. A ShardSupervisor is one
// shard's crash bracket around its HomeRuntime (fleet/home_runtime.hpp):
//
//   on_item (crash injection) -> HomeRuntime::process
//
// and when any exception escapes processing it performs an in-worker restart
// of the shard's state: every home is rebuilt through HomeRuntime::restore,
// the same restore routine the cluster's install and failover run. The
// worker thread itself survives — per-home state is single-threaded either
// way, so healing in place gives the same guarantees as killing and
// re-spawning the thread with none of the handoff races.
//
// Retry discipline: a crashing item is retried after each restart; after
// `max_attempts` crashes at the same (home, ordinal) the item is declared
// deterministic poison, quarantined (skipped + logged), and the shard moves
// on instead of crash-looping.
//
// With journaling on, restore-point + journal covers every processed item —
// recovery loses nothing and the merged FleetReport is byte-identical to an
// uninterrupted run. With journaling off, items between the last snapshot
// and the crash are lost (the "recovery gap" bench_recovery measures); the
// per-(home, ordinal) attempt counter still converges because the crashing
// item keeps the ordinal it was delivered at across every retry.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/humanness.hpp"
#include "fleet/enrollment.hpp"
#include "fleet/home.hpp"
#include "fleet/home_runtime.hpp"
#include "fleet/item.hpp"
#include "fleet/snapshot_store.hpp"
#include "sim/faults.hpp"
#include "telemetry/sink.hpp"

namespace fiat::fleet {

class Shard;

struct RecoveryConfig {
  /// Master switch; off = zero per-item overhead (Shard bypasses the
  /// supervisor entirely).
  bool enabled = false;
  /// Sim-seconds between snapshots per home (cadence driven by that home's
  /// own item timestamps; sim t=0 counts as the last snapshot). 0 disables
  /// snapshotting.
  double snapshot_every = 300.0;
  /// Crashes at one (home, ordinal) before the item is quarantined.
  int max_attempts = 3;
  /// Journal items since the last snapshot and replay them after a restore:
  /// lossless recovery (the golden byte-identity mode). Off = restore to the
  /// snapshot only, losing the gap (what bench_recovery measures).
  bool journal = true;
  /// Ignore snapshots and journal on restart (bench baseline: cold
  /// re-bootstrap).
  bool cold_restart = false;
  /// Crash injection, applied to every shard (per-home plans only fire on
  /// the shard owning that home; shard-global ordinals fire per shard).
  sim::ShardFaultPlan fault;
};

struct RestartRecord {
  std::size_t shard = 0;
  HomeId crash_home = 0;        // home of the item that crashed
  std::uint64_t crash_ordinal = 0;  // that home's 1-based item ordinal
  double ts = 0.0;              // sim time of the crashing item
  bool quarantined = false;     // this crash exhausted max_attempts
  std::string error;
};

struct QuarantinedItem {
  HomeId home = 0;
  std::uint64_t ordinal = 0;
  double ts = 0.0;
  std::string error;
};

/// Where one home resumed after one restart — the bench's alignment anchor.
struct ResumePoint {
  std::size_t shard = 0;
  HomeId home = 0;
  bool warm = false;                  // restored from a snapshot
  std::uint64_t resume_ordinal = 0;   // items of this home in restored state
  std::uint64_t lost_items = 0;       // processed before crash, absent after
  std::uint64_t restored_log_len = 0; // decision-log length after restore
};

/// Fleet-level recovery ledger; one per engine, shared by every shard's
/// supervisor. The stores and the note_*/logs are mutex-protected (multiple
/// workers); everything else is read after the engine stops.
class Supervisor {
 public:
  /// `revocations` is the engine's fleet-wide ledger: every restart re-drives
  /// the revocations recorded there, so a crash can never resurrect a
  /// revoked credential even when the revoke item fell in a recovery gap.
  Supervisor(RecoveryConfig config, const RevocationLedger& revocations)
      : config_(std::move(config)), revocations_(revocations) {}

  const RecoveryConfig& config() const { return config_; }
  SnapshotStore& store() { return store_; }
  const SnapshotStore& store() const { return store_; }
  JournalStore& journal() { return journal_; }
  const RevocationLedger& revocations() const { return revocations_; }

  void note_restart(RestartRecord rec);
  void note_quarantine(QuarantinedItem item);
  void note_resume(ResumePoint point);

  std::vector<RestartRecord> restarts() const;
  std::vector<QuarantinedItem> quarantined() const;
  std::vector<ResumePoint> resume_points() const;

  /// One-paragraph recovery summary for the CLI.
  std::string render() const;

 private:
  RecoveryConfig config_;
  const RevocationLedger& revocations_;
  SnapshotStore store_;
  JournalStore journal_;
  mutable std::mutex mu_;
  std::vector<RestartRecord> restarts_;
  std::vector<QuarantinedItem> quarantined_;
  std::vector<ResumePoint> resume_points_;
};

/// One shard's crash bracket. Constructed before the worker starts; after
/// that every member is touched only by the worker thread (the same
/// ownership rule as the shard's homes), which is what keeps the whole
/// recovery path TSan-clean. Holds its own copy of the shard's HomeSpecs and
/// the humanness verifier so it can rebuild homes without reaching into
/// engine state.
class ShardSupervisor {
 public:
  ShardSupervisor(std::size_t shard_index, Supervisor* fleet,
                  std::vector<HomeSpec> specs,
                  core::HumannessVerifier humanness);

  /// Caches telemetry handles in the shard's worker-owned sink. Called by
  /// the Shard constructor, before the worker thread exists.
  void attach(telemetry::Sink* sink);

  /// The supervised item path (worker thread only): crash injection, then
  /// HomeRuntime::process, with retry/restart/quarantine around it. Returns
  /// false when the item was not applied (quarantined, or no such home).
  bool process(Shard& shard, const FleetItem& item);

  // ---- post-stop introspection -------------------------------------------
  std::size_t restarts() const { return restarts_; }
  std::size_t quarantined_count() const { return quarantined_; }

 private:
  /// Rebuild + restore every home of this shard (see file comment).
  void restart_shard(Shard& shard, const FleetItem& crash_item,
                     std::uint64_t crash_ordinal, bool quarantining,
                     const std::string& error);

  std::size_t shard_index_;
  Supervisor* fleet_;
  std::vector<HomeSpec> specs_;  // sorted by id, parallel to shard homes
  core::HumannessVerifier humanness_;
  HomeRuntime runtime_;
  sim::ShardFaultInjector injector_;
  std::uint64_t shard_items_ = 0;  // shard-global on_item ordinal
  std::size_t restarts_ = 0;
  std::size_t quarantined_ = 0;
  /// Crash attempts per (home, ordinal); keyed by ordinal, not item
  /// identity, so lossy-mode ordinal rewinds still converge to quarantine.
  std::map<std::pair<HomeId, std::uint64_t>, int> attempts_;

  // Telemetry (cached in attach(); all worker-owned).
  telemetry::Sink* sink_ = nullptr;
  telemetry::Counter* tm_restarts_ = nullptr;
  telemetry::Counter* tm_quarantined_ = nullptr;
  telemetry::Histogram* tm_restore_seconds_ = nullptr;
};

}  // namespace fiat::fleet
