// The one per-home runtime behind every durable fleet path (DESIGN.md §11.3
// and §12.3).
//
// A HomeRuntime belongs to one worker (a supervised shard or a cluster node)
// and is touched only by that worker's thread. For every home the worker
// hosts it keeps the processed ordinal and the sim time of the last
// snapshot, and it runs the whole durability cycle around an item:
//
//   apply_item -> ordinal + 1 -> JournalStore::append -> snapshot cadence
//
// Its restore() is the only restore routine in the fleet: the supervisor's
// in-worker restart, the cluster's migration install and its failover
// re-placement all call it. It takes the newest snapshot generation that
// decodes cleanly, replays the journal tail beyond it, sizes the hole that
// remains, forces bootstrap elapsed only when a fail-closed home comes back
// cold AND lost items, and finally re-drives every revocation the fleet-wide
// ledger recorded for the home.
//
// The durable stores themselves (SnapshotStore, JournalStore) live outside
// any worker — in the Supervisor or the ClusterEngine — so they survive the
// worker state a restart or a node death throws away.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/humanness.hpp"
#include "fleet/enrollment.hpp"
#include "fleet/home.hpp"
#include "fleet/item.hpp"
#include "fleet/snapshot_store.hpp"
#include "telemetry/sink.hpp"

namespace fiat::fleet {

/// Applies one item to a home's proxy: the fleet's only per-kind dispatch.
/// Touches no runtime counter, so a journal replay can reuse it without
/// re-counting. Inline because the unsupervised Shard::process is nothing but
/// find_home plus this switch.
inline void apply_item(Home& home, const FleetItem& item) {
  // Labeled overloads: a journal replay re-tallies the attack ledger exactly
  // as live processing did (the snapshot carries the ledger up to its cut).
  switch (item.kind) {
    case FleetItem::Kind::kPacket:
      home.proxy().process(item.pkt, item.attack);
      break;
    case FleetItem::Kind::kProof:
      home.proxy().on_auth_payload(item.client_id, item.payload, item.ts,
                                   item.attack);
      break;
    case FleetItem::Kind::kLifecycle:
      home.proxy().on_lifecycle(item.client_id, item.lifecycle_cmd, item.ts);
      break;
  }
}

/// Durable journal: per-home ascending (ordinal, item) tails, appended after
/// an item processes successfully and truncated when a snapshot covers it.
/// A home's ordinals are global (they continue across restarts and
/// migrations), so snapshot.ordinal + tail_after() always line up.
/// Mutex-protected: writers are workers, readers are whichever worker
/// restores the home next.
class JournalStore {
 public:
  using Entry = std::pair<std::uint64_t, FleetItem>;

  void append(HomeId home, std::uint64_t ordinal, const FleetItem& item);
  /// Entries with ordinal > `after`, ascending.
  std::vector<Entry> tail_after(HomeId home, std::uint64_t after) const;
  /// Drops entries with ordinal <= `upto` (a snapshot now covers them). The
  /// tail keeps its capacity, so a home's journal costs its longest
  /// since-snapshot run, not one allocation per item.
  void truncate_upto(HomeId home, std::uint64_t upto);

 private:
  mutable std::mutex mu_;
  std::unordered_map<HomeId, std::vector<Entry>> tails_;
};

struct RestoreOptions {
  /// Cold baseline: ignore the durable stores and rebuild from the spec,
  /// losing the home's history (revocations are still re-driven).
  bool cold = false;
  /// Items of this home known processed before the restore (the worker's
  /// own count at a restart, the cut ordinal at a migration, the routed
  /// count at a failover). Anything the snapshot + journal cannot reach is
  /// lost.
  std::uint64_t expected_ordinal = 0;
  /// Sim time of the restore: bootstrap-forcing and revocation anchor, and
  /// the start of the snapshot cadence for a home new to this runtime.
  double now = 0.0;
};

struct RestoreOutcome {
  bool warm = false;                  // some snapshot generation decoded
  std::uint64_t resume_ordinal = 0;   // items reflected in the restored state
  std::uint64_t lost_items = 0;       // expected - reach, plus journal holes
  std::size_t generations_tried = 0;  // snapshot decode attempts
  bool forced_bootstrap = false;
};

class HomeRuntime {
 public:
  /// Where the runtime records. The supervisor and the cluster keep their
  /// own metric families (`fleet.*` and `fleet.cluster.*`); the optional
  /// entries are recorded only when named.
  struct MetricNames {
    const char* snapshots_taken;
    const char* snapshots_rejected;
    const char* restores_warm;
    const char* restores_cold;
    const char* gap_items;
    const char* snapshot_bytes;
    const char* snapshot_seconds = nullptr;  // Domain::kWall histogram
    const char* snapshot_track = nullptr;    // trace track of snapshot spans
  };

  /// `snapshot_every` is the per-home sim-time cadence (0 disables
  /// snapshots); `journal_on` turns journaling and journal replay on. Every
  /// reference must outlive the runtime.
  HomeRuntime(const core::HumannessVerifier& humanness, SnapshotStore& snapshots,
              JournalStore& journal, const RevocationLedger& revocations,
              double snapshot_every, bool journal_on);

  /// Caches metric handles in the worker's sink. Call before the worker
  /// thread exists.
  void attach(telemetry::Sink* sink, const MetricNames& names);

  /// Registers a home placed here from the start: ordinal 0, cadence
  /// counted from sim t=0.
  void add(HomeId home);
  /// Drops a home that left this worker (migration cut).
  void forget(HomeId home);

  /// Items of `home` applied so far.
  std::uint64_t processed(HomeId home) const;

  /// Applies `item`, then — only after it succeeded — counts it, journals it
  /// (so a replay can never re-execute a crash) and snapshots the home when
  /// its cadence is due.
  void process(Home& home, const FleetItem& item);
  /// Marks `ordinal` as processed without applying anything (a quarantined
  /// item). Its journal slot stays a hole, counted as lost by a later
  /// restore.
  void consume(HomeId home, std::uint64_t ordinal);
  /// Seals the home's state now, whatever the cadence says.
  void snapshot(Home& home, double sim_ts);

  /// Builds `spec`'s home back from the durable stores (see file comment)
  /// and resumes its ordinal at what the restored state reflects. A home
  /// new to this runtime starts its snapshot cadence at `opts.now`; one
  /// restored in place keeps its cadence.
  Home restore(const HomeSpec& spec, const RestoreOptions& opts,
               RestoreOutcome& out);

 private:
  struct State {
    std::uint64_t processed = 0;
    double last_snapshot_ts = 0.0;
  };

  void take_snapshot(Home& home, State& st, double sim_ts);

  const core::HumannessVerifier& humanness_;
  SnapshotStore& snapshots_;
  JournalStore& journal_;
  const RevocationLedger& revocations_;
  double snapshot_every_;
  bool journal_on_;
  std::unordered_map<HomeId, State> homes_;

  telemetry::Sink* sink_ = nullptr;
  const char* snapshot_track_ = nullptr;
  telemetry::Counter* tm_snapshots_ = nullptr;
  telemetry::Counter* tm_snapshots_rejected_ = nullptr;
  telemetry::Counter* tm_restores_warm_ = nullptr;
  telemetry::Counter* tm_restores_cold_ = nullptr;
  telemetry::Counter* tm_gap_items_ = nullptr;
  telemetry::Histogram* tm_snapshot_bytes_ = nullptr;
  telemetry::Histogram* tm_snapshot_seconds_ = nullptr;
};

}  // namespace fiat::fleet
