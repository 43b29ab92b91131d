// ClusterEngine: the multi-node tier above FleetEngine (DESIGN.md §12).
//
// N simulated proxy nodes, each a worker thread owning a dynamic set of
// homes behind a BoundedQueue, under a single-threaded control plane (the
// ingest thread) that owns routing and all fleet choreography:
//
//   ingest(item) -> PlacementTable (rendezvous + overrides) -> node queue
//                    |         |            |
//                    |         |            +-- NodeFaultPlan: node kill,
//                    |         |                detection window, failover
//                    |         +-- planned + load-aware live migrations
//                    +-- per-home routed counters (loss accounting)
//
// Live migration: the controller flips routing instantly and enqueues a cut
// to the source and an install to the destination, joined by a Handoff
// barrier (fleet/migration.hpp). FIFO queues order the cut after every
// pre-flip item and the install before every post-flip item, so a clean
// migration loses nothing and the migrated home's history is byte-identical
// to an unmigrated run.
//
// Failover: when the fault plan kills a node, items for its homes inside the
// detection window are black-holed (counted — that exposure is what
// bench_cluster measures); at detection the controller drains the corpse's
// queue (pre-kill items were routed, so they count as processed and
// journaled), discards its in-memory state, removes it from the placement,
// and re-places its homes on the survivors from the durable SnapshotStore +
// JournalStore via HomeRuntime::restore() — warm where a snapshot generation
// decodes, fail-closed-strict where items were genuinely lost.
//
// Determinism contract: every control decision (kill, detection, migration,
// rebalance, black-holing) keys off item timestamps and ingest-order
// counters, never thread timing, so verdict counts, per-home reports, and
// all Domain::kSim telemetry are byte-identical across runs of one seed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/humanness.hpp"
#include "fleet/bounded_queue.hpp"
#include "fleet/engine.hpp"
#include "fleet/home.hpp"
#include "fleet/home_runtime.hpp"
#include "fleet/item.hpp"
#include "fleet/migration.hpp"
#include "fleet/placement.hpp"
#include "fleet/snapshot_store.hpp"
#include "fleet/stats.hpp"
#include "sim/faults.hpp"
#include "telemetry/sink.hpp"

namespace fiat::fleet {

struct ClusterConfig {
  std::size_t nodes = 4;
  /// Per-node queue capacity (items).
  std::size_t queue_capacity = 8192;
  FullPolicy on_full = FullPolicy::kBlock;
  /// Controller buffering: messages per queue-lock acquisition.
  std::size_t ingest_batch = 128;
  /// Per-node telemetry trace ring (spans); 0 disables tracing.
  std::size_t trace_capacity = 0;
  /// Sim-seconds between durable snapshots per home; 0 disables.
  double snapshot_every = 300.0;
  /// Snapshot generations kept per home (newest-first fallback on restore).
  std::size_t snapshot_retention = 3;
  /// Journal processed items (lossless migration cut + warm failover). Off =
  /// cuts write a fresh snapshot, failover loses the since-snapshot gap.
  bool journal = true;
  /// Failover baseline: ignore the durable stores and re-bootstrap cold.
  bool cold_failover = false;
  /// At most one whole-node kill per run (sim/faults.hpp).
  sim::NodeFaultPlan fault;

  // ---- load-aware rebalancer ------------------------------------------------
  /// Sim-seconds between load scans; 0 disables the rebalancer.
  double rebalance_every = 0.0;
  /// Hot homes migrated off the loaded node per scan.
  std::size_t rebalance_top = 1;
  /// Trigger: max node load > ratio * mean node load since the last scan.
  double rebalance_ratio = 1.25;

  /// Scripted migrations (tests, benches): move `home` to node `to` at the
  /// first item with ts >= at_time.
  struct PlannedMigration {
    HomeId home = 0;
    NodeId to = 0;
    double at_time = 0.0;
  };
  std::vector<PlannedMigration> migrations;
};

/// One live migration the controller ran (in decision order).
struct MigrationRecord {
  HomeId home = 0;
  NodeId from = 0;
  NodeId to = 0;
  double ts = 0.0;      // sim time of the routing flip
  bool planned = false;  // scripted (vs rebalancer-chosen)
};

/// One whole-node failover.
struct FailoverRecord {
  NodeId node = 0;
  double killed_ts = 0.0;
  double detected_ts = 0.0;
  std::size_t homes_replaced = 0;
  /// Detection-window items addressed to the dead node, fleet-total.
  std::uint64_t items_black_holed = 0;
};

/// One message on a node's queue. Control messages ride the same FIFO as
/// items — their queue position IS the protocol (cut after pre-flip items,
/// install before post-flip items).
struct NodeMsg {
  enum class Kind : std::uint8_t { kItem, kCut, kInstall, kRestore };

  Kind kind = Kind::kItem;
  FleetItem item;  // kItem
  HomeId home = 0;                     // control kinds
  double now = 0.0;                    // sim time of the control decision
  std::uint64_t expected_ordinal = 0;  // kRestore: items routed pre-failure
  std::shared_ptr<Handoff> handoff;    // kCut / kInstall
};

/// One proxy node: a worker thread over a dynamic home set whose items and
/// restores run through a worker-owned HomeRuntime. Shard's ownership rule
/// holds — per-home state and the sink belong to the worker; stats/telemetry
/// are read only after the join.
class ClusterNode {
 public:
  ClusterNode(NodeId id, const ClusterConfig& config,
              const std::vector<HomeSpec>& specs,
              const core::HumannessVerifier& humanness,
              SnapshotStore& snapshots, JournalStore& journal,
              const RevocationLedger& revocations);
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  NodeId id() const { return id_; }

  /// Installs an initial home (before start()).
  void add_home(Home home);

  void start();
  /// Closes the queue and joins the worker; idempotent. With `drain` every
  /// accepted message is processed, without it the backlog is discarded.
  void stop(bool drain);

  BoundedQueue<NodeMsg>& queue() { return queue_; }

  std::map<HomeId, Home>& homes() { return homes_; }
  ShardStats stats() const;
  /// Proofs this node's homes rejected for lifecycle reasons (revoked /
  /// expired / not-yet-enrolled credentials). Same stopped-state rule as
  /// stats().
  std::size_t lifecycle_rejected_proofs() const;
  /// This node's homes' correlation fingerprints (flushes open events).
  /// Same stopped-state rule as stats().
  telemetry::SignalSet signals();
  telemetry::Sink& telemetry();
  const telemetry::Sink& telemetry() const;

 private:
  void run();
  void handle(NodeMsg& msg);
  void process_item(const FleetItem& item);
  void do_cut(NodeMsg& msg);
  void do_install(NodeMsg& msg);
  void do_restore(NodeMsg& msg);
  /// Restores `home` from the durable stores and hosts it here.
  void place(HomeId home, const RestoreOptions& opts);
  const HomeSpec& spec_of(HomeId home) const;
  void require_quiescent(const char* op) const;

  NodeId id_;
  const ClusterConfig& config_;
  const std::vector<HomeSpec>& specs_;  // all homes, sorted by id
  HomeRuntime runtime_;

  std::map<HomeId, Home> homes_;
  BoundedQueue<NodeMsg> queue_;
  telemetry::Sink sink_;
  std::thread worker_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> discard_{false};

  // Worker-owned counters (read after join).
  std::size_t packets_ = 0;
  std::size_t proofs_ = 0;
  std::size_t discarded_ = 0;
  std::size_t migrations_in_ = 0;
  std::size_t migrations_out_ = 0;
  double busy_seconds_ = 0.0;

  // Telemetry handles (cached before the thread exists).
  telemetry::Counter* tm_installs_ = nullptr;
  telemetry::Counter* tm_cuts_ = nullptr;
  telemetry::Counter* tm_installs_aborted_ = nullptr;
  telemetry::Histogram* tm_handoff_seconds_ = nullptr;  // kWall
};

class ClusterEngine {
 public:
  ClusterEngine(std::vector<HomeSpec> homes,
                const core::HumannessVerifier& humanness,
                ClusterConfig config = {});

  std::size_t home_count() const { return specs_.size(); }
  std::size_t node_count() const { return nodes_.size(); }
  const PlacementTable& placement() const { return placement_; }

  void start();

  /// Single-producer ingestion in timestamp order (same contract as
  /// FleetEngine). Returns false only for an unknown home id.
  bool ingest(FleetItem item);

  /// Graceful stop: run any still-pending failover, flush the routing
  /// buffers, drain and join every node.
  void drain();
  /// Hard stop: abandon outstanding handoffs, discard backlogs, join.
  void abort();
  bool stopped() const { return stopped_; }

  /// Runtime counters (row per node). Requires a stopped engine.
  FleetStats stats() const;
  /// Merged per-home report across the surviving nodes. Requires a stopped
  /// engine.
  FleetReport report();
  /// Every surviving home's correlation fingerprint, merged in node order
  /// (byte-identical regardless of placement, migrations, or failovers —
  /// fingerprints derive from durable proxy state only). Requires a stopped
  /// engine.
  telemetry::SignalSet signals();
  /// Marks correlator-flagged homes on the per-node rows and copies the
  /// rollups into the totals. Requires a stopped engine.
  void annotate_stats(FleetStats& stats, const CorrelationReport& report) const;
  /// All node registries + the controller registry merged in fixed order.
  telemetry::MetricsRegistry merged_metrics() const;
  /// Node trace spans merged in deterministic order.
  std::vector<telemetry::TraceSpan> merged_trace() const;

  const std::vector<MigrationRecord>& migrations() const { return migrations_; }
  const std::vector<FailoverRecord>& failovers() const { return failovers_; }
  std::uint64_t items_black_holed() const { return black_holed_total_; }

  SnapshotStore& snapshots() { return snapshots_; }
  JournalStore& journal() { return journal_; }
  ClusterNode& node(std::size_t i) { return *nodes_[i]; }
  /// Fleet-wide revocation ledger (populated at ingest; re-applied by every
  /// restore, install and failover re-placement).
  const RevocationLedger& revocations() const { return revocations_; }

  /// One-paragraph control-plane summary for the CLI.
  std::string render_control_plane() const;

 private:
  std::size_t index_of(HomeId home) const;  // npos for unknown ids
  void flush_node(NodeId node);
  void flush_all();
  void on_time(double ts);  // kill / failover / migrations / rebalance
  bool migrate(HomeId home, NodeId to, double ts, bool planned);
  void maybe_rebalance(double ts);
  void run_failover(double detected_ts);
  void require_stopped(const char* op) const;

  ClusterConfig config_;
  core::HumannessVerifier humanness_;
  std::vector<HomeSpec> specs_;  // sorted by id
  std::vector<HomeId> home_ids_;  // parallel to specs_
  SnapshotStore snapshots_;
  JournalStore journal_;
  RevocationLedger revocations_;  // before nodes_: they hold references
  PlacementTable placement_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  std::vector<bool> node_dead_;
  std::vector<std::vector<NodeMsg>> pending_;  // per-node routing buffers
  std::vector<NodeMsg> scratch_;               // flush_node batch staging

  // Controller-side accounting (single ingest thread).
  std::vector<std::uint64_t> routed_;       // per home index
  std::vector<std::uint64_t> black_holed_;  // per home index
  std::uint64_t black_holed_total_ = 0;
  std::vector<std::uint64_t> home_load_;  // since the last rebalance scan
  std::vector<std::uint64_t> node_load_;
  double last_rebalance_ts_ = 0.0;
  std::vector<ClusterConfig::PlannedMigration> planned_;  // sorted by at_time
  std::size_t next_planned_ = 0;
  std::vector<std::shared_ptr<Handoff>> handoffs_;
  std::vector<MigrationRecord> migrations_;
  std::vector<FailoverRecord> failovers_;
  bool killed_ = false;
  bool failed_over_ = false;
  std::size_t offered_packets_ = 0;
  std::size_t offered_proofs_ = 0;

  telemetry::Sink controller_sink_;
  telemetry::Counter* tm_migrations_ = nullptr;
  telemetry::Counter* tm_failovers_ = nullptr;
  telemetry::Counter* tm_homes_replaced_ = nullptr;
  telemetry::Counter* tm_black_holed_ = nullptr;

  bool started_ = false;
  bool stopped_ = false;
  std::chrono::steady_clock::time_point start_time_;
  double wall_seconds_ = 0.0;
};

}  // namespace fiat::fleet
