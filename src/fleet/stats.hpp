// FleetStats: the counter layer of the fleet runtime.
//
// Per-shard counters are owned by the shard worker thread and snapshotted
// only after the worker joined, so none of them need atomics; queue counters
// are taken under the queue mutex. The snapshot is embedded in FleetReport
// and printed by the CLI / benches.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fiat::fleet {

struct ShardStats {
  std::size_t homes = 0;
  std::size_t packets = 0;        // packets processed
  std::size_t proofs = 0;         // auth datagrams processed
  std::size_t discarded = 0;      // popped but skipped by an abort (no-drain stop)
  std::size_t restarts = 0;       // supervisor shard restarts (crash recoveries)
  std::size_t quarantined = 0;    // poison items quarantined by the supervisor
  std::size_t migrations_in = 0;  // homes installed by live migration (cluster)
  std::size_t migrations_out = 0;  // homes donated by live migration (cluster)
  // Campaign grading (core::AttackLedger aggregated over this shard's homes).
  std::size_t attack_injected = 0;   // labeled attack packets+proofs graded
  std::size_t attack_blocked = 0;    // attack commands with payload dropped
  std::size_t attack_completed = 0;  // attack commands fully delivered
  std::size_t flagged = 0;        // homes flagged by the fleet correlator
  // Credential lifecycle (CredentialRegistry aggregated over this shard's
  // homes).
  std::size_t enrolled = 0;       // enrollments completed
  std::size_t rotated = 0;        // rotations completed
  std::size_t revoked = 0;        // clients revoked
  double busy_seconds = 0.0;      // wall time spent inside proxy calls
  // Queue view (from BoundedQueue::Stats).
  std::size_t queue_pushed = 0;
  std::size_t queue_high_water = 0;
  std::size_t queue_shed = 0;
  std::size_t queue_shed_on_close = 0;
};

struct FleetStats {
  std::size_t homes = 0;
  std::size_t packets_in = 0;     // offered to ingest (accepted + shed)
  std::size_t proofs_in = 0;
  std::size_t packets_out = 0;    // processed by shard workers
  std::size_t proofs_out = 0;
  std::size_t shed = 0;           // rejected by full queues (kShed)
  std::size_t shed_on_close = 0;  // rejected because the engine was stopping
  std::size_t discarded = 0;      // accepted but dropped by an abort
  std::size_t restarts = 0;       // supervisor shard restarts, fleet-wide
  std::size_t quarantined = 0;    // quarantined poison items, fleet-wide
  std::size_t migrations = 0;     // live migrations the cluster controller ran
  std::size_t node_failovers = 0;  // whole-node failovers (node restarts)
  std::size_t attack_injected = 0;   // fleet-wide labeled attack items graded
  std::size_t attack_blocked = 0;    // fleet-wide attack commands blocked
  std::size_t attack_completed = 0;  // fleet-wide attack commands completed
  // Correlation annotations (FleetEngine/ClusterEngine::annotate_stats).
  std::size_t flagged_homes = 0;     // distinct homes the correlator flagged
  std::size_t correlation_shared_signatures = 0;
  std::size_t correlation_flood_sources = 0;
  std::size_t correlation_cohorts = 0;
  // Credential lifecycle, fleet-wide (sums of the per-shard columns, plus
  // the proofs the homes rejected for lifecycle reasons).
  std::size_t lifecycle_enrolled = 0;
  std::size_t lifecycle_rotated = 0;
  std::size_t lifecycle_revoked = 0;
  std::size_t lifecycle_rejected_proofs = 0;
  double handoff_p95_seconds = 0.0;  // p95 migration handoff latency (wall)
  double wall_seconds = 0.0;      // start() .. stop() wall time
  /// First column of render(): "shard" for FleetEngine, "node" for the
  /// cluster tier.
  std::string row_label = "shard";
  std::vector<ShardStats> shards;

  /// Aggregate packets+proofs processed per wall second.
  double throughput() const;
  /// busy_seconds / wall_seconds of one shard, in [0, 1]-ish.
  double utilization(std::size_t shard) const;

  /// Human-readable table (one row per shard + a totals line).
  std::string render() const;
};

}  // namespace fiat::fleet
