// Crash-recovery suite for the supervised fleet runtime (DESIGN.md §11).
//
// The headline invariant lives here: crash a shard worker at item N, warm-
// restore from the latest snapshot, replay the journal — and the merged
// FleetReport is byte-identical to an uninterrupted run, across shard counts
// and both rule-table key modes. Plus the failure-path matrix: deterministic
// poison converging to quarantine, corrupted snapshots falling back to a
// clean cold start, and the SnapshotStore's concurrent generation swap
// (the one cross-thread surface, exercised under TSan via the concurrency
// label).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/state_codec.hpp"
#include "fleet/engine.hpp"
#include "fleet/fleet_testbed.hpp"
#include "fleet/snapshot_store.hpp"
#include "fleet/supervisor.hpp"
#include "sim/faults.hpp"

using namespace fiat;

namespace {

fleet::FleetScenario small_scenario(bool legacy_keys) {
  fleet::FleetScenarioConfig config;
  config.homes = 8;
  config.devices_per_home = 2;
  config.duration_days = 0.015;
  config.legacy_keys = legacy_keys;
  return fleet::make_fleet_scenario(config);
}

core::HumannessVerifier verifier() {
  return core::HumannessVerifier::train_synthetic(
      fleet::FleetScenarioConfig{}.seed);
}

fleet::FleetReport run_fleet(const fleet::FleetScenario& scenario,
                             fleet::FleetConfig config,
                             fleet::FleetEngine** engine_out = nullptr) {
  static std::vector<std::unique_ptr<fleet::FleetEngine>> keepalive;
  auto humanness = verifier();
  auto engine = std::make_unique<fleet::FleetEngine>(scenario.homes, humanness,
                                                     config);
  engine->start();
  for (const auto& item : scenario.items) engine->ingest(item);
  engine->drain();
  auto report = engine->report();
  if (engine_out) {
    *engine_out = engine.get();
    keepalive.push_back(std::move(engine));
  }
  return report;
}

void expect_same_homes(const fleet::FleetReport& a, const fleet::FleetReport& b) {
  ASSERT_EQ(a.homes.size(), b.homes.size());
  for (std::size_t i = 0; i < a.homes.size(); ++i) {
    SCOPED_TRACE("home " + std::to_string(a.homes[i].home));
    EXPECT_EQ(a.homes[i].home, b.homes[i].home);
    EXPECT_EQ(a.homes[i].counters, b.homes[i].counters);
    EXPECT_EQ(a.homes[i].report.render(), b.homes[i].report.render());
  }
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.homes_with_incidents, b.homes_with_incidents);
}

std::uint64_t counter_of(const telemetry::MetricsRegistry& metrics,
                         const std::string& name) {
  const auto* c = metrics.find_counter(name);
  return c ? c->value() : 0;
}

struct GoldenParam {
  std::size_t shards;
  bool legacy;
};

class RecoveryGolden : public ::testing::TestWithParam<GoldenParam> {};

// Crash at the target home's 150th item, snapshot every 120 sim-seconds,
// journal on: recovery must be invisible in the merged report.
TEST_P(RecoveryGolden, WarmRestartReportIsByteIdentical) {
  auto scenario = small_scenario(GetParam().legacy);
  const fleet::HomeId victim = scenario.homes[3].id;

  fleet::FleetConfig baseline_config;
  baseline_config.shards = GetParam().shards;
  auto baseline = run_fleet(scenario, baseline_config);

  fleet::FleetConfig crashed_config = baseline_config;
  crashed_config.recovery.enabled = true;
  crashed_config.recovery.snapshot_every = 120.0;
  crashed_config.recovery.fault = sim::ShardFaultPlan::crash_home_at(victim, 150);
  fleet::FleetEngine* engine = nullptr;
  auto crashed = run_fleet(scenario, crashed_config, &engine);

  // The crash really happened and was healed in place.
  ASSERT_EQ(crashed.stats.restarts, 1u);
  EXPECT_EQ(crashed.stats.quarantined, 0u);
  auto restarts = engine->supervisor()->restarts();
  ASSERT_EQ(restarts.size(), 1u);
  EXPECT_EQ(restarts[0].crash_home, victim);
  EXPECT_EQ(restarts[0].crash_ordinal, 150u);
  EXPECT_FALSE(restarts[0].quarantined);
  auto resumes = engine->supervisor()->resume_points();
  ASSERT_FALSE(resumes.empty());
  for (const auto& rp : resumes) {
    EXPECT_TRUE(rp.warm) << "home " << rp.home;
    EXPECT_EQ(rp.lost_items, 0u) << "home " << rp.home;
  }

  expect_same_homes(baseline, crashed);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RecoveryGolden,
    ::testing::Values(GoldenParam{1, false}, GoldenParam{4, false},
                      GoldenParam{1, true}, GoldenParam{4, true}),
    [](const auto& info) {
      return "shards" + std::to_string(info.param.shards) +
             (info.param.legacy ? "_legacy" : "_packed");
    });

// A shard-global transient crash (not tied to one home) also heals
// invisibly when the journal is on.
TEST(Recovery, ShardGlobalCrashHealsLosslessly) {
  auto scenario = small_scenario(false);

  fleet::FleetConfig baseline_config;
  baseline_config.shards = 2;
  auto baseline = run_fleet(scenario, baseline_config);

  fleet::FleetConfig config = baseline_config;
  config.recovery.enabled = true;
  config.recovery.snapshot_every = 60.0;
  config.recovery.fault = sim::ShardFaultPlan::crash_once_at(300);
  auto crashed = run_fleet(scenario, config);

  // One kCrashOnce plan per shard worker: each shard crashes at ITS 300th
  // item (if it sees that many) and restarts exactly once.
  EXPECT_EQ(crashed.stats.restarts, 2u);
  expect_same_homes(baseline, crashed);
}

// Deterministic poison: the same (home, ordinal) crashes on every retry and
// must converge to quarantine after max_attempts, after which the rest of
// the stream processes normally.
TEST(Recovery, PoisonItemIsQuarantined) {
  auto scenario = small_scenario(false);
  const fleet::HomeId victim = scenario.homes[2].id;

  fleet::FleetConfig config;
  config.shards = 2;
  config.recovery.enabled = true;
  config.recovery.snapshot_every = 120.0;
  config.recovery.max_attempts = 3;
  config.recovery.fault = sim::ShardFaultPlan::poison(victim, 150);
  fleet::FleetEngine* engine = nullptr;
  auto report = run_fleet(scenario, config, &engine);

  EXPECT_EQ(report.stats.restarts, 3u);
  EXPECT_EQ(report.stats.quarantined, 1u);
  auto quarantined = engine->supervisor()->quarantined();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].home, victim);
  EXPECT_EQ(quarantined[0].ordinal, 150u);

  auto metrics = engine->merged_metrics();
  EXPECT_EQ(counter_of(metrics, "fleet.shard_restarts"), 3u);
  EXPECT_EQ(counter_of(metrics, "fleet.items_quarantined"), 1u);
  EXPECT_GE(counter_of(metrics, "fleet.snapshots_taken"), 1u);

  // Bystander homes are untouched by the victim's quarantine.
  fleet::FleetConfig baseline_config;
  baseline_config.shards = 2;
  auto baseline = run_fleet(scenario, baseline_config);
  for (std::size_t i = 0; i < report.homes.size(); ++i) {
    if (report.homes[i].home == victim) continue;
    EXPECT_EQ(report.homes[i].report.render(),
              baseline.homes[i].report.render())
        << "home " << report.homes[i].home;
  }
}

// A corrupted snapshot must not crash or half-restore: the supervisor
// rejects it (counted), rebuilds the home cold, and the run completes.
TEST(Recovery, CorruptSnapshotFallsBackToColdStart) {
  auto scenario = small_scenario(false);
  const fleet::HomeId victim = scenario.homes[1].id;

  fleet::FleetConfig config;
  config.shards = 1;
  config.recovery.enabled = true;
  config.recovery.snapshot_every = 0.0;  // only the injected snapshot exists
  config.recovery.journal = false;
  config.recovery.fault = sim::ShardFaultPlan::crash_home_at(victim, 300);

  auto humanness = verifier();
  fleet::FleetEngine engine(scenario.homes, humanness, config);
  // Plant a corrupted snapshot (not even a valid envelope) before start.
  engine.supervisor()->store().inject(victim, /*ordinal=*/250, /*sim_ts=*/0.0,
                                      util::Bytes(512, 0xee));

  engine.start();
  for (const auto& item : scenario.items) engine.ingest(item);
  engine.drain();
  auto report = engine.report();

  EXPECT_EQ(report.stats.restarts, 1u);
  auto metrics = engine.merged_metrics();
  EXPECT_EQ(counter_of(metrics, "fleet.snapshots_rejected"), 1u);
  EXPECT_EQ(counter_of(metrics, "fleet.restores_warm"), 0u);
  EXPECT_GE(counter_of(metrics, "fleet.restores_cold"), 1u);
  auto resumes = engine.supervisor()->resume_points();
  bool victim_cold = false;
  for (const auto& rp : resumes) {
    if (rp.home == victim) {
      EXPECT_FALSE(rp.warm);
      EXPECT_EQ(rp.resume_ordinal, 0u);
      victim_cold = true;
    }
  }
  EXPECT_TRUE(victim_cold);
  // The run still produced a full report (every home present).
  EXPECT_EQ(report.homes.size(), scenario.homes.size());

  // Retention 2: the restart walks generations newest-first, so a corrupt
  // newest snapshot falls back to the valid one beneath it — warm — and the
  // journal replays everything since, byte-identically to an uncrashed run.
  config.recovery.journal = true;
  fleet::FleetEngine retained(scenario.homes, humanness, config);
  retained.supervisor()->store().set_retention(2);
  fleet::Home fresh(scenario.homes[1], humanness);
  retained.supervisor()->store().inject(
      victim, /*ordinal=*/0, /*sim_ts=*/0.0,
      core::encode_proxy_state(fresh.proxy(), victim));
  retained.supervisor()->store().inject(victim, /*ordinal=*/250,
                                        /*sim_ts=*/0.0, util::Bytes(512, 0xee));
  retained.start();
  for (const auto& item : scenario.items) retained.ingest(item);
  retained.drain();
  auto retained_report = retained.report();

  EXPECT_EQ(retained_report.stats.restarts, 1u);
  auto retained_metrics = retained.merged_metrics();
  EXPECT_EQ(counter_of(retained_metrics, "fleet.snapshots_rejected"), 1u);
  EXPECT_EQ(counter_of(retained_metrics, "fleet.recovery_gap_items"), 0u);
  bool victim_warm = false;
  for (const auto& rp : retained.supervisor()->resume_points()) {
    if (rp.home == victim) {
      victim_warm = rp.warm;
      EXPECT_EQ(rp.lost_items, 0u);
    }
  }
  EXPECT_TRUE(victim_warm);
  fleet::FleetConfig baseline_config;
  baseline_config.shards = 1;
  expect_same_homes(run_fleet(scenario, baseline_config), retained_report);
}

// Lossy mode (journal off): recovery rewinds to the snapshot and the gap is
// measured, not silently absorbed.
TEST(Recovery, LossyModeCountsTheGap) {
  auto scenario = small_scenario(false);
  const fleet::HomeId victim = scenario.homes[4].id;

  fleet::FleetConfig config;
  config.shards = 1;
  config.recovery.enabled = true;
  config.recovery.snapshot_every = 240.0;
  config.recovery.journal = false;
  config.recovery.fault = sim::ShardFaultPlan::crash_home_at(victim, 150);
  fleet::FleetEngine* engine = nullptr;
  run_fleet(scenario, config, &engine);

  auto resumes = engine->supervisor()->resume_points();
  std::uint64_t victim_lost = 0;
  for (const auto& rp : resumes) {
    if (rp.home == victim) victim_lost = rp.lost_items;
  }
  EXPECT_GT(victim_lost, 0u);
  auto metrics = engine->merged_metrics();
  EXPECT_GE(counter_of(metrics, "fleet.recovery_gap_items"), victim_lost);
}

// The store's generation swap is the only cross-thread surface of the
// recovery layer; hammer it from two threads (runs under the TSan leg).
TEST(Recovery, SnapshotStoreGenerationSwapIsAtomic) {
  fleet::SnapshotStore store;
  constexpr int kPuts = 2000;

  std::thread writer([&] {
    for (int i = 1; i <= kPuts; ++i) {
      std::vector<std::uint8_t> blob(64, static_cast<std::uint8_t>(i));
      store.put(7, static_cast<std::uint64_t>(i), static_cast<double>(i),
                std::move(blob));
    }
  });
  std::thread reader([&] {
    std::uint64_t last_gen = 0;
    for (int i = 0; i < kPuts; ++i) {
      auto rec = store.latest(7);
      if (!rec) continue;
      // Generations only move forward, and a record is always internally
      // consistent (blob filled by the same put that bumped the ordinal).
      EXPECT_GE(rec->generation, last_gen);
      last_gen = rec->generation;
      ASSERT_EQ(rec->blob.size(), 64u);
      EXPECT_EQ(rec->blob[0], static_cast<std::uint8_t>(rec->ordinal));
    }
  });
  writer.join();
  reader.join();

  auto final = store.latest(7);
  ASSERT_TRUE(final.has_value());
  EXPECT_EQ(final->generation, static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(final->ordinal, static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(store.puts(), static_cast<std::size_t>(kPuts));
  EXPECT_EQ(store.home_count(), 1u);
}

}  // namespace
