// Cluster-tier suite (DESIGN.md §12): live home migration, whole-node
// failover, the load-aware rebalancer, and the satellites that ride along
// (SnapshotStore retention, HomeRuntime::restore generation fallback, CLI flag
// validation, the stats table's cluster columns).
//
// The headline invariants mirror test_recovery's: a run with clean live
// migrations produces per-home reports byte-identical to an unmigrated
// FleetEngine run (across node counts and both rule-table key modes), and a
// node kill with an instant detection window + journal heals invisibly too.
// Runs under the TSan leg via the concurrency label.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/simd.hpp"
#include "core/state_codec.hpp"
#include "fleet/cli_options.hpp"
#include "fleet/cluster.hpp"
#include "fleet/engine.hpp"
#include "fleet/fleet_testbed.hpp"
#include "fleet/home_runtime.hpp"
#include "fleet/placement.hpp"
#include "fleet/snapshot_store.hpp"
#include "sim/faults.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"

using namespace fiat;

namespace {

fleet::FleetScenarioConfig small_config(bool legacy_keys) {
  fleet::FleetScenarioConfig config;
  config.homes = 8;
  config.devices_per_home = 2;
  config.duration_days = 0.015;
  config.legacy_keys = legacy_keys;
  return config;
}

core::HumannessVerifier verifier() {
  return core::HumannessVerifier::train_synthetic(
      fleet::FleetScenarioConfig{}.seed);
}

fleet::FleetReport run_fleet(const fleet::FleetScenario& scenario) {
  auto humanness = verifier();
  fleet::FleetConfig config;
  config.shards = 2;
  fleet::FleetEngine engine(scenario.homes, humanness, config);
  engine.start();
  for (const auto& item : scenario.items) engine.ingest(item);
  engine.drain();
  return engine.report();
}

fleet::FleetReport run_cluster(const fleet::FleetScenario& scenario,
                               fleet::ClusterConfig config,
                               std::unique_ptr<fleet::ClusterEngine>* keep =
                                   nullptr) {
  auto humanness = verifier();
  auto engine = std::make_unique<fleet::ClusterEngine>(scenario.homes,
                                                       humanness, config);
  engine->start();
  for (const auto& item : scenario.items) engine->ingest(item);
  engine->drain();
  auto report = engine->report();
  if (keep) *keep = std::move(engine);
  return report;
}

void expect_same_homes(const fleet::FleetReport& a,
                       const fleet::FleetReport& b) {
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

std::size_t verdicts(const fleet::FleetReport& r) {
  return r.totals.packets_allowed + r.totals.packets_dropped;
}

std::uint64_t counter_of(const telemetry::MetricsRegistry& metrics,
                         const std::string& name) {
  const auto* c = metrics.find_counter(name);
  return c ? c->value() : 0;
}

std::vector<fleet::NodeId> node_range(std::size_t count) {
  std::vector<fleet::NodeId> nodes;
  for (std::size_t n = 0; n < count; ++n) {
    nodes.push_back(static_cast<fleet::NodeId>(n));
  }
  return nodes;
}

double mid_ts(const fleet::FleetScenario& scenario) {
  return scenario.items[scenario.items.size() / 2].ts;
}

struct GoldenParam {
  std::size_t nodes;
  bool legacy;
};

class ClusterGolden : public ::testing::TestWithParam<GoldenParam> {};

// Live-migrate three homes mid-trace: the merged report must be
// byte-identical per home to a plain (unmigrated, uncluttered) FleetEngine
// run — migration is invisible to the security pipeline.
TEST_P(ClusterGolden, CleanMigrationReportIsByteIdentical) {
  auto scenario = fleet::make_fleet_scenario(small_config(GetParam().legacy));
  auto baseline = run_fleet(scenario);

  fleet::ClusterConfig config;
  config.nodes = GetParam().nodes;
  config.snapshot_every = 120.0;
  // Move each victim off its rendezvous owner (computed the same way the
  // engine will) so every plan is a real cross-node migration.
  fleet::PlacementTable table(node_range(config.nodes));
  const double flip = mid_ts(scenario);
  for (fleet::HomeId home : {fleet::HomeId{1}, fleet::HomeId{3}, fleet::HomeId{6}}) {
    fleet::NodeId to = static_cast<fleet::NodeId>(
        (table.owner_of(home) + 1) % config.nodes);
    config.migrations.push_back({home, to, flip});
  }

  std::unique_ptr<fleet::ClusterEngine> engine;
  auto report = run_cluster(scenario, config, &engine);

  ASSERT_EQ(engine->migrations().size(), 3u);
  for (const auto& rec : engine->migrations()) {
    EXPECT_TRUE(rec.planned);
    EXPECT_NE(rec.from, rec.to);
  }
  EXPECT_EQ(engine->items_black_holed(), 0u);
  EXPECT_EQ(report.stats.migrations, 3u);
  expect_same_homes(baseline, report);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ClusterGolden,
    ::testing::Values(GoldenParam{2, false}, GoldenParam{5, false},
                      GoldenParam{2, true}, GoldenParam{5, true}),
    [](const auto& info) {
      return "nodes" + std::to_string(info.param.nodes) +
             (info.param.legacy ? "_legacy" : "_packed");
    });

// Journal off: the cut seals a fresh snapshot at exactly the cut ordinal, so
// clean migration stays lossless in lossy-failover mode too.
TEST(Cluster, MigrationWithoutJournalIsStillLossless) {
  auto scenario = fleet::make_fleet_scenario(small_config(false));
  auto baseline = run_fleet(scenario);

  fleet::ClusterConfig config;
  config.nodes = 3;
  config.journal = false;
  config.snapshot_every = 0.0;  // only the cut snapshot exists
  fleet::PlacementTable table(node_range(config.nodes));
  fleet::NodeId to =
      static_cast<fleet::NodeId>((table.owner_of(2) + 1) % config.nodes);
  config.migrations.push_back({2, to, mid_ts(scenario)});

  std::unique_ptr<fleet::ClusterEngine> engine;
  auto report = run_cluster(scenario, config, &engine);
  ASSERT_EQ(engine->migrations().size(), 1u);
  expect_same_homes(baseline, report);
}

// Kill a node with an instant detection window and the journal on: failover
// replays every processed item from the durable stores and the report is
// byte-identical to an unfaulted run. The strong form of "warm".
TEST(Cluster, InstantDetectionFailoverIsLossless) {
  auto scenario = fleet::make_fleet_scenario(small_config(false));
  auto baseline = run_fleet(scenario);

  fleet::ClusterConfig config;
  config.nodes = 4;
  config.snapshot_every = 120.0;
  // Kill whichever node owns home 0, so the failover provably re-places at
  // least one home.
  fleet::PlacementTable table(node_range(config.nodes));
  config.fault = sim::NodeFaultPlan::kill_at(table.owner_of(0),
                                             mid_ts(scenario),
                                             /*detect_after=*/0.0);

  std::unique_ptr<fleet::ClusterEngine> engine;
  auto report = run_cluster(scenario, config, &engine);

  ASSERT_EQ(engine->failovers().size(), 1u);
  EXPECT_GE(engine->failovers()[0].homes_replaced, 1u);
  EXPECT_EQ(engine->items_black_holed(), 0u);
  auto metrics = engine->merged_metrics();
  EXPECT_GE(counter_of(metrics, "fleet.cluster.restores_warm"), 1u);
  EXPECT_EQ(counter_of(metrics, "fleet.cluster.gap_items"), 0u);
  expect_same_homes(baseline, report);
}

// A real detection window black-holes items (counted), and warm failover
// (durable snapshot + journal) loses far fewer verdicts than the cold
// re-placement baseline, which forfeits the victims' entire pre-kill history.
TEST(Cluster, WarmFailoverBeatsColdReplacement) {
  auto scenario = fleet::make_fleet_scenario(small_config(false));
  auto baseline = run_fleet(scenario);
  const std::size_t base_verdicts = verdicts(baseline);

  fleet::PlacementTable table(node_range(4));
  auto fault = sim::NodeFaultPlan::kill_at(table.owner_of(0), mid_ts(scenario),
                                           /*detect_after=*/60.0);

  fleet::ClusterConfig warm;
  warm.nodes = 4;
  warm.snapshot_every = 120.0;
  warm.fault = fault;
  std::unique_ptr<fleet::ClusterEngine> warm_engine;
  auto warm_report = run_cluster(scenario, warm, &warm_engine);

  fleet::ClusterConfig cold = warm;
  cold.cold_failover = true;
  std::unique_ptr<fleet::ClusterEngine> cold_engine;
  auto cold_report = run_cluster(scenario, cold, &cold_engine);

  // The detection window really routed items into the corpse, identically in
  // both runs (black-holing is a controller decision, not a restore one).
  ASSERT_GT(warm_engine->items_black_holed(), 0u);
  EXPECT_EQ(warm_engine->items_black_holed(), cold_engine->items_black_holed());

  // Warm loses at most the black-holed items; cold additionally loses every
  // verdict the victims produced before the kill.
  const std::size_t warm_lost = base_verdicts - verdicts(warm_report);
  const std::size_t cold_lost = base_verdicts - verdicts(cold_report);
  EXPECT_LE(warm_lost, warm_engine->items_black_holed());
  EXPECT_GT(cold_lost, warm_lost);

  // Cold re-placement under fail-closed must come back strict, never with a
  // re-opened learning window.
  auto cold_metrics = cold_engine->merged_metrics();
  EXPECT_GE(counter_of(cold_metrics, "fleet.cluster.restores_cold"), 1u);
  EXPECT_GT(counter_of(cold_metrics, "fleet.cluster.gap_items"), 0u);
}

// Zipf-skewed load + the rebalancer: the whale home's node runs hot, the
// controller migrates hot homes away, and — because rebalancing is just
// clean migration — the merged report still matches the unclustered run.
TEST(Cluster, RebalancerMovesHotHomesWithoutChangingVerdicts) {
  auto scenario_config = small_config(false);
  scenario_config.zipf_skew = 2.0;
  scenario_config.zipf_max_devices = 8;
  auto scenario = fleet::make_fleet_scenario(scenario_config);
  auto baseline = run_fleet(scenario);

  fleet::ClusterConfig config;
  config.nodes = 2;
  config.snapshot_every = 120.0;
  config.rebalance_every = 120.0;
  config.rebalance_ratio = 1.1;
  config.rebalance_top = 1;

  std::unique_ptr<fleet::ClusterEngine> engine;
  auto report = run_cluster(scenario, config, &engine);

  ASSERT_FALSE(engine->migrations().empty());
  for (const auto& rec : engine->migrations()) {
    EXPECT_FALSE(rec.planned);  // rebalancer-chosen, not scripted
    EXPECT_NE(rec.from, rec.to);
  }
  EXPECT_EQ(engine->items_black_holed(), 0u);
  expect_same_homes(baseline, report);
}

// Abort mid-run with a migration in flight: abandon() must wake any parked
// install so the discard-stop can join every worker (deadlock guard; runs
// under the TSan leg with a ctest TIMEOUT).
TEST(Cluster, AbortWithInflightHandoffDoesNotHang) {
  auto scenario = fleet::make_fleet_scenario(small_config(false));
  auto humanness = verifier();

  fleet::ClusterConfig config;
  config.nodes = 3;
  fleet::PlacementTable table(node_range(config.nodes));
  fleet::NodeId to =
      static_cast<fleet::NodeId>((table.owner_of(1) + 1) % config.nodes);
  config.migrations.push_back({1, to, scenario.items.front().ts});

  fleet::ClusterEngine engine(scenario.homes, humanness, config);
  engine.start();
  for (std::size_t i = 0; i < scenario.items.size() / 2; ++i) {
    engine.ingest(scenario.items[i]);
  }
  engine.abort();
  EXPECT_TRUE(engine.stopped());
}

TEST(Cluster, ConstructorRejectsImpossibleConfigs) {
  auto scenario = fleet::make_fleet_scenario(small_config(false));
  auto humanness = verifier();

  fleet::ClusterConfig zero;
  zero.nodes = 0;
  EXPECT_THROW(fleet::ClusterEngine(scenario.homes, humanness, zero),
               LogicError);

  fleet::ClusterConfig bad_fault;
  bad_fault.nodes = 2;
  bad_fault.fault = sim::NodeFaultPlan::kill_at(7, 100.0, 0.0);
  EXPECT_THROW(fleet::ClusterEngine(scenario.homes, humanness, bad_fault),
               LogicError);

  fleet::ClusterConfig bad_plan;
  bad_plan.nodes = 2;
  bad_plan.migrations.push_back({999, 1, 100.0});
  EXPECT_THROW(fleet::ClusterEngine(scenario.homes, humanness, bad_plan),
               LogicError);
}

// ---- HomeRuntime::restore generation fallback (retention) -------------------

// A corrupt newest snapshot generation must fall back to the previous
// retained generation — warm, with the home's state byte-identical to the
// original. This is the functional payoff of retention > 1.
TEST(RestoreHome, CorruptNewestGenerationFallsBackWarm) {
  auto scenario = fleet::make_fleet_scenario(small_config(false));
  auto humanness = verifier();
  const fleet::HomeSpec& spec = scenario.homes[2];

  fleet::Home original(spec, humanness);
  fleet::SnapshotStore snapshots(3);
  fleet::JournalStore journal;
  fleet::RevocationLedger revocations;
  fleet::HomeRuntime runtime(humanness, snapshots, journal, revocations,
                             /*snapshot_every=*/0.0, /*journal_on=*/false);

  std::uint64_t processed = 0;
  for (const auto& item : scenario.items) {
    if (item.home != spec.id) continue;
    fleet::apply_item(original, item);
    ++processed;
    if (processed == 200) break;
  }
  snapshots.put(spec.id, processed, 0.0,
                core::encode_proxy_state(original.proxy(), spec.id));
  // The newer generation is garbage — a truncated disk write, say.
  snapshots.inject(spec.id, processed + 50, 1.0, util::Bytes(256, 0xee));

  fleet::RestoreOptions opts;
  opts.expected_ordinal = processed;
  fleet::RestoreOutcome out;
  fleet::Home restored = runtime.restore(spec, opts, out);
  EXPECT_TRUE(out.warm);
  EXPECT_EQ(out.generations_tried, 2u);  // rejected the corrupt one first
  EXPECT_EQ(out.resume_ordinal, processed);
  EXPECT_EQ(out.lost_items, 0u);
  EXPECT_FALSE(out.forced_bootstrap);
  original.proxy().flush_events();
  restored.proxy().flush_events();
  EXPECT_EQ(core::build_security_report(restored.proxy()).render(),
            core::build_security_report(original.proxy()).render());
}

// No usable snapshot + missing items: under fail-closed the restore comes
// back strict (bootstrap forced elapsed), and the loss is counted, not
// absorbed.
TEST(RestoreHome, LossyColdRestoreForcesStrictBootstrap) {
  auto scenario = fleet::make_fleet_scenario(small_config(false));
  auto humanness = verifier();
  const fleet::HomeSpec& spec = scenario.homes[0];
  ASSERT_EQ(spec.proxy.degraded_policy, core::FailPolicy::kFailClosed);

  fleet::SnapshotStore snapshots;
  fleet::JournalStore journal;
  fleet::RevocationLedger revocations;
  fleet::HomeRuntime runtime(humanness, snapshots, journal, revocations,
                             /*snapshot_every=*/0.0, /*journal_on=*/true);
  fleet::RestoreOptions opts;
  opts.expected_ordinal = 40;
  opts.now = 500.0;
  fleet::RestoreOutcome out;
  runtime.restore(spec, opts, out);
  EXPECT_FALSE(out.warm);
  EXPECT_EQ(out.lost_items, 40u);
  EXPECT_EQ(out.resume_ordinal, 0u);
  EXPECT_TRUE(out.forced_bootstrap);
}

TEST(SnapshotStore, RetentionKeepsLastKGenerations) {
  fleet::SnapshotStore store(3);
  EXPECT_EQ(store.retention(), 3u);
  for (int i = 1; i <= 5; ++i) {
    store.put(4, static_cast<std::uint64_t>(i * 10), static_cast<double>(i),
              util::Bytes(16, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(store.puts(), 5u);

  // latest() is unaffected by eviction: always the newest generation.
  auto latest = store.latest(4);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 5u);
  EXPECT_EQ(latest->ordinal, 50u);

  auto history = store.history(4);
  ASSERT_EQ(history.size(), 3u);  // generations 5, 4, 3 — newest first
  EXPECT_EQ(history[0].generation, 5u);
  EXPECT_EQ(history[1].generation, 4u);
  EXPECT_EQ(history[2].generation, 3u);
  EXPECT_EQ(store.total_bytes(), 3u * 16u);

  // Shrinking evicts immediately; the newest survives.
  store.set_retention(1);
  EXPECT_EQ(store.history(4).size(), 1u);
  EXPECT_EQ(store.latest(4)->generation, 5u);
}

TEST(SnapshotStore, ZeroRetentionClampsToOne) {
  fleet::SnapshotStore store(0);
  EXPECT_EQ(store.retention(), 1u);
  store.put(1, 10, 0.0, util::Bytes(8, 0x01));
  store.put(1, 20, 1.0, util::Bytes(8, 0x02));
  EXPECT_EQ(store.history(1).size(), 1u);
  EXPECT_EQ(store.latest(1)->ordinal, 20u);
}

// ---- Zipf testbed (satellite: skewed load) ---------------------------------

TEST(FleetTestbed, ZipfSkewConcentratesDevicesOnLowHomes) {
  fleet::FleetScenarioConfig config;
  config.homes = 6;
  config.duration_days = 0.002;
  config.zipf_skew = 1.0;
  config.zipf_max_devices = 8;
  auto scenario = fleet::make_fleet_scenario(config);

  ASSERT_EQ(scenario.homes.size(), 6u);
  EXPECT_EQ(scenario.homes[0].devices.size(), 8u);  // the whale
  EXPECT_EQ(scenario.homes[5].devices.size(), 1u);  // the tail
  for (std::size_t h = 1; h < scenario.homes.size(); ++h) {
    EXPECT_LE(scenario.homes[h].devices.size(),
              scenario.homes[h - 1].devices.size())
        << "home " << h;
  }

  // Flat default: zipf off leaves devices_per_home untouched.
  fleet::FleetScenarioConfig flat;
  flat.homes = 3;
  flat.duration_days = 0.002;
  auto flat_scenario = fleet::make_fleet_scenario(flat);
  for (const auto& spec : flat_scenario.homes) {
    EXPECT_EQ(spec.devices.size(), flat.devices_per_home);
  }
}

}  // namespace

// ---- CLI flag validation (satellite) ---------------------------------------

namespace fiat::fleet {
namespace {

char** make_argv(std::vector<std::string>& storage) {
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : storage) ptrs.push_back(s.data());
  return ptrs.data();
}

util::Flags parse(std::vector<std::string> args) {
  args.insert(args.begin(), "fiat");
  return util::Flags::parse(static_cast<int>(args.size()), make_argv(args));
}

TEST(CliOptions, ClusterFlagsRoundTrip) {
  auto flags = parse({"cluster", "--nodes", "6", "--capacity", "512",
                      "--snapshot-every", "90", "--retention", "5",
                      "--no-journal", "--cold-failover", "--kill-node", "2",
                      "--kill-at", "400", "--detect-after", "30",
                      "--rebalance-every", "60", "--rebalance-top", "2",
                      "--rebalance-ratio", "1.5"});
  auto config = parse_cluster_flags(flags);
  EXPECT_EQ(config.nodes, 6u);
  EXPECT_EQ(config.queue_capacity, 512u);
  EXPECT_DOUBLE_EQ(config.snapshot_every, 90.0);
  EXPECT_EQ(config.snapshot_retention, 5u);
  EXPECT_FALSE(config.journal);
  EXPECT_TRUE(config.cold_failover);
  ASSERT_TRUE(config.fault.active());
  EXPECT_EQ(config.fault.node, 2u);
  EXPECT_DOUBLE_EQ(config.fault.at_time, 400.0);
  EXPECT_DOUBLE_EQ(config.fault.detect_after, 30.0);
  EXPECT_DOUBLE_EQ(config.rebalance_every, 60.0);
  EXPECT_EQ(config.rebalance_top, 2u);
  EXPECT_DOUBLE_EQ(config.rebalance_ratio, 1.5);
}

TEST(CliOptions, ClusterFlagsRejectInvalidInput) {
  EXPECT_THROW(parse_cluster_flags(parse({"--nodes", "0"})), Error);
  EXPECT_THROW(parse_cluster_flags(parse({"--snapshot-every", "0"})), Error);
  EXPECT_THROW(parse_cluster_flags(parse({"--retention", "0"})), Error);
  // A kill plan needs a positive kill time and an existing node.
  EXPECT_THROW(parse_cluster_flags(parse({"--kill-node", "1"})), Error);
  EXPECT_THROW(
      parse_cluster_flags(parse({"--kill-node", "9", "--kill-at", "100"})),
      Error);
  EXPECT_THROW(parse_cluster_flags(parse({"--rebalance-every", "60",
                                          "--rebalance-ratio", "0.5"})),
               Error);
}

TEST(CliOptions, FleetFlagsRejectInvalidInput) {
  EXPECT_THROW(parse_fleet_flags(parse({"--shards", "0"}), 8), Error);
  EXPECT_THROW(parse_fleet_flags(parse({"--snapshot-every", "0"}), 8), Error);
  EXPECT_THROW(parse_fleet_flags(parse({"--crash-at", "0"}), 8), Error);
  // --crash-home: malformed, out-of-range home, zero ordinal.
  EXPECT_THROW(parse_fleet_flags(parse({"--crash-home", "3"}), 8), Error);
  EXPECT_THROW(parse_fleet_flags(parse({"--crash-home", "x:5"}), 8), Error);
  EXPECT_THROW(parse_fleet_flags(parse({"--crash-home", "99:5"}), 8), Error);
  EXPECT_THROW(parse_fleet_flags(parse({"--crash-home", "3:0"}), 8), Error);

  auto config = parse_fleet_flags(parse({"--crash-home", "3:500",
                                         "--snapshot-every", "120"}), 8);
  EXPECT_TRUE(config.recovery.enabled);
  EXPECT_DOUBLE_EQ(config.recovery.snapshot_every, 120.0);
}

TEST(CliOptions, BatchAndSimdFlags) {
  // Batch pipeline defaults on; --no-batch forces the per-item scalar loop.
  EXPECT_TRUE(parse_fleet_flags(parse({}), 8).batch);
  EXPECT_FALSE(parse_fleet_flags(parse({"--no-batch"}), 8).batch);

  // --simd: off always parses; auto tracks what the build provides; on is
  // validated against the ISA at parse time, so a perf run can never
  // silently measure the scalar fallback.
  EXPECT_FALSE(parse_scenario_flags(parse({"--simd", "off"})).simd);
  EXPECT_EQ(parse_scenario_flags(parse({"--simd", "auto"})).simd,
            core::simd::available());
  if (core::simd::available()) {
    EXPECT_TRUE(parse_scenario_flags(parse({"--simd", "on"})).simd);
  } else {
    EXPECT_THROW(parse_scenario_flags(parse({"--simd", "on"})), Error);
  }
  // Unknown values are a parse error, not a silent default.
  EXPECT_THROW(parse_scenario_flags(parse({"--simd", "fast"})), Error);
  EXPECT_THROW(parse_scenario_flags(parse({"--simd", "ON"})), Error);
}

TEST(CliOptions, CorrelateFlagsRoundTrip) {
  auto opts = parse_correlate_flags(parse({"--correlate"}), "fleet");
  EXPECT_TRUE(opts.enabled);
  EXPECT_TRUE(opts.json_path.empty());
  // Defaults survive when no tuning flags are given.
  EXPECT_EQ(opts.config.min_actor_homes, CorrelatorConfig{}.min_actor_homes);

  opts = parse_correlate_flags(
      parse({"--correlate", "--correlation-json", "corr.json",
             "--correlate-min-homes", "4", "--correlate-min-replays", "5",
             "--correlate-epsilon", "0.5", "--correlate-min-cohort", "2"}),
      "cluster");
  EXPECT_TRUE(opts.enabled);
  EXPECT_EQ(opts.json_path, "corr.json");
  EXPECT_EQ(opts.config.min_actor_homes, 4u);
  EXPECT_EQ(opts.config.min_replays, 5u);
  EXPECT_DOUBLE_EQ(opts.config.shape_epsilon, 0.5);
  EXPECT_EQ(opts.config.min_cohort, 2u);

  // No --correlate at all: disabled, nothing else parsed.
  opts = parse_correlate_flags(parse({"--homes", "30"}), "fleet");
  EXPECT_FALSE(opts.enabled);
}

TEST(CliOptions, CorrelateFlagsRejectInvalidInput) {
  // Every correlation flag is dead weight without --correlate; reject so a
  // typo'd invocation does not quietly skip the correlator.
  EXPECT_THROW(parse_correlate_flags(parse({"--correlation-json", "x.json"}),
                                     "fleet"),
               Error);
  EXPECT_THROW(parse_correlate_flags(parse({"--correlate-min-homes", "4"}),
                                     "fleet"),
               Error);
  EXPECT_THROW(parse_correlate_flags(parse({"--correlate-min-replays", "5"}),
                                     "cluster"),
               Error);
  EXPECT_THROW(parse_correlate_flags(parse({"--correlate-epsilon", "0.5"}),
                                     "fleet"),
               Error);
  EXPECT_THROW(parse_correlate_flags(parse({"--correlate-min-cohort", "2"}),
                                     "cluster"),
               Error);
  // Bad values with --correlate armed.
  EXPECT_THROW(parse_correlate_flags(
                   parse({"--correlate", "--correlation-json", ""}), "fleet"),
               Error);
  EXPECT_THROW(parse_correlate_flags(
                   parse({"--correlate", "--correlate-min-homes", "1"}),
                   "fleet"),
               Error);
  EXPECT_THROW(parse_correlate_flags(
                   parse({"--correlate", "--correlate-min-replays", "0"}),
                   "fleet"),
               Error);
  EXPECT_THROW(parse_correlate_flags(
                   parse({"--correlate", "--correlate-epsilon", "0"}),
                   "fleet"),
               Error);
  EXPECT_THROW(parse_correlate_flags(
                   parse({"--correlate", "--correlate-min-cohort", "1"}),
                   "fleet"),
               Error);
}

TEST(CliOptions, ChurnFlagsRoundTrip) {
  // No churn flags at all: disabled, synthesis byte-identical to pre-churn.
  auto churn = parse_churn_flags(parse({"--homes", "30"}), "fleet");
  EXPECT_FALSE(churn.enabled());

  // Any one arming flag enables churn; the rest keep their defaults.
  churn = parse_churn_flags(parse({"--churn-join", "0.25"}), "fleet");
  EXPECT_TRUE(churn.enabled());
  EXPECT_DOUBLE_EQ(churn.join_fraction, 0.25);
  EXPECT_DOUBLE_EQ(churn.rotate_every, 0.0);
  EXPECT_DOUBLE_EQ(churn.revoke_fraction, 0.0);

  churn = parse_churn_flags(
      parse({"--churn-join", "0.4", "--churn-rotate-every", "600",
             "--churn-revoke", "0.2", "--churn-revoke-at", "0.7",
             "--churn-window", "45"}),
      "cluster");
  EXPECT_TRUE(churn.enabled());
  EXPECT_DOUBLE_EQ(churn.join_fraction, 0.4);
  EXPECT_DOUBLE_EQ(churn.rotate_every, 600.0);
  EXPECT_DOUBLE_EQ(churn.revoke_fraction, 0.2);
  EXPECT_DOUBLE_EQ(churn.revoke_at_frac, 0.7);
  EXPECT_DOUBLE_EQ(churn.revocation_window, 45.0);
}

TEST(CliOptions, ChurnFlagsRejectInvalidInput) {
  // Fractions must stay in [0, 1]; the revocation point must be mid-trace.
  EXPECT_THROW(parse_churn_flags(parse({"--churn-join", "1.5"}), "fleet"),
               Error);
  EXPECT_THROW(parse_churn_flags(parse({"--churn-join", "-0.1"}), "fleet"),
               Error);
  EXPECT_THROW(parse_churn_flags(parse({"--churn-revoke", "2"}), "cluster"),
               Error);
  EXPECT_THROW(parse_churn_flags(parse({"--churn-rotate-every", "0"}),
                                 "fleet"),
               Error);
  EXPECT_THROW(
      parse_churn_flags(
          parse({"--churn-revoke", "0.2", "--churn-revoke-at", "0"}), "fleet"),
      Error);
  EXPECT_THROW(
      parse_churn_flags(
          parse({"--churn-revoke", "0.2", "--churn-revoke-at", "1"}), "fleet"),
      Error);
  EXPECT_THROW(
      parse_churn_flags(
          parse({"--churn-revoke", "0.2", "--churn-window", "0"}), "cluster"),
      Error);
  // Revocation tuning flags are dead weight without --churn-revoke; reject
  // so a typo'd invocation does not quietly skip the revocation leg
  // (mirrors the --correlate tuning-flag contract).
  EXPECT_THROW(parse_churn_flags(parse({"--churn-revoke-at", "0.7"}), "fleet"),
               Error);
  EXPECT_THROW(parse_churn_flags(parse({"--churn-window", "45"}), "cluster"),
               Error);
  // The arming flags alone are fine in any combination.
  EXPECT_TRUE(
      parse_churn_flags(parse({"--churn-rotate-every", "300"}), "fleet")
          .enabled());
  EXPECT_TRUE(parse_churn_flags(parse({"--churn-revoke", "0.1"}), "cluster")
                  .enabled());
}

TEST(CliOptions, ScenarioFlagsValidateAttackClassAndManualRate) {
  auto config = parse_scenario_flags(
      parse({"--attack-coverage", "0.1", "--attack-class", "bucket-mimicry",
             "--manual-per-day", "96"}));
  ASSERT_EQ(config.attack.roster.size(), 1u);
  EXPECT_EQ(config.attack.roster[0], gen::AttackType::kBucketMimicry);
  EXPECT_DOUBLE_EQ(config.manual_per_day, 96.0);

  EXPECT_THROW(parse_scenario_flags(parse({"--attack-class", "no-such"})),
               Error);
  // Sybil homes are fabricated via --sybil-frac, not the per-home roster.
  EXPECT_THROW(parse_scenario_flags(parse({"--attack-class", "sybil-home"})),
               Error);
  EXPECT_THROW(parse_scenario_flags(parse({"--manual-per-day", "0"})), Error);
  EXPECT_THROW(parse_scenario_flags(parse({"--manual-per-day", "-3"})), Error);
}

TEST(CliOptions, ScenarioFlagsValidateZipf) {
  EXPECT_THROW(parse_scenario_flags(parse({"--homes", "0"})), Error);
  EXPECT_THROW(parse_scenario_flags(parse({"--zipf-skew", "1.2",
                                           "--zipf-max-devices", "0"})),
               Error);
  auto config = parse_scenario_flags(parse({"--homes", "50", "--zipf-skew",
                                            "1.2"}));
  EXPECT_EQ(config.homes, 50u);
  EXPECT_DOUBLE_EQ(config.zipf_skew, 1.2);
  EXPECT_EQ(config.zipf_max_devices, 8u);
}

// ---- stats table cluster columns (satellite) -------------------------------

TEST(FleetStatsCluster, RenderShowsMigrationColumnsAndClusterLine) {
  FleetStats stats;
  stats.row_label = "node";
  stats.homes = 4;
  stats.migrations = 2;
  stats.node_failovers = 1;
  stats.handoff_p95_seconds = 0.25;
  stats.wall_seconds = 1.0;
  ShardStats n0;
  n0.homes = 2;
  n0.packets = 50;
  n0.migrations_in = 2;
  n0.migrations_out = 1;
  stats.shards.push_back(n0);
  stats.shards.push_back(ShardStats{});

  std::string table = stats.render();
  // First column is labeled per tier.
  EXPECT_EQ(table.rfind("node", 0), 0u);
  // Migration columns sit between the supervisor columns and high-water.
  EXPECT_NE(table.find("mig-in"), std::string::npos);
  EXPECT_NE(table.find("mig-out"), std::string::npos);
  EXPECT_LT(table.find("quar"), table.find("mig-in"));
  EXPECT_LT(table.find("mig-in"), table.find("mig-out"));
  EXPECT_LT(table.find("mig-out"), table.find("high-water"));
  // The cluster totals line names the control-plane events.
  EXPECT_NE(table.find("2 migrations"), std::string::npos);
  EXPECT_NE(table.find("1 node failovers"), std::string::npos);

  // Plain fleet output is unchanged: no cluster line without cluster events.
  FleetStats plain;
  plain.homes = 2;
  plain.wall_seconds = 1.0;
  plain.shards.push_back(ShardStats{});
  EXPECT_EQ(plain.render().find("cluster:"), std::string::npos);
}

}  // namespace
}  // namespace fiat::fleet
