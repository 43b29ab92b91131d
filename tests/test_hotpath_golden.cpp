// Golden equivalence for the packed hot path (DESIGN.md §10): the packed-key
// proxy pipeline must be byte-identical — security-report renderings,
// counters, and sim-domain telemetry exports — to the seed's string-keyed
// implementation (RuleTableConfig::legacy_keys) on a full fleet-testbed
// scenario, both through direct per-home proxies and through the sharded
// engine at shards = 1 and 4.
// The batch pipeline (DESIGN.md §15) extends the same contract: driving the
// identical traffic through FiatProxy::process_batch — at any batch size,
// SIMD on or off, through shards or direct proxies — must leave every
// observable byte (reports, counters, sim telemetry, attack ledger, signals)
// exactly where the scalar loop leaves it.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/attack_label.hpp"
#include "core/humanness.hpp"
#include "core/report.hpp"
#include "fleet/engine.hpp"
#include "fleet/fleet_testbed.hpp"
#include "fleet/home.hpp"
#include "net/packet.hpp"
#include "telemetry/export.hpp"
#include "telemetry/signals.hpp"
#include "telemetry/sink.hpp"

namespace fiat {
namespace {

fleet::FleetScenarioConfig scenario_config(bool legacy_keys) {
  fleet::FleetScenarioConfig config;
  config.homes = 12;
  config.devices_per_home = 3;
  config.duration_days = 0.02;
  config.legacy_keys = legacy_keys;
  return config;
}

/// Smaller fleet with a live attack campaign: exercises lockouts, guard
/// escalations, and the AttackLedger — the paths where the batch pipeline
/// must fall back to the scalar lane.
fleet::FleetScenarioConfig armed_config(bool legacy_keys) {
  fleet::FleetScenarioConfig config;
  config.homes = 8;
  config.devices_per_home = 3;
  config.duration_days = 0.02;
  config.legacy_keys = legacy_keys;
  config.attack.coverage = 0.5;
  return config;
}

/// Drops the proxy.batch.* metric lines from a metrics_json dump: the
/// scalar-fallback counter is the one sim-domain export that legitimately
/// differs between pipelines (a scalar run never takes a batch fallback, so
/// it exports 0), so golden comparisons strip those lines symmetrically and
/// assert the batch run's value separately.
std::string strip_batch_metrics(const std::string& json) {
  std::istringstream in(json);
  std::string out, line;
  bool skipping = false;
  while (std::getline(in, line)) {
    if (skipping) {  // drop the counter's nested {domain, value} lines
      if (line.find('}') != std::string::npos) skipping = false;
      continue;
    }
    if (line.find("\"proxy.batch.") != std::string::npos) {
      skipping = true;
      continue;
    }
    out += line;
    out += '\n';
  }
  // Both sides of every comparison carry the same counter key set (the
  // fallback counter is registered eagerly by set_telemetry), so the same
  // lines vanish from both dumps and comma placement stays symmetric.
  return out;
}

/// Stable text form of an AttackLedger (per-class tallies + per-command
/// rows); byte-equality of two digests ⇔ equal ledgers.
std::string ledger_digest(const core::AttackLedger& ledger) {
  std::string out;
  for (std::size_t c = 0; c < ledger.by_class.size(); ++c) {
    const auto& t = ledger.by_class[c];
    out += std::to_string(c) + ":" + std::to_string(t.packets) + "/" +
           std::to_string(t.packets_dropped) + "/" + std::to_string(t.proofs) +
           "/" + std::to_string(t.proofs_rejected) + "\n";
  }
  for (const auto& [cmd, st] : ledger.commands) {
    out += "cmd" + std::to_string(cmd) + ":" +
           std::to_string(static_cast<int>(st.cls)) + "/" +
           std::to_string(st.payload_seen) + "/" +
           std::to_string(st.payload_dropped) + "\n";
  }
  return out;
}

/// Replays one home's items through a direct (engine-free) proxy and
/// returns its observable state: report render + counters + sim telemetry.
struct HomeRun {
  std::string report;
  std::string telemetry;  // full metrics_json dump (batch keys included)
  core::ProxyCounters counters;
  std::string ledger;
  std::size_t fallbacks = 0;  // FiatProxy::batch_scalar_fallbacks()
  std::size_t fallbacks_telemetry = 0;  // proxy.batch.scalar_fallbacks export
};

HomeRun finish_home(core::FiatProxy& proxy, telemetry::Sink& sink) {
  proxy.flush_events();
  HomeRun run;
  run.report = core::build_security_report(proxy).render();
  run.telemetry =
      telemetry::metrics_json(sink.metrics, /*include_wall=*/false).dump();
  run.counters = proxy.counters();
  run.ledger = ledger_digest(proxy.attack_ledger());
  run.fallbacks = proxy.batch_scalar_fallbacks();
  run.fallbacks_telemetry = static_cast<std::size_t>(
      sink.metrics.counters().at("proxy.batch.scalar_fallbacks").second.value());
  return run;
}

HomeRun run_home(const fleet::HomeSpec& spec,
                 const std::vector<fleet::FleetItem>& items,
                 const core::HumannessVerifier& humanness) {
  telemetry::Sink sink;
  core::FiatProxy proxy = fleet::make_home_proxy(spec, humanness);
  proxy.set_telemetry(&sink, spec.id);
  for (const auto& item : items) {
    if (item.home != spec.id) continue;
    if (item.kind == fleet::FleetItem::Kind::kPacket) {
      proxy.process(item.pkt, item.attack);
    } else {
      proxy.on_auth_payload(item.client_id, item.payload, item.ts);
    }
  }
  return finish_home(proxy, sink);
}

/// Same traffic, driven through process_batch in fixed-size chunks (proof
/// deliveries fence a chunk early, mirroring Shard::process_batch).
HomeRun run_home_batch(const fleet::HomeSpec& spec,
                       const std::vector<fleet::FleetItem>& items,
                       const core::HumannessVerifier& humanness,
                       std::size_t batch_size, bool simd) {
  telemetry::Sink sink;
  fleet::HomeSpec tuned = spec;
  tuned.proxy.simd = simd;
  core::FiatProxy proxy = fleet::make_home_proxy(tuned, humanness);
  proxy.set_telemetry(&sink, spec.id);
  std::vector<net::PacketRecord> pkts;
  std::vector<core::AttackLabel> labels;
  auto flush = [&] {
    if (pkts.empty()) return;
    proxy.process_batch(pkts, labels);
    pkts.clear();
    labels.clear();
  };
  for (const auto& item : items) {
    if (item.home != spec.id) continue;
    if (item.kind == fleet::FleetItem::Kind::kPacket) {
      pkts.push_back(item.pkt);
      labels.push_back(item.attack);
      if (pkts.size() == batch_size) flush();
    } else {
      flush();  // arrival order is observable: proofs fence the batch
      proxy.on_auth_payload(item.client_id, item.payload, item.ts);
    }
  }
  flush();
  return finish_home(proxy, sink);
}

TEST(HotpathGolden, PerHomeProxyReportsAndTelemetryMatchLegacy) {
  auto packed_scenario = fleet::make_fleet_scenario(scenario_config(false));
  auto legacy_scenario = fleet::make_fleet_scenario(scenario_config(true));
  auto humanness = core::HumannessVerifier::train_synthetic(42);

  // The workload itself must not depend on the flag.
  ASSERT_EQ(packed_scenario.items.size(), legacy_scenario.items.size());
  ASSERT_EQ(packed_scenario.packet_count, legacy_scenario.packet_count);

  for (std::size_t h = 0; h < packed_scenario.homes.size(); ++h) {
    ASSERT_FALSE(packed_scenario.homes[h].proxy.rules.legacy_keys);
    ASSERT_TRUE(legacy_scenario.homes[h].proxy.rules.legacy_keys);
    HomeRun packed =
        run_home(packed_scenario.homes[h], packed_scenario.items, humanness);
    HomeRun legacy =
        run_home(legacy_scenario.homes[h], legacy_scenario.items, humanness);
    EXPECT_EQ(packed.report, legacy.report) << "home " << h;
    EXPECT_EQ(packed.telemetry, legacy.telemetry) << "home " << h;
    EXPECT_EQ(packed.counters.packets_allowed, legacy.counters.packets_allowed);
    EXPECT_EQ(packed.counters.packets_dropped, legacy.counters.packets_dropped);
    EXPECT_EQ(packed.counters.events_closed, legacy.counters.events_closed);
    EXPECT_EQ(packed.counters.alerts, legacy.counters.alerts);
  }
}

/// Full observable digest of an engine run: per-home report renderings, the
/// fleet's ProxyCounters totals, the merged AttackLedger, merged sim-domain
/// telemetry (batch counters stripped — asserted separately via
/// `fallbacks`), and the canonical signal bytes.
struct EngineRun {
  std::vector<std::string> homes;
  core::ProxyCounters totals;
  std::string attack;
  std::string telemetry;
  util::Bytes signals;
  std::size_t fallbacks = 0;  // merged proxy.batch.scalar_fallbacks
};

EngineRun engine_run(const fleet::FleetScenario& scenario,
                     const core::HumannessVerifier& humanness,
                     std::size_t shards, bool batch,
                     const fleet::RecoveryConfig* recovery = nullptr) {
  fleet::FleetConfig config;
  config.shards = shards;
  config.batch = batch;
  if (recovery) config.recovery = *recovery;
  fleet::FleetEngine engine(scenario.homes, humanness, config);
  engine.start();
  for (const auto& item : scenario.items) engine.ingest(item);
  engine.drain();
  EngineRun run;
  auto report = engine.report();
  run.homes.reserve(report.homes.size());
  for (const auto& home : report.homes) {
    run.homes.push_back(std::to_string(home.home) + "\n" + home.report.render());
  }
  run.totals = report.totals;
  run.attack = ledger_digest(report.attack);
  auto metrics = engine.merged_metrics();
  run.telemetry = strip_batch_metrics(
      telemetry::metrics_json(metrics, /*include_wall=*/false).dump());
  run.fallbacks = static_cast<std::size_t>(
      metrics.counters().at("proxy.batch.scalar_fallbacks").second.value());
  run.signals = engine.signals().encode();
  return run;
}

TEST(HotpathGolden, FleetEngineMatchesLegacyAtOneAndFourShards) {
  auto packed_scenario = fleet::make_fleet_scenario(scenario_config(false));
  auto legacy_scenario = fleet::make_fleet_scenario(scenario_config(true));
  auto humanness = core::HumannessVerifier::train_synthetic(42);

  auto legacy1 = engine_run(legacy_scenario, humanness, 1, /*batch=*/true);
  auto packed1 = engine_run(packed_scenario, humanness, 1, /*batch=*/true);
  auto packed4 = engine_run(packed_scenario, humanness, 4, /*batch=*/true);

  // Packed == legacy (the equivalence claim), and packed is shard-count
  // invariant (the determinism contract survives the container swap).
  EXPECT_EQ(packed1.homes, legacy1.homes);
  EXPECT_EQ(packed1.telemetry, legacy1.telemetry);
  EXPECT_EQ(packed4.homes, packed1.homes);
  EXPECT_EQ(packed4.telemetry, packed1.telemetry);
  EXPECT_EQ(packed4.signals, packed1.signals);
}

TEST(HotpathGolden, PerHomeBatchPipelineIsByteIdenticalToScalar) {
  auto scenario = fleet::make_fleet_scenario(armed_config(false));
  auto humanness = core::HumannessVerifier::train_synthetic(42);
  ASSERT_GT(scenario.attack.packets, 0u) << "campaign must be live";

  struct Variant {
    std::size_t size;
    bool simd;
  };
  const Variant kVariants[] = {{1, true}, {7, true}, {64, true}, {7, false}};

  std::size_t fleet_fallbacks = 0;
  for (const auto& spec : scenario.homes) {
    HomeRun scalar = run_home(spec, scenario.items, humanness);
    EXPECT_EQ(scalar.fallbacks, 0u);
    EXPECT_EQ(scalar.fallbacks_telemetry, 0u);
    bool first = true;
    std::size_t fallbacks = 0;
    for (const Variant& v : kVariants) {
      HomeRun batch =
          run_home_batch(spec, scenario.items, humanness, v.size, v.simd);
      std::string tag = "home " + std::to_string(spec.id) + " batch=" +
                        std::to_string(v.size) + (v.simd ? "" : " simd-off");
      EXPECT_EQ(batch.report, scalar.report) << tag;
      EXPECT_EQ(strip_batch_metrics(batch.telemetry),
                strip_batch_metrics(scalar.telemetry))
          << tag;
      EXPECT_EQ(batch.ledger, scalar.ledger) << tag;
      EXPECT_EQ(batch.counters.packets_allowed, scalar.counters.packets_allowed);
      EXPECT_EQ(batch.counters.packets_dropped, scalar.counters.packets_dropped);
      EXPECT_EQ(batch.counters.events_closed, scalar.counters.events_closed);
      EXPECT_EQ(batch.counters.alerts, scalar.counters.alerts);
      // The fallback counter is part of the deterministic telemetry snapshot
      // and must not depend on how the stream was chopped into batches.
      EXPECT_EQ(batch.fallbacks_telemetry, batch.fallbacks) << tag;
      if (first) {
        fallbacks = batch.fallbacks;
        first = false;
      } else {
        EXPECT_EQ(batch.fallbacks, fallbacks) << tag << " (segmentation leak)";
      }
    }
    fleet_fallbacks += fallbacks;
  }
  // The armed scenario must actually exercise the scalar fallback lane
  // (lockout drops + event escalations) somewhere in the fleet.
  EXPECT_GT(fleet_fallbacks, 0u);
}

TEST(HotpathGolden, FleetEngineBatchMatrixIsByteIdentical) {
  auto packed_scenario = fleet::make_fleet_scenario(armed_config(false));
  auto legacy_scenario = fleet::make_fleet_scenario(armed_config(true));
  auto humanness = core::HumannessVerifier::train_synthetic(42);
  ASSERT_GT(packed_scenario.attack.packets, 0u);

  // Reference: packed keys, scalar per-item loop, one shard.
  EngineRun ref = engine_run(packed_scenario, humanness, 1, /*batch=*/false);
  EXPECT_EQ(ref.fallbacks, 0u);
  for (bool legacy_keys : {false, true}) {
    const auto& scenario = legacy_keys ? legacy_scenario : packed_scenario;
    for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      for (bool batch : {false, true}) {
        if (!legacy_keys && shards == 1 && !batch) continue;  // == ref
        EngineRun run = engine_run(scenario, humanness, shards, batch);
        std::string tag = std::string(legacy_keys ? "legacy" : "packed") +
                          " shards=" + std::to_string(shards) +
                          (batch ? " batch" : " scalar");
        EXPECT_EQ(run.homes, ref.homes) << tag;
        EXPECT_EQ(run.attack, ref.attack) << tag;
        EXPECT_EQ(run.telemetry, ref.telemetry) << tag;
        EXPECT_EQ(run.signals, ref.signals) << tag;
        if (batch) {
          EXPECT_GT(run.fallbacks, 0u) << tag;
        } else {
          EXPECT_EQ(run.fallbacks, 0u) << tag;
        }
      }
    }
  }
}

TEST(HotpathGolden, SupervisedNoFaultBatchFastPathIsByteIdentical) {
  // Supervised shards process item by item (the crash bracket and the
  // journal wrap single items). With recovery armed but no fault scheduled,
  // that scalar path must reproduce every report, counter and signal of the
  // unsupervised batch engine.
  auto scenario = fleet::make_fleet_scenario(armed_config(false));
  auto humanness = core::HumannessVerifier::train_synthetic(42);
  fleet::RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.snapshot_every = 300.0;

  EngineRun supervised = engine_run(scenario, humanness, 2, true, &recovery);
  EngineRun unsupervised = engine_run(scenario, humanness, 2, true);
  EXPECT_EQ(supervised.homes, unsupervised.homes);
  EXPECT_EQ(supervised.totals, unsupervised.totals);
  EXPECT_EQ(supervised.attack, unsupervised.attack);
  EXPECT_EQ(supervised.signals, unsupervised.signals);
  // The batch flag is ignored under supervision; the unsupervised engine
  // really took the batch path.
  EXPECT_EQ(supervised.fallbacks, 0u);
  EXPECT_GT(unsupervised.fallbacks, 0u);
}

}  // namespace
}  // namespace fiat
