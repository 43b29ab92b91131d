#include "fleet/engine.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"

namespace fiat::fleet {

FleetEngine::FleetEngine(std::vector<HomeSpec> homes,
                         const core::HumannessVerifier& humanness,
                         FleetConfig config)
    : config_(config) {
  if (config_.shards == 0) throw LogicError("FleetEngine: zero shards");
  // Keep every router batch within one queue's capacity. The queue survives
  // batch > capacity (the producer blocks mid-batch and the consumer drains),
  // but a batch that can never land in one shot just thrashes the condition
  // variables — clamp rather than make `fleet --capacity 64` a footgun.
  if (config_.ingest_batch > config_.queue_capacity) {
    config_.ingest_batch = config_.queue_capacity;
  }
  std::sort(homes.begin(), homes.end(),
            [](const HomeSpec& a, const HomeSpec& b) { return a.id < b.id; });
  for (std::size_t i = 1; i < homes.size(); ++i) {
    if (homes[i].id == homes[i - 1].id) {
      throw LogicError("FleetEngine: duplicate home id");
    }
  }
  home_count_ = homes.size();

  std::vector<HomeId> ids;
  ids.reserve(homes.size());
  for (const HomeSpec& spec : homes) ids.push_back(spec.id);
  partition_ = HomePartition::contiguous(ids, config_.shards);

  if (config_.recovery.enabled) {
    supervisor_ = std::make_unique<Supervisor>(config_.recovery, revocations_);
    shard_supervisors_.reserve(partition_.shard_count());
  }

  // Build each shard's contiguous slice. Homes are constructed spec-by-spec
  // (independent of the slicing), so a home's initial proxy state never
  // depends on the shard count.
  shards_.reserve(partition_.shard_count());
  std::size_t next = 0;
  for (std::size_t s = 0; s < partition_.shard_count(); ++s) {
    std::vector<Home> slice;
    std::vector<HomeSpec> spec_slice;
    while (next < homes.size() && partition_.shard_of(homes[next].id) == s) {
      slice.emplace_back(homes[next], humanness);
      if (supervisor_) spec_slice.push_back(homes[next]);
      ++next;
    }
    ShardSupervisor* shard_supervisor = nullptr;
    if (supervisor_) {
      shard_supervisors_.push_back(std::make_unique<ShardSupervisor>(
          s, supervisor_.get(), std::move(spec_slice), humanness));
      shard_supervisor = shard_supervisors_.back().get();
    }
    shards_.push_back(std::make_unique<Shard>(std::move(slice),
                                              config_.queue_capacity,
                                              config_.on_full,
                                              config_.trace_capacity,
                                              shard_supervisor));
    shards_.back()->set_batch(config_.batch);
  }
  if (next != homes.size()) throw LogicError("FleetEngine: partition hole");

  std::vector<Shard*> raw;
  raw.reserve(shards_.size());
  for (auto& shard : shards_) raw.push_back(shard.get());
  router_ = std::make_unique<IngestRouter>(std::move(raw), partition_,
                                           config_.ingest_batch);
}

void FleetEngine::start() {
  if (started_) throw LogicError("FleetEngine: started twice");
  started_ = true;
  start_time_ = std::chrono::steady_clock::now();
  for (auto& shard : shards_) shard->start();
}

void FleetEngine::drain() {
  if (stopped_) return;
  router_->flush();
  for (auto& shard : shards_) shard->stop(/*drain=*/true);
  wall_seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                start_time_)
                      .count();
  stopped_ = true;
}

void FleetEngine::abort() {
  if (stopped_) return;
  // Deliberately no router flush: an abort discards, it does not publish.
  for (auto& shard : shards_) shard->stop(/*drain=*/false);
  wall_seconds_ = started_
                      ? std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_time_)
                            .count()
                      : 0.0;
  stopped_ = true;
}

void FleetEngine::require_stopped(const char* op) const {
  if (started_ && !stopped_) {
    throw LogicError(std::string("FleetEngine: ") + op +
                     " requires a stopped engine");
  }
}

FleetStats FleetEngine::stats() const {
  require_stopped("stats()");
  FleetStats out;
  out.homes = home_count_;
  out.packets_in = router_->packets_offered();
  out.proofs_in = router_->proofs_offered();
  out.wall_seconds = wall_seconds_;
  for (const auto& shard : shards_) {
    ShardStats s = shard->stats();
    out.packets_out += s.packets;
    out.proofs_out += s.proofs;
    out.shed += s.queue_shed;
    out.shed_on_close += s.queue_shed_on_close;
    out.discarded += s.discarded;
    out.restarts += s.restarts;
    out.quarantined += s.quarantined;
    out.attack_injected += s.attack_injected;
    out.attack_blocked += s.attack_blocked;
    out.attack_completed += s.attack_completed;
    out.lifecycle_enrolled += s.enrolled;
    out.lifecycle_rotated += s.rotated;
    out.lifecycle_revoked += s.revoked;
    out.shards.push_back(s);
  }
  for (const auto& shard : shards_) {
    out.lifecycle_rejected_proofs += shard->lifecycle_rejected_proofs();
  }
  return out;
}

telemetry::MetricsRegistry FleetEngine::merged_metrics() const {
  require_stopped("merged_metrics()");
  telemetry::MetricsRegistry merged;
  // Shard order = partition order, so accumulated histogram sums (doubles)
  // merge in a fixed order and stay deterministic.
  for (const auto& shard : shards_) {
    merged.merge_from(shard->telemetry().metrics);
  }
  merged.counter("fleet.packets_in").inc(router_->packets_offered());
  merged.counter("fleet.proofs_in").inc(router_->proofs_offered());
  std::uint64_t trace_dropped = 0;
  for (const auto& shard : shards_) {
    trace_dropped += shard->telemetry().trace.dropped();
  }
  merged.counter("fleet.trace_spans_dropped").inc(trace_dropped);
  merged.gauge("fleet.wall_seconds", telemetry::Domain::kWall).set(wall_seconds_);
  return merged;
}

std::vector<telemetry::TraceSpan> FleetEngine::merged_trace() const {
  require_stopped("merged_trace()");
  std::vector<const telemetry::TraceBuffer*> buffers;
  buffers.reserve(shards_.size());
  for (const auto& shard : shards_) buffers.push_back(&shard->telemetry().trace);
  return telemetry::merge_ordered(buffers);
}

telemetry::SignalSet FleetEngine::signals() {
  require_stopped("signals()");
  telemetry::SignalSet out;
  for (auto& shard : shards_) out.merge_from(shard->signals());
  return out;
}

void FleetEngine::annotate_stats(FleetStats& stats,
                                 const CorrelationReport& report) const {
  for (std::uint32_t home : report.flagged_home_ids()) {
    std::size_t shard = partition_.shard_of(home);
    if (shard < stats.shards.size()) ++stats.shards[shard].flagged;
    ++stats.flagged_homes;
  }
  stats.correlation_shared_signatures = report.shared_signatures;
  stats.correlation_flood_sources = report.flood_sources;
  stats.correlation_cohorts = report.cohorts;
}

FleetReport FleetEngine::report() {
  require_stopped("report()");
  FleetReport out;
  out.stats = stats();
  out.homes.reserve(home_count_);
  for (auto& shard : shards_) {
    for (Home& home : shard->homes()) {
      home.proxy().flush_events();
      FleetReport::HomeEntry entry;
      entry.home = home.id();
      entry.counters = home.proxy().counters();
      entry.report = core::build_security_report(home.proxy());
      out.totals += entry.counters;
      out.attack.merge(entry.report.attack);
      if (!entry.report.incidents.empty()) ++out.homes_with_incidents;
      out.homes.push_back(std::move(entry));
    }
  }
  std::sort(out.homes.begin(), out.homes.end(),
            [](const FleetReport::HomeEntry& a, const FleetReport::HomeEntry& b) {
              return a.home < b.home;
            });
  return out;
}

std::string FleetReport::render(std::size_t max_homes) const {
  std::string out = "=== FIAT fleet report ===\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "%zu homes, %zu with incidents; packets %zu allowed / %zu "
                "dropped; %zu events\n",
                homes.size(), homes_with_incidents, totals.packets_allowed,
                totals.packets_dropped, totals.events_closed);
  out += line;
  std::snprintf(line, sizeof(line),
                "proofs: %zu accepted, %zu bad-sig, %zu non-human, %zu late, "
                "%zu duplicate; %zu alerts\n",
                totals.proofs_accepted, totals.proofs_rejected_signature,
                totals.proofs_rejected_nonhuman, totals.proofs_late,
                totals.proofs_duplicate, totals.alerts);
  out += line;
  std::snprintf(line, sizeof(line),
                "degraded: %zu events, %zu allows, %zu violations forgiven\n",
                totals.events_decided_degraded, totals.degraded_allows,
                totals.violations_forgiven);
  out += line;
  if (!attack.empty()) {
    std::snprintf(line, sizeof(line),
                  "attacks: %llu/%llu packets dropped, %llu/%llu proofs "
                  "rejected, %llu commands blocked, %llu completed\n",
                  static_cast<unsigned long long>(attack.dropped()),
                  static_cast<unsigned long long>(attack.injected()),
                  static_cast<unsigned long long>(attack.proofs_rejected()),
                  static_cast<unsigned long long>(attack.proofs_injected()),
                  static_cast<unsigned long long>(attack.commands_blocked()),
                  static_cast<unsigned long long>(attack.commands_completed()));
    out += line;
  }
  out += "\n-- runtime --\n";
  out += stats.render();

  std::size_t show = max_homes == 0 ? homes.size() : std::min(max_homes, homes.size());
  if (show == 0) return out;
  out += "\n-- homes --\n";
  std::snprintf(line, sizeof(line), "%-8s %9s %9s %7s %7s %7s %9s\n", "home",
                "allowed", "dropped", "events", "proofs", "alerts", "incidents");
  out += line;
  for (std::size_t i = 0; i < show; ++i) {
    const HomeEntry& h = homes[i];
    std::snprintf(line, sizeof(line), "%-8u %9zu %9zu %7zu %7zu %7zu %9zu\n",
                  h.home, h.counters.packets_allowed, h.counters.packets_dropped,
                  h.counters.events_closed, h.counters.proofs_accepted,
                  h.counters.alerts, h.report.incidents.size());
    out += line;
  }
  if (show < homes.size()) {
    std::snprintf(line, sizeof(line), "... %zu more homes\n", homes.size() - show);
    out += line;
  }
  return out;
}

}  // namespace fiat::fleet
