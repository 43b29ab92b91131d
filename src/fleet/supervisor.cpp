#include "fleet/supervisor.hpp"

#include <chrono>
#include <cstdio>

#include "fleet/shard.hpp"

namespace fiat::fleet {

void Supervisor::note_restart(RestartRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  restarts_.push_back(std::move(rec));
}

void Supervisor::note_quarantine(QuarantinedItem item) {
  std::lock_guard<std::mutex> lock(mu_);
  quarantined_.push_back(std::move(item));
}

void Supervisor::note_resume(ResumePoint point) {
  std::lock_guard<std::mutex> lock(mu_);
  resume_points_.push_back(point);
}

std::vector<RestartRecord> Supervisor::restarts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restarts_;
}

std::vector<QuarantinedItem> Supervisor::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_;
}

std::vector<ResumePoint> Supervisor::resume_points() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resume_points_;
}

std::string Supervisor::render() const {
  std::vector<RestartRecord> restarts;
  std::vector<QuarantinedItem> quarantined;
  {
    std::lock_guard<std::mutex> lock(mu_);
    restarts = restarts_;
    quarantined = quarantined_;
  }
  char line[192];
  std::snprintf(line, sizeof(line),
                "recovery: %zu shard restarts, %zu items quarantined; "
                "snapshots: %zu homes, %zu puts, %zu bytes held\n",
                restarts.size(), quarantined.size(), store_.home_count(),
                store_.puts(), store_.total_bytes());
  std::string out = line;
  for (const QuarantinedItem& q : quarantined) {
    std::snprintf(line, sizeof(line),
                  "  quarantined: home %u item %llu at t=%.3f (%s)\n", q.home,
                  static_cast<unsigned long long>(q.ordinal), q.ts,
                  q.error.c_str());
    out += line;
  }
  return out;
}

ShardSupervisor::ShardSupervisor(std::size_t shard_index, Supervisor* fleet,
                                 std::vector<HomeSpec> specs,
                                 core::HumannessVerifier humanness)
    : shard_index_(shard_index),
      fleet_(fleet),
      specs_(std::move(specs)),
      humanness_(std::move(humanness)),
      runtime_(humanness_, fleet->store(), fleet->journal(),
               fleet->revocations(), fleet->config().snapshot_every,
               fleet->config().journal),
      injector_(fleet->config().fault) {
  for (const HomeSpec& spec : specs_) runtime_.add(spec.id);
}

void ShardSupervisor::attach(telemetry::Sink* sink) {
  sink_ = sink;
  auto& m = sink->metrics;
  tm_restarts_ = &m.counter("fleet.shard_restarts");
  tm_quarantined_ = &m.counter("fleet.items_quarantined");
  tm_restore_seconds_ =
      &m.histogram("fleet.restore_seconds", telemetry::Domain::kWall);
  runtime_.attach(sink, {.snapshots_taken = "fleet.snapshots_taken",
                         .snapshots_rejected = "fleet.snapshots_rejected",
                         .restores_warm = "fleet.restores_warm",
                         .restores_cold = "fleet.restores_cold",
                         .gap_items = "fleet.recovery_gap_items",
                         .snapshot_bytes = "fleet.snapshot_bytes",
                         .snapshot_seconds = "fleet.snapshot_seconds",
                         .snapshot_track = "supervisor"});
}

bool ShardSupervisor::process(Shard& shard, const FleetItem& item) {
  // The item keeps this ordinal across every retry, so a poison item keeps
  // accumulating attempts even when a lossy restore rewinds the home.
  const std::uint64_t ordinal = runtime_.processed(item.home) + 1;
  ++shard_items_;
  for (;;) {
    try {
      injector_.on_item(item.home, ordinal, shard_items_);
      // Looked up per attempt: a restart replaces the shard's homes.
      Home* home = shard.find_home(item.home);
      if (!home) return false;  // same drop-don't-crash rule as Shard::process
      runtime_.process(*home, item);
      return true;
    } catch (const std::exception& e) {
      int attempts = ++attempts_[{item.home, ordinal}];
      bool quarantine = attempts >= fleet_->config().max_attempts;
      restart_shard(shard, item, ordinal, quarantine, e.what());
      if (quarantine) {
        // Consume the poison ordinal without applying (or journaling) the
        // item, then move on instead of crash-looping.
        runtime_.consume(item.home, ordinal);
        ++quarantined_;
        if (tm_quarantined_) tm_quarantined_->inc();
        fleet_->note_quarantine({item.home, ordinal, item.ts, e.what()});
        return false;
      }
      // Transient (or not-yet-exhausted) crash: retry the same item against
      // the restored state.
    }
  }
}

void ShardSupervisor::restart_shard(Shard& shard, const FleetItem& crash_item,
                                    std::uint64_t crash_ordinal,
                                    bool quarantining,
                                    const std::string& error) {
  auto t0 = std::chrono::steady_clock::now();
  ++restarts_;
  if (tm_restarts_) tm_restarts_->inc();

  std::vector<Home> rebuilt;
  rebuilt.reserve(specs_.size());
  for (const HomeSpec& spec : specs_) {
    RestoreOptions opts;
    opts.cold = fleet_->config().cold_restart;
    opts.expected_ordinal = runtime_.processed(spec.id);
    opts.now = crash_item.ts;
    RestoreOutcome out;
    Home home = runtime_.restore(spec, opts, out);
    fleet_->note_resume({shard_index_, spec.id, out.warm, out.resume_ordinal,
                         out.lost_items, home.proxy().decision_log().size()});
    rebuilt.push_back(std::move(home));
  }
  shard.adopt_homes(std::move(rebuilt));

  if (tm_restore_seconds_) {
    tm_restore_seconds_->record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  if (sink_ && sink_->trace.enabled()) {
    telemetry::TraceSpan span;
    span.name = quarantining ? "quarantine-restart" : "restart";
    span.category = "fleet.recovery";
    span.start = crash_item.ts;
    span.home = crash_item.home;
    span.track = "supervisor";
    span.args = {{"error", error}};
    sink_->trace.record(std::move(span));
  }
  fleet_->note_restart({shard_index_, crash_item.home, crash_ordinal,
                        crash_item.ts, quarantining, error});
}

}  // namespace fiat::fleet
