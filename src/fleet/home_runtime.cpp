#include "fleet/home_runtime.hpp"

#include <algorithm>
#include <chrono>

#include "core/state_codec.hpp"

namespace fiat::fleet {

void JournalStore::append(HomeId home, std::uint64_t ordinal,
                          const FleetItem& item) {
  std::lock_guard<std::mutex> lock(mu_);
  tails_[home].emplace_back(ordinal, item);
}

std::vector<JournalStore::Entry> JournalStore::tail_after(
    HomeId home, std::uint64_t after) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tails_.find(home);
  if (it == tails_.end()) return {};
  const std::vector<Entry>& tail = it->second;
  // Tails are appended in ascending ordinal order, so the cut is a
  // lower_bound, not a scan.
  auto first = std::lower_bound(
      tail.begin(), tail.end(), after,
      [](const Entry& e, std::uint64_t o) { return e.first <= o; });
  return {first, tail.end()};
}

void JournalStore::truncate_upto(HomeId home, std::uint64_t upto) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tails_.find(home);
  if (it == tails_.end()) return;
  std::vector<Entry>& tail = it->second;
  auto last = std::lower_bound(
      tail.begin(), tail.end(), upto,
      [](const Entry& e, std::uint64_t o) { return e.first <= o; });
  tail.erase(tail.begin(), last);
}

HomeRuntime::HomeRuntime(const core::HumannessVerifier& humanness,
                         SnapshotStore& snapshots, JournalStore& journal,
                         const RevocationLedger& revocations,
                         double snapshot_every, bool journal_on)
    : humanness_(humanness),
      snapshots_(snapshots),
      journal_(journal),
      revocations_(revocations),
      snapshot_every_(snapshot_every),
      journal_on_(journal_on) {}

void HomeRuntime::attach(telemetry::Sink* sink, const MetricNames& names) {
  sink_ = sink;
  snapshot_track_ = names.snapshot_track;
  auto& m = sink->metrics;
  tm_snapshots_ = &m.counter(names.snapshots_taken);
  tm_snapshots_rejected_ = &m.counter(names.snapshots_rejected);
  tm_restores_warm_ = &m.counter(names.restores_warm);
  tm_restores_cold_ = &m.counter(names.restores_cold);
  tm_gap_items_ = &m.counter(names.gap_items);
  tm_snapshot_bytes_ = &m.histogram(names.snapshot_bytes);
  if (names.snapshot_seconds) {
    tm_snapshot_seconds_ =
        &m.histogram(names.snapshot_seconds, telemetry::Domain::kWall);
  }
}

void HomeRuntime::add(HomeId home) { homes_[home] = State{}; }

void HomeRuntime::forget(HomeId home) { homes_.erase(home); }

std::uint64_t HomeRuntime::processed(HomeId home) const {
  auto it = homes_.find(home);
  return it == homes_.end() ? 0 : it->second.processed;
}

void HomeRuntime::process(Home& home, const FleetItem& item) {
  apply_item(home, item);
  State& st = homes_[item.home];
  ++st.processed;
  if (journal_on_) journal_.append(item.home, st.processed, item);
  if (snapshot_every_ > 0.0 &&
      item.ts - st.last_snapshot_ts >= snapshot_every_) {
    take_snapshot(home, st, item.ts);
  }
}

void HomeRuntime::consume(HomeId home, std::uint64_t ordinal) {
  homes_[home].processed = ordinal;
}

void HomeRuntime::snapshot(Home& home, double sim_ts) {
  take_snapshot(home, homes_[home.id()], sim_ts);
}

void HomeRuntime::take_snapshot(Home& home, State& st, double sim_ts) {
  auto t0 = std::chrono::steady_clock::now();
  util::Bytes blob = core::encode_proxy_state(home.proxy(), home.id());
  if (tm_snapshot_bytes_) {
    tm_snapshot_bytes_->record(static_cast<double>(blob.size()));
  }
  snapshots_.put(home.id(), st.processed, sim_ts, std::move(blob));
  // The newest generation covers the journal so far. Older retained
  // generations deliberately reach back BEFORE this truncation point — a
  // fallback to them surfaces the gap as genuinely lost items.
  journal_.truncate_upto(home.id(), st.processed);
  st.last_snapshot_ts = sim_ts;
  if (tm_snapshots_) tm_snapshots_->inc();
  if (tm_snapshot_seconds_) {
    tm_snapshot_seconds_->record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  if (snapshot_track_ && sink_->trace.enabled()) {
    telemetry::TraceSpan span;
    span.name = "snapshot";
    span.category = "fleet.recovery";
    span.start = sim_ts;
    span.home = home.id();
    span.track = snapshot_track_;
    sink_->trace.record(std::move(span));
  }
}

Home HomeRuntime::restore(const HomeSpec& spec, const RestoreOptions& opts,
                          RestoreOutcome& out) {
  out = RestoreOutcome{};
  Home home(spec, humanness_);
  std::uint64_t reach = 0;
  if (!opts.cold) {
    for (const SnapshotStore::Record& rec : snapshots_.history(spec.id)) {
      ++out.generations_tried;
      if (core::decode_proxy_state(home.proxy(), rec.blob, spec.id) ==
          core::CodecStatus::kOk) {
        out.warm = true;
        reach = rec.ordinal;
        break;
      }
      // Rejected generation (corrupt / truncated / skewed / misdirected):
      // the decode may have half-mutated the proxy, so rebuild and try the
      // next-older generation — the functional payoff of retention > 1.
      home = Home(spec, humanness_);
    }
  }

  // Size the hole BEFORE deciding on bootstrap forcing: items processed
  // before the restore that neither the snapshot nor the journal can
  // reproduce (a restore before the first snapshot with journaling on is
  // fully covered — ordinal 1 onward).
  std::vector<JournalStore::Entry> tail;
  if (journal_on_ && !opts.cold) tail = journal_.tail_after(spec.id, reach);
  std::uint64_t holes = 0;
  for (const auto& [ord, item] : tail) {
    holes += ord - reach - 1;
    reach = ord;
  }
  out.lost_items =
      (opts.expected_ordinal > reach ? opts.expected_ordinal - reach : 0) +
      holes;

  if (!out.warm && out.lost_items > 0 &&
      spec.proxy.degraded_policy == core::FailPolicy::kFailClosed) {
    // Lossy cold restore under fail-closed: re-running bootstrap on attack-
    // reachable traffic would re-open the allow-all learning window, so the
    // rebuilt proxy starts strict (the cost — transient lockouts — is what
    // bench_recovery quantifies). When the journal covers the full gap the
    // replay reconstructs bootstrap state exactly, so forcing would
    // needlessly diverge from the uninterrupted run.
    home.proxy().force_bootstrap_elapsed(opts.now);
    out.forced_bootstrap = true;
  }

  for (const auto& [ord, item] : tail) apply_item(home, item);

  // Revocation is never forgotten: re-drive every ledger-recorded revocation
  // for this home. CredentialRegistry::apply(kRevoke) is idempotent (kNoop
  // when the journal already covered it), and decisive when the revoke item
  // fell in a recovery gap or the restore is cold.
  for (const RevocationLedger::Entry& rev : revocations_.for_home(spec.id)) {
    crypto::LifecycleCommand cmd;
    cmd.op = crypto::LifecycleCommand::Op::kRevoke;
    cmd.effective_ts = rev.effective_ts;
    home.proxy().on_lifecycle(rev.client_id, cmd, opts.now);
  }
  out.resume_ordinal = reach;

  std::size_t rejected = out.generations_tried - (out.warm ? 1 : 0);
  if (tm_snapshots_rejected_ && rejected > 0) {
    tm_snapshots_rejected_->inc(rejected);
  }
  if (auto* c = out.warm ? tm_restores_warm_ : tm_restores_cold_) c->inc();
  if (tm_gap_items_ && out.lost_items > 0) tm_gap_items_->inc(out.lost_items);

  homes_.try_emplace(spec.id, State{0, opts.now}).first->second.processed =
      reach;
  return home;
}

}  // namespace fiat::fleet
