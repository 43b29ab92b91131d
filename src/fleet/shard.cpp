#include "fleet/shard.hpp"

#include <algorithm>
#include <chrono>

#include "fleet/home_runtime.hpp"
#include "fleet/signal_probe.hpp"
#include "fleet/supervisor.hpp"
#include "util/error.hpp"

namespace fiat::fleet {

Shard::Shard(std::vector<Home> homes, std::size_t queue_capacity, FullPolicy policy,
             std::size_t trace_capacity, ShardSupervisor* supervisor)
    : homes_(std::move(homes)),
      queue_(queue_capacity, policy),
      sink_(trace_capacity),
      supervisor_(supervisor) {
  home_ids_.reserve(homes_.size());
  for (const Home& home : homes_) home_ids_.push_back(home.id());
  if (!std::is_sorted(home_ids_.begin(), home_ids_.end())) {
    throw LogicError("Shard: homes must be sorted by id");
  }
  // The sink is worker-owned once start() runs; wiring happens here, before
  // the thread exists. Queue wait and batch size measure the host, not the
  // simulation — Domain::kWall keeps them out of deterministic exports.
  queue_.enable_wait_tracking();
  tm_queue_wait_ = &sink_.metrics.histogram("fleet.queue_wait_seconds",
                                            telemetry::Domain::kWall);
  tm_batch_items_ =
      &sink_.metrics.histogram("fleet.batch_items", telemetry::Domain::kWall);
  for (Home& home : homes_) home.proxy().set_telemetry(&sink_, home.id());
  if (supervisor_) supervisor_->attach(&sink_);
}

Shard::~Shard() {
  if (worker_.joinable()) {
    queue_.close();
    discard_.store(true, std::memory_order_relaxed);
    worker_.join();
  }
}

Home* Shard::find_home(HomeId id) {
  auto it = std::lower_bound(home_ids_.begin(), home_ids_.end(), id);
  if (it == home_ids_.end() || *it != id) return nullptr;
  return &homes_[static_cast<std::size_t>(it - home_ids_.begin())];
}

void Shard::start() {
  if (started_) throw LogicError("Shard: started twice");
  started_ = true;
  worker_ = std::thread([this] { run(); });
}

void Shard::stop(bool drain) {
  if (!drain) discard_.store(true, std::memory_order_relaxed);
  queue_.close();
  if (worker_.joinable()) worker_.join();
  stopped_ = true;
}

void Shard::adopt_homes(std::vector<Home> homes) {
  if (homes.size() != home_ids_.size()) {
    throw LogicError("Shard: adopt_homes home-count mismatch");
  }
  for (std::size_t i = 0; i < homes.size(); ++i) {
    if (homes[i].id() != home_ids_[i]) {
      throw LogicError("Shard: adopt_homes home-id mismatch");
    }
  }
  homes_ = std::move(homes);
  for (Home& home : homes_) home.proxy().set_telemetry(&sink_, home.id());
}

void Shard::require_quiescent(const char* op) const {
  if (started_ && !stopped_) {
    throw LogicError(std::string("Shard: ") + op +
                     " while the worker is running reads torn state; stop() "
                     "the shard first");
  }
}

void Shard::process(const FleetItem& item) {
  Home* home = find_home(item.home);
  if (!home) return;  // router bug or stale id; dropping beats crashing a shard
  apply_item(*home, item);
  count(item);
}

void Shard::count(const FleetItem& item) {
  if (item.kind == FleetItem::Kind::kPacket) {
    ++packets_;
  } else if (item.kind == FleetItem::Kind::kProof) {
    ++proofs_;
  }
}

void Shard::process_batch(std::span<const FleetItem> items) {
  // Group per home. Grow-only slot reuse keeps the index vectors' capacity.
  std::size_t groups_used = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    HomeGroup* group = nullptr;
    for (std::size_t g = 0; g < groups_used; ++g) {
      if (batch_groups_[g].home == items[i].home) {
        group = &batch_groups_[g];
        break;
      }
    }
    if (!group) {
      if (groups_used == batch_groups_.size()) batch_groups_.emplace_back();
      group = &batch_groups_[groups_used++];
      group->home = items[i].home;
      group->idx.clear();
    }
    group->idx.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t g = 0; g < groups_used; ++g) {
    const HomeGroup& group = batch_groups_[g];
    Home* home = find_home(group.home);
    if (!home) continue;  // same drop-don't-crash rule as process()
    core::FiatProxy& proxy = home->proxy();
    batch_pkts_.clear();
    batch_labels_.clear();
    auto flush = [&] {
      if (batch_pkts_.empty()) return;
      proxy.process_batch(batch_pkts_, batch_labels_);
      batch_pkts_.clear();
      batch_labels_.clear();
    };
    for (std::uint32_t i : group.idx) {
      const FleetItem& item = items[i];
      if (item.kind == FleetItem::Kind::kPacket) {
        batch_pkts_.push_back(item.pkt);
        batch_labels_.push_back(item.attack);
        ++packets_;
      } else if (item.kind == FleetItem::Kind::kProof) {
        // Proofs interact with every open event, so they fence packet runs.
        flush();
        proxy.on_auth_payload(item.client_id, item.payload, item.ts,
                              item.attack);
        ++proofs_;
      } else {
        // Lifecycle commands change which keys verify, so they fence too.
        flush();
        proxy.on_lifecycle(item.client_id, item.lifecycle_cmd, item.ts);
      }
    }
    flush();
  }
}

void Shard::run() {
  std::vector<FleetItem> batch;
  std::vector<double> waits;
  // Supervised shards stay per-item: the crash/retry bracket and the
  // journal wrap one item at a time.
  const bool batched = batch_enabled_ && !supervisor_;
  while (queue_.pop_wait(batch, &waits)) {
    auto t0 = std::chrono::steady_clock::now();
    tm_batch_items_->record(static_cast<double>(batch.size()));
    for (double wait : waits) tm_queue_wait_->record(wait);
    if (batched && !discard_.load(std::memory_order_relaxed)) {
      process_batch(batch);
    } else {
      for (const FleetItem& item : batch) {
        if (discard_.load(std::memory_order_relaxed)) {
          ++discarded_;
          continue;
        }
        if (!supervisor_) {
          process(item);
        } else if (supervisor_->process(*this, item)) {
          count(item);
        }
      }
    }
    busy_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    batch.clear();
    waits.clear();
  }
}

ShardStats Shard::stats() const {
  require_quiescent("stats()");
  ShardStats s;
  s.homes = homes_.size();
  s.packets = packets_;
  s.proofs = proofs_;
  s.discarded = discarded_;
  s.busy_seconds = busy_seconds_;
  if (supervisor_) {
    s.restarts = supervisor_->restarts();
    s.quarantined = supervisor_->quarantined_count();
  }
  auto q = queue_.stats();
  s.queue_pushed = q.pushed;
  s.queue_high_water = q.high_water;
  s.queue_shed = q.shed;
  s.queue_shed_on_close = q.shed_on_close;
  core::AttackLedger ledger = attack_ledger();
  s.attack_injected = ledger.injected() + ledger.proofs_injected();
  s.attack_blocked = ledger.commands_blocked();
  s.attack_completed = ledger.commands_completed();
  for (const Home& home : homes_) {
    const crypto::CredentialRegistry& creds = home.proxy().credentials();
    s.enrolled += creds.enrollments_completed();
    s.rotated += creds.rotations_completed();
    s.revoked += creds.revocations_applied();
  }
  return s;
}

std::size_t Shard::lifecycle_rejected_proofs() const {
  require_quiescent("lifecycle_rejected_proofs()");
  std::size_t n = 0;
  for (const Home& home : homes_) n += home.proxy().proofs_rejected_lifecycle();
  return n;
}

core::AttackLedger Shard::attack_ledger() const {
  require_quiescent("attack_ledger()");
  core::AttackLedger ledger;
  for (const Home& home : homes_) ledger.merge(home.proxy().attack_ledger());
  return ledger;
}

telemetry::SignalSet Shard::signals() {
  require_quiescent("signals()");
  telemetry::SignalSet out;
  for (Home& home : homes_) {
    home.proxy().flush_events();  // idempotent alongside report()'s flush
    out.add(derive_home_signals(home.id(), home.proxy()));
  }
  return out;
}

}  // namespace fiat::fleet
