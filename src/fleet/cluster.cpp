#include "fleet/cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "fleet/signal_probe.hpp"
#include "util/error.hpp"

namespace fiat::fleet {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
}  // namespace

// ---- ClusterNode ------------------------------------------------------------

ClusterNode::ClusterNode(NodeId id, const ClusterConfig& config,
                         const std::vector<HomeSpec>& specs,
                         const core::HumannessVerifier& humanness,
                         SnapshotStore& snapshots, JournalStore& journal,
                         const RevocationLedger& revocations)
    : id_(id),
      config_(config),
      specs_(specs),
      runtime_(humanness, snapshots, journal, revocations,
               config.snapshot_every, config.journal),
      queue_(config.queue_capacity, config.on_full),
      sink_(config.trace_capacity) {
  // Wired before the thread exists; worker-owned afterwards (Shard's rule).
  auto& m = sink_.metrics;
  tm_installs_ = &m.counter("fleet.cluster.installs");
  tm_cuts_ = &m.counter("fleet.cluster.cuts");
  tm_installs_aborted_ = &m.counter("fleet.cluster.installs_aborted");
  runtime_.attach(&sink_,
                  {.snapshots_taken = "fleet.cluster.snapshots_taken",
                   .snapshots_rejected = "fleet.cluster.snapshots_rejected",
                   .restores_warm = "fleet.cluster.restores_warm",
                   .restores_cold = "fleet.cluster.restores_cold",
                   .gap_items = "fleet.cluster.gap_items",
                   .snapshot_bytes = "fleet.cluster.snapshot_bytes"});
  tm_handoff_seconds_ =
      &m.histogram("fleet.cluster.handoff_seconds", telemetry::Domain::kWall);
}

ClusterNode::~ClusterNode() {
  if (worker_.joinable()) {
    discard_.store(true, std::memory_order_relaxed);
    queue_.close();
    worker_.join();
  }
}

void ClusterNode::add_home(Home home) {
  if (started_) throw LogicError("ClusterNode: add_home after start");
  HomeId id = home.id();
  home.proxy().set_telemetry(&sink_, id);
  runtime_.add(id);
  homes_.emplace(id, std::move(home));
}

void ClusterNode::start() {
  if (started_) throw LogicError("ClusterNode: started twice");
  started_ = true;
  worker_ = std::thread([this] { run(); });
}

void ClusterNode::stop(bool drain) {
  if (!drain) discard_.store(true, std::memory_order_relaxed);
  queue_.close();
  if (worker_.joinable()) worker_.join();
  stopped_ = true;
}

void ClusterNode::require_quiescent(const char* op) const {
  if (started_ && !stopped_) {
    throw LogicError(std::string("ClusterNode: ") + op +
                     " while the worker is running reads torn state");
  }
}

telemetry::Sink& ClusterNode::telemetry() {
  require_quiescent("telemetry()");
  return sink_;
}

const telemetry::Sink& ClusterNode::telemetry() const {
  require_quiescent("telemetry()");
  return sink_;
}

const HomeSpec& ClusterNode::spec_of(HomeId home) const {
  auto it = std::lower_bound(
      specs_.begin(), specs_.end(), home,
      [](const HomeSpec& s, HomeId id) { return s.id < id; });
  if (it == specs_.end() || it->id != home) {
    throw LogicError("ClusterNode: control message for unknown home");
  }
  return *it;
}

void ClusterNode::run() {
  std::vector<NodeMsg> batch;
  while (queue_.pop_wait(batch)) {
    auto t0 = std::chrono::steady_clock::now();
    for (NodeMsg& msg : batch) {
      if (discard_.load(std::memory_order_relaxed)) {
        // Abort: skip everything. Cuts are never completed here — the
        // controller abandoned every outstanding handoff before closing the
        // queues, so no destination is left waiting.
        if (msg.kind == NodeMsg::Kind::kItem) ++discarded_;
        continue;
      }
      handle(msg);
    }
    busy_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    batch.clear();
  }
}

void ClusterNode::handle(NodeMsg& msg) {
  switch (msg.kind) {
    case NodeMsg::Kind::kItem:
      process_item(msg.item);
      break;
    case NodeMsg::Kind::kCut:
      do_cut(msg);
      break;
    case NodeMsg::Kind::kInstall:
      do_install(msg);
      break;
    case NodeMsg::Kind::kRestore:
      do_restore(msg);
      break;
  }
}

void ClusterNode::process_item(const FleetItem& item) {
  auto it = homes_.find(item.home);
  if (it == homes_.end()) return;  // routing bug; dropping beats crashing
  runtime_.process(it->second, item);
  if (item.kind == FleetItem::Kind::kPacket) {
    ++packets_;
  } else if (item.kind == FleetItem::Kind::kProof) {
    ++proofs_;
  }
}

void ClusterNode::do_cut(NodeMsg& msg) {
  auto it = homes_.find(msg.home);
  if (it == homes_.end()) {
    // The home already left this node (defensive; the controller never
    // double-cuts). Abandon so the destination does not wait forever.
    msg.handoff->abandon();
    return;
  }
  // With journaling the durable snapshot + journal tail already cover every
  // processed item, so the cut is just an ordinal watermark. Without it the
  // cut must seal the state itself: a fresh snapshot at exactly this
  // ordinal, making clean migrations lossless in both modes.
  if (!config_.journal) runtime_.snapshot(it->second, msg.now);
  msg.handoff->complete(runtime_.processed(msg.home), msg.now);
  homes_.erase(it);
  runtime_.forget(msg.home);
  ++migrations_out_;
  tm_cuts_->inc();
}

void ClusterNode::place(HomeId id, const RestoreOptions& opts) {
  RestoreOutcome out;
  Home home = runtime_.restore(spec_of(id), opts, out);
  home.proxy().set_telemetry(&sink_, id);
  homes_.insert_or_assign(id, std::move(home));
}

void ClusterNode::do_install(NodeMsg& msg) {
  Handoff::Cut cut = msg.handoff->wait();
  if (!cut.ok) {
    tm_installs_aborted_->inc();
    return;
  }
  RestoreOptions opts;
  opts.expected_ordinal = cut.ordinal;
  opts.now = cut.sim_ts;
  place(msg.home, opts);
  tm_handoff_seconds_->record(msg.handoff->age_seconds());
  ++migrations_in_;
  tm_installs_->inc();
}

void ClusterNode::do_restore(NodeMsg& msg) {
  // Even a cold failover re-drives the revocation ledger — no restore path
  // can resurrect a revoked key.
  RestoreOptions opts;
  opts.cold = config_.cold_failover;
  opts.expected_ordinal = msg.expected_ordinal;
  opts.now = msg.now;
  place(msg.home, opts);
}

ShardStats ClusterNode::stats() const {
  require_quiescent("stats()");
  ShardStats s;
  s.homes = homes_.size();
  s.packets = packets_;
  s.proofs = proofs_;
  s.discarded = discarded_;
  s.migrations_in = migrations_in_;
  s.migrations_out = migrations_out_;
  s.busy_seconds = busy_seconds_;
  auto q = queue_.stats();
  s.queue_pushed = q.pushed;
  s.queue_high_water = q.high_water;
  s.queue_shed = q.shed;
  s.queue_shed_on_close = q.shed_on_close;
  core::AttackLedger ledger;
  for (const auto& [id, home] : homes_) ledger.merge(home.proxy().attack_ledger());
  s.attack_injected = ledger.injected() + ledger.proofs_injected();
  s.attack_blocked = ledger.commands_blocked();
  s.attack_completed = ledger.commands_completed();
  for (const auto& [id, home] : homes_) {
    const crypto::CredentialRegistry& creds = home.proxy().credentials();
    s.enrolled += creds.enrollments_completed();
    s.rotated += creds.rotations_completed();
    s.revoked += creds.revocations_applied();
  }
  return s;
}

std::size_t ClusterNode::lifecycle_rejected_proofs() const {
  require_quiescent("lifecycle_rejected_proofs()");
  std::size_t n = 0;
  for (const auto& [id, home] : homes_) {
    n += home.proxy().proofs_rejected_lifecycle();
  }
  return n;
}

telemetry::SignalSet ClusterNode::signals() {
  require_quiescent("signals()");
  telemetry::SignalSet out;
  for (auto& [id, home] : homes_) {
    home.proxy().flush_events();  // idempotent alongside report()'s flush
    out.add(derive_home_signals(id, home.proxy()));
  }
  return out;
}

// ---- ClusterEngine ----------------------------------------------------------

ClusterEngine::ClusterEngine(std::vector<HomeSpec> homes,
                             const core::HumannessVerifier& humanness,
                             ClusterConfig config)
    : config_(std::move(config)),
      humanness_(humanness),
      snapshots_(config_.snapshot_retention),
      controller_sink_(0) {
  if (config_.nodes == 0) throw LogicError("ClusterEngine: zero nodes");
  if (config_.ingest_batch == 0) config_.ingest_batch = 1;
  if (config_.ingest_batch > config_.queue_capacity) {
    config_.ingest_batch = config_.queue_capacity;
  }
  if (config_.fault.active() &&
      config_.fault.node >= static_cast<NodeId>(config_.nodes)) {
    throw LogicError("ClusterEngine: fault plan kills a node that does not exist");
  }

  std::sort(homes.begin(), homes.end(),
            [](const HomeSpec& a, const HomeSpec& b) { return a.id < b.id; });
  for (std::size_t i = 1; i < homes.size(); ++i) {
    if (homes[i].id == homes[i - 1].id) {
      throw LogicError("ClusterEngine: duplicate home id");
    }
  }
  specs_ = std::move(homes);
  home_ids_.reserve(specs_.size());
  for (const HomeSpec& spec : specs_) home_ids_.push_back(spec.id);
  routed_.assign(specs_.size(), 0);
  black_holed_.assign(specs_.size(), 0);
  home_load_.assign(specs_.size(), 0);
  node_load_.assign(config_.nodes, 0);
  node_dead_.assign(config_.nodes, false);
  pending_.resize(config_.nodes);

  std::vector<NodeId> ids(config_.nodes);
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    ids[i] = static_cast<NodeId>(i);
  }
  placement_ = PlacementTable(ids);

  nodes_.reserve(config_.nodes);
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(std::make_unique<ClusterNode>(
        static_cast<NodeId>(i), config_, specs_, humanness_, snapshots_,
        journal_, revocations_));
  }
  // Homes are constructed spec-by-spec in id order, so a home's initial
  // state never depends on the node count.
  for (const HomeSpec& spec : specs_) {
    nodes_[placement_.owner_of(spec.id)]->add_home(Home(spec, humanness_));
  }

  planned_ = config_.migrations;
  std::stable_sort(planned_.begin(), planned_.end(),
                   [](const ClusterConfig::PlannedMigration& a,
                      const ClusterConfig::PlannedMigration& b) {
                     return a.at_time < b.at_time;
                   });
  for (const auto& plan : planned_) {
    if (plan.to >= static_cast<NodeId>(config_.nodes)) {
      throw LogicError("ClusterEngine: planned migration to unknown node");
    }
    if (index_of(plan.home) == kNpos) {
      throw LogicError("ClusterEngine: planned migration of unknown home");
    }
  }

  auto& m = controller_sink_.metrics;
  tm_migrations_ = &m.counter("fleet.cluster.migrations");
  tm_failovers_ = &m.counter("fleet.cluster.node_failovers");
  tm_homes_replaced_ = &m.counter("fleet.cluster.homes_replaced");
  tm_black_holed_ = &m.counter("fleet.cluster.items_black_holed");
}

std::size_t ClusterEngine::index_of(HomeId home) const {
  auto it = std::lower_bound(home_ids_.begin(), home_ids_.end(), home);
  if (it == home_ids_.end() || *it != home) return kNpos;
  return static_cast<std::size_t>(it - home_ids_.begin());
}

void ClusterEngine::start() {
  if (started_) throw LogicError("ClusterEngine: started twice");
  started_ = true;
  start_time_ = std::chrono::steady_clock::now();
  for (auto& node : nodes_) node->start();
}

void ClusterEngine::flush_node(NodeId node) {
  std::vector<NodeMsg>& buf = pending_[node];
  if (buf.empty()) return;
  BoundedQueue<NodeMsg>& queue = nodes_[node]->queue();
  // Items may shed under kShed — that is load shedding. Control messages are
  // protocol, not load: a shed cut would park its install in wait() forever
  // and a shed install would lose the home outright, so they retry until the
  // consumer makes room (or the queue closed, i.e. the run is aborting and
  // every handoff gets abandoned).
  scratch_.clear();
  auto flush_items = [&] {
    if (!scratch_.empty()) queue.push_batch(scratch_);  // clears scratch_
  };
  for (NodeMsg& msg : buf) {
    if (msg.kind == NodeMsg::Kind::kItem) {
      scratch_.push_back(std::move(msg));
      continue;
    }
    flush_items();
    while (!queue.push(msg)) {
      if (queue.closed()) break;
      std::this_thread::yield();
    }
  }
  flush_items();
  buf.clear();
}

void ClusterEngine::flush_all() {
  for (std::size_t n = 0; n < pending_.size(); ++n) {
    flush_node(static_cast<NodeId>(n));
  }
}

bool ClusterEngine::migrate(HomeId home, NodeId to, double ts, bool planned) {
  NodeId from = placement_.owner_of(home);
  if (from == to || node_dead_[from] || node_dead_[to]) return false;

  auto handoff = std::make_shared<Handoff>();
  handoffs_.push_back(handoff);

  NodeMsg cut;
  cut.kind = NodeMsg::Kind::kCut;
  cut.home = home;
  cut.now = ts;
  cut.handoff = handoff;
  pending_[from].push_back(std::move(cut));

  NodeMsg install;
  install.kind = NodeMsg::Kind::kInstall;
  install.home = home;
  install.now = ts;
  install.handoff = handoff;
  pending_[to].push_back(std::move(install));

  // The pin: route post-flip items to the destination. When the destination
  // happens to be the rendezvous owner the pin is redundant — drop it so the
  // override table only holds real exceptions.
  if (to == placement_.natural_owner(home)) {
    placement_.clear_override(home);
  } else {
    placement_.set_override(home, to);
  }
  migrations_.push_back({home, from, to, ts, planned});
  tm_migrations_->inc();
  // Flush both sides NOW, cut first. A cut parked in the controller's buffer
  // while the destination already blocks in wait() is a deadlock under
  // kBlock (the destination queue fills, push_batch stalls, the cut never
  // ships). Flushing at decision time ensures every handoff's cut is in its
  // source queue before any later-decided install, so the earliest-decided
  // migration can always complete (induction over decision order).
  flush_node(from);
  flush_node(to);
  return true;
}

void ClusterEngine::maybe_rebalance(double ts) {
  if (config_.rebalance_every <= 0.0) return;
  if (ts - last_rebalance_ts_ < config_.rebalance_every) return;
  last_rebalance_ts_ = ts;

  std::uint64_t total = 0;
  std::size_t alive = 0;
  NodeId hottest = 0;
  std::uint64_t hottest_load = 0;
  NodeId coolest = 0;
  std::uint64_t coolest_load = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t n = 0; n < node_load_.size(); ++n) {
    if (node_dead_[n]) continue;
    ++alive;
    total += node_load_[n];
    // Strict > / <: ties break to the lowest node id, deterministically.
    if (node_load_[n] > hottest_load) {
      hottest = static_cast<NodeId>(n);
      hottest_load = node_load_[n];
    }
    if (node_load_[n] < coolest_load) {
      coolest = static_cast<NodeId>(n);
      coolest_load = node_load_[n];
    }
  }
  if (alive < 2 || hottest_load == 0 || hottest == coolest) return;
  double mean = static_cast<double>(total) / static_cast<double>(alive);
  if (static_cast<double>(hottest_load) <= config_.rebalance_ratio * mean) {
    std::fill(home_load_.begin(), home_load_.end(), 0);
    std::fill(node_load_.begin(), node_load_.end(), 0);
    return;
  }

  // Hottest homes currently routed to the hot node, by since-last-scan load
  // (ties -> lower home id). All counters are ingest-order facts, so the
  // pick is identical across runs.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (home_load_[i] > 0 && placement_.owner_of(specs_[i].id) == hottest) {
      candidates.push_back(i);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](std::size_t a, std::size_t b) {
                     return home_load_[a] > home_load_[b];
                   });
  std::size_t moved = 0;
  for (std::size_t idx : candidates) {
    if (moved >= config_.rebalance_top) break;
    if (migrate(specs_[idx].id, coolest, ts, /*planned=*/false)) ++moved;
  }
  std::fill(home_load_.begin(), home_load_.end(), 0);
  std::fill(node_load_.begin(), node_load_.end(), 0);
}

void ClusterEngine::on_time(double ts) {
  const sim::NodeFaultPlan& fault = config_.fault;
  if (fault.active() && !killed_ && ts >= fault.at_time) {
    killed_ = true;
    node_dead_[fault.node] = true;
  }
  if (killed_ && !failed_over_ &&
      ts >= fault.at_time + fault.detect_after) {
    run_failover(fault.at_time + fault.detect_after);
  }
  while (next_planned_ < planned_.size() &&
         planned_[next_planned_].at_time <= ts) {
    const auto& plan = planned_[next_planned_++];
    migrate(plan.home, plan.to, ts, /*planned=*/true);
  }
  maybe_rebalance(ts);
}

void ClusterEngine::run_failover(double detected_ts) {
  NodeId dead = config_.fault.node;
  // Deliver every buffered message first: pre-kill items of the dead node
  // count as processed (they were routed before the kill), and cuts destined
  // for other nodes must be reachable or a blocked install would deadlock
  // the join below.
  flush_all();
  // Drain + join the corpse. After this, every item it accepted is journaled
  // and its in-memory state is dead weight — failover restores exclusively
  // from the durable stores.
  nodes_[dead]->stop(/*drain=*/true);

  std::vector<HomeId> victims;
  for (const HomeSpec& spec : specs_) {
    if (placement_.owner_of(spec.id) == dead) victims.push_back(spec.id);
  }
  placement_.remove_node(dead);

  for (HomeId home : victims) {
    NodeId to = placement_.owner_of(home);
    NodeMsg msg;
    msg.kind = NodeMsg::Kind::kRestore;
    msg.home = home;
    msg.now = detected_ts;
    msg.expected_ordinal = routed_[index_of(home)];
    pending_[to].push_back(std::move(msg));
    tm_homes_replaced_->inc();
  }
  failovers_.push_back({dead, config_.fault.at_time, detected_ts,
                        victims.size(), black_holed_total_});
  tm_failovers_->inc();
  failed_over_ = true;
}

bool ClusterEngine::ingest(FleetItem item) {
  if (!started_ || stopped_) {
    throw LogicError("ClusterEngine: ingest on a non-running engine");
  }
  if (item.kind == FleetItem::Kind::kPacket) {
    ++offered_packets_;
  } else {
    ++offered_proofs_;
  }
  // Record revocations BEFORE routing (and before the black-hole check): a
  // revocation addressed to a dead node must still take fleet-wide effect —
  // the failover restore re-applies it from this ledger.
  if (item.kind == FleetItem::Kind::kLifecycle &&
      item.lifecycle_cmd.op == crypto::LifecycleCommand::Op::kRevoke) {
    revocations_.record(item.home, item.client_id,
                        item.lifecycle_cmd.effective_ts);
  }
  on_time(item.ts);
  std::size_t idx = index_of(item.home);
  if (idx == kNpos) return false;

  NodeId owner = placement_.owner_of(item.home);
  if (node_dead_[owner]) {
    // Kill .. detection window: the fleet routes into a corpse. These items
    // are the failover exposure bench_cluster measures.
    ++black_holed_[idx];
    ++black_holed_total_;
    tm_black_holed_->inc();
    return true;
  }
  ++routed_[idx];
  ++home_load_[idx];
  ++node_load_[owner];
  NodeMsg msg;
  msg.kind = NodeMsg::Kind::kItem;
  msg.item = std::move(item);
  pending_[owner].push_back(std::move(msg));
  if (pending_[owner].size() >= config_.ingest_batch) flush_node(owner);
  return true;
}

void ClusterEngine::drain() {
  if (stopped_) return;
  // A kill whose detection window outlived the trace still fails over — the
  // homes must end the run placed on live nodes.
  if (killed_ && !failed_over_) {
    run_failover(config_.fault.at_time + config_.fault.detect_after);
  }
  flush_all();
  for (auto& node : nodes_) node->stop(/*drain=*/true);
  wall_seconds_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_time_)
                      .count();
  stopped_ = true;
}

void ClusterEngine::abort() {
  if (stopped_) return;
  // Wake any destination parked on a cut that will never complete; only then
  // is a discard-stop deadlock-free.
  for (auto& handoff : handoffs_) handoff->abandon();
  for (auto& node : nodes_) node->stop(/*drain=*/false);
  wall_seconds_ = started_ ? std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start_time_)
                                 .count()
                           : 0.0;
  stopped_ = true;
}

void ClusterEngine::require_stopped(const char* op) const {
  if (started_ && !stopped_) {
    throw LogicError(std::string("ClusterEngine: ") + op +
                     " requires a stopped engine");
  }
}

FleetStats ClusterEngine::stats() const {
  require_stopped("stats()");
  FleetStats out;
  out.row_label = "node";
  out.homes = specs_.size();
  out.packets_in = offered_packets_;
  out.proofs_in = offered_proofs_;
  out.wall_seconds = wall_seconds_;
  out.migrations = migrations_.size();
  out.node_failovers = failovers_.size();
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    ShardStats s = nodes_[n]->stats();
    out.packets_out += s.packets;
    out.proofs_out += s.proofs;
    out.shed += s.queue_shed;
    out.shed_on_close += s.queue_shed_on_close;
    out.discarded += s.discarded;
    // A dead node's leftover home copies were re-placed elsewhere; counting
    // their ledgers into the totals would double-grade the replayed items.
    if (!node_dead_[n]) {
      out.attack_injected += s.attack_injected;
      out.attack_blocked += s.attack_blocked;
      out.attack_completed += s.attack_completed;
      out.lifecycle_enrolled += s.enrolled;
      out.lifecycle_rotated += s.rotated;
      out.lifecycle_revoked += s.revoked;
      out.lifecycle_rejected_proofs += nodes_[n]->lifecycle_rejected_proofs();
    }
    out.shards.push_back(s);
  }
  telemetry::MetricsRegistry merged;
  for (const auto& node : nodes_) merged.merge_from(node->telemetry().metrics);
  if (const auto* h = merged.find_histogram("fleet.cluster.handoff_seconds")) {
    out.handoff_p95_seconds = h->quantile(0.95);
  }
  return out;
}

FleetReport ClusterEngine::report() {
  require_stopped("report()");
  FleetReport out;
  out.stats = stats();
  out.homes.reserve(specs_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    // A dead node's homes were re-placed; its leftover in-memory copies are
    // not part of the fleet anymore.
    if (node_dead_[n]) continue;
    for (auto& [id, home] : nodes_[n]->homes()) {
      home.proxy().flush_events();
      FleetReport::HomeEntry entry;
      entry.home = id;
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

telemetry::SignalSet ClusterEngine::signals() {
  require_stopped("signals()");
  telemetry::SignalSet out;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    // A dead node's leftover home copies were re-placed; fingerprinting them
    // would shadow the restored (authoritative) copies.
    if (node_dead_[n]) continue;
    out.merge_from(nodes_[n]->signals());
  }
  return out;
}

void ClusterEngine::annotate_stats(FleetStats& stats,
                                   const CorrelationReport& report) const {
  require_stopped("annotate_stats()");
  for (std::size_t n = 0; n < nodes_.size() && n < stats.shards.size(); ++n) {
    if (node_dead_[n]) continue;
    for (const auto& [id, home] : nodes_[n]->homes()) {
      if (report.flagged(id)) ++stats.shards[n].flagged;
    }
  }
  stats.flagged_homes = report.flagged_homes();
  stats.correlation_shared_signatures = report.shared_signatures;
  stats.correlation_flood_sources = report.flood_sources;
  stats.correlation_cohorts = report.cohorts;
}

telemetry::MetricsRegistry ClusterEngine::merged_metrics() const {
  require_stopped("merged_metrics()");
  telemetry::MetricsRegistry merged;
  // Node order then controller: fixed merge order keeps accumulated sums
  // deterministic.
  for (const auto& node : nodes_) merged.merge_from(node->telemetry().metrics);
  merged.merge_from(controller_sink_.metrics);
  merged.counter("fleet.packets_in").inc(offered_packets_);
  merged.counter("fleet.proofs_in").inc(offered_proofs_);
  std::uint64_t trace_dropped = 0;
  for (const auto& node : nodes_) {
    trace_dropped += node->telemetry().trace.dropped();
  }
  merged.counter("fleet.trace_spans_dropped").inc(trace_dropped);
  merged.gauge("fleet.wall_seconds", telemetry::Domain::kWall)
      .set(wall_seconds_);
  return merged;
}

std::vector<telemetry::TraceSpan> ClusterEngine::merged_trace() const {
  require_stopped("merged_trace()");
  std::vector<const telemetry::TraceBuffer*> buffers;
  buffers.reserve(nodes_.size());
  for (const auto& node : nodes_) buffers.push_back(&node->telemetry().trace);
  return telemetry::merge_ordered(buffers);
}

std::string ClusterEngine::render_control_plane() const {
  require_stopped("render_control_plane()");
  char line[224];
  std::size_t planned = 0;
  for (const MigrationRecord& rec : migrations_) planned += rec.planned ? 1 : 0;
  std::snprintf(line, sizeof(line),
                "cluster: %zu nodes, %zu migrations (%zu planned, %zu "
                "rebalance), %zu failovers, %llu items black-holed\n",
                nodes_.size(), migrations_.size(), planned,
                migrations_.size() - planned, failovers_.size(),
                static_cast<unsigned long long>(black_holed_total_));
  std::string out = line;
  for (const FailoverRecord& f : failovers_) {
    std::snprintf(line, sizeof(line),
                  "  failover: node %u killed t=%.3f detected t=%.3f, %zu "
                  "homes re-placed, %llu items black-holed\n",
                  f.node, f.killed_ts, f.detected_ts, f.homes_replaced,
                  static_cast<unsigned long long>(f.items_black_holed));
    out += line;
  }
  return out;
}

}  // namespace fiat::fleet
