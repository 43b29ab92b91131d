// fleetbench — the repository's fleet benchmark driver.
//
// One seeded workload is synthesized with fleet::make_fleet_scenario and run
// through FleetEngine the way a deployment runs it; the public entry points
// of each layer are then timed from outside the program. Three phases:
//
//   engine  closed loop: one producer thread replays the timestamp-ordered
//           merged stream into FleetEngine::ingest (copying each item) as
//           fast as FullPolicy::kBlock backpressure allows. Repeated, and
//           the whole set-up (synthesis, humanness training, engine
//           construction) is repeated too, so set-up time is a median.
//   finish  the operator's outputs from the stopped engine: report(),
//           signals() + correlate(), merged_metrics() + metrics_json().
//           Repeated after every engine rep.
//   replay  unloaded service time: an id-strided subset of homes replayed
//           synchronously, one home's stream at a time as a proxy serving
//           one home sees it, through Shard::process on fresh proxies built
//           by make_home_proxy, one timed call per item. Repeated in
//           identical passes spread between the engine reps.
//
// The host's vCPUs slow down one at a time, by up to ~1.35x for seconds, as
// co-tenants take their cores. Every repeated single-threaded pass (set-up,
// finish, replay) is therefore confined to one CPU in turn, and each figure
// is a median over reps or a per-call minimum over passes, so a slow stretch
// on one CPU touches only a minority of the samples.
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer ledger, record the benchmark's own spans
// (every phase plus a deterministic 1-in-N sample of per-item calls) and
// write them as JSON at exit. Every run checks its outputs and prints a
// verdict digest; any failed check fails the run.
//
// The full result (metrics with units, checks, host and input metadata)
// goes to --report-out as JSON; fleetbench/run.py builds this program, runs
// it and turns that file into the benchmark's result line. Usage:
//   fleetbench --workload fleet-sharded|campaign-recovery
//              --seed N [--seconds S] [--trace 0|1] [--trace-out FILE]
//              [--report-out FILE] [--smoke]
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/humanness.hpp"
#include "core/report.hpp"
#include "core/state_codec.hpp"
#include "crypto/sha256.hpp"
#include "fleet/correlator.hpp"
#include "fleet/engine.hpp"
#include "fleet/fleet_testbed.hpp"
#include "sim/faults.hpp"
#include "telemetry/export.hpp"
#include "util/hex.hpp"
#include "util/json.hpp"

using namespace fiat;
using Clock = std::chrono::steady_clock;
using util::Json;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string report_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fleetbench: %s\nusage: fleetbench --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--trace-out FILE]\n"
               "       [--report-out FILE] [--smoke]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      o.seed_set = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--report-out") {
      o.report_out = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!o.seed_set) usage("--seed is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// ---- workloads ---------------------------------------------------------------

struct Workload {
  fleet::FleetScenarioConfig scenario;
  std::size_t shards = 1;
  bool recovery = false;
  /// Replay homes whose id is a multiple of this.
  std::size_t replay_stride = 1;
  /// Identical replay passes, each on fresh proxies; a call's service time
  /// is its fastest pass.
  std::size_t replay_passes = 12;
  /// Timed set-ups (synthesis + training + construction), and the fewest
  /// engine reps (per traced configuration, rep 0 included).
  std::size_t setup_reps = 5;
  std::size_t min_engine_reps = 3;
};

Workload make_workload(const Options& o) {
  Workload w;
  fleet::FleetScenarioConfig& s = w.scenario;
  s.seed = o.seed;
  s.attack.seed = o.seed ^ 0xF1A7F1A7ull;
  s.with_proofs = true;
  if (o.workload == "fleet-sharded") {
    // Small fleet, two workers: ingest copying, routing and queue handoff.
    s.homes = o.smoke ? 200 : 2000;
    s.devices_per_home = 2;
    s.duration_days = 0.02;
    w.shards = 2;
    w.replay_stride = 1;
  } else if (o.workload == "campaign-recovery") {
    s.homes = o.smoke ? 120 : 1000;
    s.devices_per_home = 2;
    s.duration_days = 0.03;
    s.manual_per_day = 96.0;
    s.policy = core::FailPolicy::kGrace;
    s.attack.coverage = 0.1;
    s.attack.sybil_fraction = 0.1;
    s.churn.join_fraction = 0.1;
    // No rotations: with rotation on, a warm restore of a home under a
    // proof-replay attack reports replayed proofs as duplicates where the
    // uninterrupted run reports bad signatures, which fails the replay's
    // determinism check.
    s.churn.rotate_every = 0.0;
    s.churn.revoke_fraction = 0.1;
    s.churn.revoke_at_frac = 0.6;
    s.churn.revocation_window = 45.0;
    w.shards = 1;
    w.recovery = true;
    w.replay_stride = 2;
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }
  if (o.smoke) {
    w.replay_passes = 2;
    w.setup_reps = 1;
    w.min_engine_reps = 2;
  }
  return w;
}

// ---- host probes -------------------------------------------------------------

/// Resident set size now, in KB (/proc/self/statm).
double current_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0.0;
  unsigned long size = 0, resident = 0;
  int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

/// Peak resident set size of this process so far, in MB (ru_maxrss).
double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The CPUs this process may run on. pin(k, n) confines the calling thread,
/// and the threads it starts afterwards, to n of them from the k-th on
/// (wrapping); release() lets them run on all of them again.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  void pin(std::size_t k, std::size_t n = 1) const {
    if (cpus_.size() < 2) return;
    cpu_set_t some;
    CPU_ZERO(&some);
    for (std::size_t i = 0; i < n; ++i) CPU_SET(cpus_[(k + i) % cpus_.size()], &some);
    sched_setaffinity(0, sizeof(some), &some);
  }
  void release() const {
    if (cpus_.size() >= 2) sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

/// Pins the calling thread to one CPU for its scope.
class Pinned {
 public:
  Pinned(const CpuRotation& cpus, std::size_t k) : cpus_(cpus) { cpus_.pin(k); }
  ~Pinned() { cpus_.release(); }
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;

 private:
  const CpuRotation& cpus_;
};

// ---- statistics --------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  std::size_t n = s.size();
  return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// ---- the benchmark's own spans ------------------------------------------------

/// In-memory span recorder: name, start, end and parent of every phase plus
/// a sampled subset of per-item calls. Disabled recorders cost one branch.
class Tracer {
 public:
  static constexpr std::size_t kSampleEvery = 1024;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled).
  int begin(const char* name, int parent, std::string detail = {}) {
    if (!enabled_) return -1;
    spans_.push_back({name, std::move(detail), parent, ns_since_origin(Clock::now()), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = ns_since_origin(Clock::now());
  }
  /// A span whose interval was measured by the caller.
  void add(const char* name, int parent, Clock::time_point start,
           Clock::time_point stop, std::string detail = {}) {
    if (!enabled_) return;
    spans_.push_back({name, std::move(detail), parent, ns_since_origin(start),
                      ns_since_origin(stop)});
  }

  /// Spans plus per-name totals (count, total and self time: a span's
  /// duration minus the part its direct children cover).
  Json to_json(const std::string& workload, std::uint64_t seed) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    struct Total {
      std::size_t count = 0;
      double total_s = 0.0;
      double self_s = 0.0;
    };
    std::map<std::string, Total> totals;
    Json spans = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      Total& t = totals[s.name];
      ++t.count;
      t.total_s += dur;
      t.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
      Json j = Json::object();
      j.put("id", i).put("name", s.name);
      if (s.parent >= 0) j.put("parent", static_cast<std::size_t>(s.parent));  // root: none
      j.put("start_ns", static_cast<std::size_t>(s.start_ns));
      j.put("end_ns", static_cast<std::size_t>(s.end_ns));
      if (!s.detail.empty()) j.put("detail", s.detail);
      spans.push(std::move(j));
    }
    Json by_name = Json::object();
    for (const auto& [name, t] : totals) {
      by_name.put(name, Json::object()
                            .put("count", t.count)
                            .put("total_s", t.total_s)
                            .put("self_s", t.self_s));
    }
    return Json::object()
        .put("workload", workload)
        .put("seed", static_cast<std::size_t>(seed))
        .put("sample_every", kSampleEvery)
        .put("totals", std::move(by_name))
        .put("spans", std::move(spans));
  }

 private:
  struct Span {
    const char* name;
    std::string detail;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII phase span.
class Phase {
 public:
  Phase(Tracer& tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~Phase() { tracer_.end(id_); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---- verdicts ----------------------------------------------------------------

struct Verdict {
  bool ok = true;
  std::vector<std::string> lines;

  void check(bool cond, const std::string& what) {
    lines.push_back(std::string(cond ? "[ok] " : "[FAIL] ") + what);
    ok = ok && cond;
  }
};

std::string counters_line(fleet::HomeId home, const core::ProxyCounters& c) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%u:%zu/%zu e%zu a%zu p%zu/%zu/%zu/%zu/%zu d%zu/%zu/%zu", home,
                c.packets_allowed, c.packets_dropped, c.events_closed, c.alerts,
                c.proofs_accepted, c.proofs_rejected_signature,
                c.proofs_rejected_nonhuman, c.proofs_late, c.proofs_duplicate,
                c.events_decided_degraded, c.degraded_allows,
                c.violations_forgiven);
  std::string out = line;
  for (std::size_t d : c.by_disposition) out += " " + std::to_string(d);
  out += "\n";
  return out;
}

/// SHA-256 over every home's counters and incident count, plus the merged
/// attack ledger: equal digests mean identical verdicts.
std::string verdict_digest(const fleet::FleetReport& report) {
  crypto::Sha256 h;
  for (const auto& e : report.homes) {
    h.update(counters_line(e.home, e.counters));
    h.update(std::to_string(e.report.incidents.size()) + "\n");
  }
  const core::AttackLedger& a = report.attack;
  char line[160];
  std::snprintf(line, sizeof(line), "attack %llu/%llu %llu/%llu %llu/%llu\n",
                static_cast<unsigned long long>(a.injected()),
                static_cast<unsigned long long>(a.dropped()),
                static_cast<unsigned long long>(a.proofs_injected()),
                static_cast<unsigned long long>(a.proofs_rejected()),
                static_cast<unsigned long long>(a.commands_blocked()),
                static_cast<unsigned long long>(a.commands_completed()));
  h.update(std::string(line));
  auto d = h.finish();
  return util::to_hex(d).substr(0, 16);
}

// ---- per-item attribution -------------------------------------------------------

enum class Lane : std::uint8_t { kRuleHit, kBootstrap, kEvent, kManualGate, kOther };
constexpr std::size_t kLaneCount = 5;
constexpr const char* kLaneNames[kLaneCount] = {"rule_hit", "bootstrap", "event",
                                                "manual_gate", "other"};

Lane lane_of(core::Disposition d) {
  using core::Disposition;
  switch (d) {
    case Disposition::kRuleHit: return Lane::kRuleHit;
    case Disposition::kBootstrap: return Lane::kBootstrap;
    case Disposition::kEventPrefix:
    case Disposition::kNonManual: return Lane::kEvent;
    case Disposition::kManualValidated:
    case Disposition::kManualUnvalidated:
    case Disposition::kLockout: return Lane::kManualGate;
    default: return Lane::kOther;
  }
}

/// The disposition whose counter one process() call moved (kOther when none
/// or several did).
Lane lane_from_delta(const core::ProxyCounters& before, const core::ProxyCounters& after) {
  std::optional<std::size_t> moved;
  for (std::size_t i = 0; i < core::kDispositionCount; ++i) {
    if (after.by_disposition[i] != before.by_disposition[i]) {
      if (moved) return Lane::kOther;
      moved = i;
    }
  }
  return moved ? lane_of(static_cast<core::Disposition>(*moved)) : Lane::kOther;
}

// ---- the run -------------------------------------------------------------------

/// Traced runs rotate three engine configurations so the ledger can price
/// both the benchmark's own per-item spans and the program's trace ring. The
/// default ring runs last, so the engine the ledger inspects is the one the
/// untraced run measures.
constexpr std::size_t kBenchSpans = 0, kRingOff = 1, kDefaultRing = 2, kVariantCount = 3;
constexpr const char* kVariants[] = {"bench-spans", "ring-off", "default-ring"};

/// Finish passes after every engine rep, each on the next CPU. The first
/// pass also closes the events still open; the second rebuilds the same
/// outputs.
constexpr std::size_t kFinishPasses = 2;

/// Upper bound on engine reps, whatever --seconds asks for.
constexpr std::size_t kMaxEngineReps = 60;

/// Slice size for the batch-path replay: the router's default ingest batch,
/// which is what a producer-bound worker finds in its queue per drain.
constexpr std::size_t kDrainSlice = 128;

struct EngineRep {
  std::string variant;
  bool full_setup = false;
  bool ran_engine = true;  // false: a set-up-only rep
  double synth_s = 0.0, train_s = 0.0, construct_s = 0.0, setup_s = 0.0;
  double ingest_s = 0.0, drain_s = 0.0, engine_s = 0.0, items_per_s = 0.0;
  double kb_initial = 0.0, kb_growth = 0.0;
  // One entry per finish pass.
  std::vector<double> report_s, signals_s, correlate_s, export_s, finish_s;
  fleet::FleetStats stats;
};

/// Per-call service times of the replay, split by item kind.
struct ReplayStats {
  std::vector<std::uint32_t> packet_ns;
  std::vector<std::uint32_t> proof_ns;
  std::vector<std::uint32_t> lifecycle_ns;
  std::array<std::vector<std::uint32_t>, kLaneCount> lane_ns;
};

std::unique_ptr<fleet::Shard> make_replay_shard(const std::vector<fleet::HomeSpec>& specs,
                                                const core::HumannessVerifier& humanness) {
  std::vector<fleet::Home> homes;
  homes.reserve(specs.size());
  for (const fleet::HomeSpec& spec : specs) homes.emplace_back(spec, humanness);
  const fleet::FleetConfig defaults;
  return std::make_unique<fleet::Shard>(std::move(homes), defaults.queue_capacity,
                                        defaults.on_full, defaults.trace_capacity);
}

/// What one replayed item is, for the percentile split: a packet's lane, a
/// proof or a lifecycle command.
constexpr std::uint8_t kProofKind = kLaneCount;
constexpr std::uint8_t kLifecycleKind = kLaneCount + 1;

/// One replay pass: every item through Shard::process, timed per call into
/// `ns`. The first pass also fills `kinds`, reading each packet's
/// disposition from the counters outside the timed window (later passes
/// repeat identical work, so their dispositions are the same).
void replay_pass(fleet::Shard& shard, const std::vector<fleet::FleetItem>& items,
                 std::vector<std::uint32_t>& ns, std::vector<std::uint8_t>& kinds,
                 Tracer& tracer, int parent) {
  const bool classify = kinds.empty();
  ns.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const fleet::FleetItem& item = items[i];
    core::FiatProxy& proxy = shard.find_home(item.home)->proxy();
    const core::ProxyCounters before = classify ? proxy.counters() : core::ProxyCounters{};
    const auto t0 = Clock::now();
    shard.process(item);
    const auto t1 = Clock::now();
    ns[i] = static_cast<std::uint32_t>(std::min<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(), UINT32_MAX));
    if (!classify) continue;
    std::uint8_t kind = kLifecycleKind;
    if (item.kind == fleet::FleetItem::Kind::kPacket) {
      kind = static_cast<std::uint8_t>(lane_from_delta(before, proxy.counters()));
    } else if (item.kind == fleet::FleetItem::Kind::kProof) {
      kind = kProofKind;
    }
    kinds.push_back(kind);
    if (tracer.enabled() && i % Tracer::kSampleEvery == 0) {
      tracer.add("shard.process", parent, t0, t1,
                 kind < kLaneCount          ? kLaneNames[kind]
                 : kind == kProofKind ? "proof"
                                            : "lifecycle");
    }
  }
}

/// Flushed per-home counters of a replay shard, by home id.
std::map<fleet::HomeId, core::ProxyCounters> flushed_counters(fleet::Shard& shard) {
  std::map<fleet::HomeId, core::ProxyCounters> out;
  for (fleet::Home& home : shard.homes()) {
    home.proxy().flush_events();
    out[home.id()] = home.proxy().counters();
  }
  return out;
}

/// Named metrics with units. Values go into the report as "%.17g" text, so
/// every digit survives (util::Json prints doubles with six).
class Metrics {
 public:
  void put(const std::string& name, double value, const char* unit) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    json_.put(name, Json::object().put("value", std::string(text)).put("unit", unit));
    lines_.push_back({name, value, unit});
  }
  Json take() { return std::move(json_); }
  void print() const {
    for (const auto& l : lines_) {
      std::printf("  %-34s %16.6g %s\n", l.name.c_str(), l.value, l.unit);
    }
  }

 private:
  struct Line {
    std::string name;
    double value;
    const char* unit;
  };
  Json json_ = Json::object();
  std::vector<Line> lines_;
};

class Run {
 public:
  Run(const Options& opt, const Workload& w)
      : opt_(opt), w_(w), tracer_(opt.trace) {
    root_ = tracer_.begin("run", -1, opt.workload);
  }

  int execute();

 private:
  /// The engine rep whose figures the run reports beyond its timings: the
  /// first one in the configuration the untraced run measures.
  std::size_t inspected_rep() const { return opt_.trace ? kDefaultRing : 0; }

  std::unique_ptr<fleet::FleetEngine> engine_rep(std::size_t r, std::size_t variant,
                                                 fleet::FleetReport& report, bool setup_only);
  /// Reads the figures every rep shares (the digest check makes them equal)
  /// from one stopped engine, plus the traced run's per-home ledgers.
  void inspect_engine(fleet::FleetEngine& engine, const fleet::FleetReport& report);
  /// Selects the replayed homes and their items, once the scenario exists.
  void prepare_replay();
  /// One timed replay pass on fresh proxies, pinned to the pass's CPU.
  void replay_once();
  /// Splits the per-call minimums by kind; traced runs also time the scalar
  /// and batch decision paths.
  void finish_replay();
  void campaign_checks();
  void emit();

  const Options& opt_;
  const Workload& w_;
  const CpuRotation cpus_;
  Tracer tracer_;
  int root_ = -1;
  Verdict verdict_;

  std::optional<fleet::FleetScenario> scenario_;
  std::optional<core::HumannessVerifier> humanness_;
  std::vector<EngineRep> reps_;
  std::size_t attempted_ = 0, failed_ = 0;
  std::string digest_;
  double peak_mb_ = 0.0;

  // Read from the inspected engine rep.
  fleet::FleetReport report_;
  std::map<fleet::HomeId, core::ProxyCounters> engine_counters_;
  double snapshots_ = 0.0, restarts_ = 0.0, gap_items_ = 0.0;
  bool crash_warm_ = false;
  std::uint64_t spans_recorded_ = 0, spans_dropped_ = 0;
  std::vector<double> encode_us_, state_bytes_, decode_us_, report_home_us_;

  // Replay.
  std::vector<fleet::HomeSpec> replay_specs_;
  std::vector<fleet::FleetItem> replay_items_;  // the engine's timestamp order
  std::vector<fleet::FleetItem> timed_items_;   // the same, home by home
  std::vector<std::uint32_t> best_ns_;          // per call, fastest pass
  std::vector<std::uint8_t> kinds_;
  std::size_t replay_passes_done_ = 0;
  ReplayStats replay_;
  std::size_t replay_packets_ = 0;
  double scalar_ns_ = 0.0, batch_ns_ = 0.0, fallback_share_ = 0.0;
};

std::unique_ptr<fleet::FleetEngine> Run::engine_rep(std::size_t r, std::size_t variant,
                                                    fleet::FleetReport& report,
                                                    bool setup_only) {
  EngineRep rep;
  rep.variant = setup_only ? "setup-only" : !opt_.trace ? "untraced" : kVariants[variant];
  rep.ran_engine = !setup_only;
  const int span = tracer_.begin("engine.rep", root_, rep.variant);
  rep.full_setup = setup_only || r == 0;
  // The set-up is single-threaded; set-up k runs on CPU k.
  std::optional<Pinned> pinned;
  pinned.emplace(cpus_, r);
  if (rep.full_setup) {
    scenario_.reset();  // no two scenarios resident at once
    humanness_.reset();
    const auto t0 = Clock::now();
    {
      Phase p(tracer_, "fleet_testbed.synth", span);
      scenario_.emplace(fleet::make_fleet_scenario(w_.scenario));
    }
    const auto t1 = Clock::now();
    {
      Phase p(tracer_, "humanness.train", span);
      humanness_.emplace(core::HumannessVerifier::train_synthetic(w_.scenario.seed));
    }
    rep.synth_s = seconds_between(t0, t1);
    rep.train_s = seconds_between(t1, Clock::now());
  }
  const auto& items = scenario_->items;

  fleet::FleetConfig config;
  config.shards = w_.shards;
  if (opt_.trace && variant == kRingOff) config.trace_capacity = 0;
  if (w_.recovery) {
    config.recovery.enabled = true;
    config.recovery.journal = true;
    config.recovery.snapshot_every = 300.0;
    config.recovery.fault = sim::ShardFaultPlan::crash_once_at(
        std::max<std::size_t>(1, items.size() / 2));
  }
  const double rss0 = current_rss_kb();
  const auto tc0 = Clock::now();
  std::unique_ptr<fleet::FleetEngine> engine;
  {
    Phase p(tracer_, "engine.construct", span);
    engine = std::make_unique<fleet::FleetEngine>(scenario_->homes, *humanness_, config);
  }
  rep.construct_s = seconds_between(tc0, Clock::now());
  rep.setup_s = rep.synth_s + rep.train_s + rep.construct_s;
  const double rss1 = current_rss_kb();
  const double homes = static_cast<double>(engine->home_count());
  rep.kb_initial = (rss1 - rss0) / homes;
  if (setup_only) {
    tracer_.end(span);
    reps_.push_back(std::move(rep));
    return engine;
  }

  // Closed loop: the producer copies each item into ingest as fast as kBlock
  // backpressure lets it; the rep's throughput is every item over the wall
  // time from start() until drain() returns, so snapshots, the crash, the
  // restore and the journal replay all count. The producer runs on CPU r
  // and the shard workers on the next ones, so a worker woken by the
  // producer is never placed on the producer's CPU.
  const bool sample = opt_.trace && variant == kBenchSpans;
  const auto te0 = Clock::now();
  cpus_.pin(r + 1, w_.shards);
  engine->start();
  cpus_.pin(r);
  {
    Phase p(tracer_, "router.ingest_loop", span);
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (sample && i % Tracer::kSampleEvery == 0) {
        const auto a = Clock::now();
        engine->ingest(items[i]);
        tracer_.add("router.ingest", p.id(), a, Clock::now());
      } else {
        engine->ingest(items[i]);
      }
    }
  }
  const auto te1 = Clock::now();
  {
    Phase p(tracer_, "engine.drain", span);
    engine->drain();
  }
  const auto te2 = Clock::now();
  pinned.reset();
  rep.ingest_s = seconds_between(te0, te1);
  rep.drain_s = seconds_between(te1, te2);
  rep.engine_s = seconds_between(te0, te2);
  rep.items_per_s = static_cast<double>(items.size()) / rep.engine_s;
  rep.kb_growth = (current_rss_kb() - rss1) / homes;
  if (r == 0) peak_mb_ = peak_rss_mb();  // before any finish or replay work

  // Finish: the operator's outputs from the stopped engine, kFinishPasses
  // times, pass k of rep r on CPU r + k.
  for (std::size_t k = 0; k < kFinishPasses; ++k) {
    Pinned on(cpus_, r + k);
    Phase p(tracer_, "finish", span);
    const auto f0 = Clock::now();
    report = engine->report();
    const auto f1 = Clock::now();
    const telemetry::SignalSet signals = engine->signals();
    const auto f2 = Clock::now();
    const fleet::CorrelationReport corr = fleet::correlate(signals);
    const auto f3 = Clock::now();
    const std::string exported =
        telemetry::metrics_json(engine->merged_metrics(), /*include_wall=*/true).dump();
    const auto f4 = Clock::now();
    tracer_.add("report.build", p.id(), f0, f1);
    tracer_.add("correlator.signals", p.id(), f1, f2);
    tracer_.add("correlator.correlate", p.id(), f2, f3);
    tracer_.add("telemetry.export", p.id(), f3, f4);
    rep.report_s.push_back(seconds_between(f0, f1));
    rep.signals_s.push_back(seconds_between(f1, f2));
    rep.correlate_s.push_back(seconds_between(f2, f3));
    rep.export_s.push_back(seconds_between(f3, f4));
    rep.finish_s.push_back(seconds_between(f0, f4));
    if (r == 0 && k == 0) {
      verdict_.check(!exported.empty() && corr.homes_observed == engine->home_count(),
                     "operator outputs cover every home (" +
                         std::to_string(corr.homes_observed) + ")");
    }
  }

  // Accounting: an item failed if it was shed, discarded, quarantined, or
  // offered without being processed.
  rep.stats = engine->stats();
  const fleet::FleetStats& st = rep.stats;
  std::size_t pushed = 0;
  for (const auto& s : st.shards) pushed += s.queue_pushed;
  const std::size_t offered = st.packets_in + st.proofs_in;
  const std::size_t failed =
      (offered - std::min(offered, pushed)) + st.discarded + st.quarantined;
  attempted_ += offered;
  failed_ += failed;
  const std::string digest = verdict_digest(report);
  if (r == 0) {
    digest_ = digest;
    for (const auto& e : report.homes) engine_counters_[e.home] = e.counters;
    verdict_.check(offered == items.size() &&
                       st.packets_out == scenario_->packet_count &&
                       st.proofs_out == scenario_->proof_count,
                   "every offered item processed (" + std::to_string(st.packets_out) +
                       " packets, " + std::to_string(st.proofs_out) + " proofs, " +
                       std::to_string(scenario_->lifecycle_count) + " lifecycle)");
    verdict_.check(failed == 0 && st.shed == 0 && st.shed_on_close == 0,
                   "nothing shed, discarded or quarantined");
  } else if (digest != digest_ || failed != 0) {
    verdict_.check(false, "rep " + std::to_string(r) + " diverged from rep 0");
  }
  tracer_.end(span);
  reps_.push_back(std::move(rep));
  return engine;
}

void Run::inspect_engine(fleet::FleetEngine& engine, const fleet::FleetReport& report) {
  const telemetry::MetricsRegistry m = engine.merged_metrics();
  auto counter = [&m](const char* name) {
    const auto* c = m.find_counter(name);
    return c ? static_cast<double>(c->value()) : 0.0;
  };
  snapshots_ = counter("fleet.snapshots_taken");
  restarts_ = counter("fleet.shard_restarts");
  gap_items_ = counter("fleet.recovery_gap_items");
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    spans_recorded_ += engine.shard(s).telemetry().trace.recorded();
    spans_dropped_ += engine.shard(s).telemetry().trace.dropped();
  }
  if (const fleet::Supervisor* sup = engine.supervisor()) {
    const auto restarts = sup->restarts();
    for (const auto& rp : sup->resume_points()) {
      if (!restarts.empty() && rp.home == restarts.front().crash_home) crash_warm_ = rp.warm;
    }
  }
  report_ = report;
  if (!opt_.trace) return;

  // Per-layer ledgers over every home's end state: the state codec and the
  // per-home security report.
  Phase p(tracer_, "ledger.codec_report", root_);
  std::map<fleet::HomeId, const fleet::HomeSpec*> specs;
  for (const auto& spec : scenario_->homes) specs[spec.id] = &spec;
  bool decoded_ok = true;
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    for (fleet::Home& home : engine.shard(s).homes()) {
      const auto a = Clock::now();
      const util::Bytes blob = core::encode_proxy_state(home.proxy(), home.id());
      const auto b = Clock::now();
      const core::SecurityReport sr = core::build_security_report(home.proxy());
      const auto c = Clock::now();
      encode_us_.push_back(seconds_between(a, b) * 1e6);
      state_bytes_.push_back(static_cast<double>(blob.size()));
      report_home_us_.push_back(seconds_between(b, c) * 1e6);
      if (home.id() % w_.replay_stride != 0) continue;
      core::FiatProxy fresh = fleet::make_home_proxy(*specs.at(home.id()), *humanness_);
      const auto d = Clock::now();
      const core::CodecStatus status = core::decode_proxy_state(fresh, blob, home.id());
      decode_us_.push_back(seconds_between(d, Clock::now()) * 1e6);
      decoded_ok = decoded_ok && status == core::CodecStatus::kOk &&
                   fresh.counters() == home.proxy().counters();
    }
  }
  verdict_.check(decoded_ok, "every sampled home's state decodes into a fresh proxy");
}

void Run::prepare_replay() {
  for (const auto& spec : scenario_->homes) {
    if (spec.id % w_.replay_stride == 0) replay_specs_.push_back(spec);
  }
  std::sort(replay_specs_.begin(), replay_specs_.end(),
            [](const fleet::HomeSpec& a, const fleet::HomeSpec& b) { return a.id < b.id; });
  for (const auto& item : scenario_->items) {
    if (item.home % w_.replay_stride != 0) continue;
    replay_items_.push_back(item);
    replay_packets_ += item.kind == fleet::FleetItem::Kind::kPacket;
  }
  // The timed passes feed one home's whole stream at a time (per-home order
  // unchanged), so its state is as cache-hot as on a proxy that serves one
  // home. The cost of interleaving homes, as a shard worker does, shows in
  // items_per_s and in the traced run's scalar and batch passes.
  timed_items_ = replay_items_;
  std::stable_sort(timed_items_.begin(), timed_items_.end(),
                   [](const fleet::FleetItem& a, const fleet::FleetItem& b) {
                     return a.home < b.home;
                   });
  best_ns_.assign(timed_items_.size(), UINT32_MAX);
}

void Run::replay_once() {
  // Each call's service time is its fastest pass; the passes are spread over
  // the run and over the CPUs, so a slow stretch on one CPU reaches few.
  const std::size_t pass = replay_passes_done_++;
  auto shard = make_replay_shard(replay_specs_, *humanness_);
  std::vector<std::uint32_t> ns;
  {
    Pinned on(cpus_, pass);
    Phase p(tracer_, "replay.pass", root_);
    replay_pass(*shard, timed_items_, ns, kinds_, tracer_, p.id());
  }
  for (std::size_t i = 0; i < ns.size(); ++i) best_ns_[i] = std::min(best_ns_[i], ns[i]);
  if (pass > 0) return;
  // The determinism contract: each replayed home matches the engine.
  std::size_t mismatched = 0;
  for (const auto& [home, c] : flushed_counters(*shard)) {
    auto it = engine_counters_.find(home);
    if (it == engine_counters_.end() || !(it->second == c)) ++mismatched;
  }
  verdict_.check(mismatched == 0, "replayed homes' counters equal the engine's (" +
                                      std::to_string(replay_specs_.size() - mismatched) + "/" +
                                      std::to_string(replay_specs_.size()) + ")");
}

void Run::finish_replay() {
  for (std::size_t i = 0; i < best_ns_.size(); ++i) {
    if (kinds_[i] < kLaneCount) {
      replay_.packet_ns.push_back(best_ns_[i]);
      replay_.lane_ns[kinds_[i]].push_back(best_ns_[i]);
    } else {
      (kinds_[i] == kProofKind ? replay_.proof_ns : replay_.lifecycle_ns).push_back(best_ns_[i]);
    }
  }
  if (!opt_.trace) return;

  // Scalar vs batch decision paths over the same subset in the engine's
  // timestamp order, untimed per call.
  Phase phase(tracer_, "replay.paths", root_);
  Pinned on(cpus_, 0);
  auto scalar = make_replay_shard(replay_specs_, *humanness_);
  const auto s0 = Clock::now();
  for (const auto& item : replay_items_) scalar->process(item);
  const auto s1 = Clock::now();
  auto batch = make_replay_shard(replay_specs_, *humanness_);
  const std::span<const fleet::FleetItem> all(replay_items_);
  const auto b0 = Clock::now();
  for (std::size_t i = 0; i < all.size(); i += kDrainSlice) {
    batch->process_batch(all.subspan(i, std::min(kDrainSlice, all.size() - i)));
  }
  const auto b1 = Clock::now();
  tracer_.add("proxy.scalar_pass", phase.id(), s0, s1);
  tracer_.add("proxy.batch_pass", phase.id(), b0, b1);
  const double n = static_cast<double>(std::max<std::size_t>(1, all.size()));
  scalar_ns_ = seconds_between(s0, s1) * 1e9 / n;
  batch_ns_ = seconds_between(b0, b1) * 1e9 / n;
  std::size_t fallbacks = 0;
  for (const fleet::Home& home : batch->homes()) fallbacks += home.proxy().batch_scalar_fallbacks();
  fallback_share_ = share(static_cast<double>(fallbacks), static_cast<double>(replay_packets_));
  verdict_.check(flushed_counters(*scalar) == flushed_counters(*batch),
                 "batch and scalar decision paths agree on every replayed home");
}

void Run::campaign_checks() {
  if (!w_.recovery) return;
  const fleet::FleetScenario& sc = *scenario_;
  // Proofs that can cover an attack command without being forged: the
  // user's own (the §7 residual risk piggyback exploits on purpose) and a
  // stolen credential's probes inside their revocation window.
  std::map<fleet::HomeId, double> effective_ts;
  for (const auto& ht : sc.churn.homes) {
    if (ht.revoked) effective_ts[ht.home] = ht.effective_ts;
  }
  std::map<fleet::HomeId, std::vector<double>> cover;
  std::map<std::int32_t, std::pair<fleet::HomeId, double>> first_payload;
  for (const auto& item : sc.items) {
    if (item.kind == fleet::FleetItem::Kind::kProof) {
      const bool in_window =
          item.attack.cls == static_cast<std::int16_t>(gen::AttackType::kRevokedCredential) &&
          effective_ts.contains(item.home) && item.ts < effective_ts.at(item.home);
      if (item.attack.benign() || in_window) cover[item.home].push_back(item.ts);
    } else if (item.attack.payload && item.attack.cmd >= 0) {
      first_payload.try_emplace(item.attack.cmd, item.home, item.ts);
    }
  }
  std::map<fleet::HomeId, const core::ProxyConfig*> proxy_config;
  for (const auto& spec : sc.homes) proxy_config[spec.id] = &spec.proxy;
  auto covered = [&](std::int32_t cmd) {
    const auto it = first_payload.find(cmd);
    if (it == first_payload.end()) return false;
    const auto [home, t] = it->second;
    const core::ProxyConfig& pc = *proxy_config.at(home);
    const double after = pc.human_validity_window +
                         (pc.degraded_policy == core::FailPolicy::kGrace ? pc.degraded_grace : 0.0);
    for (double p : cover[home]) {
      if (t >= p - pc.human_pre_window && t <= p + after) return true;
    }
    return false;
  };

  // Every command-class attack is blocked unless such a proof covered it.
  // Piggyback is that residual by design, Sybil homes are graded on fleet
  // accounting, and revoked-credential commands are checked below.
  std::size_t commands = 0, blocked = 0, excused = 0;
  for (const auto& [cmd, st] : report_.attack.commands) {
    const auto cls = static_cast<gen::AttackType>(st.cls);
    if (cls == gen::AttackType::kPiggyback || cls == gen::AttackType::kSybilHome ||
        cls == gen::AttackType::kRevokedCredential) {
      continue;
    }
    ++commands;
    if (st.payload_dropped > 0) {
      ++blocked;
    } else if (covered(cmd)) {
      ++excused;
    }
  }
  verdict_.check(commands > 0 && blocked + excused == commands,
                 "every command-class attack blocked (" + std::to_string(blocked) + "/" +
                     std::to_string(commands) + "; " + std::to_string(excused) +
                     " covered by the user's own or an in-window proof)");

  // Zero benign lockouts: no home outside the campaign ends with a device
  // locked out, and no churn home outside it lost a legitimate proof to a
  // credential check (signature, duplicate, late or lifecycle). Humanness
  // false negatives are reported as proof.rejected_nonhuman instead. A home
  // whose phone was revoked is inside the campaign: its user has no valid
  // phone, so its manual commands are meant to be blocked.
  std::vector<fleet::HomeId> adversarial = sc.attack.attacked_homes;
  adversarial.insert(adversarial.end(), sc.attack.sybil_homes.begin(),
                     sc.attack.sybil_homes.end());
  for (const auto& [home, ts] : effective_ts) adversarial.push_back(home);
  std::sort(adversarial.begin(), adversarial.end());
  auto is_adversarial = [&](fleet::HomeId h) {
    return std::binary_search(adversarial.begin(), adversarial.end(), h);
  };
  std::size_t lockouts = 0;
  for (const auto& e : report_.homes) {
    if (!is_adversarial(e.home) && e.report.devices_locked > 0) ++lockouts;
  }
  for (const auto& ht : sc.churn.homes) {
    if (is_adversarial(ht.home)) continue;
    const core::ProxyCounters& c = engine_counters_.at(ht.home);
    if (c.proofs_rejected_signature || c.proofs_late || c.proofs_duplicate ||
        c.proofs_accepted + c.proofs_rejected_nonhuman < ht.benign_proofs) {
      ++lockouts;
    }
  }
  verdict_.check(lockouts == 0, "zero benign lockouts (" + std::to_string(lockouts) + ")");

  // Zero accepts after a revocation window closes: every probe sent with
  // the stolen credential after its window died on the lifecycle path.
  std::uint64_t probes = 0, in_window = 0;
  for (const auto& ht : sc.churn.homes) {
    probes += ht.probes;
    in_window += ht.probes_in_window;
  }
  const auto& row =
      report_.attack.by_class[static_cast<std::size_t>(gen::AttackType::kRevokedCredential)];
  const std::uint64_t accepted = row.proofs - row.proofs_rejected;
  verdict_.check(probes > in_window && row.proofs == probes && accepted <= in_window &&
                     report_.stats.lifecycle_rejected_proofs == probes - in_window,
                 "zero accepts after a revocation window (" + std::to_string(probes - in_window) +
                     " late probes all rejected; " + std::to_string(accepted) + "/" +
                     std::to_string(in_window) + " in-window probes accepted)");
  verdict_.check(restarts_ == 1.0 && gap_items_ == 0.0 && crash_warm_,
                 "the crash restored warm with zero gap items");
}

void Run::emit() {
  std::vector<double> setup, construct, synth, train, ips, finish, report, signals, correlate,
      exported, drain, ingest_ns;
  std::vector<double> ips_spans, ips_ring, ips_off;
  for (const EngineRep& rep : reps_) {
    if (rep.full_setup) {
      setup.push_back(rep.setup_s);
      synth.push_back(rep.synth_s);
      train.push_back(rep.train_s);
    }
    construct.push_back(rep.construct_s);
    // Rep 0 is the first thing the process builds and pays for faulting in
    // its memory; a long-running proxy does not, so it is left out here.
    if (!rep.ran_engine || &rep == &reps_.front()) continue;
    finish.insert(finish.end(), rep.finish_s.begin(), rep.finish_s.end());
    report.insert(report.end(), rep.report_s.begin(), rep.report_s.end());
    signals.insert(signals.end(), rep.signals_s.begin(), rep.signals_s.end());
    correlate.insert(correlate.end(), rep.correlate_s.begin(), rep.correlate_s.end());
    exported.insert(exported.end(), rep.export_s.begin(), rep.export_s.end());
    drain.push_back(rep.drain_s);
    ingest_ns.push_back(rep.ingest_s * 1e9 /
                        static_cast<double>(scenario_->items.size()));
    (rep.variant == "bench-spans"    ? ips_spans
     : rep.variant == "ring-off"     ? ips_off
     : rep.variant == "default-ring" ? ips_ring
                                     : ips)
        .push_back(rep.items_per_s);
  }

  Metrics m;
  if (!opt_.trace) {
    m.put("setup_s", median(setup), "s");
    m.put("items_per_s", median(ips), "1/s");
    m.put("decision_p50_ns", percentile(replay_.packet_ns, 0.50), "ns");
    m.put("decision_p99_ns", percentile(replay_.packet_ns, 0.99), "ns");
    m.put("proof_p50_us", percentile(replay_.proof_ns, 0.50) / 1e3, "us");
    m.put("proof_p99_us", percentile(replay_.proof_ns, 0.99) / 1e3, "us");
    m.put("finish_s", median(finish), "s");
    m.put("peak_rss_mb", peak_mb_, "MB");
  } else {
    // The ledger's engine figures come from the default-ring reps: the
    // configuration the untraced run measures.
    std::vector<double> util_mean, util_max, idle;
    std::size_t high_water = 0, shed = 0;
    for (const EngineRep& rep : reps_) {
      if (rep.variant != "default-ring") continue;
      double sum = 0.0, mx = 0.0, idle_s = 0.0;
      for (std::size_t s = 0; s < rep.stats.shards.size(); ++s) {
        const double u = rep.stats.utilization(s);
        sum += u;
        mx = std::max(mx, u);
        idle_s += rep.stats.wall_seconds - rep.stats.shards[s].busy_seconds;
        high_water = std::max(high_water, rep.stats.shards[s].queue_high_water);
        shed += rep.stats.shards[s].queue_shed + rep.stats.shards[s].queue_shed_on_close;
      }
      util_mean.push_back(sum / static_cast<double>(rep.stats.shards.size()));
      util_max.push_back(mx);
      idle.push_back(idle_s);
    }
    const double packets = static_cast<double>(replay_.packet_ns.size());
    auto lane = [&](Lane l) -> const std::vector<std::uint32_t>& {
      return replay_.lane_ns[static_cast<std::size_t>(l)];
    };
    auto lane_share = [&](Lane l) { return share(static_cast<double>(lane(l).size()), packets); };
    const core::ProxyCounters& t = report_.totals;
    const double proofs = static_cast<double>(report_.stats.proofs_out);
    // Throughputs by configuration, measured like items_per_s.
    const double ring = median(ips_ring), spans = median(ips_spans), off = median(ips_off);

    m.put("fleet_testbed.synth_s", median(synth), "s");
    m.put("humanness.train_s", median(train), "s");
    m.put("engine.construct_s", median(construct), "s");
    // Later reps reuse memory the first one faulted in, so only the first
    // engine rep (the first thing the process builds) shows the RSS rise.
    m.put("home.kb_initial", reps_.front().kb_initial, "KB");
    m.put("home.kb_growth", reps_.front().kb_growth, "KB");
    m.put("router.ingest_ns_per_item", median(ingest_ns), "ns");
    m.put("router.item_bytes", static_cast<double>(sizeof(fleet::FleetItem)), "B");
    m.put("engine.drain_s", median(drain), "s");
    m.put("shard.util_mean", median(util_mean), "frac");
    m.put("shard.util_max", median(util_max), "frac");
    m.put("shard.idle_s", median(idle), "s");
    m.put("bounded_queue.high_water", static_cast<double>(high_water), "count");
    m.put("bounded_queue.shed", static_cast<double>(shed), "count");
    m.put("proxy.rule_hit_ns_p50", percentile(lane(Lane::kRuleHit), 0.5), "ns");
    m.put("proxy.rule_hit_share", lane_share(Lane::kRuleHit), "frac");
    m.put("proxy.bootstrap_ns_p50", percentile(lane(Lane::kBootstrap), 0.5), "ns");
    m.put("proxy.bootstrap_share", lane_share(Lane::kBootstrap), "frac");
    m.put("proxy.event_ns_p50", percentile(lane(Lane::kEvent), 0.5), "ns");
    m.put("proxy.event_share", lane_share(Lane::kEvent), "frac");
    m.put("proxy.manual_gate_ns_p50", percentile(lane(Lane::kManualGate), 0.5), "ns");
    m.put("proxy.manual_gate_share", lane_share(Lane::kManualGate), "frac");
    m.put("proxy.other_share", lane_share(Lane::kOther), "frac");
    m.put("proxy.scalar_ns_per_item", scalar_ns_, "ns");
    m.put("proxy.batch_ns_per_item", batch_ns_, "ns");
    m.put("proxy.batch_fallback_share", fallback_share_, "frac");
    m.put("proof.accept_share", share(static_cast<double>(t.proofs_accepted), proofs), "frac");
    m.put("proof.rejected_signature", static_cast<double>(t.proofs_rejected_signature), "count");
    m.put("proof.rejected_nonhuman", static_cast<double>(t.proofs_rejected_nonhuman), "count");
    m.put("proof.rejected_duplicate", static_cast<double>(t.proofs_duplicate), "count");
    m.put("proof.rejected_lifecycle",
          static_cast<double>(report_.stats.lifecycle_rejected_proofs), "count");
    m.put("proof.late", static_cast<double>(t.proofs_late), "count");
    m.put("lifecycle.apply_us_p50", percentile(replay_.lifecycle_ns, 0.5) / 1e3, "us");
    m.put("lifecycle.ops", static_cast<double>(scenario_->lifecycle_count), "count");
    m.put("state_codec.encode_us_p50", percentile(encode_us_, 0.5), "us");
    m.put("state_codec.bytes_per_home_p50", percentile(state_bytes_, 0.5), "B");
    m.put("state_codec.bytes_per_home_max", percentile(state_bytes_, 1.0), "B");
    m.put("state_codec.decode_us_p50", percentile(decode_us_, 0.5), "us");
    m.put("supervisor.snapshots", snapshots_, "count");
    m.put("supervisor.restarts", restarts_, "count");
    m.put("supervisor.gap_items", gap_items_, "count");
    m.put("report.build_s", median(report), "s");
    m.put("report.home_us_p50", percentile(report_home_us_, 0.5), "us");
    m.put("correlator.signals_s", median(signals), "s");
    m.put("correlator.correlate_s", median(correlate), "s");
    m.put("telemetry.export_s", median(exported), "s");
    m.put("telemetry.spans_recorded", static_cast<double>(spans_recorded_), "count");
    m.put("telemetry.spans_dropped", static_cast<double>(spans_dropped_), "count");
    m.put("telemetry.spans_dropped_share",
          share(static_cast<double>(spans_dropped_), static_cast<double>(spans_recorded_)),
          "frac");
    m.put("telemetry.trace_overhead_frac", ring > 0.0 ? off / ring - 1.0 : 0.0, "frac");
    m.put("trace.items_per_s_traced", spans, "1/s");
    m.put("trace.items_per_s_untraced", ring, "1/s");
    m.put("trace.overhead_frac", spans > 0.0 ? ring / spans - 1.0 : 0.0, "frac");
  }

  const fleet::FleetScenario& sc = *scenario_;
  std::printf("fleetbench %s seed %llu (%s)\n", opt_.workload.c_str(),
              static_cast<unsigned long long>(opt_.seed), opt_.trace ? "traced" : "untraced");
  std::printf("  %zu homes, %zu items: %zu packets, %zu proofs, %zu lifecycle; "
              "%zu shard(s) + 1 producer thread\n",
              sc.homes.size(), sc.items.size(), sc.packet_count, sc.proof_count,
              sc.lifecycle_count, w_.shards);
  std::printf("  engine reps %zu, replay %zu homes x %zu passes: %zu decisions, %zu proofs\n",
              reps_.size(), replay_specs_.size(), replay_passes_done_,
              replay_.packet_ns.size(), replay_.proof_ns.size());
  m.print();
  for (const auto& line : verdict_.lines) std::printf("  %s\n", line.c_str());
  std::printf("  verdict digest %s: %s\n", digest_.c_str(), verdict_.ok ? "PASS" : "FAIL");

  Json rep_rows = Json::array();
  for (const EngineRep& rep : reps_) {
    rep_rows.push(Json::object()
                      .put("variant", rep.variant)
                      .put("setup_s", rep.full_setup ? rep.setup_s : 0.0)
                      .put("engine_s", rep.engine_s)
                      .put("items_per_s", rep.items_per_s)
                      .put("finish_s", median(rep.finish_s)));
  }
  Json checks = Json::array();
  for (const auto& line : verdict_.lines) checks.push(Json::object().put("check", line));
  Json doc = Json::object();
  doc.put("workload", opt_.workload)
      .put("seed", static_cast<std::size_t>(opt_.seed))
      .put("trace", opt_.trace)
      .put("smoke", opt_.smoke)
      .put("correct", verdict_.ok)
      .put("attempted", attempted_)
      .put("failed", failed_)
      .put("digest", digest_)
      .put("checks", std::move(checks))
      .put("host",
           Json::object()
               .put("nproc", static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN)))
               .put("hardware_concurrency",
                    static_cast<std::size_t>(std::thread::hardware_concurrency()))
               .put("build_type", FLEETBENCH_BUILD_TYPE)
               .put("compiler", __VERSION__)
               .put("threads", w_.shards + 1))
      .put("input", Json::object()
                        .put("homes", sc.homes.size())
                        .put("items", sc.items.size())
                        .put("packets", sc.packet_count)
                        .put("proofs", sc.proof_count)
                        .put("lifecycle", sc.lifecycle_count)
                        .put("attack_packets", static_cast<std::size_t>(sc.attack.packets))
                        .put("attack_proofs", static_cast<std::size_t>(sc.attack.proofs)))
      .put("samples", Json::object()
                          .put("engine_reps", reps_.size())
                          .put("setup_reps", w_.setup_reps)
                          .put("finish_passes", finish.size())
                          .put("replay_homes", replay_specs_.size())
                          .put("replay_passes", replay_passes_done_)
                          .put("decisions", replay_.packet_ns.size())
                          .put("proofs", replay_.proof_ns.size())
                          .put("lifecycle", replay_.lifecycle_ns.size()))
      .put("reps", std::move(rep_rows))
      .put("metrics", m.take());
  const std::string text = doc.dump();
  if (!opt_.report_out.empty()) {
    if (!util::write_json_file(opt_.report_out, doc)) {
      std::fprintf(stderr, "fleetbench: cannot write %s\n", opt_.report_out.c_str());
      verdict_.ok = false;
    }
  } else {
    std::printf("%s\n", text.c_str());
  }
  if (tracer_.enabled() && !opt_.trace_out.empty()) {
    tracer_.end(root_);
    if (!util::write_json_file(opt_.trace_out, tracer_.to_json(opt_.workload, opt_.seed))) {
      std::fprintf(stderr, "fleetbench: cannot write %s\n", opt_.trace_out.c_str());
      verdict_.ok = false;
    }
  }
}

int Run::execute() {
  // Engine rep 0 runs first, with the full set-up, so peak RSS is read
  // before anything else has been built; set-up-only reps follow until the
  // set-up has been timed setup_reps times. The engine phase then repeats
  // until it has measured --seconds of engine wall time in at least
  // min_engine_reps reps (per traced configuration, ending on a whole
  // rotation of them). Replay passes run between the reps, in step with the
  // engine time measured so far. Only one engine or replay shard is
  // resident at a time.
  const std::size_t variants = opt_.trace ? kVariantCount : 1;
  fleet::FleetReport report;
  double engine_s = 0.0;
  for (std::size_t r = 0; r < kMaxEngineReps; ++r) {
    if (r % variants == 0 && r >= w_.min_engine_reps * variants &&
        (opt_.smoke || engine_s >= opt_.seconds)) {
      break;
    }
    auto engine = engine_rep(r, r % variants, report, /*setup_only=*/false);
    engine_s += reps_.back().engine_s;
    if (r == inspected_rep()) inspect_engine(*engine, report);
    engine.reset();
    if (r == 0) {
      for (std::size_t k = 1; k < w_.setup_reps; ++k) {
        engine_rep(k, kDefaultRing, report, /*setup_only=*/true);
      }
      prepare_replay();
    }
    const double progress = opt_.smoke ? 1.0 : std::min(1.0, engine_s / opt_.seconds);
    while (replay_passes_done_ <
           static_cast<std::size_t>(std::ceil(progress * static_cast<double>(w_.replay_passes)))) {
      replay_once();
    }
  }
  while (replay_passes_done_ < w_.replay_passes) replay_once();
  finish_replay();
  campaign_checks();
  emit();
  return verdict_.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const Workload w = make_workload(opt);
  try {
    Run run(opt, w);
    return run.execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}
