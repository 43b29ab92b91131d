#!/usr/bin/env sh
# Tier-1 CI: build + ctest normally (plus telemetry-export, hot-path,
# crash-recovery, cluster, attack-campaign, correlation and fleetbench smoke
# runs), then under ASan+UBSan (covers the FlatMap / DomainInterner / golden-equivalence
# "hotpath" suites and the "recovery"/"cluster" snapshot/supervisor/migration
# suites along with everything else), then the concurrency-, recovery-,
# cluster-, attack- and correlation-labeled tests (fleet + transport + fleet
# telemetry merge + hotpath golden + supervised-restart golden + cluster
# migration/failover golden + labeled-campaign golden + correlator
# determinism) under TSan.
#
#   ./ci.sh          all three legs
#   ./ci.sh normal   plain build + tests + smoke runs only
#   ./ci.sh asan     ASan+UBSan build + tests only
#   ./ci.sh tsan     TSan build + concurrency-labeled tests only
set -eu

cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || echo 4)"
LEG="${1:-all}"

case "$LEG" in
  normal|asan|tsan|all) ;;
  *) echo "usage: $0 [normal|asan|tsan|all]" >&2; exit 2 ;;
esac

# run_leg NAME DIR CTEST_EXTRA [cmake args...] — CTEST_EXTRA is a leg-local
# parameter ("" for none), not an environment variable, so a CTEST_ARGS set
# in the caller's shell can never leak a test filter into other legs.
run_leg() {
  name="$1"
  dir="$2"
  ctest_extra="$3"
  shift 3
  echo "==> [$name] configure"
  cmake -B "$dir" -S . "$@"
  echo "==> [$name] build"
  cmake --build "$dir" -j "$JOBS"
  echo "==> [$name] ctest"
  # shellcheck disable=SC2086
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" $ctest_extra
}

# Hot-path smoke: run the packed-vs-legacy + batch-pipeline benchmark TWICE
# in --smoke mode (verdict-identity gates enforced by the bench itself;
# throughput gates are report-only so a loaded runner cannot flake CI),
# require the two JSON artifacts byte-identical — verdict totals and the
# per-batch-leg telemetry exports, scalar-fallback counter included, are part
# of the determinism contract — and validate with the strict parser.
hotpath_smoke() {
  dir="$1"
  echo "==> [normal] hotpath smoke"
  for run in 1 2; do
    smoke="$dir/hotpath-smoke-$run"
    mkdir -p "$smoke"
    "$dir/bench/bench_hotpath" --packets 60000 --repeat 1 --smoke \
      --json "$smoke/hotpath.json" >/dev/null
  done
  cmp "$dir/hotpath-smoke-1/hotpath.json" "$dir/hotpath-smoke-2/hotpath.json"
  "$dir/tools/fiat_json_validate" "$dir/hotpath-smoke-1/hotpath.json"
  echo "==> [normal] hotpath smoke ok"
}

# Recovery smoke: run the crash-recovery chaos bench in quick mode (its
# lossless/90%-fewer-verdicts checks are enforced by the bench itself) and
# validate the JSON artifact with the in-tree strict parser.
recovery_smoke() {
  dir="$1"
  echo "==> [normal] recovery smoke"
  smoke="$dir/recovery-smoke"
  mkdir -p "$smoke"
  bench_bin="$(pwd)/$dir/bench/bench_recovery"
  validate_bin="$(pwd)/$dir/tools/fiat_json_validate"
  (cd "$smoke" && "$bench_bin" --quick >/dev/null \
    && "$validate_bin" BENCH_recovery.json)
  echo "==> [normal] recovery smoke ok"
}

# Cluster smoke: run the migration+failover matrix in quick mode TWICE (its
# zero-lost-verdicts / warm-vs-cold gates are enforced by the bench itself),
# require the two BENCH_cluster.json artifacts byte-identical (the cluster
# control plane's determinism contract), and validate with the strict parser.
cluster_smoke() {
  dir="$1"
  echo "==> [normal] cluster smoke"
  bench_bin="$(pwd)/$dir/bench/bench_cluster"
  validate_bin="$(pwd)/$dir/tools/fiat_json_validate"
  for run in 1 2; do
    smoke="$dir/cluster-smoke-$run"
    mkdir -p "$smoke"
    (cd "$smoke" && "$bench_bin" --quick >/dev/null)
  done
  cmp "$dir/cluster-smoke-1/BENCH_cluster.json" \
      "$dir/cluster-smoke-2/BENCH_cluster.json"
  "$validate_bin" "$dir/cluster-smoke-1/BENCH_cluster.json"
  echo "==> [normal] cluster smoke ok"
}

# Attack smoke: run the adversarial campaign matrix in quick mode TWICE (its
# label-coverage / recall-floor / collateral gates are enforced by the bench
# itself), require the two BENCH_attack.json artifacts byte-identical (the
# determinism contract extends to labeled campaigns), and validate with the
# strict parser.
attack_smoke() {
  dir="$1"
  echo "==> [normal] attack smoke"
  bench_bin="$(pwd)/$dir/bench/bench_attack_eval"
  validate_bin="$(pwd)/$dir/tools/fiat_json_validate"
  for run in 1 2; do
    smoke="$dir/attack-smoke-$run"
    mkdir -p "$smoke"
    (cd "$smoke" && "$bench_bin" --quick >/dev/null)
  done
  cmp "$dir/attack-smoke-1/BENCH_attack.json" \
      "$dir/attack-smoke-2/BENCH_attack.json"
  "$validate_bin" "$dir/attack-smoke-1/BENCH_attack.json"
  echo "==> [normal] attack smoke ok"
}

# Churn smoke: run the credential-lifecycle matrix in quick mode TWICE (its
# zero-lockout / bounded-revocation-latency / byte-identity gates are
# enforced by the bench itself), require the two BENCH_churn.json artifacts
# byte-identical (lifecycle inherits the fleet determinism contract), and
# validate with the strict parser.
churn_smoke() {
  dir="$1"
  echo "==> [normal] churn smoke"
  bench_bin="$(pwd)/$dir/bench/bench_churn"
  validate_bin="$(pwd)/$dir/tools/fiat_json_validate"
  for run in 1 2; do
    smoke="$dir/churn-smoke-$run"
    mkdir -p "$smoke"
    (cd "$smoke" && "$bench_bin" --quick >/dev/null)
  done
  cmp "$dir/churn-smoke-1/BENCH_churn.json" \
      "$dir/churn-smoke-2/BENCH_churn.json"
  "$validate_bin" "$dir/churn-smoke-1/BENCH_churn.json"
  echo "==> [normal] churn smoke ok"
}

# Correlation smoke: run a single-class campaign through the fleet CLI with
# the correlator on TWICE, require the two correlation reports byte-identical
# (the observatory inherits the fleet determinism contract), and validate
# them — plus the telemetry export carrying the rollups — with the strict
# parser pinned to the current metrics schema version.
correlation_smoke() {
  dir="$1"
  echo "==> [normal] correlation smoke"
  for run in 1 2; do
    smoke="$dir/correlation-smoke-$run"
    mkdir -p "$smoke"
    "$dir/tools/fiat" fleet --homes 30 --shards 4 --days 0.05 --seed 7 \
      --attack-coverage 0.1 --attack-class bucket-mimicry \
      --correlate --correlation-json "$smoke/corr.json" \
      --telemetry-json "$smoke/metrics.json" >/dev/null
  done
  cmp "$dir/correlation-smoke-1/corr.json" \
      "$dir/correlation-smoke-2/corr.json"
  "$dir/tools/fiat_json_validate" "$dir/correlation-smoke-1/corr.json"
  "$dir/tools/fiat_json_validate" --schema-version 1 \
    "$dir/correlation-smoke-1/metrics.json"
  echo "==> [normal] correlation smoke ok"
}

# Telemetry smoke: run the fleet CLI with every export flag and validate the
# JSON artifacts with the in-tree strict parser (no python/jq dependency).
telemetry_smoke() {
  dir="$1"
  echo "==> [normal] telemetry smoke"
  smoke="$dir/telemetry-smoke"
  mkdir -p "$smoke"
  "$dir/tools/fiat" fleet --homes 8 --devices 3 --shards 2 --seed 7 \
    --telemetry-json "$smoke/metrics.json" \
    --telemetry-prom "$smoke/metrics.prom" \
    --trace-json "$smoke/trace.json" >/dev/null
  "$dir/tools/fiat_json_validate" "$smoke/metrics.json" "$smoke/trace.json"
  grep -q '^# TYPE fiat_' "$smoke/metrics.prom"
  echo "==> [normal] telemetry smoke ok"
}

# Fleetbench smoke: the benchmark package's own unit tests, then each
# workload run twice at smoke size (its checks are enforced by fleetbench;
# run.py exits non-zero on a failed one), requiring the two report JSONs'
# verdict digests to be equal — the benchmark inherits the fleet determinism
# contract. Changes nothing under fleetbench/; the package builds under
# ${CARGO_TARGET_DIR:-.bench_build}/fleetbench as run.py does.
fleetbench_smoke() {
  dir="$1"
  echo "==> [normal] fleetbench smoke"
  python3 -m unittest discover -s fleetbench -p 'test_*.py'
  results="${CARGO_TARGET_DIR:-.bench_build}/fleetbench/results"
  for workload in fleet-sharded campaign-recovery; do
    for run in 1 2; do
      python3 fleetbench/run.py --workload "$workload" --seed 1 --seconds 1 \
        --smoke >/dev/null
      python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["digest"])' \
        "$results/$workload-1-untraced.report.json" \
        > "$dir/fleetbench-$workload-$run.digest"
    done
    cmp "$dir/fleetbench-$workload-1.digest" "$dir/fleetbench-$workload-2.digest"
  done
  echo "==> [normal] fleetbench smoke ok"
}

case "$LEG" in
  normal|all)
    run_leg normal build ""
    telemetry_smoke build
    hotpath_smoke build
    recovery_smoke build
    cluster_smoke build
    attack_smoke build
    churn_smoke build
    correlation_smoke build
    fleetbench_smoke build
    ;;
esac

case "$LEG" in
  asan|all)
    ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1" \
    UBSAN_OPTIONS="print_stacktrace=1" \
      run_leg asan build-asan "" -DFIAT_SANITIZE=address
    ;;
esac

case "$LEG" in
  tsan|all)
    TSAN_OPTIONS="halt_on_error=1" \
      run_leg tsan build-tsan "-L concurrency|recovery|cluster|attack|correlation|lifecycle" -DFIAT_SANITIZE=thread
    ;;
esac

echo "==> ci.sh: done ($LEG)"
