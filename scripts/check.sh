#!/usr/bin/env bash
# Tier-1 verification: configure with strict warnings, build, run the full
# test suite, then smoke-run one instrumented bench and validate its JSON
# outputs. Usage: scripts/check.sh [build-dir]  (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure (-Wall -Wextra -Werror) =="
cmake -B "$BUILD_DIR" -S . -DTC3I_WERROR=ON >/dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j >/dev/null

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" >/dev/null
echo "tests passed"

echo "== instrumented smoke run =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$BUILD_DIR"/bench/table05_threat_tera \
    --trace-out "$SMOKE_DIR/t.json" \
    --report-out "$SMOKE_DIR/r.json" \
    --timeline-out "$SMOKE_DIR/tl.csv" \
    --sample-period 2048 \
    --counters >/dev/null
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/t.json" "$SMOKE_DIR/r.json" \
    "$SMOKE_DIR/tl.csv"

# The trace must carry all four simulator event categories and the report
# must carry comparison rows plus a populated counter snapshot.
for cat in issue memory sync spawn; do
  grep -q "\"cat\":\"$cat\"" "$SMOKE_DIR/t.json" ||
    { echo "FAIL: trace missing category '$cat'"; exit 1; }
done
grep -q '"label":' "$SMOKE_DIR/r.json" ||
  { echo "FAIL: report has no comparison rows"; exit 1; }
[ "$(grep -o '"mta\.[a-z0-9_.]*":' "$SMOKE_DIR/r.json" | sort -u | wc -l)" -ge 10 ] ||
  { echo "FAIL: report has fewer than 10 named counters"; exit 1; }
# The trace's MTA counter tracks are the sampled series, drawn on the same
# --sample-period grid: one issue_utilization event per timeline row.
TRACE_UTIL="$(grep -o '"name":"issue_utilization"' "$SMOKE_DIR/t.json" |
              wc -l)"
CSV_UTIL="$(grep -c ',issue_utilization,' "$SMOKE_DIR/tl.csv")"
[ "$CSV_UTIL" -gt 0 ] && [ "$TRACE_UTIL" -eq "$CSV_UTIL" ] ||
  { echo "FAIL: trace has $TRACE_UTIL issue_utilization counters, timeline" \
         "has $CSV_UTIL rows"; exit 1; }

echo "== sampled timeline + bottleneck verdicts =="
# The sampled timeline must be non-empty and strictly monotone in cycle
# within each (run, series) pair.
[ -s "$SMOKE_DIR/tl.csv" ] ||
  { echo "FAIL: sampled timeline CSV missing"; exit 1; }
awk -F, 'NR == 1 { next }
         { key = $1 "," $4 }
         key in last && $5 <= last[key] {
           print "FAIL: non-monotone cycle in " key; bad = 1; exit 1 }
         { last[key] = $5 }
         END { exit bad }' "$SMOKE_DIR/tl.csv" ||
  { echo "FAIL: timeline cycles not monotone"; exit 1; }

# The bottleneck analyzer must produce a verdict line for the smoke report,
# and a report diffed against itself must match exactly.
"$BUILD_DIR"/tools/obs_report bottleneck "$SMOKE_DIR/r.json" |
  grep -q '^verdict' ||
  { echo "FAIL: obs_report bottleneck printed no verdict"; exit 1; }
"$BUILD_DIR"/tools/obs_report diff "$SMOKE_DIR/r.json" "$SMOKE_DIR/r.json" \
  >/dev/null ||
  { echo "FAIL: obs_report diff self-diff reported differences"; exit 1; }

echo "== sweep telemetry (host section + scheduler trace + sweep view) =="
# A --jobs run with sweep telemetry enabled must write a schema-valid
# RunReport with a host section and a sweep-scheduler trace, and
# `obs_report sweep` must render the report with a sched line whose point
# count equals the trace's "run s<i>.p<j>" spans.
"$BUILD_DIR"/bench/table05_threat_tera \
    --jobs 4 \
    --report-out "$SMOKE_DIR/sw.json" \
    --sweep-trace-out "$SMOKE_DIR/sw_trace.json" >/dev/null
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/sw.json" "$SMOKE_DIR/sw_trace.json"
grep -q '"sched":{' "$SMOKE_DIR/sw.json" ||
  { echo "FAIL: report has no host.sched section"; exit 1; }
grep -q '"sweep scheduler"' "$SMOKE_DIR/sw_trace.json" ||
  { echo "FAIL: sweep trace has no scheduler track"; exit 1; }
"$BUILD_DIR"/tools/obs_report sweep "$SMOKE_DIR/sw.json" \
    > "$SMOKE_DIR/sw_view.txt"
SW_PTS="$(sed -n 's/^  sched: \([0-9][0-9]*\) points .*/\1/p' \
          "$SMOKE_DIR/sw_view.txt")"
SW_SPANS="$(grep -o '"name":"run s[0-9]*\.p[0-9]*"' \
            "$SMOKE_DIR/sw_trace.json" | wc -l)"
[ -n "$SW_PTS" ] && [ "$SW_PTS" -eq "$SW_SPANS" ] ||
  { echo "FAIL: obs_report sweep sched points '$SW_PTS' differ from the" \
         "trace's $SW_SPANS run spans"; exit 1; }
echo "sweep view: $SW_PTS points, as many as the trace's run spans"

echo "== parallel identity (--jobs 1 vs --jobs 4) =="
# --jobs is the only parallel axis and must be invisible in the output:
# every MTA table bench at --jobs 4 must print the same stdout and produce
# the same report as the serial --jobs 1 run.
for T in table05_threat_tera table06_threat_tera_chunks table11_terrain_tera
do
  # grep -v: the harness's "[obs] report: <path>" sideband line names the
  # output file, which legitimately differs between the two runs.
  "$BUILD_DIR"/bench/"$T" --jobs 1 \
      --report-out "$SMOKE_DIR/$T.j1.json" |
    grep -v '^\[obs\]' > "$SMOKE_DIR/$T.j1.out"
  "$BUILD_DIR"/bench/"$T" --jobs 4 \
      --report-out "$SMOKE_DIR/$T.j4.json" |
    grep -v '^\[obs\]' > "$SMOKE_DIR/$T.j4.out"
  diff "$SMOKE_DIR/$T.j1.out" "$SMOKE_DIR/$T.j4.out" >/dev/null ||
    { echo "FAIL: $T stdout differs at --jobs 4"; exit 1; }
  "$BUILD_DIR"/tools/json_check "$SMOKE_DIR/$T.j4.json"
  "$BUILD_DIR"/tools/obs_report diff "$SMOKE_DIR/$T.j1.json" \
      "$SMOKE_DIR/$T.j4.json" >/dev/null ||
    { echo "FAIL: $T report differs at --jobs 4"; exit 1; }
done
echo "jobs=4 identical to jobs=1 for tables 05/06/11"

# The live bus is sampled, never merged: the same sweep with the bus
# installed (--sweep-trace-out) and at a different --jobs must still
# produce the identical report, apart from the host section the bus adds
# (which must be there, so that --ignore host cannot hide a missing one).
"$BUILD_DIR"/bench/table05_threat_tera --jobs 3 \
    --sweep-trace-out "$SMOKE_DIR/bus_trace.json" \
    --report-out "$SMOKE_DIR/bus_report.json" >/dev/null
grep -q '"host":{' "$SMOKE_DIR/bus_report.json" ||
  { echo "FAIL: report written with the live bus has no host section"; \
    exit 1; }
"$BUILD_DIR"/tools/obs_report diff "$SMOKE_DIR/table05_threat_tera.j1.json" \
    "$SMOKE_DIR/bus_report.json" --ignore host >/dev/null ||
  { echo "FAIL: report changes when the live bus is installed"; exit 1; }
echo "report identical with the live bus installed"

echo "== cold testbed cache (kernel profiling on every core, off the bus) =="
# A cold cache profiles the kernels on every host core, on threads of its
# own: a cold and then a warm run of the same sweep, with the live bus
# installed (--sweep-trace-out), must print the same table and schedule
# the same points (host.sched), so profiling never reaches the bus. The
# cold run counts one cache miss and the warm run one hit.
sched_points() {
  sed -n 's/.*"sched":{"sweeps":[0-9]*,"points":\([0-9]*\).*/\1/p' "$1"
}
mkdir "$SMOKE_DIR/testbed_cache"
for RUN in cold warm; do
  TC3I_TESTBED_CACHE="$SMOKE_DIR/testbed_cache" \
      "$BUILD_DIR"/bench/table05_threat_tera --jobs 2 \
      --sweep-trace-out "$SMOKE_DIR/$RUN.trace.json" \
      --report-out "$SMOKE_DIR/$RUN.report.json" |
    grep -v '^\[obs\]' > "$SMOKE_DIR/$RUN.out"
  "$BUILD_DIR"/tools/json_check "$SMOKE_DIR/$RUN.report.json" >/dev/null
done
diff "$SMOKE_DIR/cold.out" "$SMOKE_DIR/warm.out" >/dev/null ||
  { echo "FAIL: table05 stdout differs between a cold and a warm cache"; \
    exit 1; }
COLD_PTS="$(sched_points "$SMOKE_DIR/cold.report.json")"
WARM_PTS="$(sched_points "$SMOKE_DIR/warm.report.json")"
[ -n "$COLD_PTS" ] && [ "$COLD_PTS" = "$WARM_PTS" ] ||
  { echo "FAIL: host.sched points cold=$COLD_PTS warm=$WARM_PTS differ"; \
    exit 1; }
grep -q '"testbed\.cache\.miss":1[,}]' "$SMOKE_DIR/cold.report.json" ||
  { echo "FAIL: cold run did not count one testbed cache miss"; exit 1; }
grep -q '"testbed\.cache\.hit":1[,}]' "$SMOKE_DIR/warm.report.json" ||
  { echo "FAIL: warm run did not count one testbed cache hit"; exit 1; }
echo "cold and warm cache: same stdout, $COLD_PTS sched points each," \
     "1 miss then 1 hit"

echo "== machine-run model validation =="
# Only the two machine models write machine_runs: a minimal valid report
# must pass, and the same report with any other model must be rejected.
cat > "$SMOKE_DIR/ok_model.json" <<'EOF'
{"bench":"fixture","schema_version":5,"config":{},"counters":{},"rows":[],
 "machine_runs":[{"model":"smp","name":"p","processors":1,
                  "utilization":0.5}]}
EOF
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/ok_model.json" >/dev/null ||
  { echo "FAIL: json_check rejected a valid smp machine-run fixture"; exit 1; }
sed 's/"model":"smp"/"model":"sthreads"/' "$SMOKE_DIR/ok_model.json" \
    > "$SMOKE_DIR/bad_model.json"
if "$BUILD_DIR"/tools/json_check "$SMOKE_DIR/bad_model.json" \
    >/dev/null 2>&1; then
  echo "FAIL: json_check accepted a machine run whose model is not mta or smp"
  exit 1
fi
echo "schema validation rejects a machine run of an unknown model"

echo "== TSan smoke (live bus, sweep runner, sthreads, native variants and testbed profiling under -fsanitize=thread) =="
# Prove the bus, run_sweep's pooled path and the sthreads primitives
# data-race-free under ThreadSanitizer where the toolchain supports it:
# obs_live_test races worker point records against progress() and
# summary() readers, sim_sweep_test drives the shared per-point body from
# pool workers with a bus installed, sthreads_test exercises every
# primitive, the two variant tests run the native Threat Analysis and
# Terrain Masking variants on parallel_for, SpinLock and SyncCounter, and
# testbed_cache_test profiles the testbed kernels on every core.
if printf 'int main(){return 0;}' |
    c++ -fsanitize=thread -x c++ - -o "$SMOKE_DIR/tsan_probe" 2>/dev/null &&
    "$SMOKE_DIR/tsan_probe" 2>/dev/null; then
  TSAN_DIR="build-tsan"
  cmake -B "$TSAN_DIR" -S . -DTC3I_SANITIZE=thread -DTC3I_WERROR=ON \
      >/dev/null
  TSAN_TESTS="obs_live_test sim_sweep_test sthreads_test threat_variants_test \
terrain_variants_test testbed_cache_test"
  cmake --build "$TSAN_DIR" --target $TSAN_TESTS -j >/dev/null
  for T in $TSAN_TESTS; do
    "$TSAN_DIR"/tests/"$T" >/dev/null ||
      { echo "FAIL: $T failed under TSan"; exit 1; }
  done
  echo "clean under ThreadSanitizer: $TSAN_TESTS"
else
  echo "skipped: toolchain lacks -fsanitize=thread support"
fi

echo "== ASan smoke (obs_live_test + sim_sweep_test + sim_wake_queue_test + sim_fluid_test + mta_sync_memory_test + mta_machine_test + mta_fuzz_test + mta_slot_accounting_test + obs_timeline_test + testbed_cache_test + threat_physics_test + threat_variants_test + terrain_kernel_test + smp_machine_test + sthreads_test + obs_counters_test + obs_report_test under -fsanitize=address) =="
# Prove the sweep bus, run_sweep's pooled path with a bus installed, the
# wake queue's lane rings, the full/empty memory's mapping, the MTA core
# (its machine tests, its fast path fuzzed against its slow reference,
# its idle-slot census and its sampled ready count), the testbed cache
# with the parallel kernel profiling behind it, the threat kernel's
# per-threat step buffers (its physics and variant tests), the terrain
# kernel, the SMP engine's reused settle and water-fill buffers and the
# water fill itself, the sthreads primitives, the counter registry (every
# layer adds to it by name when its work ends, also after a parallel
# sweep has freed its points' registries), and the report readers
# (obs_report_test drives the ASan-built obs_report and json_check) free
# of memory errors under AddressSanitizer where the toolchain supports
# it. obs_counters_test stays out of the TSan stage: its death test forks.
if printf 'int main(){return 0;}' |
    c++ -fsanitize=address -x c++ - -o "$SMOKE_DIR/asan_probe" 2>/dev/null &&
    "$SMOKE_DIR/asan_probe" 2>/dev/null; then
  ASAN_DIR="build-asan"
  cmake -B "$ASAN_DIR" -S . -DTC3I_SANITIZE=address -DTC3I_WERROR=ON \
      >/dev/null
  ASAN_TESTS="obs_live_test sim_sweep_test sim_wake_queue_test sim_fluid_test \
mta_sync_memory_test mta_machine_test mta_fuzz_test mta_slot_accounting_test \
obs_timeline_test testbed_cache_test \
threat_physics_test threat_variants_test terrain_kernel_test smp_machine_test \
sthreads_test obs_counters_test obs_report_test"
  cmake --build "$ASAN_DIR" --target $ASAN_TESTS -j >/dev/null
  for T in $ASAN_TESTS; do
    "$ASAN_DIR"/tests/"$T" >/dev/null ||
      { echo "FAIL: $T failed under ASan"; exit 1; }
  done
  echo "clean under AddressSanitizer: $ASAN_TESTS"
else
  echo "skipped: toolchain lacks -fsanitize=address support"
fi

echo "== Release build (-O3, -Werror) =="
# The documented build types must all compile warning-free; Release
# inlines more deeply than RelWithDebInfo and surfaces different warnings.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DTC3I_WERROR=ON \
    >/dev/null
cmake --build build-release -j "$(nproc)" >/dev/null
echo "Release build clean under -Werror"

echo "== perf smoke (sim_throughput vs committed baseline) =="
# The committed baseline is a RunReport, and must stay one that json_check
# accepts.
"$BUILD_DIR"/tools/json_check bench/BENCH_sim_throughput.json
# Fails (exit 1) when any throughput metric drops below 70% of the
# committed bench/BENCH_sim_throughput.json (--min-ratio default 0.7,
# i.e. a >30% regression).
"$BUILD_DIR"/bench/sim_throughput \
    --report-out "$SMOKE_DIR/sim_throughput.json" \
    --baseline bench/BENCH_sim_throughput.json
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/sim_throughput.json"

# Sweep telemetry must stay cheap: running a 100-point sweep with the
# full telemetry stack (live bus + report/trace serialization) must keep
# at least 95% of the plain sweep throughput.
extract_measured() {
  grep -o "\"label\":\"$1\",\"paper\":[0-9.eE+-]*,\"measured\":[0-9.eE+-]*" \
      "$SMOKE_DIR/sim_throughput.json" | sed 's/.*"measured"://'
}
SP="$(extract_measured 'sweep_plain.points_per_sec')"
ST="$(extract_measured 'sweep_telemetry.points_per_sec')"
[ -n "$SP" ] && [ -n "$ST" ] ||
  { echo "FAIL: sim_throughput report missing sweep_plain/telemetry rows"; \
    exit 1; }
awk -v sp="$SP" -v st="$ST" 'BEGIN { exit !(st >= 0.95 * sp) }' ||
  { echo "FAIL: sweep_telemetry $ST < 0.95 x sweep_plain $SP points/s"; \
    exit 1; }
echo "sweep telemetry overhead within budget ($ST vs plain $SP points/s)"

echo "== perf trend gate (bench/BENCH_history.jsonl) =="
# Append this run's sim_throughput rows to a scratch copy of the committed
# history (the check never modifies committed files), then gate the newest
# entry against the trailing window (median - k x MAD robust floor, plus a
# minimum-drop threshold; see run_trend in tools/obs_report.cpp). The gate
# must also demonstrably fire: the same run appended at a 2x slowdown must fail.
cp bench/BENCH_history.jsonl "$SMOKE_DIR/history.jsonl"
"$BUILD_DIR"/tools/obs_report trend append "$SMOKE_DIR/history.jsonl" \
    "$SMOKE_DIR/sim_throughput.json"
"$BUILD_DIR"/tools/obs_report trend check "$SMOKE_DIR/history.jsonl" ||
  { echo "FAIL: perf trend gate flagged this run as a regression"; exit 1; }
cp "$SMOKE_DIR/history.jsonl" "$SMOKE_DIR/hist_bad.jsonl"
"$BUILD_DIR"/tools/obs_report trend append "$SMOKE_DIR/hist_bad.jsonl" \
    "$SMOKE_DIR/sim_throughput.json" --scale 0.5
if "$BUILD_DIR"/tools/obs_report trend check "$SMOKE_DIR/hist_bad.jsonl" \
    >/dev/null 2>&1; then
  echo "FAIL: perf trend gate did not flag an injected 2x slowdown"; exit 1
fi
echo "perf trend gate passes on this run, fails on injected 2x slowdown"

echo "ALL CHECKS PASSED"
