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

echo "== critical-path capture + what-if projections =="
# Re-run the smoke bench with --critpath: the report gains per-run
# "critical_path" sections (schema-checked by json_check), obs_report
# whatif must print a projection table, and the critical-path verdicts must
# agree with the slot-account verdicts run for run. The report produced WITHOUT
# the flag must carry no critical_path section at all (capture is opt-in).
if grep -q '"critical_path"' "$SMOKE_DIR/r.json"; then
  echo "FAIL: report without --critpath carries critical_path"; exit 1
fi
"$BUILD_DIR"/bench/table05_threat_tera \
    --critpath \
    --report-out "$SMOKE_DIR/cp.json" >/dev/null
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/cp.json"
grep -q '"critical_path"' "$SMOKE_DIR/cp.json" ||
  { echo "FAIL: --critpath report has no critical_path sections"; exit 1; }
"$BUILD_DIR"/tools/obs_report whatif "$SMOKE_DIR/cp.json" |
  grep -q 'memory_latency' ||
  { echo "FAIL: obs_report whatif printed no projection rows"; exit 1; }
# Both modes print identically formatted `verdict run=...` lines, so
# run-for-run agreement is a plain diff of the two filtered outputs.
diff <("$BUILD_DIR"/tools/obs_report bottleneck "$SMOKE_DIR/cp.json" |
         grep '^verdict run') \
     <("$BUILD_DIR"/tools/obs_report bottleneck --critical-path \
         "$SMOKE_DIR/cp.json" | grep '^verdict run') ||
  { echo "FAIL: critical-path verdicts disagree with slot account"; exit 1; }

echo "== sweep telemetry (report + trace + independent recomputation) =="
# A --jobs run with sweep telemetry enabled must produce a schema-valid
# SweepReport and sweep-scheduler trace, and the report's aggregate
# sections must match an independent recomputation from the per-run
# RunReport (host accounting differs by construction: --from-runs has no
# host to sample).
"$BUILD_DIR"/bench/table05_threat_tera \
    --jobs 4 \
    --report-out "$SMOKE_DIR/sw_runs.json" \
    --sweep-report-out "$SMOKE_DIR/sw.json" \
    --sweep-trace-out "$SMOKE_DIR/sw_trace.json" >/dev/null
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/sw.json" "$SMOKE_DIR/sw_trace.json"
grep -q '"kind":"sweep_report"' "$SMOKE_DIR/sw.json" ||
  { echo "FAIL: sweep report missing kind=sweep_report"; exit 1; }
grep -q '"sweep scheduler"' "$SMOKE_DIR/sw_trace.json" ||
  { echo "FAIL: sweep trace has no scheduler track"; exit 1; }
"$BUILD_DIR"/tools/obs_report sweep --from-runs "$SMOKE_DIR/sw_runs.json" \
    > "$SMOKE_DIR/sw_recomputed.json"
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/sw_recomputed.json"
"$BUILD_DIR"/tools/obs_report diff "$SMOKE_DIR/sw.json" \
    "$SMOKE_DIR/sw_recomputed.json" --ignore host >/dev/null ||
  { echo "FAIL: sweep report disagrees with recomputation from runs"; \
    exit 1; }
echo "sweep report matches independent recomputation"

echo "== parallel identity (--jobs 1 vs --jobs 4) =="
# --jobs is the only parallel axis and must be invisible in the output:
# every MTA table bench at --jobs 4 must print the same stdout and produce
# the same report as the serial --jobs 1 run, modulo wall-clock timings.
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
      "$SMOKE_DIR/$T.j4.json" --ignore mta.run.wall_seconds >/dev/null ||
    { echo "FAIL: $T report differs at --jobs 4"; exit 1; }
done
echo "jobs=4 identical to jobs=1 for tables 05/06/11 (modulo wall time)"

# The live bus is sampled, never merged: the same sweep with the bus
# installed (--status-out) and at a different --jobs must still produce
# the identical report.
"$BUILD_DIR"/bench/table05_threat_tera --jobs 3 \
    --status-out "$SMOKE_DIR/bus_status.json" \
    --report-out "$SMOKE_DIR/bus_report.json" >/dev/null
"$BUILD_DIR"/tools/obs_report diff "$SMOKE_DIR/table05_threat_tera.j1.json" \
    "$SMOKE_DIR/bus_report.json" --ignore mta.run.wall_seconds \
    >/dev/null ||
  { echo "FAIL: report changes when the live bus is installed"; exit 1; }
echo "report identical with the live bus installed"

echo "== live status bus (--status-out + obs_report monitor) =="
# The live-telemetry tentpole: a sweep run with --status-out must publish
# monotonically-advancing snapshots while it runs, finish with a done=true
# snapshot, validate against json_check's live_status schema, and be
# readable by obs_report monitor in both CI (--once) and follow modes. The
# bus records each point once, so the final status counts, the SweepReport's
# scheduler section and the sweep trace's "run s<i>.p<j>" spans must all
# name the same number of points.
STATUS="$SMOKE_DIR/live.json"
"$BUILD_DIR"/bench/table05_threat_tera --jobs 2 \
    --status-out "$STATUS" --status-period 50 \
    --sweep-report-out "$SMOKE_DIR/live_sweep.json" \
    --sweep-trace-out "$SMOKE_DIR/live_trace.json" >/dev/null &
LIVE_PID=$!
LAST_VER=0
MONO=ok
while kill -0 "$LIVE_PID" 2>/dev/null; do
  if [ -f "$STATUS" ]; then
    VER="$(grep -o '"version":[0-9][0-9]*' "$STATUS" | head -1 |
           cut -d: -f2 || true)"
    if [ -n "$VER" ]; then
      [ "$VER" -ge "$LAST_VER" ] ||
        { echo "FAIL: status version went backwards ($LAST_VER -> $VER)"; \
          MONO=bad; }
      LAST_VER="$VER"
    fi
  fi
  sleep 0.05
done
wait "$LIVE_PID" ||
  { echo "FAIL: table05 with --status-out exited nonzero"; exit 1; }
[ "$MONO" = ok ] || exit 1
[ "$LAST_VER" -ge 1 ] ||
  { echo "FAIL: no live status snapshot was published"; exit 1; }
"$BUILD_DIR"/tools/json_check "$STATUS"
grep -q '"done":true' "$STATUS" ||
  { echo "FAIL: final status snapshot is not done=true"; exit 1; }
# [0-9][0-9]* (one-or-more): with a bare *, the boolean top-level
# "done":true would match with zero digits and yield an empty value.
LIVE_DONE="$(grep -o '"done":[0-9][0-9]*' "$STATUS" | head -1 |
             cut -d: -f2)"
LIVE_TOTAL="$(grep -o '"total":[0-9][0-9]*' "$STATUS" | head -1 |
              cut -d: -f2)"
SCHED_PTS="$(sed -n \
    's/.*"sched":{"sweeps":[0-9]*,"points":\([0-9]*\).*/\1/p' \
    "$SMOKE_DIR/live_sweep.json")"
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/live_trace.json" >/dev/null
RUN_SPANS="$(grep -o '"name":"run s[0-9]*\.p[0-9]*"' \
             "$SMOKE_DIR/live_trace.json" | wc -l)"
[ -n "$LIVE_DONE" ] && [ "$LIVE_DONE" = "$LIVE_TOTAL" ] &&
    [ "$LIVE_DONE" = "$SCHED_PTS" ] && [ "$LIVE_DONE" -eq "$RUN_SPANS" ] ||
  { echo "FAIL: status counts done=$LIVE_DONE total=$LIVE_TOTAL disagree" \
         "with sweep report points=$SCHED_PTS or trace run spans" \
         "$RUN_SPANS"; exit 1; }
"$BUILD_DIR"/tools/obs_report monitor "$STATUS" --once | grep -q 'done=1' ||
  { echo "FAIL: obs_report monitor --once did not report done=1"; exit 1; }
# done=true is already on disk, so follow mode must exit 0 immediately.
"$BUILD_DIR"/tools/obs_report monitor "$STATUS" --follow --timeout 10 \
    >/dev/null ||
  { echo "FAIL: obs_report monitor --follow did not exit cleanly"; exit 1; }
echo "live status: $LAST_VER snapshots, final counts match sweep report" \
     "and trace ($LIVE_DONE/$LIVE_TOTAL points)"

echo "== watchdog (forced anomaly -> status -> monitor) =="
# A sweep with an injected 600ms stall on point 1 and a 0.2s watchdog
# heartbeat timeout must trip a stalled_worker anomaly. Its status file
# must validate (json_check live_status pass), and obs_report monitor
# --once must exit 3 on the anomalous final status.
WSTATUS="$SMOKE_DIR/watchdog_live.json"
TC3I_INJECT_SLOW_POINT="1:600" "$BUILD_DIR"/bench/table05_threat_tera \
    --jobs 2 \
    --status-out "$WSTATUS" --status-period 25 \
    --watchdog-timeout 0.2 >/dev/null ||
  { echo "FAIL: table05 with an injected stall exited nonzero"; exit 1; }
"$BUILD_DIR"/tools/json_check "$WSTATUS"
MON_RC=0
"$BUILD_DIR"/tools/obs_report monitor "$WSTATUS" --once >/dev/null || MON_RC=$?
[ "$MON_RC" -eq 3 ] ||
  { echo "FAIL: obs_report monitor --once exited $MON_RC, expected 3" \
         "(anomalies present)"; exit 1; }
echo "status validated, monitor flagged the injected stall with exit 3"

# Referential validation must actually reject: a minimal v5 report whose
# anomaly pins point 5 when machine_runs holds a single run is corrupt.
cat > "$SMOKE_DIR/bad_anomaly.json" <<'EOF'
{"bench":"fixture","schema_version":5,"config":{},"counters":{},
 "gauges":{},"histograms":{},"rows":[],"notes":[],
 "machine_runs":[{"model":"smp","name":"p","processors":1,
                  "utilization":0.5}],
 "anomalies":[{"kind":"slow_point","worker":0,"point":5,"at_seconds":1,
               "observed_seconds":2,"threshold_seconds":1}]}
EOF
if "$BUILD_DIR"/tools/json_check "$SMOKE_DIR/bad_anomaly.json" \
    >/dev/null 2>&1; then
  echo "FAIL: json_check accepted an anomaly pointing past machine_runs"
  exit 1
fi
# The same fixture with an in-range point must pass (the rejection above
# is the referential check, not some other schema complaint).
sed 's/"point":5/"point":0/' "$SMOKE_DIR/bad_anomaly.json" \
    > "$SMOKE_DIR/ok_anomaly.json"
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/ok_anomaly.json" >/dev/null ||
  { echo "FAIL: json_check rejected an in-range anomaly fixture"; exit 1; }
echo "referential anomaly validation rejects out-of-range point"
# Only the two machine models write machine_runs: the same valid fixture
# with any other model must be rejected.
sed 's/"model":"smp"/"model":"sthreads"/' "$SMOKE_DIR/ok_anomaly.json" \
    > "$SMOKE_DIR/bad_model.json"
if "$BUILD_DIR"/tools/json_check "$SMOKE_DIR/bad_model.json" \
    >/dev/null 2>&1; then
  echo "FAIL: json_check accepted a machine run whose model is not mta or smp"
  exit 1
fi
echo "schema validation rejects a machine run of an unknown model"

echo "== TSan smoke (live bus, sweep runner, sthreads and native variants under -fsanitize=thread) =="
# Prove the bus, run_sweep's pooled path and the sthreads primitives
# data-race-free under ThreadSanitizer where the toolchain supports it:
# the LivePublisherTest cases race worker point records against the
# publisher fold, sim_sweep_test drives the shared per-point body from
# pool workers with a bus installed, the two sthreads tests exercise every
# primitive, and the two variant tests run the native Threat Analysis and
# Terrain Masking variants on parallel_for, SpinLock and SyncCounter.
if printf 'int main(){return 0;}' |
    c++ -fsanitize=thread -x c++ - -o "$SMOKE_DIR/tsan_probe" 2>/dev/null &&
    "$SMOKE_DIR/tsan_probe" 2>/dev/null; then
  TSAN_DIR="build-tsan"
  cmake -B "$TSAN_DIR" -S . -DTC3I_SANITIZE=thread -DTC3I_WERROR=ON \
      >/dev/null
  TSAN_TESTS="obs_live_test sim_sweep_test sthreads_test sthreads_future_test \
threat_variants_test terrain_variants_test"
  cmake --build "$TSAN_DIR" --target $TSAN_TESTS -j >/dev/null
  for T in $TSAN_TESTS; do
    "$TSAN_DIR"/tests/"$T" >/dev/null ||
      { echo "FAIL: $T failed under TSan"; exit 1; }
  done
  echo "clean under ThreadSanitizer: $TSAN_TESTS"
else
  echo "skipped: toolchain lacks -fsanitize=thread support"
fi

echo "== ASan smoke (obs_live_test + sim_sweep_test + sim_wake_queue_test + mta_fuzz_test under -fsanitize=address) =="
# Prove the live bus, run_sweep's pooled path with a bus installed, the
# wake queue's lane rings, and the MTA core's fast path (fuzzed against its
# slow reference) free of memory errors under AddressSanitizer where the
# toolchain supports it.
if printf 'int main(){return 0;}' |
    c++ -fsanitize=address -x c++ - -o "$SMOKE_DIR/asan_probe" 2>/dev/null &&
    "$SMOKE_DIR/asan_probe" 2>/dev/null; then
  ASAN_DIR="build-asan"
  cmake -B "$ASAN_DIR" -S . -DTC3I_SANITIZE=address -DTC3I_WERROR=ON \
      >/dev/null
  ASAN_TESTS="obs_live_test sim_sweep_test sim_wake_queue_test mta_fuzz_test"
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
# Fails (exit 1) when any throughput metric drops below 70% of the
# committed bench/BENCH_sim_throughput.json (--min-ratio default 0.7,
# i.e. a >30% regression).
"$BUILD_DIR"/bench/sim_throughput \
    --report-out "$SMOKE_DIR/sim_throughput.json" \
    --baseline bench/BENCH_sim_throughput.json
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/sim_throughput.json"

# Capture must stay cheap: the critpath_overhead regime (saturated scenario
# re-run with a live CritPathStore) must keep at least half the plain
# saturated throughput, i.e. under a 2x slowdown.
extract_measured() {
  grep -o "\"label\":\"$1\",\"paper\":[0-9.eE+-]*,\"measured\":[0-9.eE+-]*" \
      "$SMOKE_DIR/sim_throughput.json" | sed 's/.*"measured"://'
}
SAT="$(extract_measured 'saturated.cycles_per_sec')"
CPO="$(extract_measured 'critpath_overhead.cycles_per_sec')"
[ -n "$SAT" ] && [ -n "$CPO" ] ||
  { echo "FAIL: sim_throughput report missing saturated/critpath rows"; \
    exit 1; }
awk -v sat="$SAT" -v cpo="$CPO" 'BEGIN { exit !(cpo >= 0.5 * sat) }' ||
  { echo "FAIL: critpath_overhead $CPO < 0.5 x saturated $SAT"; exit 1; }
echo "critpath overhead within budget ($CPO vs saturated $SAT cycles/s)"

# Sweep telemetry must stay cheap too: running a 100-point sweep with the
# full telemetry stack (live bus + aggregation + report/trace
# serialization) must keep at least 95% of the plain sweep throughput.
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
