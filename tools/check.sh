#!/usr/bin/env bash
# Pre-merge gate: every claim the repo makes, re-verified from scratch.
#
#   1. plain build + full tier-1 test suite (kernel IR and netlists pass
#      their validators before a simulated device runs them, so this run
#      checks every artifact it makes),
#   2. ASan+UBSan build + tier-1,
#   3. TSan build + tier-1 (the runtime's concurrency claims),
#   4. remote loopback soak — lmdev serves examples/intpipe.lime from a
#      second process; lmc runs against it and the output must be identical
#      to a cpu-only run, including when the server crashes mid-stream
#      (deterministically via --fail-after, and best-effort via kill -9):
#      the runtime must complete on the local bytecode fallback. Repeated
#      under TSan (unless --quick) to race-check the transport. While each
#      lmdev serves, `lmtop --check` scrapes its /metrics at 10 Hz: one
#      malformed exposition or a wedged exporter (zero successful scrapes)
#      fails the gate; an endpoint dying mid-soak (fail-after, kill -9)
#      is expected and tolerated. A final pass scrapes lmc's own runtime
#      exporter (--telemetry-port) mid-run and asserts the attribution
#      (lm_attr_*) and executor queue-wait series are already published.
#   5. critical-path attribution gate — `lmc --explain=json` over a
#      pipeline run: every attributed graph's category totals must sum to
#      within 5% of its wall time, and two `--sched-seed` runs must yield
#      byte-identical structural attribution (DESIGN.md §12),
#   6. executor soak — a thousand task graphs multiplexed over a fixed
#      worker pool (thread count must stay O(workers), results exact),
#      run standalone in the plain build and again under TSan so the
#      executor's work-stealing and wake-up paths are race-checked at
#      full load.
#   7. `lmc --analyze --strict` over every shipped .lime example — the
#      static analyzer must report zero warnings/errors on them.
#   8. minimal-capacity differential soak — the deadlock verifier's
#      `--analyze=json` output names the minimal safe FIFO capacity per
#      graph; re-running the example pipelines at exactly that capacity
#      must produce byte-identical results to the default capacity
#      (plain build, and again under TSan unless --quick).
#   9. artifact cache soak (DESIGN.md §14) — cold compile populates a
#      fresh cache (stores, zero hits); a warm recompile must hit on every
#      backend (cpu/gpu/fpga) with byte-identical run output and zero
#      misses; the cache-served netlists must print byte-identical Verilog
#      (`--emit=verilog`) to freshly synthesized ones, since entries hold
#      no text; corrupting one on-disk entry must be detected (cache.errors)
#      and recovered from with identical output; finally an lmdev compiled
#      with --cache=rw doubles as a compile service and a cache-off lmc
#      --compile-from peer must fetch every artifact by content key and
#      again produce identical output. Repeated under ASan+UBSan and TSan
#      (unless --quick).
#  10. fleet telemetry soak (DESIGN.md §15) — three lmdev exporters
#      scraped as one fleet at 10 Hz (lmtop --fleet --check) while a
#      loopback workload runs against one of them: all three must rank up
#      and the SLO rules must hold; then one server is kill -9ed and the
#      next check must rank it down within one staleness deadline and turn
#      the scrape_staleness SLO violation into a nonzero exit. Repeated
#      under TSan (unless --quick) to race-check the scraper fan-out.
#  11. clang-tidy (bugprone-*, performance-*, concurrency-*; see
#      .clang-tidy) over src/analysis + src/runtime. Skipped with a notice
#      when clang-tidy is not installed — the gate must not require it.
#
# Usage: tools/check.sh [--quick]
#   --quick skips the sanitizer builds (steps 2 and 3).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

step() { printf '\n== %s ==\n' "$*"; }

# Extracts the result line ("[i32 value ...]{...}") from an lmc run.
result_of() { grep '^\[' <<<"$1" | head -1; }

# Extracts the artifact listing of an `lmc --emit=...` run: everything from
# the first "// ==== <task id> ====" header on, past the backend log.
emitted_of() { sed -n '/^\/\/ ==== /,$p' <<<"$1"; }

# Remote loopback soak against the binaries in $1 ("$2" labels the step,
# $3 is the element count — smaller under TSan).
soak() {
  local bdir="$1" label="$2" n="$3"
  local lmc="$bdir/tools/lmc" lmdev="$bdir/tools/lmdev"
  local ints
  ints="$(seq 1 "$n" | paste -sd, -)"
  local log out expected got pid port
  log="$(mktemp)"

  spawn_lmdev() {  # $@ = extra lmdev flags; sets $pid, $port and $tport
    : >"$log"
    "$lmdev" examples/intpipe.lime --quiet --telemetry-port 0 "$@" \
        >"$log" 2>&1 &
    pid=$!
    port=""; tport=""
    for _ in $(seq 1 100); do
      port="$(sed -n 's/.*serving .* on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$log")"
      tport="$(sed -n 's/.*telemetry on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$log")"
      [[ -n "$port" && -n "$tport" ]] && break
      sleep 0.1
    done
    [[ -n "$port" && -n "$tport" ]] || { echo "FAIL($label): lmdev never printed its endpoints"; cat "$log"; exit 1; }
  }

  # 10 Hz `lmtop --check` against a live exporter. The endpoint dying
  # mid-soak is expected (fail-after / kill -9 take the process down);
  # a malformed exposition or a non-200 is always fatal, and so is an
  # exporter that never answered one scrape (wedged).
  scrape_log=""
  scraper_pid=""
  start_scraper() {  # $1 = telemetry port
    scrape_log="$(mktemp)"
    local lmtop="$bdir/tools/lmtop" tp="$1"
    (
      while :; do
        "$lmtop" "127.0.0.1:$tp" --check >>"$scrape_log" 2>&1 || true
        sleep 0.1
      done
    ) &
    scraper_pid=$!
  }
  stop_scraper() {
    kill "$scraper_pid" 2>/dev/null || true
    wait "$scraper_pid" 2>/dev/null || true
    if grep -qE 'malformed exposition|/metrics returned' "$scrape_log"; then
      echo "FAIL($label): telemetry exposition broke under load"
      cat "$scrape_log"; exit 1
    fi
    grep -q '^ok:' "$scrape_log" || {
      echo "FAIL($label): telemetry exporter never answered a scrape"
      cat "$scrape_log"; exit 1; }
    rm -f "$scrape_log"
  }

  step "remote loopback soak ($label)"
  expected="$(result_of "$("$lmc" examples/intpipe.lime --run IntPipe.run \
      --ints "$ints" --placement cpu --quiet)")"
  [[ -n "$expected" ]] || { echo "FAIL($label): no local reference output"; exit 1; }

  # 4a. differential: remote run must be bit-identical to the cpu-only run
  # and must actually have substituted the remote artifact.
  spawn_lmdev
  start_scraper "$tport"
  out="$("$lmc" examples/intpipe.lime --run IntPipe.run --ints "$ints" \
      --remote="127.0.0.1:$port")"
  stop_scraper
  kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true
  got="$(result_of "$out")"
  [[ "$got" == "$expected" ]] || { echo "FAIL($label): remote output diverged"; echo "want: $expected"; echo "got:  $got"; exit 1; }
  grep -q "@127\.0\.0\.1:$port" <<<"$out" || { echo "FAIL($label): no remote substitution happened"; echo "$out"; exit 1; }
  echo "ok: remote differential (scraped at 10 Hz)"

  # 4b. deterministic mid-stream crash (--fail-after): the run must still
  # exit 0 with identical output, completing on the bytecode fallback.
  spawn_lmdev --fail-after 2
  start_scraper "$tport"
  out="$("$lmc" examples/intpipe.lime --run IntPipe.run --ints "$ints" \
      --remote="127.0.0.1:$port" --device-batch=64)"
  stop_scraper
  kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true
  got="$(result_of "$out")"
  [[ "$got" == "$expected" ]] || { echo "FAIL($label): output diverged across server crash"; echo "$out"; exit 1; }
  grep -q "re-substituted" <<<"$out" || { echo "FAIL($label): crash did not trigger the bytecode fallback"; echo "$out"; exit 1; }
  grep -q "remote-failure" <<<"$out" || { echo "FAIL($label): fallback not attributed to remote-failure"; echo "$out"; exit 1; }
  echo "ok: deterministic crash fallback"

  # 4c. best-effort kill -9 mid-run: completion + identical output are
  # required; whether the fallback fired depends on timing, so only the
  # invariants are asserted.
  spawn_lmdev
  "$lmc" examples/intpipe.lime --run IntPipe.run --ints "$ints" \
      --remote="127.0.0.1:$port" --device-batch=64 >"$log.out" 2>&1 &
  local cpid=$!
  sleep 0.2
  kill -9 "$pid" 2>/dev/null || true
  wait "$cpid" || { echo "FAIL($label): lmc died after kill -9 of lmdev"; cat "$log.out"; exit 1; }
  wait "$pid" 2>/dev/null || true
  got="$(result_of "$(cat "$log.out")")"
  [[ "$got" == "$expected" ]] || { echo "FAIL($label): output diverged across kill -9"; cat "$log.out"; exit 1; }
  echo "ok: kill -9 survival"

  # 4d. the runtime's own exporter, scraped strictly mid-run: lmc streams
  # a long per-element remote exchange (--device-batch=1); the moment its
  # telemetry endpoint appears we SIGSTOP lmdev, freezing lmc inside a
  # pending reply (request timeout is 30 s, a 100 ms pause is invisible),
  # scrape the live /metrics, then SIGCONT and let the run finish.
  local ints4 expected4
  ints4="$(seq 1 16384 | paste -sd, -)"
  expected4="$(result_of "$("$lmc" examples/intpipe.lime --run IntPipe.run \
      --ints "$ints4" --placement cpu --quiet)")"
  spawn_lmdev
  "$lmc" examples/intpipe.lime --run IntPipe.run --ints "$ints4" \
      --remote="127.0.0.1:$port" --device-batch=1 --telemetry-port=0 \
      >"$log.out" 2>&1 &
  local cpid2=$! ctport=""
  for _ in $(seq 1 500); do
    ctport="$(sed -n 's/.*telemetry on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$log.out")"
    [[ -n "$ctport" ]] && break
    sleep 0.02
  done
  [[ -n "$ctport" ]] || { echo "FAIL($label): lmc never printed its telemetry endpoint"; cat "$log.out"; exit 1; }
  kill -STOP "$pid" 2>/dev/null || true
  # The runtime exporter must already publish the attribution + queue-wait
  # series mid-run (attr.analyzed_graphs is exported from the first scrape,
  # value 0 until a graph finishes).
  "$bdir/tools/lmtop" "127.0.0.1:$ctport" \
      --check-series=lm_attr_analyzed_graphs,lm_executor_queue_wait_us \
      || { echo "FAIL($label): lmc exposition failed the grammar check"; cat "$log.out"; exit 1; }
  kill -CONT "$pid" 2>/dev/null || true
  wait "$cpid2" || { echo "FAIL($label): lmc with --telemetry-port exited nonzero"; cat "$log.out"; exit 1; }
  kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true
  got="$(result_of "$(cat "$log.out")")"
  [[ "$got" == "$expected4" ]] || { echo "FAIL($label): output diverged with the exporter live"; cat "$log.out"; exit 1; }
  echo "ok: runtime exporter scrape mid-run"
  rm -f "$log" "$log.out"
}

# Artifact cache soak ($1 = build dir, $2 = label): cold/warm differential,
# corruption recovery, and the lmdev compile-service loopback warm start.
cache_soak() {
  local bdir="$1" label="$2"
  local lmc="$bdir/tools/lmc" lmdev="$bdir/tools/lmdev"
  local cdir ints expected cold warm out got victim log pid port fresh
  cdir="$(mktemp -d)"
  ints="$(seq 1 256 | paste -sd, -)"
  step "artifact cache soak ($label)"

  # 9a. cold: a fresh cache stores every backend artifact, hits nothing.
  expected="$(result_of "$("$lmc" examples/intpipe.lime --run IntPipe.run \
      --ints "$ints" --quiet)")"
  [[ -n "$expected" ]] || { echo "FAIL($label): no cache-off reference output"; exit 1; }
  cold="$("$lmc" examples/intpipe.lime --run IntPipe.run --ints "$ints" \
      --cache=rw --cache-dir="$cdir")"
  got="$(result_of "$cold")"
  [[ "$got" == "$expected" ]] || { echo "FAIL($label): cold cached output diverged"; echo "$cold"; exit 1; }
  grep -q 'cache.hits=0 ' <<<"$cold" || { echo "FAIL($label): cold run reported hits"; echo "$cold"; exit 1; }
  grep -q 'cache.stores=[1-9]' <<<"$cold" || { echo "FAIL($label): cold run stored nothing"; echo "$cold"; exit 1; }
  echo "ok: cold run populated the cache"

  # 9b. warm: every backend must hit (no local compiles at all) and the
  # run output must be byte-identical.
  warm="$("$lmc" examples/intpipe.lime --run IntPipe.run --ints "$ints" \
      --cache=rw --cache-dir="$cdir")"
  got="$(result_of "$warm")"
  [[ "$got" == "$expected" ]] || { echo "FAIL($label): warm cached output diverged"; echo "$warm"; exit 1; }
  grep -q 'cpu: bytecode module (cached)' <<<"$warm" || { echo "FAIL($label): warm start recompiled the bytecode module"; echo "$warm"; exit 1; }
  grep -Eq 'gpu: .*\(cached\)' <<<"$warm" || { echo "FAIL($label): no gpu cache hit on warm start"; echo "$warm"; exit 1; }
  grep -Eq 'fpga: .*\(cached\)' <<<"$warm" || { echo "FAIL($label): no fpga cache hit on warm start"; echo "$warm"; exit 1; }
  if grep -E '^(cpu|gpu|fpga): ' <<<"$warm" | grep -qv '(cached)'; then
    echo "FAIL($label): warm start compiled something locally"; echo "$warm"; exit 1
  fi
  grep -q 'cache.misses=0 ' <<<"$warm" || { echo "FAIL($label): warm start missed"; echo "$warm"; exit 1; }
  echo "ok: warm start served every backend from cache"

  # 9c. the Verilog printed from cache-served netlists is byte-identical to
  # the Verilog of a fresh synthesis: entries hold the netlist, not text.
  fresh="$("$lmc" examples/intpipe.lime --emit=verilog)"
  warm="$("$lmc" examples/intpipe.lime --emit=verilog --cache=ro \
      --cache-dir="$cdir")"
  grep -Eq 'fpga: .*\(cached\)' <<<"$warm" || { echo "FAIL($label): --emit=verilog did not hit the cache"; echo "$warm"; exit 1; }
  if grep -E '^fpga: ' <<<"$warm" | grep -qv '(cached)'; then
    echo "FAIL($label): --emit=verilog synthesized a module locally"; echo "$warm"; exit 1
  fi
  [[ -n "$(emitted_of "$fresh")" ]] || { echo "FAIL($label): no Verilog from a fresh synthesis"; echo "$fresh"; exit 1; }
  diff <(emitted_of "$fresh") <(emitted_of "$warm") >/dev/null \
      || { echo "FAIL($label): cache-served Verilog differs from a fresh synthesis"; diff <(emitted_of "$fresh") <(emitted_of "$warm") | head -20; exit 1; }
  echo "ok: cache-served netlists print identical Verilog"

  # 9d. corruption recovery: truncate one on-disk entry; the next run must
  # detect it (cache.errors), recompile, and produce identical output.
  victim="$(ls "$cdir"/objects/*.art | head -1)"
  [[ -n "$victim" ]] || { echo "FAIL($label): cache dir has no entries"; ls -R "$cdir"; exit 1; }
  head -c 16 "$victim" > "$victim.tmp" && mv "$victim.tmp" "$victim"
  out="$("$lmc" examples/intpipe.lime --run IntPipe.run --ints "$ints" \
      --cache=rw --cache-dir="$cdir")"
  got="$(result_of "$out")"
  [[ "$got" == "$expected" ]] || { echo "FAIL($label): output diverged after entry corruption"; echo "$out"; exit 1; }
  grep -q 'cache.errors=[1-9]' <<<"$out" || { echo "FAIL($label): corrupted entry not detected"; echo "$out"; exit 1; }
  echo "ok: corrupt-entry recovery"

  # 9e. compile-service loopback warm start: lmdev (compiled with caching)
  # serves artifacts by content key; a cache-off lmc fetches all of them
  # instead of compiling, and the run output stays identical.
  log="$(mktemp)"
  "$lmdev" examples/intpipe.lime --quiet --cache=rw --cache-dir="$cdir" \
      >"$log" 2>&1 &
  pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*serving .* on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$log")"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  [[ -n "$port" ]] || { echo "FAIL($label): lmdev never printed its endpoint"; cat "$log"; kill "$pid" 2>/dev/null || true; exit 1; }
  grep -q 'compile service:' "$log" || { echo "FAIL($label): lmdev exposed no compile-service entries"; cat "$log"; kill "$pid" 2>/dev/null || true; exit 1; }
  out="$("$lmc" examples/intpipe.lime --run IntPipe.run --ints "$ints" \
      --cache=off --compile-from="127.0.0.1:$port")"
  kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true
  got="$(result_of "$out")"
  [[ "$got" == "$expected" ]] || { echo "FAIL($label): compile-service output diverged"; echo "$out"; exit 1; }
  grep -Eq '# compile-from .*: [1-9][0-9]* fetched, 0 missed' <<<"$out" \
      || { echo "FAIL($label): compile service did not serve every artifact"; echo "$out"; exit 1; }
  echo "ok: compile-service loopback warm start"
  rm -rf "$cdir" "$log"
}

# Fleet telemetry soak ($1 = build dir, $2 = label): three lmdev exporters
# scraped as one fleet while a loopback workload drives one of them, then a
# kill -9 of one member. The 100 ms scrape interval makes the staleness
# deadline 200 ms; the check's three cycles span that, so "ranked down
# within one deadline" is what the '"down":1' assertion verifies.
fleet_soak() {
  local bdir="$1" label="$2"
  local lmc="$bdir/tools/lmc" lmdev="$bdir/tools/lmdev" lmtop="$bdir/tools/lmtop"
  step "fleet telemetry soak ($label)"
  local logs=() pids=() tports=() dports=()
  local i log tp dp
  for i in 0 1 2; do
    log="$(mktemp)"
    "$lmdev" examples/intpipe.lime --quiet --telemetry-port 0 >"$log" 2>&1 &
    pids[i]=$!; logs[i]="$log"
  done
  for i in 0 1 2; do
    tp=""; dp=""
    for _ in $(seq 1 100); do
      dp="$(sed -n 's/.*serving .* on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "${logs[i]}")"
      tp="$(sed -n 's/.*telemetry on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "${logs[i]}")"
      [[ -n "$dp" && -n "$tp" ]] && break
      sleep 0.1
    done
    [[ -n "$dp" && -n "$tp" ]] || { echo "FAIL($label): fleet lmdev $i never printed its endpoints"; cat "${logs[i]}"; exit 1; }
    dports[i]="$dp"; tports[i]="$tp"
  done
  local fleet="127.0.0.1:${tports[0]},127.0.0.1:${tports[1]},127.0.0.1:${tports[2]}"
  local slo; slo="$(mktemp)"
  cat >"$slo" <<'EOF'
rate(net.heartbeat_misses) < 1/s
scrape_staleness < 2x
EOF

  # 10a. healthy fleet at 10 Hz under load: lmc drives server 0's device
  # port while the check scrapes all three telemetry endpoints.
  local ints out
  ints="$(seq 1 4096 | paste -sd, -)"
  "$lmc" examples/intpipe.lime --run IntPipe.run --ints "$ints" \
      --remote="127.0.0.1:${dports[0]}" --device-batch=64 --quiet \
      >/dev/null 2>&1 &
  local wpid=$!
  out="$("$lmtop" --fleet="$fleet" --interval=100 --check --slo="$slo")" \
      || { echo "FAIL($label): healthy fleet check exited nonzero"; echo "$out"; exit 1; }
  grep -q '"up":3' <<<"$out" || { echo "FAIL($label): fleet check did not rank all 3 up"; echo "$out"; exit 1; }
  wait "$wpid" 2>/dev/null || true
  echo "ok: 3-server fleet up under load (10 Hz)"

  # 10b. lmc's machine-readable snapshot agrees (no .lime input needed).
  out="$("$lmc" --fleet="$fleet" --fleet-snapshot=json --fleet-interval=100)" \
      || { echo "FAIL($label): lmc --fleet-snapshot exited nonzero"; echo "$out"; exit 1; }
  grep -q '"up":3' <<<"$out" || { echo "FAIL($label): lmc snapshot disagrees with lmtop"; echo "$out"; exit 1; }
  echo "ok: lmc --fleet-snapshot=json"

  # 10c. kill -9 one member: ranked down within one staleness deadline,
  # and the scrape_staleness rule turns it into a nonzero exit.
  kill -9 "${pids[1]}" 2>/dev/null || true
  wait "${pids[1]}" 2>/dev/null || true
  local rc=0
  out="$("$lmtop" --fleet="$fleet" --interval=100 --check --slo="$slo" 2>"$slo.err")" || rc=$?
  [[ "$rc" -ne 0 ]] || { echo "FAIL($label): SLO watchdog missed the killed server"; echo "$out"; cat "$slo.err"; exit 1; }
  grep -q '"down":1' <<<"$out" || { echo "FAIL($label): killed server not ranked down"; echo "$out"; exit 1; }
  grep -q '"up":2' <<<"$out" || { echo "FAIL($label): survivors not ranked up"; echo "$out"; exit 1; }
  grep -q 'SLO violation' "$slo.err" || { echo "FAIL($label): no SLO violation reported"; cat "$slo.err"; exit 1; }
  echo "ok: kill -9 ranked down within one deadline, SLO exit nonzero"

  for i in 0 2; do
    kill "${pids[i]}" 2>/dev/null || true
    wait "${pids[i]}" 2>/dev/null || true
  done
  rm -f "${logs[@]}" "$slo" "$slo.err"
}

step "plain build + tier-1"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS" -L tier1

if [[ "$QUICK" == 0 ]]; then
  step "ASan+UBSan build + tier-1"
  cmake --preset sanitize >/dev/null
  cmake --build --preset sanitize -j "$JOBS"
  ctest --preset sanitize -j "$JOBS" -L tier1

  step "TSan build + tier-1"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS"
  ctest --preset tsan -j "$JOBS" -L tier1
fi

soak build plain 4096
if [[ "$QUICK" == 0 ]]; then
  soak build-tsan tsan 512
fi

cache_soak build plain
if [[ "$QUICK" == 0 ]]; then
  cache_soak build-asan asan
  cache_soak build-tsan tsan
fi

fleet_soak build plain
if [[ "$QUICK" == 0 ]]; then
  fleet_soak build-tsan tsan
fi

step "critical-path attribution: coverage + determinism (lmc --explain)"
LMC=build/tools/lmc
ints="$(seq 1 4096 | paste -sd, -)"
# 6a. every attributed graph's categories must sum to within 5% of its
# wall time — the engine's self-consistency invariant (DESIGN.md §12).
out="$("$LMC" examples/intpipe.lime --run IntPipe.run --ints "$ints" \
    --explain=json --quiet)"
attr_line="$(grep '^{"attributions"' <<<"$out" || true)"
[[ -n "$attr_line" ]] || { echo "FAIL: --explain=json printed no attributions"; echo "$out"; exit 1; }
coverages="$(grep -o '"coverage":[0-9.]*' <<<"$attr_line" | cut -d: -f2)"
[[ -n "$coverages" ]] || { echo "FAIL: attributions carry no coverage"; echo "$attr_line"; exit 1; }
while read -r c; do
  awk -v c="$c" 'BEGIN { exit !(c >= 0.95 && c <= 1.05) }' \
      || { echo "FAIL: attribution coverage $c outside [0.95, 1.05]"; echo "$attr_line"; exit 1; }
done <<<"$coverages"
echo "ok: $(wc -l <<<"$coverages") attribution(s), coverage within 5% of wall"
# 6b. under the deterministic scheduler the structural attribution must be
# byte-identical across runs (same seed → same dispatch/park counts).
run_seeded() {
  "$LMC" examples/intpipe.lime --run IntPipe.run --ints "$ints" \
      --sched-seed=42 --explain=json --quiet | grep '^{"attributions"'
}
a="$(run_seeded)"; b="$(run_seeded)"
[[ -n "$a" && "$a" == "$b" ]] \
    || { echo "FAIL: seeded attribution not byte-identical"; diff <(echo "$a") <(echo "$b") || true; exit 1; }
echo "ok: seeded structural attribution byte-identical"

step "executor soak: 1000 graphs over a fixed worker pool (plain)"
build/tests/executor_test --gtest_filter='ExecutorSoak.*'
if [[ "$QUICK" == 0 ]]; then
  step "executor soak: 1000 graphs over a fixed worker pool (tsan)"
  build-tsan/tests/executor_test --gtest_filter='ExecutorSoak.*'
fi

step "static analysis over shipped examples (lmc --analyze --strict)"
LMC=build/tools/lmc
for f in examples/*.lime; do
  echo "-- $LMC $f --analyze --strict"
  "$LMC" "$f" --analyze --strict
done

# Minimal-capacity differential: run one example pipeline at the deadlock
# verifier's proven minimal safe FIFO capacity and require byte-identical
# output vs the default capacity ($1 = build dir, $2 = label, $3 = file,
# $4 = entry, $5 = argflag, $6 = args).
mincap_soak() {
  local bdir="$1" label="$2" file="$3" entry="$4" argflag="$5" args="$6"
  local lmc="$bdir/tools/lmc"
  local json mincap expected got
  json="$("$lmc" "$file" --analyze=json)"
  mincap="$(grep -o '"min_safe_capacity": *[0-9][0-9]*' <<<"$json" \
      | grep -o '[0-9][0-9]*$' | sort -n | tail -1)"
  [[ -n "$mincap" ]] || { echo "FAIL($label): no min_safe_capacity in --analyze=json for $file"; echo "$json"; exit 1; }
  [[ "$mincap" -ge 1 ]] || mincap=1
  expected="$(result_of "$("$lmc" "$file" --run "$entry" "$argflag" "$args" --quiet)")"
  [[ -n "$expected" ]] || { echo "FAIL($label): no reference output for $file"; exit 1; }
  got="$(result_of "$("$lmc" "$file" --run "$entry" "$argflag" "$args" \
      --fifo-capacity="$mincap" --quiet)")"
  [[ "$got" == "$expected" ]] || {
    echo "FAIL($label): $file diverged at minimal fifo capacity $mincap"
    echo "want: $expected"; echo "got:  $got"; exit 1; }
  echo "ok: $file byte-identical at minimal capacity $mincap ($label)"
}

step "minimal-capacity differential soak (plain)"
ints="$(seq 1 2048 | paste -sd, -)"
bits="$(printf '0110100101100101%.0s' $(seq 1 16))"
mincap_soak build plain examples/intpipe.lime IntPipe.run --ints "$ints"
mincap_soak build plain examples/bitflip.lime Bitflip.taskFlip --bits "$bits"
if [[ "$QUICK" == 0 ]]; then
  step "minimal-capacity differential soak (tsan)"
  ints="$(seq 1 512 | paste -sd, -)"
  mincap_soak build-tsan tsan examples/intpipe.lime IntPipe.run --ints "$ints"
  mincap_soak build-tsan tsan examples/bitflip.lime Bitflip.taskFlip --bits "$bits"
fi

step "clang-tidy over src/analysis + src/runtime"
if command -v clang-tidy >/dev/null 2>&1; then
  [[ -f build/compile_commands.json ]] \
      || { echo "FAIL: build/compile_commands.json missing (reconfigure with the default preset)"; exit 1; }
  clang-tidy -p build --quiet src/analysis/*.cpp src/runtime/*.cpp
  echo "ok: clang-tidy clean"
else
  echo "skip: clang-tidy not installed (profile: .clang-tidy)"
fi

step "OK"
