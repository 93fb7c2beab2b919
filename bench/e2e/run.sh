#!/usr/bin/env bash
# Builds lmbench and lmdev from this checkout (build-bench/, RelWithDebInfo,
# no sanitizer) and runs the end-to-end benchmark.
#
#   bench/e2e/run.sh --workload W [--seed S] [--seconds D] [--trace 0|1]
#       one workload in one process; the last line of output is lmbench's
#       result object
#   bench/e2e/run.sh [--seed S] [--seconds D]
#       every workload untraced, then every traced pass, each in a fresh
#       process; prints "workload metric value unit" lines, writes them,
#       with each run's environment header, to build-bench/bench-results.json,
#       and fails unless every run was correct and reported every metric
#       BENCHMARK.json names. `--seconds 0.5` makes this a quick smoke check.
#
# D defaults to BENCHMARK.json's run_seconds.
#
# Build output goes to stderr. See README.md beside this file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

usage() {
  echo "usage: run.sh [--workload W] [--seed S] [--seconds D] [--trace 0|1]" >&2
  exit 2
}

seed=1 seconds="" workload="" trace=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --workload) workload="$2" ;;
    --trace) trace="$2" ;;
    *) usage ;;
  esac
  shift 2
done

if [ ! -f "$root/src/CMakeLists.txt" ] || [ ! -f "$root/CMakeLists.txt" ]; then
  echo "run.sh: no Liquid Metal sources under $root" >&2
  exit 2
fi
if [ -z "$seconds" ]; then
  seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
fi

{
  if [ ! -f "$build/CMakeCache.txt" ]; then
    generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLM_SANITIZE=
  fi
  cmake --build "$build" --target lmbench -j "$(nproc)"
} >&2

if [ -z "${LMBENCH_COMMIT:-}" ]; then
  LMBENCH_COMMIT=unknown
  if [ "$(git -C "$root" rev-parse --show-toplevel 2> /dev/null)" = "$root" ]; then
    LMBENCH_COMMIT="$(git -C "$root" rev-parse HEAD)"
    git -C "$root" diff --quiet HEAD -- 2> /dev/null || LMBENCH_COMMIT+="-dirty"
  fi
fi
export LMBENCH_COMMIT

if [ -n "$workload" ]; then
  exec "$build/lmbench" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace"
fi

# Full run: one JSON record per process, holding its environment header,
# its result object and every metric line it printed.
workloads=($(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json"))
results="$build/bench-results.json"
records=()
for t in 0 1; do
  for w in "${workloads[@]}"; do
    out="$("$build/lmbench" --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$t")"
    printf '%s\n' "$out" | grep -v '^{'
    env="$(printf '%s\n' "$out" | sed -n 's/^# env //p')"
    result="$(printf '%s\n' "$out" | tail -n 1)"
    rows="$(printf '%s\n' "$out" | awk -v w="$w" '
      $1 == w && NF == 4 {
        printf "%s{\"metric\":\"%s\",\"value\":%s,\"unit\":\"%s\"}",
               sep, $2, $3, $4
        sep = ","
      }')"
    records+=("{\"env\":$env,\"result\":$result,\"metrics\":[$rows]}")
  done
done
{
  printf '{"runs":[\n'
  sep=""
  for r in "${records[@]}"; do
    printf '%s%s' "$sep" "$r"
    sep=$',\n'
  done
  printf '\n]}\n'
} > "$results"
echo "# wrote $results"

python3 - "$root/BENCHMARK.json" "$results" <<'PY'
import json, sys

bench = json.load(open(sys.argv[1]))
bad = []
for run in json.load(open(sys.argv[2]))["runs"]:
    env, result = run["env"], run["result"]
    where = f'{env["workload"]} --trace {env["trace"]}'
    if not result["correct"] or result["failed"]:
        bad.append(f"{where}: not correct ({result['failed']} failed)")
    wanted = bench["per_layer" if env["trace"] else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        bad.append(f"{where}: missing or not finite: {', '.join(missing)}")
for line in bad:
    print(f"run.sh: {line}", file=sys.stderr)
sys.exit(1 if bad else 0)
PY
