#!/usr/bin/env bash
# Interleaved A/B runs of the end-to-end benchmark: a base commit against
# the working tree (README.md, "A/B comparisons").
#
#   bench/e2e/ab.sh <base-ref> [pairs=10]
#
# The base tree is exported with `git archive` under $TMPDIR and gets this
# tree's bench/e2e and BENCHMARK.json, so both sides run identical benchmark
# code for the same run length. Pair i runs
# every workload on both sides with seed i, base first in odd pairs and
# head first in even ones. Prints, per (workload, end-to-end metric), each
# side's median and quartiles, the head's win fraction and a verdict:
#   gain        at least 10 pairs, head wins >= 9/10 of them, and the
#               medians differ by more than the base's interquartile range
#   regression  the head's median is worse than the base's by more than the
#               metric's bound in BENCHMARK.json
#   unresolved  a side's spread (IQR / median) exceeds the bound, unless
#               every head run beats every base run
#   same        none of these
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
[ $# -ge 1 ] || { echo "usage: ab.sh <base-ref> [pairs]" >&2; exit 2; }
base_ref="$1"
pairs="${2:-10}"
workloads=($(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json"))

base_sha="$(git -C "$root" rev-parse --verify "$base_ref^{commit}")"
work="$(mktemp -d "${TMPDIR:-/tmp}/lmbench-ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$base_sha" | tar -x -C "$work/base"
rm -rf "$work/base/bench/e2e"
mkdir -p "$work/base/bench/e2e"
cp -R "$here/." "$work/base/bench/e2e/"
cp "$root/BENCHMARK.json" "$work/base/"

# Raw per-run results stay in the head's build directory for inspection.
mkdir -p "$root/build-bench"
runs="$root/build-bench/ab-runs.tsv"
: > "$runs"
run_side() {  # side tree pair workload commit
  local out
  out="$(LMBENCH_COMMIT="$5" bash "$2/bench/e2e/run.sh" --workload "$4" \
    --seed "$3" --trace 0)"
  printf '%s\t%s\t%s\t%s\t%s\n' "$1" "$3" "$4" \
    "$(printf '%s\n' "$out" | sed -n 's/^# env //p')" \
    "$(printf '%s\n' "$out" | tail -n 1)" >> "$runs"
}
head_commit="$(git -C "$root" rev-parse HEAD)"
git -C "$root" diff --quiet HEAD -- || head_commit+="-dirty"
for pair in $(seq 1 "$pairs"); do
  for w in "${workloads[@]}"; do
    if [ $((pair % 2)) -eq 1 ]; then
      run_side base "$work/base" "$pair" "$w" "$base_sha"
      run_side head "$root" "$pair" "$w" "$head_commit"
    else
      run_side head "$root" "$pair" "$w" "$head_commit"
      run_side base "$work/base" "$pair" "$w" "$base_sha"
    fi
  done
  echo "# pair $pair/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$runs" <<'PY'
import collections, json, statistics, sys

bench = json.load(open(sys.argv[1]))
values = collections.defaultdict(dict)  # (side, workload, metric) -> {pair: v}
envs = collections.defaultdict(set)
failed = collections.Counter()
for line in open(sys.argv[2]):
    side, pair, workload, env, result = line.rstrip("\n").split("\t")
    env, result = json.loads(env), json.loads(result)
    envs[side].add((env["build_type"], env["nproc"]))
    if not result["correct"] or result["failed"]:
        failed[side, workload] += 1
    for name, m in result["metrics"].items():
        values[side, workload, name][int(pair)] = m["value"]

if len(envs["base"] | envs["head"]) != 1:
    sys.exit(f"refusing to compare: build type / nproc differ: {dict(envs)}")


def quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3


print(f"{'workload':15} {'metric':16} {'base q1/med/q3':>30} "
      f"{'head q1/med/q3':>30} {'wins':>6}  verdict")
for workload in sorted({k[1] for k in values}):
    for m in bench["end_to_end"]:
        base = values["base", workload, m["name"]]
        head = values["head", workload, m["name"]]
        common = sorted(set(base) & set(head))
        if not common:
            continue
        b = [base[p] for p in common]
        h = [head[p] for p in common]
        lower = m["better"] == "lower"
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        wins = sum(better(head[p], base[p]) for p in common)
        qb, qh = quartiles(b), quartiles(h)
        mb, mh = statistics.median(b), statistics.median(h)
        worse = (mh - mb) / mb if lower else (mb - mh) / mb
        spread = max((qb[2] - qb[0]) / mb, (qh[2] - qh[0]) / mh)
        all_better = all(better(x, y) for x in h for y in b)
        if spread > m["bound"] and not all_better:
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict = "regression"
        elif (len(common) >= 10 and wins >= 0.9 * len(common) and better(mh, mb)
              and abs(mh - mb) > qb[2] - qb[0]):
            verdict = "gain"
        else:
            verdict = "same"
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:15} {m['name']:16} {fmt(qb):>30} {fmt(qh):>30} "
              f"{wins:>2}/{len(common):<3}  {verdict}")
for (side, workload), n in sorted(failed.items()):
    print(f"FAILED: {n} {side} run(s) of {workload} were not correct")
PY
