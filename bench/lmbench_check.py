#!/usr/bin/env python3
"""Smoke check for lmbench, the end-to-end benchmark harness (bench/e2e).

    lmbench_check.py LMBENCH BENCHMARK_JSON WORKLOAD

Runs one workload through lmbench untraced and then traced, each for
0.5 s, and exits non-zero unless both result objects say
"correct":true with no failed call, and every metric BENCHMARK.json names
for the pass (end_to_end untraced, per_layer traced) is both printed as a
metric line and present in the result object.
"""
import json
import subprocess
import sys

SECONDS = "0.5"  # lmbench still makes its 100 calls per program


def check_pass(exe, bench, workload, trace):
    where = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", "1", "--seconds", SECONDS,
         "--trace", str(trace)],
        capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return [f"{where}: exited with {proc.returncode}"]
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{where}: no result object on the last line"]
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: not correct ({result['failed']} failed)")
    printed = {f[1] for f in (l.split() for l in lines)
               if len(f) == 4 and f[0] == workload}
    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted
               if m["name"] not in printed or m["name"] not in result["metrics"]]
    if missing:
        problems.append(f"{where}: missing metrics: {', '.join(missing)}")
    return problems


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    exe, bench_path, workload = sys.argv[1:4]
    with open(bench_path) as f:
        bench = json.load(f)
    problems = []
    for trace in (0, 1):
        problems += check_pass(exe, bench, workload, trace)
    for p in problems:
        print(f"lmbench_check: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
