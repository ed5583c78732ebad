#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 benchmark/selftest.py

Runs every workload of BENCHMARK.json at the self-test input sizes
(`run.py --small`) and checks that:

  * the untraced run emits every end-to-end metric, with its unit;
  * the traced run emits every per-layer metric, with its unit;
  * no invocation failed and every run reports `correct`;
  * two traced runs give identical counts (every metric whose unit is
    `count` or `bytes`).

Exits 0 when all checks pass, 1 otherwise.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SECONDS = "2"


def run(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", SECONDS, "--trace", str(trace), "--small"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None, f"exit code {done.returncode}"
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def check_metrics(result, specs):
    problems = []
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"missing metric {spec['name']}")
        elif got.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']}: unit {got.get('unit')!r}, expected {spec['unit']!r}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        untraced, err = run(workload, 0)
        if err:
            problems.append(f"{workload} --trace 0: {err}")
        else:
            problems += [f"{workload} --trace 0: {p}" for p in check_metrics(untraced, bench["end_to_end"])]
        traces = []
        for _ in range(2):
            traced, err = run(workload, 1)
            if err:
                problems.append(f"{workload} --trace 1: {err}")
                continue
            problems += [f"{workload} --trace 1: {p}" for p in check_metrics(traced, bench["per_layer"])]
            traces.append({k: v["value"] for k, v in traced["metrics"].items() if v["unit"] in ("count", "bytes")})
        if len(traces) == 2 and traces[0] != traces[1]:
            diff = sorted(k for k in traces[0] if traces[0][k] != traces[1].get(k))
            problems.append(f"{workload}: counts differ between two traced runs: {diff}")
        print(f"{workload}: {'ok' if not any(p.startswith(workload) for p in problems) else 'FAILED'}",
              flush=True)
    for p in problems:
        print(f"  {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
