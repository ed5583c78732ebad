#!/usr/bin/env python3
"""End-to-end benchmark of the midas CLI (see benchmark/README.md).

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `midas` and the benchmark's
helper, writes the workload's inputs from the seed, then:

  --trace 0  times `midas discover` / `midas augment` invocations, one at a
             time, alternating `--threads 1` and `--threads $(nproc)`, for S
             seconds after one discarded warm-up, and reports medians;
  --trace 1  runs the helper's per-layer trace, then alternates untraced and
             telemetry-enabled invocations for S seconds to measure the
             tracing overhead.

Every invocation's report is checked. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("discover-longtail", "discover-giant", "augment-loop")
# Set-up runs this many times per run; `setup_s` is their median.
SETUP_REPEATS = 5
# An invocation still running after this long is killed and counted failed.
INVOCATION_TIMEOUT_S = 120
# Seconds the calibration kernel (`midas-e2e calib T`) takes on the
# reference host (2 vCPUs, quiet) at T = 1 and at T = nproc = 2. Timings are
# reported in reference-host seconds.
CALIB_REFERENCE_S = 0.080
CALIB_REFERENCE_NPROC_S = 0.060
QUARANTINE = re.compile(r"^quarantined \d+ source\(s\):", re.M)


class Tracer:
    """Driver-side spans (name, start, end, parent), kept in memory."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans = []
        self.open = []

    @contextlib.contextmanager
    def span(self, name):
        i = len(self.spans)
        parent = self.open[-1] if self.open else None
        self.spans.append({"name": name, "start_s": self.now(), "end_s": None, "parent": parent})
        self.open.append(i)
        try:
            yield
        finally:
            self.open.pop()
            self.spans[i]["end_s"] = self.now()

    def now(self):
        return time.perf_counter() - self.epoch

    def to_list(self):
        out = []
        for i, s in enumerate(self.spans):
            children = sum(c["end_s"] - c["start_s"] for c in self.spans if c["parent"] == i)
            out.append(dict(s, id=i, self_s=(s["end_s"] - s["start_s"]) - children))
        return out


class HostSpeed:
    """Times the calibration kernel around every timed step.

    The host's speed drifts by tens of percent over minutes, and the
    kernel, which runs no code of the program, slows down with it. A step
    run with T threads is scaled by the reference time over the mean of the
    T-thread kernel's times just before and just after it."""

    def __init__(self, helper):
        self.helper = helper
        self.before = None

    def _calib(self, threads):
        start = time.perf_counter()
        subprocess.run([self.helper, "calib", str(threads)], check=True)
        return time.perf_counter() - start

    def start(self, threads):
        """Call right before a timed step that runs `threads` threads."""
        self.before = self._calib(threads)

    def scale(self, threads):
        """Call right after it: its time's factor to reference-host time."""
        reference = CALIB_REFERENCE_S if threads == 1 else CALIB_REFERENCE_NPROC_S
        return reference / ((self.before + self._calib(threads)) / 2)


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds `midas` and the helper; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "cli")
    ):
        fail(f"{ROOT} is not a midas checkout (no Cargo.toml / crates/cli)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, package in ((os.path.join(ROOT, "Cargo.toml"), ["-p", "midas-cli"]),
                              (os.path.join(BENCH, "Cargo.toml"), [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + package
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "midas"), os.path.join(release, "midas-e2e")


def invoke(midas, workdir, argv, threads, env=None):
    """Runs one `midas` invocation; returns (exit code, wall s, peak RSS MB, stdout)."""
    out_path = os.path.join(workdir, "invocation.out")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([midas] + argv + ["--threads", str(threads)], cwd=workdir,
                                stdout=out, stderr=subprocess.DEVNULL, env=env)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        # wait4 reaps the child and reports its own peak RSS, not a
        # maximum over every child this process ever had.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        report = f.read()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, report


def augment_rows(text):
    """Token lists of the `Augmentation rounds` table's data rows."""
    rows, inside = [], False
    for line in text.splitlines():
        if line.startswith("== Augmentation rounds =="):
            inside = True
        elif inside and not line.strip():
            break
        elif inside and line[:1].isdigit():
            rows.append(line.split())
    return rows


def masked(text, workload):
    """The report with augment's `suggest ms` column masked: the column is
    wall-clock time, and its width shifts the table's padding."""
    if workload != "augment-loop":
        return text
    out, inside = [], False
    for line in text.splitlines():
        if line.startswith("== Augmentation rounds =="):
            inside = True
        elif inside and not line.strip():
            inside = False
        elif inside:
            tokens = line.split()
            if line[:1].isdigit():
                tokens[-3] = "*"
            elif set(line.strip()) == {"-"}:
                tokens = ["-"]
            line = " ".join(tokens)
        out.append(line)
    return "\n".join(out) + "\n"


def suggest_ms(text):
    return [float(row[-3]) for row in augment_rows(text)]


def missing_planted(text, planted):
    """Planted §IV-D slices no positive-profit report row selects."""
    rows = []
    for line in text.splitlines():
        fields = re.split(r"\s{2,}", line.strip())
        if len(fields) >= 7 and fields[0].isdigit():
            rows.append((set(fields[1].split(" ∧ ")), float(fields[-1])))
    return [p for p in planted if not any(conds <= p and profit > 0 for conds, profit in rows)]


class Checker:
    """Checks every report against the workload's first 1-thread report."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.reference = None
        with open(os.path.join(workdir, "planted.tsv"), encoding="utf-8") as f:
            self.planted = [set(line.rstrip("\n").split("\t")) for line in f if line.strip()]
        self.attempted = 0
        self.failures = []

    def check(self, code, report, label):
        self.attempted += 1
        text = report.decode("utf-8", errors="replace")
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif QUARANTINE.search(text):
            problem = "quarantined sources"
        elif self.reference is None:
            missing = missing_planted(text, self.planted)
            if missing:
                problem = f"{len(missing)} planted slices not reported"
            else:
                self.reference = masked(text, self.workload)
        elif masked(text, self.workload) != self.reference:
            problem = "report differs from the first 1-thread report"
        if problem:
            self.failures.append(f"{label}: {problem}")
        return problem is None

    def digest(self):
        return hashlib.sha256((self.reference or "").encode()).hexdigest()[:16]


def setup(helper, host, workload, seed, workdir, small, tracer):
    """Writes the inputs SETUP_REPEATS times; returns the median seconds."""
    times = []
    with tracer.span("setup"):
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            host.start(1)
            start = time.perf_counter()
            subprocess.run([helper, "gen", workload, str(seed), workdir] + small, check=True)
            elapsed = time.perf_counter() - start
            times.append(elapsed * host.scale(1))
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(midas, host, workload, workdir, argv, nproc, seconds, checker, tracer, record):
    """The untraced run: warm-up, then alternating thread counts."""
    walls = {1: [], nproc: []}
    rss = {t: [] for t in walls}
    suggest = []
    with tracer.span("warmup"):
        code, _, _, report = invoke(midas, workdir, argv, 1)
        checker.check(code, report, "warm-up --threads 1")
    with tracer.span("measure"):
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or i % 2 == 1:
            threads = (1, nproc)[i % 2]
            i += 1
            host.start(threads)
            code, wall, peak, report = invoke(midas, workdir, argv, threads)
            scale = host.scale(threads)
            ok = checker.check(code, report, f"invocation {i} --threads {threads}")
            record.append({"threads": threads, "wall_s": wall, "scale": scale, "peak_rss_mb": peak, "ok": ok})
            if ok:
                walls[threads].append(wall * scale)
                rss[threads].append(peak)
                if threads == 1:
                    text = report.decode("utf-8", errors="replace")
                    ms = suggest_ms(text) if workload == "augment-loop" else [wall * 1e3]
                    suggest.extend(x * scale for x in ms)
    if not walls[1] or not walls[nproc] or not suggest:
        return None, {}
    return {
        "wall_s": metric(statistics.median(walls[1]), "s"),
        "wall_nproc_s": metric(statistics.median(walls[nproc]), "s"),
        "peak_rss_mb": metric(statistics.median(rss[1]), "MB"),
        "peak_rss_nproc_mb": metric(statistics.median(rss[nproc]), "MB"),
        "suggest_p50_ms": metric(statistics.median(suggest), "ms"),
        "suggest_p90_ms": metric(statistics.quantiles(suggest, n=10)[-1] if len(suggest) > 1 else suggest[0], "ms"),
    }, {"invocations_1": len(walls[1]), "invocations_nproc": len(walls[nproc]), "suggest_samples": len(suggest)}


def traced(midas, helper, host, workload, workdir, argv, nproc, seconds, small, checker, tracer, record):
    """The traced run: the helper's per-layer pass, then the overhead loop."""
    with tracer.span("helper_trace"):
        done = subprocess.run([helper, "trace", workload, workdir, str(nproc)] + small,
                              stdout=subprocess.PIPE)
    checker.attempted += 1
    if done.returncode == 0:
        doc = json.loads(done.stdout)
    else:
        checker.failures.append(f"per-layer trace: exit code {done.returncode}")
        doc = {"metrics": {}, "spans": [], "telemetry": None}
    env = dict(os.environ, MIDAS_TELEMETRY="1")
    walls = {False: [], True: []}
    with tracer.span("overhead"):
        code, _, _, report = invoke(midas, workdir, argv, 1)
        checker.check(code, report, "warm-up --threads 1")
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or i % 2 == 1:
            on = i % 2 == 1
            i += 1
            host.start(1)
            code, wall, _, report = invoke(midas, workdir, argv, 1, env if on else None)
            scale = host.scale(1)
            ok = checker.check(code, report, f"invocation {i} telemetry={int(on)}")
            record.append({"threads": 1, "telemetry": on, "wall_s": wall, "scale": scale, "ok": ok})
            if ok:
                walls[on].append(wall * scale)
    metrics = dict(doc["metrics"])
    if walls[False] and walls[True]:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    return metrics, doc


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="self-test input sizes")
    args = ap.parse_args()

    tracer = Tracer()
    with tracer.span("build"):
        midas, helper = build()
    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    small = ["--small"] if args.small else []
    nproc = len(os.sched_getaffinity(0))
    host = HostSpeed(helper)
    setup_s = setup(helper, host, args.workload, args.seed, workdir, small, tracer)
    with open(os.path.join(workdir, "argv.txt"), encoding="utf-8") as f:
        argv = f.read().split()
    with open(os.path.join(workdir, "inputs.json"), encoding="utf-8") as f:
        inputs = json.load(f)
    checker = Checker(args.workload, workdir)
    record = []
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": nproc, "inputs": inputs, "argv": argv}

    if args.trace:
        metrics, doc = traced(midas, helper, host, args.workload, workdir, argv, nproc, args.seconds,
                              small, checker, tracer, record)
        result.update(metrics=metrics, helper_spans=doc["spans"], telemetry=doc["telemetry"])
    else:
        metrics, samples = measure(midas, host, args.workload, workdir, argv, nproc, args.seconds,
                                   checker, tracer, record)
        if metrics is not None:
            metrics["setup_s"] = metric(setup_s, "s")
        result.update(metrics=metrics, samples=samples)
    result.update(digest=checker.digest(), failures=checker.failures, invocations=record,
                  driver_spans=tracer.to_list())
    name = "trace.json" if args.trace else "result.json"
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)

    for failure in checker.failures:
        print(f"# FAILED {failure}")
    print(f"# workload={args.workload} seed={args.seed} nproc={nproc} inputs={json.dumps(inputs)} "
          f"digest={checker.digest()} samples={json.dumps(result.get('samples', {}))} "
          f"record={os.path.relpath(os.path.join(workdir, name), ROOT)}")
    failed = len(checker.failures)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics or {},
    }))


if __name__ == "__main__":
    main()
