#!/usr/bin/env python3
"""End-to-end ingress benchmark driver.

Builds the benchmark binary from this source tree (an up-to-date build is a
no-op), runs one workload, and prints the binary's output; its last line is
the result object. See README.md in this directory.

    python3 ingressbench/run.py --workload flowhit_64 --seed 1 --seconds 10 --trace 0
    python3 ingressbench/run.py --selftest

Run it from the root of the source tree. Build output goes to
$CARGO_TARGET_DIR/ingressbench (default .bench_build/ingressbench) and traced
runs write a chrome://tracing file next to it, under traces/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flowhit_64", "churn_64", "imix_reload", "e9_user_rx")
RUN_TIMEOUT_S = 170
# An untraced run is this many sequential processes sharing --seconds, each
# a full set-up and measurement of the same seeded workload; every metric is
# the mean over them. On a shared host, one process's speed depends on where
# its memory lands and what the neighbours do while it runs (±20% here), so
# independent processes average that out where one long process cannot.
PROCESSES = 4


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "ingressbench")


def build(out_dir):
    """Configures (once) and builds ingress_bench; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", out_dir, "--target", "ingress_bench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "ingress_bench")


def source_id():
    """git commit when available, plus a digest of the sources built."""
    commit = "none"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "cmake", "ingressbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src:%s" % (commit, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_root()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("ingressbench: build failed: %s" % err, file=sys.stderr)
        return 1

    env = dict(os.environ, INGRESSBENCH_COMMIT=source_id())
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.selftest:
        proc = run_binary([binary, "--selftest"], env, deadline)
        if proc is None:
            return 1
        sys.stdout.write(proc.stdout)
        return proc.returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--trace",
           str(args.trace)]
    if args.trace:
        # Per-layer figures come from one process: its untraced and traced
        # halves must see the same set-up.
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        runs = [cmd + ["--seconds", str(args.seconds), "--trace-file",
                       os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]]
    else:
        runs = [cmd + ["--seconds", str(args.seconds / PROCESSES)]] * PROCESSES
    results = []
    for run in runs:
        proc = run_binary(run, env, deadline)
        if proc is None or proc.returncode != 0:
            return 1
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise ValueError("unexpected result keys")
        except (IndexError, ValueError) as err:
            print("ingressbench: malformed result line: %s" % err, file=sys.stderr)
            return 1
        reload_ms = []
        for line in lines[:-1]:
            print(line)
            if line.startswith("info "):
                reload_ms = json.loads(line[len("info "):]).get("reload_ms", [])
        results.append((result, reload_ms))
    print(json.dumps(combine(results)))
    return 0


def run_binary(cmd, env, deadline):
    """Runs one benchmark process; None when it outlives the run's deadline."""
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("ingressbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None


def percentile(values, p):
    """Linear interpolation between order statistics (as the binary computes it)."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def combine(results):
    """One result from (per-process result, reload samples) pairs: counts
    summed, metrics averaged, reload percentiles over the pooled samples."""
    first = results[0][0]
    metrics = {}
    for name, metric in first["metrics"].items():
        values = [r["metrics"][name]["value"] for r, _ in results]
        metrics[name] = {"value": sum(values) / len(values), "unit": metric["unit"]}
    pooled = [ms for _, samples in results for ms in samples]
    if pooled:
        for name, p in (("reload_p50_ms", 0.5), ("reload_p95_ms", 0.95)):
            if name in metrics:
                metrics[name]["value"] = percentile(pooled, p)
    return {
        "correct": all(r["correct"] for r, _ in results),
        "attempted": sum(r["attempted"] for r, _ in results),
        "failed": sum(r["failed"] for r, _ in results),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
