#!/usr/bin/env python3
"""Host-clock benchmark of the Origami simulator.

    python3 perfbench/run.py --workload rw-mltree --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench_runner (Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs whole
rounds of the named workload, each in its own process, until --seconds have
passed. With --trace 0 it reports the end-to-end metrics as medians over the
rounds; with --trace 1 each process runs an untraced and a traced round and
the per-layer metrics are reported instead. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exits 1 when a check
fails and 2 when the benchmark cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rw-mltree", "midas-faulted", "falcon-live")
BUILD_TIMEOUT_S = 840
ROUND_TIMEOUT_S = 150


def build():
    """Configures (once) and builds the runner; returns its path."""
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_runner",
                  "-j", str(len(os.sched_getaffinity(0)))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        remaining = deadline - time.monotonic()
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=max(1.0, remaining)).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return build_dir, os.path.join(build_dir, "perfbench_runner")


def run_process(cmd):
    """Runs one round process; returns (exit code, stdout lines, peak RSS MB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def parse_round(code, lines, cmd):
    if code not in (0, 1) or not lines:
        raise RuntimeError(f"round exited {code}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    try:
        build_dir, runner = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        cmd += ["--traced", "--spans",
                os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]

    rounds = []
    start = time.monotonic()
    try:
        while not rounds or time.monotonic() - start < args.seconds:
            code, lines, process_peak_mb = run_process(cmd)
            rounds.append((parse_round(code, lines, cmd), process_peak_mb, lines))
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    first_lines = rounds[0][2][:-1]
    for line in first_lines:
        print(line)
    correct = all(all(r["checks"].values()) for r, _, _ in rounds)
    attempted = sum(r["attempted"] for r, _, _ in rounds)
    failed = sum(r["failed"] for r, _, _ in rounds)

    if args.trace:
        metrics = {}
        for name, m in rounds[0][0]["layers"].items():
            values = [r["layers"][name]["value"] for r, _, _ in rounds]
            metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
        metrics["process.peak_rss_mb"] = {
            "value": statistics.median([rss for _, rss, _ in rounds]), "unit": "MB"}
    else:
        med = statistics.median
        metrics = {
            "setup_s": {"value": med([r["setup_s"] for r, _, _ in rounds]), "unit": "s"},
            "experiment_s": {"value": med([r["experiment_s"] for r, _, _ in rounds]),
                             "unit": "s"},
            "replay_ops_per_s": {"value": med([r["attempted"] / r["replay_s"]
                                               for r, _, _ in rounds]), "unit": "ops/s"},
            "peak_rss_mb": {"value": med([r["peak_rss_mb"] for r, _, _ in rounds]),
                            "unit": "MB"},
        }

    record = dict(rounds[0][0]["record"])
    record.update({"workload": args.workload, "trace": args.trace,
                   "rounds": len(rounds),
                   "attempted": attempted, "failed": failed,
                   "round_experiment_s": [r["experiment_s"] for r, _, _ in rounds],
                   "round_process_peak_rss_mb": [rss for _, rss, _ in rounds]})
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
