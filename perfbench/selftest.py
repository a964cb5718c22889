#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Run from the repository root; it builds like run.py and takes about three
minutes on a 4-core host. It shows three things:

1. smoke: a small run of each workload, untraced and traced, passes every
   check;
2. corruption: every check fails when handed a corrupted result (one op
   dropped, one prediction bit flipped, one namespace entry removed, ...)
   while the other checks still pass, and the runner then exits 1;
3. sensitivity: a known host delay added to every balancer decision (epoch
   DES) or live epoch hook moves experiment_s and the replay time by about
   the injected total, and leaves setup_s where it was. The delay exists only
   here; measured runs never pass --delay-us.

Exits 1 if any of these fails.
"""

import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (run.py: build() and WORKLOADS)

INJECT_S = 1.5          # injected host time per sensitivity round
TOLERANCE = 0.35        # allowed error, as a share of the injected time
ROUNDS = 3              # rounds per side, alternated, medians compared

failures = []


def report(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def round_json(runner, workload, *extra):
    cmd = [runner, "--workload", workload, "--seed", "7", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def smoke_and_corruption(runner, workload):
    for traced in ([], ["--traced"]):
        code, res = round_json(runner, workload, "--smoke", *traced)
        ok = code == 0 and res is not None and all(res["checks"].values())
        report(ok, f"{workload} smoke{' traced' if traced else ''}: "
                   f"exit {code}, checks {res and res['checks']}")
    checks = list(res["checks"]) if res else []
    for name in checks:
        code, bad = round_json(runner, workload, "--smoke", "--traced",
                               "--corrupt", name)
        # A traced process runs the corrupted check twice; the untraced
        # round's failure is reported as "<name>.untraced".
        others = {k: v for k, v in bad["checks"].items()
                  if k not in (name, name + ".untraced")} if bad else {}
        ok = (code == 1 and bad is not None and bad["checks"].get(name) is False
              and all(others.values()))
        report(ok, f"{workload} corrupted '{name}' is caught: exit {code}")


def calls_of(res):
    rec = res["record"]
    return rec.get("rebalance_calls") or rec.get("live_epochs") or 0


def sensitivity(runner, workload):
    _, probe = round_json(runner, workload)
    calls = calls_of(probe)
    if calls == 0:
        report(False, f"{workload} sensitivity: no balancer calls to delay")
        return
    delay_us = int(INJECT_S * 1e6 / calls)
    injected = calls * delay_us / 1e6
    base, slow = [], []
    for _ in range(ROUNDS):
        base.append(round_json(runner, workload)[1])
        slow.append(round_json(runner, workload, "--delay-us", str(delay_us))[1])

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    d_exp = med(slow, "experiment_s") - med(base, "experiment_s")
    d_replay = med(slow, "replay_s") - med(base, "replay_s")
    d_setup = med(slow, "setup_s") - med(base, "setup_s")
    rate_base = probe["attempted"] / med(base, "replay_s")
    rate_slow = probe["attempted"] / med(slow, "replay_s")
    print(f"  {workload}: {calls} calls x {delay_us} us = {injected:.3f} s injected; "
          f"experiment_s +{d_exp:.3f} s, replay +{d_replay:.3f} s "
          f"(replay_ops_per_s {rate_base:.0f} -> {rate_slow:.0f}), "
          f"setup_s {d_setup:+.4f} s")
    report(abs(d_exp - injected) <= TOLERANCE * injected,
           f"{workload} experiment_s moves by the injected time")
    report(abs(d_replay - injected) <= TOLERANCE * injected,
           f"{workload} replay_ops_per_s moves by the injected time")
    report(abs(d_setup) <= 0.05 * injected,
           f"{workload} setup_s does not move")


def main():
    _, runner = run.build()
    for workload in run.WORKLOADS:
        smoke_and_corruption(runner, workload)
    for workload in run.WORKLOADS:
        sensitivity(runner, workload)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
