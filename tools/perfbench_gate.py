#!/usr/bin/env python3
"""Gate simulator throughput on the committed perfbench baseline.

Run from the repository root:

    python3 tools/perfbench_gate.py --seconds 5

Each workload named in BENCHMARK.json runs once through
`python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0`.
The gate fails when:
  - run.py exits non-zero: the build failed, a pass was not
    deterministic, a cell broke conservation, or pdes fell back to the
    serial engine;
  - a gated end-to-end metric is worse than the workload's median in
    BENCH_perfbench.json by more than its BENCHMARK.json bound;
  - on a host with at least 4 usable cores, pdes under --trace 1 reads
    sim.pdes_speedup below 1.1.

setup_s is printed against the baseline but not gated: two 3-s
first-touch runs on a 4-core VM read 0.0119 s and 0.0180 s, a spread
wider than its bound. With fewer than 4 usable cores the four pdes
shard threads time-slice, so neither the PDES floor nor pdes's rates
(recorded on 4 cores) are gated there. Per-run records land in
.bench_build/perfbench/results.

Exit status: 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
UNGATED = {"setup_s"}
RATES = {"warp_steps_per_sec", "sector_accesses_per_sec"}
PDES_FLOOR = 1.1
PDES_MIN_CORES = 4


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def run(workload, seconds, trace):
    """run.py's exit status and its result line's metrics ({} if none)."""
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    print("$ python3 perfbench/run.py " + " ".join(cmd[2:]), flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    try:
        metrics = json.loads(proc.stdout.strip().split("\n")[-1])["metrics"]
    except (ValueError, KeyError, TypeError):
        metrics = {}
    return proc.returncode, metrics


def worse_by(value, base, better):
    """How far value falls behind base, as a share of base (<= 0: not)."""
    return (base - value) / base if better == "higher" else \
        (value - base) / base


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seconds", type=float, default=5,
                   help="run length of each perfbench run (default 5)")
    a = p.parse_args()

    bench = load("BENCHMARK.json")
    baseline = load("BENCH_perfbench.json")
    print("baseline host: %s" % json.dumps(baseline["host"]))
    cores = len(os.sched_getaffinity(0))
    few_cores = cores < PDES_MIN_CORES
    failures = []

    for w in (x["name"] for x in bench["workloads"]):
        rc, metrics = run(w, a.seconds, 0)
        if rc != 0:
            failures.append("%s: run.py exited %d" % (w, rc))
            continue
        base = baseline["workloads"][w]["end_to_end"]
        ungated = UNGATED | (RATES if w == "pdes" and few_cores else set())
        for m in bench["end_to_end"]:
            name = m["name"]
            if name not in metrics or name not in base:
                failures.append("%s %s: missing from the run or the "
                                "baseline" % (w, name))
                continue
            value, ref = metrics[name]["value"], base[name]["value"]
            worse = worse_by(value, ref, m["better"])
            verdict = "not gated" if name in ungated else \
                "FAIL" if worse > m["bound"] else "ok"
            print("gate: %-12s %-24s %14.6g vs %14.6g  ratio %.3f  "
                  "bound %.2f  %s" % (w, name, value, ref, value / ref,
                                      m["bound"], verdict), flush=True)
            if verdict == "FAIL":
                failures.append("%s %s: %.6g is %.0f%% worse than the "
                                "baseline %.6g (bound %.0f%%)" % (
                                    w, name, value, 100 * worse, ref,
                                    100 * m["bound"]))

    if few_cores:
        print("gate: PDES floor and pdes rates skipped: %d usable core(s), "
              "needs %d" % (cores, PDES_MIN_CORES), flush=True)
    else:
        rc, metrics = run("pdes", a.seconds, 1)
        speedup = metrics.get("sim.pdes_speedup", {}).get("value")
        if rc != 0 or speedup is None:
            failures.append("pdes --trace 1: no sim.pdes_speedup "
                            "(run.py exited %d)" % rc)
        else:
            print("gate: pdes sim.pdes_speedup %.2fx (floor %.1fx, "
                  "baseline %.2fx)" % (
                      speedup, PDES_FLOOR, baseline["workloads"]["pdes"]
                      ["per_layer"]["sim.pdes_speedup"]["value"]),
                  flush=True)
            if speedup < PDES_FLOOR:
                failures.append("pdes sim.pdes_speedup: %.2fx below the "
                                "%.1fx floor on %d cores" % (
                                    speedup, PDES_FLOOR, cores))

    for f in failures:
        print("gate: FAIL " + f, file=sys.stderr)
    print("gate: %s" % ("FAILED" if failures else "passed"), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
