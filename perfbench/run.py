#!/usr/bin/env python3
"""Build and run the simulator host-throughput benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload interleaved --seed 1 --seconds 15 --trace 0

The first call configures and builds perfbench/ together with the
simulator sources in src/ as a Release CMake build under
.bench_build/perfbench; later calls rebuild incrementally. The benchmark
binary's report is passed through, and its last stdout line is the JSON
result. Per-run records and span files land in .bench_build/perfbench/results.

Exit status: 0 on success; non-zero when the build fails, a correctness
check fails, or the binary produced no well-formed result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Compiler output -> stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            log("build step failed: %s" % e)
            return False
    return True


def source_id():
    """Git commit when the tree is a git checkout, else a digest of the
    sources the benchmark builds, so every result names its code."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 check=True, capture_output=True,
                                 text=True, timeout=30)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return res


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--basket", choices=("canonical", "held-out"),
                   default="canonical",
                   help="held-out draws each cell's workload from its "
                        "Table IV class with --seed")
    a = p.parse_args()

    if not build():
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    # The benchmark fixes its own configuration: no LADM_* variable
    # (shards, checks, telemetry sinks) may leak into the measurement.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LADM_")}
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--basket", a.basket, "--commit", source_id(),
           "--out-dir", RESULTS]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log("benchmark did not finish: %s" % e)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    res = valid_result(lines[-1]) if lines else None
    if res is None:
        sys.stdout.write(proc.stdout)
        log("no well-formed result (exit %d)" % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not res["correct"]:
        log("correctness check failed (exit %d)" % proc.returncode)
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
