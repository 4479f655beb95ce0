#!/usr/bin/env python3
"""Builds and runs the gkx wire-to-answer benchmark.

    python3 wirebench/run.py --workload <hot_read|cold_eval> --seed <n> \\
        --seconds <s> --trace <0|1>

Run it from the root of a gkx checkout. Every run first brings the build in
.bench_build/wirebench up to date (wirebench/CMakeLists.txt: the library
sources, the benchmark and tools/check_stats_json); the first run in a
checkout configures and compiles it all. Build output goes to standard
error. Standard output carries the benchmark's metric lines and, last, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A traced run
also re-validates the router's stats document with check_stats_json.

Exit codes: 0 when every check passed, 1 when a check failed (the JSON line
is still printed), 2 when the benchmark could not build or run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wirebench"
# Wall-clock budget of one invocation, build included: a run must end within
# 180 s, and the first run in a checkout, which compiles everything, within
# 900 s. Whatever is still running at the budget's end is killed.
RUN_BUDGET_S = 170
FIRST_RUN_BUDGET_S = 880


def log(message):
    print(f"wirebench: {message}", file=sys.stderr, flush=True)


def run_until(command, deadline, **kwargs):
    """Runs `command` in a process group of its own and returns
    (exit code, stdout), or None when it was still running at `deadline`,
    in which case the whole group is killed and reaped."""
    child = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        out, _ = child.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None
    return child.returncode, out


def build(deadline):
    needed = [ROOT / "src" / "service" / "sharded_service.hpp",
              ROOT / "tools" / "check_stats_json.cpp"]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if missing:
        log("gkx sources not found: " + ", ".join(missing))
        return False
    steps = [["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        done = run_until(step, deadline, stdout=sys.stderr, stderr=sys.stderr)
        if done is None or done[0] != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot_read", "cold_eval"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    started = time.monotonic()
    first = not (BUILD / "CMakeCache.txt").exists()
    deadline = started + (FIRST_RUN_BUDGET_S if first else RUN_BUDGET_S)
    if not build(deadline):
        log("build failed or ran out of time")
        return 2
    log(f"build took {time.monotonic() - started:.1f} s")

    work = BUILD / "run" / args.workload
    command = [str(BUILD / "wirebench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
    run = run_until(command, deadline, stdout=subprocess.PIPE, text=True)
    if run is None:
        log(f"no result within {deadline - started:.0f} s of the start")
        return 2
    returncode, stdout = run

    lines = stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines.pop())
        except ValueError:
            result = None
    for line in lines:
        print(line)
    if result is None:
        log(f"no result line (exit code {returncode})")
        return 2

    if args.trace == 1:
        checked = run_until(
            [str(BUILD / "check_stats_json"), str(work / "stats.json")],
            deadline, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        if checked is None:
            log("check_stats_json ran out of time")
            return 2
        verdict = "ok" if checked[0] == 0 else checked[1].strip()
        print(f"  check_stats_json stats.json: {verdict}")
        if checked[0] != 0:
            result["correct"] = False
    # The journals are large and only meaningful inside the run.
    for journal in ("wal", "twin_wal"):
        shutil.rmtree(work / journal, ignore_errors=True)

    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
