#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (and the library sources it links) into .bench_build/; later runs
only rebuild what changed. The last line of standard output is the result
JSON: the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Spans of a traced run, and the snapshot files the
serve workload writes while it runs, stay under .bench_build/out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
OUT_DIR = ROOT / ".bench_build" / "out"
BINARY = BUILD_DIR / "asppi_perfbench"
WORKLOADS = ("sweep_cold", "sweep_warm", "serve_open_loop")

# An untraced run is split over this many processes, each measuring an equal
# share of --seconds, and reports the median of their figures. On a shared
# host a whole process can land in a slow state (every figure of it ~35%
# off, for its lifetime); the median of three keeps one such process out of
# the result. Only the first process runs the correctness gate (and the serve
# workload's SLO search).
PROCESSES = 3

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = ROOT / ".bench_build" / "build.log"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                     + generator)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} failed: {error}")
            if code != 0:
                # A failed configure must not leave a cache that skips it next
                # time.
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                log.flush()
                sys.stderr.write(Path(log_path).read_text()[-4000:])
                fail(f"build failed (exit {code}); log in {log_path}")


def facts():
    """Machine and build facts every report records."""
    cache = {}
    cache_path = BUILD_DIR / "CMakeCache.txt"
    if cache_path.exists():
        for line in cache_path.read_text().splitlines():
            key, sep, value = line.partition("=")
            if sep:
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], capture_output=True,
            text=True, cwd=ROOT).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        describe = "unknown (no git)"
    return {"nproc": os.cpu_count(),
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "compiler": version, "git_describe": describe,
            "transport": "loopback (127.0.0.1), client in-process"}


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns an error string, or "" when `line` is a well-formed result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            return f"{name}: unit {got[name].get('unit')} != {unit}"
    return ""


def run_process(command, timeout):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{command[2]} did not finish within {timeout:.0f} s")
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def merge(results):
    """One result from several processes': medians of the metrics."""
    merged = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results), "metrics": {}}
    for name, entry in results[0]["metrics"].items():
        values = sorted(r["metrics"][name]["value"] for r in results)
        merged["metrics"][name] = {"value": values[len(values) // 2],
                                   "unit": entry["unit"]}
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload, "--seed",
               str(args.seed), "--trace", str(args.trace), "--out-dir",
               str(OUT_DIR)]
    # Traced runs are for per-layer figures, which carry no bounds: one
    # process measures the whole time.
    processes = 1 if args.trace else PROCESSES
    seconds = args.seconds / processes
    deadline = RUN_TIMEOUT_S
    results = []
    code = 0
    for index in range(processes):
        extra = ["--seconds", repr(seconds)] + (["--secondary"] if index else [])
        started = time.monotonic()
        status, lines = run_process(command + extra, deadline)
        deadline -= time.monotonic() - started
        prefix = f"[{index}] " if processes > 1 else ""
        if status not in (0, 1):
            sys.stdout.write("".join(prefix + line + "\n" for line in lines))
            fail(f"{args.workload} exited with {status}")
        error = check_result(lines[-1], args.trace)
        if error:
            sys.stdout.write("".join(prefix + l + "\n" for l in lines[:-1]))
            fail(f"malformed result: {error}")
        sys.stdout.write("".join(prefix + l + "\n" for l in lines[:-1]))
        results.append(json.loads(lines[-1]))
        code = max(code, status)
    print("facts " + json.dumps(facts(), sort_keys=True))
    print(json.dumps(merge(results), separators=(",", ":")), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
