#!/usr/bin/env python3
"""Self-test of the benchmark harness at small scale (~2.4k ASes, seconds).

    python3 perfbench/selftest.py

Checks, for every workload:
  * every metric of BENCHMARK.json is printed exactly once, with its unit, in
    the untraced (end-to-end) and the traced (per-layer) result;
  * the traced run's results digest equals the untraced run's;
  * a corrupted result trips the correctness gate (exit 1, "correct":false);
  * the same seed reproduces the same inputs byte for byte, and a different
    seed changes them.
Exits non-zero on the first failed check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

OUT = bench.ROOT / ".bench_build" / "selftest"


def run_binary(workload, seed, trace, *extra):
    command = [str(bench.BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", "2", "--trace", str(trace), "--scale", "small",
               "--out-dir", str(OUT), *extra]
    return subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=120)


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        sys.exit(1)


def digest_of(stdout):
    match = re.search(r"^digest \S+ seed \d+ ([0-9a-f]{8})$", stdout, re.M)
    return match.group(1) if match else None


def check_metrics(workload, trace, stdout):
    last = stdout.rstrip("\n").split("\n")[-1]
    want = bench.expected_metrics(trace)
    kind = "per-layer" if trace else "end-to-end"
    for name, unit in want.items():
        pattern = '"' + re.escape(name) + '":{"value":'
        count = len(re.findall(pattern, last))
        check(count == 1, f"{workload}: {kind} metric {name} printed once "
                          f"(found {count})")
        entry = json.loads(last)["metrics"][name]
        check(entry["unit"] == unit, f"{workload}: {name} has unit {unit}")
    check(bench.check_result(last, trace) == "",
          f"{workload}: {kind} result matches BENCHMARK.json")


def main():
    bench.build()
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in bench.WORKLOADS:
        untraced = run_binary(workload, 1, 0)
        check(untraced.returncode == 0, f"{workload}: untraced run exits 0")
        check_metrics(workload, 0, untraced.stdout)
        traced = run_binary(workload, 1, 1)
        check(traced.returncode == 0, f"{workload}: traced run exits 0")
        check_metrics(workload, 1, traced.stdout)
        check(digest_of(untraced.stdout) is not None and
              digest_of(untraced.stdout) == digest_of(traced.stdout),
              f"{workload}: traced digest equals untraced digest "
              f"({digest_of(traced.stdout)})")

        corrupt = run_binary(workload, 1, 0, "--corrupt")
        last = corrupt.stdout.rstrip("\n").split("\n")[-1]
        check(corrupt.returncode == 1 and '"correct":false' in last,
              f"{workload}: a corrupted result trips the gate")

        dumps = []
        for seed in (1, 1, 2):
            path = OUT / f"{workload}-inputs-{len(dumps)}.txt"
            result = run_binary(workload, seed, 0, "--dump-inputs", str(path))
            check(result.returncode == 0, f"{workload}: seed {seed} run exits 0")
            dumps.append(path.read_bytes())
        check(len(dumps[0]) > 0 and dumps[0] == dumps[1],
              f"{workload}: seed 1 inputs are byte-identical across runs")
        check(dumps[0] != dumps[2], f"{workload}: seed 2 changes the inputs")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
