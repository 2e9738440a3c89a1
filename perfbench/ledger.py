#!/usr/bin/env python3
"""Records the benchmark ledger: every workload, untraced and traced.

    python3 perfbench/ledger.py [--seeds 1,2,3] [--seconds 24] [--out FILE]

For each workload this runs perfbench/run.py once per seed untraced (the
end-to-end figures: median over seeds) and once traced on the first seed
(the per-layer figures). Tracing overhead is the traced run's end-to-end
numbers (printed as "traced <name> <value> <unit>") relative to the
untraced medians. Also checks that the traced results digest equals the
untraced one for the same seed. Writes perfbench/ledger.json by default.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(bench.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit "
                 f"{proc.returncode}\n{proc.stdout}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    digest = re.search(r"^(?:\[0\] )?digest \S+ seed \d+ ([0-9a-f]{8})$",
                       proc.stdout, re.M).group(1)
    notes = [line for line in lines[:-1] if not line.startswith("traced ")]
    traced = {}
    for line in lines:
        match = re.match(r"^traced (\S+) (\S+) (\S+)$", line)
        if match:
            traced[match.group(1)] = float(match.group(2))
    return result, digest, notes, traced


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--out", default=str(bench.ROOT / "perfbench" /
                                             "ledger.json"))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    bench.build()
    ledger = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "facts": bench.facts(),
        "seeds": seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in bench.WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced, traced_digest, traced_notes, traced_e2e = run_once(
            workload, seeds[0], args.seconds, 1)
        end_to_end = {}
        for name, unit in bench.expected_metrics(0).items():
            values = [r[0]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            entry = {"median": median, "unit": unit, "values": values}
            if name in traced_e2e and median:
                entry["traced"] = traced_e2e[name]
                entry["tracing_overhead"] = traced_e2e[name] / median - 1.0
            end_to_end[name] = entry
        ledger["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in traced["metrics"].items()},
            "digests": {str(seed): r[1] for seed, r in zip(seeds, runs)},
            "traced_digest_matches": traced_digest == runs[0][1],
            "notes": runs[0][2],
            "traced_notes": traced_notes,
        }
        print(f"{workload}: recorded ({len(runs)} untraced runs + 1 traced)",
              flush=True)
    Path(args.out).write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
