"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py --workload stars --runs 10 [--first-seed 1]

Reads the command, run length and bounds from BENCHMARK.json.  For each
end-to-end metric it prints the median of the runs and the distance between
the first and third quartile as a share of the median (the spread the bound
is compared against), and the share of failed operations in every run.
Runs one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        if not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}, not correct\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        shares.add((result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    print(f"failed/attempted per run: {sorted(shares)}")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']:14s} median={med:.5g} {m['unit']:5s} spread={spread:.4f} "
              f"bound={m['bound']} (spread/bound={spread / m['bound']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
