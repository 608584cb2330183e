#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --runs 10 --first-seed 0

For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartile as a share of the median,
next to the bound BENCHMARK.json fixes for it, and flags any spread of a
third of the bound or more as WIDE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import quartile_spread

    values, walls = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, *spec["command"][1:], "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            print(done.stdout, done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: wall {walls[-1]:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    print(f"{args.workload}: {args.runs} runs, median wall {statistics.median(walls):.1f} s")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        spread = quartile_spread(v)
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"  {m['name']:<14} median {statistics.median(v):<12.6g} "
              f"spread {spread:7.2%}  bound {m['bound']:.0%}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
