#!/usr/bin/env python3
"""Compare two trees on the benchmark in alternating pairs; write BENCH_<n>.json.

Each side is a git ref, exported with ``git archive`` into a temporary
directory, so only committed files are measured.  For every workload, each
of the ten pairs i runs ``perfbench/run.py --workload W --seed (seed + i)``
once on each side in a fresh process, at the benchmark's own run length,
parent first in even pairs and change first in odd ones, so that slow
phases of the host hit both sides alike.  Nothing under ``perfbench/`` is
touched.

The JSON written holds, per workload, every run's end-to-end metrics,
``correct``, ``fail_frac`` and provenance (its run length included); per
side the median and quartiles of each metric; and per metric the number of
pairs in which the change was better and a verdict, decided in this order:

- ``gain``: the change is better in at least nine tenths of the pairs, its
  median is better than the parent's by more than the parent's q3 - q1,
  and a larger share of its operations does not fail;
- ``unresolved``: the parent's q3 - q1 exceeds the bound times its median,
  and not every run of the change is better than every run of the parent;
- ``regression``: the change's median is worse than the parent's by more
  than the bound times the parent's median;
- ``within_bound`` otherwise.

The bounds come from the change's ``BENCHMARK.json``.  Only measured
numbers are written.

    python scripts/record_bench.py --parent HEAD~1 --change HEAD --out BENCH_23.json
    python scripts/record_bench.py --workloads sweep --seed 5000 --out sweep.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "montecarlo", "cli_write", "cli_read")
SIDES = ("parent", "change")
PAIRS = 10


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def checkout(ref: str, workdir: Path, side: str) -> tuple[Path, dict]:
    """`ref` exported into a fresh directory, and where it came from."""
    commit = _git("rev-parse", "--verify", f"{ref}^{{commit}}")
    where = workdir / side
    where.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive.stdout, check=True)
    return where, {"source": ref, "commit": commit,
                   "src_tree": _git("rev-parse", f"{commit}:src")}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One fresh-process benchmark run; its last JSON line plus provenance."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prov = next(json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("provenance:"))
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_frac": result["failed"] / result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "provenance": prov,
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _is_better(better: str):
    """a, b -> whether a is better than b for a metric whose `better` is given."""
    return (lambda a, b: a < b) if better == "lower" else (lambda a, b: a > b)


def pair_wins(parent: list[float], change: list[float], better: str) -> int:
    is_better = _is_better(better)
    return sum(is_better(c, p) for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool) -> str:
    """gain, unresolved, regression or within_bound, as the module docstring says."""
    is_better = _is_better(better)
    par, chg = quartiles(parent), quartiles(change)
    spread = par["q3"] - par["q1"]
    if (not more_failures and 10 * pair_wins(parent, change, better) >= 9 * len(parent)
            and is_better(chg["median"], par["median"])
            and abs(chg["median"] - par["median"]) > spread):
        return "gain"
    if spread > bound * par["median"] and not all(
            is_better(c, p) for c in change for p in parent):
        return "unresolved"
    worst = par["median"] * (1 + bound if better == "lower" else 1 - bound)
    return "regression" if is_better(worst, chg["median"]) else "within_bound"


def summarize(runs: dict, spec: list[dict]) -> dict:
    """Per-side quartiles, per-metric pair wins and verdicts of the change."""
    failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    attempted = {side: sum(r["attempted"] for r in runs[side]) for side in SIDES}
    more_failures = (failed["change"] * attempted["parent"]
                     > failed["parent"] * attempted["change"])
    metrics = {}
    for m in spec:
        name = m["name"]
        per_side = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                         "change_better_pairs": pair_wins(
                             per_side["parent"], per_side["change"], m["better"]),
                         "verdict": verdict(per_side["parent"], per_side["change"],
                                            m["better"], m["bound"], more_failures),
                         **{side: quartiles(per_side[side]) for side in SIDES}}
    return {
        "metrics": metrics,
        "fail_frac": {side: quartiles([r["fail_frac"] for r in runs[side]])
                      for side in SIDES},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1", help="git ref")
    ap.add_argument("--change", default="HEAD", help="git ref")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1000, help="seed of pair 0")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="record_bench-"))
    try:
        trees, origins = {}, {}
        for side in SIDES:
            trees[side], origins[side] = checkout(getattr(args, side), workdir, side)
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        report = {
            "sides": origins,
            "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "machine": platform.machine(),
                     "nproc": os.cpu_count()},
            "pairs": PAIRS, "seed": args.seed,
            "workloads": {},
        }
        for workload in args.workloads:
            runs = {side: [] for side in SIDES}
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_once(trees[side], workload, args.seed + i)
                    runs[side].append(run)
                    p50 = run["metrics"]["job_p50_s"]
                    print(f"{workload} pair {i} {side}: job_p50_s {p50:.4g} "
                          f"correct {run['correct']} fail_frac {run['fail_frac']:.3g}",
                          flush=True)
            summary = summarize(runs, spec)
            report["workloads"][workload] = {"summary": summary, "runs": runs}
            for name, m in summary["metrics"].items():
                print(f"{workload} {name}: {m['verdict']} (parent median "
                      f"{m['parent']['median']:.4g}, change {m['change']['median']:.4g}, "
                      f"change better in {m['change_better_pairs']}/{PAIRS})", flush=True)
            # Written after every workload, so an interrupted run keeps
            # what it measured.
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
