#!/usr/bin/env python3
"""Benchmark renewalthin end to end, or layer by layer with --trace 1.

One invocation runs one workload in this fresh process: a closed loop
with one job in flight, one untimed warm-up job, then jobs timed back to
back until at least --seconds of job time and at least 100 jobs (so p90
has ten samples beyond it), stopping at a whole cycle of inputs.  Every
job's outputs are checked outside the timed region.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

The last line of output is one JSON object: correct, attempted, failed
and metrics (end-to-end with --trace 0, per-layer with --trace 1).  Full
records, with provenance, go to .perfbench/results/ and span traces to
.perfbench/traces/ under the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sweep", "montecarlo", "cli_write", "cli_read")

SETUP_PROBES = 5
# Each probe is a fresh interpreter timing the import of the package and its CLI.
_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "t = time.perf_counter(); import renewalthin, renewalthin.cli; "
          "t = time.perf_counter() - t; print(t, renewalthin.__file__)")
# Least untraced and least traced jobs in a traced run, which reports medians only.
TRACE_FLOOR = 20
# A run that cannot reach the job floor within this much wall time gives up.
WALL_LIMIT_S = 140.0


def measure_setup() -> list[float]:
    """Import times of SETUP_PROBES fresh interpreters, after one untimed one."""
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed: {done.stderr.strip()}")
        seconds, where = done.stdout.split(maxsplit=1)
        if not Path(where.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported renewalthin from {where.strip()}, not {SRC}")
        if i:
            times.append(float(seconds))
    return times


def provenance(args, jobs: int) -> dict:
    import numpy
    import scipy

    import renewalthin

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"commit": commit, "renewalthin": renewalthin.__version__,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "jobs": jobs}


def timed_loop(workload, tally, seconds: float, floor: int, tracer=None):
    """Untraced job durations and, with a tracer, traced ones.

    With a tracer, whole cycles of inputs alternate between untraced and
    traced, so both see every input.  Stops at a whole cycle (two with a
    tracer) once the jobs took at least ``seconds`` and at least ``floor``
    untraced jobs ran.
    """
    step = 2 if tracer else 1
    # warm-up, a repeat of job 0: caches filled, lazy set-up done; unchecked
    workload.run(0)
    workload.discard(0)
    plain, traced = [], []
    started = time.perf_counter()
    j = 0
    while True:
        # Every job starts from the same collector state, as a fresh CLI process
        # would; otherwise garbage from checking the last job is collected on
        # this job's clock.
        gc.collect()
        trace_this = tracer is not None and (j // workload.cycle) % 2 == 1
        if trace_this:
            tracer.install()
            try:
                t0 = time.perf_counter()
                result = tracer.job(j, workload.run, j)
                t1 = time.perf_counter()
            finally:
                tracer.uninstall()
            traced.append(t1 - t0)
        else:
            t0 = time.perf_counter()
            result = workload.run(j)
            t1 = time.perf_counter()
            plain.append(t1 - t0)
        workload.check(j, result, tally)
        del result
        workload.discard(j)
        j += 1
        if j % (workload.cycle * step):
            continue
        timed = sum(plain) + sum(traced)
        if len(plain) >= floor and timed >= seconds:
            break
        if time.perf_counter() - started > WALL_LIMIT_S:
            raise RuntimeError(f"only {len(plain)} jobs in {WALL_LIMIT_S:.0f} s; "
                               f"the run needs {floor}")
    return plain, traced


def run_one(args) -> dict:
    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    from perfbench import stats, workloads
    from perfbench.tracing import Tracer

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / tag
    workdir.mkdir(parents=True)
    tally = stats.OpTally()
    tracer = Tracer() if args.trace else None
    floor = TRACE_FLOOR if tracer else stats.min_samples(90)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        plain, traced = timed_loop(workload, tally, args.seconds, floor, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"provenance": provenance(args, len(plain) + len(traced)),
              "job_s": plain, "failures": tally.failures,
              "unexpected_failures": tally.unexpected}
    if tracer:
        layers, shares = tracer.layer_metrics()
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        record.update(per_layer=layers, share_pct=shares, traced_job_s=traced)
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{tag}.json")
    else:
        record["end_to_end"] = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "job_p50_s": (statistics.median(plain), "s", len(plain)),
            "job_p90_s": (stats.tail_percentile(plain, 90), "s", len(plain)),
            "jobs_per_s": (len(plain) / sum(plain), "1/s", len(plain)),
            "peak_rss_mib": (peak_rss_mib, "MiB", 1),
            "fail_frac": (tally.fail_frac, "1", tally.attempted),
        }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("provenance:", json.dumps(record["provenance"]))
    if tracer:
        report_trace(args.workload, record)
        print(f"  {'fail_frac':<14} {tally.fail_frac:>12.6g} {'1':<4} n={tally.attempted}")
    else:
        print(f"{args.workload}: end-to-end")
        for name, (value, unit, n) in record["end_to_end"].items():
            print(f"  {name:<14} {value:>12.6g} {unit:<4} n={n}")
    for op, count in sorted(tally.failures.items()):
        known = "" if op in tally.unexpected else " (known defect)"
        print(f"  failed: {op} x{count}{known}")

    # The JSON line carries the metrics BENCHMARK.json names for this mode.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer:
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": record["end_to_end"][m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": not tally.unexpected, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


# Which modules should dominate each workload's job time, per the design.
DOMINANT = {"sweep": ("spectral", "thinning"), "montecarlo": ("mcsim",),
            "cli_write": ("fileio.write",), "cli_read": ("fileio.read",)}


def report_trace(workload: str, record: dict) -> None:
    shares = record["share_pct"]
    print(f"{workload}: share of traced job time (self time, %)")
    for name, pct in shares.items():
        print(f"  {name:<14} {pct:8.2f}")
    expected = DOMINANT[workload]
    total = sum(shares[m] for m in expected)
    verdict = "holds" if total > 50.0 else "DOES NOT HOLD"
    print(f"  dominance: {'+'.join(expected)} = {total:.1f}% of job time: {verdict}")
    print(f"{workload}: per-layer metrics, per traced job "
          f"(n={len(record['traced_job_s'])})")
    for name, value in record["per_layer"].items():
        print(f"  {name:<32} {value:.6g}")


def run_all(args) -> int:
    """Run every workload in turn, each in its own fresh process."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="least job time to measure (the 100-job floor may add more)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "renewalthin" / "__init__.py").is_file():
        print(f"error: no renewalthin sources under {SRC}", file=sys.stderr)
        return 2
    # import the benchmark as the package perfbench, not its files as modules
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != here]
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
