"""Command-line front end.

Subcommands mirror the library operations: forward, series, invert,
classify, simulate, region.  Exit status: 0 on success (a nonclassical
verdict is a successful run), 2 on usage errors (argparse), 3 when input
validation fails, 4 when a computation signals a numeric failure such as
an exact pole or a too-short horizon.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import NumericFailure, ValidationError
from .mcsim import (
    compare,
    ks_critical_value,
    parse_law,
    simulate,
    waiting_time_histogram,
)
from .spectral import (
    DEFAULT_GRID_SAMPLES,
    DEFAULT_MEAN_COVERAGE,
    TimeGrid,
    forward_transform,
    grid_for_mean,
    inverse_transform,
)
from .thinning import (
    DEFAULT_TAU_NEG,
    DEFAULT_TAU_POLE,
    Efficiency,
    _density_from_detected_spectrum,
    classical_region,
    classify,
    detected_density,
    detected_spectrum,
    emitted_spectrum,
    region_boundary_samples,
    series_partial_sum,
)

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4


def _add_p(sp, required=True):
    sp.add_argument("--p", type=float, required=required,
                    help="detection efficiency in (0, 1]")


def _add_in(sp, what):
    sp.add_argument("--in", dest="input_path", required=True, metavar="CSV",
                    help=f"input {what} CSV (header t,value)")


def _add_out(sp):
    sp.add_argument("--out", dest="out_dir", required=True, metavar="DIR",
                    help="output directory (created if missing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewalthin",
        description="Thinned renewal streams: spectral maps, inversion, "
                    "classicality tests, Monte Carlo validation.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser(
        "forward", help="emission density -> detected density and spectra",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_in(fwd, "emission density")
    _add_p(fwd)
    _add_out(fwd)

    ser = sub.add_parser(
        "series", help="brute-force partial sum of the thinning series",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_in(ser, "emission density")
    _add_p(ser)
    ser.add_argument("--k", type=int, default=40,
                     help="series truncation order K")
    _add_out(ser)

    inv = sub.add_parser(
        "invert", help="detected density -> recovered emission density",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_in(inv, "detected density")
    _add_p(inv)
    _add_out(inv)

    cls = sub.add_parser(
        "classify", help="test a detected density for a classical source",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_in(cls, "detected density")
    _add_p(cls)
    cls.add_argument("--tau-neg", type=float, default=DEFAULT_TAU_NEG,
                     help="negativity mass that counts as nonclassical")
    cls.add_argument("--tau-pole", type=float, default=DEFAULT_TAU_POLE,
                     help="pole proximity below which the verdict is indeterminate")
    _add_out(cls)

    sim = sub.add_parser(
        "simulate", help="Monte Carlo thinned stream vs the closed form",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sim.add_argument("--law", required=True,
                     help="source law, name:params "
                          "(exponential:RATE, gamma:SHAPE,RATE, uniform:LO,HI, "
                          "periodic:PERIOD, antibunch:RISE,DECAY)")
    _add_p(sim)
    sim.add_argument("--emissions", type=int, default=1_000_000,
                     help="number of emitted clicks before thinning")
    sim.add_argument("--seed", type=int, default=0, help="RNG seed")
    sim.add_argument("--shards", type=int, default=1,
                     help="independent generator shards")
    sim.add_argument("--n", type=int, default=DEFAULT_GRID_SAMPLES,
                     help="grid samples for the histogram")
    sim.add_argument("--dt", type=float, default=None,
                     help="grid spacing; default sizes the horizon to "
                          f"{DEFAULT_MEAN_COVERAGE:g} detected mean waits")
    _add_out(sim)

    reg = sub.add_parser(
        "region", help="boundary of the classical region at efficiency p",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_p(reg)
    reg.add_argument("--count", type=int, default=360,
                     help="boundary samples")
    _add_out(reg)

    return parser


def _outdir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_forward(args) -> int:
    f = fileio.read_density_csv(args.input_path)
    p = Efficiency(args.p)
    phi = forward_transform(f)
    big_phi = detected_spectrum(phi, p)
    F = _density_from_detected_spectrum(big_phi)
    out = _outdir(args)
    fileio.write_density_csv(out / "detected_density.csv", F)
    fileio.write_spectrum_csv(out / "emission_spectrum.csv", phi)
    fileio.write_spectrum_csv(out / "detected_spectrum.csv", big_phi)
    print(f"forward: wrote detected density and both spectra to {out}")
    return EXIT_OK


def cmd_series(args) -> int:
    f = fileio.read_density_csv(args.input_path)
    p = Efficiency(args.p)
    partial = series_partial_sum(f, p, args.k)
    closed = detected_density(f, p)
    gap = float(np.abs(partial.values - closed.values).sum() * f.grid.dt)
    out = _outdir(args)
    fileio.write_density_csv(out / "series_density.csv", partial)
    fileio.write_json(out / "series_report.json", {
        "K": args.k,
        "mass": partial.mass,
        "l1_gap_vs_closed_form": gap,
        "tail_bound": (1.0 - p.p) ** (args.k + 1),
    })
    print(f"series: K={args.k} mass={partial.mass:.9f} "
          f"gap_vs_closed_form={gap:.3g}")
    return EXIT_OK


def cmd_invert(args) -> int:
    F = fileio.read_density_csv(args.input_path)
    p = Efficiency(args.p)
    big_phi = forward_transform(F)
    phi, proximity = emitted_spectrum(big_phi, p)
    recovered = inverse_transform(phi)
    out = _outdir(args)
    fileio.write_density_csv(out / "recovered_density.csv", recovered)
    fileio.write_json(out / "inversion_report.json", {
        "p": p.p,
        "pole_proximity": proximity,
    })
    print(f"invert: pole_proximity={proximity:.6g}; wrote recovered density")
    return EXIT_OK


def cmd_classify(args) -> int:
    F = fileio.read_density_csv(args.input_path)
    p = Efficiency(args.p)
    verdict = classify(F, p, tau_neg=args.tau_neg, tau_pole=args.tau_pole)
    out = _outdir(args)
    fileio.write_json(out / "verdict.json",
                      fileio.verdict_to_dict(verdict, p.p, F.grid))
    print(f"classify: {verdict.kind.value} "
          f"(negativity_mass={verdict.negativity_mass:.6g}, "
          f"region_violations={len(verdict.region_violations)}, "
          f"pole_proximity={verdict.pole_proximity:.6g})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    law = parse_law(args.law)
    p = Efficiency(args.p)
    if args.dt is None:
        grid = grid_for_mean(law.mean() / p.p, n=args.n)
    else:
        grid = TimeGrid(n=args.n, dt=args.dt)

    clicks = simulate(law, p, args.emissions, args.seed, shards=args.shards)
    hist = waiting_time_histogram(clicks, grid)
    analytic = detected_density(law.density(grid), p)
    metrics = compare(hist.density, analytic)
    ks_critical = ks_critical_value(hist.n_intervals)
    # Reported, not an exit status: a correct run misses 1% of the time.
    ks_pass = bool(metrics.ks < ks_critical)

    out = _outdir(args)
    name, params = law.describe()
    fileio.write_clicks_csv(out / "clicks.csv", clicks.timestamps)
    fileio.write_json(out / "clicks_meta.json", {
        "law": name,
        "params": params,
        "p": p.p,
        "n_emitted": clicks.n_emitted,
        "seed": clicks.seed,
        "shards": clicks.shards,
    })
    fileio.write_density_csv(out / "empirical_density.csv", hist.density)
    fileio.write_json(out / "compare_report.json", {
        "l1": metrics.l1,
        "linf": metrics.linf,
        "ks": metrics.ks,
        "ks_critical_1pct": ks_critical,
        "ks_pass": ks_pass,
        "n_intervals": hist.n_intervals,
        "overflow_fraction": hist.overflow_fraction,
    })
    print(f"simulate: detected {clicks.timestamps.size}/{clicks.n_emitted} "
          f"clicks, ks={metrics.ks:.3g} "
          f"(1% critical {ks_critical:.3g}) {'PASS' if ks_pass else 'FAIL'}")
    return EXIT_OK


def cmd_region(args) -> int:
    p = Efficiency(args.p)
    boundary = region_boundary_samples(p, args.count)
    region = classical_region(p)
    out = _outdir(args)
    fileio.write_region_csv(out / "region_boundary.csv", boundary)
    fileio.write_json(out / "region_meta.json", fileio.region_meta_dict(region))
    print(f"region: p={p.p} center={region.center:.9f} radius={region.radius:.9f}")
    return EXIT_OK


_DISPATCH = {
    "forward": cmd_forward,
    "series": cmd_series,
    "invert": cmd_invert,
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "region": cmd_region,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
