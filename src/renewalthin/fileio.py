"""On-disk formats: CSV for grid signals and click streams, JSON for reports.

All CSV writes go through one ``%.17g`` row writer and all reads through
one numpy parser, so files re-parse to the exact same doubles and
identical runs give byte-identical files.  Readers check structure
(headers, column count, uniform spacing) but not values -- a recovered
density with negative lobes must survive a round trip unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .spectral import Density, Spectrum, TimeGrid
from .thinning import ClassicalityVerdict, ClassicalRegion

__all__ = [
    "write_density_csv",
    "read_density_csv",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_clicks_csv",
    "read_clicks_csv",
    "write_json",
    "read_json",
    "verdict_to_dict",
    "write_region_csv",
    "region_meta_dict",
]

# Relative tolerance for the uniform-spacing check on read.
_SPACING_RTOL = 1e-9
# Rows formatted per write: the text of one block is all a writer holds.
_WRITE_BLOCK_ROWS = 4096


def _write_rows(path, header: str, *columns) -> None:
    """Write ``header`` then one ``%.17g`` row per index across ``columns``."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, cols[0].size, _WRITE_BLOCK_ROWS):
            block = [c[i:i + _WRITE_BLOCK_ROWS].tolist() for c in cols]
            fh.write("".join(map(row.__mod__, zip(*block))))


def write_density_csv(path, density: Density) -> None:
    """Write header ``t,value`` and one row per grid sample."""
    _write_rows(path, "t,value", density.grid.times(), density.values)


def _read_rows(path, header: str, n_cols: int) -> np.ndarray:
    """Rows under a first-line ``header`` as an (n, n_cols) float array."""
    with open(path) as fh:
        head = fh.readline().strip()
        if head != header:
            raise ValidationError(f"{path}: expected header {header!r}, got {head!r}")
        if all(ln.isspace() for ln in fh):
            raise ValidationError(f"{path}: no data rows under {header!r}")
    try:
        rows = np.loadtxt(path, skiprows=1, delimiter=",", comments=None,
                          ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed data row: {exc}") from None
    if rows.shape[1] != n_cols:
        raise ValidationError(f"{path}: expected {n_cols} columns under {header!r}")
    return rows


def _grid_from_times(path, t: np.ndarray) -> TimeGrid:
    n = t.size
    if n < 2:
        raise ValidationError(f"{path}: need at least 2 rows")
    dt = (t[-1] - t[0]) / (n - 1)
    if not (np.isfinite(dt) and dt > 0):
        raise ValidationError(f"{path}: time column is not increasing")
    expected = t[0] + dt * np.arange(n)
    if abs(t[0]) > _SPACING_RTOL * dt:
        raise ValidationError(f"{path}: time axis must start at 0, got {t[0]!r}")
    if np.abs(t - expected).max() > _SPACING_RTOL * max(dt, abs(t[-1])):
        raise ValidationError(f"{path}: time column is not uniformly spaced")
    return TimeGrid(n=n, dt=float(dt))


def read_density_csv(path) -> Density:
    rows = _read_rows(path, "t,value", 2)
    grid = _grid_from_times(path, rows[:, 0])
    return Density(grid, rows[:, 1])


def write_spectrum_csv(path, spectrum: Spectrum) -> None:
    """Write header ``omega,re,im`` in FFT sample order (folded frequencies)."""
    v = spectrum.values
    _write_rows(path, "omega,re,im", spectrum.grid.omegas(), v.real, v.imag)


def read_spectrum_csv(path) -> Spectrum:
    rows = _read_rows(path, "omega,re,im", 3)
    omega = rows[:, 0]
    n = omega.size
    if n < 2:
        raise ValidationError(f"{path}: need at least 2 rows")
    step = omega[1] - omega[0]
    if not (np.isfinite(step) and step > 0):
        raise ValidationError(f"{path}: frequency column is malformed")
    dt = 2.0 * np.pi / (n * step)
    grid = TimeGrid(n=n, dt=float(dt))
    expected = grid.omegas()
    scale = max(abs(expected[0]), float(np.abs(expected).max()))
    if np.abs(omega - expected).max() > _SPACING_RTOL * scale:
        raise ValidationError(
            f"{path}: frequency column does not match a folded FFT grid")
    return Spectrum(grid, rows[:, 1] + 1j * rows[:, 2])


def write_clicks_csv(path, timestamps: np.ndarray) -> None:
    _write_rows(path, "timestamp", timestamps)


def read_clicks_csv(path) -> np.ndarray:
    return _read_rows(path, "timestamp", 1)[:, 0]


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def verdict_to_dict(verdict: ClassicalityVerdict, p: float, grid: TimeGrid) -> dict:
    """Flatten a verdict into the JSON report layout."""
    return {
        "kind": verdict.kind.value,
        "negativity_mass": verdict.negativity_mass,
        "pole_proximity": verdict.pole_proximity,
        "region_violations": [
            {
                "omega": v.omega,
                "phi_re": v.phi.real,
                "phi_im": v.phi.imag,
                "excess": v.excess,
            }
            for v in verdict.region_violations
        ],
        "p": p,
        "grid": {"n": grid.n, "dt": grid.dt},
    }


def write_region_csv(path, boundary: np.ndarray) -> None:
    """Write boundary samples as ``re,im`` rows."""
    _write_rows(path, "re,im", np.real(boundary), np.imag(boundary))


def region_meta_dict(region: ClassicalRegion) -> dict:
    return {"p": region.p.p, "center": region.center, "radius": region.radius}
