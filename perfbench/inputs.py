"""Inputs the benchmark makes itself, and its own CSV reader and writer.

Densities are closed-form cell averages computed here in numpy, with the
package's grid convention (sample k holds the mass of
[t_k - dt/2, t_k + dt/2), the first cell clipped at 0, renormalised), so
the benchmark's inputs and reference answers stay byte-identical across
commits whatever the package's own discretisation or CSV code becomes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Horizon in mean waiting times, as the package sizes its default grids.
COVERAGE = 25.0


def exponential_cdf(rate: float):
    return lambda t: -np.expm1(-rate * t)


def gamma2_cdf(rate: float):
    """CDF of the shape-2 gamma law: 1 - exp(-r t) (1 + r t)."""
    return lambda t: -np.expm1(-rate * t) - rate * t * np.exp(-rate * t)


def antibunch_cdf(rise: float, decay: float):
    """CDF of the density proportional to (1 - exp(-rise t)) exp(-decay t)."""
    a, b = rise, decay
    norm = b * (a + b) / a
    return lambda t: norm * (-np.expm1(-b * t) / b + np.expm1(-(a + b) * t) / (a + b))


def antibunch_mean(rise: float, decay: float) -> float:
    a, b = rise, decay
    return b * (a + b) / a * (1.0 / b**2 - 1.0 / (a + b) ** 2)


def grid_dt(mean_wait: float, n: int) -> float:
    """Grid spacing whose horizon n * dt covers COVERAGE mean waits."""
    return COVERAGE * mean_wait / n


def cell_average(cdf, n: int, dt: float) -> np.ndarray:
    """Density values on n samples of spacing dt, normalised to mass 1."""
    edges = (np.arange(n + 1) - 0.5) * dt
    edges[0] = 0.0
    masses = np.diff(cdf(edges))
    return masses / (masses.sum() * dt)


def write_density_csv(path, dt: float, values: np.ndarray) -> None:
    """Header ``t,value``, then ``%.17g`` rows t_k = k * dt."""
    t = (np.arange(values.size) * dt).tolist()
    rows = map("%.17g,%.17g".__mod__, zip(t, values.tolist()))
    Path(path).write_text("t,value\n" + "\n".join(rows) + "\n")


def read_csv(path, header: str) -> np.ndarray:
    """Rows under ``header`` as a float array, one column per field.

    Parses with Python's float(), which round-trips ``%.17g`` exactly.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: expected header {header!r}")
    width = header.count(",") + 1
    if width == 1:
        return np.array(list(map(float, lines[1:])), dtype=np.float64)
    cells = ",".join(lines[1:]).split(",")
    return np.array(list(map(float, cells)), dtype=np.float64).reshape(-1, width)
