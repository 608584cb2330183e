"""Shared fixtures and the acceptance-summary reporting hook."""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.extra import numpy as hnp

from renewalthin import (
    TimeGrid,
    density_from_masses,
    Exponential,
    Gamma,
    Uniform,
    Periodic,
    AntibunchShaped,
)

settings.register_profile("suite", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("suite")


def smoothed_point_mass(grid, at=1.0):
    """Point mass at `at` spread over three adjacent bins (1/4, 1/2, 1/4)."""
    m = int(round(at / grid.dt))
    masses = np.zeros(grid.n)
    masses[m - 1] = 0.25
    masses[m] = 0.5
    masses[m + 1] = 0.25
    return density_from_masses(grid, masses)


@st.composite
def densities_of_any_length(draw, max_n=300):
    """Valid densities on grids of n = 2 .. max_n samples, odd and even.

    Mass sits only in front of the tail window and the last sample, so
    validation accepts every draw.
    """
    n = draw(st.integers(2, max_n))
    front = min(int(np.ceil(0.9 * n)), n - 1)
    masses = np.zeros(n)
    masses[:front] = draw(hnp.arrays(
        np.float64, front, elements=st.floats(0.0, 1.0, allow_nan=False)
    ).filter(lambda m: m.sum() > 0.1))
    return density_from_masses(TimeGrid(n, 25.0 / n), masses)


def is_hermitian(values):
    """Whether values[-k] == conj(values[k]) for every k, exactly."""
    k = np.arange(values.size)
    return bool(np.all(values[-k] == np.conjugate(values)))


@pytest.fixture
def grid():
    return TimeGrid(4096, 0.0625)


@pytest.fixture
def classifier_corpus(grid):
    """The soundness corpus: smooth laws plus a smoothed point mass."""
    return {
        "exponential": Exponential(1.0).density(grid),
        "gamma2": Gamma(2.0, 2.0).density(grid),
        "uniform": Uniform(0.5, 1.5).density(grid),
        "smoothed_point_mass": smoothed_point_mass(grid),
    }


@pytest.fixture
def source_laws():
    return {
        "exponential": Exponential(1.0),
        "gamma2": Gamma(2.0, 2.0),
        "uniform": Uniform(0.5, 1.5),
        "periodic": Periodic(1.0),
        "antibunch": AntibunchShaped(5.0, 1.0),
    }


# ---------------------------------------------------------------------------
# Acceptance summary: tests in test_acceptance.py record one line per
# criterion; the lines are echoed after the run so pass/fail status is
# visible without -s.

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
