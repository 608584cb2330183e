"""Oracle bookkeeping and the benchmark's own inputs."""

import numpy as np
import pytest

import renewalthin as rt
import renewalthin.fileio as fileio
from perfbench import inputs
from perfbench.stats import OpTally
from perfbench.workloads import MonteCarlo


def _montecarlo_without_inputs():
    mc = MonteCarlo.__new__(MonteCarlo)
    mc.laws = [(text, p, None) for text, p in MonteCarlo.CASES]
    return mc


def test_known_defects_count_as_failures():
    passing = (0.0, 10_000)
    outcome = [passing, passing, rt.ValidationError("x"), passing, (1.0, 10_000), passing]
    tally = OpTally()
    _montecarlo_without_inputs().check(0, outcome, tally)
    assert (tally.attempted, tally.failed) == (6, 2)
    assert tally.fail_frac == pytest.approx(2 / 6)
    assert not tally.unexpected


def test_other_failures_are_unexpected():
    passing = (0.0, 10_000)
    outcome = [RuntimeError("boom")] + [passing] * 5
    tally = OpTally()
    _montecarlo_without_inputs().check(0, outcome, tally)
    assert tally.failed == 1
    assert list(tally.unexpected) == ["exponential:1@0.1"]


@pytest.mark.parametrize("cdf, law", [
    (inputs.exponential_cdf(1.5), rt.Exponential(1.5)),
    (inputs.gamma2_cdf(2.0), rt.Gamma(2.0, 2.0)),
    (inputs.antibunch_cdf(5.0, 1.0), rt.AntibunchShaped(5.0, 1.0)),
])
def test_cell_averages_match_the_package_discretisation(cdf, law):
    grid = rt.TimeGrid(512, inputs.grid_dt(law.mean(), 512))
    ours = inputs.cell_average(cdf, grid.n, grid.dt)
    np.testing.assert_allclose(ours, law.density(grid).values, rtol=1e-12, atol=1e-14)


def test_density_csv_round_trips_exactly(tmp_path):
    dt = inputs.grid_dt(1.0, 300)
    values = inputs.cell_average(inputs.exponential_cdf(1.0), 300, dt)
    path = tmp_path / "d.csv"
    inputs.write_density_csv(path, dt, values)
    rows = inputs.read_csv(path, "t,value")
    assert rows[:, 1].tobytes() == values.tobytes()
    assert rows[:, 0].tobytes() == (np.arange(300) * dt).tobytes()
    assert fileio.read_density_csv(path).values.tobytes() == values.tobytes()
