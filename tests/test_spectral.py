"""Grid, density and transform layer: discretization fidelity and FFT round trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from renewalthin import (
    TimeGrid,
    Density,
    Spectrum,
    forward_transform,
    inverse_transform,
    density_from_masses,
    negativity_mass,
    grid_for_mean,
    Exponential,
    Gamma,
)
from renewalthin.errors import (
    InvalidDensity,
    NonHermitianSpectrum,
)
from renewalthin.spectral import MAG_TOL, NORM_TOL, TAIL_TOL


def test_grid_basics():
    g = TimeGrid(4096, 0.01)
    assert g.horizon == pytest.approx(40.96)
    t = g.times()
    assert t[0] == 0.0
    assert t[1] == 0.01
    om = g.omegas()
    assert om[0] == 0.0
    assert om[1] == pytest.approx(2 * np.pi / 40.96)
    # second half of the FFT frequency layout is negative
    assert om[-1] < 0


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0, 0.01)
    with pytest.raises(ValueError):
        TimeGrid(64, -1.0)


def test_grid_for_mean_covers_25_means():
    g = grid_for_mean(2.0)
    assert g.n == 4096
    assert g.horizon == pytest.approx(50.0)


def test_density_mass_and_mean():
    g = TimeGrid(2048, 0.02)
    f = Exponential(1.0).density(g)
    assert f.mass == pytest.approx(1.0, abs=1e-12)
    assert f.mean() == pytest.approx(1.0, rel=1e-3)


def test_density_values_read_only():
    g = TimeGrid(64, 0.1)
    f = Exponential(1.0).density(g)
    with pytest.raises((ValueError, RuntimeError)):
        f.values[0] = 7.0


def test_validation_negativity():
    g = TimeGrid(64, 0.1)
    v = np.full(64, 1.0)
    v[3] = -0.01
    with pytest.raises(InvalidDensity) as ei:
        forward_transform(Density(g, v))
    assert ei.value.invariant == "negativity"


def test_validation_normalization():
    g = TimeGrid(64, 0.1)
    v = np.zeros(64)
    v[0] = 3.0  # mass 0.3
    with pytest.raises(InvalidDensity) as ei:
        forward_transform(Density(g, v))
    assert ei.value.invariant == "normalization"


def test_validation_tail():
    g = TimeGrid(64, 0.1)
    v = np.zeros(64)
    v[-1] = 10.0  # all mass in the last sample
    with pytest.raises(InvalidDensity) as ei:
        forward_transform(Density(g, v))
    assert ei.value.invariant in ("tail_sample", "tail_window")


def test_tail_window_checks_last_tenth():
    # mass parked at the start of the last 10% of the grid but with a zero
    # final sample: the windowed check must still reject it
    g = TimeGrid(100, 0.1)
    v = np.zeros(100)
    v[0] = 9.0
    v[92] = 1.0
    with pytest.raises(InvalidDensity) as ei:
        forward_transform(Density(g, v))
    assert ei.value.invariant == "tail_window"


def test_quadrature_against_analytic_transform():
    """Discretized exponential spectrum tracks 1/(1+iw) at moderate frequency."""
    g = TimeGrid(4096, 0.01)
    phi = forward_transform(Exponential(1.0).density(g))
    om = g.omegas()
    analytic = 1.0 / (1.0 + 1j * om)
    m = 7  # omega ~ 1.07
    assert abs(phi.values[m] - analytic[m]) < 1e-3  # measured 7.2e-6
    low = np.abs(om) < 10.0
    assert np.max(np.abs(phi.values[low] - analytic[low])) < 1e-3  # measured 8.3e-5


def test_spectrum_is_one_at_zero_frequency():
    g = TimeGrid(4096, 0.01)
    phi = forward_transform(Exponential(1.0).density(g))
    assert phi.values[0] == pytest.approx(1.0, abs=1e-12)


def test_discretizer_matches_pointwise_density():
    g = TimeGrid(4096, 0.01)
    f = Gamma(2.0, 1.0).density(g)
    t = g.times()
    pointwise = t * np.exp(-t)
    l1 = g.dt * np.sum(np.abs(f.values - pointwise))
    assert l1 < 1e-3  # measured 1.8e-5; cell averaging differs at O(dt^2)


def test_round_trip_exponential():
    g = TimeGrid(4096, 0.01)
    f = Exponential(1.0).density(g)
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_delta_transform_is_all_ones():
    g = TimeGrid(256, 0.05)
    v = np.zeros(256)
    v[0] = 1.0 / g.dt
    s = forward_transform(Density(g, v))
    assert np.array_equal(s.values, np.ones(256, dtype=complex))
    back = inverse_transform(s)
    assert np.max(np.abs(back.values - v)) < 1e-12


def test_convolution_theorem_against_direct_convolution():
    """Pointwise spectrum product inverts to the rectangle-rule convolution."""
    g = TimeGrid(1024, 0.04)
    a = Exponential(1.0).density(g)
    b = Gamma(2.0, 2.0).density(g)
    prod = forward_transform(a).values * forward_transform(b).values
    via_fft = np.fft.ifft(prod).real / g.dt
    direct = np.convolve(a.values, b.values)[: g.n] * g.dt
    assert np.max(np.abs(via_fft - direct)) < 1e-6  # measured 2.2e-16


def test_inverse_rejects_asymmetric_spectrum():
    g = TimeGrid(1024, 0.04)
    s = forward_transform(Exponential(1.0).density(g))
    broken = s.values.copy()
    broken[1] += 1e-3
    with pytest.raises(NonHermitianSpectrum):
        inverse_transform(Spectrum(g, broken))


def test_negativity_mass():
    g = TimeGrid(10, 0.1)
    v = np.zeros(10)
    v[0] = 2.0
    v[1] = -0.5
    assert negativity_mass(Density(g, v)) == pytest.approx(0.05)
    v[1] = 0.0
    assert negativity_mass(Density(g, v)) == 0.0


def test_tolerance_constants():
    assert (NORM_TOL, MAG_TOL, TAIL_TOL) == (1e-6, 1e-9, 1e-8)


@pytest.mark.parametrize("scale", [1.0 - 5e-7, 1.0 + 5e-7])
def test_forward_transform_normalizes_accepted_mass(scale):
    """Any mass validation accepts gives phi(0) = 1 and |phi| <= 1."""
    g = TimeGrid(4096, 0.04)
    d = Density(g, Exponential(1.0).density(g).values * scale)
    phi = forward_transform(d)
    assert phi.values[0] == pytest.approx(1.0, abs=1e-15)
    assert np.abs(phi.values).max() <= 1.0 + 1e-15
    back = inverse_transform(phi)
    assert np.max(np.abs(back.values - d.values / d.mass)) < 1e-12


# -- properties -------------------------------------------------------------

# random masses confined to the front 60% of a small grid, so tail headroom
# and normalization hold by construction after density_from_masses
front_masses = hnp.arrays(
    np.float64,
    150,
    elements=st.floats(0.0, 1.0, allow_nan=False),
).filter(lambda m: m.sum() > 0.1)


def _random_density(masses):
    g = TimeGrid(256, 0.05)
    padded = np.zeros(256)
    padded[:150] = masses
    return density_from_masses(g, padded)


@given(front_masses)
def test_property_round_trip(masses):
    f = _random_density(masses)
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


@given(front_masses)
def test_property_spectrum_bounded_by_one(masses):
    f = _random_density(masses)
    s = forward_transform(f)
    assert np.max(np.abs(s.values)) <= 1.0 + 1e-9
