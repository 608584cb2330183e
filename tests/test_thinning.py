"""Detection-thinning maps, series oracle, classical-region geometry, classifier."""

import math

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
    grid_for_mean,
    Efficiency,
    detected_spectrum,
    detected_density,
    emitted_spectrum,
    series_partial_sum,
    classify,
    classical_region,
    region_boundary_samples,
    VerdictKind,
    Exponential,
    Gamma,
    Uniform,
    AntibunchShaped,
    Periodic,
)
from renewalthin.errors import (
    DenominatorUnderflow,
    ExactPole,
    HorizonTooShort,
    InvalidSpectrum,
    ValidationError,
)
from renewalthin.spectral import MAG_TOL
from conftest import densities_of_any_length, is_hermitian


def two_atom_density(grid, p, offset=0.0, t_a_bin=64):
    """Two point masses tuned so the spectrum hits w*(-1) + (1-w) at one
    grid frequency; w = 1/(2(1-p)) lands exactly on the inversion pole,
    and `offset` backs away from it."""
    w = 1.0 / (2.0 * (1.0 - p)) - offset
    masses = np.zeros(grid.n)
    masses[t_a_bin] = w
    masses[2 * t_a_bin] = 1.0 - w
    return Density(grid, masses / grid.dt)


def test_efficiency_validation():
    assert Efficiency(1.0).p == 1.0
    assert Efficiency(0.3).overlook == pytest.approx(0.7)
    for bad in (0.0, -0.1, 1.0001, float("nan")):
        with pytest.raises(ValidationError):
            Efficiency(bad)


def test_detected_spectrum_is_exact_mobius_map():
    """On an analytic spectrum the map must agree with p*phi/(1-(1-p)phi)
    evaluated directly, frequency by frequency."""
    g = TimeGrid(4096, 0.01)
    om = g.omegas()
    phi = Spectrum(g, 1.0 / (1.0 + 1j * om))
    for p in (0.05, 0.5, 1.0):
        got = detected_spectrum(phi, p).values
        expect = p / (p + 1j * om)  # closed form for this phi
        assert np.max(np.abs(got - expect)) < 1e-12


def test_detected_spectrum_identity_at_p_one():
    g = TimeGrid(1024, 0.04)
    phi = forward_transform(Exponential(1.0).density(g))
    out = detected_spectrum(phi, 1.0)
    assert np.array_equal(out.values, phi.values)


def test_detected_spectrum_rejects_oversized_spectrum():
    g = TimeGrid(64, 0.1)
    with pytest.raises(InvalidSpectrum):
        detected_spectrum(Spectrum(g, np.full(64, 1.5 + 0j)), 0.5)


def test_thinned_exponential_closed_form():
    # thinning an exponential source only rescales its rate
    g = TimeGrid(8192, 0.01)
    F = detected_density(Exponential(1.0).density(g), 0.5)
    oracle = Exponential(0.5).density(g)
    assert np.max(np.abs(F.values - oracle.values)) < 1e-3


def test_detected_density_identity_at_p_one():
    g = TimeGrid(1024, 0.04)
    f = Exponential(1.0).density(g)
    F = detected_density(f, 1.0)
    assert np.max(np.abs(F.values - f.values)) < 1e-12


def test_detected_density_lattice_teeth():
    """Thinning a lattice law leaves geometric masses on the lattice."""
    g = TimeGrid(4096, 0.0625)  # period/dt = 16 exactly
    f = Periodic(1.0).density(g)
    for p in (0.3, 0.5):
        F = detected_density(f, p)
        masses = F.values * g.dt
        for k in range(1, 40):
            assert masses[16 * k] == pytest.approx(p * (1 - p) ** (k - 1), abs=1e-12)
        off = masses.copy()
        off[16 * np.arange(1, g.n // 16)] = 0.0
        assert np.max(np.abs(off)) < 1e-12


def test_detected_density_mean_scaling():
    g = grid_for_mean(5.0, n=4096)
    f = Uniform(0.5, 1.5).density(g)  # mean 1
    F = detected_density(f, 0.2)
    assert F.mean() == pytest.approx(5.0, rel=0.01)


def test_horizon_too_short():
    g = TimeGrid(4096, 0.01)  # horizon 41, thinned mean 20
    with pytest.raises(HorizonTooShort):
        detected_density(Exponential(1.0).density(g), 0.05)


def test_denominator_underflow():
    g = TimeGrid(1024, 0.01)
    v = np.zeros(1024)
    v[0] = 1.0 / g.dt
    phi = forward_transform(Density(g, v))  # all-ones spectrum
    with pytest.raises(DenominatorUnderflow):
        detected_spectrum(phi, Efficiency(1e-15))


def test_series_partial_sum_mass():
    """Truncated mixture carries mass 1 - (1-p)^(K+1)."""
    g = TimeGrid(4096, 0.1)
    f = Exponential(1.0).density(g)
    for p, K in ((0.3, 40), (0.5, 10)):
        FK = series_partial_sum(f, p, K)
        assert FK.mass == pytest.approx(1.0 - (1.0 - p) ** (K + 1), abs=1e-6)


def test_series_order_zero_is_scaled_input():
    g = TimeGrid(2048, 0.05)
    f = Gamma(2.0, 2.0).density(g)
    F0 = series_partial_sum(f, 0.4, 0)
    assert np.allclose(F0.values, 0.4 * f.values, rtol=1e-14, atol=0.0)


def test_series_approaches_closed_form():
    g = TimeGrid(4096, 0.1)
    f = Gamma(2.0, 2.0).density(g)
    p = 0.3
    F = detected_density(f, p)
    gaps = []
    for K in (5, 20, 60):
        FK = series_partial_sum(f, p, K)
        gap = g.dt * np.sum(np.abs(F.values - FK.values))
        assert gap <= (1 - p) ** (K + 1) + 1e-6
        gaps.append(gap)
    assert gaps[0] > gaps[1] > 0.0


def test_emitted_spectrum_inverts_detected():
    g = TimeGrid(2048, 0.05)
    phi = forward_transform(Gamma(2.0, 2.0).density(g))
    for p in (0.05, 0.3, 1.0):
        back, prox = emitted_spectrum(detected_spectrum(phi, p), p)
        assert np.max(np.abs(back.values - phi.values)) < 1e-12
        assert prox > 0.0


def test_emitted_spectrum_exact_pole():
    # constant spectrum at -1 with p = 0.5 makes 1 - (1 - 1/p) Phi exactly 0
    g = TimeGrid(64, 0.1)
    with pytest.raises(ExactPole):
        emitted_spectrum(Spectrum(g, np.full(64, -1.0 + 0j)), 0.5)


def test_pole_proximity_scales_linearly_near_pole():
    g = TimeGrid(1024, 0.01)
    p = 0.3
    slope = 2.0 * (1.0 / p - 1.0)  # |d denom / d w|
    proxes = []
    for delta in (1e-3, 1e-4):
        F = two_atom_density(g, p, offset=delta)
        Phi = forward_transform(F)
        _, prox = emitted_spectrum(Phi, p)
        assert prox == pytest.approx(slope * delta, rel=0.05)
        proxes.append(prox)
    assert proxes[0] / proxes[1] == pytest.approx(10.0, rel=0.01)


# -- classical region geometry ----------------------------------------------


def test_region_closed_form():
    reg = classical_region(0.5)
    assert reg.center == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert reg.radius == pytest.approx(2.0 / 3.0, abs=1e-15)
    reg = classical_region(0.05)
    assert reg.center == pytest.approx(0.95 / 1.95, abs=1e-15)
    assert reg.radius == pytest.approx(1.0 / 1.95, abs=1e-15)
    reg = classical_region(1.0)
    assert reg.center == 0.0
    assert reg.radius == 1.0


def test_region_boundary_hand_values():
    pts = region_boundary_samples(0.5, 4)
    expect = np.array([1.0, -0.2 + 0.4j, -1.0 / 3.0, -0.2 - 0.4j])
    assert np.max(np.abs(pts - expect)) < 1e-12


def test_region_boundary_on_circle():
    for p in (0.05, 0.3, 0.5, 1.0):
        reg = classical_region(p)
        pts = region_boundary_samples(p, 360)
        assert pts.shape == (360,)
        assert np.max(np.abs(np.abs(pts - reg.center) - reg.radius)) < 1e-12


def test_in_classical_region_hand_values():
    def inside(z, p):
        return classical_region(p).excess(z) <= MAG_TOL

    assert inside(1.0, 0.5)          # boundary point for any p
    assert inside(0.0, 0.5)
    assert not inside(-1.0, 0.5)     # distance 4/3 > 2/3
    assert inside(1.0, 0.05)
    assert not inside(1.0 + 1e-6, 1.0)


# -- classifier ---------------------------------------------------------------


def test_classify_forward_image_is_classical(classifier_corpus):
    for name, f in classifier_corpus.items():
        F = detected_density(f, 0.3)
        v = classify(F, 0.3)
        assert v.kind is VerdictKind.CLASSICAL, name
        assert v.negativity_mass < 1e-6
        assert v.region_violations == ()
        assert v.pole_proximity > 1e-3
        # recovered density should resemble the source it came from
        assert np.max(np.abs(v.recovered_f.values - f.values)) < 1e-6


def test_classify_antibunch_shape_nonclassical():
    """A density vanishing at zero delay demands a signed source at low p."""
    g = TimeGrid(4096, 0.01)
    F = AntibunchShaped(5.0, 1.0).density(g)
    v = classify(F, 0.05)
    assert v.kind is VerdictKind.NONCLASSICAL
    assert v.negativity_mass == pytest.approx(0.530783, abs=5e-4)
    assert len(v.region_violations) > 0
    assert all(rv.excess > 0 for rv in v.region_violations)

    # analytic inversion: (240/sqrt(431)) sin(sqrt(431) t/2) e^{-3.5t},
    # compared through its cell averages (antiderivative in closed form)
    root = math.sqrt(431.0)
    a, b = 3.5, root / 2.0
    edges = (np.arange(g.n + 1) - 0.5) * g.dt
    edges[0] = 0.0
    anti = (240.0 / root) * (
        -np.exp(-a * edges) * (a * np.sin(b * edges) + b * np.cos(b * edges))
        / (a * a + b * b)
    )
    cell = np.diff(anti) / g.dt
    assert np.max(np.abs(v.recovered_f.values - cell)) < 1e-2  # measured 2.8e-3
    # total negativity of the analytic inversion, for scale: 0.5308
    assert v.negativity_mass == pytest.approx(0.5308136, abs=1e-3)


def test_classify_antibunch_shape_classical_at_p_one():
    g = TimeGrid(4096, 0.01)
    F = AntibunchShaped(5.0, 1.0).density(g)
    v = classify(F, 1.0)
    assert v.kind is VerdictKind.CLASSICAL
    assert v.negativity_mass < 1e-6


@pytest.mark.parametrize("p", [0.3, 0.9])
@pytest.mark.parametrize("scale", [1.0 - 5e-7, 1.0 + 5e-7])
def test_mass_within_norm_tolerance_is_accepted(scale, p):
    """A density validation accepts must pass the unit bound, so mass a
    hair above 1 neither raises nor shows up as a violation at omega = 0."""
    g = TimeGrid(4096, 0.04)
    F = Density(g, Exponential(1.0).density(g).values * scale)
    v = classify(F, p)
    assert v.kind is VerdictKind.CLASSICAL
    assert v.region_violations == ()
    assert detected_density(F, p).mass == pytest.approx(1.0, abs=1e-12)


def test_classify_near_pole_is_indeterminate():
    g = TimeGrid(1024, 0.01)
    F = two_atom_density(g, 0.3, offset=1e-9)
    v = classify(F, 0.3)
    assert v.kind is VerdictKind.INDETERMINATE
    assert 0.0 < v.pole_proximity < 1e-6


def test_classify_exact_pole_is_indeterminate():
    g = TimeGrid(1024, 0.01)
    F = two_atom_density(g, 0.5, offset=0.0, t_a_bin=64)
    v = classify(F, 0.5)
    assert v.kind is VerdictKind.INDETERMINATE
    assert v.pole_proximity == 0.0


def test_classify_negativity_without_region_violation():
    """The two evidence channels can disagree; negativity alone convicts."""
    g = TimeGrid(1024, 0.01)
    F = two_atom_density(g, 0.3, offset=1e-9)
    v = classify(F, 0.9)
    assert v.kind is VerdictKind.NONCLASSICAL
    assert v.negativity_mass > 1e-3  # measured 5.0e-2
    assert v.region_violations == ()


def test_classify_threshold_overrides():
    g = TimeGrid(1024, 0.01)
    F = two_atom_density(g, 0.3, offset=1e-9)
    v = classify(F, 0.9, tau_neg=0.1)
    assert v.kind is VerdictKind.CLASSICAL
    v = classify(F, 0.3, tau_pole=0.0)
    assert v.kind is not VerdictKind.INDETERMINATE


# -- properties ---------------------------------------------------------------

front_masses = hnp.arrays(
    np.float64,
    150,
    elements=st.floats(0.0, 1.0, allow_nan=False),
).filter(lambda m: m.sum() > 0.1)

unit_disk_points = hnp.arrays(
    np.complex128,
    64,
    elements=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)


@given(front_masses, st.floats(0.05, 1.0))
def test_property_forward_images_stay_in_region(masses, p):
    g = TimeGrid(256, 0.05)
    padded = np.zeros(256)
    padded[:150] = masses
    f = density_from_masses(g, padded)
    Phi = detected_spectrum(forward_transform(f), p)
    reg = classical_region(p)
    assert np.max(np.abs(Phi.values - reg.center)) <= reg.radius + 1e-9


@given(unit_disk_points, st.floats(0.05, 1.0))
def test_property_mobius_round_trip(values, p):
    """emitted ∘ detected is the identity on any bounded spectrum; the
    denominator cannot vanish because |1-(1-p)phi| >= p on the unit disk."""
    g = TimeGrid(64, 0.1)
    phi = Spectrum(g, values)
    back, _ = emitted_spectrum(detected_spectrum(phi, p), p)
    assert np.max(np.abs(back.values - phi.values)) < 1e-12


@given(densities_of_any_length(), st.floats(0.01, 1.0))
def test_property_maps_keep_exact_hermitian_symmetry(f, p):
    """Both pointwise maps send exactly Hermitian spectra to exactly
    Hermitian spectra, so the inverse transform's residual stays 0."""
    big_phi = detected_spectrum(forward_transform(f), p)
    assert is_hermitian(big_phi.values)
    phi, _ = emitted_spectrum(big_phi, p)
    assert is_hermitian(phi.values)
    phi_direct, _ = emitted_spectrum(forward_transform(f), p)
    assert is_hermitian(phi_direct.values)


@st.composite
def hermitian_unit_disk_spectra(draw, max_n=300):
    """Exactly Hermitian spectra of n = 2 .. max_n samples with |v| <= 1."""
    n = draw(st.integers(2, max_n))
    half = draw(hnp.arrays(np.complex128, n // 2 + 1, elements=st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False)))
    half[0] = half[0].real
    if n % 2 == 0:
        half[-1] = half[-1].real
    v = np.empty(n, dtype=np.complex128)
    v[:half.size] = half
    v[half.size:] = np.conjugate(half[(n + 1) // 2 - 1:0:-1])
    return v


@given(hermitian_unit_disk_spectra(), st.floats(0.01, 1.0))
def test_property_emitted_spectrum_matches_textbook_form(v, p):
    """phi and the pole proximity equal (Phi/p) / (1 - (1-1/p) Phi) and
    min |1 - (1-1/p) Phi| to 1e-13.  Near the pole both forms carry an
    absolute round-off of about eps/p in the proximity, so the tolerance
    widens by 8 eps / min |p + (1-p) Phi|, the map's condition number."""
    eps = np.finfo(np.float64).eps
    denom = 1.0 - (1.0 - 1.0 / p) * v
    ref_prox = float(np.abs(denom).min())
    try:
        phi, prox = emitted_spectrum(Spectrum(TimeGrid(v.size, 0.1), v), p)
    except ExactPole:
        assert ref_prox <= 8 * eps / p
        return
    assert abs(prox - ref_prox) <= 1e-13 * ref_prox + 8 * eps / p
    if ref_prox > 0.0:
        ref_phi = (v / p) / denom
        rtol = 1e-13 + 8 * eps / (p * ref_prox)
        assert np.abs(phi.values - ref_phi).max() <= rtol * np.abs(ref_phi).max()


def test_every_returned_values_array_is_read_only():
    g = TimeGrid(2048, 0.05)
    f = Gamma(2.0, 2.0).density(g)
    phi = forward_transform(f)
    big_phi = detected_spectrum(phi, 0.5)
    F = detected_density(f, 0.5)
    returned = {
        "forward_transform": phi,
        "inverse_transform": inverse_transform(phi),
        "detected_spectrum": big_phi,
        "emitted_spectrum": emitted_spectrum(big_phi, 0.5)[0],
        "detected_density": F,
        "classify.recovered_f": classify(F, 0.5).recovered_f,
    }
    for name, c in returned.items():
        assert not c.values.flags.writeable, name
        with pytest.raises(ValueError):
            c.values[0] = 0.0
