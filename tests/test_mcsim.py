"""Renewal-thinning simulator: determinism, histograms, agreement with the maps."""

import numpy as np
import pytest
from scipy.special import kolmogi
from scipy.stats import kstest

from renewalthin import (
    TimeGrid,
    Density,
    grid_for_mean,
    detected_density,
    Exponential,
    Gamma,
    Uniform,
    Periodic,
    AntibunchShaped,
    ClickStream,
    simulate,
    waiting_time_histogram,
    compare,
    ks_critical_value,
    parse_law,
)
from renewalthin import mcsim
from renewalthin.mcsim import BLOCK_EMISSIONS, KS_COEFF_1PCT
from renewalthin.errors import GridMismatch, TooFewClicks, ValidationError


def case_grid(law, p, n=4096):
    """Horizon sized for the thinned mean; periodic laws get a dt that
    divides the period so lattice points sit exactly on bins."""
    if isinstance(law, Periodic):
        m = max(1, round(n * p / 25.0))
        return TimeGrid(n, law.period / m)
    return grid_for_mean(law.mean() / p, n=n)


def test_law_parameter_validation():
    for ctor in (lambda: Exponential(0.0), lambda: Gamma(-1.0, 2.0),
                 lambda: Uniform(1.5, 0.5), lambda: Periodic(0.0),
                 lambda: AntibunchShaped(5.0, -1.0)):
        with pytest.raises(ValidationError):
            ctor()


def test_law_means():
    assert Exponential(2.0).mean() == pytest.approx(0.5)
    assert Gamma(2.0, 2.0).mean() == pytest.approx(1.0)
    assert Uniform(0.5, 1.5).mean() == pytest.approx(1.0)
    assert Periodic(3.0).mean() == pytest.approx(3.0)
    # C(1 - e^{-5t}) e^{-t} has mean (rise + 2 decay)/(decay (rise + decay))
    assert AntibunchShaped(5.0, 1.0).mean() == pytest.approx(7.0 / 6.0)


@pytest.mark.parametrize("rise, decay", [(5.0, 1.0), (0.2, 1.0), (50.0, 1.0)])
def test_antibunch_sample_follows_its_cdf(rise, decay):
    """Unbinned KS of the two-exponential sampler against the law's cdf."""
    law = AntibunchShaped(rise, decay)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2024)))
    assert kstest(law.sample(rng, 200_000), law.cdf).pvalue > 1e-3


def test_antibunch_cdf_is_hypoexponential():
    """cdf = 1 - (l2 e^{-l1 t} - l1 e^{-l2 t})/(l2 - l1), l1 = decay, l2 = rise + decay."""
    t = np.linspace(0.0, 30.0, 3001)
    for rise, decay in ((5.0, 1.0), (0.2, 1.0), (50.0, 1.0), (1.0, 2.5)):
        l1, l2 = decay, rise + decay
        closed = 1.0 - (l2 * np.exp(-l1 * t) - l1 * np.exp(-l2 * t)) / (l2 - l1)
        np.testing.assert_allclose(AntibunchShaped(rise, decay).cdf(t), closed,
                                   rtol=0, atol=1e-12)


def test_law_densities_are_normalized(source_laws):
    for name, law in source_laws.items():
        g = case_grid(law, 1.0)
        f = law.density(g)
        assert f.mass == pytest.approx(1.0, abs=1e-12), name
        assert np.all(f.values >= 0.0), name


def test_simulate_deterministic():
    law = Gamma(2.0, 2.0)
    a = simulate(law, 0.5, 10_000, seed=42)
    b = simulate(law, 0.5, 10_000, seed=42)
    assert np.array_equal(a.timestamps, b.timestamps)
    c = simulate(law, 0.5, 10_000, seed=43)
    assert not np.array_equal(a.timestamps, c.timestamps)


def test_simulate_sharding():
    law = Exponential(1.0)
    a = simulate(law, 0.5, 10_000, seed=42, shards=4)
    b = simulate(law, 0.5, 10_000, seed=42, shards=4)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert a.shards == 4
    # shard count is part of the determinism contract, not an ambient detail
    c = simulate(law, 0.5, 10_000, seed=42, shards=2)
    assert not np.array_equal(a.timestamps, c.timestamps)


def test_simulate_p_one_keeps_every_emission():
    clicks = simulate(Exponential(1.0), 1.0, 5_000, seed=0)
    assert clicks.timestamps.size == 5_000
    assert np.all(np.diff(clicks.timestamps) > 0)


@pytest.mark.parametrize("n", [BLOCK_EMISSIONS + 1, 3 * BLOCK_EMISSIONS - 1])
def test_simulate_p_one_keeps_every_emission_across_blocks(n):
    ts = simulate(Exponential(1.0), 1.0, n, seed=3).timestamps
    assert ts.size == n
    # each block continues from the last emission of the one before it
    assert np.all(np.diff(ts) > 0)


@pytest.mark.parametrize("shards", [1, 3])
def test_simulate_is_independent_of_thread_count(monkeypatch, shards):
    import concurrent.futures

    pools = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    law, n = Gamma(0.5, 1.0), 2 * BLOCK_EMISSIONS + 1001
    streams = []
    for cpus in (1, 2):
        monkeypatch.setattr(mcsim.os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)))
        streams.append(simulate(law, 0.4, n, seed=5, shards=shards).timestamps.tobytes())
    assert pools == [2]
    assert streams[0] == streams[1]


def test_simulate_blocks_follow_the_documented_stream():
    """Reference: block b of shard s draws intervals, then coins, from child b
    of SeedSequence([seed, s]); blocks join at the last emission before them."""
    law, p, seed, shards, n = Gamma(2.0, 2.0), 0.3, 9, 2, 3 * BLOCK_EMISSIONS + 11
    expected, offset = [], 0.0
    for s in range(shards):
        count = n // shards + (s < n % shards)
        sizes = [BLOCK_EMISSIONS] * (count // BLOCK_EMISSIONS) + [count % BLOCK_EMISSIONS]
        for child, size in zip(np.random.SeedSequence([seed, s]).spawn(len(sizes)), sizes):
            rng = np.random.Generator(np.random.SFC64(child))
            times = np.cumsum(law.sample(rng, size))
            expected.append(times[rng.random(size) < p] + offset)
            offset += times[-1]
    clicks = simulate(law, p, n, seed, shards=shards)
    assert clicks.timestamps.tobytes() == np.concatenate(expected).tobytes()


def test_simulate_keeps_intervals_lost_to_rounding_as_ties():
    """Gamma(0.1) draws intervals far below the spacing of doubles near the
    running time, so some timestamps repeat; that is a valid stream."""
    ts = simulate(Gamma(0.1, 1.0), 1.0, 100_000, 0).timestamps
    assert ts.size == 100_000
    assert np.all(np.diff(ts) >= 0)
    assert np.any(np.diff(ts) == 0)


def test_simulate_binomial_detection_count():
    clicks = simulate(Exponential(1.0), 0.3, 1_000_000, seed=2)
    # 3 sigma around Binomial(1e6, 0.3)
    assert 298_625 <= clicks.timestamps.size <= 301_375


def test_simulate_periodic_keeps_lattice():
    clicks = simulate(Periodic(1.0), 0.5, 20_000, seed=7)
    intervals = np.diff(clicks.timestamps)
    assert np.all(intervals > 0)
    assert np.max(np.abs(intervals - np.round(intervals))) < 1e-9


def test_clickstream_requires_increasing_timestamps():
    with pytest.raises(ValidationError):
        ClickStream(np.array([0.0, 2.0, 1.0]), 10, 0.5, 0)
    with pytest.raises(ValidationError):
        ClickStream(np.array([0.0, np.nan, 1.0]), 10, 0.5, 0)
    ties = ClickStream(np.array([0.0, 1.0, 1.0, 2.0]), 10, 0.5, 0)
    assert ties.timestamps.tolist() == [0.0, 1.0, 1.0, 2.0]


def test_clickstream_copies_writeable_and_shares_frozen_timestamps():
    ts = np.array([0.0, 1.0, 2.0])
    clicks = ClickStream(ts, 3, 1.0, 0)
    ts[0] = -1.0
    assert clicks.timestamps[0] == 0.0
    assert not clicks.timestamps.flags.writeable
    frozen = simulate(Exponential(1.0), 0.5, 1000, seed=1).timestamps
    assert ClickStream(frozen, 1000, 0.5, 1).timestamps is frozen


def test_histogram_single_bin():
    ts = np.cumsum(np.full(500, 1.0))
    clicks = ClickStream(ts, 500, 1.0, 0)
    g = TimeGrid(256, 0.01)
    hist = waiting_time_histogram(clicks, g)
    assert hist.n_intervals == 499
    assert hist.overflow_count == 0
    nz = np.nonzero(hist.density.values)[0]
    assert nz.tolist() == [100]
    assert hist.density.values[100] * g.dt == pytest.approx(1.0)


def test_histogram_overflow_reported_not_dropped():
    ts = np.array([0.0, 1.0, 2.0, 10.0])  # one interval beyond the horizon
    clicks = ClickStream(ts, 4, 1.0, 0)
    g = TimeGrid(256, 0.01)  # horizon 2.56
    hist = waiting_time_histogram(clicks, g)
    assert hist.overflow_count == 1
    assert hist.overflow_fraction == pytest.approx(1.0 / 3.0)
    assert hist.density.mass == pytest.approx(1.0 - hist.overflow_fraction)


def test_histogram_too_few_clicks():
    clicks = ClickStream(np.array([1.0]), 5, 0.2, 0)
    with pytest.raises(TooFewClicks):
        waiting_time_histogram(clicks, TimeGrid(64, 0.1))


def test_compare_identity_is_zero():
    g = TimeGrid(256, 0.05)
    f = Exponential(1.0).density(g)
    m = compare(f, f)
    assert m.l1 == 0.0 and m.linf == 0.0 and m.ks == 0.0


def test_compare_one_bin_shift():
    g = TimeGrid(256, 0.05)
    f = Exponential(1.0).density(g)
    shifted = np.zeros_like(f.values)
    shifted[1:] = f.values[:-1]
    m = compare(Density(g, shifted), f)
    assert m.ks == pytest.approx(g.dt * f.values.max(), rel=1e-9)


def test_compare_grid_mismatch():
    a = Exponential(1.0).density(TimeGrid(256, 0.05))
    b = Exponential(1.0).density(TimeGrid(128, 0.05))
    with pytest.raises(GridMismatch):
        compare(a, b)


def test_ks_critical_constant_matches_inverse_ks_distribution():
    assert KS_COEFF_1PCT == kolmogi(0.01)
    assert ks_critical_value(10_000) == pytest.approx(KS_COEFF_1PCT / 100.0)


def test_empirical_matches_thinned_density(source_laws):
    """Sampled thinned streams agree with the closed-form detected density
    at the 1% KS level for every law and efficiency tested."""
    for name, law in source_laws.items():
        for p in (0.1, 0.3, 0.5, 1.0):
            g = case_grid(law, p)
            clicks = simulate(law, p, 1_000_000, seed=0)
            hist = waiting_time_histogram(clicks, g)
            analytic = detected_density(law.density(g), p)
            m = compare(hist.density, analytic)
            crit = ks_critical_value(hist.n_intervals)
            assert m.ks < crit, (name, p, m.ks, crit)
            assert hist.overflow_fraction <= 1e-6, (name, p)


def test_empirical_matches_source_law_at_p_one(source_laws):
    for name, law in source_laws.items():
        g = case_grid(law, 1.0)
        clicks = simulate(law, 1.0, 1_000_000, seed=0)
        hist = waiting_time_histogram(clicks, g)
        m = compare(hist.density, law.density(g))
        assert m.ks < ks_critical_value(hist.n_intervals), name


def test_mean_interval_stretches_by_inverse_p(source_laws):
    for name, law in source_laws.items():
        clicks = simulate(law, 0.3, 1_000_000, seed=0)
        iv = np.diff(clicks.timestamps)
        se = iv.std(ddof=1) / np.sqrt(iv.size)
        assert abs(iv.mean() - law.mean() / 0.3) < 3 * se, name


def test_parse_law():
    law = parse_law("gamma:2.0,2.0")
    assert isinstance(law, Gamma)
    assert law.shape == 2.0 and law.rate == 2.0
    assert isinstance(parse_law("exponential:1.5"), Exponential)
    assert isinstance(parse_law("antibunch:5,1"), AntibunchShaped)
    # omitted parameters fall back to the law's defaults
    default = parse_law("antibunch")
    assert default.rise == 5.0 and default.decay == 1.0
    for bad in ("nosuchlaw:1", "gamma:1,2,3", "gamma:a,b"):
        with pytest.raises(ValidationError):
            parse_law(bad)


@pytest.mark.parametrize("text, law, described", [
    ("exponential:1.5", Exponential(1.5), ("exponential", {"rate": 1.5})),
    ("gamma:0.5,2", Gamma(0.5, 2.0), ("gamma", {"shape": 0.5, "rate": 2.0})),
    ("uniform:0.25,1", Uniform(0.25, 1.0), ("uniform", {"lo": 0.25, "hi": 1.0})),
    ("periodic:2", Periodic(2.0), ("periodic", {"period": 2.0})),
    ("antibunch:8,0.5", AntibunchShaped(8.0, 0.5),
     ("antibunch", {"rise": 8.0, "decay": 0.5})),
])
def test_describe_every_law(text, law, described):
    """Names and parameter order feed clicks_meta.json byte for byte."""
    assert law.describe() == described
    assert list(law.describe()[1]) == list(described[1])
    assert parse_law(text) == law
