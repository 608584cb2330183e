"""Classify on sampled records: size of the test on classical sources."""

import pytest

from renewalthin import (
    Exponential,
    VerdictKind,
    classify,
    grid_for_mean,
    simulate,
    waiting_time_histogram,
)


@pytest.mark.xfail(strict=True, reason=(
    "open defect: the raw negativity of a sampled record sits at a noise "
    "floor far above tau_neg, so a classical source reads nonclassical"))
def test_sampled_classical_exponential_is_classical():
    p = 0.3
    clicks = simulate(Exponential(1.0), p, 100_000, 1)
    hist = waiting_time_histogram(clicks, grid_for_mean(1.0 / p))
    assert classify(hist.density, p).kind is VerdictKind.CLASSICAL
