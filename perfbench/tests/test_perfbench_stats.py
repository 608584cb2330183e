"""The tail-percentile rule and operation counting."""

import pytest

from perfbench.stats import (
    OpTally,
    min_samples,
    nearest_rank,
    samples_beyond,
    tail_percentile,
)


def test_p90_needs_one_hundred_samples():
    assert min_samples(90) == 100
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9


def test_tail_percentile_refuses_short_runs():
    with pytest.raises(ValueError, match="at least 100"):
        tail_percentile(list(range(99)), 90)


def test_tail_percentile_leaves_ten_samples_above():
    values = [float(v) for v in range(1, 101)]
    p90 = tail_percentile(values, 90)
    assert p90 == 90.0
    assert sum(v > p90 for v in values) == 10


def test_nearest_rank_returns_an_observed_sample():
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert nearest_rank([5.0], 90) == 5.0


def test_fail_frac_counts_every_failure_against_attempts():
    tally = OpTally()
    for _ in range(4):
        tally.record("a", True)
    tally.record("b", False, known_defect=True)
    tally.record("c", False, detail="raised")
    assert (tally.attempted, tally.failed) == (6, 2)
    assert tally.fail_frac == pytest.approx(2 / 6)
    assert tally.failures == {"b": 1, "c": 1}
    assert tally.unexpected == {"c": "raised"}


def test_fail_frac_of_nothing_attempted_is_zero():
    assert OpTally().fail_frac == 0.0
