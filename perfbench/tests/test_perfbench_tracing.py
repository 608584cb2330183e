"""Self-time arithmetic and the patching of call sites."""

import pytest

import renewalthin as rt
import renewalthin.cli as cli
import renewalthin.thinning as thinning
from perfbench.tracing import Span, Tracer, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span("job", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),    # child of job
        Span("b", 2.0, 3.0, 1, 0),    # child of a, grandchild of job
        Span("c", 5.0, 9.0, 0, 0),    # child of job
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, -1, 0),
             Span("x", 1.0, 6.0, 0, 0),
             Span("y", 4.0, 8.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_install_wraps_every_lookup_and_uninstall_restores():
    originals = (rt.classify, thinning.forward_transform, cli.classify,
                 cli._DISPATCH["classify"], rt.Exponential.sample)
    tracer = Tracer()
    tracer.install()
    try:
        assert rt.classify is not originals[0]
        assert rt.classify is cli.classify
        assert thinning.forward_transform is not originals[1]
        assert cli._DISPATCH["classify"] is not originals[3]
        assert rt.Exponential.sample is not originals[4]
    finally:
        tracer.uninstall()
    assert (rt.classify, thinning.forward_transform, cli.classify,
            cli._DISPATCH["classify"], rt.Exponential.sample) == originals


def test_traced_job_records_parented_spans_and_counts():
    grid = rt.TimeGrid(256, 25.0 / 256)
    f = rt.Exponential(1.0).density(grid)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job(0, rt.classify, f, 1.0)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["job", "thinning.classify", "spectral.forward_transform"]
    classify = tracer.spans[1]
    assert all(s.parent >= 1 for s in tracer.spans[2:])
    assert classify.parent == 0
    metrics, share = tracer.layer_metrics()
    assert metrics["spectral.transform_calls"] == 2
    assert metrics["spectral.bytes_computed"] == 2 * (256 * 8 + 256 * 16)
    assert sum(share[m] for m in ("spectral", "thinning", "harness")) == pytest.approx(100.0)
