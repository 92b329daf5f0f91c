"""Self-time arithmetic, counters, and wrapper installation and restoration."""

import importlib
import math

import pytest

from spans import PER_ELEMENT, Patcher, Span, Tracer, covered_length, max_bits, package_modules, self_times


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, "w", 0)


def test_covered_length_merges_overlaps_and_skips_empty():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (5.0, 5.0)]) == 3.0
    assert covered_length([(2.0, 3.0), (0.0, 1.0)]) == 2.0


def test_self_time_subtracts_children_once():
    spans = [
        span("suite.check.x", 0.0, 10.0),
        span("nbt.a", 1.0, 4.0, parent=0),
        span("nbt.b", 2.0, 3.0, parent=1),  # grandchild: only nbt.a loses it
        span("zeta.c", 5.0, 6.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])
    # the self times of a tree partition its root
    assert math.fsum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    spans = [
        span("p", 0.0, 4.0),
        span("c1", -1.0, 1.0, parent=0),
        span("c2", 0.5, 2.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_max_bits_of_ints_lists_and_matrices():
    assert max_bits(None) == 0
    assert max_bits(-8) == 4
    assert max_bits([1, -1024, 3]) == 11
    assert max_bits([[[0, 5]], [[2**70, 1]]]) == 71


def snapshot():
    """Every module global and listed class attribute of iharalab."""
    mods = package_modules()
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    nbt = importlib.import_module("iharalab.nbt")
    series = importlib.import_module("iharalab.series")
    for cls in (nbt.ExactMatrixSeq, series.TruncatedSeries):
        state.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return state


def test_tracer_wraps_every_rebinding_and_restores_the_originals():
    import iharalab.limits as limits
    import iharalab.nbt as nbt
    import iharalab.suite as suite
    import iharalab.zeta as zeta

    before = snapshot()
    originals = (nbt.n_reduced_range, limits.quad, suite.eigendecompose, nbt.ExactMatrixSeq.advance)
    tracer = Tracer("test")
    tracer.install()
    try:
        # the from-import rebindings share one wrapper with the home module
        assert zeta.n_reduced_range is nbt.n_reduced_range is limits.n_reduced_range
        assert nbt.n_reduced_range is not originals[0]
        assert nbt.n_reduced_range.__wrapped__ is originals[0]
        assert limits.quad is not originals[1]
        assert suite.eigendecompose is not originals[2]
        assert nbt.ExactMatrixSeq.advance is not originals[3]
        # per-element helpers stay unwrapped
        for name in PER_ELEMENT:
            layer, attr = name.split(".")
            fn = getattr(importlib.import_module(f"iharalab.{layer}"), attr)
            assert not hasattr(fn, "__wrapped__"), name
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_calls_record_spans_and_step_counters():
    from iharalab import nbt
    from iharalab.graphs import certify_regular, named_graph

    g = named_graph("PETERSEN")
    cert = certify_regular(g)
    tracer = Tracer("test")
    tracer.pass_id = 0
    tracer.install()
    try:
        with tracer.region("suite.check.oracle"):
            full = nbt.n_reduced_range(g, cert, 6, method="full")
            row = nbt.n_reduced_range(g, cert, 6, method="row")
            nbt.chebyshev_b_range(g, cert, 5)
    finally:
        tracer.uninstall()
    assert full == row
    stats = tracer.stats[0]
    assert stats.sums["full_steps"] == 6 + 4  # six advance() calls, B_2..B_5
    assert stats.sums["row_steps"] == 5  # f_2..f_6 on one row
    assert len(stats.reached) == 6 + 4 + 5
    assert stats.peaks["nbt.max_bits"] == max_bits(full)
    spans = tracer.spans()
    assert spans[0].name == "suite.check.oracle" and spans[0].parent is None
    assert all(s.parent is not None for s in spans[1:])
    assert all(s.end >= s.start for s in spans)


def test_patcher_restores_in_reverse_order():
    class Owner:
        x = 1

    patcher = Patcher()
    patcher.set(Owner, "x", 2)
    patcher.set(Owner, "x", 3)
    assert Owner.x == 3
    patcher.restore()
    assert Owner.x == 1


def test_speed_sampler_samples_while_active_and_restores_the_handler():
    import signal
    import time

    from worker import SpeedSampler

    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        end = time.perf_counter() + 3 * SpeedSampler.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
    count = len(sampler.samples)
    assert count >= 3  # one on entry, then one per period
    assert sampler.busy_s >= sum(sampler.samples) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
