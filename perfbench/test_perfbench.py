"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from campaigns import digest  # noqa: E402
from repro import NecoFuzz, Vendor  # noqa: E402
from spans import (  # noqa: E402
    ENTRY_POINTS,
    ROOT,
    SpanTracer,
    layer_tracer,
    resolve,
    step_timer,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_a_nested_call_tree():
    clock = FakeClock()
    tracer = SpanTracer(entry_points=(), clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(2.0))

    def mid_body():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    mid = tracer.wrap("mid", mid_body)

    def root_body():
        clock.advance(3.0)
        mid()
        leaf()
        clock.advance(1.0)

    root = tracer.wrap(ROOT, root_body)
    root()
    root()

    assert tracer.cases == 2
    assert tracer.samples == [11.5, 11.5]
    assert dict(tracer.self_s) == {"leaf": 12.0, "mid": 3.0, ROOT: 8.0}
    assert dict(tracer.calls) == {"leaf": 6, "mid": 2, ROOT: 2}
    assert tracer.accounting_error() == 0.0


def test_spans_outside_a_case_are_kept_apart():
    clock = FakeClock()
    tracer = SpanTracer(entry_points=(), clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(1.0))
    root = tracer.wrap(ROOT, lambda: (clock.advance(1.0), leaf()))
    leaf()
    root()
    assert dict(tracer.outside_s) == {"leaf": 1.0}
    assert dict(tracer.self_s) == {"leaf": 1.0, ROOT: 1.0}
    assert tracer.root_s == 2.0


def test_execute_self_time_is_split_by_harness_phase():
    clock = FakeClock()
    tracer = SpanTracer(entry_points=(), clock=clock)
    execute = tracer.wrap("hypervisors.execute", lambda: clock.advance(1.0))
    init = tracer.wrap("core.harness.init", lambda: (execute(), execute()))
    runtime = tracer.wrap("core.harness.runtime", execute)
    root = tracer.wrap(ROOT, lambda: (init(), runtime(), execute()))
    root()
    assert tracer.self_s["hypervisors.execute_init"] == 2.0
    assert tracer.self_s["hypervisors.execute_runtime"] == 1.0
    assert tracer.self_s["hypervisors.execute_other"] == 1.0
    assert tracer.self_s["core.harness.init"] == 0.0
    assert tracer.accounting_error() == 0.0


def test_a_span_that_raises_is_still_charged():
    clock = FakeClock()
    tracer = SpanTracer(entry_points=(), clock=clock)

    def crash():
        clock.advance(1.0)
        raise RuntimeError("guest crashed")

    leaf = tracer.wrap("leaf", crash)

    def root_body():
        with pytest.raises(RuntimeError):
            leaf()
        clock.advance(1.0)

    tracer.wrap(ROOT, root_body)()
    assert dict(tracer.self_s) == {"leaf": 1.0, ROOT: 1.0}
    assert tracer._stack == []


def test_export_and_absorb_add_up():
    clock = FakeClock()
    worker = SpanTracer(entry_points=(), clock=clock)
    leaf = worker.wrap("leaf", lambda: clock.advance(1.0))
    worker.wrap(ROOT, leaf)()
    merged = SpanTracer(entry_points=())
    merged.absorb(worker.export())
    merged.absorb(worker.export())
    assert merged.samples == [1.0, 1.0]
    assert dict(merged.self_s) == {"leaf": 2.0, ROOT: 0.0}


def _originals():
    return {(module, cls, attr): vars(resolve(module, cls))[attr]
            for _, module, cls, attr in ENTRY_POINTS}


@pytest.mark.parametrize("hypervisor,vendor", [
    ("kvm", Vendor.INTEL), ("xen", Vendor.AMD), ("virtualbox", Vendor.INTEL)])
def test_wrappers_leave_a_campaign_unchanged(hypervisor, vendor):
    def campaign_digest():
        return digest([NecoFuzz(hypervisor=hypervisor, vendor=vendor,
                                seed=5).run(40)])

    before = campaign_digest()
    originals = _originals()
    for tracer in (step_timer(), layer_tracer()):
        tracer.install()
        try:
            assert campaign_digest() == before
        finally:
            tracer.remove()
        assert tracer.cases == 40
        assert _originals() == originals
    assert campaign_digest() == before
