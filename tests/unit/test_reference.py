"""The test-side references must leave production exactly as they found it.

``full_recompute()`` and ``SettraceTracer`` patch the perf helpers (and,
for full recompute, ``IncrementalChecker.check_all``) while active. A
leaked patch would silently turn every later test onto the slow path
and hide memo bugs, so both must restore the original objects on exit,
including when the body raises.
"""

import sys

import pytest

from repro import perf
from repro.coverage import kcov
from repro.cpu.entry_checks import IncrementalChecker, check_all
from repro.validator.golden import golden_vmcs
from repro.vmx.msr_caps import default_capabilities
from tests.coverage import traced_target
from tests.reference import PASS_THROUGH, SettraceTracer, full_recompute

REFERENCES = {
    "full_recompute": full_recompute,
    "settrace": lambda: SettraceTracer([traced_target]),
}


def _patched_names():
    names = {name: getattr(perf, name) for name in PASS_THROUGH}
    names["IncrementalChecker.check_all"] = IncrementalChecker.check_all
    return names


def _assert_memo_is_live():
    """A repeated check of an unchanged structure returns the cached list."""
    caps = default_capabilities()
    vmcs = golden_vmcs(caps)

    def compute():
        return list(check_all(vmcs, caps))

    first = perf.memoized_check(vmcs, "reference-probe", compute)
    assert perf.memoized_check(vmcs, "reference-probe", compute) is first


@pytest.mark.parametrize("reference", REFERENCES.values(), ids=REFERENCES)
class TestReferenceRestores:
    def test_patches_only_while_active(self, reference):
        original = _patched_names()
        trace = sys.gettrace()
        with reference():
            for name in PASS_THROUGH:
                assert getattr(perf, name) is PASS_THROUGH[name], name
        for name, obj in _patched_names().items():
            assert obj is original[name], name
        assert sys.gettrace() is trace
        assert kcov._ACTIVE_TRACER is None
        _assert_memo_is_live()

    def test_restores_when_the_body_raises(self, reference):
        original = _patched_names()
        trace = sys.gettrace()
        with pytest.raises(RuntimeError, match="boom"):
            with reference():
                raise RuntimeError("boom")
        for name, obj in _patched_names().items():
            assert obj is original[name], name
        assert sys.gettrace() is trace
        assert kcov._ACTIVE_TRACER is None
        _assert_memo_is_live()


def test_full_recompute_routes_the_checker_to_check_all():
    original = IncrementalChecker.check_all
    with full_recompute():
        assert IncrementalChecker.check_all is not original
        caps = default_capabilities()
        vmcs = golden_vmcs(caps)
        assert IncrementalChecker(caps).check_all(vmcs) == check_all(vmcs,
                                                                     caps)
    assert IncrementalChecker.check_all is original


def test_settrace_reference_records_lines_without_markers():
    tracer = SettraceTracer([traced_target])
    with tracer:
        traced_target.branchy(True)
        assert tracer._events == []
    lines, edges = tracer.drain()
    assert (traced_target.__file__, traced_target.BRANCH_TRUE_LINE) in lines
    assert edges
    assert tracer.drain() == (set(), set())
