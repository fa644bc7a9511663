"""Test-side reference implementations of the production hot path.

Production has one path: memoized checks, incremental VMCS02/VMCB02
merges and compiled kcov markers. The equivalence suites and the two
benchmark gates compare it against the slow, obviously-correct
originals kept here:

* :func:`full_recompute` turns every :mod:`repro.perf` helper into a
  pass-through and routes ``IncrementalChecker.check_all`` to the
  module-level :func:`repro.cpu.entry_checks.check_all`, so every
  rounding pass, consistency check and merge re-runs from scratch;
* :class:`SettraceTracer` collects coverage with a ``sys.settrace``
  line tracer and bypasses the perf memos while it is active, because
  settrace events cannot be replayed from a recorded slice.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from types import FrameType, ModuleType
from typing import Iterable, Iterator

from repro import perf
from repro.coverage import kcov
from repro.coverage.kcov import KcovTracer, Line
from repro.cpu import entry_checks
from repro.cpu.entry_checks import IncrementalChecker


def _memoized_check(struct, key, compute):
    return compute()


def _memoized_fixpoint(struct, key, run):
    return run()


def _merge_state(state, src, *, build, controls, state_fields,
                 control_inputs):
    merged = build()
    controls(merged)
    if state is not None:
        # Never leave a cache behind for the incremental path to trust.
        state.merge_cache = None
    return merged


def _prewarm(fn) -> None:
    return None


def _publish_merged(merged, prewarm_fn=None):
    return merged


#: The perf helpers and their pass-through stand-ins.
PASS_THROUGH = {
    "memoized_check": _memoized_check,
    "memoized_fixpoint": _memoized_fixpoint,
    "merge_state": _merge_state,
    "prewarm": _prewarm,
    "publish_merged": _publish_merged,
}


def _full_check_all(self, vmcs, msr_entries=None):
    return entry_checks.check_all(vmcs, self.caps, msr_entries)


def _patch(targets: list[tuple[object, str, object]]):
    """Set each ``(owner, name, value)``; return a callable undoing it."""
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in targets]
    for owner, name, value in targets:
        setattr(owner, name, value)

    def restore() -> None:
        for owner, name, value in saved:
            setattr(owner, name, value)
    return restore


def _perf_targets() -> list[tuple[object, str, object]]:
    return [(perf, name, fn) for name, fn in PASS_THROUGH.items()]


@contextmanager
def full_recompute() -> Iterator[None]:
    """Run the body on the full-recompute reference path."""
    restore = _patch(_perf_targets()
                     + [(IncrementalChecker, "check_all", _full_check_all)])
    try:
        yield
    finally:
        restore()


class SettraceTracer(KcovTracer):
    """A ``sys.settrace`` line tracer, the reference for the kcov markers.

    It records the same covered lines as :class:`KcovTracer` over the
    instrumented universe (the markers follow settrace's rules), at
    roughly a third of the speed. The target modules stay instrumented,
    but their markers point at the null sink while this tracer runs.
    """

    def __init__(self, modules: Iterable[ModuleType]) -> None:
        super().__init__(modules)
        self._files = {m.__file__ for m in self.modules if m.__file__}
        self.run_lines: set[Line] = set()
        self.run_edges: set[tuple[Line, Line]] = set()
        self._prev: Line | None = None
        self._restore = None
        self._outer_trace = None

    def _local_trace(self, frame: FrameType, event: str, arg):
        if event == "line":
            cur = (frame.f_code.co_filename, frame.f_lineno)
            self.run_lines.add(cur)
            if self._prev is not None:
                self.run_edges.add((self._prev, cur))
            self._prev = cur
        return self._local_trace

    def _global_trace(self, frame: FrameType, event: str, arg):
        if event == "call" and frame.f_code.co_filename in self._files:
            cur = (frame.f_code.co_filename, frame.f_code.co_firstlineno)
            self.run_lines.add(cur)
            if self._prev is not None:
                self.run_edges.add((self._prev, cur))
            self._prev = cur
            return self._local_trace
        return None

    def start(self) -> None:
        super().start()
        for module in self.modules:
            module.__kcov_rec__ = kcov._NULL_SINK.append
        self._prev = None
        self._restore = _patch(_perf_targets())
        self._outer_trace = sys.gettrace()
        sys.settrace(self._global_trace)

    def stop(self) -> None:
        sys.settrace(self._outer_trace)
        self._outer_trace = None
        if self._restore is not None:
            self._restore()
            self._restore = None
        super().stop()

    def drain(self) -> tuple[set[Line], set[tuple[Line, Line]]]:
        lines, edges = self.run_lines, self.run_edges
        self.run_lines, self.run_edges = set(), set()
        self._prev = None
        return lines, edges
