"""Tests for the marker-based line coverage (kcov analogue)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.coverage.kcov import KcovTracer, executable_lines

# A tiny target module defined in-repo for tracing tests.
from tests.coverage import traced_target


class TestExecutableLines:
    def test_function_bodies_counted(self):
        lines = executable_lines(traced_target)
        linenos = {lineno for _, lineno in lines}
        assert traced_target.BRANCH_TRUE_LINE in linenos
        assert traced_target.BRANCH_FALSE_LINE in linenos

    def test_module_level_not_counted(self):
        lines = executable_lines(traced_target)
        linenos = {lineno for _, lineno in lines}
        assert traced_target.MODULE_LEVEL_LINE not in linenos

    def test_class_body_not_counted(self):
        lines = executable_lines(traced_target)
        linenos = {lineno for _, lineno in lines}
        assert traced_target.CLASS_ATTR_LINE not in linenos

    def test_method_body_counted(self):
        lines = executable_lines(traced_target)
        linenos = {lineno for _, lineno in lines}
        assert traced_target.METHOD_BODY_LINE in linenos


class TestTracing:
    def test_branch_coverage_distinguished(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            traced_target.branchy(True)
        lines, _ = tracer.drain()
        linenos = {lineno for _, lineno in lines}
        assert traced_target.BRANCH_TRUE_LINE in linenos
        assert traced_target.BRANCH_FALSE_LINE not in linenos

        with tracer:
            traced_target.branchy(False)
        lines, _ = tracer.drain()
        linenos = {lineno for _, lineno in lines}
        assert traced_target.BRANCH_FALSE_LINE in linenos

    def test_untraced_module_ignored(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            sorted([3, 1, 2])  # stdlib work only
        lines, edges = tracer.drain()
        assert lines == set()
        assert edges == set()

    def test_edges_recorded(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            traced_target.branchy(True)
        _, edges = tracer.drain()
        assert edges  # consecutive-line transitions exist

    def test_drain_resets(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            traced_target.branchy(True)
        lines, edges = tracer.drain()
        assert lines and edges
        assert tracer.drain() == (set(), set())

    def test_nested_start_rejected(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            with pytest.raises(RuntimeError):
                tracer.start()

    def test_coverage_fraction(self):
        tracer = KcovTracer([traced_target])
        assert tracer.coverage_fraction(set()) == 0.0
        with tracer:
            traced_target.branchy(True)
            traced_target.branchy(False)
            traced_target.Helper().method()
            traced_target.looper(3)
        lines, _ = tracer.drain()
        fraction = tracer.coverage_fraction(lines)
        assert fraction == 1.0

    def test_fraction_clips_to_instrumented(self):
        tracer = KcovTracer([traced_target])
        bogus = {("elsewhere.py", 1)}
        assert tracer.coverage_fraction(bogus) == 0.0


#: Builds a tracer over every hypervisor's nested modules in a fresh
#: interpreter (empty per-process caches), counting parses per file, and
#: prints the tracer's line universe next to one computed independently.
FIRST_CONSTRUCTION = """
import json
from collections import Counter
from repro.arch.cpuid import Vendor
from repro.coverage import kcov
from repro.hypervisors import KvmHypervisor, VboxHypervisor, XenHypervisor

parses = Counter()
parse = kcov._parse
def counting_parse(filename):
    parses[filename] += 1
    return parse(filename)
kcov._parse = counting_parse

modules = {m for hv in (KvmHypervisor, XenHypervisor, VboxHypervisor)
           for vendor in (Vendor.INTEL, Vendor.AMD)
           for m in hv.nested_modules(vendor)}
tracer = kcov.KcovTracer(sorted(modules, key=lambda m: m.__name__))
counts = dict(parses)
expected = {(m.__file__, n) for m in modules
            for n in kcov._process_tree(parse(m.__file__), m.__file__)}
print(json.dumps({"parses": counts, "files": sorted(m.__file__ for m in modules),
                  "unswapped": list(tracer.unswapped),
                  "universe_equal": tracer.instrumented == expected,
                  "size": len(tracer.instrumented)}))
"""


def test_first_construction_parses_each_module_once():
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", FIRST_CONSTRUCTION],
                         check=True, capture_output=True, text=True,
                         env=env).stdout
    result = json.loads(out)
    assert result["universe_equal"]
    assert result["size"] > 0 and result["unswapped"] == []
    assert result["parses"] == {f: 1 for f in result["files"]}
