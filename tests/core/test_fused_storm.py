"""The fused vmwrite storm is observably identical to one exit per vmwrite.

``VmExecutionHarness._write_vmcs_fields`` runs the first two vmwrites of
a storm live and, when both succeed, writes the rest straight into
VMCS12. The reference below is the plain per-instruction loop: every
writable field through ``_exec`` and the L0's ``execute``. Both must
leave the same kcov lines and edges, the same VMCS12 values,
generation and change journal, and the same ``HarnessStats``, on every
Intel L0 model, including init sequences whose storms cannot fuse.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.arch.cpuid import Vendor
from repro.core import harness as harness_module
from repro.core.harness import HarnessStats, VmExecutionHarness
from repro.core.necofuzz import golden_seed
from repro.core.state_generator import VmStateGenerator
from repro.core.templates import InitStep, VMXON_GPA, intel_init_sequence
from repro.coverage.kcov import KcovTracer
from repro.fuzzer.input import FuzzInput
from repro.fuzzer.rng import Rng
from repro.hypervisors import (
    KvmHypervisor,
    VboxHypervisor,
    VcpuConfig,
    XenHypervisor,
)
from repro.hypervisors.base import GuestInstruction
from repro.vmx import fields as F
from tests.reference import SettraceTracer

HYPERVISORS = (KvmHypervisor, XenHypervisor, VboxHypervisor)

#: Writable fields in one storm.
STORM = sum(1 for spec in F.ALL_FIELDS
            if spec.group is not F.FieldGroup.READ_ONLY)


class ReferenceHarness(VmExecutionHarness):
    """One emulated exit per vmwrite, however the storm goes."""

    def _write_vmcs_fields(self, hv, vcpu, vm_state, stats):
        for spec, value in vm_state.fields():
            if spec.group is F.FieldGroup.READ_ONLY:
                continue
            self._exec(hv, vcpu, GuestInstruction(
                "vmwrite", {"field": spec.encoding, "value": value}), stats)


def _edit_sequence(edit: str) -> list[InitStep]:
    steps = intel_init_sequence()
    names = [step.mnemonic for step in steps]
    if edit == "drop_vmxon":
        del steps[names.index("vmxon")]
    elif edit == "drop_vmptrld":
        del steps[names.index("vmptrld")]
    elif edit == "vmptrld_vmxon_region":
        # A live vmwrite with no valid current VMCS: VMfailInvalid.
        steps[names.index("vmptrld")] = InitStep("vmptrld",
                                                 {"addr": VMXON_GPA})
    elif edit == "duplicate_vmlaunch":
        steps.append(steps[names.index("vmlaunch")])
    elif edit == "vmxoff_before_vmlaunch":
        steps.insert(names.index("vmlaunch"), InitStep("vmxoff", {}))
    return steps


EDITS = ("none", "drop_vmxon", "drop_vmptrld", "vmptrld_vmxon_region",
         "duplicate_vmlaunch", "vmxoff_before_vmlaunch")


def _run(harness_cls, hv_cls, data: bytes, edit: str, mutate: bool,
         tracer_cls: type):
    """Both harness phases on a fresh L0, under a kcov tracer."""
    hv = hv_cls(VcpuConfig.default(Vendor.INTEL))
    calls = []
    execute = hv.execute
    hv.execute = lambda vcpu, instr: calls.append(instr) or execute(vcpu,
                                                                    instr)
    vcpu = hv.create_vcpu()
    fuzz_input = FuzzInput(data)
    vm_state, _ = VmStateGenerator(hv.nested_vmx.caps).generate(fuzz_input)
    harness = harness_cls(Vendor.INTEL, mutate=mutate, runtime_iterations=8)
    stats = HarnessStats()
    tracer = tracer_cls(hv.nested_modules(Vendor.INTEL))
    crash = None
    with mock.patch.object(harness_module, "init_sequence",
                           lambda vendor: _edit_sequence(edit)):
        with tracer:
            try:
                harness.run_init_phase(hv, vcpu, fuzz_input, vm_state, stats)
                if stats.entered_l2:
                    harness.run_runtime_phase(hv, vcpu, fuzz_input, stats)
            except Exception as exc:  # host/VM crashes end the case
                crash = (type(exc), str(exc))
    lines, edges = tracer.drain()
    structures = {gpa: (dict((s.encoding, v) for s, v in vmcs.fields()),
                        vmcs.generation, list(vmcs._log), vmcs._log_base,
                        vmcs.launch_state)
                  for gpa, vmcs in hv.memory.vmcs_pages.items()}
    return lines, edges, structures, (stats, crash), len(calls)


def _assert_equivalent(hv_cls, data: bytes, edit: str, mutate: bool = True,
                       tracer_cls: type = KcovTracer):
    ref = _run(ReferenceHarness, hv_cls, data, edit, mutate, tracer_cls)
    fused = _run(VmExecutionHarness, hv_cls, data, edit, mutate, tracer_cls)
    assert fused[0] == ref[0], "kcov lines differ"
    assert fused[1] == ref[1], "kcov edges differ"
    assert fused[2] == ref[2], "VMCS12 contents or journal differ"
    assert fused[3] == ref[3], "HarnessStats or crash differ"
    skipped = ref[4] - fused[4]
    assert skipped >= 0 and skipped % (STORM - 2) == 0
    return skipped


class TestFusedStormEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(hv_cls=st.sampled_from(HYPERVISORS),
           seed=st.integers(0, 2**16),
           patch=st.tuples(st.integers(0, 2047), st.binary(max_size=64)),
           edit=st.sampled_from(EDITS),
           mutate=st.booleans())
    def test_matches_per_instruction_reference(self, hv_cls, seed, patch,
                                               edit, mutate):
        data = bytearray(golden_seed(Vendor.INTEL, Rng(seed)))
        offset, raw = patch
        data[offset:offset + len(raw)] = raw
        _assert_equivalent(hv_cls, bytes(data), edit, mutate)

    def test_canonical_storm_is_fused(self):
        """On the canonical sequence only two vmwrites reach the L0."""
        for hv_cls in HYPERVISORS:
            data = golden_seed(Vendor.INTEL, Rng(3))
            assert _assert_equivalent(hv_cls, data, "none",
                                      mutate=False) == STORM - 2

    def test_settrace_tracer_sees_the_same_coverage(self):
        """The Sⁿ = S² argument needs no replay, so it holds for the
        settrace reference tracer as well."""
        for hv_cls in HYPERVISORS:
            for seed in range(3):
                data = golden_seed(Vendor.INTEL, Rng(seed))
                _assert_equivalent(hv_cls, data, "none",
                                   tracer_cls=SettraceTracer)

    def test_duplicated_vmlaunch_fuses_both_storms(self):
        """A failed first entry runs a second storm, fused again."""
        for hv_cls in HYPERVISORS:
            skipped = {_assert_equivalent(
                hv_cls, golden_seed(Vendor.INTEL, Rng(seed)),
                "duplicate_vmlaunch", mutate=False) for seed in range(8)}
            assert 2 * (STORM - 2) in skipped

    def test_failing_storms_stay_live(self):
        for hv_cls in HYPERVISORS:
            data = golden_seed(Vendor.INTEL, Rng(3))
            for edit in ("drop_vmxon", "drop_vmptrld",
                         "vmptrld_vmxon_region"):
                assert _assert_equivalent(hv_cls, data, edit,
                                          mutate=False) == 0
