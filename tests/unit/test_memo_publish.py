"""Memo entries recorded on an undiverged copy reach its origin.

``Vmcs.copy()``/``Vmcb.copy()`` link the copy to its origin through a
weak reference. While neither side has seen a value-changing write,
``memo_put`` on the copy also stores the entry on the origin; the first
write on either side ends the link. The link never keeps the origin
alive and is never pickled.
"""

import copy
import gc
import pickle
import weakref

import pytest

from repro.arch.cpuid import Vendor
from repro.cpu import entry_checks
from repro.hypervisors import GuestInstruction, KvmHypervisor, VcpuConfig
from repro.svm import fields as SF
from repro.svm.vmcb import Vmcb
from repro.validator.golden import golden_vmcb, golden_vmcs
from repro.vmx import fields as F
from repro.vmx.vmcs import Vmcs

#: (structure class, a writable field) per vendor.
STRUCTS = [pytest.param(Vmcs, F.GUEST_RIP, id="vmcs"),
           pytest.param(Vmcb, SF.RIP, id="vmcb")]


@pytest.mark.parametrize("cls,field", STRUCTS)
class TestWriteThrough:
    def test_undiverged_copy_publishes_to_origin(self, cls, field):
        origin = cls()
        dup = origin.copy()
        entry = (dup.generation, "result")
        dup.memo_put("k", entry)
        assert origin.memo_get("k") is entry

    def test_copy_of_written_origin_publishes(self, cls, field):
        origin = cls()
        origin.write(field, 7)
        dup = origin.copy()
        dup.write(field, 7)  # same value: not a value-changing write
        dup.memo_put("k", "entry")
        assert origin.memo_get("k") == "entry"

    def test_write_on_copy_ends_link(self, cls, field):
        origin = cls()
        dup = origin.copy()
        dup.write(field, 1)
        dup.memo_put("k", "entry")
        assert origin.memo_get("k") is None
        assert dup._origin is None
        dup.write(field, 0)  # back to the origin's values: still unlinked
        dup.memo_put("k2", "entry")
        assert origin.memo_get("k2") is None

    def test_write_on_origin_ends_link(self, cls, field):
        origin = cls()
        dup = origin.copy()
        origin.write(field, 1)
        dup.memo_put("k", "entry")
        assert origin.memo_get("k") is None
        assert dup._origin is None

    def test_origin_entries_still_flow_to_copies(self, cls, field):
        origin = cls()
        origin.memo_put("k", "entry")
        assert origin.copy().memo_get("k") == "entry"

    def test_pickled_copy_carries_no_origin(self, cls, field):
        origin = cls()
        origin.memo_put("old", "entry")
        dup = origin.copy()
        assert "_origin" not in dup.__getstate__()
        for clone in (pickle.loads(pickle.dumps(dup)), copy.deepcopy(dup)):
            assert clone._origin is None
            assert clone == dup and clone.memo_get("old") == "entry"
            clone.memo_put("k", "entry")
            assert origin.memo_get("k") is None
        assert len(pickle.dumps(dup)) == len(pickle.dumps(origin))

    def test_link_does_not_keep_origin_alive(self, cls, field):
        origin = cls()
        dup = origin.copy()
        ref = weakref.ref(origin)
        del origin
        gc.collect()
        assert ref() is None
        dup.memo_put("k", "entry")
        assert dup.memo_get("k") == "entry"
        assert dup._origin is None


@pytest.mark.parametrize("golden", [golden_vmcs, golden_vmcb],
                         ids=["vmcs", "vmcb"])
def test_golden_copies_never_publish_to_the_shared_template(golden):
    """Templates outlive every hypervisor, and memo keys may carry an
    instance id: nothing a golden copy records may reach later copies."""
    dup = golden()
    dup.memo_put(("kvm_vmx", id(dup), "controls"), "entry")
    assert golden().memo_get(("kvm_vmx", id(dup), "controls")) is None
    assert dup.copy()._origin is not None


VMXON, VMCS12 = 0x1000, 0x3000


def _run(hv, vcpu, mnemonic, level=1, **operands):
    return hv.execute(vcpu, GuestInstruction(mnemonic, operands, level=level))


def test_second_vmcs01_relaunch_runs_no_entry_check(monkeypatch):
    """The first reflected exit warms vmcs01; the next relaunch of a
    fresh vmcs01 copy revalidates without running a check unit."""
    hv = KvmHypervisor(VcpuConfig.default(Vendor.INTEL))
    vcpu = hv.create_vcpu()
    _run(hv, vcpu, "vmxon", addr=VMXON)
    _run(hv, vcpu, "vmclear", addr=VMCS12)
    _run(hv, vcpu, "vmptrld", addr=VMCS12)
    for spec, value in golden_vmcs(hv.nested_vmx.caps).fields():
        if spec.group is not F.FieldGroup.READ_ONLY:
            _run(hv, vcpu, "vmwrite", field=spec.encoding, value=value)
    assert _run(hv, vcpu, "vmlaunch").level == 2

    runs = []
    in_vmexit = []
    run_unit = entry_checks._run_unit
    vmexit = hv.nested_vmx.nested_vmx_vmexit

    def counting_run_unit(*args):
        if in_vmexit:
            runs[-1] += 1
        return run_unit(*args)

    def counting_vmexit(*args, **kwargs):
        runs.append(0)
        in_vmexit.append(True)
        try:
            return vmexit(*args, **kwargs)
        finally:
            in_vmexit.pop()

    monkeypatch.setattr(entry_checks, "_run_unit", counting_run_unit)
    monkeypatch.setattr(hv.nested_vmx, "nested_vmx_vmexit", counting_vmexit)
    assert _run(hv, vcpu, "cpuid", level=2).level == 1
    assert _run(hv, vcpu, "vmresume").level == 2
    assert _run(hv, vcpu, "cpuid", level=2).level == 1
    assert len(runs) == 2
    assert runs[0] > 0
    assert runs[1] == 0
