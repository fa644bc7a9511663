"""Span recording from outside the program.

The benchmark measures layers without touching ``src/``: it replaces
each layer's public entry points with thin wrappers for the duration
of a run and restores the originals afterwards. A :class:`SpanTracer`
charges each span its *self time*: its duration minus the part covered
by the spans it caused. Two tracers are used:

* :func:`step_timer` wraps only ``FuzzEngine.step``. The timed
  (untraced) runs use it for per-case latency samples; it adds about a
  microsecond to a case of several milliseconds, plus a host-speed
  probe between cases (see :func:`speed_probe`) that no case is
  charged for.
* :func:`layer_tracer` wraps every entry point in :data:`ENTRY_POINTS`.
  It runs in its own process, so the timed runs never execute its
  wrappers.

Both tracers survive ``mode="process"`` campaigns: the supervisor
forks workers that inherit the wrappers, and :func:`fork_hook` makes
each worker dump what it recorded to a file the parent merges.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import random
import time
from collections import defaultdict
from pathlib import Path

#: The span every case runs under; spans recorded outside one (agent
#: construction, re-execution of imported sync entries) are kept apart.
ROOT = "engine.step"

#: Spans that mark a harness phase; the L0 ``execute`` self time is
#: split by the phase it ran in.
PHASES = {"core.harness.init": "init", "core.harness.runtime": "runtime"}
SPLIT_BY_PHASE = "hypervisors.execute"

#: Root spans between two host-speed probes (see :func:`speed_probe`).
PROBE_EVERY = 20
PROBE_ITERATIONS = 4_000
#: Probe seconds that define the reference host speed: a duration d
#: measured when the probe took p seconds is reported as
#: d * PROBE_REFERENCE_S / p. About the probe's time on an idle
#: 2-CPU Xeon (Sapphire Rapids) guest.
PROBE_REFERENCE_S = 0.004

#: (span, module, class or None for a module function, attribute).
ENTRY_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    (ROOT, "repro.fuzzer.engine", "FuzzEngine", "step"),
    ("fuzzer.mutate", "repro.schedule.power", "FlatSchedule", "pick"),
    ("fuzzer.mutate", "repro.schedule.power", "FastSchedule", "pick"),
    ("fuzzer.mutate", "repro.fuzzer.queue", "SeedQueue", "pick_other"),
    ("fuzzer.mutate", "repro.fuzzer.engine", None, "mutate_candidate"),
    ("core.config_build", "repro.core.vcpu_config", "VcpuConfigurator",
     "generate"),
    ("core.config_build", "repro.core.adapters", "KvmAdapter", "build"),
    ("core.config_build", "repro.core.adapters", "XenAdapter", "build"),
    ("core.config_build", "repro.core.adapters", "VboxAdapter", "build"),
    ("core.state_generator", "repro.core.state_generator",
     "VmStateGenerator", "generate"),
    ("core.state_generator", "repro.core.state_generator",
     "VmcbStateGenerator", "generate"),
    ("validator.round", "repro.validator.rounding", "VmStateValidator",
     "round_to_valid"),
    ("validator.round", "repro.validator.svm_validator", "VmcbValidator",
     "round_to_valid"),
    ("validator.oracle", "repro.validator.oracle", "HardwareOracle",
     "verify"),
    ("validator.oracle", "repro.validator.svm_validator",
     "SvmHardwareOracle", "verify"),
    ("core.harness.init", "repro.core.harness", "VmExecutionHarness",
     "run_init_phase"),
    ("core.harness.runtime", "repro.core.harness", "VmExecutionHarness",
     "run_runtime_phase"),
    (SPLIT_BY_PHASE, "repro.hypervisors.kvm", "KvmHypervisor", "execute"),
    (SPLIT_BY_PHASE, "repro.hypervisors.xen", "XenHypervisor", "execute"),
    (SPLIT_BY_PHASE, "repro.hypervisors.vbox", "VboxHypervisor", "execute"),
    ("coverage.kcov_drain", "repro.coverage.kcov", "KcovTracer", "drain"),
    ("coverage.bitmap", "repro.coverage.bitmap", "CoverageBitmap",
     "record_trace"),
    ("coverage.bitmap", "repro.coverage.bitmap", "VirginMap",
     "has_new_bits"),
    ("core.detectors", "repro.core.detectors", "AnomalyDetector", "scan"),
    ("core.detectors", "repro.core.detectors", "Watchdog",
     "handle_host_crash"),
    ("core.detectors", "repro.core.detectors", "Watchdog", "handle_vm_crash"),
)


class Patches:
    """Attribute replacements that :meth:`restore` undoes exactly."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def resolve(module: str, cls: str | None):
    """The object that owns an entry point: a class or a module."""
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


class SpanTracer:
    """Self time, call counts and layer counts per span name.

    ``self_s[name]`` sums, over every span of that name that ran inside
    a :data:`ROOT` span, its duration minus the durations of the spans
    it directly enclosed. The root's own self time is what no other
    span covers. Because every child interval lies inside its parent's,
    the self times of all spans under the roots add up to the roots'
    total duration; :meth:`accounting_error` measures how far they do.
    ``samples`` keeps every root span's duration, in order.
    """

    def __init__(self, entry_points=ENTRY_POINTS,
                 clock=time.perf_counter) -> None:
        self.entry_points = entry_points
        self.clock = clock
        self._stack: list[list] = []
        self._patches = Patches()
        self.samples: list[float] = []
        #: Per sample, the host-speed probe taken after its segment.
        self.probe_s: list[float] = []
        self.reset()

    def reset(self) -> None:
        self._stack.clear()
        self.samples.clear()
        self.probe_s.clear()
        #: Seconds spent in probes (to take out of wall-clock times).
        self.probe_total_s = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Self time of spans that ran outside any root span.
        self.outside_s: dict[str, float] = defaultdict(float)
        #: Layer counts observed at the span boundaries (inside roots).
        self.counts: dict[str, int] = defaultdict(int)

    @property
    def root_s(self) -> float:
        return sum(self.samples)

    @property
    def cases(self) -> int:
        return len(self.samples)

    def settle(self) -> None:
        """Probe host speed for the samples taken since the last probe."""
        pending = len(self.samples) - len(self.probe_s)
        if pending:
            start = self.clock()
            speed_probe()
            seconds = self.clock() - start
            self.probe_total_s += seconds
            self.probe_s.extend([seconds] * pending)

    def reference_samples(self, first: int = 0) -> list[float]:
        """Samples from *first* on, scaled to the reference host speed."""
        self.settle()
        return [PROBE_REFERENCE_S * sample / probe for sample, probe in
                zip(self.samples[first:], self.probe_s[first:])]

    # --- recording ------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """*fn* recorded as a span called *name*.

        ``observe(counts, args, result)`` runs after every call made
        inside a root span, to count what the layer did; *result* is
        None when the call raised.
        """
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if self._close(name, frame[1], elapsed) and observe:
                    observe(self.counts, args, result)
        return span

    def _close(self, name: str, child_s: float, elapsed: float) -> bool:
        """Charge one finished span; True when it ran inside a root."""
        stack = self._stack
        if stack:
            stack[-1][1] += elapsed
        key = name
        if name == SPLIT_BY_PHASE:
            phase = next((PHASES[f[0]] for f in reversed(stack)
                          if f[0] in PHASES), "other")
            key = f"{name}_{phase}"
        if name == ROOT and not stack:
            self.samples.append(elapsed)
            if len(self.samples) - len(self.probe_s) >= PROBE_EVERY:
                self.settle()
        elif not (stack and stack[0][0] == ROOT):
            self.outside_s[key] += elapsed - child_s
            return False
        self.self_s[key] += elapsed - child_s
        self.calls[key] += 1
        return True

    def install(self) -> None:
        # Built now, so that forked workers inherit the probe's tables.
        _probe_tables()
        for name, module, cls, attr in self.entry_points:
            observe = OBSERVERS.get((cls, attr))
            self._patches.replace(
                resolve(module, cls), attr,
                lambda fn, name=name, observe=observe:
                    self.wrap(name, fn, observe))

    def remove(self) -> None:
        self._patches.restore()

    # --- results --------------------------------------------------------

    def accounting_error(self) -> float:
        """|sum of self times - root total| as a share of the root total."""
        total = self.root_s
        if total <= 0:
            return 0.0
        return abs(sum(self.self_s.values()) - total) / total

    def export(self) -> dict:
        self.settle()
        return {"samples": list(self.samples), "probe_s": list(self.probe_s),
                "probe_total_s": self.probe_total_s,
                "self_s": dict(self.self_s),
                "calls": dict(self.calls), "outside_s": dict(self.outside_s),
                "counts": dict(self.counts)}

    def absorb(self, data: dict) -> None:
        """Add another tracer's :meth:`export` (a forked worker's)."""
        self.settle()
        self.samples.extend(data["samples"])
        self.probe_s.extend(data["probe_s"])
        self.probe_total_s += data["probe_total_s"]
        for field in ("self_s", "calls", "outside_s", "counts"):
            mine = getattr(self, field)
            for key, value in data[field].items():
                mine[key] += value


class _Register:
    __slots__ = ("value", "mask")

    def __init__(self, value: int, mask: int) -> None:
        self.value, self.mask = value, mask

    def write(self, value: int) -> int:
        self.value = value & self.mask
        return self.value


@functools.cache
def _probe_tables():
    rng = random.Random(7)
    registers = [_Register(rng.getrandbits(64),
                           (1 << (16 << rng.randrange(3))) - 1)
                 for _ in range(20_000)]
    order = [rng.randrange(len(registers)) for _ in range(PROBE_ITERATIONS)]
    return registers, order


def speed_probe() -> int:
    """A fixed pure-Python workload whose duration tracks host speed.

    Shared hosts drift between speed levels up to 1.5x apart within
    seconds. The probe does what a case does most, in miniature: masked
    writes to register objects spread over a few MB, dict and list
    churn, and sets of (file, line) events and edges as the coverage
    drain builds them. Timing it every few cases lets each duration be
    scaled to one reference speed; it removes about two thirds of the
    drift of a fixed campaign's duration on a noisy 2-CPU guest.
    """
    registers, order = _probe_tables()
    table: dict[int, int] = {}
    events: list[tuple[str, int]] = []
    items: list[int] = []
    total = 0
    for n, index in enumerate(order):
        register = registers[index]
        value = register.write(register.value ^ (1 << (n & 31)))
        table[n & 511] = value
        total += table.get((n * 7) & 511, 0) & 0xFF
        items.append(n ^ 5)
        if len(items) > 200:
            items.clear()
        events.append((_PROBE_FILES[n % 3], value & 0xFF))
    lines = set(events)
    edges = set(zip(events, events[1:]))
    return total + len(lines) + len(edges)


_PROBE_FILES = ("kvm/nested_vmx.py", "cpu/entry_checks.py", "vmx/vmcs.py")


def step_timer() -> SpanTracer:
    """A tracer that records only the ``FuzzEngine.step`` spans."""
    return SpanTracer(entry_points=ENTRY_POINTS[:1])


def layer_tracer() -> SpanTracer:
    """A tracer over every layer entry point."""
    return SpanTracer()


def _observe_state(counts, args, result) -> None:
    if result is not None:
        meta = result[1]
        counts["rounding_corrections"] += meta.rounding_corrections
        counts["oracle_entered"] += meta.oracle_entered is True


def _observe_init(counts, args, result) -> None:
    # run_init_phase(self, hv, vcpu, fuzz_input, vm_state, stats): the
    # stats say whether L2 was entered even when the phase crashed.
    counts["l2_entries"] += bool(args[5].entered_l2)


def _observe_drain(counts, args, result) -> None:
    if result is not None:
        counts["edges"] += len(result[1])


def _observe_execute(counts, args, result) -> None:
    counts["l0_exits"] += 1


def _observe_watchdog(counts, args, result) -> None:
    counts["watchdog_crashes"] += 1


OBSERVERS = {
    ("VmStateGenerator", "generate"): _observe_state,
    ("VmcbStateGenerator", "generate"): _observe_state,
    ("VmExecutionHarness", "run_init_phase"): _observe_init,
    ("KcovTracer", "drain"): _observe_drain,
    ("KvmHypervisor", "execute"): _observe_execute,
    ("XenHypervisor", "execute"): _observe_execute,
    ("VboxHypervisor", "execute"): _observe_execute,
    ("Watchdog", "handle_host_crash"): _observe_watchdog,
    ("Watchdog", "handle_vm_crash"): _observe_watchdog,
}


def fork_hook(tracer: SpanTracer, out_dir: Path) -> Patches:
    """Make every forked campaign worker dump *tracer* when it ends.

    Process-mode workers start from ``process_worker_main``, which the
    supervisor looks up at spawn time, so wrapping it reaches every
    child. A child clears the copy of the parent's recordings it
    inherited, runs its shard, and writes what it recorded to
    ``out_dir/shard-<index>-<pid>.json``.
    """
    patches = Patches()

    def make(main):
        @functools.wraps(main)
        def recorded_main(spec, *args, **kwargs):
            tracer.reset()
            try:
                return main(spec, *args, **kwargs)
            finally:
                path = out_dir / f"shard-{spec.index}-{os.getpid()}.json"
                path.write_text(json.dumps(tracer.export()))
        return recorded_main

    patches.replace(resolve("repro.parallel.supervisor", None),
                    "process_worker_main", make)
    return patches


def collect_shards(out_dir: Path) -> list[tuple[int, dict]]:
    """Read and delete the worker dumps :func:`fork_hook` left."""
    shards = []
    for path in sorted(out_dir.glob("shard-*.json")):
        shards.append((int(path.name.split("-")[1]),
                       json.loads(path.read_text())))
        path.unlink()
    return shards
