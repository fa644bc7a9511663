"""The benchmark's workloads and how one campaign of each is run.

A workload is a list of L0 targets (hypervisor, vendor) fuzzed at the
default configuration, a case budget per target, and a number of
sub-seeds derived from the benchmark seed. One *unit* is one campaign
per target at one sub-seed; a run executes units of successive
sub-seeds, each twice. The load model is a closed loop: the engine generates
the next 2 KiB input only after the previous case has finished. The
serial workloads have one client (one engine); ``kvm-intel-2proc``
runs two engines in two worker processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import NecoFuzz, Vendor
from repro.parallel import ParallelCampaign
from spans import collect_shards

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    #: (hypervisor, vendor) pairs, run one after the other in a unit.
    targets: tuple[tuple[str, str], ...]
    #: Cases per target and campaign.
    budget: int
    #: The fixed set: sub-seeds every run executes, and the ones the
    #: deterministic metrics (coverage, counts) come from.
    sub_seeds: int
    #: Engines; more than one runs ``ParallelCampaign`` in process mode.
    workers: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("kvm-intel", (("kvm", "intel"),), budget=400, sub_seeds=3),
    Workload("amd-kvm-xen", (("kvm", "amd"), ("xen", "amd")),
             budget=300, sub_seeds=3),
    Workload("intel-xen-vbox", (("xen", "intel"), ("virtualbox", "intel")),
             budget=250, sub_seeds=3),
    Workload("kvm-intel-2proc", (("kvm", "intel"),), budget=600,
             sub_seeds=2, workers=2),
)}

#: Sub-seed index of the untimed warm-up campaign.
WARMUP = 999
WARMUP_BUDGET = 40


def sub_seed(seed: int, index: int) -> int:
    """The campaign seed of sub-seed *index* of benchmark seed *seed*."""
    return seed * 1000 + index


def construct(workload: Workload, seed: int, sync_root: Path | None = None):
    """The campaign objects of one unit, as a user would build them."""
    if workload.workers > 1:
        hypervisor, vendor = workload.targets[0]
        return [ParallelCampaign(hypervisor=hypervisor, vendor=Vendor(vendor),
                                 seed=seed, workers=workload.workers,
                                 mode="process", sync_dir=sync_root)]
    return [NecoFuzz(hypervisor=hypervisor, vendor=Vendor(vendor), seed=seed)
            for hypervisor, vendor in workload.targets]


@dataclass
class UnitRun:
    """What one unit (one campaign per target) produced."""

    index: int
    wall_s: float = 0.0
    cases: int = 0
    failed: int = 0
    covered: int = 0
    instrumented: int = 0
    #: Deduplicated report signatures, prefixed by their target.
    signatures: list[str] = field(default_factory=list)
    queue_adds: int = 0
    digest: str = ""
    #: FuzzEngine.step durations, in case order (serial workloads) or
    #: per shard (parallel): as measured, and scaled to the reference
    #: host speed (see ``spans.speed_probe``).
    step_s: list[float] = field(default_factory=list)
    ref_step_s: list[float] = field(default_factory=list)
    #: Per-campaign sync and shard accounting (zero sync when serial).
    parallel: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def speed_factor(self) -> float:
        """Reference seconds per host second while this unit ran."""
        raw = sum(self.step_s)
        return sum(self.ref_step_s) / raw if raw else 1.0

    @property
    def ref_wall_s(self) -> float:
        """Wall-clock seconds scaled to the reference host speed."""
        return self.wall_s * self.speed_factor


def _line_key(line) -> tuple[str, int]:
    filename, lineno = line
    return os.path.relpath(filename, SRC), lineno


def digest(results) -> str:
    """Hash of what a campaign found: covered lines, report signatures
    and engine counters. Identical for identical campaigns."""
    payload = []
    for result in results:
        payload.append({
            "lines": sorted(_line_key(line) for line in result.covered_lines),
            "reports": sorted(r.anomaly.signature() for r in result.reports),
            "stats": asdict(result.engine_stats),
        })
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _check_result(result, budget: int, errors: list[str], label: str) -> None:
    if not result.covered_lines <= result.instrumented_lines:
        errors.append(f"{label}: covered lines outside the instrumented set")
    if result.engine_stats.iterations != budget:
        errors.append(f"{label}: {result.engine_stats.iterations} iterations "
                      f"for a budget of {budget}")


def _shard_sync_s(shard: dict) -> float:
    """Sync seconds one worker recorded in its telemetry snapshot."""
    histograms = shard.get("histograms", {})
    return sum(histograms.get(name, {}).get("sum", 0.0)
               for name in ("sync.export", "sync.scan", "sync.filter",
                            "sync.execute"))


def run_unit(workload: Workload, seed: int, index: int, tracer,
             work_dir: Path) -> UnitRun:
    """Run every target of *workload* at sub-seed *index* once.

    *tracer* (a :class:`spans.SpanTracer`) is installed by the caller;
    the step durations it records for this unit, forked workers'
    included, land in ``UnitRun.step_s``. ``wall_s`` leaves out the
    time the tracer's host-speed probes took.
    """
    unit = UnitRun(index)
    campaign_seed = sub_seed(seed, index)
    budget = workload.budget if index != WARMUP else WARMUP_BUDGET
    first = len(tracer.samples)
    if workload.workers > 1:
        sync_root = work_dir / f"sync-{index}-{time.monotonic_ns()}"
        (campaign,) = construct(workload, campaign_seed, sync_root)
        start = time.perf_counter()
        result = campaign.run(budget)
        unit.wall_s = time.perf_counter() - start
        results = [result]
        label = f"{workload.name}/sub-seed {index}"
        _check_result(result, budget, unit.errors, label)
        union = set().union(*(w.covered_lines for w in result.per_worker))
        if result.covered_lines != union:
            unit.errors.append(f"{label}: merged coverage differs from the "
                               f"union of the workers' coverage")
        shards = collect_shards(work_dir)
        if len(shards) != workload.workers:
            unit.errors.append(f"{label}: {len(shards)} worker dumps for "
                               f"{workload.workers} workers")
        telemetry = (result.telemetry or {}).get("shards", {})
        busiest = probes = 0.0
        for shard_index, data in shards:
            tracer.absorb(data)
            busiest = max(busiest, sum(data["samples"]) + _shard_sync_s(
                telemetry.get(str(shard_index), {})))
            probes = max(probes, data["probe_total_s"])
        unit.wall_s -= probes
        unit.failed = (result.engine_stats.case_exceptions
                       + result.deadline_overruns)
        sync = result.sync_overhead
        unit.parallel = {
            "export_s": sync.export_seconds,
            "import_execute_s": sync.execute_seconds,
            "imported": result.engine_stats.imported,
            "subsumed": result.engine_stats.imports_skipped_subsumed,
            "unaccounted_s": unit.wall_s - busiest,
        }
    else:
        results = []
        for (hypervisor, vendor), campaign in zip(
                workload.targets, construct(workload, campaign_seed)):
            probes = tracer.probe_total_s
            start = time.perf_counter()
            result = campaign.run(budget)
            unit.wall_s += (time.perf_counter() - start
                            - (tracer.probe_total_s - probes))
            tracer.settle()
            _check_result(result, budget, unit.errors,
                          f"{hypervisor}/{vendor}/sub-seed {index}")
            unit.failed += result.engine_stats.case_exceptions
            results.append(result)
        unit.parallel = {"export_s": 0.0, "import_execute_s": 0.0,
                         "imported": 0, "subsumed": 0,
                         "unaccounted_s": unit.wall_s
                         - sum(tracer.samples[first:])}
    unit.step_s = tracer.samples[first:]
    unit.ref_step_s = tracer.reference_samples(first)
    for (hypervisor, vendor), result in zip(workload.targets, results):
        unit.signatures += [f"{hypervisor}/{vendor}:{r.anomaly.signature()}"
                            for r in result.reports]
        unit.cases += result.engine_stats.iterations
        unit.covered += len(result.covered_lines)
        unit.instrumented += len(result.instrumented_lines)
        unit.queue_adds += result.engine_stats.queue_adds
    unit.digest = digest(results)
    return unit
