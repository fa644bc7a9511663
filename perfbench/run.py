"""Campaign benchmark: end-to-end fuzzing metrics and a traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload kvm-intel --seed 1 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then untraced campaigns for ``--seconds``. ``--trace 1``
measures the same campaigns untraced, then the fixed set of sub-seeds
again in a child process with every layer entry point wrapped (see
``spans.py``), and reports per-layer self times, layer counts and the
tracing overhead. The metric names and units are those of
``BENCHMARK.json``; the last line of output is one JSON object with
the result. The exit code is 1 when a correctness check failed and 2
when the program under test is missing.

Every time is reported at a reference host speed: on a shared host the
same campaign's duration drifts by up to 1.5x within seconds, so the
tracers time a fixed probe workload every few cases and scale each
duration by how slow the probe ran then (``spans.speed_probe``). The
figures printed before the JSON line include the unscaled throughput.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Largest accepted |sum of self times - traced step total| / total.
ACCOUNTING_TOLERANCE = 1e-6
#: Seconds child processes get to end before the next, harsher signal.
STOP_GRACE_S = 2.0
#: ``prctl`` option that makes orphaned descendants our children.
PR_SET_CHILD_SUBREAPER = 36

#: Which end-to-end metric each per-layer metric should move, on which
#: workloads, for a change that speeds up that layer. A later change
#: that claims a gain cites these by name; "unchanged" rows say where
#: the prediction is no change.
PREDICTIONS = {
    "fuzzer.mutate_ms": ("cases_per_s", "every workload (small share)"),
    "core.config_build_ms": ("cases_per_s", "every workload (small share)"),
    "core.state_generator_ms": (
        "cases_per_s, case_p50_ms",
        "kvm-intel, intel-xen-vbox; unchanged on amd-kvm-xen"),
    "validator.round_ms": (
        "cases_per_s, case_p50_ms",
        "kvm-intel, intel-xen-vbox; unchanged on amd-kvm-xen"),
    "validator.oracle_ms": (
        "cases_per_s, case_p50_ms",
        "kvm-intel, intel-xen-vbox; unchanged on amd-kvm-xen"),
    "core.harness.init_ms": ("cases_per_s", "kvm-intel, intel-xen-vbox"),
    "hypervisors.execute_init_ms": ("cases_per_s",
                                    "kvm-intel, intel-xen-vbox"),
    "hypervisors.execute_runtime_ms": ("cases_per_s, case_p99_ms",
                                       "amd-kvm-xen, intel-xen-vbox"),
    "core.harness.runtime_ms": ("cases_per_s, case_p99_ms", "amd-kvm-xen"),
    "coverage.kcov_drain_ms": ("cases_per_s",
                               "amd-kvm-xen first, then every workload"),
    "coverage.bitmap_ms": ("cases_per_s",
                           "amd-kvm-xen first, then every workload"),
    "core.detectors_ms": ("cases_per_s", "intel-xen-vbox"),
    "engine.other_ms": ("cases_per_s", "every workload"),
    "parallel.case_execute_s": ("cases_per_s", "kvm-intel-2proc"),
    "parallel.sync_export_share": ("cases_per_s", "kvm-intel-2proc"),
    "parallel.sync_import_execute_share": ("cases_per_s", "kvm-intel-2proc"),
    "parallel.import_subsumed_ratio": ("cases_per_s", "kvm-intel-2proc"),
    "parallel.unaccounted_s": ("cases_per_s, setup_s", "kvm-intel-2proc"),
    "fuzzer.find_rate": ("coverage_pct", "every workload; a speed-only "
                         "change leaves every count exactly equal"),
    "validator.corrections_per_case": ("coverage_pct", "every workload"),
    "validator.oracle_entered_rate": ("coverage_pct", "every workload"),
    "core.harness.l2_entry_rate": ("coverage_pct, unique_reports",
                                   "every workload"),
    "hypervisors.exits_per_case": ("coverage_pct", "every workload"),
    "coverage.edges_per_case": ("coverage_pct", "every workload"),
    "core.crash_rate": ("unique_reports", "intel-xen-vbox"),
}

#: Per-layer self-time metrics and the spans they come from.
SELF_TIME_METRICS = {
    "fuzzer.mutate_ms": "fuzzer.mutate",
    "core.config_build_ms": "core.config_build",
    "core.state_generator_ms": "core.state_generator",
    "validator.round_ms": "validator.round",
    "validator.oracle_ms": "validator.oracle",
    "core.harness.init_ms": "core.harness.init",
    "core.harness.runtime_ms": "core.harness.runtime",
    "hypervisors.execute_init_ms": "hypervisors.execute_init",
    "hypervisors.execute_runtime_ms": "hypervisors.execute_runtime",
    "coverage.kcov_drain_ms": "coverage.kcov_drain",
    "coverage.bitmap_ms": "coverage.bitmap",
    "core.detectors_ms": "core.detectors",
    "engine.other_ms": "engine.step",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run the traced campaigns and print their raw results.
    parser.add_argument("--traced-pass", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def adopt_orphans() -> None:
    """Become the parent of every orphaned descendant (Linux), so that
    :func:`stop_children` can reap the processes our children start."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> set[int]:
    """Live or unreaped children of this process, from ``/proc``."""
    pids = set()
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids.update(int(pid) for pid in path.read_text().split())
        except OSError:
            pass
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Process-mode campaigns create shared memory, which starts the
    multiprocessing resource tracker: a process that would otherwise
    outlive the run. It is stopped first (it unlinks any segment a
    campaign leaked); anything else still running is terminated, then
    killed after a grace period, and every child is reaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for pid in child_pids():
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + STOP_GRACE_S
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.05)


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int) -> float:
    """Median of import plus construction in fresh interpreters, in
    reference seconds."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_campaigns(workload, seed: int, seconds: float | None, tracer,
                  work_dir: Path):
    """Warm up, then run sub-seeds until *seconds* have passed.

    Each sub-seed runs twice in a row: the repeat check compares the two
    runs, and per-case latency keeps the less disturbed of them.
    Sub-seeds continue until the fixed set (the first
    ``workload.sub_seeds``, which the deterministic metrics come from)
    is done and *seconds* have passed. ``seconds=None`` runs the fixed
    set once (the traced pass).
    """
    from campaigns import WARMUP, run_unit
    from spans import fork_hook

    hook = fork_hook(tracer, work_dir) if workload.workers > 1 else None
    tracer.install()
    try:
        run_unit(workload, seed, WARMUP, tracer, work_dir)
        tracer.reset()
        units = []
        start = time.perf_counter()
        index = 0
        while index < workload.sub_seeds or (
                seconds is not None
                and time.perf_counter() - start < seconds):
            for _ in range(1 if seconds is None else 2):
                units.append(run_unit(workload, seed, index, tracer,
                                      work_dir))
            index += 1
        return units
    finally:
        tracer.remove()
        if hook is not None:
            hook.restore()


def pairs(units) -> list[tuple]:
    """The (first run, repeat) of every sub-seed, in sub-seed order."""
    runs: dict[int, list] = {}
    for unit in units:
        runs.setdefault(unit.index, []).append(unit)
    return [tuple(r) for _, r in sorted(runs.items())]


def check_units(workload, units, errors: list[str]) -> None:
    """Collect unit errors; serial campaigns must repeat bit for bit."""
    for unit in units:
        errors.extend(unit.errors)
    if workload.workers == 1:
        for run, repeat in pairs(units):
            if run.digest != repeat.digest:
                errors.append(f"sub-seed {run.index}: the repeat found other "
                              f"coverage, reports or counters")


def case_latencies(workload, units) -> list[float]:
    """Per-case latency at reference speed, the less disturbed of the two
    runs of each case.

    Serial campaigns repeat case for case, so each case keeps the faster
    of its two runs, which drops host hiccups that hit one of them.
    Process-mode campaigns do not repeat case for case; their two runs'
    latencies are paired in sorted order instead.
    """
    latencies = []
    for run, repeat in pairs(units):
        first, second = run.ref_step_s, repeat.ref_step_s
        if workload.workers > 1:
            first, second = sorted(first), sorted(second)
        latencies += map(min, first, second)
    return latencies


def end_to_end(workload, units,
               setup_s: float | None) -> tuple[dict, int]:
    """The end-to-end metrics (times at the reference host speed) and
    the number of latency samples."""
    fixed = [run for run, _ in pairs(units)][:workload.sub_seeds]
    latencies = case_latencies(workload, units)
    attempted = sum(u.cases for u in units)
    failed = sum(u.failed for u in units)
    # Forked workers count; the set-up probes are smaller than either.
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                 if workload.workers > 1 else 0)
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    metrics = {
        "cases_per_s": attempted / sum(u.ref_wall_s for u in units),
        "case_p50_ms": 1000 * percentiles[49],
        "case_p99_ms": 1000 * percentiles[98],
        "coverage_pct": 100 * sum(u.covered for u in fixed)
        / sum(u.instrumented for u in fixed),
        "case_success_ratio": 1 - failed / attempted,
        "peak_rss_mb": rss_kb / 1024,
    }
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    return metrics, len(latencies)


def parallel_layer(units) -> dict:
    """Per-campaign sync and shard accounting, mean over campaigns."""
    def mean(value):
        return statistics.fmean(value(u) for u in units)

    return {
        "parallel.case_execute_s": mean(lambda u: sum(u.ref_step_s)),
        "parallel.sync_export_share": mean(
            lambda u: u.parallel["export_s"] / u.wall_s),
        "parallel.sync_import_execute_share": mean(
            lambda u: u.parallel["import_execute_s"] / u.wall_s),
        "parallel.import_subsumed_ratio": mean(
            lambda u: u.parallel["subsumed"] / max(1, u.parallel["imported"])),
        "parallel.unaccounted_s": mean(
            lambda u: u.parallel["unaccounted_s"] * u.speed_factor),
    }


def traced_pass(workload, seed: int, work_dir: Path) -> dict:
    """The fixed sub-seeds under the layer tracer (in its own process)."""
    from spans import layer_tracer

    tracer = layer_tracer()
    units = run_campaigns(workload, seed, None, tracer, work_dir)
    return {
        "digests": [u.digest for u in units],
        "errors": [e for u in units for e in u.errors],
        "cases": sum(u.cases for u in units),
        "ref_wall_s": sum(u.ref_wall_s for u in units),
        "queue_adds": sum(u.queue_adds for u in units),
        "tracer": tracer.export(),
        "accounting_error": tracer.accounting_error(),
    }


def layer_metrics(traced: dict, untraced_cps: float):
    """Per-layer metrics from the traced pass, times at reference speed."""
    from spans import SpanTracer

    tracer = SpanTracer(entry_points=())
    tracer.absorb(traced["tracer"])
    cases = tracer.cases
    scale = 1000 * sum(tracer.reference_samples()) / tracer.root_s / cases
    counts, calls = tracer.counts, tracer.calls
    metrics = {name: scale * tracer.self_s.get(span, 0.0)
               for name, span in SELF_TIME_METRICS.items()}
    metrics.update({
        "engine.step_ms": scale * tracer.root_s,
        "trace.overhead_ratio":
            untraced_cps / (traced["cases"] / traced["ref_wall_s"]) - 1,
        "fuzzer.find_rate": traced["queue_adds"] / traced["cases"],
        "validator.corrections_per_case":
            counts.get("rounding_corrections", 0) / cases,
        "validator.oracle_entered_rate": counts.get("oracle_entered", 0)
            / max(1, calls.get("core.state_generator", 0)),
        "core.harness.l2_entry_rate": counts.get("l2_entries", 0)
            / max(1, calls.get("core.harness.init", 0)),
        "hypervisors.exits_per_case": counts.get("l0_exits", 0) / cases,
        "coverage.edges_per_case": counts.get("edges", 0) / cases,
        "core.crash_rate": counts.get("watchdog_crashes", 0) / cases,
    })
    unlisted = {k: scale * v for k, v in tracer.self_s.items()
                if k not in SELF_TIME_METRICS.values()}
    return metrics, unlisted, tracer


def host_metadata() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_revision": git_revision(),
            "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    adopt_orphans()
    try:
        return run(args)
    finally:
        stop_children()


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    from campaigns import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # Sync directories, worker dumps and temporary files stay inside the
    # checkout and are removed when the run ends.
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    tempfile.tempdir = str(work_dir)
    os.environ["TMPDIR"] = str(work_dir)
    try:
        if args.traced_pass:
            print(json.dumps(traced_pass(workload, args.seed, work_dir)))
            return 0
        return measure(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass


def measure(args, workload, work_dir: Path) -> int:
    from campaigns import sub_seed
    from spans import step_timer

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"]
               for m in declared["end_to_end"] + declared["per_layer"]}
    host = host_metadata()
    errors: list[str] = []
    setup_s = (measure_setup(workload.name, args.seed)
               if args.trace == 0 else None)
    units = run_campaigns(workload, args.seed, args.seconds, step_timer(),
                          work_dir)
    check_units(workload, units, errors)
    attempted = sum(u.cases for u in units)
    failed = sum(u.failed for u in units)
    e2e, nlatencies = end_to_end(workload, units, setup_s)
    host_cps = attempted / sum(u.wall_s for u in units)
    targets = ", ".join("/".join(t) for t in workload.targets)
    print(f"workload {workload.name} ({targets}): {workload.budget} cases per target and campaign, "
          f"{workload.workers} engine(s); seed {args.seed}: sub-seeds "
          f"{sub_seed(args.seed, 0)}..{sub_seed(args.seed, units[-1].index)}"
          f", each run twice; {attempted} cases, {nlatencies} latency "
          f"samples; coverage and reports from the first "
          f"{workload.sub_seeds} sub-seeds")
    factor = sum(u.ref_wall_s for u in units) / sum(u.wall_s for u in units)
    print(f"  {host_cps:.1f} cases per host second; {factor:.3f} reference "
          f"seconds per host second")
    for name, value in e2e.items():
        print(f"  {name:<22} {value:14.4f} {unit_of[name]}")
    metrics = e2e
    wanted = declared["end_to_end"]
    if args.trace:
        wanted = declared["per_layer"]
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload.name, "--seed", str(args.seed),
             "--traced-pass"],
            capture_output=True, text=True, timeout=150)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise RuntimeError("the traced pass failed")
        traced = json.loads(out.stdout.strip().splitlines()[-1])
        errors.extend(traced["errors"])
        fixed = [run for run, _ in pairs(units)][:workload.sub_seeds]
        if workload.workers == 1 and traced["digests"] != [
                u.digest for u in fixed]:
            errors.append("tracing changed what the campaigns found")
        if traced["accounting_error"] > ACCOUNTING_TOLERANCE:
            errors.append(f"per-layer self times miss the traced step total "
                          f"by {traced['accounting_error']:.2e}")
        # Tracing overhead: the same sub-seeds, untraced against traced.
        same = [u for u in units if u.index < workload.sub_seeds]
        untraced_cps = (sum(u.cases for u in same)
                        / sum(u.ref_wall_s for u in same))
        metrics, unlisted, tracer = layer_metrics(traced, untraced_cps)
        metrics.update(parallel_layer(units))
        metrics["unique_reports"] = len(set().union(
            *(u.signatures for u in fixed)))
        print(f"traced pass: {tracer.cases} cases; per-layer self times add "
              f"up to the FuzzEngine.step total within "
              f"{traced['accounting_error']:.1e} (tolerance "
              f"{ACCOUNTING_TOLERANCE:.0e}); spans outside any case: "
              f"{sum(tracer.outside_s.values()):.3f} host s")
        if unlisted:
            print(f"  spans in no metric (ms/case): {unlisted}")
        for name, value in metrics.items():
            note = PREDICTIONS.get(name)
            print(f"  {name:<36} {value:12.4f} {unit_of[name]:<6}"
                  + (f" moves {note[0]} on {note[1]}" if note else ""))
    host["loadavg_after"] = list(os.getloadavg())
    print("host " + json.dumps(host))
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()}}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
