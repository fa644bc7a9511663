"""Shared helpers for the paper-reproduction benchmarks.

Scale note: the paper runs each fuzzer for 24-48 wall-clock hours on
bare metal; these benches run iteration-budgeted campaigns sized so the
whole suite finishes in minutes. The *shapes* — who wins, by roughly
what factor, where the ablations land — are the reproduction target, not
absolute line counts (see EXPERIMENTS.md).
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from dataclasses import dataclass, field

from repro import ComponentToggles, NecoFuzz, Vendor
from repro.analysis.stats import compare
from repro.analysis.timeline import CoverageTimeline, median_timeline
from repro.core.necofuzz import CampaignResult

#: Campaign budgets (iterations). A "paper hour" is mapped so that the
#: full budget corresponds to the paper's 48-hour axis.
NECOFUZZ_BUDGET = 900
SYZKALLER_BUDGET = 350

#: CI override: shrinks iteration budgets AND doubles as a hard
#: per-phase wall-clock deadline (in seconds) for the perf benches.
BENCH_BUDGET_ENV = "NECOFUZZ_BENCH_BUDGET"


def bench_budget(default: int) -> int:
    """The iteration budget for one bench, honouring the env override."""
    return int(os.environ.get(BENCH_BUDGET_ENV, default))


def host_metadata() -> dict:
    """Where a committed bench number was measured: CPUs, Python, commit."""
    try:
        revision = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_revision": revision}


class PhaseDeadline:
    """Hard wall-clock ceiling on one benchmark phase.

    When ``NECOFUZZ_BENCH_BUDGET`` is set its value doubles as a
    per-phase deadline in seconds: a phase that reaches it stops where
    it is and the bench reports the truncated numbers (with its
    pass/fail floors gated off) instead of blowing the CI time box. No
    env var — full local runs — means no deadline.

    One instance covers one phase; construct a fresh one per phase so
    the clock starts when the phase does.
    """

    def __init__(self) -> None:
        raw = os.environ.get(BENCH_BUDGET_ENV)
        self.seconds = float(raw) if raw else None
        self.started = time.perf_counter()
        self.hit = False

    def expired(self) -> bool:
        """Check the clock; latches ``hit`` once crossed."""
        if self.seconds is not None and not self.hit:
            self.hit = time.perf_counter() - self.started > self.seconds
        return self.hit

    def run(self, steps: int, step) -> int:
        """Call ``step()`` up to *steps* times; returns how many ran."""
        done = 0
        while done < steps and not self.expired():
            step()
            done += 1
        return done
#: Klees et al. recommend reporting across repeated runs; the paper uses
#: five (which also lets the Mann-Whitney U-test reach p ~ 0.012).
RUNS = 5
SEEDS = (11, 23, 37, 47, 59)


def necofuzz_runs(vendor: Vendor, *, hypervisor: str = "kvm",
                  budget: int = NECOFUZZ_BUDGET, runs: int = RUNS,
                  toggles: ComponentToggles | None = None,
                  coverage_guided: bool = True,
                  sample_every: int = 30) -> list[CampaignResult]:
    """Run *runs* independent NecoFuzz campaigns (Klees-style repeats)."""
    results = []
    for seed in SEEDS[:runs]:
        campaign = NecoFuzz(
            hypervisor=hypervisor, vendor=vendor, seed=seed,
            toggles=toggles or ComponentToggles(),
            coverage_guided=coverage_guided,
            iterations_per_hour=budget / 48.0)
        results.append(campaign.run(budget, sample_every=sample_every))
    return results


def coverage_percents(results: list[CampaignResult]) -> list[float]:
    return [r.coverage_percent for r in results]


def union_lines(results: list[CampaignResult]) -> set:
    """Union coverage across repeats (for the set-algebra rows)."""
    lines: set = set()
    for result in results:
        lines |= result.covered_lines
    return lines


def median_result_lines(results: list[CampaignResult]) -> set:
    """The covered-line set of the median-coverage run."""
    ordered = sorted(results, key=lambda r: r.coverage_percent)
    return ordered[len(ordered) // 2].covered_lines


@dataclass
class BenchReport:
    """Collects printable lines and emits them once, uncaptured."""

    title: str
    lines: list[str] = field(default_factory=list)

    def add(self, text: str = "") -> None:
        self.lines.append(text)

    def emit(self, capsys) -> None:
        with capsys.disabled():
            print(f"\n=== {self.title} " + "=" * max(0, 60 - len(self.title)))
            for line in self.lines:
                print(line)


def klees_row(name_a: str, runs_a: list[float],
              name_b: str, runs_b: list[float]) -> str:
    """One statistics row comparing two tools' coverage samples."""
    return compare(name_a, runs_a, name_b, runs_b).render()


def timeline_block(label: str, timelines: list[CoverageTimeline]) -> list[str]:
    """Median timeline sparkline plus a few sampled points."""
    merged = median_timeline(timelines, label)
    lines = [merged.render()]
    samples = []
    for hour in (1, 6, 12, 24, 48):
        samples.append(f"{hour:>3}h={100 * merged.at_hour(hour):.1f}%")
    lines.append(f"{'':28} {' '.join(samples)}")
    return lines
