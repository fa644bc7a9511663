"""Committed ``BENCH_*.json`` files hold full-budget runs only.

A stage that hit its wall-clock deadline, or ran fewer iterations than
its file's ``config.iterations``, measured something other than what
its name says. Such a file must be re-recorded, not committed.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))

#: Keys whose true value (or any true value inside a dict of
#: per-phase flags) marks a truncated measurement.
TRUNCATION_FLAGS = ("deadline_truncated", "truncated")


def _problems(node, budget: int, path: str) -> list[str]:
    found = []
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}.{key}"
            if key in TRUNCATION_FLAGS:
                flags = value.values() if isinstance(value, dict) else [value]
                if any(flags):
                    found.append(f"{where} = {value!r}")
            elif key == "iterations_run" and value < budget:
                found.append(f"{where} = {value} < config.iterations "
                             f"{budget}")
            found += _problems(value, budget, where)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            found += _problems(item, budget, f"{path}[{index}]")
    return found


def test_bench_files_exist():
    assert BENCH_FILES, "no committed BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_no_truncated_or_short_stage(path):
    record = json.loads(path.read_text())
    budget = record["config"]["iterations"]
    problems = []
    for stage, body in record.items():
        if stage not in ("config", "host"):
            problems += _problems(body, budget, stage)
    assert not problems, f"{path.name}: " + "; ".join(problems)


def test_checker_flags_truncation_and_short_runs():
    stage = {"deadline_truncated": {"serial": False, "parallel": True},
             "inner": [{"truncated": True}], "iterations_run": 40}
    problems = _problems(stage, 400, "s")
    assert len(problems) == 3
    assert not _problems({"deadline_truncated": {"a": False},
                          "iterations_run": 400}, 400, "s")
