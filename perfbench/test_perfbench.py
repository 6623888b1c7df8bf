"""Fast test of the benchmark itself, at tiny input sizes.

    python -m pytest perfbench/test_perfbench.py

It lives outside the `tests` directory that the project's test run collects,
because it spends about half a minute starting interpreters.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run(cwd, workload, trace):
    return subprocess.run(
        [*DECLARED["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_and_nothing_fails(workload, trace):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["end_to_end" if trace == 0 else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    error_rate = [line.split()[:3] for line in lines if line.split()[:1] == ["error_rate"]]
    assert error_rate == [["error_rate", "0", "share"]]


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
