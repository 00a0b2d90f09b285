"""Smoke test of the benchmark: every workload at tiny size.

Checks that each workload emits every metric BENCHMARK.json names,
with its unit, in both the untraced and the traced run, and that the
correctness gate refuses a run whose oracle digest is corrupted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_corrupted_oracle_digest_fails_the_gate(monkeypatch, capsys):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from resim_bench import cli
    from resim_bench.workloads import SweepWorkload

    exact = SweepWorkload.oracle

    def corrupted(self, directory):
        documents = exact(self, directory)
        first = sorted(documents[0])[0]
        stats = documents[0][first]
        documents[0][first] = dict(stats,
                                   major_cycles=stats["major_cycles"] + 1)
        return documents

    monkeypatch.setattr(SweepWorkload, "oracle", corrupted)
    status = cli.main(["--workload", "sweep-exact", "--seed", "3",
                       "--seconds", "0", "--size", "tiny"], root=ROOT)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["metrics"] == {}


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        (BENCH / "run.py").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
