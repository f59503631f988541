"""Quick test of the benchmark itself: `python -m pytest benchmark/test_benchmark.py`.

Every workload runs end to end on tiny inputs, traced and untraced, and a
deliberately corrupted report is counted as a failed job.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout()

import workloads  # noqa: E402  (needs the checkout's src on sys.path)

PER_LAYER = {
    m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_end_to_end(name, tmp_path):
    result = run.run_workload(name, seed=3, seconds=0, trace=False, tiny=True, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_layer(name, tmp_path):
    result = run.run_workload(name, seed=3, seconds=0, trace=True, tiny=True, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == PER_LAYER
    assert result["metrics"]["cli.self_s"]["value"] > 0


def _perturb_floats(obj):
    if isinstance(obj, float):
        return obj * (1 + 1e-6) + 1e-9
    if isinstance(obj, list):
        return [_perturb_floats(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _perturb_floats(v) for k, v in obj.items()}
    return obj


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_report_is_a_failed_job(name, tmp_path):
    jobs = workloads.WORKLOADS[name](tmp_path, 3, workloads.Setup(), tiny=True)
    phase = run.run_rounds(jobs, tmp_path, 0.0, 0)
    assert run.evaluate(jobs, phase.records) == (0, 0)
    first = phase.records[0].report
    first.write_text(json.dumps(_perturb_floats(json.loads(first.read_text()))))
    assert run.evaluate(jobs, phase.records) == (1, 1)
    phase.records[1].report.unlink()
    assert run.evaluate(jobs, phase.records) == (2, 1)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "benchmark/run.py", "--workload", "model-rigidity", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
