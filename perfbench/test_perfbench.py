"""Smoke test of the benchmark: every workload, every check and the traced
run at tiny sizes, plus the contract's output format.

Run from the repository root: ``python -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "wages_fsr", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_counts_zero_for_a_name_the_package_lacks(monkeypatch):
    import tracer
    from polykit import diagnostics, fitcore

    original = fitcore.fit_ols
    monkeypatch.setitem(tracer.TRACED, "fitcore", ("fit_ols", "no_such_function"))
    t = Tracer("test")
    t.install()
    try:
        assert diagnostics.fit_ols is fitcore.fit_ols is not original
        t.active = True
        fitcore.fit_ols([[0.0], [1.0], [2.0]], [1.0, 2.0, 3.5])
        t.active = False
    finally:
        t.uninstall()
    assert fitcore.fit_ols is original and diagnostics.fit_ols is original
    summary = t.summary()
    assert summary["missing"] == ["fitcore.no_such_function"]
    assert summary["calls"] == {"fitcore.fit_ols": 1}
