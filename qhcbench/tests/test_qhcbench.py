"""Tests of the benchmark itself: smoke sizes, seeding and the output checker.

    python3 -m pytest qhcbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from checks import CheckFailed
from qhckit import errors, gates

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def make(name: str, seed: int, workdir: Path) -> workloads.Workload:
    return workloads.make(name, seed, workdir, child_env(), smoke=True)


def test_smoke_size_runs_every_workload_in_about_a_second(tmp_path):
    start = time.perf_counter()
    for name in run.WORKLOADS:
        workload = make(name, 1, tmp_path / name)
        try:
            loop = run.run_loop(workload, seconds=0.05, min_ops=3)
        finally:
            workload.close()
        assert loop.failed == 0, loop.reasons
        assert len(loop.latencies) >= 3
    assert time.perf_counter() - start < 5.0


def test_traced_smoke_records_spans_and_overhead(tmp_path):
    workload = make("table_compile", 1, tmp_path)
    loop, metrics, detail, rec = run.traced(workload, seconds=0.05)
    assert loop.failed == 0, loop.reasons
    assert metrics["serialize.parse_truth_table.calls"] == 1.0
    assert metrics["synth.QhcGate.unitary.calls"] > 0
    assert "trace.overhead_frac" in metrics
    assert 0.5 < metrics["trace.covered_frac"] <= 1.0
    assert detail["spans"] == len(rec.start) > 0
    # Wrappers are gone once the traced pass ends.
    from qhckit import synth

    assert not hasattr(synth.verify, "__wrapped__")


def pool(name: str, seed: int, workdir: Path) -> list:
    workload = make(name, seed, workdir)
    ops = [workload.op(i) for i in range(workload.pool_size)]
    files = sorted((p.name, p.read_text()) for p in workdir.glob("*")) if workdir.exists() else []
    return [(op.payload if name != "dense_state" else op.payload.rows, op.reals, op.kind, op.case) for op in ops] + files


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = pool(name, 7, tmp_path / "a")
    shutil.rmtree(tmp_path / "a", ignore_errors=True)
    assert pool(name, 7, tmp_path / "a") == first
    assert pool(name, 8, tmp_path / "a") != first


def executed(name: str, index: int, workdir: Path):
    workload = make(name, 1, workdir)
    workload.in_process = True
    op = workload.op(index)
    result = workload.execute(op)
    workload.check(op, result, None)
    return workload, op, result


def test_checker_catches_an_injected_wrong_label(tmp_path):
    workload, op, (gate, report) = executed("table_compile", 0, tmp_path)
    row = report.rows[-1]
    wrong = next(label for label in ("00", "01", "10", "11") if label != row.obtained)
    bad = replace(report, rows=report.rows[:-1] + (replace(row, obtained=wrong),))
    with pytest.raises(CheckFailed, match="gate gave"):
        workload.check(op, (gate, bad), None)


def test_checker_catches_wrong_probabilities(tmp_path):
    workload, op, (gate, report, outcomes) = executed("dense_state", 0, tmp_path)
    probabilities = list(outcomes[0].probabilities)
    probabilities[0], probabilities[-1] = probabilities[-1], probabilities[0]
    bad = [replace(outcomes[0], probabilities=tuple(probabilities))] + outcomes[1:]
    with pytest.raises(CheckFailed, match="oracle"):
        workload.check(op, (gate, report, bad), None)


def test_checker_rejects_nan_in_cli_stdout(tmp_path):
    workload, op, (code, stdout, stderr) = executed("cli_roundtrip", 0, tmp_path)
    doc = json.loads(stdout)
    doc["verification"]["max_deviation"] = float("nan")
    with pytest.raises(CheckFailed, match="NaN"):
        workload.check(op, (code, json.dumps(doc), stderr), None)
    with pytest.raises(CheckFailed, match="exit code"):
        workload.check(op, (1, stdout, "error: boom"), None)


def test_checker_catches_a_wrong_error_class(tmp_path):
    workload = make("table_compile", 1, tmp_path)
    op = next(op for op in map(workload.op, range(workload.pool_size)) if op.case.error == "NotSymmetric")
    try:
        workload.execute(op)
    except errors.NotSymmetric as exc:
        workload.check(op, None, exc)
    else:
        pytest.fail("rejected document was synthesized")
    with pytest.raises(CheckFailed, match="expected NotSymmetric, got NonEmbeddable"):
        workload.check(op, None, errors.NonEmbeddable("wrong class"))
    with pytest.raises(CheckFailed, match="synthesis succeeded"):
        workload.check(op, None, None)


@pytest.mark.parametrize("error", workloads.SYNTH_ERRORS)
def test_rejected_documents_raise_their_own_error(error, tmp_path):
    import random

    case = workloads.rejected_case(random.Random(error), 5, 3, error)
    workload = make("table_compile", 1, tmp_path)
    op = workloads.Op(0, case, case.document())
    with pytest.raises(errors.SynthesisError) as info:
        workload.execute(op)
    assert type(info.value).__name__ == error


def test_oracle_matches_the_closed_form_adders():
    for s in np.linspace(0.0, 4.0, 17):
        half = checks.unitary_oracle(gates.HALF_ADDER_ORBIT, 4, s)
        full = checks.unitary_oracle(gates.FULL_ADDER_ORBIT, 4, s)
        assert np.max(np.abs(half - gates.half_adder_closed_form(s, 0.0))) < 1e-12
        assert np.max(np.abs(full - gates.full_adder_closed_form(s, 0.0, 0.0))) < 1e-12


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_METRICS)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "qhcbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "qhcbench/run.py", "--workload", "dense_state", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
