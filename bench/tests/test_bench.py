"""Smoke tests for the benchmark; run with `python3 -m pytest bench/tests`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, monkeypatch, workload, trace, seconds=0.4):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(capsys, monkeypatch, workload, trace):
    code, lines, result = _run(capsys, monkeypatch, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in declared
    ]
    for m in declared:
        assert any(
            line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines
        ), m["name"]
    if not trace:
        assert result["metrics"]["success_ratio"]["value"] == 1.0


def _corrupt(op):
    if isinstance(op.expected, dict):  # analyze: wrong kernel dimension
        op.expected = {**op.expected, "kernel_dim": op.expected["kernel_dim"] + 1}
    elif isinstance(op.expected, np.ndarray):  # bracket: values off by 1%
        op.expected = op.expected * 1.01
    else:  # verify: a check name the suite does not report
        op.expected.checks = ("no_such_check", *op.expected.checks[1:])
    return op


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_lowers_success_ratio(capsys, monkeypatch, workload):
    build = workloads.build_plan

    def corrupted(*args):
        plan = build(*args)
        plan.warmup = _corrupt(plan.warmup)
        plan.ops = (_corrupt(op) for op in plan.ops)
        return plan

    monkeypatch.setattr(workloads, "build_plan", corrupted)
    code, lines, result = _run(capsys, monkeypatch, workload, 0)
    assert code == 0
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["success_ratio"]["value"] < 1
    assert any(line.startswith("failure: ") for line in lines)


def test_oversized_workload_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(run, "mem_available", lambda: 64 * 2**20)
    code = run.main(["--workload", "analyze-regular", "--seed", "1", "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert lines[0].startswith("refused: analyze-regular")
    assert json.loads(lines[-1])["correct"] is False


def test_refusal_threshold():
    plan = workloads.Plan("p", None, iter(()), max_tensor_bytes=100)
    assert workloads.refusal(plan, 2 * workloads.PEAK_TENSORS * 100) is None
    assert workloads.refusal(plan, 2 * workloads.PEAK_TENSORS * 100 - 2) is not None
    assert workloads.refusal(plan, None) is None


def test_tracer_restores_the_program():
    run.import_framelab()
    import framelab.cli
    import framelab.frames

    def callables():
        return (framelab.cli.main, framelab.frames.analyze_orbit, np.linalg.eigvalsh,
                np.linalg._linalg.svd)

    before = callables()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert framelab.cli.main is not before[0]
        assert framelab.cli.analyze_orbit is framelab.frames.analyze_orbit is not before[1]
        # norm(ord=2) reaches svd through numpy's private module.
        assert np.linalg._linalg.svd is np.linalg.svd is not before[3]
    finally:
        tracer.uninstall()
    assert callables() == before
    assert framelab.cli.analyze_orbit is before[1]


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 0.010, -1, 0, 0.008, None],
        ["frames.analyze_orbit", 0.001, 0.009, 0, 0, 0.003, None],
        ["linalg.eigvalsh", 0.002, 0.005, 1, 0, 0.0, None],
    ]
    values = tracing.op_layer_values(spans, range(3))
    assert values["cli.self_ms"] == pytest.approx(2.0)
    assert values["frames.self_ms"] == pytest.approx(5.0)
    assert values["linalg.eig_ms"] == pytest.approx(3.0)
    assert values["linalg.eig_calls"] == 1


def test_speed_factors_scale_to_the_reference():
    calibrate = calibration.Calibrator(("python", "lapack"))
    ref = calibrate.reference
    assert ref == calibration.REFERENCE_S["python"] + calibration.REFERENCE_S["lapack"]
    assert calibrate() > 0
    assert calibrate.speed_factors([ref, ref]) == [1.0]
    # A host twice as slow halves every factor.
    assert calibrate.speed_factors([2 * ref] * 4) == [0.5] * 3
    # One sample slowed by an interrupt does not move any factor.
    assert calibrate.speed_factors([ref] * 3 + [10 * ref] + [ref] * 3) == [1.0] * 6


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
