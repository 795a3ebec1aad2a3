"""Fast self-test of the benchmark at tiny sizes (nmax 2, one sweep point).

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jordan_osc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = {"exact-n16": 202, "float-n24": 190, "exact-sweep": 153}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in section
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    info = json.loads(info_line)["info"]
    for key in ("commit", "python", "numpy", "nproc", "seed", "points"):
        assert key in info
    if trace:
        assert info["absent_boundaries"] == []
        assert result["metrics"]["model.apply.calls"]["value"] > 0
    else:
        assert result["metrics"]["checks_run"]["value"] == CHECKS[workload]
        assert result["metrics"]["verdicts_right_frac"]["value"] == 1.0


def test_refuses_a_directory_without_the_program():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tmp*"))
        proc = bench("--workload", "exact-n16", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_trips_when_a_control_passes():
    params = worker.make_params(jordan_osc, run.REFERENCE_POINT)
    controls = jordan_osc.load_negative_controls()
    assert worker.negative_control_misses(jordan_osc, params, controls) == []
    true_claim = jordan_osc.load_relations()[0]
    assert worker.negative_control_misses(jordan_osc, params, [true_claim]) == [true_claim.rel_id]


def _execution(verdicts, misses=()):
    return {
        "setup_s": 0.2, "verify_s": 1.0, "verify_wall_s": 1.0, "speed_samples": 10,
        "peak_rss_mb": 40.0, "calls": [verdicts], "exit_codes": [],
        "controls": 5, "control_misses": [list(misses)], "rss_after_point_mb": [40.0],
        "python": "3", "numpy": "2", "layers": {}, "absent": [],
    }


def test_summary_counts_wrong_verdicts_and_gates_controls():
    job = run.make_job("exact-sweep", 1, tiny=True)
    units = run.metric_units("end_to_end")
    good = [["c1", True], ["c2", True], ["c3", False]]

    result, info = run.summarize(job, {"probes": [0.2], "references": [0.15], "plain": [_execution(good)], "traced": None}, units)
    assert result["correct"] is True
    assert result["metrics"]["verdicts_right_frac"]["value"] == 1 - 1 / 8
    assert result["metrics"]["checks_run"]["value"] == 3
    assert info["wrong_verdicts"] == ["c3"]

    missed = _execution(good, misses=["neg.x"])
    result, info = run.summarize(job, {"probes": [0.2], "references": [0.15], "plain": [missed], "traced": None}, units)
    assert result["correct"] is False
    assert result["metrics"]["verdicts_right_frac"]["value"] == 1 - 2 / 8
    assert info["negative_controls_passed"] == ["neg.x"]

    duplicated = _execution([["c1", True], ["c1", True]])
    result, info = run.summarize(job, {"probes": [0.2], "references": [0.15], "plain": [duplicated], "traced": None}, units)
    assert result["correct"] is False and result["failed"] == 1
    assert info["integrity_problems"] == ["duplicate check ids"]


def test_summary_rejects_traced_verdicts_that_differ():
    job = run.make_job("exact-sweep", 1, tiny=True)
    units = run.metric_units("per_layer")
    plain = _execution([["c1", True]])
    traced = _execution([["c1", False]])
    traced["layers"] = {name: 0 for name in units}
    result, info = run.summarize(job, {"probes": [0.2], "references": [0.15], "plain": [plain], "traced": traced}, units)
    assert result["correct"] is False
    assert info["executions_with_other_verdicts"] == 1


def test_tracer_patches_every_binding_and_restores_them():
    from jordan_osc import gaussint, model, verifier

    original = model.apply
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert model.apply is not original
        assert verifier.apply is model.apply and gaussint.apply is model.apply
        params = worker.make_params(jordan_osc, run.REFERENCE_POINT)
        verifier.apply(params, model.make_operator(params, "H"), model.build_psi(params, 1, 1))
    finally:
        tracer.uninstall()
    assert model.apply is original and verifier.apply is original
    metrics = tracer.metrics()
    assert metrics["model.apply.calls"] == 1
    assert metrics["model.conjugate_through_envelope.calls"] == 1
    assert metrics["weyl.image_terms_max"] > 0 and metrics["weyl.coeff_bits_max"] > 0


def test_tracer_reports_a_missing_boundary_as_absent(monkeypatch):
    gone = ("model.removed_layer", "jordan_osc.model", "removed_layer")
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + (gone,))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["model.removed_layer"]
    assert tracer.metrics()["model.removed_layer.calls"] == 0


def test_sweep_points_are_seeded_distinct_and_admissible():
    points = run.sweep_points(7, 12)
    assert points == run.sweep_points(7, 12) != run.sweep_points(8, 12)
    assert len({(p["p"], p["q"]) for p in points}) == 12
    params = [worker.make_params(jordan_osc, p) for p in points]
    assert all(P.a > P.b > 0 for P in params)
