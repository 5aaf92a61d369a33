"""Tests of the benchmark's own checks and tracing (not of iseasim)."""

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from iseasim import pipeline  # noqa: E402

TRIALS = 100
POINTS = [
    {"sweep_value": 0.0, "acc": 0.5, "mse": 2.0, "md": 10.0},
    {"sweep_value": 10.0, "acc": 0.9, "mse": 0.5, "md": 40.0},
]


def _sweep_output(tmp_path, acc=(0.52, 0.91), mse=(2.0001, 0.5), excluded=(0, 0)):
    records = []
    for ref, a, m, ex in zip(POINTS, acc, mse, excluded):
        kept = TRIALS - ex
        confusion = np.zeros((2, 2), dtype=np.int64)
        confusion[0, 0] = kept
        records.append(pipeline.MetricsRecord(
            sweep_value=ref["sweep_value"], acc_mean=a, acc_std=0.1, mse_mean=m,
            md_mean=ref["md"], confusion=confusion, n_trials=kept, n_excluded=ex))
    path = str(tmp_path / "out.csv")
    pipeline.export(records, path)
    return {"csv": path, "confusion_csv": pipeline.confusion_path(path),
            "records": [{"sweep_value": r.sweep_value, "n_trials": r.n_trials,
                         "n_excluded": r.n_excluded} for r in records]}


def test_sweep_check_accepts_matching_csv(tmp_path):
    assert checks.check_sweep(POINTS, TRIALS, _sweep_output(tmp_path)) == []


@pytest.mark.parametrize("change", [
    {"acc": (0.52, 0.80)},      # ten trials flipped where 3 sd is nine
    {"mse": (2.01, 0.5)},       # MSE off by 0.5%
])
def test_sweep_check_rejects_perturbed_csv(tmp_path, change):
    problems = checks.check_sweep(POINTS, TRIALS, _sweep_output(tmp_path, **change))
    assert len(problems) == 1


def test_sweep_check_rejects_edited_confusion_counts(tmp_path):
    out = _sweep_output(tmp_path)
    with open(out["confusion_csv"], encoding="utf-8") as fh:
        text = fh.read()
    with open(out["confusion_csv"], "w", encoding="utf-8") as fh:
        fh.write(text.replace("0,1,100,0", "0,1,99,0", 1))
    problems = checks.check_sweep(POINTS, TRIALS, out)
    assert problems == ["sweep_value 0.0: confusion counts sum to 99, 100 trials kept"]


def test_oracle_check_needs_all_seven_checks_passing():
    passing = [[f"check {i}", True, "ok"] for i in range(7)]
    assert checks.check_oracle({"checks": passing}) == []
    failing = passing[:6] + [["check 6", False, "gap 1e-2"]]
    assert checks.check_oracle({"checks": failing}) == ["FAIL check 6 (gap 1e-2)"]
    assert len(checks.check_oracle({"checks": passing[:6]})) == 1


def test_nonconvergence_is_a_failed_repetition(tmp_path):
    # A negative per-trial KKT gate excludes every trial, so pipeline.sweep
    # raises NonConvergenceError.
    config = {"trials": 2, "comm_snr_db": [10.0], "calibration_samples": 200,
              "workers": 1, "solver_opts": {"kkt_tol": -1.0},
              "sweep_variable": "comm_snr", "sweep_values": None}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rep = child.repetition("fdm-sweep", str(path), str(tmp_path / "out.csv"), "run")
    assert rep["error"].startswith("NonConvergenceError")
    assert run.check("fdm-sweep", 0, {}, config, rep) == [rep["error"]]


def _fake_pipeline(clock):
    ns = SimpleNamespace()

    def tick(dt):
        clock[0] += dt

    def draw(ctx, trial_indices):
        tick(2.0)

    def solve(ctx, gains):
        tick(3.0)
        return None, None, np.array([1e-9, 2e-4, 5e-5])

    def batch(ctx, trial_indices):
        tick(1.0)
        ns._draw_trials(ctx, trial_indices)
        ns._solve_designs(ctx, None)
        tick(0.5)

    ns.run_trials_batch, ns._draw_trials, ns._solve_designs = batch, draw, solve
    return ns


def test_removed_hook_is_reported_missing():
    clock = [0.0]
    ns = _fake_pipeline(clock)
    tracer = tracing.Tracer(clock=lambda: clock[0]).install(
        {"pipeline": ns, "solvers": SimpleNamespace()})
    ns.run_trials_batch(None, range(3))
    tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert "solvers._bisect_fixed" in tracer.missing
    assert metrics["solvers.bisect_s"] is None
    assert metrics["solvers.bisect_calls"] is None
    assert metrics["solvers.dual_instances"] is None
    assert metrics["pipeline.draw_trials"] == 3
    summary, _ = run.summarize("fdm-sweep", {"trials": 1, "sweep_values": None,
                                             "comm_snr_db": [0.0]},
                               [{"mode": "trace", "problems": [], "wall_s": 1.0,
                                 "layers": metrics, "output": {}},
                                {"mode": "run", "problems": [], "wall_s": 1.0,
                                 "output": {}}], [], trace=1)
    assert summary["solvers.bisect_s"][0] is None
    assert summary["pipeline.draw_trials"][0] == 3


def test_batch_self_time_is_span_minus_child_spans():
    clock = [0.0]
    ns = _fake_pipeline(clock)
    tracer = tracing.Tracer(clock=lambda: clock[0]).install(
        {"pipeline": ns, "solvers": SimpleNamespace()})
    ns.run_trials_batch(None, range(3))
    tracer.uninstall()
    assert ns.run_trials_batch.__name__ == "batch"
    metrics = tracer.layer_metrics()
    assert metrics["pipeline.batch_self_s"] == 1.5
    assert metrics["pipeline.draw_s"] == 2.0
    assert metrics["solvers.solve_s"] == 3.0
    assert metrics["solvers.kkt_max"] == 2e-4
    assert metrics["solvers.kkt_over_gate"] == 1


def test_traced_repetition_on_the_package(tmp_path):
    config = {"trials": 3, "scheme": "tdm", "solver": "tdm_md", "comm_snr_db": [10.0],
              "calibration_samples": 200, "workers": 1,
              "sweep_variable": "K", "sweep_values": [2]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rep = child.repetition("tdm-devices", str(path), str(tmp_path / "out.csv"), "trace")
    assert rep["error"] is None
    layers = rep["layers"]
    assert layers["solvers.tdm_calls"] == 3
    assert layers["pipeline.draw_trials"] == 3
    assert layers["pipeline.calibrate_calls"] == 1
    assert 0.0 <= layers["pipeline.batch_self_s"] <= rep["wall_s"]
    assert layers["pipeline.export_bytes"] > 0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS if name in listed]
    assert {"fdm-sweep", workloads.ORACLE} <= set(listed)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_reference_covers_every_workload():
    reference = workloads.load_reference()
    for name, spec in workloads.SWEEPS.items():
        config = workloads.job_config(name, 17, reference)
        n_points = len(config["sweep_values"] or config["comm_snr_db"])
        assert len(workloads.reference_points(name, 17, reference)) == n_points
    oracle = workloads.job_config(workloads.ORACLE, 5, reference)
    assert oracle["seed"] in reference[workloads.ORACLE]["pool"]
