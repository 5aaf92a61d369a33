"""Tests for the Monte Carlo experiment runner."""

import numpy as np
import pytest

from iseasim import pipeline
from iseasim.pipeline import (
    ExperimentConfig,
    MetricsRecord,
    calibrate,
    default_prior,
    export,
    read_metrics_csv,
    run_trial,
    sweep,
    target_sensing_vars,
)
from iseasim.prior import map_classify_batch, min_md
from iseasim.validation import NonConvergenceError, ValidationError


def tiny_config(**kwargs):
    base = dict(trials=40, comm_snr_db=(10.0,), calibration_samples=2000)
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestConfig:
    def test_fdm_requires_enough_subcarriers(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(feature_dim=5, num_subcarriers=4)

    def test_tdm_requires_enough_subcarriers(self):
        with pytest.raises(ValidationError, match="num_subcarriers"):
            ExperimentConfig(scheme="tdm", solver="tdm_mse", num_subcarriers=2)

    def test_tdm_solvers_rejected_under_fdm(self):
        for solver in ("tdm_mse", "tdm_md"):
            with pytest.raises(ValidationError, match=f"{solver}.*'fdm'"):
                ExperimentConfig(scheme="fdm", solver=solver)
        for solver in ("fdm_md", "equal"):
            ExperimentConfig(scheme="tdm", solver=solver)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="color"):
            ExperimentConfig.from_dict({"color": "red"})

    def test_bad_solver_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(solver="magic")

    def test_sensing_vars_length_checked(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(num_devices=3, sensing_vars=(0.1, 0.2))

    @pytest.mark.parametrize("field, value", [
        *[(name, bad) for name in ("num_classes", "feature_dim", "num_devices",
                                   "num_subcarriers", "trials", "calibration_samples")
          for bad in (0, 2.5, True)],
        ("noise_var", 0.0), ("noise_var", float("nan")), ("noise_var", "0.1"),
        ("comm_snr_db", (10.0, float("nan"))), ("comm_snr_db", 10.0),
        ("sensing_snr_db", float("nan")), ("sensing_snr_db", float("-inf")),
        ("min_md_target", float("nan")), ("min_md_target", 0.0), ("min_md_target", -1.0),
        ("sensing_vars", (float("nan"), 0.1, 0.1)), ("sensing_vars", (0.1, float("inf"), 0.1)),
        ("solver_opts", {"kkt_tol": float("nan")}), ("solver_opts", {"kkt_tol": float("inf")}),
        ("solver_opts", {"kkt_tol": True}), ("solver_opts", {"kkt_tol": "1e-5"}),
        ("solver_opts", 5), ("comm_snr_db", ()),
        ("sensing_vars", ("a", 0.1, 0.1)),
        *[(name, bad) for name in ("seed", "prior_seed") for bad in ("x", float("nan"), -1)],
        ("workers", "x"), ("workers", 0), ("workers", -3), ("workers", 2.7),
    ])
    def test_bad_numbers_name_the_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ExperimentConfig(**{field: value})

    def test_solver_opts_accept_only_kkt_tol(self):
        ExperimentConfig(solver_opts={"kkt_tol": 1e-5})
        ExperimentConfig(solver_opts={"kkt_tol": -1.0})  # forces every exclusion
        with pytest.raises(ValidationError, match="max_iters"):
            ExperimentConfig(solver_opts={"max_iters": 150})
        with pytest.raises(ValidationError, match="kkt_tol"):
            ExperimentConfig(solver_opts={"kkt_tol": "tight"})


class TestDefaultPrior:
    def test_min_md_hits_target(self):
        prior = default_prior(min_md_target=4.0)
        assert min_md(prior)[0] == pytest.approx(4.0)

    def test_mixture_mean_centered(self):
        prior = default_prior()
        np.testing.assert_allclose(prior.mixing @ prior.means, 0.0, atol=1e-12)

    def test_leading_dimensions_more_discriminative(self):
        from iseasim.prior import discriminative_prior
        delta = discriminative_prior(default_prior()).delta
        assert delta[0] > delta[-1]

    @pytest.mark.parametrize("target", [float("nan"), 0.0, -4.0, float("inf")])
    def test_bad_min_md_target_names_the_field(self, target):
        with pytest.raises(ValidationError, match="min_md_target"):
            default_prior(min_md_target=target)

    def test_seeded_determinism(self):
        a = default_prior(seed=77)
        b = default_prior(seed=77)
        np.testing.assert_array_equal(a.means, b.means)


class TestTargetSensingVars:
    def test_hits_target_exactly(self):
        prior = default_prior()
        for snr in (-10.0, 0.0, 15.0):
            sv = target_sensing_vars(prior, 5, snr, seed=3)
            mean_ratio = np.mean(np.mean(prior.variances) / sv)
            assert 10 * np.log10(mean_ratio) == pytest.approx(snr, abs=1e-9)

    def test_unit_spread_gives_equal_devices(self):
        prior = default_prior()
        sv = target_sensing_vars(prior, 4, 5.0, seed=1, spread=1.0)
        np.testing.assert_allclose(sv, sv[0])


class TestCalibrate:
    def test_ml_statistics_match_analytics(self):
        prior = default_prior()
        sv = np.array([0.25, 0.5])
        cal = calibrate(prior, sv, "ml", 50_000, seed=9)
        np.testing.assert_allclose(
            cal.sigma_hat, np.broadcast_to(sv[:, None], cal.sigma_hat.shape),
            rtol=1e-12)
        expected_nu2 = prior.mixing @ (prior.means ** 2) + prior.variances + sv[:, None]
        np.testing.assert_allclose(cal.nu2, expected_nu2, rtol=0.05)


class TestRunTrial:
    def test_deterministic(self):
        cfg = tiny_config()
        assert run_trial(cfg, 7) == run_trial(cfg, 7)

    def test_noiseless_chain_matches_clean_classifier(self):
        # noiseless sensing plus a transparent channel (power budget far
        # above the receiver noise) must reproduce the clean classifier
        cfg = tiny_config(sensing_vars=(0.0, 0.0, 0.0), noise_var=1e-12,
                          estimator="ml", solver="equal")
        ctx = pipeline.build_context(cfg, "comm_snr", 180.0, 0)
        out = pipeline.run_trials_batch(ctx, range(30))
        labels, X, _, _, _ = pipeline._draw_trials(ctx, range(30))
        np.testing.assert_array_equal(out["preds"],
                                      map_classify_batch(ctx.prior, X))
        np.testing.assert_array_equal(out["clean_preds"], out["preds"])

    def test_matches_batch_path(self):
        cfg = tiny_config(solver="fdm_md")
        ctx = pipeline.build_context(cfg, "comm_snr", 10.0, 0)
        out = pipeline.run_trials_batch(ctx, [5])
        single = run_trial(cfg, 5)
        assert single == (int(out["labels"][0]), int(out["preds"][0]),
                          float(out["mse"][0]), float(out["md"][0]))


class TestLowSnrFloor:
    def test_deep_negative_snr_collapses_to_random_guessing(self):
        # with five classes the chain must bottom out near 1/5 accuracy
        cfg = ExperimentConfig(trials=10_000, solver="fdm_md",
                               comm_snr_db=(-20.0,))
        rec = sweep(cfg, "comm_snr", [-20.0])[0]
        assert 0.15 <= rec.acc_mean <= 0.25


class TestSweep:
    def test_single_trial_record(self):
        cfg = tiny_config(trials=1)
        recs = sweep(cfg, "comm_snr", [10.0])
        assert len(recs) == 1
        assert recs[0].acc_std == 0.0
        assert recs[0].n_trials == 1

    def test_confusion_trace_equals_accuracy(self):
        cfg = tiny_config(trials=120)
        rec = sweep(cfg, "comm_snr", [5.0])[0]
        assert rec.confusion.sum() == rec.n_trials
        assert np.trace(rec.confusion) / rec.n_trials == rec.acc_mean

    def test_repeatable(self):
        cfg = tiny_config(trials=60)
        a = sweep(cfg, "comm_snr", [0.0, 20.0])
        b = sweep(cfg, "comm_snr", [0.0, 20.0])
        for ra, rb in zip(a, b):
            assert ra.acc_mean == rb.acc_mean
            assert ra.mse_mean == rb.mse_mean
            assert ra.md_mean == rb.md_mean
            np.testing.assert_array_equal(ra.confusion, rb.confusion)

    def test_worker_count_does_not_change_results(self):
        cfg1 = tiny_config(trials=50, workers=1)
        cfg3 = tiny_config(trials=50, workers=3)
        a = sweep(cfg1, "comm_snr", [10.0])[0]
        b = sweep(cfg3, "comm_snr", [10.0])[0]
        assert a.acc_mean == b.acc_mean
        assert a.mse_mean == b.mse_mean
        assert a.md_mean == b.md_mean
        np.testing.assert_array_equal(a.confusion, b.confusion)

    @pytest.mark.parametrize("env", ["0", "-4", "x", "2.7"])
    def test_bad_workers_env_names_the_variable(self, monkeypatch, env):
        monkeypatch.setenv(pipeline.WORKERS_ENV, env)
        with pytest.raises(ValidationError, match=pipeline.WORKERS_ENV):
            sweep(tiny_config(trials=2), "comm_snr", [10.0])

    def test_workers_env_variable(self, monkeypatch):
        monkeypatch.setenv(pipeline.WORKERS_ENV, "2")
        cfg = tiny_config(trials=30)
        rec = sweep(cfg, "comm_snr", [10.0])[0]
        monkeypatch.setenv(pipeline.WORKERS_ENV, "1")
        rec1 = sweep(cfg, "comm_snr", [10.0])[0]
        assert rec.acc_mean == rec1.acc_mean

    @pytest.mark.parametrize("solver", ["tdm_mse", "tdm_md"])
    def test_tdm_solvers_are_worker_invariant(self, tmp_path, solver):
        paths = []
        for workers in (1, 2):
            cfg = tiny_config(trials=30, scheme="tdm", solver=solver, workers=workers)
            recs = sweep(cfg, "comm_snr", [0.0, 10.0])
            assert all(r.n_excluded == 0 and r.n_trials == 30 for r in recs)
            paths.append(tmp_path / f"w{workers}.csv")
            export(recs, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "w1_confusion.csv").read_bytes() \
            == (tmp_path / "w2_confusion.csv").read_bytes()

    def test_k_sweep_changes_device_count(self):
        cfg = tiny_config(trials=25)
        recs = sweep(cfg, "K", [1, 4])
        assert len(recs) == 2
        assert recs[0].sweep_value == 1.0

    def test_non_snr_sweep_needs_one_comm_snr(self):
        cfg = tiny_config(comm_snr_db=(0.0, 10.0))
        for variable, values in (("K", [1, 2]), ("N", [4]), ("sensing_snr", [5.0])):
            with pytest.raises(ValidationError, match=variable):
                sweep(cfg, variable, values)

    def test_exclusion_budget_enforced(self):
        cfg = tiny_config(trials=20, solver="fdm_mse",
                          solver_opts={"kkt_tol": -1.0})
        with pytest.raises(NonConvergenceError,
                           match=r"comm_snr=10.0: 20/20 trials of solver 'fdm_mse'"):
            sweep(cfg, "comm_snr", [10.0])

    @pytest.mark.parametrize("variable, value", [
        ("K", 2.5), ("K", "x"), ("K", float("nan")), ("K", 0), ("N", 4.9), ("N", True),
        ("comm_snr", "x"), ("comm_snr", float("nan")), ("sensing_snr", float("inf")),
    ])
    def test_bad_values_name_sweep_values(self, variable, value):
        # K = 2.5 used to run K = 2 and report 2.5
        with pytest.raises(ValidationError, match="sweep_values"):
            sweep(tiny_config(trials=2), variable, [value])

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError):
            sweep(tiny_config(), "comm_snr", [])

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValidationError):
            sweep(tiny_config(), "bandwidth", [1.0])


class TestExport:
    def test_header_only_for_empty_records(self, tmp_path):
        path = tmp_path / "out.csv"
        export([], path)
        assert path.read_text() == "sweep_value,acc_mean,acc_std,mse_mean,md_mean\n"

    def test_round_trip(self, tmp_path):
        cfg = tiny_config(trials=30)
        recs = sweep(cfg, "comm_snr", [0.0, 10.0])
        path = tmp_path / "out.csv"
        export(recs, path)
        rows = read_metrics_csv(path)
        assert len(rows) == 2
        for rec, row in zip(recs, rows):
            assert row["sweep_value"] == rec.sweep_value
            assert row["acc_mean"] == pytest.approx(rec.acc_mean, rel=1e-8)

    def test_confusion_companion_counts(self, tmp_path):
        cfg = tiny_config(trials=30)
        recs = sweep(cfg, "comm_snr", [10.0])
        path = tmp_path / "out.csv"
        export(recs, path)
        companion = tmp_path / "out_confusion.csv"
        lines = companion.read_text().strip().split("\n")
        assert len(lines) == 1 + cfg.num_classes
        total = sum(int(v) for line in lines[1:] for v in line.split(",")[2:])
        assert total == recs[0].n_trials

    def test_nine_significant_digits(self, tmp_path):
        rec = MetricsRecord(sweep_value=1.0, acc_mean=1 / 3, acc_std=0.0,
                            mse_mean=2 / 3, md_mean=0.0,
                            confusion=np.zeros((2, 2), dtype=np.int64),
                            n_trials=1, n_excluded=0)
        path = tmp_path / "out.csv"
        export([rec], path)
        assert "0.333333333" in path.read_text()


class TestEstimatorSweep:
    def test_ordering_and_convergence_clauses(self):
        prior = default_prior()
        grid = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]
        recs = pipeline.estimator_sweep(prior, 3, grid, trials=8000, seed=5)
        for rec in recs:
            assert rec.mse["mmse"] <= rec.mse["rwb"] + 3 * rec.se_gap_mmse_rwb
            assert rec.mse["rwb"] <= rec.mse["ml"] + 3 * rec.se_gap_rwb_ml
            band = 2 * max(rec.acc_std["ml"], rec.acc_std["rwb"])
            if rec.sensing_snr_db <= 0:
                assert rec.acc["rwb"] >= rec.acc["ml"] - band
            if rec.sensing_snr_db >= 15:
                assert abs(rec.acc["rwb"] - rec.acc["ml"]) <= band

    @pytest.mark.parametrize("kwargs, name", [
        ({"trials": 0}, "trials"), ({"num_devices": 0}, "num_devices"),
        ({"num_devices": -1}, "num_devices"), ({"seed": -1}, "seed"),
    ])
    def test_bad_counts_name_the_argument(self, kwargs, name):
        # trials = 0 used to write rows of nan, num_devices = -1 to raise IndexError
        args = {"num_devices": 2, "trials": 10, "seed": 0} | kwargs
        with pytest.raises(ValidationError, match=name):
            pipeline.estimator_sweep(default_prior(), args["num_devices"], [0.0],
                                     args["trials"], args["seed"])

    def test_export(self, tmp_path):
        prior = default_prior()
        recs = pipeline.estimator_sweep(prior, 2, [0.0, 10.0], trials=500, seed=6)
        path = tmp_path / "est.csv"
        pipeline.export_estimator_sweep(recs, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("sensing_snr_db,mse_ml")
        assert len(lines) == 3
