"""Tests for the Monte Carlo experiment runner."""

import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

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
from iseasim.estimators import estimate_batch, observe_batch
from iseasim.prior import GaussianMixturePrior, map_classify_batch, min_md, sample_arrays
from iseasim.validation import NonConvergenceError, ValidationError
from test_prior import _assert_close, _rwb_reference


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

    @pytest.mark.parametrize("field, value", [
        *[(name, bad) for name in ("num_classes", "feature_dim", "num_devices",
                                   "num_subcarriers", "trials", "calibration_samples")
          for bad in (0, 2.5, True)],
        ("noise_var", 0.0), ("noise_var", float("nan")), ("noise_var", "0.1"),
        ("comm_snr_db", (10.0, float("nan"))), ("comm_snr_db", 10.0),
        ("sensing_snr_db", float("nan")), ("sensing_snr_db", float("-inf")),
        ("comm_snr_db", (10.0, 4000.0)), ("comm_snr_db", (-4000.0,)),
        ("sensing_snr_db", 4000.0), ("sensing_snr_db", -4000.0),
        ("noise_var", 1e250), ("noise_var", 1e290), ("noise_var", 2.3e-308),
        ("noise_var", 1e-320),
        ("solver_opts", {"kkt_tol": float("nan")}), ("solver_opts", {"kkt_tol": float("inf")}),
        ("solver_opts", {"kkt_tol": True}), ("solver_opts", {"kkt_tol": "1e-5"}),
        ("solver_opts", 5), ("comm_snr_db", ()),
        *[("seed", bad) for bad in ("x", float("nan"), -1)],
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
        prior = default_prior()
        assert min_md(prior)[0] == pytest.approx(pipeline.MIN_MD_TARGET)

    def test_mixture_mean_centered(self):
        prior = default_prior()
        np.testing.assert_allclose(prior.mixing @ prior.means, 0.0, atol=1e-12)

    def test_leading_dimensions_more_discriminative(self):
        from iseasim.prior import discriminative_prior
        delta = discriminative_prior(default_prior())
        assert delta[0] > delta[-1]

    def test_seeded_determinism(self):
        a = default_prior()
        b = default_prior()
        np.testing.assert_array_equal(a.means, b.means)


class TestTargetSensingVars:
    def test_hits_target_exactly(self):
        prior = default_prior()
        for snr in (-10.0, 0.0, 15.0):
            sv = target_sensing_vars(prior, 5, snr, seed=3)
            mean_ratio = np.mean(np.mean(prior.variances) / sv)
            assert 10 * np.log10(mean_ratio) == pytest.approx(snr, abs=1e-9)

    def test_devices_lie_within_the_spread(self):
        sv = target_sensing_vars(default_prior(), 50, 5.0, seed=1)
        assert sv.max() / sv.min() <= pipeline.SENSING_SPREAD ** 2
        assert np.unique(sv).size == 50


def _calibrate_reference(prior, sensing_vars, estimator, n_samples, seed, row_major):
    """calibrate as one unblocked pass, with the package's rwb kernel or,
    if `row_major`, the row-major one."""
    sensing_vars = np.asarray(sensing_vars, dtype=np.float64)
    K, M = sensing_vars.shape[0], prior.feature_dim
    children = np.random.SeedSequence(seed).spawn(K + 1)
    labels, X = sample_arrays(prior, n_samples, children[0])
    sigma_hat = np.empty((K, M))
    nu2 = np.empty((K, M))
    for k in range(K):
        X_tilde = observe_batch(X, sensing_vars[k], children[k + 1])
        if estimator == "rwb" and row_major:
            X_hat, pv = _rwb_reference(prior, X_tilde, sensing_vars[k])
        else:
            X_hat, pv = estimate_batch(estimator, prior, X_tilde, sensing_vars[k],
                                       labels=labels)
        # calibrate takes its means over C-ordered copies of the estimates
        X_hat, pv = np.ascontiguousarray(X_hat), np.ascontiguousarray(pv)
        sigma_hat[k] = np.maximum(pv.mean(axis=0), pipeline._EST_VAR_FLOOR)
        nu2[k] = np.maximum((X_hat * X_hat).mean(axis=0), pipeline._EST_VAR_FLOOR)
    return sigma_hat, nu2


class TestCalibrate:
    @pytest.mark.parametrize("estimator", ["ml", "mmse", "rwb"])
    @pytest.mark.parametrize("num_classes, feature_dim", [(5, 4), (9, 1), (9, 9)])
    @pytest.mark.parametrize("n_samples", [1, 2047, 2048, 2049, 10_000])
    def test_blocks_match_one_unblocked_pass(self, estimator, num_classes, feature_dim,
                                             n_samples):
        prior = default_prior(num_classes, feature_dim)
        sv = [0.05, 0.3, 1.5]
        cal = calibrate(prior, sv, estimator, n_samples, seed=4)
        sigma_hat, nu2 = _calibrate_reference(prior, sv, estimator, n_samples, seed=4,
                                              row_major=False)
        assert cal.sigma_hat.tobytes() == sigma_hat.tobytes()
        assert cal.nu2.tobytes() == nu2.tobytes()
        # The row-major kernel adds 8 or more classes or dimensions
        # pairwise, so from there its statistics may differ in rounding.
        for got, want in zip((cal.sigma_hat, cal.nu2), _calibrate_reference(
                prior, sv, estimator, n_samples, seed=4, row_major=True)):
            if num_classes < 8 and feature_dim < 8:
                assert got.tobytes() == want.tobytes()
            else:
                _assert_close(got, want, np.abs(want).max())

    def test_working_arrays_do_not_grow_with_the_samples(self):
        # Past the per-sample arrays that the ml estimator keeps too, rwb's
        # class-major working arrays may add no more than the whole peak of
        # a one-block calibration.
        prior = default_prior()
        block = pipeline.CHUNK_TRIALS

        def peak(estimator, n_samples):
            tracemalloc.start()
            try:
                calibrate(prior, [0.05, 0.3, 1.5], estimator, n_samples, seed=4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("rwb", 100)  # first-call allocations out of the way
        assert peak("rwb", 8 * block) <= peak("ml", 8 * block) + peak("rwb", block)

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
        # (sensing variances of about 1e-300)
        cfg = tiny_config(sensing_snr_db=3000.0, noise_var=1e-12,
                          estimator="ml", solver="equal")
        ctx = pipeline.build_context(cfg, "comm_snr", 180.0, 0)
        out, = pipeline.run_trials_batch([(ctx, range(30))])
        labels, X, _, _, _ = pipeline._draw_trials(ctx, range(30))
        np.testing.assert_array_equal(out["preds"],
                                      map_classify_batch(ctx.prior, X))
        np.testing.assert_array_equal(out["clean_preds"], out["preds"])

    @pytest.mark.parametrize("trial_seed", [-1, 0.5, True])
    def test_bad_trial_seed_names_it(self, trial_seed):
        # -1 used to raise numpy's own ValueError; 0.5 and True ran trials 0 and 1
        with pytest.raises(ValidationError, match="^trial_seed must be an integer >= 0"):
            run_trial(tiny_config(), trial_seed)

    @pytest.mark.parametrize("comm_snr_db", [float("nan"), 1e5])
    def test_bad_comm_snr_names_it(self, comm_snr_db):
        # nan used to fail as "budgets must be finite", 1e5 as an OverflowError
        with pytest.raises(ValidationError, match="^comm_snr_db must be"):
            run_trial(tiny_config(), 0, comm_snr_db)

    def test_matches_batch_path(self):
        cfg = tiny_config(solver="fdm_md")
        ctx = pipeline.build_context(cfg, "comm_snr", 10.0, 0)
        out, = pipeline.run_trials_batch([(ctx, [5])])
        single = run_trial(cfg, 5)
        assert single == (int(out["labels"][0]), int(out["preds"][0]),
                          float(out["mse"][0]), float(out["md"][0]))


def _draw_trials_reference(ctx, trial_indices):
    """_draw_trials with a spawned parent stream per trial and
    Generator.choice for the label."""
    prior = ctx.prior
    K, M, N = ctx.sensing_vars.shape[0], prior.feature_dim, ctx.num_subcarriers
    T = len(trial_indices)
    labels = np.empty(T, dtype=np.int64)
    X = np.empty((T, M))
    X_tilde = np.empty((T, K, M))
    gains = np.empty((T, K, N))
    w = np.empty((T, M))
    sigma_r = np.sqrt(0.5)
    for i, t in enumerate(trial_indices):
        ss = np.random.SeedSequence(ctx.seed,
                                    spawn_key=(pipeline._DOM_TRIAL, ctx.value_index, int(t)))
        feat_ss, sense_ss, chan_ss, comm_ss = ss.spawn(4)
        rng = np.random.default_rng(feat_ss)
        labels[i] = rng.choice(prior.num_classes, p=prior.mixing) + 1
        X[i] = prior.means[labels[i] - 1] + rng.standard_normal(M) * np.sqrt(prior.variances)
        rng = np.random.default_rng(sense_ss)
        X_tilde[i] = X[i] + rng.standard_normal((K, M)) * np.sqrt(ctx.sensing_vars)[:, None]
        rng = np.random.default_rng(chan_ss)
        if ctx.scheme == "tdm":
            gains[i] = np.tile(rng.rayleigh(scale=sigma_r, size=(K, 1)), (1, N))
        else:
            gains[i] = rng.rayleigh(scale=sigma_r, size=(K, N))
        rng = np.random.default_rng(comm_ss)
        w[i] = rng.standard_normal(M) * np.sqrt(ctx.noise_var)
    return labels, X, X_tilde, gains, w


class TestDrawTrials:
    @pytest.mark.parametrize("seed, trials", [
        (7, range(500)), (7, range(1234, 1300)), (7, range(0)), (2**64 + 7, range(60)),
        # indices past int64, whose keys are Python ints
        (7, range(2**63 - 2, 2**63 + 2)), (7, range(2**64 + 3, 2**64 + 5))])
    @pytest.mark.parametrize("mixing", [None, [0.5, 0.0, 0.2, 0.3, 0.0]])
    @pytest.mark.parametrize("scheme, solver", [("fdm", "fdm_md"), ("tdm", "tdm_md")])
    def test_matches_spawned_streams_and_choice(self, scheme, solver, mixing, seed, trials):
        ctx = pipeline.build_context(
            tiny_config(scheme=scheme, solver=solver, calibration_samples=100, seed=seed),
            "comm_snr", 10.0, 2)
        if mixing is not None:
            ctx = replace(ctx, prior=GaussianMixturePrior(
                means=ctx.prior.means, variances=ctx.prior.variances, mixing=mixing))
        got = pipeline._draw_trials(ctx, trials)
        want = _draw_trials_reference(ctx, trials)
        for g, w in zip(got, want, strict=True):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()


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

    def test_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        # 2 trials make 2 chunks; a pool of 8 would fork 6 idle processes
        import concurrent.futures
        opened = []

        class Pool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        assert sweep(tiny_config(trials=2, workers=8), "comm_snr", [10.0])[0].n_trials == 2
        assert opened == [2]

    def test_import_leaves_the_process_pool_unloaded(self):
        # Only a sweep with workers > 1 imports the process pool.
        code = ("import sys, iseasim; "
                "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(pipeline.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

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
        for variable, values in (("K", [1, 2]), ("sensing_snr", [5.0])):
            with pytest.raises(ValidationError, match=variable):
                sweep(cfg, variable, values)

    def test_exclusion_budget_enforced(self):
        cfg = tiny_config(trials=20, solver="fdm_mse",
                          solver_opts={"kkt_tol": -1.0})
        with pytest.raises(NonConvergenceError,
                           match=r"comm_snr=10.0: 20/20 trials of solver 'fdm_mse'"):
            sweep(cfg, "comm_snr", [10.0])

    @pytest.mark.parametrize("variable, value", [
        ("K", 2.5), ("K", "x"), ("K", float("nan")), ("K", 0),
        ("comm_snr", "x"), ("comm_snr", float("nan")), ("sensing_snr", float("inf")),
        ("comm_snr", 4000.0), ("comm_snr", -4000.0), ("sensing_snr", -4000.0),
    ])
    def test_bad_values_name_sweep_values(self, variable, value):
        # K = 2.5 used to run K = 2 and report 2.5
        with pytest.raises(ValidationError, match="sweep_values"):
            sweep(tiny_config(trials=2), variable, [value])

    def test_non_finite_calibration_fails_before_any_trial(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(pipeline, "_draw_trials",
                            lambda ctx, trials: drawn.append(ctx) or pytest.fail("drew"))
        # -3070 dB is a valid SNR, but its sensing variances of ~1e307
        # overflow the calibration means.
        cfg = tiny_config(estimator="ml", sensing_snr_db=-3070.0, calibration_samples=200)
        with pytest.raises(ValidationError, match=r"device 0 at sweep point 0 \(comm_snr=0.0, "
                                                  r"sensing variance \d\.\d+e\+30[67]\)"):
            sweep(cfg, "comm_snr", [0.0, 10.0])
        with pytest.raises(ValidationError, match=r"at sweep point 1 \(sensing_snr=-3070.0"):
            sweep(tiny_config(estimator="ml", calibration_samples=200), "sensing_snr",
                  [10.0, -3070.0])
        assert drawn == []

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError):
            sweep(tiny_config(), "comm_snr", [])

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValidationError):
            sweep(tiny_config(), "bandwidth", [1.0])

    @pytest.mark.parametrize("values", [[4], [4.9], [True]])
    def test_n_is_not_a_sweep_variable(self, values):
        # Only the first feature_dim subcarriers carry features, so an N
        # sweep would change nothing but which channel draws are dropped.
        with pytest.raises(ValidationError, match="unknown sweep_variable 'N'"):
            sweep(tiny_config(comm_snr_db=(10.0,)), "N", values)


def _record_fields(rec):
    return (rec.sweep_value, rec.acc_mean, rec.acc_std, rec.mse_mean, rec.md_mean,
            rec.confusion.tolist(), rec.n_trials, rec.n_excluded,
            rec.ideal_acc_mean, rec.clean_acc_mean)


# (config, variable, values): a comm-SNR fdm_md sweep, a K sweep whose
# chunks mix (K, M) shapes, and a tdm_md sweep on the per-trial closed form.
_STREAM_CASES = {
    "fdm_md": (dict(trials=11, calibration_samples=500), "comm_snr", [-10.0, 10.0, 40.0]),
    "K": (dict(trials=11, calibration_samples=500, comm_snr_db=(10.0,)), "K", [1, 2, 4]),
    "tdm_md": (dict(trials=11, calibration_samples=500, scheme="tdm", solver="tdm_md"),
               "comm_snr", [0.0, 20.0]),
}


class TestChunkedStream:
    @pytest.mark.parametrize("points, trials, workers", [
        (1, 1, 1), (3, 11, 1), (3, 11, 2), (2, 5, 8), (9, 200, 1), (4, 3000, 3)])
    def test_chunks_cover_every_trial_once_in_order(self, points, trials, workers):
        chunks = pipeline._chunks(points, trials, workers)
        total = points * trials
        assert len(chunks) == min(total, max(workers, -(-total // pipeline.CHUNK_TRIALS)))
        flat = [(p, t) for chunk in chunks for p, lo, hi in chunk for t in range(lo, hi)]
        assert flat == [(p, t) for p in range(points) for t in range(trials)]
        sizes = [sum(hi - lo for _, lo, hi in chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(_STREAM_CASES))
    def test_chunk_size_does_not_change_results(self, monkeypatch, tmp_path, case, workers):
        config, variable, values = _STREAM_CASES[case]
        cfg = ExperimentConfig(**config, workers=workers)
        outputs = []
        for chunk in (pipeline.CHUNK_TRIALS, 1, 7, 64):
            monkeypatch.setattr(pipeline, "CHUNK_TRIALS", chunk)
            recs = sweep(cfg, variable, values)
            path = tmp_path / f"c{chunk}.csv"
            export(recs, path)
            outputs.append(([_record_fields(r) for r in recs], path.read_bytes(),
                            (tmp_path / f"c{chunk}_confusion.csv").read_bytes()))
        assert all(out == outputs[0] for out in outputs[1:])

    @pytest.mark.parametrize("variable, values", [("comm_snr", [0.0, 30.0]), ("K", [2, 3])])
    def test_chunk_across_points_equals_each_point_alone(self, variable, values):
        cfg = tiny_config(comm_snr_db=(10.0,), calibration_samples=500)
        ctx0, ctx1 = (pipeline.build_context(cfg, variable, v, i) for i, v in enumerate(values))
        both = pipeline.run_trials_batch([(ctx0, range(5, 10)), (ctx1, range(0, 4))])
        alone = (pipeline.run_trials_batch([(ctx0, range(5, 10))])
                 + pipeline.run_trials_batch([(ctx1, range(0, 4))]))
        assert len(both) == len(alone) == 2
        for got, want in zip(both, alone):
            assert got.keys() == want.keys()
            for key in got:
                assert got[key].tobytes() == want[key].tobytes(), key

    def test_memory_stays_bounded_as_trials_grow(self, monkeypatch):
        # Only the per-trial outputs (a few dozen bytes a trial) may grow
        # with the trial count; the chunk's working arrays must not.
        chunk = 16
        monkeypatch.setattr(pipeline, "CHUNK_TRIALS", chunk)

        def peak(trials):
            cfg = tiny_config(trials=trials, num_devices=8, calibration_samples=50)
            tracemalloc.start()
            try:
                sweep(cfg, "comm_snr", [10.0])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(chunk)  # first-call allocations (caches, lazy imports) out of the way
        assert peak(8 * chunk) <= 1.25 * peak(chunk)


_FDM_DESIGNS = ("fdm_mse", "fdm_md", "equal", "channel_inversion")


class TestCompare:
    def test_a_design_over_the_gate_leaves_its_mean(self):
        # Put the gate between the two largest KKT residuals of 200 fdm_md
        # designs: the worst one (0.5% of the trials) leaves both means.
        cfg = tiny_config(trials=200, comm_snr_db=(-20.0,), calibration_samples=500)
        ctx = pipeline.build_context(cfg, "comm_snr", -20.0, 0)
        gains = pipeline._compare_draws(cfg.seed, 0, range(200), ctx.nu2.shape)
        (tx, rx, kkt), = pipeline._solve_rows("fdm_md", [ctx], [gains])
        mse, md = pipeline._scores(gains, tx, rx, ctx.sigma_hat, ctx.noise_var, ctx.delta)
        second, worst = np.sort(kkt)[-2:]
        assert 0 < second < worst
        keep = kkt < worst
        gated = pipeline.compare(replace(cfg, solver_opts={"kkt_tol": np.sqrt(second * worst)}),
                                 ["fdm_md"])
        assert gated == [[math.fsum(mse[keep]) / 199, math.fsum(md[keep]) / 199]]
        ungated = pipeline.compare(replace(cfg, solver_opts={"kkt_tol": worst}), ["fdm_md"])
        assert ungated == [[math.fsum(mse) / 200, math.fsum(md) / 200]]
        assert gated != ungated

    def test_negative_gate_fails_the_first_design(self):
        cfg = tiny_config(trials=5, comm_snr_db=(0.0, 10.0), calibration_samples=500,
                          solver_opts={"kkt_tol": -1.0})
        with pytest.raises(NonConvergenceError, match=r"comm_snr=0.0: 5/5 .* 'fdm_mse'"):
            pipeline.compare(cfg, _FDM_DESIGNS)

    def test_memory_stays_flat_as_trials_grow(self):
        # Only the per-trial outputs (17 bytes a design) may grow with the
        # trial count; a point's trials are never held at once.
        def peak(trials):
            cfg = tiny_config(trials=trials, calibration_samples=200)
            tracemalloc.start()
            try:
                pipeline.compare(cfg, _FDM_DESIGNS)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(8192) - peak(2048)) / 6144 < 200


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
