"""Tests for the sensing model and the three local estimators."""

import numpy as np
import pytest

from iseasim.estimators import estimate_batch, observe_batch, rwb_estimate_batch
from iseasim.pipeline import target_sensing_vars
from iseasim.prior import GaussianMixturePrior, responsibilities_batch, sample_arrays
from iseasim.validation import ValidationError

from test_prior import random_prior


def estimate_one(tag, prior, x_tilde, svar, label=None):
    """(x_hat, posterior_var) of one observation through estimate_batch."""
    labels = None if label is None else [label]
    x_hat, pv = estimate_batch(tag, prior, np.asarray(x_tilde, dtype=float)[None, :],
                               svar, labels=labels)
    return x_hat[0], pv[0]


class TestObserve:
    def test_noiseless(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(observe_batch(X, 0.0, seed=1), X)

    def test_noise_variance_oracle(self):
        # sample-variance oracle over 1e5 draws
        svar = 0.8
        X = np.zeros((100_000, 4))
        X_tilde = observe_batch(X, svar, seed=2)
        emp = X_tilde.var(axis=0)
        tol = 3.0 * svar * np.sqrt(2.0 / 100_000)
        np.testing.assert_array_less(np.abs(emp - svar), tol)

    def test_deterministic_per_seed(self):
        X = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(observe_batch(X, 0.5, seed=5),
                                      observe_batch(X, 0.5, seed=5))


class TestMlEstimate:
    def test_identity_map(self):
        rng = np.random.default_rng(1)
        prior = random_prior(rng)
        X_tilde = observe_batch(rng.normal(size=(5, 4)), 0.5, seed=3)
        X_hat, _ = estimate_batch("ml", prior, X_tilde, 0.5)
        np.testing.assert_array_equal(X_hat, X_tilde)

    def test_posterior_var_constant(self):
        prior = random_prior(np.random.default_rng(1))
        _, pv = estimate_batch("ml", prior, observe_batch(np.zeros((3, 4)), 0.7, seed=4),
                               0.7)
        np.testing.assert_array_equal(pv, 0.7)

    def test_empirical_mse_matches_sensing_var(self):
        rng = np.random.default_rng(2)
        prior = random_prior(rng)
        _, X = sample_arrays(prior, 100_000, seed=6)
        svar = 0.5
        X_tilde = observe_batch(X, svar, seed=7)
        emp = np.mean((X_tilde - X) ** 2)
        assert abs(emp - svar) / svar < 0.02


class TestMmseEstimate:
    def test_no_shrinkage_without_noise(self):
        rng = np.random.default_rng(3)
        prior = random_prior(rng)
        x_tilde = observe_batch(prior.means[0], 0.0, seed=8)
        x_hat, pv = estimate_one("mmse", prior, x_tilde, 0.0, label=1)
        np.testing.assert_array_equal(x_hat, x_tilde)
        np.testing.assert_array_equal(pv, 0.0)

    def test_unit_variance_example(self):
        prior = GaussianMixturePrior(means=[[0.0]], variances=[1.0], mixing=[1.0])
        x_hat, pv = estimate_one("mmse", prior, [2.0], 1.0, label=1)
        assert x_hat[0] == pytest.approx(1.0)
        assert pv[0] == pytest.approx(0.5)

    def test_empirical_mse_matches_closed_form(self):
        rng = np.random.default_rng(4)
        prior = random_prior(rng)
        labels, X = sample_arrays(prior, 100_000, seed=9)
        svar = 0.6
        X_tilde = observe_batch(X, svar, seed=10)
        X_hat, _ = estimate_batch("mmse", prior, X_tilde, svar, labels=labels)
        emp = np.mean((X_hat - X) ** 2, axis=0)
        expected = prior.variances * svar / (prior.variances + svar)
        np.testing.assert_allclose(emp, expected, rtol=0.02)

    def test_invalid_label_rejected(self):
        rng = np.random.default_rng(5)
        prior = random_prior(rng)
        x_tilde = observe_batch(np.zeros(4), 0.5, seed=11)
        for label in (0, prior.num_classes + 1):
            with pytest.raises(ValidationError, match="labels"):
                estimate_one("mmse", prior, x_tilde, 0.5, label=label)

    def test_approaches_ml_for_flat_prior(self):
        # non-informative prior limit: variances -> infinity
        prior = GaussianMixturePrior(means=np.zeros((1, 3)),
                                     variances=np.full(3, 1e10),
                                     mixing=[1.0])
        x_tilde = observe_batch(np.array([5.0, -3.0, 2.0]), 1.0, seed=12)
        x_hat, _ = estimate_one("mmse", prior, x_tilde, 1.0, label=1)
        np.testing.assert_allclose(x_hat, x_tilde, rtol=1e-4)


class TestRwbEstimate:
    def test_single_class_equals_mmse(self):
        rng = np.random.default_rng(6)
        prior = GaussianMixturePrior(means=rng.normal(size=(1, 4)),
                                     variances=rng.uniform(0.5, 2.0, 4),
                                     mixing=[1.0])
        x_tilde = observe_batch(prior.means[0], 0.9, seed=13)
        rwb = estimate_one("rwb", prior, x_tilde, 0.9)
        mmse = estimate_one("mmse", prior, x_tilde, 0.9, label=1)
        np.testing.assert_allclose(rwb[0], mmse[0], atol=1e-12)
        np.testing.assert_allclose(rwb[1], mmse[1], atol=1e-12)

    def test_vanishing_noise_recovers_observation(self):
        rng = np.random.default_rng(7)
        prior = random_prior(rng)
        x_tilde = observe_batch(prior.means[2], 1e-10, seed=14)
        x_hat, _ = estimate_one("rwb", prior, x_tilde, 1e-10)
        assert np.max(np.abs(x_hat - x_tilde)) < 1e-6

    def test_formula_composition_oracle(self):
        # straight-line evaluation: responsibilities, then the per-class
        # shrinkage means, then their weighted combination
        rng = np.random.default_rng(8)
        prior = random_prior(rng)
        svar = 0.45
        X_tilde = rng.normal(0.0, 2.0, (10, prior.feature_dim))
        theta = responsibilities_batch(prior, X_tilde, svar)
        X_hat, _ = estimate_batch("rwb", prior, X_tilde, svar)
        for i in range(X_tilde.shape[0]):
            expected = np.zeros(prior.feature_dim)
            for l in range(prior.num_classes):
                for m in range(prior.feature_dim):
                    v = prior.variances[m]
                    bar_mu = (v * X_tilde[i, m] + svar * prior.means[l, m]) / (v + svar)
                    expected[m] += theta[i, l] * bar_mu
            np.testing.assert_allclose(X_hat[i], expected, atol=1e-10)

    def test_convex_hull_property(self):
        rng = np.random.default_rng(9)
        prior = random_prior(rng)
        svar = 1.3
        X_tilde = observe_batch(rng.normal(0.0, 2.0, (20, 4)), svar, seed=15)
        X_hat, _ = estimate_batch("rwb", prior, X_tilde, svar)
        v = prior.variances
        shrunk = (v * X_tilde[:, None, :] + svar * prior.means) / (v + svar)
        assert np.all(X_hat >= shrunk.min(axis=1) - 1e-12)
        assert np.all(X_hat <= shrunk.max(axis=1) + 1e-12)


class TestAnalyticMse:
    """The estimators' posterior variances: the closed-form per-element
    errors that calibration averages for the solvers."""

    def test_ml_broadcasts_sensing_var(self):
        prior = random_prior(np.random.default_rng(11))
        _, pv = estimate_one("ml", prior, np.zeros(prior.feature_dim), 0.3)
        np.testing.assert_array_equal(pv, 0.3)

    def test_mmse_unit_case(self):
        prior = GaussianMixturePrior(means=[[0.0]], variances=[1.0], mixing=[1.0])
        assert estimate_one("mmse", prior, [0.0], 1.0, label=1)[1][0] \
            == pytest.approx(0.5)

    def test_rwb_one_hot_equals_mmse(self):
        # an observation at a far-separated class mean has one-hot
        # responsibilities, so the between-class term vanishes
        prior = GaussianMixturePrior(means=np.eye(3) * 1e3, variances=np.ones(3),
                                     mixing=np.full(3, 1 / 3))
        x_tilde = prior.means[2]
        assert responsibilities_batch(prior, x_tilde[None, :], 0.8)[0, 2] == 1.0
        np.testing.assert_allclose(
            estimate_one("rwb", prior, x_tilde, 0.8)[1],
            estimate_one("mmse", prior, x_tilde, 0.8, label=3)[1])

    def test_ml_dominates_mmse(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            prior = random_prior(rng)
            svar = float(rng.uniform(0.01, 10.0))
            x_tilde = np.zeros(prior.feature_dim)
            gap = estimate_one("ml", prior, x_tilde, svar)[1] \
                - estimate_one("mmse", prior, x_tilde, svar, label=1)[1]
            assert np.all(gap >= 0)

    def test_rwb_analytic_matches_observation_conditional_formula(self):
        rng = np.random.default_rng(15)
        prior = random_prior(rng)
        svar = 0.7
        X_tilde = rng.normal(0.0, 2.0, (6, prior.feature_dim))
        theta = responsibilities_batch(prior, X_tilde, svar)
        _, post_var = rwb_estimate_batch(prior, X_tilde, svar)
        # direct evaluation: bar_var + sum_l theta (bar_mu_l - ddot_mu)^2
        v = prior.variances
        for i in range(X_tilde.shape[0]):
            bar_mu = (v * X_tilde[i] + svar * prior.means) / (v + svar)
            ddot = theta[i] @ bar_mu
            expected = v * svar / (v + svar) \
                + np.sum(theta[i][:, None] * (bar_mu - ddot) ** 2, axis=0)
            np.testing.assert_allclose(post_var[i], expected, atol=1e-12)


class TestEmpiricalOrdering:
    def test_mse_ordering_over_sensing_grid(self):
        # paired Monte Carlo: MSE(mmse) <= MSE(rwb) <= MSE(ml) + 3 se
        rng = np.random.default_rng(16)
        prior = random_prior(rng)
        n = 20_000
        labels, X = sample_arrays(prior, n, seed=17)
        for svar in (0.1, 1.0, 10.0):
            X_tilde = observe_batch(X, svar, seed=18)
            per = {}
            for tag in ("ml", "mmse", "rwb"):
                X_hat, _ = estimate_batch(tag, prior, X_tilde, svar, labels=labels)
                per[tag] = np.mean((X_hat - X) ** 2, axis=1)
            for low, high in (("mmse", "rwb"), ("rwb", "ml")):
                gap = per[high] - per[low]
                se = gap.std(ddof=1) / np.sqrt(n)
                assert gap.mean() >= -3 * se


class TestEstimateBatch:
    def test_unknown_tag_and_missing_labels_rejected(self):
        prior = random_prior(np.random.default_rng(20))
        with pytest.raises(ValidationError, match="map"):
            estimate_batch("map", prior, np.zeros((1, 4)), 1.0)
        with pytest.raises(ValidationError, match="labels"):
            estimate_batch("mmse", prior, np.zeros((1, 4)), 1.0)


class TestSensingSnr:
    """The average receive sensing SNR, 10 log10 mean_k (mean_m v_m / s_k),
    through `target_sensing_vars`, which sets the per-device s_k from it."""

    def test_unit_ratio_is_zero_db(self):
        prior = GaussianMixturePrior(means=[[0.0, 0.0]], variances=[1.0, 3.0],
                                     mixing=[1.0])
        np.testing.assert_array_equal(target_sensing_vars(prior, 1, 0.0, seed=17), 2.0)

    def test_doubling_noise_costs_three_db(self):
        prior = random_prior(np.random.default_rng(18))
        base = target_sensing_vars(prior, 3, 6.0, seed=18)
        doubled = target_sensing_vars(prior, 3, 6.0 - 10 * np.log10(2.0), seed=18)
        np.testing.assert_allclose(doubled, 2 * base, rtol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(19)
        prior = random_prior(rng)
        for snr in rng.uniform(-10.0, 20.0, 3):
            svars = target_sensing_vars(prior, 4, snr, seed=19, spread=3.0)
            assert svars.shape == (4,)
            assert 10 * np.log10(np.mean(np.mean(prior.variances) / svars)) \
                == pytest.approx(snr, abs=1e-9)

    def test_empty_profiles_rejected(self):
        prior = random_prior(np.random.default_rng(20))
        with pytest.raises(ValidationError, match="num_devices"):
            target_sensing_vars(prior, 0, 10.0, seed=20)
