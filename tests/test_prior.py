"""Tests for the Gaussian-mixture prior, its distances and the classifier."""

import math

import numpy as np
import pytest

from iseasim.prior import (
    DiscriminativePrior,
    GaussianMixturePrior,
    ValidationError,
    discriminative_prior,
    map_classify_batch,
    min_md,
    pairwise_md,
    responsibilities_batch,
    sample_arrays,
)


def random_prior(rng, num_classes=5, feature_dim=4):
    mixing = rng.uniform(0.2, 1.0, num_classes)
    return GaussianMixturePrior(
        means=rng.normal(0.0, 2.0, (num_classes, feature_dim)),
        variances=rng.uniform(0.3, 3.0, feature_dim),
        mixing=mixing / mixing.sum(),
    )


class TestPriorValidation:
    def test_mixing_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            GaussianMixturePrior(means=np.zeros((2, 1)), variances=[1.0],
                                 mixing=[0.6, 0.5])

    def test_mixing_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            GaussianMixturePrior(means=np.zeros((2, 1)), variances=[1.0],
                                 mixing=[1.2, -0.2])

    def test_variances_must_be_positive(self):
        with pytest.raises(ValidationError):
            GaussianMixturePrior(means=np.zeros((2, 1)), variances=[0.0],
                                 mixing=[0.5, 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            GaussianMixturePrior(means=np.zeros((2, 3)), variances=[1.0, 1.0],
                                 mixing=[0.5, 0.5])


class TestSample:
    def test_degenerate_single_class(self):
        prior = GaussianMixturePrior(means=np.zeros((1, 3)),
                                     variances=np.full(3, 1e-12),
                                     mixing=[1.0])
        _, X = sample_arrays(prior, 200, seed=3)
        assert np.all(np.abs(X) < 1e-5)

    def test_label_frequencies(self):
        prior = GaussianMixturePrior(means=[[0.0], [5.0]], variances=[1.0],
                                     mixing=[0.5, 0.5])
        labels, _ = sample_arrays(prior, 100_000, seed=7)
        frac = np.mean(labels == 1)
        assert 0.49 <= frac <= 0.51

    def test_per_class_moments_match_prior(self):
        # moment-estimator oracle: per-class sample mean within
        # 3 sigma / sqrt(n_l) of the true mean, sample variance close too
        rng = np.random.default_rng(5)
        prior = random_prior(rng)
        labels, X = sample_arrays(prior, 100_000, seed=11)
        for l in range(1, prior.num_classes + 1):
            rows = X[labels == l]
            n = rows.shape[0]
            tol = 3.0 * np.sqrt(prior.variances / n)
            np.testing.assert_array_less(
                np.abs(rows.mean(axis=0) - prior.means[l - 1]), tol)
            var_tol = 3.0 * prior.variances * np.sqrt(2.0 / n)
            np.testing.assert_array_less(
                np.abs(rows.var(axis=0) - prior.variances), var_tol)

    def test_zero_count_gives_empty_list(self):
        prior = random_prior(np.random.default_rng(0))
        labels, X = sample_arrays(prior, 0, seed=1)
        assert labels.shape == (0,) and X.shape == (0, prior.feature_dim)

    def test_deterministic_for_fixed_seed(self):
        prior = random_prior(np.random.default_rng(0))
        a = sample_arrays(prior, 50, seed=42)
        b = sample_arrays(prior, 50, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestResponsibilities:
    def test_single_class(self):
        prior = GaussianMixturePrior(means=[[0.0, 0.0]], variances=[1.0, 1.0],
                                     mixing=[1.0])
        np.testing.assert_allclose(responsibilities_batch(prior, [[3.0, -1.0]], 0.5),
                                   [[1.0]])

    def test_symmetric_classes_split_evenly(self):
        prior = GaussianMixturePrior(means=[[-1.0], [1.0]], variances=[1.0],
                                     mixing=[0.5, 0.5])
        theta = responsibilities_batch(prior, [[0.0]], 0.3)
        np.testing.assert_allclose(theta, [[0.5, 0.5]], atol=1e-12)

    def test_against_direct_density_oracle(self):
        # direct Bayes evaluation with plain python floats, no log tricks
        rng = np.random.default_rng(9)
        prior = random_prior(rng)
        svar = 0.7
        X = rng.normal(0.0, 2.0, (20, prior.feature_dim))
        theta = responsibilities_batch(prior, X, svar)
        for x, row in zip(X, theta):
            weights = []
            for l in range(prior.num_classes):
                dens = 1.0
                for m in range(prior.feature_dim):
                    v = prior.variances[m] + svar
                    d = x[m] - prior.means[l, m]
                    dens *= math.exp(-0.5 * d * d / v) / math.sqrt(2 * math.pi * v)
                weights.append(prior.mixing[l] * dens)
            oracle = np.array(weights) / sum(weights)
            np.testing.assert_allclose(row, oracle, atol=1e-10)

    def test_sums_to_one_for_extreme_inputs(self):
        rng = np.random.default_rng(2)
        prior = random_prior(rng)
        X = rng.normal(0.0, 50.0, (200, prior.feature_dim))
        theta = responsibilities_batch(prior, X, 0.0)
        assert np.all(theta >= 0)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-12)

    def test_large_sensing_var_recovers_mixing(self):
        rng = np.random.default_rng(3)
        prior = random_prior(rng)
        theta = responsibilities_batch(prior, rng.normal(size=(3, prior.feature_dim)), 1e12)
        np.testing.assert_allclose(theta, np.tile(prior.mixing, (3, 1)), atol=1e-4)

    def test_nan_input_rejected(self):
        prior = random_prior(np.random.default_rng(0))
        with pytest.raises(ValidationError):
            responsibilities_batch(prior, [[np.nan, 0.0, 0.0, 0.0]], 1.0)

    def test_negative_sensing_var_rejected(self):
        prior = random_prior(np.random.default_rng(0))
        with pytest.raises(ValidationError):
            responsibilities_batch(prior, np.zeros((1, 4)), -1.0)


class TestPairwiseMd:
    def test_same_class_is_zero(self):
        prior = random_prior(np.random.default_rng(1))
        assert pairwise_md(prior, 2, 2) == 0.0

    def test_scalar_example(self):
        prior = GaussianMixturePrior(means=[[0.0], [2.0]], variances=[4.0],
                                     mixing=[0.5, 0.5])
        assert pairwise_md(prior, 1, 2) == pytest.approx(1.0)

    def test_matches_symmetric_kl_oracle(self):
        # KL(p||q) for diagonal Gaussians sharing the covariance reduces
        # to 0.5 * sum (mu_p - mu_q)^2 / var; the symmetric sum doubles it
        rng = np.random.default_rng(4)
        prior = random_prior(rng)
        for l in range(1, prior.num_classes + 1):
            for l2 in range(1, prior.num_classes + 1):
                kl = 0.0
                for m in range(prior.feature_dim):
                    d = prior.means[l - 1, m] - prior.means[l2 - 1, m]
                    kl += 0.5 * d * d / prior.variances[m]
                np.testing.assert_allclose(pairwise_md(prior, l, l2), 2 * kl,
                                           rtol=1e-10)

    def test_symmetry_and_vanishing(self):
        rng = np.random.default_rng(6)
        prior = random_prior(rng)
        assert pairwise_md(prior, 1, 3) == pairwise_md(prior, 3, 1)
        dup = GaussianMixturePrior(means=[[1.0, 2.0], [1.0, 2.0]],
                                   variances=[1.0, 1.0], mixing=[0.5, 0.5])
        assert pairwise_md(dup, 1, 2) == 0.0

    def test_bad_index_rejected(self):
        prior = random_prior(np.random.default_rng(0))
        with pytest.raises(ValidationError):
            pairwise_md(prior, 0, 1)
        with pytest.raises(ValidationError):
            pairwise_md(prior, 1, 6)


class TestMinMd:
    def test_two_classes(self):
        prior = random_prior(np.random.default_rng(7), num_classes=2)
        value, pair = min_md(prior)
        assert pair == (1, 2)
        assert value == pytest.approx(pairwise_md(prior, 1, 2))

    def test_collinear_equally_spaced(self):
        prior = GaussianMixturePrior(means=[[0.0], [1.0], [2.0]],
                                     variances=[1.0],
                                     mixing=[1 / 3, 1 / 3, 1 / 3])
        value, pair = min_md(prior)
        assert value == pytest.approx(1.0)
        assert pair == (1, 2)  # lexicographic tie-break among adjacent pairs

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(8)
        prior = random_prior(rng)
        best = min(pairwise_md(prior, l, l2)
                   for l in range(1, 6) for l2 in range(l + 1, 6))
        assert min_md(prior)[0] == pytest.approx(best)

    def test_single_class_rejected(self):
        prior = GaussianMixturePrior(means=[[0.0]], variances=[1.0], mixing=[1.0])
        with pytest.raises(ValidationError):
            min_md(prior)


class TestDiscriminativePrior:
    def test_two_classes_exact(self):
        prior = random_prior(np.random.default_rng(9), num_classes=2)
        delta = discriminative_prior(prior).delta
        np.testing.assert_allclose(
            delta, (prior.means[0] - prior.means[1]) ** 2)

    def test_duplicated_class_gives_zero(self):
        means = np.array([[1.0, -2.0], [3.0, 0.5], [1.0, -2.0]])
        prior = GaussianMixturePrior(means=means, variances=[1.0, 1.0],
                                     mixing=[1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_array_equal(discriminative_prior(prior).delta, 0.0)

    def test_matches_per_dimension_enumeration(self):
        rng = np.random.default_rng(10)
        prior = random_prior(rng)
        expected = np.full(prior.feature_dim, np.inf)
        for l in range(prior.num_classes):
            for l2 in range(l + 1, prior.num_classes):
                expected = np.minimum(
                    expected, (prior.means[l] - prior.means[l2]) ** 2)
        np.testing.assert_allclose(discriminative_prior(prior).delta, expected)

    def test_single_class_rejected(self):
        prior = GaussianMixturePrior(means=[[0.0]], variances=[1.0], mixing=[1.0])
        with pytest.raises(ValidationError):
            discriminative_prior(prior)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError):
            DiscriminativePrior(delta=[-1.0], min_pair=(1, 2))


class TestMapClassify:
    def test_class_mean_maps_to_its_class(self):
        prior = GaussianMixturePrior(
            means=np.eye(4) * 10.0, variances=np.ones(4),
            mixing=np.full(4, 0.25))
        np.testing.assert_array_equal(map_classify_batch(prior, prior.means), [1, 2, 3, 4])

    def test_prior_breaks_likelihood_tie(self):
        prior = GaussianMixturePrior(means=[[-1.0], [1.0]], variances=[1.0],
                                     mixing=[0.7, 0.3])
        np.testing.assert_array_equal(map_classify_batch(prior, [[0.0]]), [1])

    def test_agrees_with_posterior_oracle(self):
        rng = np.random.default_rng(11)
        prior = random_prior(rng)
        X = rng.normal(0.0, 3.0, (10_000, prior.feature_dim))
        preds = map_classify_batch(prior, X)
        theta = responsibilities_batch(prior, X, 0.0)
        np.testing.assert_array_equal(preds, np.argmax(theta, axis=1) + 1)

    def test_nan_rejected(self):
        prior = random_prior(np.random.default_rng(0))
        with pytest.raises(ValidationError):
            map_classify_batch(prior, [[np.nan, 0.0, 0.0, 0.0]])


class TestImmutability:
    def test_prior_arrays_are_write_locked(self):
        prior = random_prior(np.random.default_rng(23))
        with pytest.raises(ValueError):
            prior.means[0, 0] = 5.0
        with pytest.raises(ValueError):
            prior.variances[0] = 2.0
        with pytest.raises(ValueError):
            prior.mixing[0] = 0.9
