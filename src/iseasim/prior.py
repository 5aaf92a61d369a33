"""Gaussian-mixture feature prior: sampling, responsibilities, Mahalanobis
distances and the posterior-optimal classifier.

The feature vector of a labeled target is modeled as a mixture of L
class-conditional Gaussians sharing one diagonal covariance.  Class labels
are 1-based throughout (1..L), matching the confusion-count CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import (
    ValidationError,
    as_matrix,
    as_vector,
    check_finite,
)

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GaussianMixturePrior:
    """Mixture of L Gaussians over an M-dimensional feature space.

    means    : (L, M) class mean matrix
    variances: (M,) shared diagonal covariance entries, strictly positive
    mixing   : (L,) mixing coefficients, nonnegative, summing to 1
    """

    means: np.ndarray
    variances: np.ndarray
    mixing: np.ndarray

    def __post_init__(self):
        means = as_matrix(self.means, "means")
        L, M = means.shape
        if L < 1 or M < 1:
            raise ValidationError("means must have at least one row and column")
        variances = as_vector(self.variances, "variances", length=M)
        mixing = as_vector(self.mixing, "mixing", length=L)
        check_finite(means, "means")
        check_finite(variances, "variances")
        check_finite(mixing, "mixing")
        if np.any(variances <= 0):
            raise ValidationError("variances must be strictly positive")
        if np.any(mixing < 0):
            raise ValidationError("mixing coefficients must be nonnegative")
        if abs(mixing.sum() - 1.0) > 1e-12:
            raise ValidationError(
                f"mixing coefficients must sum to 1 within 1e-12, got {mixing.sum()!r}"
            )
        means.setflags(write=False)
        variances.setflags(write=False)
        mixing.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "mixing", mixing)

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class DiscriminativePrior:
    """Per-dimension minimum squared class-mean gaps.

    delta[m] is the minimum of (mu[l, m] - mu[l2, m])**2 over all class
    pairs, taken independently per dimension.  min_pair is the (1-based)
    class pair attaining the smallest full Mahalanobis distance.
    """

    delta: np.ndarray
    min_pair: tuple

    def __post_init__(self):
        delta = as_vector(self.delta, "delta")
        check_finite(delta, "delta")
        if np.any(delta < 0):
            raise ValidationError("delta entries must be nonnegative")
        delta.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "min_pair", (int(self.min_pair[0]), int(self.min_pair[1])))


def _check_label(prior: GaussianMixturePrior, label: int, name="label") -> int:
    label = int(label)
    if not 1 <= label <= prior.num_classes:
        raise ValidationError(
            f"{name} must be in 1..{prior.num_classes}, got {label}"
        )
    return label


def sample_arrays(prior: GaussianMixturePrior, count: int, seed) -> tuple:
    """Draw `count` labeled features; returns (labels (n,), X (n, M)).

    Labels are i.i.d. from the mixing coefficients; conditioned on the
    label, features are Gaussian around the class mean with the shared
    diagonal covariance.  Deterministic for a fixed seed.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    L, M = prior.num_classes, prior.feature_dim
    labels = rng.choice(L, size=count, p=prior.mixing) + 1
    noise = rng.standard_normal((count, M))
    X = prior.means[labels - 1] + noise * np.sqrt(prior.variances)
    return labels, X


def log_responsibilities_batch(prior, X, sensing_var):
    """Log posterior class probabilities for rows of X under noisy features.

    Row i of the result holds log p(class | X[i]) when X[i] is the true
    feature plus isotropic Gaussian noise of variance `sensing_var`.
    Normalization uses log-sum-exp so extreme inputs cannot underflow.
    """
    if sensing_var < 0:
        raise ValidationError(f"sensing_var must be >= 0, got {sensing_var}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != prior.feature_dim:
        raise ValidationError(
            f"observation length {X.shape[1]} != feature_dim {prior.feature_dim}"
        )
    check_finite(X, "observation")
    total_var = prior.variances + sensing_var
    # (n, L): log pi_l - 0.5 * sum_m [log(2 pi v_m) + (x_m - mu_lm)^2 / v_m]
    diff = X[:, None, :] - prior.means[None, :, :]
    quad = np.sum(diff * diff / total_var, axis=2)
    log_norm = 0.5 * np.sum(LOG_2PI + np.log(total_var))
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior.mixing)
    logits = log_prior[None, :] - 0.5 * quad - log_norm
    peak = logits.max(axis=1, keepdims=True)
    shifted = logits - peak
    lse = peak + np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    return logits - lse


def responsibilities_batch(prior, X, sensing_var):
    """Posterior class probabilities (n, L) for rows of X; see
    log_responsibilities_batch."""
    out = np.exp(log_responsibilities_batch(prior, X, sensing_var))
    # Exact renormalization: the rows already sum to 1 up to rounding.
    out /= out.sum(axis=-1, keepdims=True)
    return out


def pairwise_md(prior: GaussianMixturePrior, l: int, l2: int) -> float:
    """Mahalanobis distance between two class means.

    Equals the symmetric KL divergence of the two class-conditional
    Gaussians: sum_m (mu[l,m] - mu[l2,m])^2 / variance[m].
    """
    l = _check_label(prior, l, "l")
    l2 = _check_label(prior, l2, "l2")
    diff = prior.means[l - 1] - prior.means[l2 - 1]
    return float(np.sum(diff * diff / prior.variances))


def min_md(prior: GaussianMixturePrior) -> tuple:
    """Minimum inter-class Mahalanobis distance and an attaining pair.

    Ties break toward the lexicographically smallest (l, l2) pair.
    Requires at least two classes.
    """
    L = prior.num_classes
    if L < 2:
        raise ValidationError("min_md requires at least two classes")
    best = None
    best_pair = None
    for l in range(1, L + 1):
        for l2 in range(l + 1, L + 1):
            g = pairwise_md(prior, l, l2)
            if best is None or g < best:
                best = g
                best_pair = (l, l2)
    return best, best_pair


def discriminative_prior(prior: GaussianMixturePrior) -> DiscriminativePrior:
    """Per-dimension minimum squared mean gap over all class pairs."""
    L = prior.num_classes
    if L < 2:
        raise ValidationError("discriminative_prior requires at least two classes")
    gaps = prior.means[:, None, :] - prior.means[None, :, :]
    sq = gaps * gaps
    iu = np.triu_indices(L, k=1)
    delta = sq[iu].min(axis=0)
    _, pair = min_md(prior)
    return DiscriminativePrior(delta=delta, min_pair=pair)


def map_classify_batch(prior, X):
    """Posterior-mode class indices (1-based) for rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != prior.feature_dim:
        raise ValidationError(
            f"input length {X.shape[1]} != feature_dim {prior.feature_dim}"
        )
    check_finite(X, "input")
    diff = X[:, None, :] - prior.means[None, :, :]
    quad = np.sum(diff * diff / prior.variances, axis=2)
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior.mixing)
    scores = log_prior[None, :] - 0.5 * quad
    # np.argmax returns the first maximizer, i.e. the smallest class index.
    return np.argmax(scores, axis=1) + 1


def map_classify_masked(prior, X, observed):
    """Posterior-mode classes using only the observed feature dimensions.

    observed is a boolean array matching X; masked-out dimensions are
    marginalized from the class-conditional likelihood (a row with no
    observed dimension falls back to the mixing-coefficient argmax).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    observed = np.atleast_2d(np.asarray(observed, dtype=bool))
    if X.shape != observed.shape or X.shape[1] != prior.feature_dim:
        raise ValidationError("X and observed must both be (n, feature_dim)")
    check_finite(np.where(observed, X, 0.0), "input")
    diff = X[:, None, :] - prior.means[None, :, :]
    quad = np.sum(observed[:, None, :] * diff * diff / prior.variances, axis=2)
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior.mixing)
    return np.argmax(log_prior[None, :] - 0.5 * quad, axis=1) + 1
