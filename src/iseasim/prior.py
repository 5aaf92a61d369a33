"""Gaussian-mixture feature prior: sampling, responsibilities, Mahalanobis
distances, the discriminative prior and the posterior-optimal classifier.

The feature vector of a labeled target is modeled as a mixture of L
class-conditional Gaussians sharing one diagonal covariance.  Class labels
are 1-based throughout (1..L), matching the confusion-count CSV.  One
class-score kernel serves the responsibilities and both classifiers; one
class-pair kernel serves min_md and the discriminative prior, an array.
The class-score kernel runs class-major, with the row axis innermost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sums import ordered_sum
from .validation import ValidationError, as_matrix, as_vector, check_finite

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
    u = rng.random(count)
    return labelled_features(prior, u, rng.standard_normal((count, prior.feature_dim)))


def labelled_features(prior: GaussianMixturePrior, u, z) -> tuple:
    """(labels (n,), X (n, M)) from n uniforms u and (n, M) standard
    normals z.  Each label is located in the normalized cumulative mixing
    weights as `Generator.choice(L, p=mixing)` locates its uniform, so a
    zero-weight class is never drawn; its feature is the class mean plus
    z scaled by the shared standard deviations."""
    cdf = prior.mixing.cumsum()
    cdf /= cdf[-1]
    labels = cdf.searchsorted(u, side="right") + 1
    return labels, prior.means[labels - 1] + z * np.sqrt(prior.variances)


def _rows(prior, X, what, observed=None):
    """X as (n, feature_dim) float rows, finite wherever the boolean mask
    `observed` (matching X; None observes all) is True."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if observed is None:
        if X.shape[1] != prior.feature_dim:
            raise ValidationError(
                f"{what} length {X.shape[1]} != feature_dim {prior.feature_dim}")
        return check_finite(X, what)
    if X.shape != observed.shape or X.shape[1] != prior.feature_dim:
        raise ValidationError("X and observed must both be (n, feature_dim)")
    check_finite(np.where(observed, X, 0.0), what)
    return X


def _log_scores(prior, X, var, observed=None):
    """(L, n) class scores log pi_l - 0.5 sum_m (x_m - mu_lm)^2 / var_m of
    checked rows X (n, M), the sum running over the observed dimensions
    only when a mask is given.  A zero mixing coefficient scores -inf.

    The work runs class-major, on (L, M, n) arrays with the row axis
    innermost, so every ufunc's inner loop runs over all n rows rather
    than over the M features."""
    diff = X.T.copy()[None, :, :] - prior.means[:, :, None]
    if observed is not None:
        # where, not a product: 0 * inf in an unobserved dimension is nan
        diff = np.where(observed.T.copy()[None, :, :], diff, 0.0)
    # In place: numpy checks a large temporary operand for reuse with a
    # stack walk that costs more than the operation.
    terms = np.multiply(diff, diff, out=diff)
    terms /= var[:, None]
    quad = ordered_sum(terms, 1)
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior.mixing)
    return log_prior[:, None] - 0.5 * quad


def responsibilities_batch(prior, X, sensing_var):
    """Posterior class probabilities (n, L) for rows of X, each the true
    feature plus isotropic Gaussian noise of variance `sensing_var`;
    normalized by log-sum-exp so extreme inputs cannot underflow.  The
    result is the transposed view of a class-major (L, n) array."""
    if sensing_var < 0:
        raise ValidationError(f"sensing_var must be >= 0, got {sensing_var}")
    X = _rows(prior, X, "observation")
    total_var = prior.variances + sensing_var
    logits = _log_scores(prior, X, total_var) - 0.5 * np.sum(LOG_2PI + np.log(total_var))
    peak = logits.max(axis=0)
    lse = peak + np.log(ordered_sum(np.exp(logits - peak), 0))
    out = np.exp(logits - lse)
    # Exact renormalization: the columns already sum to 1 up to rounding.
    out /= ordered_sum(out, 0)
    return out.T


def pairwise_md(prior: GaussianMixturePrior, l: int, l2: int) -> float:
    """Mahalanobis distance between two class means.

    Equals the symmetric KL divergence of the two class-conditional
    Gaussians: sum_m (mu[l,m] - mu[l2,m])^2 / variance[m].
    """
    l = _check_label(prior, l, "l")
    l2 = _check_label(prior, l2, "l2")
    diff = prior.means[l - 1] - prior.means[l2 - 1]
    return float(np.sum(diff * diff / prior.variances))


def _pair_gaps(prior: GaussianMixturePrior, what: str) -> tuple:
    """(first, second, gaps): the 0-based class pairs l < l2 in
    np.triu_indices (lexicographic) order and their (P, M) mean gaps."""
    L = prior.num_classes
    if L < 2:
        raise ValidationError(f"{what} requires at least two classes")
    first, second = np.triu_indices(L, k=1)
    return first, second, prior.means[first] - prior.means[second]


def min_md(prior: GaussianMixturePrior) -> tuple:
    """Minimum inter-class Mahalanobis distance and an attaining pair.

    Ties break toward the lexicographically smallest (l, l2) pair.
    Requires at least two classes.
    """
    first, second, gaps = _pair_gaps(prior, "min_md")
    md = np.sum(gaps * gaps / prior.variances, axis=1)
    # np.argmin returns the first minimizer, i.e. the smallest pair.
    best = int(np.argmin(md))
    return float(md[best]), (int(first[best]) + 1, int(second[best]) + 1)


def discriminative_prior(prior: GaussianMixturePrior) -> np.ndarray:
    """Discriminative prior delta (M,): delta[m] is the minimum of
    (mu[l, m] - mu[l2, m])**2 over all class pairs, taken independently
    per dimension.  Requires at least two classes."""
    _, _, gaps = _pair_gaps(prior, "discriminative_prior")
    return (gaps * gaps).min(axis=0)


def map_classify_batch(prior, X):
    """Posterior-mode class indices (1-based) for rows of X."""
    X = _rows(prior, X, "input")
    # np.argmax returns the first maximizer, i.e. the smallest class index.
    return np.argmax(_log_scores(prior, X, prior.variances), axis=0) + 1


def map_classify_masked(prior, X, observed):
    """Posterior-mode classes using only the observed feature dimensions.

    observed is a boolean array matching X; masked-out dimensions are
    marginalized from the class-conditional likelihood (a row with no
    observed dimension falls back to the mixing-coefficient argmax).
    """
    observed = np.atleast_2d(np.asarray(observed, dtype=bool))
    X = _rows(prior, X, "input", observed)
    return np.argmax(_log_scores(prior, X, prior.variances, observed), axis=0) + 1
