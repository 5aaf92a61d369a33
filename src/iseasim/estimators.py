"""Sensing observation model and the three local feature estimators, on
batches of observations.

Each device observes the true feature through additive Gaussian noise
(`observe_batch`) and produces a local estimate before transmission
(`estimate_batch`):

* ml   -- identity on the observation; posterior variance sigma_k^2.
* mmse -- per-element shrinkage toward the true class mean (oracle-label
          estimator; the label is unknown at a real device, so this path
          exists only to trace the lower bound).
* rwb  -- responsibility-weighted mixture of the per-class shrinkage
          estimates; computable without the label.

Each estimate comes with its per-element posterior variance under the
estimator's moment-matched Gaussian model; transceiver design consumes
the average of those variances over a calibration set.

The rwb kernel, like the class scores in `prior`, works class-major: on
(L, M, n) arrays with the row axis innermost, so each ufunc's inner loop
runs over the n rows instead of the M features.
"""

from __future__ import annotations

import numpy as np

from .prior import responsibilities_batch
from .sums import ordered_sum
from .validation import ValidationError

ESTIMATOR_TAGS = ("ml", "mmse", "rwb")


def observe_batch(X, sensing_var, seed):
    """Add i.i.d. zero-mean Gaussian noise of the given variance to each
    entry of X.  Deterministic per seed."""
    if sensing_var < 0:
        raise ValidationError(f"sensing_var must be >= 0, got {sensing_var}")
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(seed)
    return X + rng.standard_normal(X.shape) * np.sqrt(sensing_var)


def _mmse_shrink(prior, X_tilde, labels, sensing_var):
    """Per-element posterior mean given the true label:
    (v_m * x~ + s_k * mu) / (v_m + s_k)."""
    v = prior.variances
    mu = prior.means[np.asarray(labels, dtype=np.int64) - 1]
    return (v * X_tilde + sensing_var * mu) / (v + sensing_var)


def mmse_posterior_var(prior, sensing_var):
    """Per-element posterior variance v_m * s_k / (v_m + s_k)."""
    v = prior.variances
    if sensing_var == 0:
        return np.zeros_like(v)
    return v * sensing_var / (v + sensing_var)


def rwb_estimate_batch(prior, X_tilde, sensing_var):
    """Responsibility-weighted Bayesian estimates for rows of X_tilde, with
    the responsibilities computed under the true sensing variance.

    Returns (X_hat, posterior_var), each of shape (n, M): the transposed
    views of class-major (M, n) results.
    """
    X_tilde = np.atleast_2d(np.asarray(X_tilde, dtype=np.float64))
    theta = responsibilities_batch(prior, X_tilde, sensing_var).T[:, None, :]  # (L, 1, n)
    v = prior.variances
    s = sensing_var
    shrink = v / (v + s)                                  # (M,)
    bar_mu = (shrink[:, None] * X_tilde.T.copy())[None, :, :] \
        + ((1.0 - shrink) * prior.means)[:, :, None]      # (L, M, n)
    weighted = theta * bar_mu
    x_hat = ordered_sum(weighted, 0)                      # (M, n)
    bar_var = mmse_posterior_var(prior, s)
    # In place, reusing the two (L, M, n) arrays, as in prior._log_scores.
    spread = np.subtract(bar_mu, x_hat[None, :, :], out=bar_mu)
    np.multiply(theta, spread, out=weighted)
    weighted *= spread
    post_var = bar_var[:, None] + ordered_sum(weighted, 0)
    return x_hat.T, post_var.T


def estimate_batch(tag, prior, X_tilde, sensing_var, labels=None):
    """Vectorized estimator dispatch; returns (X_hat, posterior_var)."""
    if tag not in ESTIMATOR_TAGS:
        raise ValidationError(f"unknown estimator tag {tag!r}")
    X_tilde = np.atleast_2d(np.asarray(X_tilde, dtype=np.float64))
    n, M = X_tilde.shape
    if tag == "ml":
        return X_tilde, np.full((n, M), float(sensing_var))
    if tag == "mmse":
        if labels is None:
            raise ValidationError("mmse estimator requires true labels")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size and (labels.min() < 1 or labels.max() > prior.num_classes):
            raise ValidationError(f"labels must lie in 1..{prior.num_classes}")
        x_hat = _mmse_shrink(prior, X_tilde, labels, sensing_var)
        pv = np.broadcast_to(mmse_posterior_var(prior, sensing_var), (n, M)).copy()
        return x_hat, pv
    return rwb_estimate_batch(prior, X_tilde, sensing_var)
