"""Conditional entropy of the noise-free aggregated feature under the ML
and MMSE estimator banks.

Both expressions treat a single feature dimension with prior variance
sigma^2; callers loop over dimensions.  Entropies are reported in nats.
"""

from dataclasses import dataclass

import numpy as np

from .validation import ValidationError, as_vector, check_finite, check_real


@dataclass(frozen=True)
class EntropyReport:
    """h_ml / h_mmse in nats plus the per-device shrinkage weights
    rho_k = sigma^2 / (sigma^2 + sigma_k^2) in (0, 1]."""

    h_ml: float
    h_mmse: float
    shrinkage: np.ndarray

    def __post_init__(self):
        shrink = as_vector(self.shrinkage, "shrinkage")
        if np.any(shrink <= 0) or np.any(shrink > 1):
            raise ValidationError("shrinkage weights must lie in (0, 1]")
        if self.h_mmse > self.h_ml + 1e-12:
            raise ValidationError("h_mmse exceeds h_ml beyond tolerance")
        shrink.setflags(write=False)
        object.__setattr__(self, "shrinkage", shrink)


def _check_vars(prior_var, sensing_vars):
    check_real(prior_var, "prior_var", 0, strict=True)
    sv = as_vector(sensing_vars, "sensing_vars")
    check_finite(sv, "sensing_vars")
    if sv.size < 1:
        raise ValidationError("sensing_vars must contain at least one device")
    if np.any(sv <= 0):
        raise ValidationError("sensing_vars must be strictly positive")
    return sv


def cond_entropy_ml(prior_var, sensing_vars) -> float:
    """0.5 * log(2*pi*e * [1/sigma^2 + K^2 / sum_k sigma_k^2]^-1)."""
    sv = _check_vars(prior_var, sensing_vars)
    K = sv.size
    precision = 1.0 / prior_var + K * K / np.sum(sv)
    return float(0.5 * np.log(2.0 * np.pi * np.e / precision))


def cond_entropy_mmse(prior_var, sensing_vars) -> float:
    """Same form with the effective precision of shrinkage-weighted
    averaging: (sum_k rho_k)^2 / sum_k rho_k^2 sigma_k^2,
    rho_k = sigma^2 / (sigma^2 + sigma_k^2)."""
    sv = _check_vars(prior_var, sensing_vars)
    rho = prior_var / (prior_var + sv)
    precision = 1.0 / prior_var + np.sum(rho) ** 2 / np.sum(rho * rho * sv)
    return float(0.5 * np.log(2.0 * np.pi * np.e / precision))


def entropy_report(prior_var, sensing_vars, name="sensing_vars") -> EntropyReport:
    """Both entropies; a ValidationError naming prior_var and the profile
    (`name`) when either is not finite, as when 1/prior_var overflows."""
    sv = _check_vars(prior_var, sensing_vars)
    with np.errstate(all="ignore"):
        h_ml, h_mmse = cond_entropy_ml(prior_var, sv), cond_entropy_mmse(prior_var, sv)
    if not (np.isfinite(h_ml) and np.isfinite(h_mmse)):
        raise ValidationError(
            f"prior_var {prior_var!r} and {name} {sv.tolist()} give non-finite "
            f"entropies: h_ml {h_ml!r}, h_mmse {h_mmse!r}")
    return EntropyReport(h_ml=h_ml, h_mmse=h_mmse, shrinkage=prior_var / (prior_var + sv))
