"""Over-the-air aggregation model: the transceiver design and the batched
kernels of the receive rule, the aggregation MSE and the received
Mahalanobis distance.  The aggregated receive vector of each trial is
formed in `pipeline.run_trials_batch`, per sweep point of a chunk of
trials.

Real nonnegative signal model: device phases are assumed pre-compensated
through TDD reciprocity, so only the magnitudes of channel gains and
transmit/receive coefficients enter.  Under TDM every slot sees the same
quasi-static gain; under FDM each subcarrier fades independently.

The analytic aggregation error uses unit per-device target coefficients,
    MSE_n = sum_k |a_n h_kn b_kn - 1|^2 shat_kn^2 + |a_n|^2 noise_var,
i.e. the aggregated signal approximates the plain sum of device estimates;
the arithmetic mean is recovered at decode time by dividing out the known
aggregate gain.
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

SCHEMES = ("tdm", "fdm")

# Relative slack tolerated when checking per-device power use.
POWER_SLACK = 1e-9


@dataclass(frozen=True)
class TransceiverDesign:
    """Transmit magnitudes tx (K, N), receive magnitudes rx (N,), plus the
    feasibility metadata (per-device budgets and second moments) needed to
    verify the power constraint.

    FDM budgets cover the sum over subcarriers; TDM budgets apply per slot
    (the per-slot problem repeats across the quasi-static frame, so a TDM
    design is stored with a single column).
    """

    tx: np.ndarray
    rx: np.ndarray
    scheme: str
    power_budgets: np.ndarray
    moments: np.ndarray

    def __post_init__(self):
        tx = as_matrix(self.tx, "tx")
        K, N = tx.shape
        rx = as_vector(self.rx, "rx", length=N)
        budgets = as_vector(self.power_budgets, "power_budgets", length=K)
        moments = as_matrix(self.moments, "moments", shape=(K, N))
        for name, arr in (("tx", tx), ("rx", rx), ("power_budgets", budgets),
                          ("moments", moments)):
            check_finite(arr, name)
            if np.any(arr < 0):
                raise ValidationError(f"{name} must be nonnegative")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if np.any(budgets <= 0) or np.any(moments <= 0):
            raise ValidationError("power_budgets and moments must be strictly positive")
        for arr in (tx, rx, budgets, moments):
            arr.setflags(write=False)
        object.__setattr__(self, "tx", tx)
        object.__setattr__(self, "rx", rx)
        object.__setattr__(self, "power_budgets", budgets)
        object.__setattr__(self, "moments", moments)
        self.check_feasible()

    def device_power(self) -> np.ndarray:
        """Power used per device: sum_n tx^2 * moments (FDM), or the
        per-slot maximum (TDM)."""
        use = self.tx * self.tx * self.moments
        if self.scheme == "tdm":
            return use.max(axis=1)
        return use.sum(axis=1)

    def check_feasible(self) -> None:
        used = self.device_power()
        bad = np.nonzero(used > self.power_budgets * (1.0 + POWER_SLACK))[0]
        if bad.size:
            k = int(bad[0])
            raise ValidationError(
                f"device {k + 1} exceeds its power budget: "
                f"{used[k]:.6g} > {self.power_budgets[k]:.6g}"
            )


# ---------------------------------------------------------------------------
# aggregation kernels
#
# Each formula is written once here.  Array arguments carry trailing
# (K, N) axes (devices, subcarriers) after any leading batch axes, and rx
# and delta trailing (N,).  noise broadcasts against the result: (..., N)
# per subcarrier, or the batch shape (...) for the total of mse_at_rx.
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def received(power, num, noise, est_sum=None, delta=None):
    """Per subcarrier, the MSE under the receive rule est_sum - num^2 / den
    (est_sum = sum_k shat^2), or the received MD delta num^2 / den, from the
    device sums power = sum_k (h b)^2 shat^2 and num = sum_k h b shat^2
    (MSE) or sum_k h b (MD), with den = power + noise.  A scalar noise > 0
    keeps den > 0; else the ratio is 0 where den = 0."""
    den = power + noise
    top = num * num if delta is None else delta * (num * num)
    ratio = top / den if np.isscalar(noise) and noise > 0 else _ratio(top, den)
    return ratio if est_sum is None else est_sum - ratio


def receive_rule(gains, tx, est_vars, noise):
    """MSE-minimizing receive coefficient for fixed transmit magnitudes:
    a_n = sum_k h b shat^2 / (sum_k (h b)^2 shat^2 + noise)."""
    hb = gains * tx
    # The denominator first: no (..., N) array lives beside its temporaries.
    den = (hb * hb * est_vars).sum(axis=-2) + noise
    return _ratio((hb * est_vars).sum(axis=-2), den)


def mse_at_rx(gains, tx, rx, est_vars, noise):
    """Aggregation MSE summed over devices and subcarriers at the receive
    coefficients rx: sum_kn (a_n h b - 1)^2 shat^2 + sum_n a_n^2 noise."""
    misalign = rx[..., None, :] * gains * tx - 1.0
    return (misalign * misalign * est_vars).sum(axis=(-2, -1)) \
        + (rx * rx).sum(axis=-1) * noise


def mse_min_rx(gains, tx, est_vars, noise):
    """Aggregation MSE per subcarrier under the receive rule (`received`).
    Each device sum's (..., K, N) temporaries are freed before the next."""
    hb = gains * tx
    return received((hb * hb * est_vars).sum(axis=-2), (hb * est_vars).sum(axis=-2),
                    noise, est_sum=est_vars.sum(axis=-2))


def md_received(gains, tx, est_vars, noise, delta):
    """Received minimum inter-class Mahalanobis distance per subcarrier
    (`received`)."""
    hb = gains * tx
    return received((hb * hb * est_vars).sum(axis=-2), hb.sum(axis=-2), noise,
                    delta=delta)
