"""Multiple-access transmission and receiver aggregation model.

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

import csv
from dataclasses import dataclass

import numpy as np

from .prior import DiscriminativePrior
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
class ChannelRealization:
    """Nonnegative channel magnitudes per device and slot/subcarrier.

    For TDM all columns must be identical (slow fading within the frame).
    """

    gains: np.ndarray
    noise_var: float
    scheme: str

    def __post_init__(self):
        gains = as_matrix(self.gains, "gains")
        check_finite(gains, "gains")
        if np.any(gains < 0):
            raise ValidationError("gains must be nonnegative")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not np.isfinite(self.noise_var) or self.noise_var < 0:
            raise ValidationError(f"noise_var must be >= 0, got {self.noise_var}")
        if self.scheme == "tdm" and gains.shape[1] > 1:
            if np.any(np.abs(gains - gains[:, :1]) > 1e-12):
                raise ValidationError("TDM gains must be constant across slots")
        gains.setflags(write=False)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "noise_var", float(self.noise_var))

    @property
    def num_devices(self) -> int:
        return self.gains.shape[0]

    @property
    def num_slots(self) -> int:
        return self.gains.shape[1]


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


@dataclass(frozen=True)
class ProxyBound:
    """Inputs of the accuracy lower bound: noise-free accuracy a0 in [0, 1]
    and the classification margin (must be positive)."""

    a0: float
    margin: float

    def __post_init__(self):
        if not 0.0 <= self.a0 <= 1.0:
            raise ValidationError(f"a0 must lie in [0, 1], got {self.a0}")
        if not np.isfinite(self.margin) or self.margin <= 0:
            raise ValidationError(f"margin must be > 0, got {self.margin}")


@dataclass(frozen=True)
class AggregatedFeature:
    """Aggregated receive vector and the ideal (noise-free) device average."""

    y_hat: np.ndarray
    y_ideal: np.ndarray

    def __post_init__(self):
        y_hat = as_vector(self.y_hat, "y_hat")
        y_ideal = as_vector(self.y_ideal, "y_ideal", length=y_hat.shape[0])
        check_finite(y_hat, "y_hat")
        check_finite(y_ideal, "y_ideal")
        y_hat.setflags(write=False)
        y_ideal.setflags(write=False)
        object.__setattr__(self, "y_hat", y_hat)
        object.__setattr__(self, "y_ideal", y_ideal)


def _estimates_matrix(estimates) -> np.ndarray:
    if isinstance(estimates, np.ndarray):
        X = np.atleast_2d(estimates)
    else:
        if len(estimates) == 0:
            raise ValidationError("need at least one estimate")
        rows = [e.x_hat if hasattr(e, "x_hat") else np.asarray(e, dtype=np.float64)
                for e in estimates]
        dims = {r.shape[0] for r in rows}
        if len(dims) != 1:
            raise ValidationError(f"estimate dimensions differ: {sorted(dims)}")
        X = np.vstack(rows)
    return X


def ideal_average(estimates) -> np.ndarray:
    """Elementwise arithmetic mean of the device estimates."""
    X = _estimates_matrix(estimates)
    return X.mean(axis=0)


def _design_columns(design, channel):
    """tx (K, S) and rx (S,) for the S slots/subcarriers of the channel; a
    TDM design stored with one column repeats across the frame."""
    S = channel.num_slots
    if design.tx.shape[1] == S:
        return design.tx, design.rx
    if design.scheme == "tdm" and design.tx.shape[1] == 1:
        return np.repeat(design.tx, S, axis=1), np.repeat(design.rx, S)
    raise ValidationError(
        f"design has {design.tx.shape[1]} columns but channel has {S}"
    )


def transmit_aggregate(estimates, channel: ChannelRealization,
                       design: TransceiverDesign, seed) -> AggregatedFeature:
    """Simulate one frame: per slot/subcarrier n,
    y_hat[n] = a_n * (sum_k h_kn b_kn xhat_kn) + a_n * w_n
    with w_n ~ N(0, noise_var).  Feature element m rides slot n = m.
    """
    X = _estimates_matrix(estimates)
    K, M = X.shape
    if K != channel.num_devices:
        raise ValidationError(
            f"{K} estimates but channel has {channel.num_devices} devices"
        )
    if M > channel.num_slots:
        raise ValidationError(
            f"feature dim {M} exceeds {channel.num_slots} slots/subcarriers"
        )
    design.check_feasible()
    tx, rx = _design_columns(design, channel)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(M) * np.sqrt(channel.noise_var)
    hb = channel.gains[:, :M] * tx[:, :M]
    y_hat = rx[:M] * (np.sum(hb * X, axis=0) + w)
    return AggregatedFeature(y_hat=y_hat, y_ideal=X.mean(axis=0))


def effective_gains(channel: ChannelRealization, design: TransceiverDesign) -> np.ndarray:
    """Per-slot aggregate gain g_n = a_n * sum_k h_kn b_kn.  Dividing the
    aggregated signal by g_n yields an unbiased convex combination of the
    device estimates (g_n equals K under exact unit-target alignment)."""
    tx, rx = _design_columns(design, channel)
    return rx * np.sum(channel.gains * tx, axis=0)


def analytic_mse(channel: ChannelRealization, design: TransceiverDesign,
                 sigma_hat) -> np.ndarray:
    """Per-slot statistical aggregation error
    MSE_n = sum_k (a_n h_kn b_kn - 1)^2 shat_kn^2 + a_n^2 noise_var."""
    K, N = channel.num_devices, channel.num_slots
    sh = as_matrix(sigma_hat, "sigma_hat", shape=(K, N))
    design.check_feasible()
    tx, rx = _design_columns(design, channel)
    # each slot as a one-subcarrier instance of its own
    return mse_at_rx(channel.gains.T[:, :, None], tx.T[:, :, None], rx[:, None],
                     sh.T[:, :, None], channel.noise_var)


def received_md(channel: ChannelRealization, design: TransceiverDesign,
                sigma_hat, delta) -> np.ndarray:
    """Minimum inter-class Mahalanobis distance of each received feature:
    |sum_k h b|^2 * delta_n / (sum_k (h b)^2 shat^2 + noise_var).
    Independent of the receive coefficients."""
    K, N = channel.num_devices, channel.num_slots
    sh = as_matrix(sigma_hat, "sigma_hat", shape=(K, N))
    if isinstance(delta, DiscriminativePrior):
        delta = delta.delta
    delta = as_vector(delta, "delta", length=N)
    tx, _ = _design_columns(design, channel)
    return md_received(channel.gains, tx, sh, channel.noise_var, delta)


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


def _signal_noise(hb, est_vars, noise):
    """sum_k (h b)^2 shat^2 + noise.  Callers evaluate it before any other
    per-subcarrier sum, so that no (..., N) array is alive while its
    (..., K, N) temporaries set the peak memory of a large batch."""
    return np.sum(hb * hb * est_vars, axis=-2) + noise


def receive_rule(gains, tx, est_vars, noise):
    """MSE-minimizing receive coefficient for fixed transmit magnitudes:
    a_n = sum_k h b shat^2 / (sum_k (h b)^2 shat^2 + noise)."""
    hb = gains * tx
    den = _signal_noise(hb, est_vars, noise)
    return _ratio(np.sum(hb * est_vars, axis=-2), den)


def mse_at_rx(gains, tx, rx, est_vars, noise):
    """Aggregation MSE summed over devices and subcarriers at the receive
    coefficients rx: sum_kn (a_n h b - 1)^2 shat^2 + sum_n a_n^2 noise."""
    misalign = rx[..., None, :] * gains * tx - 1.0
    return np.sum(misalign * misalign * est_vars, axis=(-2, -1)) \
        + np.sum(rx * rx, axis=-1) * noise


def mse_min_rx(gains, tx, est_vars, noise):
    """Aggregation MSE per subcarrier under the receive rule:
    sum_k shat^2 - (sum_k h b shat^2)^2 / (sum_k (h b)^2 shat^2 + noise)."""
    hb = gains * tx
    den = _signal_noise(hb, est_vars, noise)
    return np.sum(est_vars, axis=-2) - _ratio(np.sum(hb * est_vars, axis=-2) ** 2, den)


def md_received(gains, tx, est_vars, noise, delta):
    """Received minimum inter-class Mahalanobis distance per subcarrier:
    delta_n (sum_k h b)^2 / (sum_k (h b)^2 shat^2 + noise)."""
    hb = gains * tx
    den = _signal_noise(hb, est_vars, noise)
    return _ratio(delta * np.sum(hb, axis=-2) ** 2, den)


def markov_bound(bound: ProxyBound, total_mse) -> float:
    """Accuracy lower bound a0 * max(0, 1 - total_mse / margin^2)."""
    if total_mse < 0:
        raise ValidationError(f"total_mse must be >= 0, got {total_mse}")
    return bound.a0 * max(0.0, 1.0 - total_mse / bound.margin ** 2)


def sample_channel(num_devices: int, num_slots: int, scheme: str, *,
                   scale: float = 1.0, noise_var: float = 0.1,
                   seed=None) -> ChannelRealization:
    """Rayleigh-magnitude channel draw with E[gain^2] = scale.

    TDM replicates one per-device draw across all slots; FDM draws every
    subcarrier independently.  Deterministic per seed.
    """
    if num_devices < 1 or num_slots < 1:
        raise ValidationError("num_devices and num_slots must be >= 1")
    if scale <= 0:
        raise ValidationError(f"scale must be > 0, got {scale}")
    rng = np.random.default_rng(seed)
    sigma_r = np.sqrt(scale / 2.0)
    if scheme == "tdm":
        col = rng.rayleigh(scale=sigma_r, size=(num_devices, 1))
        gains = np.tile(col, (1, num_slots))
    elif scheme == "fdm":
        gains = rng.rayleigh(scale=sigma_r, size=(num_devices, num_slots))
    else:
        raise ValidationError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return ChannelRealization(gains=gains, noise_var=noise_var, scheme=scheme)


def comm_snr(profile, channel: ChannelRealization) -> float:
    """Communication SNR in dB: 10*log10(P_k / noise_var)."""
    budget = profile.power_budget if hasattr(profile, "power_budget") else float(profile)
    if channel.noise_var <= 0:
        raise ValidationError("comm_snr undefined for zero noise power")
    return float(10.0 * np.log10(budget / channel.noise_var))


def export_channel_csv(channel: ChannelRealization, path) -> None:
    """Rows `device, slot, gain` (1-based indices)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["device", "slot", "gain"])
        for k in range(channel.num_devices):
            for n in range(channel.num_slots):
                writer.writerow([k + 1, n + 1, repr(float(channel.gains[k, n]))])


def export_design_csv(design: TransceiverDesign, path) -> None:
    """Transmit rows `tx, device, slot, value` then receive rows
    `rx, slot, value` (1-based indices)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "device", "slot", "value"])
        K, N = design.tx.shape
        for k in range(K):
            for n in range(N):
                writer.writerow(["tx", k + 1, n + 1, repr(float(design.tx[k, n]))])
        for n in range(N):
            writer.writerow(["rx", "", n + 1, repr(float(design.rx[n]))])
