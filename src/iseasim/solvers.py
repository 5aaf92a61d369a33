"""Transceiver power-allocation solvers.

Four designs are provided, matching the two objectives (aggregation MSE,
minimum received inter-class Mahalanobis distance) under the two channel
structures (quasi-static TDM slot, frequency-selective FDM subcarriers):

* tdm_mse_optimal : threshold structure; weak devices transmit full power,
  strong devices invert the channel against a common receive scale.  The
  threshold is found by scanning every candidate prefix of the devices
  sorted by effective link strength u_k = h_k sqrt(P_k) / nu_k.
* tdm_md_optimal  : capped water-filling on c_k = h_k b_k with a common cap;
  segment stationary points tau_j = (sum u^2 + noise_eq) / (sum u) are
  compared exhaustively.  Requires homogeneous per-device estimate
  variances (the closed form does not extend; use brute_force_oracle).
* fdm_mse_dual    : dual decomposition solved as a monotone fixed point:
  from the equal-power split, alternate the MSE-optimal receive rule with
  the exact per-device power-constrained transmit update, whose
  multiplier is found by a fixed-count Newton iteration (the log-domain
  bisection `_bisect_fixed` is kept only as its test reference).
* fdm_md_optimal  : the same scheme on the quadratic-transform auxiliary
  z_n of the received MD.

`solve_batch` runs all six designs -- these four and the two baselines
(equal power, capped channel inversion) -- on a stack of instances; the
single-instance functions are its B=1 case.  The receive rule, MSE and
MD formulas are the kernels of `channel`.

All quantities are real magnitudes.  `moments` fields hold the second
moments nu^2 of the transmitted estimates, `est_vars` the per-device
estimate variances sigma_hat^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    TransceiverDesign,
    md_received,
    mse_at_rx,
    mse_min_rx,
    receive_rule,
)
from .validation import ValidationError, as_matrix, as_vector, check_finite

# Newton steps of the per-device multiplier root (`_DualCore._lambda_for`).
# A fixed count keeps every root bit-identical however instances are
# batched; from its lower-bound start the iteration converges to float64
# precision within 10 steps (8 leave up to ~1e-6 relative error on rare
# instances).
NEWTON_STEPS = 10
# Brackets and halvings of the log-domain bisection `_bisect_fixed`, which
# no solver calls: the tests check the Newton root against it.  64
# halvings of [1e-30, 1e30] pin a root to full float64 precision.
BISECT_ITERS = 64
LOG_LO = -30.0
LOG_HI = 30.0
TINY = 1e-300

# Fixed-point sweeps of the FDM polish (a fixed count keeps results
# batch-invariant) and the KKT residual below which a single-instance
# FDM solve reports convergence.
POLISH_SWEEPS = 120
KKT_TOL = 1e-6

SOLVER_NAMES = ("tdm_mse", "tdm_md", "fdm_mse", "fdm_md", "equal",
                "channel_inversion")
# The closed forms that design one TDM slot (N = 1).
TDM_SOLVERS = ("tdm_mse", "tdm_md")


@dataclass(frozen=True)
class TdmInstance:
    """Per-slot TDM problem data (the slot repeats across the frame).

    gains, budgets, moments (nu^2) and est_vars (sigma_hat^2) are length-K;
    noise_var may be zero; delta is the scalar discriminative prior of the
    transmitted feature element.
    """

    gains: np.ndarray
    budgets: np.ndarray
    moments: np.ndarray
    est_vars: np.ndarray
    noise_var: float
    delta: float = 0.0

    def __post_init__(self):
        gains = as_vector(self.gains, "gains")
        K = gains.shape[0]
        budgets = as_vector(self.budgets, "budgets", length=K)
        moments = as_vector(self.moments, "moments", length=K)
        est_vars = as_vector(self.est_vars, "est_vars", length=K)
        for name, arr in (("gains", gains), ("budgets", budgets),
                          ("moments", moments), ("est_vars", est_vars)):
            check_finite(arr, name)
            if np.any(arr <= 0):
                raise ValidationError(f"{name} must be strictly positive")
        if not np.isfinite(self.noise_var) or self.noise_var < 0:
            raise ValidationError(f"noise_var must be >= 0, got {self.noise_var}")
        if not np.isfinite(self.delta) or self.delta < 0:
            raise ValidationError(f"delta must be >= 0, got {self.delta}")
        for arr in (gains, budgets, moments, est_vars):
            arr.setflags(write=False)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "est_vars", est_vars)
        object.__setattr__(self, "noise_var", float(self.noise_var))
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def num_devices(self) -> int:
        return self.gains.shape[0]


@dataclass(frozen=True)
class FdmInstance:
    """FDM problem data: K devices across N subcarriers with one joint
    power constraint per device."""

    gains: np.ndarray
    budgets: np.ndarray
    moments: np.ndarray
    est_vars: np.ndarray
    noise_var: float
    delta: np.ndarray = None

    def __post_init__(self):
        gains = as_matrix(self.gains, "gains")
        K, N = gains.shape
        budgets = as_vector(self.budgets, "budgets", length=K)
        moments = as_matrix(self.moments, "moments", shape=(K, N))
        est_vars = as_matrix(self.est_vars, "est_vars", shape=(K, N))
        delta = self.delta
        delta = np.zeros(N) if delta is None else as_vector(delta, "delta", length=N)
        for name, arr in (("gains", gains), ("budgets", budgets),
                          ("moments", moments), ("est_vars", est_vars)):
            check_finite(arr, name)
            if np.any(arr <= 0):
                raise ValidationError(f"{name} must be strictly positive")
        check_finite(delta, "delta")
        if np.any(delta < 0):
            raise ValidationError("delta must be nonnegative")
        if not np.isfinite(self.noise_var) or self.noise_var <= 0:
            raise ValidationError(f"noise_var must be > 0, got {self.noise_var}")
        for arr in (gains, budgets, moments, est_vars, delta):
            arr.setflags(write=False)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "est_vars", est_vars)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "noise_var", float(self.noise_var))

    @property
    def num_devices(self) -> int:
        return self.gains.shape[0]

    @property
    def num_subcarriers(self) -> int:
        return self.gains.shape[1]


@dataclass
class SolveReport:
    """Solver outcome: the design, its objective value, iteration count,
    and the KKT residual (for the FDM designs the max of relative power
    overuse, complementary slackness and the fixed-point residual of the
    auxiliary)."""

    design: TransceiverDesign
    objective: float
    iterations: int
    kkt_residual: float
    converged: bool
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "iterations": self.iterations,
            "kkt_residual": self.kkt_residual,
            "converged": self.converged,
            "tx": self.design.tx.tolist(),
            "rx": self.design.rx.tolist(),
            "scheme": self.design.scheme,
            "extras": self.extras,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# shared objective helpers
# ---------------------------------------------------------------------------

def _arrays(inst):
    """Canonical (gains, budgets, moments, est_vars, noise, delta, scheme)
    view with 2-D per-subcarrier arrays for both instance kinds."""
    if isinstance(inst, TdmInstance):
        return (inst.gains[:, None], inst.budgets, inst.moments[:, None],
                inst.est_vars[:, None], inst.noise_var,
                np.array([inst.delta]), "tdm")
    if isinstance(inst, FdmInstance):
        return (inst.gains, inst.budgets, inst.moments, inst.est_vars,
                inst.noise_var, inst.delta, "fdm")
    raise ValidationError(f"unsupported instance type {type(inst).__name__}")


def _stack(inst):
    """The instance as a batch of one: (gains, budgets, moments, est_vars,
    noise, delta) with a leading axis of length 1."""
    g, budgets, moments, sv, noise, delta, _ = _arrays(inst)
    return (g[None], budgets[None], moments[None], sv[None],
            np.array([noise]), delta[None])


def rx_mse_optimal(inst, tx) -> np.ndarray:
    """Per-subcarrier receive coefficient minimizing the aggregation MSE
    for fixed transmit magnitudes:
    a_n = sum |h b| shat^2 / (sum |h b|^2 shat^2 + noise)."""
    g, _, _, sv, noise, _, _ = _arrays(inst)
    return receive_rule(g, np.asarray(tx, dtype=np.float64), sv, noise)


def design_mse(inst, design: TransceiverDesign) -> float:
    """Aggregation MSE of a design at its own receive coefficients."""
    g, _, _, sv, noise, _, _ = _arrays(inst)
    return float(mse_at_rx(g, design.tx, design.rx, sv, noise))


def design_md(inst, tx_or_design) -> float:
    """Total received minimum inter-class Mahalanobis distance
    sum_n delta_n (sum hb)^2 / (sum (hb)^2 shat^2 + noise); independent of
    the receive coefficients."""
    g, _, _, sv, noise, delta, _ = _arrays(inst)
    tx = tx_or_design.tx if isinstance(tx_or_design, TransceiverDesign) else tx_or_design
    return float(np.sum(md_received(g, np.asarray(tx, dtype=np.float64), sv, noise, delta)))


def _make_design(inst, tx, rx) -> TransceiverDesign:
    _, budgets, moments, _, _, _, scheme = _arrays(inst)
    return TransceiverDesign(tx=np.asarray(tx, dtype=np.float64),
                             rx=np.asarray(rx, dtype=np.float64),
                             scheme=scheme, power_budgets=budgets,
                             moments=moments)


# ---------------------------------------------------------------------------
# TDM closed forms
# ---------------------------------------------------------------------------

def _tdm_batch(kind, gains, budgets, moments, est_vars, noise, delta):
    """Closed-form TDM designs on a stack of B per-slot instances: gains,
    moments and est_vars (B, K, 1), budgets (B, K), noise (B,), delta
    (B, 1).  Returns (tx (B, K, 1), rx (B, 1), kkt (B,), extras), extras
    holding one (B, ...) array per `SolveReport.extras` field.

    Devices are sorted by effective link strength u_k = h sqrt(P)/nu and
    every threshold candidate j (the j weakest devices at full power) is
    evaluated at once.  mse: the rest invert the channel against the
    candidate receive scale, clamped to the power box so every candidate
    is feasible; the least realized MSE wins, the first on ties.  md: the
    segment stationary point tau_j = (sum u^2 + noise_eq) / (sum u),
    clamped to its segment, caps c_k = h_k b_k; the largest capped value
    wins, the first on ties, which is the smallest cap because the
    clamped taus do not decrease in j.  Each candidate's prefix sums are
    a fresh `np.sum` over its devices: a cumulative sum rounds differently
    from numpy's pairwise sum once K >= 8.
    """
    h, mom, sv = gains[:, :, 0], moments[:, :, 0], est_vars[:, :, 0]
    B, K = h.shape
    rows = np.arange(B)
    b_full = np.sqrt(budgets) / np.sqrt(mom)
    u = h * b_full
    order = np.argsort(u, axis=1, kind="stable")

    def prefix_sums(x):
        xs = np.take_along_axis(x, order, axis=1)
        return np.stack([np.sum(xs[:, :j], axis=1) for j in range(1, K + 1)], axis=1)

    if kind == "mse":
        a = prefix_sums(h * sv * b_full) / (prefix_sums(u ** 2 * sv) + noise[:, None])
        b = np.minimum(b_full[:, None, :], 1.0 / (a[:, :, None] * h[:, None, :]))
        mse = mse_at_rx(h[:, None, :, None], b[..., None], a[..., None],
                        sv[:, None, :, None], noise[:, None])
        best = np.argmin(mse, axis=1)
        a, b = a[rows, best], b[rows, best]
        # a is a fixed point of the MSE-optimal receive rule at the returned b.
        a_opt = receive_rule(h[..., None], b[..., None], sv[..., None], noise[:, None])[:, 0]
        kkt = np.abs(a - a_opt) / np.maximum(a_opt, TINY)
        return b[..., None], a[:, None], kkt, {
            "threshold_index": best + 1, "a_star": a, "order": order,
            "full_power": b >= b_full * (1.0 - 1e-12)}

    if np.any(delta <= 0):
        raise ValidationError("tdm_md_optimal requires delta > 0")
    spread = np.max((sv.max(axis=1) - sv.min(axis=1)) / sv.max(axis=1))
    if spread > 1e-9:
        raise ValidationError(
            "tdm_md_optimal requires homogeneous est_vars across devices "
            f"(relative spread {spread:.3g}); use brute_force_oracle for "
            "heterogeneous instances"
        )
    us = np.take_along_axis(u, order, axis=1)
    noise_eq = (noise / sv[:, 0])[:, None]

    def cap_value(cap):
        c = np.minimum(us[:, None, :], cap[..., None])
        s1 = np.sum(c, axis=2)
        return s1 * s1 / (np.sum(c * c, axis=2) + noise_eq)

    tau = (prefix_sums(u ** 2) + noise_eq) / prefix_sums(u)
    hi = np.concatenate([us[:, 1:], np.full((B, 1), np.inf)], axis=1)
    tau = np.minimum(np.maximum(tau, us), hi)
    val = cap_value(tau)
    best = np.argmax(val, axis=1)
    tau, val = tau[rows, best], val[rows, best]
    # first-order certificate: nudging the cap must not improve the value
    bumped = cap_value(tau[:, None] * np.array([1.0 - 1e-7, 1.0 + 1e-7]))
    kkt = np.max(np.maximum((bumped - val[:, None]) / np.maximum(val, TINY)[:, None], 0.0),
                 axis=1)
    b = np.minimum(u, tau[:, None]) / h
    rx = receive_rule(h[..., None], b[..., None], sv[..., None], noise[:, None])
    return b[..., None], rx, kkt, {"tau": tau, "order": order}


def _tdm_report(kind, inst: TdmInstance, objective) -> SolveReport:
    tx, rx, kkt, extras = _tdm_batch(kind, *_stack(inst))
    design = _make_design(inst, tx[0], rx[0])
    kkt_val = float(kkt[0])
    return SolveReport(
        design=design, objective=objective(inst, design),
        iterations=inst.num_devices, kkt_residual=kkt_val,
        converged=bool(kkt_val <= KKT_TOL),
        extras={key: value[0].tolist() for key, value in extras.items()},
    )


def tdm_mse_optimal(inst: TdmInstance) -> SolveReport:
    """Threshold-structured MSE-optimal per-slot design (`_tdm_batch` at
    B=1); extras name the threshold index, the receive scale a*, the
    device order and the full-power mask."""
    return _tdm_report("mse", inst, design_mse)


def tdm_md_optimal(inst: TdmInstance) -> SolveReport:
    """Capped water-filling maximizing the per-slot received MD
    (`_tdm_batch` at B=1); extras name the cap tau and the device order.

    Valid only when all devices share one estimate variance (the
    reformulation onto c_k = h_k b_k requires it); heterogeneous instances
    must go through brute_force_oracle.
    """
    return _tdm_report("md", inst, design_md)


# ---------------------------------------------------------------------------
# FDM dual decomposition (batched internals)
# ---------------------------------------------------------------------------

def _bisect_fixed(f, shape):
    """Vectorized log-domain bisection with a fixed iteration count, the
    reference the tests check the Newton multiplier root against.

    f must be elementwise decreasing in its positive argument; returns the
    root of f = 0 inside [10**LOG_LO, 10**LOG_HI] (clamped to an endpoint
    when the root falls outside; callers mask nonexistent roots).
    """
    lo = np.full(shape, LOG_LO)
    hi = np.full(shape, LOG_HI)
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        pos = f(10.0 ** mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 10.0 ** (0.5 * (lo + hi))


def equal_power(budgets, moments):
    """Uniform power split |b_kn| = sqrt(P_k / (N nu_kn^2)); budgets (..., K),
    moments (..., K, N)."""
    return np.sqrt(budgets[..., None] / (moments.shape[-1] * moments))


class _DualCore:
    """Batched dual-decomposition engine shared by the MSE and MD
    objectives.  Arrays: gains/moments/est_vars (B, K, N), budgets (B, K),
    noise (B,), delta (B, N).  Every operation is elementwise across the
    batch, so each instance's result depends only on its own data."""

    def __init__(self, gains, budgets, moments, est_vars, noise, delta):
        self.g = gains
        self.budgets = budgets
        self.mom = moments
        self.sv = est_vars
        self.noise = noise[:, None]
        self.delta = delta
        self.B, self.K, self.N = gains.shape

    # -- per-device multipliers ------------------------------------------

    def power_used(self, b):
        return np.sum(self.mom * b * b, axis=2)

    def _b_shape(self, c1, c2, lam):
        """Per-device constrained optimum b_kn = c1 / (c2 + lam nu^2),
        capped so transient unconstrained iterates cannot overflow when
        squared."""
        den = c2 + lam[:, :, None] * self.mom
        b = np.where(den > 0, c1 / np.where(den > 0, den, 1.0), 0.0)
        return np.minimum(b, 1e120)

    def _lambda_for(self, c1, c2):
        """Multiplier per device meeting its power budget with equality
        for the b-shape above; devices inside their budget at zero get
        zero.

        Newton on g(lam) = used(lam)^(-1/2) - P^(-1/2), where
        used(lam) = sum_n nu^2 c1^2 / (c2 + lam nu^2)^2.  Each term is
        x_n^-2 with x_n affine and increasing in lam, so g, a power mean
        with p = -2, is concave and increasing.  The start, the largest
        single-subcarrier root, has g <= 0 because no term exceeds the
        sum; from there the iterates rise to the root without
        overshooting, so no bracket is needed.  Shut-off subcarriers
        (c1 = c2 = 0) add nothing.
        """
        mom, budgets = self.mom, self.budgets
        active = self.power_used(self._b_shape(c1, c2, np.zeros((self.B, self.K)))) > budgets
        lam = np.maximum(np.max((c1 * np.sqrt(mom / budgets[:, :, None]) - c2) / mom,
                                axis=2), 0.0)
        for _ in range(NEWTON_STEPS):
            den = c2 + lam[:, :, None] * mom
            pos = den > 0
            den = np.where(pos, den, 1.0)
            mb2 = mom * np.where(pos, c1 / den, 0.0) ** 2
            used = np.sum(mb2, axis=2)
            # slope = -used'(lam) / 2; the step is -g / g'
            slope = np.sum(mb2 * mom / den, axis=2)
            step = active & (slope > 0)
            lam = lam + np.where(step, used * (np.sqrt(used / budgets) - 1.0)
                                 / np.where(step, slope, 1.0), 0.0)
        return np.where(active, lam, 0.0)

    # -- monotone primal refinements ---------------------------------------

    def rx_update(self, b):
        """MSE-minimizing receive scale for fixed transmit magnitudes."""
        return receive_rule(self.g, b, self.sv, self.noise)

    def z_update(self, b):
        """Quadratic-transform auxiliary of the MD ratio."""
        hb = self.g * b
        num = np.sum(hb, axis=1)
        den = np.sum(hb * hb * self.sv, axis=1) + self.noise
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    def _coeffs(self, kind, aux):
        a3 = aux[:, None, :]
        if kind == "mse":
            c1 = a3 * self.g * self.sv
            c2 = a3 * a3 * self.g ** 2 * self.sv
        else:
            d3 = self.delta[:, None, :]
            c1 = d3 * self.g * a3
            c2 = d3 * self.sv * self.g ** 2 * a3 * a3
        return c1, c2

    def objective(self, kind, b):
        if kind == "mse":
            return np.sum(mse_min_rx(self.g, b, self.sv, self.noise), axis=1)
        return np.sum(md_received(self.g, b, self.sv, self.noise, self.delta), axis=1)

    def _step(self, kind, aux):
        c1, c2 = self._coeffs(kind, aux)
        lam = self._lambda_for(c1, c2)
        b = self._b_shape(c1, c2, lam)
        return lam, b

    def polish(self, kind, b):
        """Alternate the closed-form auxiliary update (receive scale for
        the MSE objective, quadratic-transform ratio for the MD objective)
        with the exact per-device power-constrained transmit update.  Both
        alternations move their objective monotonically, so the iteration
        cannot cycle; a fixed sweep count keeps results batch-invariant.

        Linearly convergent tails (subcarriers near the on/off boundary)
        are collapsed by periodic Aitken extrapolation of the auxiliary,
        accepted only when it does not worsen the objective.  Returns
        (lam, aux, b) with b exactly optimal for the returned aux and lam.
        """
        upd = self.rx_update if kind == "mse" else self.z_update
        better = np.less if kind == "mse" else np.greater
        aux = upd(b)
        aux_prev = aux
        for sweep in range(1, POLISH_SWEEPS + 1):
            _, b = self._step(kind, aux)
            aux_next = upd(b)
            if sweep % 12 == 0:
                d1 = aux - aux_prev
                d2 = aux_next - aux
                num = np.sum(d2 * d1, axis=1)
                den = np.sum(d1 * d1, axis=1)
                rho = np.clip(np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0),
                              0.0, 0.999)
                aux_acc = np.maximum(aux_next + d2 * (rho / (1.0 - rho))[:, None], 0.0)
                _, b_acc = self._step(kind, aux_acc)
                take = better(self.objective(kind, b_acc),
                              self.objective(kind, b))
                aux_next = np.where(take[:, None], upd(b_acc), aux_next)
            aux_prev = aux
            aux = aux_next
        lam, b = self._step(kind, aux)
        return lam, aux, b

    # -- main loop --------------------------------------------------------

    def run(self, kind):
        """Polish from the equal-power split, fold rounding dust back
        inside the budgets and certify the result.  Returns (lam, aux, b,
        kkt): kkt is the max of relative power overuse, complementary
        slackness and the auxiliary's fixed-point residual."""
        lam, aux, b = self.polish(kind, equal_power(self.budgets, self.mom))

        used = self.power_used(b)
        over = used > self.budgets
        scale = np.where(over, np.sqrt(self.budgets / np.maximum(used, TINY)), 1.0)
        b = b * scale[:, :, None]
        used = np.minimum(self.power_used(b), self.budgets)

        slack_rel = (self.budgets - used) / self.budgets
        overuse = np.max(np.maximum(-slack_rel, 0.0), axis=1)
        compl = np.max(lam / (1.0 + lam) * np.abs(slack_rel), axis=1)
        aux_new = (self.rx_update if kind == "mse" else self.z_update)(b)
        aux_scale = np.maximum(np.max(np.abs(aux_new), axis=1), TINY)
        aux_resid = np.max(np.abs(aux - aux_new), axis=1) / aux_scale
        kkt = np.maximum(np.maximum(overuse, compl), aux_resid)
        return lam, aux, b, kkt


def _fdm_batch(kind, gains, budgets, moments, est_vars, noise, delta):
    """(lam, aux, tx, rx, kkt) of the dual solver on a batch; the MD design
    decodes with the MSE-optimal receive rule."""
    lam, aux, tx, kkt = _DualCore(gains, budgets, moments, est_vars,
                                  noise, delta).run(kind)
    rx = aux if kind == "mse" else receive_rule(gains, tx, est_vars, noise[:, None])
    return lam, aux, tx, rx, kkt


def solve_batch(name, gains, budgets, moments, est_vars, noise, delta):
    """Designs of solver `name` (any of SOLVER_NAMES) for a stack of B
    instances.

    gains is (B, K, N), with N = 1 (one slot) for the TDM closed forms;
    budgets broadcast to (B, K), moments and est_vars to (B, K, N), noise
    to (B,) and delta to (B, N).  Inputs must follow the instance
    classes' rules (a `ValidationError` names the argument that breaks
    them).  Returns (tx (B, K, N), rx (B, N), kkt (B,)); the baselines
    report a zero KKT residual.  Each instance's result is bit-for-bit
    the same however instances are batched.
    """
    if name not in SOLVER_NAMES:
        raise ValidationError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")
    gains = np.asarray(gains, dtype=np.float64)
    if gains.ndim != 3:
        raise ValidationError(f"gains must be (B, K, N), got shape {gains.shape}")
    B, K, N = gains.shape

    def full(x, shape):
        return np.broadcast_to(np.asarray(x, dtype=np.float64), shape).copy()

    budgets = full(budgets, (B, K))
    moments = full(moments, (B, K, N))
    est_vars = full(est_vars, (B, K, N))
    noise = full(noise, (B,))
    delta = full(delta, (B, N))
    # The rules of FdmInstance and TdmInstance; only the FDM dual solvers
    # need noise > 0, as FdmInstance does.
    noise_positive = name in ("fdm_mse", "fdm_md")
    for arg, arr, positive in (("gains", gains, True), ("budgets", budgets, True),
                               ("moments", moments, True), ("est_vars", est_vars, True),
                               ("noise", noise, noise_positive), ("delta", delta, False)):
        if not np.all(((arr > 0) if positive else (arr >= 0)) & (arr < np.inf)):
            raise ValidationError(
                f"{arg} must be finite and {'> 0' if positive else '>= 0'} in every instance")
    if name in TDM_SOLVERS:
        if N != 1:
            raise ValidationError(f"{name} designs one TDM slot; gains have {N} columns")
        tx, rx, kkt, _ = _tdm_batch(name[4:], gains, budgets, moments, est_vars,
                                    noise, delta)
        return tx, rx, kkt
    if name in ("fdm_mse", "fdm_md"):
        _, _, tx, rx, kkt = _fdm_batch(name[4:], gains, budgets, moments, est_vars,
                                       noise, delta)
        return tx, rx, kkt
    tx = equal_power(budgets, moments)
    if name == "channel_inversion":
        tx = np.minimum(tx, 1.0 / gains)
    return tx, receive_rule(gains, tx, est_vars, noise[:, None]), np.zeros(B)


def fdm_mse_dual(inst: FdmInstance) -> SolveReport:
    """MSE-minimizing FDM design by dual decomposition.

    Per-device multipliers meet the power budgets exactly at every sweep
    of a fixed-length alternating polish (see `_DualCore.polish`), which
    drives the joint KKT system to root-solver accuracy; the duals and
    the dual objective are reported alongside the design.
    """
    lam, _, tx, rx, kkt = _fdm_batch("mse", *_stack(inst))
    tx, rx, lam = tx[0], rx[0], lam[0]
    design = _make_design(inst, tx, rx)
    objective = design_mse(inst, design)
    kkt_val = float(kkt[0])
    dual_value = _dual_value_mse(inst, lam, rx * rx)
    return SolveReport(
        design=design, objective=objective, iterations=POLISH_SWEEPS,
        kkt_residual=kkt_val, converged=bool(kkt_val <= KKT_TOL),
        extras={"duals": lam.tolist(), "rx_power": (rx * rx).tolist(),
                "dual_value": dual_value,
                "duality_gap": objective - dual_value},
    )


def _dual_value_mse(inst: FdmInstance, lam, r) -> float:
    """Dual objective sum_n phi_n(r_n; lam) - sum_k lam_k P_k."""
    g, _, mom, sv, noise, _, _ = _arrays(inst)
    lam2 = lam[:, None]
    den = r[None, :] * g * g * sv + lam2 * mom
    terms = np.where(den > 0, lam2 * mom * sv / np.where(den > 0, den, 1.0), 0.0)
    phi = np.sum(terms, axis=0) + r * noise
    return float(np.sum(phi) - np.sum(lam * inst.budgets))


def fdm_md_optimal(inst: FdmInstance) -> SolveReport:
    """MD-maximizing FDM design via the same scheme on the z_n auxiliary.

    Zero power lands on subcarriers whose discriminative prior is zero.
    The receive coefficients do not affect the MD and are set to the
    MSE-minimizing rule so the design can still be decoded.
    """
    if np.all(inst.delta <= 0):
        raise ValidationError("fdm_md_optimal requires delta > 0 on some subcarrier")
    lam, z, tx, rx, kkt = _fdm_batch("md", *_stack(inst))
    tx, z = tx[0], z[0]
    design = _make_design(inst, tx, rx[0])
    objective = design_md(inst, design)
    kkt_val = float(kkt[0])
    return SolveReport(
        design=design, objective=objective, iterations=POLISH_SWEEPS,
        kkt_residual=kkt_val, converged=bool(kkt_val <= KKT_TOL),
        extras={"duals": lam[0].tolist(), "z": z.tolist(),
                "z_consistency": _z_consistency(inst, tx, z)},
    )


def _z_consistency(inst: FdmInstance, tx, z) -> float:
    """Residual of z_n = sum|h b| / (sum |h b|^2 shat^2 + noise), relative
    to the largest auxiliary (subcarriers shut off by the solver carry
    vanishing z and must not dominate the check).  The same residual over
    the smaller scale max|z_check| is part of the KKT residual."""
    g, _, _, sv, noise, _, _ = _arrays(inst)
    hb = g * tx
    num = np.sum(hb, axis=0)
    den = np.sum(hb * hb * sv, axis=0) + noise
    z_chk = num / den
    scale = max(float(np.max(z_chk)), float(np.max(z)), TINY)
    return float(np.max(np.abs(z - z_chk)) / scale)


# ---------------------------------------------------------------------------
# brute-force validation oracle
# ---------------------------------------------------------------------------

def _golden_min(fun, lo, hi, iters=44):
    """Deterministic golden-section minimization on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def _params_to_tx(params, budgets, moments):
    """Map box parameters in [0,1] to feasible transmit magnitudes.

    N = 1: one power-use share s_k per device.
    N = 2: (s_k, t_k) with t_k splitting the used power across the two
    subcarriers.  params has shape (..., D) with D = K or 2K.
    """
    K, N = moments.shape
    params = np.asarray(params, dtype=np.float64)
    if N == 1:
        s = params[..., :K]
        power = s * budgets
        return np.sqrt(power / moments[:, 0])[..., :, None]
    s = params[..., 0::2]
    t = params[..., 1::2]
    p1 = s * t * budgets
    p2 = s * (1.0 - t) * budgets
    b1 = np.sqrt(p1 / moments[:, 0])
    b2 = np.sqrt(p2 / moments[:, 1])
    return np.stack([b1, b2], axis=-1)


def brute_force_oracle(inst, objective: str, grid_resolution: int = 9,
                       refine_sweeps: int = 60) -> SolveReport:
    """Exhaustive grid search plus coordinate-descent refinement.

    Supports instances with at most 6 free transmit coefficients and at
    most two subcarriers.  Receive coefficients are eliminated through the
    MSE-minimizing rule (the MD objective never depends on them), so the
    search space is the per-device power usage and split.
    """
    if objective not in ("mse", "md"):
        raise ValidationError(f"objective must be 'mse' or 'md', got {objective!r}")
    g, budgets, moments, sv, noise, delta, _ = _arrays(inst)
    K, N = g.shape
    if K * N > 6:
        raise ValidationError(
            f"brute_force_oracle supports at most 6 free coefficients, got {K * N}"
        )
    if N > 2:
        raise ValidationError("brute_force_oracle supports at most 2 subcarriers")
    if objective == "md" and np.all(delta <= 0):
        raise ValidationError("md objective requires delta > 0 somewhere")

    def value(tx):
        if objective == "mse":
            return np.sum(mse_min_rx(g, tx, sv, noise), axis=-1)
        return -np.sum(md_received(g, tx, sv, noise, delta), axis=-1)

    dims = K if N == 1 else 2 * K
    axis = np.linspace(0.0, 1.0, grid_resolution)
    mesh = np.meshgrid(*([axis] * dims), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = value(_params_to_tx(grid, budgets, moments))
    order = np.argsort(vals, kind="stable")
    starts = grid[order[:5]]

    best_p, best_v = None, None
    evals = int(vals.size)
    for start in starts:
        p = start.copy()
        v = float(value(_params_to_tx(p, budgets, moments)))
        for _ in range(refine_sweeps):
            improved = False
            for d in range(dims):
                def along(x, d=d, p=p):
                    q = p.copy()
                    q[d] = x
                    return float(value(_params_to_tx(q, budgets, moments)))
                x, vx = _golden_min(along, 0.0, 1.0)
                if vx < v - 1e-15 * max(1.0, abs(v)):
                    p[d] = x
                    v = vx
                    improved = True
            if not improved:
                break
        if best_v is None or v < best_v:
            best_p, best_v = p, v
    tx = _params_to_tx(best_p, budgets, moments)
    rx = rx_mse_optimal(inst, tx)
    design = _make_design(inst, tx, rx)
    obj = -best_v if objective == "md" else best_v
    return SolveReport(design=design, objective=float(obj), iterations=evals,
                       kkt_residual=0.0, converged=True,
                       extras={"method": "grid+coordinate-descent",
                               "grid_resolution": grid_resolution})


# ---------------------------------------------------------------------------
# random instances and the oracle validation suite
# ---------------------------------------------------------------------------

def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def random_tdm_instance(rng, num_devices: int,
                        homogeneous_vars: bool = False) -> TdmInstance:
    """Seeded random per-slot instance with moderate dynamic ranges."""
    K = num_devices
    sv = (np.full(K, _log_uniform(rng, 0.05, 2.0))
          if homogeneous_vars else _log_uniform(rng, 0.05, 2.0, K))
    return TdmInstance(
        gains=rng.rayleigh(scale=np.sqrt(0.5), size=K) + 0.05,
        budgets=_log_uniform(rng, 0.3, 3.0, K),
        moments=_log_uniform(rng, 0.3, 3.0, K),
        est_vars=sv,
        noise_var=float(_log_uniform(rng, 0.01, 1.0)),
        delta=float(_log_uniform(rng, 0.1, 10.0)),
    )


def random_fdm_instance(rng, num_devices: int, num_subcarriers: int) -> FdmInstance:
    K, N = num_devices, num_subcarriers
    return FdmInstance(
        gains=rng.rayleigh(scale=np.sqrt(0.5), size=(K, N)) + 0.05,
        budgets=_log_uniform(rng, 0.3, 3.0, K),
        moments=_log_uniform(rng, 0.3, 3.0, (K, N)),
        est_vars=_log_uniform(rng, 0.05, 2.0, (K, N)),
        noise_var=float(_log_uniform(rng, 0.01, 1.0)),
        delta=_log_uniform(rng, 0.1, 10.0, N),
    )


def oracle_validation_suite(n_instances: int, seed: int) -> list:
    """Cross-check every solver against the brute-force oracle on random
    small instances, plus the structural invariants (feasibility, TDM
    design equivalence under homogeneous variances, FDM objective
    dominance).  Returns (name, passed, detail) triples."""
    rng = np.random.default_rng(seed)
    checks = []

    def rel_gap(a, b):
        return abs(a - b) / max(abs(b), TINY)

    worst = {"tdm_mse": 0.0, "tdm_md": 0.0, "fdm_mse": 0.0, "fdm_md": 0.0}
    worst_kkt = 0.0
    worst_equiv = 0.0
    dominance_ok = True
    for i in range(n_instances):
        K = int(rng.integers(1, 4))
        inst_t = random_tdm_instance(rng, K, homogeneous_vars=True)
        rep = tdm_mse_optimal(inst_t)
        oracle = brute_force_oracle(inst_t, "mse", grid_resolution=17)
        worst["tdm_mse"] = max(worst["tdm_mse"],
                               rel_gap(rep.objective, oracle.objective))
        rep_md = tdm_md_optimal(inst_t)
        oracle_md = brute_force_oracle(inst_t, "md", grid_resolution=17)
        worst["tdm_md"] = max(worst["tdm_md"],
                              rel_gap(rep_md.objective, oracle_md.objective))
        worst_equiv = max(
            worst_equiv,
            rel_gap(design_mse(inst_t, rep_md.design), rep.objective),
            rel_gap(design_md(inst_t, rep.design), rep_md.objective),
        )

        N = int(rng.integers(1, 3))
        inst_f = random_fdm_instance(rng, K, N)
        rep_c = fdm_mse_dual(inst_f)
        oracle_c = brute_force_oracle(inst_f, "mse")
        worst["fdm_mse"] = max(worst["fdm_mse"],
                               rel_gap(rep_c.objective, oracle_c.objective))
        rep_d = fdm_md_optimal(inst_f)
        oracle_d = brute_force_oracle(inst_f, "md")
        worst["fdm_md"] = max(worst["fdm_md"],
                              rel_gap(rep_d.objective, oracle_d.objective))
        worst_kkt = max(worst_kkt, rep_c.kkt_residual, rep_d.kkt_residual)
        if design_mse(inst_f, rep_c.design) > design_mse(inst_f, rep_d.design) * (1 + 1e-6):
            dominance_ok = False
        if design_md(inst_f, rep_d.design) < design_md(inst_f, rep_c.design) * (1 - 1e-6):
            dominance_ok = False

    for name in ("tdm_mse", "tdm_md", "fdm_mse", "fdm_md"):
        checks.append((f"{name} matches oracle within 1e-3", worst[name] <= 1e-3,
                       f"worst relative gap {worst[name]:.3e}"))
    checks.append(("dual solver KKT residuals below 1e-6", worst_kkt <= 1e-6,
                   f"worst residual {worst_kkt:.3e}"))
    checks.append(("TDM designs equivalent under homogeneous variances",
                   worst_equiv <= 1e-6, f"worst relative gap {worst_equiv:.3e}"))
    checks.append(("FDM dominance (MSE and MD ordering)", dominance_ok,
                   f"{n_instances} instances"))
    return checks


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def solve(inst, solver: str) -> SolveReport:
    """Run any of SOLVER_NAMES on one instance and return a SolveReport.
    The baselines (the equal power split, and channel inversion capped by
    it, both under the MSE-optimal receive rule) report their realized MSE
    as the objective."""
    designed = {"tdm_mse": tdm_mse_optimal, "tdm_md": tdm_md_optimal,
                "fdm_mse": fdm_mse_dual, "fdm_md": fdm_md_optimal}
    if solver in designed:
        return designed[solver](inst)
    if solver not in SOLVER_NAMES:
        raise ValidationError(f"unknown solver {solver!r}; expected one of {SOLVER_NAMES}")
    tx, rx, _ = solve_batch(solver, *_stack(inst))
    design = _make_design(inst, tx[0], rx[0])
    return SolveReport(design=design, objective=design_mse(inst, design),
                       iterations=0, kkt_residual=0.0, converged=True, extras={})
