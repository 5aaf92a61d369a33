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
  multiplier is found by a Newton iteration warm-started from the
  previous sweep's multiplier, each multiplier stopping once its own
  step is negligible (the log-domain bisection `_bisect_fixed` is kept
  only as its test reference).  Each instance runs up to 120 sweeps and
  stops early once its own auxiliary settles, so results stay
  batch-invariant.
* fdm_md_optimal  : the same scheme on the quadratic-transform auxiliary
  z_n of the received MD.

`solve_batch` runs all six designs -- these four and the two baselines
(equal power, capped channel inversion) -- on a stack of instances.
`solve(inst, name)` runs any of them on one instance at B=1 and builds
every SolveReport; the four functions above are calls to it.  The
receive rule, MSE and MD formulas are the kernels of `channel`.

The dual solver indexes its arrays (B, K, N) but stores them with the
batch axis innermost in memory when N > 1: `solve_batch` builds each
input once as a C-ordered (K, N, B) array seen through np.moveaxis, so
every ufunc and every sum runs over the whole batch in its inner loop
instead of over N = 4 subcarriers.  The layout stays private; every
function returns C-contiguous arrays.

All quantities are real magnitudes.  `moments` fields hold the second
moments nu^2 of the transmitted estimates, `est_vars` the per-device
estimate variances sigma_hat^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    TransceiverDesign,
    md_received,
    mse_at_rx,
    mse_min_rx,
    receive_rule,
    received,
)
from .sums import ordered_sum
from .validation import ValidationError, as_matrix, as_vector, check_count

# The per-device multiplier root (`_DualCore._lambda_for`): each
# multiplier stops once a Newton step moves it by at most NEWTON_TOL
# relative, and every multiplier stops after NEWTON_STEPS steps from the
# cold start, or NEWTON_STEPS + 1 from a warm start.  A stopped multiplier
# no longer changes, so every root is bit-identical however instances are
# batched.  From the cold start the iteration converges to float64
# precision within 10 steps (8 leave up to ~1e-6 relative error on rare
# instances).  A warm start's first step lands between the cold start and
# the root, and below the root the Newton map is increasing, so from there
# every iterate is at least the cold start's; the extra step keeps the
# cold start's bound.  From the previous polish sweep's multiplier a root
# takes about 4 steps.
NEWTON_STEPS = 10
NEWTON_TOL = 1e-12
# Brackets and halvings of the log-domain bisection `_bisect_fixed`, which
# no solver calls: the tests check the Newton root against it.  64
# halvings of [1e-30, 1e30] pin a root to full float64 precision.
BISECT_ITERS = 64
LOG_LO = -30.0
LOG_HI = 30.0
TINY = 1e-300

# The FDM polish stops each instance once its auxiliary moves by at most
# POLISH_TOL relative to its largest entry in one sweep (a per-instance
# rule, so results stay batch-invariant), or after POLISH_SWEEPS sweeps;
# KKT_TOL is the KKT residual below which a single-instance FDM solve
# reports convergence.
POLISH_SWEEPS = 120
POLISH_TOL = 1e-12
KKT_TOL = 1e-6

SOLVER_NAMES = ("tdm_mse", "tdm_md", "fdm_mse", "fdm_md", "equal",
                "channel_inversion")
# The closed forms that design one TDM slot (N = 1).
TDM_SOLVERS = ("tdm_mse", "tdm_md")
FDM_SOLVERS = ("fdm_mse", "fdm_md")


def _check_data(noise_name, noise_positive, gains, budgets, moments, est_vars,
                noise, delta):
    """The data rules of the instance classes and `solve_batch`: at least
    one device and one subcarrier (a batch may hold no instances), gains,
    budgets, moments and est_vars finite and > 0, delta finite and >= 0,
    the noise finite and > 0 if `noise_positive` (FdmInstance), else >= 0.
    A `ValidationError` names the first breach.  The solvers' own rules
    live in `_tdm_batch` and `_fdm_batch`."""
    if 0 in np.shape(gains)[-2:]:
        raise ValidationError("gains must hold at least one device and one subcarrier,"
                              f" got shape {np.shape(gains)}")
    for name, arr, positive in (("gains", gains, True), ("budgets", budgets, True),
                                ("moments", moments, True), ("est_vars", est_vars, True),
                                (noise_name, noise, noise_positive), ("delta", delta, False)):
        arr = np.asarray(arr, dtype=np.float64)
        ok = ((arr > 0) if positive else (arr >= 0)) & (arr < np.inf)
        if not np.all(ok):
            raise ValidationError(f"{name} must be finite and {'>' if positive else '>='} 0,"
                                  f" got {float(arr[~ok][0])!r}")


def _freeze(inst, **arrays):
    """Set the checked arrays on a frozen instance, read-only."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(inst, name, arr)


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
        _check_data("noise_var", False, gains, budgets, moments, est_vars,
                    self.noise_var, self.delta)
        _freeze(self, gains=gains, budgets=budgets, moments=moments, est_vars=est_vars)
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
        delta = np.zeros(N) if self.delta is None else as_vector(self.delta, "delta", length=N)
        _check_data("noise_var", True, gains, budgets, moments, est_vars,
                    self.noise_var, delta)
        _freeze(self, gains=gains, budgets=budgets, moments=moments, est_vars=est_vars,
                delta=delta)
        object.__setattr__(self, "noise_var", float(self.noise_var))

    @property
    def num_devices(self) -> int:
        return self.gains.shape[0]


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
    clamped taus do not decrease in j.
    """
    if gains.shape[2] != 1:
        raise ValidationError(f"tdm_{kind} designs one TDM slot; gains have "
                              f"{gains.shape[2]} columns")
    h, mom, sv = gains[:, :, 0], moments[:, :, 0], est_vars[:, :, 0]
    B = h.shape[0]
    rows = np.arange(B)
    b_full = np.sqrt(budgets) / np.sqrt(mom)
    u = h * b_full
    order = np.argsort(u, axis=1, kind="stable")

    def prefix_sums(x):
        return np.cumsum(np.take_along_axis(x, order, axis=1), axis=1)

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
    spread = np.max((sv.max(axis=1) - sv.min(axis=1)) / sv.max(axis=1), initial=0.0)
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


def tdm_mse_optimal(inst: TdmInstance) -> SolveReport:
    """Threshold-structured MSE-optimal per-slot design (`_tdm_batch` at
    B=1); extras name the threshold index, the receive scale a*, the
    device order and the full-power mask."""
    return solve(inst, "tdm_mse")


def tdm_md_optimal(inst: TdmInstance) -> SolveReport:
    """Capped water-filling maximizing the per-slot received MD
    (`_tdm_batch` at B=1); extras name the cap tau and the device order.

    Valid only when all devices share one estimate variance (the
    reformulation onto c_k = h_k b_k requires it); heterogeneous instances
    must go through brute_force_oracle.
    """
    return solve(inst, "tdm_md")


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


def _dual_rows(x, keep, N):
    """Rows `keep` (indices) of x (B, ...), copied into the dual solver's
    memory layout for N subcarriers: the batch axis innermost (a C-array
    (..., B) seen as (B, ...) through np.moveaxis) at N > 1, C order at
    N = 1, where the channel kernels' device sums keep the bits of the C
    layout."""
    if N == 1:
        return x[keep]
    return np.moveaxis(np.moveaxis(x, 0, -1).take(keep, axis=-1), -1, 0)


class _DualCore:
    """Batched dual-decomposition engine shared by the MSE and MD
    objectives.  Arrays: gains/moments/est_vars (B, K, N), budgets (B, K),
    noise (B,), delta (B, N).  Every operation is elementwise across the
    batch, so each instance's result depends only on its own data.

    The formulas index (B, K, N); the memory order is the caller's.
    `solve_batch` lays the arrays out with the batch axis innermost at
    N > 1 (`_dual_rows`), so each ufunc's inner loop runs over the whole
    batch rather than over N = 4 subcarriers; the core copies no input,
    and selects rows in that layout.  At N = 1 the arrays stay C-ordered
    (`_dual_rows`)."""

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
        return ordered_sum(self.mom * b * b, -1)

    def _b_shape(self, c1, c2, lam):
        """Per-device constrained optimum b_kn = c1 / (c2 + lam nu^2),
        capped so transient unconstrained iterates cannot overflow when
        squared."""
        den = c2 + lam[:, :, None] * self.mom
        b = np.where(den > 0, c1 / np.where(den > 0, den, 1.0), 0.0)
        return np.minimum(b, 1e120)

    def _lambda_for(self, c1, c2, lam0=None):
        """Multiplier per device meeting its power budget with equality
        for the b-shape above; devices inside their budget at zero get
        zero.

        Newton on g(lam) = used(lam)^(-1/2) - P^(-1/2), where
        used(lam) = sum_n nu^2 c1^2 / (c2 + lam nu^2)^2.  Each term is
        x_n^-2 with x_n affine and increasing in lam, so g, a power mean
        with p = -2, is concave and increasing.  The cold start s0, the
        largest single-subcarrier root, has g <= 0 because no term
        exceeds the sum.  The iteration starts at max(lam0, s0), lam0
        being a warm start such as the previous sweep's multiplier, and
        every iterate is clamped at s0 from below.  From below the root
        the iterates rise to it without overshooting; from above it, one
        tangent step of the concave g lands at or below the root (or at
        the clamp), and the iterates rise from there, so no bracket is
        needed.  Each multiplier stops once its step is at most
        NEWTON_TOL relative and then no longer changes, so its value
        depends only on its own data; the loop ends when all have
        stopped, or after NEWTON_STEPS steps (one more with a warm start,
        whose first step may only bring it below the root).  Shut-off
        subcarriers (c1 = c2 = 0) add nothing.
        """
        mom, budgets = self.mom, self.budgets
        active = self.power_used(self._b_shape(c1, c2, np.zeros_like(budgets))) > budgets
        s0 = np.maximum(np.max((c1 * np.sqrt(mom / budgets[:, :, None]) - c2) / mom,
                               axis=2), 0.0)
        lam = s0 if lam0 is None else np.maximum(lam0, s0)
        moving = active
        for _ in range(NEWTON_STEPS if lam0 is None else NEWTON_STEPS + 1):
            den = c2 + lam[:, :, None] * mom
            pos = den > 0
            den = np.where(pos, den, 1.0)
            mb2 = mom * np.where(pos, c1 / den, 0.0) ** 2
            used = ordered_sum(mb2, -1)
            # slope = -used'(lam) / 2; the step is -g / g'
            slope = ordered_sum(mb2 * mom / den, -1)
            step = moving & (slope > 0)
            new = np.maximum(lam + used * (np.sqrt(used / budgets) - 1.0)
                             / np.where(step, slope, 1.0), s0)
            lam_next = np.where(step, new, lam)
            moving = step & (np.abs(lam_next - lam) > NEWTON_TOL * lam_next)
            lam = lam_next
            if not moving.any():
                break
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
            return ordered_sum(mse_min_rx(self.g, b, self.sv, self.noise), -1)
        return ordered_sum(md_received(self.g, b, self.sv, self.noise, self.delta), -1)

    def _step(self, kind, aux, lam0=None):
        """(lam, b) for the auxiliary aux, the multipliers warm-started
        from lam0 (see `_lambda_for`)."""
        c1, c2 = self._coeffs(kind, aux)
        lam = self._lambda_for(c1, c2, lam0)
        b = self._b_shape(c1, c2, lam)
        return lam, b

    def _rows(self, keep):
        """The core of the instances `keep` (indices) of this batch."""
        return _DualCore(*(_dual_rows(x, keep, self.N) for x in (
            self.g, self.budgets, self.mom, self.sv, self.noise[:, 0], self.delta)))

    def polish(self, kind, b):
        """Alternate the closed-form auxiliary update (receive scale for
        the MSE objective, quadratic-transform ratio for the MD objective)
        with the exact per-device power-constrained transmit update.  Both
        alternations move their objective monotonically, so the iteration
        cannot cycle.

        Linearly convergent tails (subcarriers near the on/off boundary)
        are collapsed by periodic Aitken extrapolation of the auxiliary,
        accepted only when it does not worsen the objective.  Every second
        sweep, except the Aitken sweeps and the last, each instance whose
        auxiliary moved by at most POLISH_TOL relative stops: its auxiliary
        is frozen and its row leaves the working batch.  The rest run up to
        POLISH_SWEEPS sweeps.  A stop depends only on the instance's own
        iterates, so results stay batch-invariant.  The multipliers of
        each sweep's transmit update (the Aitken trial's where that is
        taken) warm-start the next sweep's, and the Aitken trial starts
        from the sweep's own; a row's last ones warm-start its final step.
        Returns (lam, aux, b, sweeps) with b exactly optimal for the
        returned aux and lam, and the sweeps each instance ran.
        """
        better = np.less if kind == "mse" else np.greater
        core = self
        upd = core.rx_update if kind == "mse" else core.z_update
        aux = upd(b)
        aux_prev = aux
        lam = None
        final = np.empty_like(aux)
        final_lam = np.empty_like(self.budgets)
        sweeps = np.full(self.B, POLISH_SWEEPS)
        rows = np.arange(self.B)  # the batch index of each working row
        for sweep in range(1, POLISH_SWEEPS + 1):
            if not rows.size:
                break
            lam, b = core._step(kind, aux, lam)
            aux_next = upd(b)
            if sweep % 12 == 0:
                d1 = aux - aux_prev
                d2 = aux_next - aux
                num = ordered_sum(d2 * d1, -1)
                den = ordered_sum(d1 * d1, -1)
                rho = np.clip(np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0),
                              0.0, 0.999)
                aux_acc = np.maximum(aux_next + d2 * (rho / (1.0 - rho))[:, None], 0.0)
                lam_acc, b_acc = core._step(kind, aux_acc, lam)
                take = better(core.objective(kind, b_acc),
                              core.objective(kind, b))
                aux_next = np.where(take[:, None], upd(b_acc), aux_next)
                lam = np.where(take[:, None], lam_acc, lam)
            aux_prev = aux
            aux = aux_next
            if sweep % 2 or sweep % 12 == 0 or sweep == POLISH_SWEEPS:
                continue
            done = (np.max(np.abs(aux - aux_prev), axis=1)
                    <= POLISH_TOL * np.max(np.abs(aux), axis=1))
            if done.any():
                final[rows[done]] = aux[done]
                final_lam[rows[done]] = lam[done]
                sweeps[rows[done]] = sweep
                keep = np.flatnonzero(~done)
                rows = rows[keep]
                aux, aux_prev, lam = (_dual_rows(x, keep, self.N) for x in (aux, aux_prev, lam))
                core = core._rows(keep)
                upd = core.rx_update if kind == "mse" else core.z_update
        final[rows] = aux
        final_lam[rows] = lam
        lam, b = self._step(kind, final, final_lam)
        return lam, final, b, sweeps

    # -- main loop --------------------------------------------------------

    def run(self, kind):
        """Polish from the equal-power split, fold rounding dust back
        inside the budgets and certify the result.  Returns (lam, aux, b,
        kkt, sweeps): kkt is the max of relative power overuse,
        complementary slackness and the auxiliary's fixed-point residual;
        sweeps are the polish sweeps of each instance."""
        lam, aux, b, sweeps = self.polish(kind, equal_power(self.budgets, self.mom))

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
        return lam, aux, b, kkt, sweeps


def _fdm_batch(kind, gains, budgets, moments, est_vars, noise, delta):
    """(lam, aux, tx, rx, kkt, sweeps) of the dual solver on a batch, as
    C-contiguous arrays; the MD design decodes with the MSE-optimal
    receive rule.  Both designs need noise > 0, and the MD design delta > 0
    on some subcarrier of every instance.  The data have passed
    `_check_data`, in the layout `_DualCore` keeps (any layout at B=1)."""
    if np.any(noise == 0):
        raise ValidationError("noise must be finite and > 0, got 0.0")
    if kind == "md" and not np.all(np.any(delta > 0, axis=1)):
        raise ValidationError("fdm_md_optimal requires delta > 0 on some subcarrier")
    lam, aux, tx, kkt, sweeps = _DualCore(gains, budgets, moments, est_vars,
                                          noise, delta).run(kind)
    rx = aux if kind == "mse" else receive_rule(gains, tx, est_vars, noise[:, None])
    return tuple(np.ascontiguousarray(x) for x in (lam, aux, tx, rx, kkt, sweeps))


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
    # The dual solver's inputs are built once, in its layout.
    dual = name in FDM_SOLVERS

    def full(x, shape):
        x = np.broadcast_to(np.asarray(x, dtype=np.float64), shape)
        return _dual_rows(x, np.arange(B), N) if dual else x.copy()

    if dual:
        gains = full(gains, gains.shape)
    budgets = full(budgets, (B, K))
    moments = full(moments, (B, K, N))
    est_vars = full(est_vars, (B, K, N))
    noise = full(noise, (B,))
    delta = full(delta, (B, N))
    _check_data("noise", False, gains, budgets, moments, est_vars, noise, delta)
    if name in TDM_SOLVERS:
        tx, rx, kkt, _ = _tdm_batch(name[4:], gains, budgets, moments, est_vars,
                                    noise, delta)
        return tx, rx, kkt
    if name in FDM_SOLVERS:
        _, _, tx, rx, kkt, _ = _fdm_batch(name[4:], gains, budgets, moments, est_vars,
                                          noise, delta)
        return tx, rx, kkt
    tx = equal_power(budgets, moments)
    if name == "channel_inversion":
        tx = np.minimum(tx, 1.0 / gains)
    return tx, receive_rule(gains, tx, est_vars, noise[:, None]), np.zeros(B)


def fdm_mse_dual(inst: FdmInstance) -> SolveReport:
    """MSE-minimizing FDM design by dual decomposition.

    Per-device multipliers meet the power budgets exactly at every sweep
    of an alternating polish of up to POLISH_SWEEPS sweeps that stops once
    the receive scale settles (see `_DualCore.polish`), which drives the
    joint KKT system to root-solver accuracy; the duals and the dual
    objective are reported alongside the design.
    """
    return solve(inst, "fdm_mse")


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
    return solve(inst, "fdm_md")


def _z_consistency(batch, tx, z) -> float:
    """Residual of the returned auxiliary z against `_DualCore.z_update`
    at the design (B=1), relative to the largest auxiliary (subcarriers
    shut off by the solver carry vanishing z and must not dominate the
    check).  The same residual over the smaller scale max|z_check| is
    part of the KKT residual."""
    z_chk, z = _DualCore(*batch).z_update(tx)[0], z[0]
    scale = max(float(np.max(z_chk)), float(np.max(z)), TINY)
    return float(np.max(np.abs(z - z_chk)) / scale)


# ---------------------------------------------------------------------------
# brute-force validation oracle
# ---------------------------------------------------------------------------

# Golden-section steps per coordinate search, and the starts the grid
# hands to coordinate descent.
GOLDEN_ITERS = 44
ORACLE_STARTS = 5
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps that one call of the searched function looks ahead.
_LOOKAHEAD = 3


def _steps_ahead(brackets, lefts, depth):
    """(points probed, leaf brackets) of the next `depth` steps of each
    bracket (a, b, c, d), whose first step goes left where `lefts` holds,
    node-major over the brackets.  Node k of level j steps left (keeps
    [a, d], probes a new c) to node k of level j + 1 and right (keeps
    [c, b], probes a new d) to node k + 2**j."""
    if not depth:
        return [], brackets
    level = [(a, d, d - _INVPHI * (d - a), c) if left
             else (c, b, d, c + _INVPHI * (b - c))
             for (a, b, c, d), left in zip(brackets, lefts)]
    points = [t[2] if left else t[3] for t, left in zip(level, lefts)]
    for _ in range(1, depth):
        to_left = [(a, d, d - _INVPHI * (d - a), c) for a, b, c, d in level]
        to_right = [(c, b, d, c + _INVPHI * (b - c)) for a, b, c, d in level]
        points += [t[2] for t in to_left] + [t[3] for t in to_right]
        level = to_left + to_right
    return points, level


def _walk(f, g, depth, vals, start, stride):
    """Walk `depth` steps from the inner values (f, g) down a tree whose
    node i scored vals[start + i * stride]: (new f, new g, leaf)."""
    k = 0
    for j in range(depth):
        left = f <= g
        if j and not left:
            k += 2 ** (j - 1)
        fx = vals[start + (2 ** j - 1 + k) * stride]
        f, g = (fx, f) if left else (g, fx)
    return f, g, k


def _golden_section(fun, size):
    """Deterministic golden-section minimization on [0, 1] of `size`
    independent problems at once: fun maps an (m, size) array of points
    (column s for problem s) to their values.  Returns (x, fun(x)) as
    (size,) arrays, with x the midpoint of each final bracket.

    Each call of fun looks _LOOKAHEAD steps ahead.  A step keeps the side
    of the bracket whose inner point has the smaller value (the left side
    on a tie, the right side when either value is NaN, as `fc <= fd`
    decides), so the first of the next steps is known and the rest branch:
    1 + 2 + 4 points per problem for three steps.  One call evaluates all
    of them, and each problem then walks its own path; the first call adds
    the two inner points to the trees of both first steps.  The brackets are
    Python floats, which round as numpy's float64 arithmetic does, so each
    problem takes the steps, and returns the bits, of a plain loop of
    GOLDEN_ITERS single steps.
    """
    lo, hi = 0.0, 1.0
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    depth = min(_LOOKAHEAD, GOLDEN_ITERS)
    trees = [_steps_ahead([(lo, hi, c, d)], [left], depth) for left in (True, False)]
    first = np.array([c, d] + trees[0][0] + trees[1][0])
    vals = fun(first[:, None].repeat(size, axis=1)).ravel().tolist()
    fc, fd, brackets = vals[:size], vals[size:2 * size], []
    for s in range(size):
        t = 0 if fc[s] <= fd[s] else 1
        start = (2 + t * (2 ** depth - 1)) * size + s
        fc[s], fd[s], k = _walk(fc[s], fd[s], depth, vals, start, size)
        brackets.append(trees[t][1][k])
    for done in range(depth, GOLDEN_ITERS, _LOOKAHEAD):
        depth = min(_LOOKAHEAD, GOLDEN_ITERS - done)
        points, level = _steps_ahead(brackets, [f <= g for f, g in zip(fc, fd)], depth)
        vals = fun(np.array(points).reshape(-1, size)).ravel().tolist()
        for s in range(size):
            fc[s], fd[s], k = _walk(fc[s], fd[s], depth, vals, s, size)
            brackets[s] = level[k * size + s]
    x = np.array([0.5 * (a + b) for a, b, _, _ in brackets])
    return x, fun(x[None])[0]


class _PerDevice:
    """The oracle's objective from per-device terms.  Device k's box
    parameters, its power-use share s (N = 1) or s and its split t across
    two subcarriers (N = 2), alone set its terms: (h b)^2 shat^2, and
    h b shat^2 (mse) or h b (md), per subcarrier."""

    def __init__(self, inst, objective):
        self.g, self.budgets, self.moments, self.sv, self.noise, delta, _ = _arrays(inst)
        self.mse = objective == "mse"
        self.delta = None if self.mse else delta
        self.est_sum = self.sv.sum(axis=0) if self.mse else None

    def tx(self, k, s, t=None):
        """Device k's transmit magnitudes (..., N)."""
        split = s[..., None] if t is None else \
            np.concatenate([(s * t)[..., None], (s * (1.0 - t))[..., None]], axis=-1)
        return np.sqrt(split * self.budgets[k] / self.moments[k])

    def terms(self, k, *params):
        hb = self.g[k] * self.tx(k, *params)
        return hb * hb * self.sv[k], hb * self.sv[k] if self.mse else hb

    def value(self, terms):
        """The objective (MD negated) from a list of device terms, added in
        index order as a sum over the device axis adds them."""
        power, num = terms[0]
        for power_k, num_k in terms[1:]:
            power, num = power + power_k, num + num_k
        out = received(power, num, self.noise, self.est_sum, self.delta).sum(axis=-1)
        return out if self.mse else -out


def _grid_starts(model, grid_resolution):
    """The ORACLE_STARTS points of the box-parameter grid with the smallest
    value (ties to the earlier point in `ij` order), as (S, D) params with
    their (S,) values.

    Each device's terms are tabled once over its own parameter tuples.  The
    grid is scored one slice at a time, a slice being every point with a
    given leading parameter, by broadcasting the tables, so memory stays at
    one slice.  Each slice's stable top S is in value order
    with ties in grid order, and the slices follow the grid order, so one
    stable sort of the slices' candidates ranks them as a stable sort of
    the whole grid would.
    """
    K, N = model.g.shape
    dims, res = K * N, grid_resolution
    axis = np.linspace(0.0, 1.0, res)
    tables = []
    for k in range(K):
        shape = [1] * (N * k) + [res] * N + [1] * (dims - N * k - N) + [N]
        terms = model.terms(k, *np.meshgrid(*[axis] * N, indexing="ij", sparse=True))
        # The subcarrier axis outermost in memory keeps the inner loops long.
        tables.append([np.moveaxis(np.moveaxis(x, -1, 0).copy(), 0, -1).reshape(shape)
                       for x in terms])
    first, rest = tables[0], [(power[0], num[0]) for power, num in tables[1:]]
    top_v, top_i = [], []
    for i0 in range(res):
        vals = model.value([(first[0][i0], first[1][i0])] + rest).ravel()
        k = min(ORACLE_STARTS, vals.size)
        # Stable top k: the points not above the k-th smallest value, in
        # grid order, then sorted by value.
        near = np.flatnonzero(~(vals > np.partition(vals, k - 1)[k - 1]))
        top = near[np.argsort(vals[near], kind="stable")[:k]]
        top_v.append(vals[top])
        top_i.append(i0 * vals.size + top)
    order = np.argsort(np.concatenate(top_v), kind="stable")[:ORACLE_STARTS]
    index = np.unravel_index(np.concatenate(top_i)[order], [res] * dims)
    return axis[np.stack(index, axis=-1)], np.concatenate(top_v)[order]


def brute_force_oracle(inst, objective: str, grid_resolution: int = 9,
                       refine_sweeps: int = 60) -> SolveReport:
    """Exhaustive grid search plus coordinate-descent refinement.

    Supports instances with at most 6 free transmit coefficients and at
    most two subcarriers.  Receive coefficients are eliminated through the
    MSE-minimizing rule (the MD objective never depends on them), so the
    search space is the per-device power usage and split.

    The ORACLE_STARTS best points of a grid with grid_resolution points per
    parameter (see `_grid_starts`) start coordinate descent.  The starts
    descend in lock-step: each coordinate is one golden-section search
    run for all of them at once, for at most refine_sweeps sweeps, and
    the descent stops after the first sweep in which no start improves.
    A search recomputes only the `_PerDevice` terms of the device whose
    parameter moves.  The first start with the strictly smallest value wins.  Each search
    evaluates the points of its next three steps in one call (see
    `_golden_section`), and the result is bit for bit that of a loop over
    the starts with one evaluation per step.
    """
    if objective not in ("mse", "md"):
        raise ValidationError(f"objective must be 'mse' or 'md', got {objective!r}")
    check_count(grid_resolution, "grid_resolution")
    check_count(refine_sweeps, "refine_sweeps", 0)
    model = _PerDevice(inst, objective)
    K, N = model.g.shape
    if K * N > 6:
        raise ValidationError(
            f"brute_force_oracle supports at most 6 free coefficients, got {K * N}"
        )
    if N > 2:
        raise ValidationError("brute_force_oracle supports at most 2 subcarriers")
    if objective == "md" and np.all(model.delta <= 0):
        raise ValidationError("md objective requires delta > 0 somewhere")

    p, v = _grid_starts(model, grid_resolution)
    S, dims = p.shape
    fixed = [model.terms(k, *p[:, N * k:N * k + N].T) for k in range(K)]
    # A start whose sweep improves nothing has stopped where a loop over
    # the starts would break: its next sweep repeats the same searches
    # from the same point and improves nothing either.
    for _ in range(refine_sweeps):
        improved = False
        for d in range(dims):
            k = d // N

            def along(x, d=d, k=k):
                q = [x if j == d else p[:, j] for j in range(N * k, N * k + N)]
                return model.value(fixed[:k] + [model.terms(k, *q)] + fixed[k + 1:])
            x, vx = _golden_section(along, S)
            better = vx < v - 1e-15 * np.maximum(1.0, np.abs(v))
            p[better, d] = x[better]
            v = np.where(better, vx, v)
            fixed[k] = model.terms(k, *p[:, N * k:N * k + N].T)
            improved = improved or bool(better.any())
        if not improved:
            break
    best = 0
    for s in range(1, S):
        if v[s] < v[best]:
            best = s
    tx = np.stack([model.tx(k, *p[best, N * k:N * k + N]) for k in range(K)])
    rx = rx_mse_optimal(inst, tx)
    design = _make_design(inst, tx, rx)
    obj = -v[best] if objective == "md" else v[best]
    return SolveReport(design=design, objective=float(obj),
                       iterations=grid_resolution ** dims,
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
    dominance).  Returns (name, passed, detail) triples; a detail shows a
    gap or residual below 1e-12, which is round-off, as "< 1e-12"."""
    check_count(n_instances, "instances")
    check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    checks = []

    def rel_gap(a, b):
        return abs(a - b) / max(abs(b), TINY)

    def shown(x):
        return "< 1e-12" if x < 1e-12 else f"{x:.3e}"

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
                       f"worst relative gap {shown(worst[name])}"))
    checks.append(("dual solver KKT residuals below 1e-6", worst_kkt <= 1e-6,
                   f"worst residual {shown(worst_kkt)}"))
    checks.append(("TDM designs equivalent under homogeneous variances",
                   worst_equiv <= 1e-6, f"worst relative gap {shown(worst_equiv)}"))
    checks.append(("FDM dominance (MSE and MD ordering)", dominance_ok,
                   f"{n_instances} instances"))
    return checks


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def solve(inst, solver: str) -> SolveReport:
    """SolveReport of any of SOLVER_NAMES on one instance, from
    `_tdm_batch`, `_fdm_batch` or (the baselines: the equal power split,
    and channel inversion capped by it) `solve_batch` at B=1.  The
    objective is the received MD for the MD designs, else the realized
    MSE.  Iterations count the devices (TDM), the polish sweeps the
    instance ran (FDM, at most POLISH_SWEEPS) or zero; extras: threshold
    index, a*, device order and full-power mask (tdm_mse); cap tau and
    order (tdm_md); duals, receive powers, dual value and duality gap
    (fdm_mse); duals, z and z-consistency (fdm_md).
    """
    g, budgets, moments, sv, noise, delta, _ = _arrays(inst)
    batch = (g[None], budgets[None], moments[None], sv[None], np.array([noise]), delta[None])
    iterations, extras = 0, {}
    if solver in TDM_SOLVERS:
        tx, rx, kkt, extras = _tdm_batch(solver[4:], *batch)
        iterations = inst.num_devices
    elif solver in FDM_SOLVERS:
        lam, aux, tx, rx, kkt, sweeps = _fdm_batch(solver[4:], *batch)
        iterations = int(sweeps[0])
        extras = {"duals": lam, "rx_power": rx * rx} if solver == "fdm_mse" \
            else {"duals": lam, "z": aux}
    else:
        tx, rx, kkt = solve_batch(solver, *batch)
    design = _make_design(inst, tx[0], rx[0])
    objective = (design_md if solver.endswith("_md") else design_mse)(inst, design)
    extras = {key: value[0].tolist() for key, value in extras.items()}
    if solver == "fdm_mse":
        dual_value = _dual_value_mse(inst, lam[0], rx[0] * rx[0])
        extras.update(dual_value=dual_value, duality_gap=objective - dual_value)
    elif solver == "fdm_md":
        extras["z_consistency"] = _z_consistency(batch, tx, aux)
    kkt = float(kkt[0])
    return SolveReport(design=design, objective=objective, iterations=iterations,
                       kkt_residual=kkt, converged=bool(kkt <= KKT_TOL), extras=extras)
