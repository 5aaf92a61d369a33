"""End-to-end Monte Carlo experiment runner.

Each trial walks the full chain: draw a labeled feature, observe it at
every device through sensing noise, estimate locally, solve the
transceiver design for a fresh channel draw, aggregate over the air,
decode, classify.  A sweep builds the context of every swept value
first, then runs the (value, trial) pairs as one stream of chunks that may
cross values -- serially or on one process pool for the whole sweep --
and reduces each value's trials into a MetricsRecord row for CSV export.
`compare` (fdm-compare, tdm-compare) runs its per-trial channel draws and
designs on the same stream, under the same KKT gate.

Determinism: every random quantity flows from the root seed through
numpy SeedSequence spawn keys of the form (domain, value_index,
trial_index), so a trial's draws do not depend on how trials are batched
or distributed across worker processes.  A chunk's per-trial streams are
seeded in one pass (`streams.spawned_generators`), bit for bit as one
SeedSequence per stream would seed them.  Metric reductions are exactly
rounded sums (math.fsum), and confusion counts are exact integers.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import islice

import numpy as np

from . import solvers
from .channel import SCHEMES, md_received, mse_at_rx
from .estimators import ESTIMATOR_TAGS, estimate_batch, observe_batch
from .prior import (
    GaussianMixturePrior,
    discriminative_prior,
    labelled_features,
    map_classify_batch,
    map_classify_masked,
    min_md,
    sample_arrays,
)
from .streams import spawned_generators
from .validation import (
    NonConvergenceError,
    ValidationError,
    check_count,
    check_db,
    check_list,
    check_real,
)

WORKERS_ENV = "ISEASIM_WORKERS"

# SeedSequence spawn-key domains
_DOM_SENSING = 1
_DOM_TRIAL = 2
_DOM_CALIBRATION = 3
_DOM_COMPARE = 5

# Guard so estimate variances entering a solver stay positive.
_EST_VAR_FLOOR = 1e-12

SWEEP_VARIABLES = ("comm_snr", "sensing_snr", "K")
# ExperimentConfig fields that count something and must be integers >= 1.
_COUNT_FIELDS = ("num_classes", "feature_dim", "num_devices", "num_subcarriers",
                 "trials", "calibration_samples")
# The reference prior (`default_prior`): the seed of its mean layout and
# the minimum Mahalanobis distance between its class means.
PRIOR_SEED = 1234
MIN_MD_TARGET = 4.0
# Per-device sensing SNRs are drawn within this factor of each other.
SENSING_SPREAD = 2.0
# Gated decode erases an element whose post-decode noise variance exceeds
# this many mean prior variances.
ERASURE_FACTOR = 9.0
# A sweep point fails when more than this share of its trials miss the
# KKT gate.
EXCLUSION_LIMIT = 0.01

# A sweep runs its (point, trial) pairs as one stream of chunks of about
# this many trials, each solved by one `solve_batch` call per (K, M)
# shape.  The FDM polish pays its per-sweep numpy overhead once per chunk,
# so larger chunks cost less per trial (the reference sweep's trial stream
# on a 2-vCPU Xeon, numpy 2.4.6, best of 3 in each of two runs: at K = 3,
# 520-675 us a trial in chunks of 128, 172-186 at 2048, 128-166 at 4608;
# at K = 8, 300-376 us from 1024 up, with no trend beyond the run-to-run
# spread), while the chunk's working arrays grow by about 5 KiB a trial at
# K = 8 (peak RSS 45 MiB at 1024, 49 at 2048, 55 at 4096).  `calibrate`
# runs the estimator in blocks of this many samples too (at L = 5, M = 4,
# 2.4 ms per 10,000 rwb rows in blocks of 2048 or 4096, 2.8 at 1024, 5.2
# in one block).
CHUNK_TRIALS = 2048

# Default per-trial convergence gate (solver_opts["kkt_tol"]): the
# stationarity residual of flat power valleys dies out slowly, so the gate
# is looser than the 1e-6 solver-API default.  The objectives still move
# where the solver stops: 2,000 more plain sweeps raise fdm_md's MD by up
# to 6.0e-6 relative on the reference sweep, and lower fdm_mse's MSE by up
# to 1.1e-7.
KKT_GATE = 1e-4


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description; defaults mirror the reference setting
    (five classes, four features, three devices, noise power 0.1).  The
    prior is `default_prior(num_classes, feature_dim)`, and each device's
    sensing variance is drawn (`target_sensing_vars`) to hit the average
    sensing SNR `sensing_snr_db`.  noise_var must have a finite square
    > 0, as the solvers square it."""

    num_classes: int = 5
    feature_dim: int = 4
    num_devices: int = 3
    num_subcarriers: int = 4
    scheme: str = "fdm"
    estimator: str = "rwb"
    solver: str = "fdm_md"
    trials: int = 1000
    seed: int = 0
    noise_var: float = 0.1
    comm_snr_db: tuple = (-20.0, -10.0, 0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0)
    sensing_snr_db: float = 10.0
    calibration_samples: int = 10000
    workers: int = None
    solver_opts: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _COUNT_FIELDS:
            check_count(getattr(self, name), name)
        check_count(self.seed, "seed", 0)
        if self.workers is not None:
            check_count(self.workers, "workers")
        object.__setattr__(self, "comm_snr_db", tuple(
            check_db(v, "comm_snr_db") for v in check_list(self.comm_snr_db, "comm_snr_db")))
        noise_var = check_real(self.noise_var, "noise_var", 0, strict=True)
        if not 0.0 < noise_var * noise_var < math.inf:
            raise ValidationError(
                "noise_var must have a finite square > 0 (about 1.6e-162 to 1.3e154), "
                f"got {noise_var!r}")
        check_db(self.sensing_snr_db, "sensing_snr_db")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if self.feature_dim > self.num_subcarriers:
            raise ValidationError(
                f"feature_dim {self.feature_dim} must not exceed "
                f"num_subcarriers {self.num_subcarriers}"
            )
        if self.estimator not in ESTIMATOR_TAGS:
            raise ValidationError(f"unknown estimator {self.estimator!r}")
        if self.solver not in solvers.SOLVER_NAMES:
            raise ValidationError(f"unknown solver {self.solver!r}")
        if self.scheme == "fdm" and self.solver in solvers.TDM_SOLVERS:
            raise ValidationError(
                f"solver {self.solver!r} designs one TDM slot and cannot serve "
                "scheme 'fdm', whose subcarriers fade independently"
            )
        if not isinstance(self.solver_opts, dict):
            raise ValidationError(f"solver_opts must be a JSON object, got {self.solver_opts!r}")
        unknown = sorted(set(self.solver_opts) - {"kkt_tol"})
        if unknown:
            raise ValidationError(
                f"unknown solver_opts keys: {unknown}; only 'kkt_tol' is accepted"
            )
        # A negative gate is valid: it marks every trial as not converged.
        check_real(self.solver_opts.get("kkt_tol", KKT_GATE), "solver_opts kkt_tol")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
        return cls(**data)


@dataclass
class MetricsRecord:
    """Aggregate metrics of one sweep point.

    acc_std follows the unbiased sample standard deviation of the
    per-trial 0/1 correctness indicators; confusion rows are true labels,
    columns predictions, both 1-based.
    """

    sweep_value: float
    acc_mean: float
    acc_std: float
    mse_mean: float
    md_mean: float
    confusion: np.ndarray
    n_trials: int
    n_excluded: int
    ideal_acc_mean: float = float("nan")
    clean_acc_mean: float = float("nan")


def default_prior(num_classes: int = 5, feature_dim: int = 4) -> GaussianMixturePrior:
    """Synthetic prior: unit variances, uniform mixing, class means laid
    out as independently permuted equally spaced grids per dimension with
    Gaussian jitter (standard deviation 0.15) seeded by PRIOR_SEED,
    dimension scales decaying by a factor 0.7 per dimension, and a global
    rescale that pins the minimum pairwise Mahalanobis distance to
    MIN_MD_TARGET.

    The graded-grid layout mirrors the geometry of principal-component
    features: leading dimensions separate every class pair more than
    trailing ones, so the per-dimension minimum squared mean gap ranks
    dimensions by their real discriminative value.
    """
    rng = np.random.default_rng(PRIOR_SEED)
    grid = np.arange(num_classes, dtype=np.float64)
    grid -= grid.mean()
    means = np.empty((num_classes, feature_dim))
    for m in range(feature_dim):
        layout = rng.permutation(grid) + 0.15 * rng.standard_normal(num_classes)
        means[:, m] = layout * 0.7 ** m
    means -= means.mean(axis=0)
    prior0 = GaussianMixturePrior(
        means=means,
        variances=np.ones(feature_dim),
        mixing=np.full(num_classes, 1.0 / num_classes),
    )
    if num_classes > 1:
        gmin, _ = min_md(prior0)
        means = means * np.sqrt(MIN_MD_TARGET / gmin)
    return GaussianMixturePrior(
        means=means,
        variances=np.ones(feature_dim),
        mixing=np.full(num_classes, 1.0 / num_classes),
    )


def target_sensing_vars(prior: GaussianMixturePrior, num_devices: int,
                        snr_db: float, seed) -> np.ndarray:
    """Per-device sensing noise variances hitting the average receive
    sensing SNR exactly: the per-device SNR ratios are drawn uniformly
    within a factor SENSING_SPREAD and renormalized so their mean equals
    the target."""
    if num_devices < 1:
        raise ValidationError(f"num_devices must be >= 1, got {num_devices}")
    mean_var = float(np.mean(prior.variances))
    rng = np.random.default_rng(seed)
    rho = rng.uniform(1.0 / SENSING_SPREAD, SENSING_SPREAD, size=num_devices)
    ratios = (10.0 ** (snr_db / 10.0)) * num_devices * rho / rho.sum()
    return mean_var / ratios


@dataclass(frozen=True)
class Calibration:
    """Offline statistics fed to the solvers: per-device average posterior
    variances sigma_hat^2 and empirical second moments nu^2, both (K, M)."""

    sigma_hat: np.ndarray
    nu2: np.ndarray


def calibrate(prior: GaussianMixturePrior, sensing_vars, estimator: str,
              n_samples: int, seed) -> Calibration:
    """Estimate sigma_hat^2 (mean posterior variance) and nu^2 (mean
    squared estimate) per device and feature dimension from a seeded
    offline sample run.

    The estimator runs on blocks of CHUNK_TRIALS samples, so its
    class-major working arrays (L * M doubles a sample each) stay the size
    of one block however many samples there are.  The blocks fill one
    C-ordered (n_samples, M) array each of estimates and posterior
    variances, whose means over all samples are taken at once: blocking
    does not move a bit."""
    sensing_vars = np.asarray(sensing_vars, dtype=np.float64)
    K = sensing_vars.shape[0]
    M = prior.feature_dim
    ss = np.random.SeedSequence(seed) if not isinstance(seed, np.random.SeedSequence) else seed
    children = ss.spawn(K + 1)
    labels, X = sample_arrays(prior, n_samples, children[0])
    sigma_hat = np.empty((K, M))
    nu2 = np.empty((K, M))
    X_hat = np.empty((n_samples, M))
    pv = np.empty((n_samples, M))
    for k in range(K):
        X_tilde = observe_batch(X, sensing_vars[k], children[k + 1])
        for lo in range(0, n_samples, CHUNK_TRIALS):
            block = slice(lo, lo + CHUNK_TRIALS)
            X_hat[block], pv[block] = estimate_batch(
                estimator, prior, X_tilde[block], sensing_vars[k], labels=labels[block])
        sigma_hat[k] = np.maximum(pv.mean(axis=0), _EST_VAR_FLOOR)
        nu2[k] = np.maximum((X_hat * X_hat).mean(axis=0), _EST_VAR_FLOOR)
    return Calibration(sigma_hat=sigma_hat, nu2=nu2)


@dataclass(frozen=True)
class TrialContext:
    """Everything a worker needs to run trials of one sweep point."""

    prior: GaussianMixturePrior
    sensing_vars: np.ndarray
    budgets: np.ndarray
    noise_var: float
    scheme: str
    estimator: str
    solver: str
    num_subcarriers: int
    sigma_hat: np.ndarray
    nu2: np.ndarray
    delta: np.ndarray
    design_stats: tuple
    seed: int
    value_index: int
    kkt_tol: float


def power_budgets(config: ExperimentConfig, snr_db: float) -> np.ndarray:
    """Per-device power budgets P_k = noise_var * 10^(snr_db / 10) that
    set the communication SNR."""
    return np.full(config.num_devices, config.noise_var * 10.0 ** (snr_db / 10.0))


def build_context(config: ExperimentConfig, variable: str, value,
                  value_index: int) -> TrialContext:
    """Prior, sensing variances, power budgets and calibration of sweep
    point `value_index`, where `variable` takes `value`.  Sweeps other than
    comm_snr run at the config's one comm_snr_db value, and draw each
    point's sensing variances; a comm_snr sweep draws one set for all its
    points."""
    cfg = config
    if variable == "comm_snr":
        pass
    elif variable == "sensing_snr":
        cfg = replace(cfg, sensing_snr_db=value)
    elif variable == "K":
        cfg = replace(cfg, num_devices=value)
    else:
        raise ValidationError(
            f"unknown sweep variable {variable!r}; expected one of {SWEEP_VARIABLES}"
        )

    prior = default_prior(cfg.num_classes, cfg.feature_dim)
    draw_index = 0 if variable == "comm_snr" else value_index
    sensing_vars = target_sensing_vars(
        prior, cfg.num_devices, cfg.sensing_snr_db,
        np.random.SeedSequence(cfg.seed, spawn_key=(_DOM_SENSING, draw_index)),
    )

    if variable == "comm_snr":
        snr_db = float(value)
    elif len(cfg.comm_snr_db) == 1:
        snr_db = cfg.comm_snr_db[0]
    else:
        raise ValidationError(
            f"a {variable} sweep needs exactly one comm_snr_db value, "
            f"got {len(cfg.comm_snr_db)}"
        )
    budgets = power_budgets(cfg, snr_db)

    cal = calibrate(
        prior, sensing_vars, cfg.estimator, cfg.calibration_samples,
        np.random.SeedSequence(cfg.seed, spawn_key=(_DOM_CALIBRATION, value_index)),
    )
    finite = np.isfinite(cal.sigma_hat).all(axis=1) & np.isfinite(cal.nu2).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValidationError(
            f"calibration of device {k} at sweep point {value_index} ({variable}={value!r}, "
            f"sensing variance {float(sensing_vars[k])!r}) gave non-finite statistics: "
            f"sigma_hat^2 {cal.sigma_hat[k].tolist()}, nu^2 {cal.nu2[k].tolist()}")
    delta = discriminative_prior(prior) if prior.num_classes > 1 \
        else np.zeros(prior.feature_dim)
    # (moments, est_vars, delta) the solver designs against: per feature
    # dimension, or for the TDM closed forms one slot of per-device
    # averages over the dimensions (pooled over devices for tdm_md, whose
    # closed form needs homogeneous variances).
    design_stats = (cal.nu2, cal.sigma_hat, delta)
    if cfg.solver in solvers.TDM_SOLVERS:
        sv_slot = cal.sigma_hat.mean(axis=1, keepdims=True)
        if cfg.solver == "tdm_md":
            sv_slot = np.full_like(sv_slot, sv_slot.mean())
        design_stats = (cal.nu2.mean(axis=1, keepdims=True), sv_slot,
                        np.array([delta.mean()]))
    return TrialContext(
        prior=prior, sensing_vars=sensing_vars, budgets=budgets,
        noise_var=cfg.noise_var, scheme=cfg.scheme, estimator=cfg.estimator,
        solver=cfg.solver, num_subcarriers=cfg.num_subcarriers,
        sigma_hat=cal.sigma_hat, nu2=cal.nu2, delta=delta,
        design_stats=design_stats, seed=cfg.seed, value_index=value_index,
        kkt_tol=float(cfg.solver_opts.get("kkt_tol", KKT_GATE)),
    )


def _pooled_slot(ctx: TrialContext) -> tuple:
    """tdm-compare's slot for both TDM designs: est_vars pooled over the
    devices and dimensions at once."""
    return (ctx.nu2.mean(axis=1, keepdims=True),
            np.full((ctx.nu2.shape[0], 1), ctx.sigma_hat.mean()), np.array([ctx.delta.mean()]))


# ---------------------------------------------------------------------------
# batched trial execution
# ---------------------------------------------------------------------------

def _draw_trials(ctx: TrialContext, trial_indices):
    """Per-trial seeded draws: labels, features, sensing noise, channel
    gains and receiver noise.  Each trial owns four streams, the
    SeedSequence(seed, spawn_key=(_DOM_TRIAL, value_index, trial, j))
    children j = 0..3 of the root seed, so the draws never depend on batch
    composition; `spawned_generators` seeds all of them in one pass.  The
    loop only draws each trial's raw variates; labels and the scaled and
    shifted arrays are then formed for all trials at once, by the same
    elementwise operations, so with the same bits.  A label and its
    feature come from one uniform and M normals, as in `sample_arrays`
    (`labelled_features`)."""
    prior = ctx.prior
    K, M = ctx.sensing_vars.shape[0], prior.feature_dim
    N = 1 if ctx.scheme == "tdm" else ctx.num_subcarriers  # a TDM slot fades flat
    T = len(trial_indices)
    u = np.empty(T)
    z_feat = np.empty((T, M))
    z_sense = np.empty((T, K, M))
    gains = np.empty((T, K, N))
    z_comm = np.empty((T, M))
    sigma_r = np.sqrt(0.5)  # unit-scale Rayleigh magnitudes, E[gain^2] = 1
    trials = np.asarray(trial_indices)
    if trials.dtype.kind != "i":  # an empty range, or indices past int64
        trials = np.array([operator.index(t) for t in trial_indices], dtype=object)
    keys = np.zeros((T, 4, 4), dtype=trials.dtype)
    keys[:, :, :2] = _DOM_TRIAL, ctx.value_index
    keys[:, :, 2] = trials.reshape(T, 1)
    keys[:, :, 3] = np.arange(4)
    rngs = spawned_generators(ctx.seed, keys.reshape(4 * T, 4))
    for i in range(T):
        feat, sense, chan, comm = islice(rngs, 4)
        u[i] = feat.random()
        feat.standard_normal(out=z_feat[i])
        sense.standard_normal(out=z_sense[i])
        gains[i] = chan.rayleigh(scale=sigma_r, size=(K, N))
        comm.standard_normal(out=z_comm[i])
    labels, X = labelled_features(prior, u, z_feat)
    X_tilde = X[:, None, :] + z_sense * np.sqrt(ctx.sensing_vars)[:, None]
    if ctx.scheme == "tdm":
        gains = np.repeat(gains, ctx.num_subcarriers, axis=2)
    return labels, X, X_tilde, gains, z_comm * np.sqrt(ctx.noise_var)


def _estimate_all(ctx: TrialContext, labels, X_tilde):
    """Run the configured estimator per device; returns (T, K, M)."""
    T, K, M = X_tilde.shape
    X_hat = np.empty((T, K, M))
    for k in range(K):
        X_hat[:, k, :], _ = estimate_batch(
            ctx.estimator, ctx.prior, X_tilde[:, k, :], ctx.sensing_vars[k],
            labels=labels)
    return X_hat


def _solve_rows(name, ctxs, gains) -> list:
    """One (tx, rx, kkt) per context of one `solve_batch(name, ...)` call
    on the trials `gains[i]` (T_i, K, M) of each `ctxs[i]`, each row with
    its context's budgets, noise and design statistics (whose S columns
    broadcast over the M features)."""
    sizes = [g.shape[0] for g in gains]

    def rows(values):  # each context's value, once per trial
        return np.repeat(np.asarray(values, dtype=np.float64), sizes, axis=0)

    stats = [ctx.design_stats for ctx in ctxs]
    t, r, k = solvers.solve_batch(
        name, np.concatenate(gains), rows([ctx.budgets for ctx in ctxs]),
        rows([s[0] for s in stats]), rows([s[1] for s in stats]),
        rows([ctx.noise_var for ctx in ctxs]), rows([s[2] for s in stats]))
    bounds = np.cumsum(sizes)[:-1]
    return list(zip(np.split(t, bounds), np.split(r, bounds), np.split(k, bounds)))


def _solve_designs(ctxs, gains):
    """Designs for the trials of one chunk: `gains[i]` (T_i, K, M) holds
    the used channel gains of the trials of context `ctxs[i]`.  The trials
    of every context that shares a solver and a (K, M) shape are solved by
    one `_solve_rows` call.  The TDM closed forms run per trial through
    `tdm_*_optimal` (`solve_batch` at B=1), whose calls the perfbench
    trace counts per trial.

    Returns (tx, rx, kkt): one tx (T_i, K, M) and rx (T_i, M) per context
    and kkt flat over the chunk, in context order.  Per-trial results do
    not depend on the chunking, because `solve_batch`'s do not."""
    tx, rx, kkt = [None] * len(ctxs), [None] * len(ctxs), [None] * len(ctxs)
    groups = {}
    for i, (ctx, g) in enumerate(zip(ctxs, gains)):
        if ctx.solver not in solvers.TDM_SOLVERS:
            groups.setdefault((ctx.solver, g.shape[1:]), []).append(i)
            continue
        moments, est_vars, delta = ctx.design_stats
        solve_one = solvers.tdm_mse_optimal if ctx.solver == "tdm_mse" else solvers.tdm_md_optimal
        T, K, M = g.shape
        t, r, k = np.empty((T, K, 1)), np.empty((T, 1)), np.empty(T)
        for j in range(T):
            report = solve_one(solvers.TdmInstance(
                gains=g[j, :, 0], budgets=ctx.budgets, moments=moments[:, 0],
                est_vars=est_vars[:, 0], noise_var=ctx.noise_var, delta=float(delta[0])))
            t[j], r[j], k[j] = report.design.tx, report.design.rx, report.kkt_residual
        tx[i], rx[i], kkt[i] = np.broadcast_to(t, (T, K, M)), np.broadcast_to(r, (T, M)), k
    for (name, _), members in groups.items():
        solved = _solve_rows(name, [ctxs[i] for i in members], [gains[i] for i in members])
        for i, (t, r, k) in zip(members, solved):
            tx[i], rx[i], kkt[i] = t, r, k
    return tx, rx, np.concatenate(kkt)


def _scores(gains, tx, rx, est_vars, noise_var, delta):
    """Per-trial analytic MSE at the receive coefficients, and received
    MD summed over subcarriers, of the designs (tx, rx) on `gains`."""
    return (mse_at_rx(gains, tx, rx, est_vars, noise_var),
            np.sum(md_received(gains, tx, est_vars, noise_var, delta), axis=1))


def _decode(ctx: TrialContext, y_hat, rx, hb):
    """Gated decode of the aggregated receive vector; returns (decoded,
    observed_mask).

    Each element is divided by the known aggregate gain g_n = a_n sum_k h b
    (an unbiased convex combination of the device estimates; g_n = K under
    exact unit-target alignment).  Elements whose post-decode noise
    variance (a_n sigma_w / g_n)^2 exceeds ERASURE_FACTOR times the mean
    prior variance carry noise rather than signal: they are marked
    unobserved and set to 0, and the classifier marginalizes them out.
    """
    gain = rx * np.sum(hb, axis=1)
    safe = np.where(gain > 0, gain, 1.0)
    with np.errstate(over="ignore"):
        noise_var = np.where(gain > 0, (rx / safe) ** 2 * ctx.noise_var, np.inf)
    observed = noise_var <= ERASURE_FACTOR * float(np.mean(ctx.prior.variances))
    return np.where(observed, y_hat / safe, 0.0), observed


def run_trials_batch(segments) -> list:
    """Execute the full chain for one chunk of trials.  `segments` lists
    (ctx, trial_indices) pairs, which may belong to different sweep
    points; each segment is drawn, estimated, decoded and classified on
    its own context, and `_solve_designs` solves the designs of the whole
    chunk at once.  Returns one dict per segment of per-trial arrays
    (labels, predictions, analytic MSE and MD of the solved designs,
    convergence flags, plus the paired noise-free-channel and
    clean-feature predictions)."""
    drawn = []
    for ctx, trial_indices in segments:
        labels, X, X_tilde, gains, w = _draw_trials(ctx, trial_indices)
        X_hat = _estimate_all(ctx, labels, X_tilde)
        drawn.append((labels, X, X_hat, gains[:, :, :ctx.prior.feature_dim], w))
    tx_all, rx_all, kkt_all = _solve_designs([ctx for ctx, _ in segments],
                                             [d[3] for d in drawn])
    outs = []
    start = 0
    for (ctx, _), (labels, X, X_hat, gains_used, w), tx, rx in zip(segments, drawn,
                                                                   tx_all, rx_all):
        prior = ctx.prior
        kkt = kkt_all[start:start + labels.size]
        start += labels.size
        hb = gains_used * tx                                         # (T, K, M)
        y_raw = np.sum(hb * X_hat, axis=1) + w                       # (T, M)
        y_hat = rx * y_raw
        decoded, observed = _decode(ctx, y_hat, rx, hb)

        preds = map_classify_masked(prior, decoded, observed)
        ideal_preds = map_classify_batch(prior, X_hat.mean(axis=1))
        clean_preds = map_classify_batch(prior, X)

        mse, md = _scores(gains_used, tx, rx, ctx.sigma_hat, ctx.noise_var, ctx.delta)
        outs.append({
            "labels": labels, "preds": preds, "mse": mse, "md": md,
            "converged": kkt <= ctx.kkt_tol, "ideal_preds": ideal_preds,
            "clean_preds": clean_preds,
        })
    return outs


def run_trial(config: ExperimentConfig, trial_seed: int,
              comm_snr_db=None) -> tuple:
    """Single-trial reference path: returns (true label, predicted label,
    analytic total MSE, total received MD).  trial_seed is the trial
    index inside the root seed's stream."""
    trial_seed = check_count(trial_seed, "trial_seed", 0)
    value = config.comm_snr_db[0] if comm_snr_db is None \
        else check_db(comm_snr_db, "comm_snr_db")
    ctx = build_context(config, "comm_snr", value, 0)
    out, = run_trials_batch([(ctx, [trial_seed])])
    if not out["converged"][0]:
        raise NonConvergenceError(
            f"trial {trial_seed}: solver failed to converge"
        )
    return (int(out["labels"][0]), int(out["preds"][0]),
            float(out["mse"][0]), float(out["md"][0]))


# ---------------------------------------------------------------------------
# sweeps and reductions
# ---------------------------------------------------------------------------

def _resolve_workers(config: ExperimentConfig) -> int:
    if config.workers is not None:
        return config.workers
    env = os.environ.get(WORKERS_ENV, "").strip()
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = env
    return check_count(workers, WORKERS_ENV)


def _chunks(points: int, trials: int, workers: int) -> list:
    """The (point, trial) pairs of a sweep, point-major, cut into
    max(workers, ceil(total / CHUNK_TRIALS)) near-equal contiguous chunks
    that may cross point boundaries.  Each chunk is a list of (point, lo,
    hi) segments, one per point it touches, trials lo..hi-1."""
    total = points * trials
    n_chunks = max(workers, -(-total // CHUNK_TRIALS))
    bounds = [c * total // n_chunks for c in range(n_chunks + 1)]
    chunks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            chunks.append([(p, max(lo - p * trials, 0), min(hi - p * trials, trials))
                           for p in range(lo // trials, (hi - 1) // trials + 1)])
    return chunks


def _gate(converged, variable, value, solver) -> int:
    """The number of trials that miss the KKT gate, or a
    NonConvergenceError when more than EXCLUSION_LIMIT of them do."""
    n_total = converged.size
    n_excluded = int(n_total - np.count_nonzero(converged))
    if n_excluded > EXCLUSION_LIMIT * n_total:
        raise NonConvergenceError(
            f"{variable}={value}: {n_excluded}/{n_total} trials of solver "
            f"{solver!r} failed to converge (limit {EXCLUSION_LIMIT:.0%})"
        )
    return n_excluded


def _reduce(config: ExperimentConfig, variable: str, value, out: dict) -> MetricsRecord:
    converged = out["converged"]
    n_excluded = _gate(converged, variable, value, config.solver)
    labels = out["labels"][converged]
    preds = out["preds"][converged]
    confusion = np.zeros((config.num_classes, config.num_classes), dtype=np.int64)
    np.add.at(confusion, (labels - 1, preds - 1), 1)
    n = labels.size
    acc = float(np.trace(confusion)) / n
    correct = (labels == preds).astype(np.float64)
    if n > 1:
        var = math.fsum((correct - acc) ** 2) / (n - 1)
        acc_std = float(np.sqrt(max(var, 0.0)))
    else:
        acc_std = 0.0
    mse_mean = math.fsum(out["mse"][converged]) / n
    md_mean = math.fsum(out["md"][converged]) / n
    ideal_acc = float(np.mean(out["ideal_preds"][converged] == labels))
    clean_acc = float(np.mean(out["clean_preds"][converged] == labels))
    return MetricsRecord(
        sweep_value=float(value), acc_mean=acc, acc_std=acc_std,
        mse_mean=float(mse_mean), md_mean=float(md_mean),
        confusion=confusion, n_trials=int(n), n_excluded=n_excluded,
        ideal_acc_mean=ideal_acc, clean_acc_mean=clean_acc,
    )


def _stream(config: ExperimentConfig, ctxs, kernel) -> list:
    """`config.trials` trials of each of `ctxs`, run as one stream of
    chunks (`_chunks`), in turn or on one process pool, by `kernel`: one
    dict of per-trial arrays per context, joined in trial order."""
    workers = _resolve_workers(config)
    chunks = _chunks(len(ctxs), config.trials, workers)
    batches = [[(ctxs[p], range(lo, hi)) for p, lo, hi in chunk] for chunk in chunks]
    if workers <= 1:
        results = map(kernel, batches)
    else:
        # Imported here: a serial run does not pay for loading multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(batches))) as pool:
            results = list(pool.map(kernel, batches))
    parts = [[] for _ in ctxs]
    for chunk, outs in zip(chunks, results):
        for (p, _, _), out in zip(chunk, outs):
            parts[p].append(out)
    return [{key: np.concatenate([o[key] for o in outs]) for key in outs[0]}
            for outs in parts]


def sweep(config: ExperimentConfig, variable: str, values=None) -> list:
    """One MetricsRecord per swept value.  Every point's context is built
    first; the trials of all points then run through `run_trials_batch`
    on one stream (`_stream`), and each point's per-trial outputs are
    reduced in trial order."""
    if variable not in SWEEP_VARIABLES:
        raise ValidationError(
            f"unknown sweep_variable {variable!r}; expected one of {SWEEP_VARIABLES}")
    if values is None:
        if variable != "comm_snr":
            raise ValidationError(f"sweep_values must be given for a {variable} sweep")
        values = config.comm_snr_db
    check = check_count if variable == "K" else check_db
    values = [check(value, "sweep_values") for value in check_list(values, "sweep_values")]
    ctxs = [build_context(config, variable, value, v_idx)
            for v_idx, value in enumerate(values)]
    return [_reduce(config, variable, value, out)
            for value, out in zip(values, _stream(config, ctxs, run_trials_batch))]


def _compare_draws(seed, value_index, trial_indices, size) -> np.ndarray:
    """(T, *size) unit-scale Rayleigh gains of the given trials of
    comm-SNR point `value_index`, trial i drawn from the
    SeedSequence(seed, spawn_key=(_DOM_COMPARE, value_index, i)) stream."""
    keys = np.zeros((len(trial_indices), 3), dtype=np.int64)
    keys[:, :2] = _DOM_COMPARE, value_index
    keys[:, 2] = trial_indices
    return np.stack([rng.rayleigh(scale=np.sqrt(0.5), size=size)
                     for rng in spawned_generators(seed, keys)])


def _compare_batch(names, segments) -> list:
    """One chunk of a compare run: per segment, the (name, "mse"), (name,
    "md") and (name, "converged") of each design in `names`, solved for
    the whole chunk by one `_solve_rows` call."""
    ctxs = [ctx for ctx, _ in segments]
    gains = [_compare_draws(ctx.seed, ctx.value_index, trials, ctx.design_stats[0].shape)
             for ctx, trials in segments]
    outs = [{} for _ in segments]
    for name in names:
        for out, ctx, g, (tx, rx, kkt) in zip(outs, ctxs, gains, _solve_rows(name, ctxs, gains)):
            _, est_vars, delta = ctx.design_stats
            out[name, "mse"], out[name, "md"] = _scores(g, tx, rx, est_vars, ctx.noise_var, delta)
            out[name, "converged"] = kkt <= ctx.kkt_tol
    return outs


def compare(config: ExperimentConfig, names) -> list:
    """One row [mse, md, mse, md, ...] per comm_snr_db point: each design
    in `names`'s means over the trials inside its KKT gate.  Every point
    shares the calibration of value index 0 (it does not depend on the
    comm SNR), and the trials run on the sweep's stream."""
    ctx = build_context(config, "comm_snr", 0.0, 0)
    if config.scheme == "tdm":
        ctx = replace(ctx, design_stats=_pooled_slot(ctx))
    ctxs = [replace(ctx, budgets=power_budgets(config, snr_db), value_index=v_idx)
            for v_idx, snr_db in enumerate(config.comm_snr_db)]
    rows = []
    for snr_db, out in zip(config.comm_snr_db,
                           _stream(config, ctxs, partial(_compare_batch, tuple(names)))):
        rows.append([])
        for name in names:
            keep = out[name, "converged"]
            _gate(keep, "comm_snr", snr_db, name)
            rows[-1] += [math.fsum(out[name, stat][keep]) / np.count_nonzero(keep)
                         for stat in ("mse", "md")]
    return rows


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def fmt(x) -> str:
    """A CSV number: nine significant digits."""
    return "%.9g" % float(x)


def write_csv(path, header, rows) -> None:
    """Write `header` and `rows` to `path` as CSV with LF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def confusion_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_confusion{ext or '.csv'}"


def export(records, path) -> None:
    """Write the metrics CSV (header sweep_value,acc_mean,acc_std,
    mse_mean,md_mean) plus a companion confusion-count CSV.  Numeric
    fields carry nine significant digits; output bytes depend only on the
    record contents."""
    write_csv(path, ["sweep_value", "acc_mean", "acc_std", "mse_mean", "md_mean"],
              [[fmt(r.sweep_value), fmt(r.acc_mean), fmt(r.acc_std), fmt(r.mse_mean),
                fmt(r.md_mean)] for r in records])
    L = records[0].confusion.shape[0] if records else 0
    write_csv(confusion_path(path),
              ["sweep_value", "true_label"] + [f"pred_{j}" for j in range(1, L + 1)],
              [[fmt(r.sweep_value), label] + [int(c) for c in counts]
               for r in records for label, counts in enumerate(r.confusion, start=1)])


def read_metrics_csv(path) -> list:
    """Parse the main metrics CSV back into rows of floats."""
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            out.append({key: float(val) for key, val in zip(header, row)})
    return out


# ---------------------------------------------------------------------------
# estimator comparison protocol (noise-free aggregation)
# ---------------------------------------------------------------------------

@dataclass
class EstimatorSweepRecord:
    """One sensing-SNR point of the estimator comparison: per-estimator
    per-device estimation MSE against the true feature (the quantity the
    closed forms describe), accuracy of the posterior classifier on the
    noise-free aggregate, and the paired standard errors of the MSE gaps
    used by the ordering checks."""

    sensing_snr_db: float
    mse: dict
    acc: dict
    acc_std: dict
    se_gap_rwb_ml: float
    se_gap_mmse_rwb: float


_DOM_EST_SWEEP = 4


def estimator_sweep(prior: GaussianMixturePrior, num_devices: int,
                    snr_grid_db, trials: int, seed: int) -> list:
    """Noise-free-aggregation comparison of the three estimators.

    Sensing noise variances are equal across devices at each grid point
    (the comparison isolates the estimator); all estimators see the same
    observations, so the MSE gaps are paired.
    """
    check_count(num_devices, "num_devices")
    check_count(trials, "trials")
    check_count(seed, "seed", 0)
    snr_grid_db = [check_db(v, "sensing_snr_grid_db")
                   for v in check_list(snr_grid_db, "sensing_snr_grid_db")]
    records = []
    mean_var = float(np.mean(prior.variances))
    for v_idx, snr_db in enumerate(snr_grid_db):
        svar = mean_var / 10.0 ** (snr_db / 10.0)
        ss = np.random.SeedSequence(seed, spawn_key=(_DOM_EST_SWEEP, v_idx))
        children = ss.spawn(1 + num_devices)
        labels, X = sample_arrays(prior, trials, children[0])
        X_tilde = np.empty((trials, num_devices, prior.feature_dim))
        for k in range(num_devices):
            X_tilde[:, k, :] = observe_batch(X, svar, children[k + 1])
        per_trial_mse = {}
        acc = {}
        acc_std = {}
        for tag in ("ml", "rwb", "mmse"):
            X_hat = np.empty_like(X_tilde)
            for k in range(num_devices):
                X_hat[:, k, :], _ = estimate_batch(
                    tag, prior, X_tilde[:, k, :], svar, labels=labels)
            agg = X_hat.mean(axis=1)
            per_trial_mse[tag] = np.mean((X_hat - X[:, None, :]) ** 2, axis=(1, 2))
            correct = (map_classify_batch(prior, agg) == labels).astype(float)
            acc[tag] = float(correct.mean())
            acc_std[tag] = float(correct.std(ddof=1)) if trials > 1 else 0.0
        gap1 = per_trial_mse["rwb"] - per_trial_mse["ml"]
        gap2 = per_trial_mse["mmse"] - per_trial_mse["rwb"]
        records.append(EstimatorSweepRecord(
            sensing_snr_db=float(snr_db),
            mse={tag: float(v.mean()) for tag, v in per_trial_mse.items()},
            acc=acc, acc_std=acc_std,
            se_gap_rwb_ml=float(gap1.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
            se_gap_mmse_rwb=float(gap2.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        ))
    return records


def export_estimator_sweep(records, path) -> None:
    tags, per_tag = ("ml", "rwb", "mmse"), ("mse", "acc", "acc_std")
    header = (["sensing_snr_db"] + [f"{col}_{tag}" for col in per_tag for tag in tags]
              + ["se_gap_rwb_ml", "se_gap_mmse_rwb"])
    write_csv(path, header, [
        [fmt(r.sensing_snr_db)] + [fmt(getattr(r, col)[tag]) for col in per_tag for tag in tags]
        + [fmt(r.se_gap_rwb_ml), fmt(r.se_gap_mmse_rwb)] for r in records])
