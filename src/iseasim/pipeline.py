"""End-to-end Monte Carlo experiment runner.

Each trial walks the full chain: draw a labeled feature, observe it at
every device through sensing noise, estimate locally, solve the
transceiver design for a fresh channel draw, aggregate over the air,
decode, classify.  Sweeps run independent trial batches per swept value
and reduce them into MetricsRecord rows for CSV export.

Determinism: every random quantity flows from the root seed through
numpy SeedSequence spawn keys of the form (domain, value_index,
trial_index), so a trial's draws do not depend on how trials are batched
or distributed across worker processes.  Metric reductions are exactly
rounded sums (math.fsum), and confusion counts are exact integers.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import solvers
from .channel import SCHEMES, md_received, mse_at_rx
from .estimators import ESTIMATOR_TAGS, estimate_batch, observe_batch
from .prior import (
    GaussianMixturePrior,
    discriminative_prior,
    map_classify_batch,
    map_classify_masked,
    min_md,
    sample_arrays,
)
from .validation import (
    NonConvergenceError,
    ValidationError,
    check_count,
    check_list,
    check_real,
    check_reals,
)

WORKERS_ENV = "ISEASIM_WORKERS"

# SeedSequence spawn-key domains
_DOM_SENSING = 1
_DOM_TRIAL = 2
_DOM_CALIBRATION = 3

# Guard so estimate variances entering a solver stay positive.
_EST_VAR_FLOOR = 1e-12

SWEEP_VARIABLES = ("comm_snr", "sensing_snr", "K", "N")
# ExperimentConfig fields that count something and must be integers >= 1.
_COUNT_FIELDS = ("num_classes", "feature_dim", "num_devices", "num_subcarriers",
                 "trials", "calibration_samples")
# Gated decode erases an element whose post-decode noise variance exceeds
# this many mean prior variances.
ERASURE_FACTOR = 9.0
# A sweep point fails when more than this share of its trials miss the
# KKT gate.
EXCLUSION_LIMIT = 0.01

# Default per-trial convergence gate (solver_opts["kkt_tol"]): the refined
# designs reach their objective to ~1e-8 well before the stationarity
# residual of flat power valleys dies out, so the gate is looser than the
# 1e-6 solver-API default.
KKT_GATE = 1e-4


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description; defaults mirror the reference setting
    (five classes, four features, three devices, noise power 0.1)."""

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
    sensing_vars: tuple = None
    prior_seed: int = 1234
    min_md_target: float = 4.0
    calibration_samples: int = 10000
    workers: int = None
    solver_opts: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _COUNT_FIELDS:
            check_count(getattr(self, name), name)
        for name in ("seed", "prior_seed"):
            check_count(getattr(self, name), name, 0)
        if self.workers is not None:
            check_count(self.workers, "workers")
        object.__setattr__(self, "comm_snr_db", check_reals(self.comm_snr_db, "comm_snr_db"))
        check_real(self.noise_var, "noise_var", 0, strict=True)
        check_real(self.min_md_target, "min_md_target", 0, strict=True)
        check_real(self.sensing_snr_db, "sensing_snr_db")
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
        if self.sensing_vars is not None:
            sv = check_reals(self.sensing_vars, "sensing_vars", 0)
            if len(sv) != self.num_devices:
                raise ValidationError(
                    f"sensing_vars must list one value per device, got {list(sv)}")
            object.__setattr__(self, "sensing_vars", sv)

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


def default_prior(num_classes: int = 5, feature_dim: int = 4,
                  min_md_target: float = 4.0, seed: int = 1234) -> GaussianMixturePrior:
    """Synthetic prior: unit variances, uniform mixing, class means laid
    out as independently permuted equally spaced grids per dimension with
    seeded Gaussian jitter (standard deviation 0.15), dimension scales
    decaying by a factor 0.7 per dimension, and a global rescale that pins
    the minimum pairwise Mahalanobis distance to min_md_target.

    The graded-grid layout mirrors the geometry of principal-component
    features: leading dimensions separate every class pair more than
    trailing ones, so the per-dimension minimum squared mean gap ranks
    dimensions by their real discriminative value.
    """
    check_real(min_md_target, "min_md_target", 0, strict=True)
    rng = np.random.default_rng(seed)
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
        means = means * np.sqrt(min_md_target / gmin)
    return GaussianMixturePrior(
        means=means,
        variances=np.ones(feature_dim),
        mixing=np.full(num_classes, 1.0 / num_classes),
    )


def target_sensing_vars(prior: GaussianMixturePrior, num_devices: int,
                        snr_db: float, seed, spread: float = 2.0) -> np.ndarray:
    """Per-device sensing noise variances hitting the average receive
    sensing SNR exactly: the per-device SNR ratios are drawn uniformly
    within a factor `spread` and renormalized so their mean equals the
    target."""
    if num_devices < 1:
        raise ValidationError(f"num_devices must be >= 1, got {num_devices}")
    if spread < 1.0:
        raise ValidationError(f"spread must be >= 1, got {spread!r}")
    mean_var = float(np.mean(prior.variances))
    rng = np.random.default_rng(seed)
    rho = rng.uniform(1.0 / spread, spread, size=num_devices)
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
    offline sample run."""
    sensing_vars = np.asarray(sensing_vars, dtype=np.float64)
    K = sensing_vars.shape[0]
    M = prior.feature_dim
    ss = np.random.SeedSequence(seed) if not isinstance(seed, np.random.SeedSequence) else seed
    children = ss.spawn(K + 1)
    labels, X = sample_arrays(prior, n_samples, children[0])
    sigma_hat = np.empty((K, M))
    nu2 = np.empty((K, M))
    for k in range(K):
        X_tilde = observe_batch(X, sensing_vars[k], children[k + 1])
        X_hat, pv = estimate_batch(estimator, prior, X_tilde, sensing_vars[k],
                                   labels=labels)
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
    comm_snr run at the config's one comm_snr_db value."""
    cfg = config
    if variable == "comm_snr":
        pass
    elif variable == "sensing_snr":
        cfg = replace(cfg, sensing_snr_db=value, sensing_vars=None)
    elif variable == "K":
        cfg = replace(cfg, num_devices=value, sensing_vars=None)
    elif variable == "N":
        cfg = replace(cfg, num_subcarriers=value)
    else:
        raise ValidationError(
            f"unknown sweep variable {variable!r}; expected one of {SWEEP_VARIABLES}"
        )

    prior = default_prior(cfg.num_classes, cfg.feature_dim, cfg.min_md_target,
                          cfg.prior_seed)
    if cfg.sensing_vars is not None:
        sensing_vars = np.asarray(cfg.sensing_vars, dtype=np.float64)
    else:
        draw_index = value_index if variable in ("sensing_snr", "K") else 0
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
    delta = discriminative_prior(prior).delta if prior.num_classes > 1 \
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


# ---------------------------------------------------------------------------
# batched trial execution
# ---------------------------------------------------------------------------

def _draw_trials(ctx: TrialContext, trial_indices):
    """Per-trial seeded draws: labels, features, sensing noise, channel
    gains and receiver noise.  Each trial owns four child streams so the
    draws never depend on batch composition."""
    prior = ctx.prior
    K, M, N = ctx.sensing_vars.shape[0], prior.feature_dim, ctx.num_subcarriers
    T = len(trial_indices)
    labels = np.empty(T, dtype=np.int64)
    X = np.empty((T, M))
    X_tilde = np.empty((T, K, M))
    gains = np.empty((T, K, N))
    w = np.empty((T, M))
    sigma_r = np.sqrt(0.5)  # unit-scale Rayleigh magnitudes, E[gain^2] = 1
    for i, t in enumerate(trial_indices):
        ss = np.random.SeedSequence(ctx.seed,
                                    spawn_key=(_DOM_TRIAL, ctx.value_index, int(t)))
        feat_ss, sense_ss, chan_ss, comm_ss = ss.spawn(4)
        rng = np.random.default_rng(feat_ss)
        labels[i] = rng.choice(prior.num_classes, p=prior.mixing) + 1
        X[i] = prior.means[labels[i] - 1] + rng.standard_normal(M) * np.sqrt(prior.variances)
        rng = np.random.default_rng(sense_ss)
        X_tilde[i] = X[i] + rng.standard_normal((K, M)) * np.sqrt(ctx.sensing_vars)[:, None]
        rng = np.random.default_rng(chan_ss)
        if ctx.scheme == "tdm":
            gains[i] = np.tile(rng.rayleigh(scale=sigma_r, size=(K, 1)), (1, N))
        else:
            gains[i] = rng.rayleigh(scale=sigma_r, size=(K, N))
        rng = np.random.default_rng(comm_ss)
        w[i] = rng.standard_normal(M) * np.sqrt(ctx.noise_var)
    return labels, X, X_tilde, gains, w


def _estimate_all(ctx: TrialContext, labels, X_tilde):
    """Run the configured estimator per device; returns (T, K, M)."""
    T, K, M = X_tilde.shape
    X_hat = np.empty((T, K, M))
    for k in range(K):
        X_hat[:, k, :], _ = estimate_batch(
            ctx.estimator, ctx.prior, X_tilde[:, k, :], ctx.sensing_vars[k],
            labels=labels)
    return X_hat


def _solve_designs(ctx: TrialContext, gains_used):
    """Designs for every trial on the context's design statistics, whose S
    columns (M, or one TDM slot) are broadcast over the M features.  The
    TDM closed forms run per trial through `tdm_*_optimal` (`solve_batch`
    at B=1), whose calls the perfbench trace counts per trial.

    Returns (tx (T,K,M), rx (T,M), kkt (T,)).  Per-trial results are
    bit-identical no matter how trials are chunked across workers.
    """
    moments, est_vars, delta = ctx.design_stats
    T, K, M = gains_used.shape
    if ctx.solver in solvers.TDM_SOLVERS:
        solve_one = solvers.tdm_mse_optimal if ctx.solver == "tdm_mse" else solvers.tdm_md_optimal
        tx, rx, kkt = np.empty((T, K, 1)), np.empty((T, 1)), np.empty(T)
        for i in range(T):
            report = solve_one(solvers.TdmInstance(
                gains=gains_used[i, :, 0], budgets=ctx.budgets, moments=moments[:, 0],
                est_vars=est_vars[:, 0], noise_var=ctx.noise_var, delta=float(delta[0])))
            tx[i], rx[i], kkt[i] = report.design.tx, report.design.rx, report.kkt_residual
    else:
        tx, rx, kkt = solvers.solve_batch(ctx.solver, gains_used, ctx.budgets, moments,
                                          est_vars, ctx.noise_var, delta)
    return np.broadcast_to(tx, (T, K, M)), np.broadcast_to(rx, (T, M)), kkt


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


def run_trials_batch(ctx: TrialContext, trial_indices) -> dict:
    """Execute the full chain for the given trial indices; returns
    per-trial arrays (labels, predictions, analytic MSE and MD of the
    solved designs, convergence flags, plus the paired noise-free-channel
    and clean-feature predictions)."""
    prior = ctx.prior
    labels, X, X_tilde, gains, w = _draw_trials(ctx, trial_indices)
    X_hat = _estimate_all(ctx, labels, X_tilde)
    M = prior.feature_dim
    gains_used = gains[:, :, :M]
    tx, rx, kkt = _solve_designs(ctx, gains_used)

    hb = gains_used * tx                                         # (T, K, M)
    y_raw = np.sum(hb * X_hat, axis=1) + w                       # (T, M)
    y_hat = rx * y_raw
    decoded, observed = _decode(ctx, y_hat, rx, hb)

    preds = map_classify_masked(prior, decoded, observed)
    ideal_preds = map_classify_batch(prior, X_hat.mean(axis=1))
    clean_preds = map_classify_batch(prior, X)

    mse = mse_at_rx(gains_used, tx, rx, ctx.sigma_hat, ctx.noise_var)
    md = np.sum(md_received(gains_used, tx, ctx.sigma_hat, ctx.noise_var, ctx.delta),
                axis=1)
    converged = kkt <= ctx.kkt_tol
    return {
        "labels": labels, "preds": preds, "mse": mse, "md": md,
        "converged": converged, "ideal_preds": ideal_preds,
        "clean_preds": clean_preds,
    }


def run_trial(config: ExperimentConfig, trial_seed: int,
              comm_snr_db=None) -> tuple:
    """Single-trial reference path: returns (true label, predicted label,
    analytic total MSE, total received MD).  trial_seed is the trial
    index inside the root seed's stream."""
    value = config.comm_snr_db[0] if comm_snr_db is None else comm_snr_db
    ctx = build_context(config, "comm_snr", value, 0)
    out = run_trials_batch(ctx, [int(trial_seed)])
    if not out["converged"][0]:
        raise NonConvergenceError(
            f"trial {trial_seed}: solver failed to converge"
        )
    return (int(out["labels"][0]), int(out["preds"][0]),
            float(out["mse"][0]), float(out["md"][0]))


# ---------------------------------------------------------------------------
# sweeps and reductions
# ---------------------------------------------------------------------------

def _worker_chunk(args):
    ctx, lo, hi = args
    return run_trials_batch(ctx, range(lo, hi))


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


def _run_value(ctx: TrialContext, trials: int, workers: int) -> dict:
    if workers <= 1:
        return run_trials_batch(ctx, range(trials))
    bounds = np.linspace(0, trials, workers + 1, dtype=int)
    chunks = [(ctx, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
              if hi > lo]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_worker_chunk, chunks))
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _reduce(config: ExperimentConfig, variable: str, value, out: dict) -> MetricsRecord:
    converged = out["converged"]
    n_total = converged.size
    n_excluded = int(n_total - np.count_nonzero(converged))
    if n_excluded > EXCLUSION_LIMIT * n_total:
        raise NonConvergenceError(
            f"{variable}={value}: {n_excluded}/{n_total} trials of solver "
            f"{config.solver!r} failed to converge (limit {EXCLUSION_LIMIT:.0%})"
        )
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


def sweep(config: ExperimentConfig, variable: str, values=None) -> list:
    """Independent Monte Carlo batches for each swept value."""
    if variable not in SWEEP_VARIABLES:
        raise ValidationError(
            f"unknown sweep_variable {variable!r}; expected one of {SWEEP_VARIABLES}")
    if values is None:
        if variable != "comm_snr":
            raise ValidationError(f"sweep_values must be given for a {variable} sweep")
        values = config.comm_snr_db
    check = check_count if variable in ("K", "N") else check_real
    values = [check(value, "sweep_values") for value in check_list(values, "sweep_values")]
    workers = _resolve_workers(config)
    records = []
    for v_idx, value in enumerate(values):
        ctx = build_context(config, variable, value, v_idx)
        out = _run_value(ctx, config.trials, workers)
        records.append(_reduce(config, variable, value, out))
    return records


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return "%.9g" % float(x)


def confusion_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_confusion{ext or '.csv'}"


def export(records, path) -> None:
    """Write the metrics CSV (header sweep_value,acc_mean,acc_std,
    mse_mean,md_mean) plus a companion confusion-count CSV.  Numeric
    fields carry nine significant digits; output bytes depend only on the
    record contents."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sweep_value", "acc_mean", "acc_std", "mse_mean", "md_mean"])
        for rec in records:
            writer.writerow([_fmt(rec.sweep_value), _fmt(rec.acc_mean),
                             _fmt(rec.acc_std), _fmt(rec.mse_mean),
                             _fmt(rec.md_mean)])
    with open(confusion_path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        L = records[0].confusion.shape[0] if records else 0
        writer.writerow(["sweep_value", "true_label"]
                        + [f"pred_{j}" for j in range(1, L + 1)])
        for rec in records:
            for row_label in range(1, rec.confusion.shape[0] + 1):
                writer.writerow([_fmt(rec.sweep_value), row_label]
                                + [int(c) for c in rec.confusion[row_label - 1]])


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
    cols = ["sensing_snr_db",
            "mse_ml", "mse_rwb", "mse_mmse",
            "acc_ml", "acc_rwb", "acc_mmse",
            "acc_std_ml", "acc_std_rwb", "acc_std_mmse",
            "se_gap_rwb_ml", "se_gap_mmse_rwb"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for r in records:
            writer.writerow([_fmt(r.sensing_snr_db),
                             _fmt(r.mse["ml"]), _fmt(r.mse["rwb"]), _fmt(r.mse["mmse"]),
                             _fmt(r.acc["ml"]), _fmt(r.acc["rwb"]), _fmt(r.acc["mmse"]),
                             _fmt(r.acc_std["ml"]), _fmt(r.acc_std["rwb"]),
                             _fmt(r.acc_std["mmse"]),
                             _fmt(r.se_gap_rwb_ml), _fmt(r.se_gap_mmse_rwb)])
