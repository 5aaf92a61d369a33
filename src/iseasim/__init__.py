"""Distributed sensing and over-the-air aggregation simulator.

A library plus CLI for studying how class priors improve a distributed
edge-inference chain: Gaussian-mixture feature priors, prior-aided local
estimators, analog multi-access aggregation with optimized transceivers,
and Monte Carlo accuracy measurement of the full pipeline.
"""

from .channel import TransceiverDesign
from .entropy import EntropyReport, cond_entropy_ml, cond_entropy_mmse, entropy_report
from .pipeline import (
    ExperimentConfig,
    MetricsRecord,
    export,
    read_metrics_csv,
    run_trial,
    sweep,
)
from .prior import (
    GaussianMixturePrior,
    discriminative_prior,
    min_md,
    pairwise_md,
)
from .solvers import (
    FdmInstance,
    SolveReport,
    TdmInstance,
    brute_force_oracle,
    fdm_md_optimal,
    fdm_mse_dual,
    solve,
    tdm_md_optimal,
    tdm_mse_optimal,
)
from .validation import NonConvergenceError, ValidationError

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
