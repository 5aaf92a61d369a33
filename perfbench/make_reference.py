"""Rebuild perfbench/reference.json: the sweep reference values and the
oracle-suite seed pool.

usage (from the repository root):
    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Sweeps: the workload runs once for each experiment seed in
REFERENCE_SEEDS, and each point's acc_mean, mse_mean and md_mean are kept
for checks.py.

Oracle suite: the first CANDIDATES suite seeds whose six instances have
six different (K, N) shapes are run under cProfile, and the Python and C
function calls the whole suite makes are counted (the count is
deterministic; the oracle's line searches alone range over about 3x
between seeds, and the FDM solvers' subgradient phase varies too).  The
pool keeps the POOL_SIZE of them closest to the median count, so every
pool entry asks for about the same work.  Takes about fifteen minutes on
one core.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import statistics
import sys

import numpy as np
from iseasim import pipeline, solvers

import workloads

REFERENCE_SEEDS = range(16)
CANDIDATES = 48
POOL_SIZE = 8
SHAPES = sorted((k, n) for k in (1, 2, 3) for n in (1, 2))


def sweep_reference(workload):
    trials = workloads.SWEEPS[workload]["config"]["trials"]
    points = []
    for seed in REFERENCE_SEEDS:
        data = workloads.sweep_config(workload, seed)
        variable, values = data.pop("sweep_variable"), data.pop("sweep_values")
        records = pipeline.sweep(pipeline.ExperimentConfig.from_dict(data), variable, values)
        points.append([{"sweep_value": r.sweep_value, "acc": r.acc_mean,
                        "mse": r.mse_mean, "md": r.md_mean} for r in records])
        print(f"{workload} seed {seed} done", flush=True)
    return {"trials": trials, "pool": list(REFERENCE_SEEDS), "points": points}


def _suite_shapes(n, seed):
    """(K, N) of each suite instance, drawn in oracle_validation_suite's order."""
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        solvers.random_tdm_instance(rng, k, homogeneous_vars=True)
        n_sub = int(rng.integers(1, 3))
        solvers.random_fdm_instance(rng, k, n_sub)
        shapes.append((k, n_sub))
    return shapes


def oracle_pool():
    n = len(SHAPES)
    candidates = []
    seed = 0
    while len(candidates) < CANDIDATES:
        if sorted(_suite_shapes(n, seed)) == SHAPES:
            profile = cProfile.Profile()
            profile.runcall(solvers.oracle_validation_suite, n, seed)
            calls = pstats.Stats(profile).total_calls
            candidates.append((calls, seed))
            print(f"suite seed {seed}: {calls} calls", flush=True)
        seed += 1
    median = statistics.median(c for c, _ in candidates)
    keep = sorted(sorted(candidates, key=lambda c: abs(c[0] - median))[:POOL_SIZE],
                  key=lambda c: c[1])
    return {"instances": n, "pool": [s for _, s in keep],
            "calls": [c for c, _ in keep]}


def main(names):
    path = workloads.REFERENCE_PATH
    for name in names or workloads.WORKLOADS:
        entry = oracle_pool() if name == workloads.ORACLE else sweep_reference(name)
        reference = workloads.load_reference() if os.path.exists(path) else {}
        reference[name] = entry
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
