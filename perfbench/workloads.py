"""Workload definitions of the iseasim benchmark.

Each workload is drawn from a reference CLI path and runs in one process
with workers=1:

fdm-sweep    `accuracy-sweep configs/accuracy_sweep.json` (9 comm-SNR
             points, fdm_md, rwb, K=3, N=4) through `pipeline.sweep` and
             `pipeline.export`, with 200 instead of 1000 trials per point
             so that several repetitions fit in one run.  The batched dual
             solver does most of the work.
tdm-devices  `accuracy-sweep` with scheme=tdm, solver=tdm_md and a K sweep
             over {2, 4, 8, 16} at a single 10 dB comm SNR: per-instance
             TDM closed forms in a Python loop and per-trial seeded draws,
             with no dual solver; the largest single batch.
oracle-suite `validate-solvers`: `solvers.oracle_validation_suite` on six
             instances, one of each (K, N) shape it draws.  Which six is
             fixed by a pool of suite seeds in reference.json (see
             make_reference.py): the oracle's coordinate descent does
             between 1x and 8x the typical work on a random instance, so
             raw seeds would make the suite's cost vary by seed far more
             than any change worth measuring.

Each workload has a pool of reference seeds in reference.json: experiment
seeds 0-15 for the sweeps, with the CSV values they give, and suite seeds
for oracle-suite.  Benchmark seed s runs pool entry s mod pool size, so
the same seed always gives the same inputs and seed 0 is the reference
seed of the reference configs.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

SWEEPS = {
    "fdm-sweep": {
        "config": {
            "trials": 200, "num_classes": 5, "feature_dim": 4,
            "num_devices": 3, "num_subcarriers": 4, "scheme": "fdm",
            "estimator": "rwb", "solver": "fdm_md", "noise_var": 0.1,
            "comm_snr_db": [-20, -10, 0, 5, 10, 15, 20, 30, 40],
            "sensing_snr_db": 10.0,
        },
        "variable": "comm_snr",
        "values": None,
    },
    "tdm-devices": {
        # One comm_snr_db, so the run does not rely on the 10 dB fallback
        # `_build_context` applies when a K sweep lists several.
        "config": {"trials": 1000, "scheme": "tdm", "solver": "tdm_md",
                   "comm_snr_db": [10.0]},
        "variable": "K",
        "values": [2, 4, 8, 16],
    },
}
ORACLE = "oracle-suite"
WORKLOADS = tuple(SWEEPS) + (ORACLE,)


def load_reference(path=REFERENCE_PATH):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def job_config(workload, seed, reference):
    """The config of `workload` at benchmark seed `seed`: entry seed mod n
    of the workload's pool of n reference seeds in reference.json."""
    entry = reference[workload]
    pool_seed = entry["pool"][seed % len(entry["pool"])]
    if workload == ORACLE:
        return {"instances": entry["instances"], "seed": pool_seed}
    config = sweep_config(workload, pool_seed)
    if entry["trials"] != config["trials"]:
        raise ValueError(f"reference.json was made for {entry['trials']} trials per point;"
                         f" rerun make_reference.py {workload}")
    return config


def reference_points(workload, seed, reference):
    """Reference CSV values of a sweep at benchmark seed `seed`."""
    entry = reference[workload]
    return entry["points"][seed % len(entry["pool"])]


def sweep_config(workload, experiment_seed):
    spec = SWEEPS[workload]
    return dict(spec["config"], seed=experiment_seed, workers=1,
                sweep_variable=spec["variable"], sweep_values=spec["values"])


def units_of_work(workload, config):
    """Trials a sweep runs, or instances the suite checks."""
    if workload == ORACLE:
        return config["instances"]
    points = config["sweep_values"] or config["comm_snr_db"]
    return config["trials"] * len(points)


# ---------------------------------------------------------------------------
# execution inside the workload process (imports iseasim)
# ---------------------------------------------------------------------------

def prepare(workload, config_path):
    """Load and validate the workload config; returns the callable that
    runs the workload once."""
    with open(config_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    from iseasim import pipeline, solvers
    from iseasim.validation import ValidationError

    if workload == ORACLE:
        n, seed = data["instances"], data["seed"]
        if not (isinstance(n, int) and n >= 1 and isinstance(seed, int)):
            raise ValidationError("oracle-suite needs integer instances >= 1 and seed")

        def run(out_path):
            checks = solvers.oracle_validation_suite(n, seed)
            return {"checks": [[name, bool(ok), detail] for name, ok, detail in checks]}
        return run

    data = dict(data)
    variable = data.pop("sweep_variable")
    values = data.pop("sweep_values")
    config = pipeline.ExperimentConfig.from_dict(data)

    def run(out_path):
        records = pipeline.sweep(config, variable, values)
        pipeline.export(records, out_path)
        return {
            "csv": out_path,
            "confusion_csv": pipeline.confusion_path(out_path),
            "records": [{"sweep_value": r.sweep_value, "n_trials": r.n_trials,
                         "n_excluded": r.n_excluded} for r in records],
        }
    return run
