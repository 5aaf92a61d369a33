"""Output checks of the benchmark (standard library only).

A sweep repetition passes when every row of its metrics CSV matches the
reference values that reference.json keeps for the same experiment seed:

- acc_mean lies within its binomial tolerance, ACC_Z standard deviations
  of a mean of `trials` Bernoulli outcomes with the reference accuracy
  (at least one trial's worth), so that a change may flip a few
  borderline classifications;
- mse_mean and md_mean match to the relative tolerance RTOL, which
  leaves room for designs that reach the same objective by another path
  but not for a changed model;
- the confusion counts of each point sum to the trials that were kept,
  and kept plus excluded trials equal the trials attempted.

An oracle-suite repetition passes when all seven suite checks PASS.
"""

from __future__ import annotations

import csv
import hashlib
import math

ORACLE_CHECKS = 7
ACC_Z = 3.0
RTOL = 1e-3


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _rows(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_sweep(points, trials, output):
    """Problems found in one sweep repetition's CSVs (empty when it passes).

    points: the reference [{"sweep_value", "acc", "mse", "md"}, ...] of the
    experiment seed; output: what the workload process returned (CSV paths
    and per-point trial counts).
    """
    problems = []
    rows = _rows(output["csv"])
    records = output["records"]
    if not len(rows) == len(records) == len(points):
        return [f"{len(rows)} CSV rows and {len(records)} records for {len(points)} points"]
    for row, rec, ref in zip(rows, records, points):
        value = float(row["sweep_value"])
        where = f"sweep_value {row['sweep_value']}"
        if value != ref["sweep_value"] or rec["sweep_value"] != ref["sweep_value"]:
            problems.append(f"{where}: expected sweep_value {ref['sweep_value']}")
            continue
        acc = float(row["acc_mean"])
        p = ref["acc"]
        acc_tol = ACC_Z * max(math.sqrt(p * (1.0 - p) / trials), 1.0 / trials)
        if not abs(acc - p) <= acc_tol:
            problems.append(f"{where}: acc_mean {acc} outside {p} +- {acc_tol:.4g}")
        for key in ("mse", "md"):
            got = float(row[f"{key}_mean"])
            rel = abs(got - ref[key]) / abs(ref[key])
            if not rel <= RTOL:
                problems.append(f"{where}: {key}_mean {got} is {rel:.3g} from {ref[key]}"
                                f" (relative tolerance {RTOL:g})")
        if rec["n_trials"] + rec["n_excluded"] != trials:
            problems.append(f"{where}: {rec['n_trials']} kept + {rec['n_excluded']}"
                            f" excluded trials != {trials} attempted")
    kept = {rec["sweep_value"]: rec["n_trials"] for rec in records}
    counted = dict.fromkeys(kept, 0)
    for row in _rows(output["confusion_csv"]):
        value = float(row["sweep_value"])
        if value not in counted:
            problems.append(f"confusion CSV has unknown sweep_value {row['sweep_value']}")
            continue
        counted[value] += sum(int(v) for k, v in row.items() if k.startswith("pred_"))
    for value, n in kept.items():
        if counted[value] != n:
            problems.append(f"sweep_value {value}: confusion counts sum to {counted[value]},"
                            f" {n} trials kept")
    return problems


def check_oracle(output):
    """Problems found in one oracle-suite repetition (empty when it passes)."""
    checks = output["checks"]
    problems = [f"FAIL {name} ({detail})" for name, ok, detail in checks if not ok]
    if len(checks) != ORACLE_CHECKS:
        problems.append(f"suite returned {len(checks)} checks, expected {ORACLE_CHECKS}")
    return problems
