"""Command-line front end: reads a subcommand's JSON config, checks it,
calls the library and writes the result.  Every draw, solve and formula
lives in the library.  The compare subcommands run `pipeline.compare` on
the sweep's trial stream, so they honour `workers` (default 1) and the
KKT gate (`solver_opts.kkt_tol`) as a sweep does.

Subcommands (all read a JSON config and write deterministic CSVs):

  estimator-sweep   sensing-SNR comparison of the three local estimators
                    under noise-free aggregation
  entropy-report    conditional aggregation entropies per noise profile
  tdm-compare       per-slot MSE/MD of the two TDM designs vs comm SNR
  fdm-compare       MSE/MD of the FDM designs and baselines vs comm SNR
  accuracy-sweep    end-to-end Monte Carlo accuracy sweep
  validate-solvers  brute-force oracle suite; prints pass/fail per check

Exit codes: 0 success, 1 usage error, 2 validation failure,
3 non-convergence budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import entropy, pipeline, solvers
from .validation import (
    NonConvergenceError,
    ValidationError,
    check_list,
    check_reals,
)

_EXPERIMENT_KEYS = frozenset(f.name for f in fields(pipeline.ExperimentConfig))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(path, keys) -> dict:
    """The JSON object in `path`, whose keys must all be in `keys`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValidationError(f"unknown config keys: {unknown}")
    return data


def _experiment_config(data: dict, seed_override=None) -> pipeline.ExperimentConfig:
    if seed_override is not None:
        data = dict(data, seed=int(seed_override))
    return pipeline.ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_estimator_sweep(args) -> int:
    data = _load_config(args.config, {"trials", "seed", "num_devices", "sensing_snr_grid_db"})
    seed = args.seed if args.seed is not None else data.get("seed", 0)
    grid = data.get("sensing_snr_grid_db", [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0])
    records = pipeline.estimator_sweep(pipeline.default_prior(), data.get("num_devices", 3),
                                       grid, data.get("trials", 20000), seed)
    pipeline.export_estimator_sweep(records, args.output)
    return 0


def _cmd_entropy_report(args) -> int:
    data = _load_config(args.config, {"prior_var", "sensing_var_sets"})
    if "sensing_var_sets" not in data:
        raise ValidationError("entropy-report config needs 'sensing_var_sets'")
    prior_var = data.get("prior_var", 1.0)
    rows = []
    for idx, sv in enumerate(check_list(data["sensing_var_sets"], "sensing_var_sets")):
        sv = check_reals(sv, "sensing_var_sets", 0, strict=True)
        rep = entropy.entropy_report(prior_var, sv, f"sensing_var_sets entry {idx}")
        rows.append([idx, " ".join(pipeline.fmt(v) for v in sv),
                     pipeline.fmt(rep.h_ml), pipeline.fmt(rep.h_mmse)])
    pipeline.write_csv(args.output, ["index", "sensing_vars", "h_ml", "h_mmse"], rows)
    return 0


# compare subcommand -> (scheme, (CSV tag, solver) of each design): the two
# TDM designs per slot, or the two FDM designs plus the baselines.
_COMPARE = {
    "tdm-compare": ("tdm", (("comp", "tdm_mse"), ("dec", "tdm_md"))),
    "fdm-compare": ("fdm", (("comp", "fdm_mse"), ("dec", "fdm_md"),
                            ("equal", "equal"), ("inv", "channel_inversion"))),
}


def _cmd_compare(args) -> int:
    """`pipeline.compare`'s mean MSE and MD of each design per comm SNR."""
    scheme, columns = _COMPARE[args.command]
    config = _experiment_config(_load_config(args.config, _EXPERIMENT_KEYS), args.seed)
    if config.scheme != scheme:
        raise ValidationError(
            f"{args.command} needs scheme {scheme!r}, got {config.scheme!r}")
    header = ["comm_snr_db"] + [f"{stat}_{tag}" for tag, _ in columns for stat in ("mse", "md")]
    means = pipeline.compare(config, [name for _, name in columns])
    pipeline.write_csv(args.output, header, [
        [pipeline.fmt(v) for v in (snr_db, *row)]
        for snr_db, row in zip(config.comm_snr_db, means)])
    return 0


def _cmd_accuracy_sweep(args) -> int:
    data = _load_config(args.config, _EXPERIMENT_KEYS | {"sweep_variable", "sweep_values"})
    variable = data.pop("sweep_variable", "comm_snr")
    values = data.pop("sweep_values", None)
    config = _experiment_config(data, args.seed)
    records = pipeline.sweep(config, variable, values)
    pipeline.export(records, args.output)
    return 0


def _cmd_validate_solvers(args) -> int:
    data = _load_config(args.config, {"instances", "seed"}) if args.config else {}
    n_inst = data.get("instances", 20)
    seed = args.seed if args.seed is not None else data.get("seed", 0)
    checks = solvers.oracle_validation_suite(n_inst, seed)
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="iseasim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("estimator-sweep", _cmd_estimator_sweep, True),
        ("entropy-report", _cmd_entropy_report, True),
        ("tdm-compare", _cmd_compare, True),
        ("fdm-compare", _cmd_compare, True),
        ("accuracy-sweep", _cmd_accuracy_sweep, True),
        ("validate-solvers", _cmd_validate_solvers, False),
    ]
    for name, fn, needs_output in specs:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "validate-solvers",
                       help="path to the JSON config")
        if needs_output:
            p.add_argument("--output", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
