"""CLI subcommand tests: exit codes, outputs, determinism."""

import json
import math
import pathlib

import numpy as np
import pytest

from iseasim import pipeline
from iseasim.cli import main
from iseasim.validation import ValidationError


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def accuracy_config(tmp_path, **overrides):
    data = {"trials": 25, "comm_snr_db": [0.0, 10.0],
            "calibration_samples": 1500, "solver": "fdm_md"}
    data.update(overrides)
    return write_config(tmp_path, "acc.json", data)


class TestAccuracySweep:
    def test_runs_and_is_byte_stable(self, tmp_path):
        cfg = accuracy_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["accuracy-sweep", "--config", cfg, "--output", str(out1),
                     "--seed", "7"]) == 0
        assert main(["accuracy-sweep", "--config", cfg, "--output", str(out2),
                     "--seed", "7"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a_confusion.csv").read_bytes() \
            == (tmp_path / "b_confusion.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = accuracy_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["accuracy-sweep", "--config", cfg, "--output", str(out1),
              "--seed", "7"])
        main(["accuracy-sweep", "--config", cfg, "--output", str(out2),
              "--seed", "8"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_parallel_trials_identical(self, tmp_path):
        cfg1 = accuracy_config(tmp_path, workers=1)
        cfg2 = write_config(tmp_path, "acc2.json",
                            json.loads((tmp_path / "acc.json").read_text())
                            | {"workers": 2})
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        assert main(["accuracy-sweep", "--config", cfg1, "--output", str(out1)]) == 0
        assert main(["accuracy-sweep", "--config", cfg2, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = main(["accuracy-sweep", "--config", str(tmp_path / "nope.json"),
                   "--output", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "nope.json" in capsys.readouterr().err

    def test_malformed_config_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["accuracy-sweep", "--config", str(path),
                     "--output", str(tmp_path / "o.csv")]) == 1

    def test_invalid_values_are_validation_error(self, tmp_path):
        cfg = accuracy_config(tmp_path, trials=0)
        assert main(["accuracy-sweep", "--config", cfg,
                     "--output", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("decode", "gated"), ("erasure_factor", 9.0), ("responsibility_noise_var", 1.0),
        ("prior_path", "prior.json"), ("sensing_spread", 2.0), ("exclusion_limit", 0.01),
        ("sensing_vars", [0.1, 0.2, 0.3]), ("prior_seed", 1234), ("min_md_target", 4.0),
    ])
    @pytest.mark.parametrize("command", ["accuracy-sweep", "fdm-compare"])
    def test_removed_keys_are_validation_errors(self, tmp_path, capsys, command, key, value):
        # these settings are fixed now (gated decode with erasure factor 9,
        # responsibilities under the true sensing variance, the default
        # prior with its seed and MD target, drawn sensing variances with
        # spread 2 and the 1% exclusion limit); naming one is an error
        with pytest.raises(ValidationError, match=key):
            pipeline.ExperimentConfig.from_dict({key: value})
        cfg = accuracy_config(tmp_path, **{key: value})
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise_var", [1e250, 1e290, 2.3e-308, 1e-320])
    @pytest.mark.parametrize("command", ["accuracy-sweep", "fdm-compare"])
    def test_unsquarable_noise_var_is_validation_error(self, tmp_path, capsys, command,
                                                      noise_var):
        # the solvers square noise_var: these used to exit 0 with FDM
        # designs of MD 0 (and an inf baseline MSE at 1e-320)
        cfg = accuracy_config(tmp_path, noise_var=noise_var)
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--output", str(out)]) == 2
        assert "noise_var" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "o_confusion.csv").exists()

    @pytest.mark.parametrize("noise_var", [1e-160, 1e-150])
    def test_small_squarable_noise_var_runs(self, tmp_path, noise_var):
        cfg = accuracy_config(tmp_path, noise_var=noise_var, trials=5,
                              calibration_samples=200)
        assert main(["fdm-compare", "--config", cfg,
                     "--output", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("overrides, text", [
        ({"comm_snr_db": [4000]}, "comm_snr_db"),
        ({"comm_snr_db": [0.0, -4000]}, "comm_snr_db"),
        ({"sensing_snr_db": 4000}, "sensing_snr_db"),
        ({"sensing_snr_db": -4000}, "sensing_snr_db"),
        ({"comm_snr_db": [10.0], "sweep_variable": "sensing_snr", "sweep_values": [0, 4000]},
         "sweep_values"),
        ({"sweep_values": [0.0, -4000]}, "sweep_values"),
        ({"estimator": "ml", "sensing_snr_db": -3070}, "calibration of device 0"),
    ])
    def test_unusable_snr_or_calibration_is_validation_error(self, tmp_path, capsys,
                                                             overrides, text):
        # each used to crash: an OverflowError traceback (exit 1) for a dB
        # value of 4000, or an error from deep inside an estimator or solver
        cfg = accuracy_config(tmp_path, **overrides)
        out = tmp_path / "o.csv"
        assert main(["accuracy-sweep", "--config", cfg, "--output", str(out)]) == 2
        assert text in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_solver_opts_are_validation_error(self, tmp_path, capsys):
        cfg = accuracy_config(tmp_path, solver_opts={"max_iters": 150})
        assert main(["accuracy-sweep", "--config", cfg,
                     "--output", str(tmp_path / "o.csv")]) == 2
        assert "max_iters" in capsys.readouterr().err

    def test_device_sweep_over_several_comm_snrs_is_validation_error(self, tmp_path,
                                                                    capsys):
        cfg = accuracy_config(tmp_path, sweep_variable="K", sweep_values=[1, 2])
        assert main(["accuracy-sweep", "--config", cfg,
                     "--output", str(tmp_path / "o.csv")]) == 2
        assert "K sweep" in capsys.readouterr().err

    def test_tdm_with_too_few_subcarriers_is_validation_error(self, tmp_path, capsys):
        cfg = accuracy_config(tmp_path, trials=5, scheme="tdm", solver="tdm_mse",
                              num_subcarriers=2, comm_snr_db=[10.0])
        assert main(["accuracy-sweep", "--config", cfg,
                     "--output", str(tmp_path / "o.csv")]) == 2
        assert "num_subcarriers" in capsys.readouterr().err

    def test_tdm_solver_under_fdm_is_validation_error(self, tmp_path, capsys):
        cfg = accuracy_config(tmp_path, scheme="fdm", solver="tdm_md")
        assert main(["accuracy-sweep", "--config", cfg,
                     "--output", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "tdm_md" in err and "fdm" in err

    def test_one_class_fdm_md_sweep_is_validation_error(self, tmp_path, capsys):
        # One class has no discriminative prior (delta = 0 everywhere), so
        # fdm_md has nothing to design against.
        cfg = accuracy_config(tmp_path, num_classes=1, trials=20, comm_snr_db=[10.0],
                              calibration_samples=500)
        out = tmp_path / "o.csv"
        assert main(["accuracy-sweep", "--config", cfg, "--output", str(out)]) == 2
        assert "fdm_md_optimal requires delta > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        cfg = accuracy_config(tmp_path)
        assert main(["accuracy-sweep", "--config", cfg, "--frobnicate"]) == 1

    def test_sweep_variable_from_config(self, tmp_path):
        cfg = accuracy_config(tmp_path, sweep_variable="K",
                              sweep_values=[1, 2], comm_snr_db=[10.0])
        out = tmp_path / "k.csv"
        assert main(["accuracy-sweep", "--config", cfg, "--output", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 3


class TestEstimatorSweep:
    def test_runs_deterministically(self, tmp_path):
        cfg = write_config(tmp_path, "est.json",
                           {"trials": 2000, "sensing_snr_grid_db": [-5.0, 15.0]})
        out1 = tmp_path / "e1.csv"
        out2 = tmp_path / "e2.csv"
        assert main(["estimator-sweep", "--config", cfg, "--output", str(out1)]) == 0
        assert main(["estimator-sweep", "--config", cfg, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().split("\n")[0]
        assert header.startswith("sensing_snr_db,mse_ml,mse_rwb,mse_mmse")

    @pytest.mark.parametrize("key, value", [
        ("num_classes", 5), ("feature_dim", 4), ("min_md_target", 4.0), ("prior_seed", 1234),
    ])
    def test_removed_keys_are_validation_errors(self, tmp_path, capsys, key, value):
        # the sweep runs on the reference prior, `default_prior()`
        cfg = write_config(tmp_path, "est.json", {"trials": 20, key: value})
        out = tmp_path / "e.csv"
        assert main(["estimator-sweep", "--config", cfg, "--output", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_snr_grid_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "est.json",
                           {"trials": 20, "sensing_snr_grid_db": [0.0, 4000]})
        assert main(["estimator-sweep", "--config", cfg,
                     "--output", str(tmp_path / "e.csv")]) == 2
        assert "sensing_snr_grid_db" in capsys.readouterr().err


    @pytest.mark.parametrize("snr_db", [-1540, -3070])
    def test_non_finite_statistics_are_validation_errors(self, tmp_path, capsys, snr_db):
        # -1540 dB wrote se_gap_* = inf, -3070 dB mse_ml = inf and se_gap_* = nan
        cfg = write_config(tmp_path, "est.json", {"trials": 200, "sensing_snr_grid_db": [snr_db]})
        out = tmp_path / "e.csv"
        assert main(["estimator-sweep", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"sensing_snr_grid_db point {float(snr_db)!r}" in err and "non-finite" in err
        assert not out.exists()

    def test_lowest_finite_snr_writes_finite_statistics(self, tmp_path):
        cfg = write_config(tmp_path, "est.json", {"trials": 200, "sensing_snr_grid_db": [-1500]})
        out = tmp_path / "e.csv"
        assert main(["estimator-sweep", "--config", cfg, "--output", str(out)]) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert len(row) == 12 and all(math.isfinite(float(v)) for v in row)


class TestEntropyReport:
    def test_emits_rows_per_configuration(self, tmp_path):
        cfg = write_config(tmp_path, "ent.json", {
            "prior_var": 1.0,
            "sensing_var_sets": [[1.0, 1.0], [0.1, 1.0, 10.0]],
        })
        out = tmp_path / "ent.csv"
        assert main(["entropy-report", "--config", cfg, "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "index,sensing_vars,h_ml,h_mmse"
        assert len(lines) == 3

    @pytest.mark.parametrize("data, names", [
        ({"sensing_var_sets": [[1.0], [1e308, 1e308]]}, ["sensing_var_sets entry 1"]),
        ({"prior_var": 1e-320, "sensing_var_sets": [[1.0, 1.0]]},
         ["prior_var 1e-320", "sensing_var_sets entry 0"]),
    ])
    def test_non_finite_entropy_is_validation_error(self, tmp_path, capsys, data, names):
        cfg = write_config(tmp_path, "ent.json", data)
        out = tmp_path / "o.csv"
        assert main(["entropy-report", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names) and "non-finite" in err
        assert not out.exists()

    def test_requires_var_sets(self, tmp_path):
        cfg = write_config(tmp_path, "ent.json", {"prior_var": 1.0})
        assert main(["entropy-report", "--config", cfg,
                     "--output", str(tmp_path / "o.csv")]) == 2


class TestCompareCommands:
    def test_tdm_compare(self, tmp_path):
        cfg = write_config(tmp_path, "tdm.json",
                           {"trials": 10, "comm_snr_db": [0.0, 20.0],
                            "calibration_samples": 1500, "scheme": "tdm",
                            "num_subcarriers": 4})
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        assert main(["tdm-compare", "--config", cfg, "--output", str(out1)]) == 0
        assert main(["tdm-compare", "--config", cfg, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "comm_snr_db,mse_comp,md_comp,mse_dec,md_dec"
        assert len(lines) == 3

    def test_fdm_compare(self, tmp_path):
        cfg = write_config(tmp_path, "fdm.json",
                           {"trials": 15, "comm_snr_db": [10.0],
                            "calibration_samples": 1500})
        out1 = tmp_path / "f1.csv"
        out2 = tmp_path / "f2.csv"
        assert main(["fdm-compare", "--config", cfg, "--output", str(out1)]) == 0
        assert main(["fdm-compare", "--config", cfg, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().split("\n")[0]
        assert header.startswith("comm_snr_db,mse_comp,md_comp,mse_dec,md_dec,"
                                 "mse_equal,md_equal,mse_inv,md_inv")

    @pytest.mark.parametrize("command, scheme", [
        ("fdm-compare", "tdm"), ("tdm-compare", "fdm"), ("tdm-compare", None)])
    def test_wrong_scheme_is_validation_error(self, tmp_path, capsys, command, scheme):
        data = {"trials": 3, "comm_snr_db": [10.0], "calibration_samples": 200}
        if scheme is not None:
            data["scheme"] = scheme
        cfg = write_config(tmp_path, "cmp.json", data)
        assert main([command, "--config", cfg, "--output", str(tmp_path / "o.csv")]) == 2
        assert "scheme" in capsys.readouterr().err

    def test_calibrates_once_for_every_snr_point(self, tmp_path, monkeypatch):
        calls = []
        calibrate = pipeline.calibrate

        def counted(*args, **kwargs):
            calls.append(args)
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "calibrate", counted)
        cfg = write_config(tmp_path, "fdm.json",
                           {"trials": 5, "comm_snr_db": [0.0, 10.0, 20.0],
                            "calibration_samples": 1500})
        assert main(["fdm-compare", "--config", cfg,
                     "--output", str(tmp_path / "f.csv")]) == 0
        assert len(calls) == 1

    def test_negative_gate_exits_3_naming_solver_and_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "fdm.json",
                           {"trials": 5, "comm_snr_db": [10.0, 20.0],
                            "calibration_samples": 500, "solver_opts": {"kkt_tol": -1.0}})
        assert main(["fdm-compare", "--config", cfg,
                     "--output", str(tmp_path / "f.csv")]) == 3
        err = capsys.readouterr().err
        assert "'fdm_mse'" in err and "comm_snr=10.0" in err


@pytest.mark.parametrize("seed", [0, 2**64 + 7])
@pytest.mark.parametrize("v_idx, size", [(0, (3, 4)), (3, (2, 1))])
def test_rayleigh_draws_match_spawned_streams(seed, v_idx, size):
    want = np.stack([
        np.random.default_rng(np.random.SeedSequence(
            seed, spawn_key=(pipeline._DOM_COMPARE, v_idx, i))).rayleigh(scale=np.sqrt(0.5),
                                                                         size=size)
        for i in range(40)])
    got = pipeline._compare_draws(seed, v_idx, range(40), size)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


class TestValidateSolvers:
    def test_small_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "val.json", {"instances": 3, "seed": 1})
        assert main(["validate-solvers", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("instances", [0, 1.9, "x"])
    def test_bad_instance_count_is_validation_error(self, tmp_path, capsys, instances):
        cfg = write_config(tmp_path, "val.json", {"instances": instances})
        assert main(["validate-solvers", "--config", cfg]) == 2
        assert "instances" in capsys.readouterr().err


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
COMMANDS = {"accuracy_sweep": "accuracy-sweep", "device_scaling": "accuracy-sweep",
            "entropy_report": "entropy-report", "estimator_sweep": "estimator-sweep",
            "fdm_compare": "fdm-compare", "tdm_compare": "tdm-compare"}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _spoiled(value, bad):
    """Copies of a config value with one number replaced by `bad`: the
    value itself if it is a number, else the first entry of each numeric
    list inside it."""
    if _is_number(value):
        yield bad
    elif isinstance(value, list):
        for i, item in enumerate(value):
            if _is_number(item):
                if i == 0:
                    yield [bad] + value[1:]
            else:
                for spoiled in _spoiled(item, bad):
                    yield value[:i] + [spoiled] + value[i + 1:]


def _reference_configs():
    """(name, subcommand, config) for every reference config, with `trials`
    cut to 3 and a small calibration where the config takes one."""
    for path in sorted(CONFIGS.glob("*.json")):
        command = COMMANDS[path.stem]
        data = json.loads(path.read_text())
        if "trials" in data:
            data["trials"] = 3
        if command in ("accuracy-sweep", "fdm-compare", "tdm-compare"):
            data["calibration_samples"] = 200
        yield path.stem, command, data


def _fuzz_cases():
    """(subcommand, key, config): a reference config with one numeric value
    replaced by "x" or NaN."""
    cases = []
    for stem, command, data in _reference_configs():
        for key, value in data.items():
            for bad in ("x", math.nan):
                for n, spoiled in enumerate(_spoiled(value, bad)):
                    cases.append(pytest.param(command, key, data | {key: spoiled},
                                              id=f"{stem}-{key}-{n}-{bad}"))
    return cases


def _shape_cases():
    """(subcommand, text the error must contain, config): a reference
    config with an unknown key added or a list value replaced by 5 or [],
    a few more keys of the wrong kind, and a JSON array in place of the
    object under every subcommand."""
    cases = []
    for stem, command, data in _reference_configs():
        cases.append(pytest.param(command, "not_a_key", data | {"not_a_key": 1},
                                  id=f"{stem}-unknown-key"))
        cases += [pytest.param(command, key, data | {key: bad}, id=f"{stem}-{key}-{bad}")
                  for key, value in data.items() if isinstance(value, list)
                  for bad in (5, [])]
    cases += [
        pytest.param("validate-solvers", "instancs", {"instancs": 1},
                     id="validate_solvers-unknown-key"),
        pytest.param("accuracy-sweep", "solver_opts", {"trials": 3, "solver_opts": 5},
                     id="accuracy_sweep-solver_opts-5"),
        pytest.param("accuracy-sweep", "sweep_variable", {"trials": 3, "sweep_variable": "snr"},
                     id="accuracy_sweep-sweep_variable-snr"),
    ]
    for command in sorted(set(COMMANDS.values()) | {"validate-solvers"}):
        cases.append(pytest.param(command, "JSON object", [1, 2], id=f"{command}-array"))
    return cases


def _exit_code(tmp_path, command, data):
    argv = [command, "--config", write_config(tmp_path, "fuzz.json", data)]
    if command != "validate-solvers":
        argv += ["--output", str(tmp_path / "o.csv")]
    return main(argv)


class TestReferenceConfigFuzz:
    @pytest.mark.parametrize("command, key, data", _fuzz_cases())
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, command, key, data):
        assert _exit_code(tmp_path, command, data) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, data", _shape_cases())
    def test_bad_shape_exits_2_naming_it(self, tmp_path, capsys, command, text, data):
        assert _exit_code(tmp_path, command, data) == 2
        assert text in capsys.readouterr().err
