"""CLI subcommand tests: exit codes, outputs, determinism."""

import json

import pytest

from iseasim import pipeline
from iseasim.cli import main


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

    def test_nonpositive_erasure_factor_is_validation_error(self, tmp_path, capsys):
        # every element would be erased and the run would report the
        # prior-argmax accuracy without a word
        cfg = accuracy_config(tmp_path, erasure_factor=-1)
        assert main(["accuracy-sweep", "--config", cfg,
                     "--output", str(tmp_path / "o.csv")]) == 2
        assert "erasure_factor" in capsys.readouterr().err

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


class TestValidateSolvers:
    def test_small_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "val.json", {"instances": 3, "seed": 1})
        assert main(["validate-solvers", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
