"""Output bytes of every CLI subcommand, pinned by sha256.

Each case runs one subcommand in-process on a tiny config and hashes what
it writes (the CSV, the confusion CSV of an accuracy sweep, or the stdout
of validate-solvers).  A refactor that claims to move no byte must keep
every hash.  The hashes depend on numpy's random streams and reduction
order, so they are pinned together with the numpy version that made
them; on another version the cases skip.

To re-pin after an intended change of output, run
`PYTHONPATH=src python tests/test_golden_bytes.py` and paste its output
over GOLDEN.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np
import pytest

from iseasim import pipeline
from iseasim.cli import main

GOLDEN_NUMPY = "2.4.6"

_SMALL = {"trials": 20, "calibration_samples": 500}

# case -> (subcommand, config, output files (relative to the --output CSV))
CASES = {
    "accuracy-fdm": ("accuracy-sweep",
                     dict(_SMALL, comm_snr_db=[-10.0, 10.0, 40.0]),
                     ("out.csv", "out_confusion.csv")),
    "accuracy-K": ("accuracy-sweep",
                   dict(_SMALL, comm_snr_db=[10.0], sweep_variable="K",
                        sweep_values=[1, 2, 4]),
                   ("out.csv", "out_confusion.csv")),
    "accuracy-tdm": ("accuracy-sweep",
                     dict(_SMALL, scheme="tdm", solver="tdm_md",
                          comm_snr_db=[0.0, 20.0]),
                     ("out.csv", "out_confusion.csv")),
    "fdm-compare": ("fdm-compare", dict(_SMALL, comm_snr_db=[0.0, 20.0]),
                    ("out.csv",)),
    # A seed of three 32-bit words: the spawned streams' entropy is longer
    # than one word.
    "accuracy-fdm-long-seed": ("accuracy-sweep",
                               dict(_SMALL, seed=2**64 + 7, comm_snr_db=[-10.0, 10.0, 40.0]),
                               ("out.csv", "out_confusion.csv")),
    "fdm-compare-long-seed": ("fdm-compare",
                              dict(_SMALL, seed=2**64 + 7, comm_snr_db=[0.0, 20.0]),
                              ("out.csv",)),
    "tdm-compare": ("tdm-compare",
                    dict(_SMALL, scheme="tdm", comm_snr_db=[0.0, 20.0]),
                    ("out.csv",)),
    "estimator-sweep": ("estimator-sweep",
                        {"trials": 300, "sensing_snr_grid_db": [0.0, 10.0]},
                        ("out.csv",)),
    "entropy-report": ("entropy-report",
                       {"sensing_var_sets": [[1.0, 1.0], [0.1, 1.0, 10.0]]},
                       ("out.csv",)),
    "validate-solvers": ("validate-solvers", {"instances": 2, "seed": 0}, ("stdout",)),
}

GOLDEN = {
    'accuracy-K': {
        'out.csv': '93b65e5512b692480dfd2fe007585841534eeb442abac843f26fa3ba4e91c529',
        'out_confusion.csv': 'ba92a2ab518014c905141b55c6e115726c1170fb21db28d7141b2f614f774305',
    },
    'accuracy-fdm': {
        'out.csv': '4bc6ca579a5c385f8dcd3d4ac545a3c52255fc2807d140f180258a6b824f4ce2',
        'out_confusion.csv': 'faf89ce4e14bfa9765e4fc079ceb16031e4c6444621ae72ccdbb561cfb1bbb48',
    },
    'accuracy-fdm-long-seed': {
        'out.csv': 'ea4a5290f62261be54e8d22d3b0c03fb1b2dfa97072ed11541f83581207fd53d',
        'out_confusion.csv': 'e55059191e120b4a00a68515498dc2e1773a75c8973cb333d87ccc4b5f3ac795',
    },
    'accuracy-tdm': {
        'out.csv': '7cda968fa9c0a8828d64ce5fd896e0c820c7ebbba68f3fcdc94067b4d40147a1',
        'out_confusion.csv': '988ac0379901e0fc53f874d5d3499652431f94d270836b403f4486dd26bf069a',
    },
    'entropy-report': {
        'out.csv': 'a9ac05eeb9b44917c45c8e1c1d6d32d41e84e7de9a34fcb90b3bd4483a2a240c',
    },
    'estimator-sweep': {
        'out.csv': '1ae9f1ffd4ebb1ada6414f42f7d262555259724fc4e528c820a1e7e3b344b4b5',
    },
    'fdm-compare': {
        'out.csv': '519ae3d3be036a79f3fbbf988aa0e16cfc60461df9b38eade548e3778a305a92',
    },
    'fdm-compare-long-seed': {
        'out.csv': 'ec76775eb9b0a5ce21d6263e8e7d016e6831d24cde5058c26d9ed7e7598e17a1',
    },
    'tdm-compare': {
        'out.csv': '78a03e11932d3e28225a162b3ff90a307854de2e5a0f9d30431d8aaf2b9fb07f',
    },
    'validate-solvers': {
        'stdout': '3bebe4479bc6e54f73c64a0471cc6cdec16c9865bdbccec1d4910eb71a593952',
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_hashes(case, workdir, **overrides) -> dict:
    """{output name: sha256} of one case, run in `workdir` with the config
    keys in `overrides` replaced."""
    command, config, outputs = CASES[case]
    workdir = pathlib.Path(workdir)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(dict(config, **overrides)))
    argv = [command, "--config", str(cfg)]
    if outputs != ("stdout",):
        argv += ["--output", str(workdir / "out.csv")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    if outputs == ("stdout",):
        return {"stdout": _sha(stdout.getvalue().encode())}
    return {name: _sha((workdir / name).read_bytes()) for name in outputs}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_pinned(case, tmp_path):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"golden bytes were made with numpy {GOLDEN_NUMPY}; "
                    f"this is numpy {np.__version__}")
    assert case_hashes(case, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("case", ["accuracy-fdm", "fdm-compare", "fdm-compare-long-seed",
                                  "tdm-compare"])
def test_parallel_fdm_sweep_writes_the_serial_pin(case, tmp_path, monkeypatch):
    # Two workers and chunks of 7 trials split the run into chunks that
    # cross sweep points; the bytes must still be the serial run's.
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"golden bytes were made with numpy {GOLDEN_NUMPY}; "
                    f"this is numpy {np.__version__}")
    monkeypatch.setattr(pipeline, "CHUNK_TRIALS", 7)
    assert case_hashes(case, tmp_path, workers=2) == GOLDEN[case]


if __name__ == "__main__":
    print(f"# numpy {np.__version__}")
    print("GOLDEN = {")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            hashes = case_hashes(name, tmp)
        print(f"    {name!r}: {{")
        for key, value in hashes.items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
