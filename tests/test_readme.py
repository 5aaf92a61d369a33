"""Every ```python block of README.md runs as written, and every ```json
block is a config the CLI accepts."""

import json
import pathlib
import re

import pytest

from iseasim.pipeline import ExperimentConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
JSON_BLOCKS = re.findall(r"^```json\n(.*?)^```", TEXT, flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, tmp_path, monkeypatch):
    # a fresh namespace per block, so a block cannot lean on another's imports
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "__readme__"})


def test_readme_has_json_blocks():
    assert JSON_BLOCKS


@pytest.mark.parametrize("index", range(len(JSON_BLOCKS)))
def test_json_block_is_a_valid_config(index):
    data = json.loads(JSON_BLOCKS[index])
    data.pop("sweep_variable", None)
    data.pop("sweep_values", None)
    ExperimentConfig.from_dict(data)
