"""README's examples: every YAML config in it validates (a grid cell by
cell), and the library-use example runs."""

import re
from pathlib import Path

import yaml

from nidkit.config import DATASET, TOP, TRAINING, validate_config
from nidkit.runner import expand_grid

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_every_readme_config_validates(tmp_path):
    docs = [doc for doc in map(yaml.safe_load, _blocks("yaml"))
            if isinstance(doc, dict) and doc.get("version") == 1]
    assert len(docs) >= 2           # the experiment and the grid
    for doc in docs:
        for cell in expand_grid(doc) if "grid" in doc else [doc]:
            validate_config(cell, base_dir=tmp_path)


def test_the_key_rule_names_every_declared_key():
    rule = README[README.index("`validate-config` checks"):].split("\n\n")[0]
    declared = [*TOP, *TRAINING, *(key for mode in DATASET.values() for key in mode)]
    assert [key for key in declared if f"`{key}`" not in rule] == []


def test_the_library_use_example_runs(capsys):
    exec(compile(_blocks("python")[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed[0] == "AUROC" and float(printed[1]) > 0.9
