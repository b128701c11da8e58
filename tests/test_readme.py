"""The README's library quick start runs as written against the current API, its
config defaults match default_config, its run-artifact listing names every file
a run writes, its list of shared cells matches the run's grouping, its
error table names every error class, and its module map lists every module."""

import inspect
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from dicelab import errors, harness
from dicelab.harness import ARTIFACTS, TASKS, build_dataset, config_to_dict, default_config
from dicelab.synthdata import MAX_IMAGE_SIZE

from test_harness import recording_train

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Quick start \(library\)\n+```python\n(.*?)```", text, re.S)
    assert match, "README has no python block under 'Quick start (library)'"
    scope = {}
    exec(compile(match.group(1), str(README), "exec"), scope)
    grad, pred = scope["grad"], scope["pred"]
    assert type(grad) is np.ndarray and grad.shape == pred.shape == (2, 3, 64)
    assert not grad.flags.writeable
    assert scope["mask"].dtype == bool and scope["mask"].shape == (2, 3)


def test_image_size_bound_is_the_generators():
    text = README.read_text(encoding="utf-8")
    assert f"`image_size` must be an integer from 16 to {MAX_IMAGE_SIZE}" in text


def test_config_defaults_match_default_config():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"### Config file\n.*?```yaml\n(.*?)```", text, re.S)
    assert match, "README has no yaml block under 'Config file'"
    assert yaml.safe_load(match.group(1)) == config_to_dict(default_config("binary"))
    match = re.search(r"The multiclass defaults differ in `setups: (\[.*?\])` and\s+"
                      r"`batch_sizes: (\[.*?\])`", text)
    assert match, "README has no sentence on the multiclass defaults"
    task = TASKS["multiclass"]
    assert yaml.safe_load(match.group(1)) == list(task.setups)
    assert yaml.safe_load(match.group(2)) == list(task.batch_sizes)


def test_run_artifacts_block_lists_every_table():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"### Run artifacts\n.*?```\n(.*?)```", text, re.S)
    assert match, "README has no listing under 'Run artifacts'"
    listed = {line.split()[0] for line in match.group(1).splitlines() if line.strip()}
    assert set(ARTIFACTS) <= listed


def test_shared_cells_match_the_grouping(monkeypatch):
    # train gives the runs that train alike one TrainResult, so a shared cell holds
    # the history arrays of the cell whose result it takes
    text = README.read_text(encoding="utf-8")
    match = re.search(r"### Which cells train\n(.*?)\n#", text, re.S)
    assert match, "README has no 'Which cells train' section"
    for task in TASKS:
        line = re.search(rf"^- {task}: (.*)$", match.group(1), re.M)
        assert line, f"README lists no shared cells for {task}"
        listed = re.findall(r"`([\w-]+)` ← `([\w-]+)`", line.group(1))
        assert listed or line.group(1) == "none"
        config = replace(default_config(task), iterations=2)
        with monkeypatch.context() as m:
            trained = recording_train(m, config)
            results = harness._run_cells(config, build_dataset(config), jobs=1)
        first: dict = {}
        shared = []
        for r in results:
            source = first.setdefault(tuple(map(id, r.histories)), r.key)
            if source != r.key:
                shared.append((harness._cell_dirname(*r.key), harness._cell_dirname(*source)))
        assert listed == shared, task
        for group in trained:  # the cells that take no other's result train at every fold
            assert group == [key for key in first.values() if key[2] == group[0][2]]


def test_errors_table_lists_every_error_class():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"### Errors\n(.*?)\n#", text, re.S)
    assert match, "README has no 'Errors' section"
    listed = set(re.findall(r"^\| `(\w+)` \|", match.group(1), re.M))
    classes = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.DicelabError) and cls is not errors.DicelabError}
    assert classes <= listed, f"missing from README's Errors table: {sorted(classes - listed)}"


def test_module_map_lists_every_module():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Module map\n.*?```\nsrc/dicelab/\n(.*?)```", text, re.S)
    assert match, "README has no src/dicelab/ listing under 'Module map'"
    listed = set(re.findall(r"^  (\S+\.py) ", match.group(1), re.M))
    modules = {path.name for path in (ROOT / "src" / "dicelab").glob("*.py")}
    assert listed == modules, (f"missing from README's module map: {sorted(modules - listed)}; "
                               f"listed but absent: {sorted(listed - modules)}")
