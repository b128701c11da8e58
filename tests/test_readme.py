"""The README's library quick start runs as written against the current API, its
run-artifact listing names every file a run writes, and its error table names
every error class."""

import inspect
import re
from pathlib import Path

import numpy as np

from dicelab import errors
from dicelab.harness import ARTIFACTS

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_run_artifacts_block_lists_every_table():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"### Run artifacts\n.*?```\n(.*?)```", text, re.S)
    assert match, "README has no listing under 'Run artifacts'"
    listed = {line.split()[0] for line in match.group(1).splitlines() if line.strip()}
    assert set(ARTIFACTS) <= listed


def test_errors_table_lists_every_error_class():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"### Errors\n(.*?)\n#", text, re.S)
    assert match, "README has no 'Errors' section"
    listed = set(re.findall(r"^\| `(\w+)` \|", match.group(1), re.M))
    classes = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.DicelabError) and cls is not errors.DicelabError}
    assert classes <= listed, f"missing from README's Errors table: {sorted(classes - listed)}"
