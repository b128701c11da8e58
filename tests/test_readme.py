"""The README's library quick start runs as written against the current API."""

import re
from pathlib import Path

import numpy as np

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
