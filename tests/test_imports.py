"""What dicelab's modules import.

SciPy is a test-only dependency: no import, training step or pool of dicelab
loads it. Each of those checks runs in a fresh interpreter, since this test
process has long since imported SciPy for the oracles.

The input rules (require_int, require_number, require_array, require_binary)
are defined in errors.py alone, so no module grows its own copy of them. No
module imports a _-prefixed name from another dicelab module: what a module
keeps private stays its own decision.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dicelab

SRC = Path(dicelab.__file__).resolve().parents[1]

TINY_TRAIN = """
from dicelab.loss import DiceLossConfig
from dicelab.synthdata import {params}, {generate}
from dicelab.tensor import ReductionScheme
from dicelab.trainer import TrainConfig, train
ds = {generate}({params}({kwargs}), seed=0)
train([(ds, TrainConfig(loss=DiceLossConfig(ReductionScheme.IMAGE_WISE), iterations=2))])
"""
TINY_BINARY = ("image_size=16, n_grade_a=2, n_grade_b=1, radius_a=(3.0, 4.5), "
               "radius_b=(2.0, 3.0)")
TINY_MULTICLASS = ("image_size=32, core_radius=(2.5, 3.5), shell_width=(1.5, 2.0), "
                   "satellite_radius=(2.0, 3.0), n_phase_a=2, n_phase_b=1, center_jitter=1.0")
SIGMOID_TRAIN = TINY_TRAIN.format(params="BinaryTaskParams", generate="generate_binary",
                                  kwargs=TINY_BINARY)
SOFTMAX_TRAIN = TINY_TRAIN.format(params="MulticlassTaskParams", generate="generate_multiclass",
                                  kwargs=TINY_MULTICLASS)

POOLED_RUN = """
from dicelab import harness

class InlinePool:  # runs each task in this process, so its imports show here
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *items):
        return map(fn, *items)

harness.ProcessPoolExecutor = InlinePool
config = harness.ExperimentConfig(task="binary", setups=("image-wise",), batch_sizes=(1,),
                                  iterations=2, folds=2, dataset=dict({dataset}))
harness._run_cells(config, harness.build_dataset(config), jobs=2)
""".format(dataset=TINY_BINARY)

SCIPY_FREE = {
    "import dicelab": "import dicelab",
    "import dicelab.cli": "import dicelab.cli",
    "run_check_matrix": "from dicelab.gradcheck import run_check_matrix\n"
                        "run_check_matrix(n_instances=1)",
    "softmax train": SOFTMAX_TRAIN,
    "sigmoid train": SIGMOID_TRAIN,
    "pooled binary _run_cells": POOLED_RUN,
}


def run_fresh(code: str) -> str:
    """The last word a fresh interpreter prints after running code."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()[-1]


def scipy_loaded(code: str) -> bool:
    """Whether a fresh interpreter has imported SciPy after running code."""
    return run_fresh(code + "\nimport sys\nprint('scipy' in sys.modules)") == "True"


@pytest.mark.parametrize("code", SCIPY_FREE.values(), ids=SCIPY_FREE)
def test_scipy_is_not_imported(code):
    assert not scipy_loaded(code)


def test_input_rules_are_defined_in_errors_alone():
    defined = {}
    for path in sorted((SRC / "dicelab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith(("require_", "_require_")):
                defined.setdefault(path.name, []).append(node.name)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                private = [a.name for a in node.names
                           if a.name.rpartition(".")[2].startswith("_require_")]
                assert not private, f"{path.name} imports {private}"
    assert defined == {"errors.py": ["require_int", "require_number", "require_array",
                                     "require_binary", "require_type"]}


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted((SRC / "dicelab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "dicelab"):
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_")]
    assert not private
