"""The layers perfbench traces exist under their names and run in an experiment.

perfbench's tracer wraps a function in every dicelab module that binds it and
skips a name the package no longer has without a word, so a rename would read
as zero calls in its per-layer metrics. This test wraps the same names the same
way and runs a tiny experiment, so such a rename fails here first.
"""

import importlib
import sys
from collections import Counter

from dicelab import harness

from test_harness import tiny_config

TRACED = (("trainer", "train"), ("trainer", "step_gradients"), ("trainer", "featurize"),
          ("harness", "run_cell"), ("harness", "build_dataset"))


def count_calls(monkeypatch) -> Counter:
    """Wrap each TRACED function in every dicelab module that binds it with a counter."""
    calls = Counter()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "dicelab" or name.startswith("dicelab."))]
    for module, attr in TRACED:
        real = getattr(importlib.import_module(f"dicelab.{module}"), attr)

        def counting(*args, _real=real, _name=f"{module}.{attr}", **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is real:
                    monkeypatch.setattr(m, key, counting)
    return calls


def test_every_traced_layer_runs_in_an_experiment(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch)
    # 2 folds x batch sizes (1, 2) = 4 groups; batch-wise at B = 1 shares image-wise's
    # training, so 6 of the 8 cells train
    config = tiny_config(setups=("image-wise", "batch-wise"), batch_sizes=(1, 2), iterations=3)
    harness.run_experiment(config, tmp_path / "x")
    assert calls == {
        "trainer.train": 4,
        "trainer.step_gradients": 4 * 3,
        "trainer.featurize": 4 + 6 * 2,  # once per train, and per predict of each cell's folds
        "harness.run_cell": 6,
        "harness.build_dataset": 1,
    }
