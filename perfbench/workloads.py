"""The benchmark's workloads, the layers it traces, and its correctness gate.

Everything here drives dicelab through public functions looked up on their
module at call time, so that a traced repeat calls the tracer's wrappers.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np

from dicelab import gradcheck, harness

import spans

# The stored references cover this many input seeds; --seed n selects n mod it.
REFERENCE_SEEDS = 12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

GRADCHECK_INSTANCES = 25  # per (scheme, shape, epsilon) cell: 4 x 4 x 3 x 25 = 1200
GRADCHECK_SEED_STRIDE = 1000  # keeps the instance seeds of different inputs apart
SMOKE = {"iterations": 4, "bootstrap_resamples": 50, "instances": 1}


def data_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


# ---------------------------------------------------------------- tracing

def _count_elements(tracer, name, args, kwargs, result):
    pred = args[1] if len(args) > 1 else kwargs["pred"]
    tracer.counts[name + ".elems"] += int(np.size(getattr(pred, "data", pred)))


def _count_distinct_image(tracer, name, args, kwargs, result):
    image = np.ascontiguousarray(args[0] if args else kwargs["image"])
    tracer.distinct[name].add(f"{image.shape}:{hashlib.sha1(image.tobytes()).hexdigest()}")


def _count_result_bytes(tracer, name, args, kwargs, result):
    tracer.counts["harness.result_bytes"] += len(pickle.dumps(result))


def _target(module, attr, name=None, hook=None):
    return (f"dicelab.{module}", attr, name or f"{module}.{attr}", hook)


TARGETS = (
    _target("loss", "dice_forward", hook=_count_elements),
    _target("loss", "dice_backward", hook=_count_elements),
    _target("loss", "marginal_merge"),
    _target("trainer", "step_gradients"),
    _target("trainer", "model_forward"),
    _target("trainer", "model_backward"),
    _target("trainer", "train"),
    _target("trainer", "featurize", hook=_count_distinct_image),
    _target("gradcheck", "run_check_matrix"),
    _target("gradcheck", "finite_diff_grad"),
    _target("gradcheck", "check_two_value"),
    _target("gradcheck", "compare_grads"),
    _target("harness", "run_experiment"),
    _target("harness", "run_cell", hook=_count_result_bytes),
    _target("harness", "build_dataset"),
    _target("metrics", "write_csv"),
    _target("metrics", "bootstrap_compare"),
    _target("metrics", "roc_auc"),
    _target("metrics", "hard_dsc"),
    _target("epsilon", "calibrate_epsilon"),
    _target("synthdata", "generate_binary", "synthdata.generate"),
    _target("synthdata", "generate_multiclass", "synthdata.generate"),
    _target("synthdata", "save_dataset"),
    _target("tensor", "enumerate_subsets"),
)
CELL_TIMER = (_target("harness", "run_cell"),)


def exact_counts(trace: spans.Trace) -> dict[str, int]:
    """Every count the trace makes; each must repeat exactly for the same code and seed."""
    counts = {f"{name}.calls": n for name, n in trace.call_counts().items()}
    counts.update(trace.counts)
    counts.update({f"{name}.distinct": n for name, n in trace.distinct_counts.items()})
    return dict(sorted(counts.items()))


def layer_metrics(trace: spans.Trace, start: float, end: float, untraced_wall: float,
                  instances: int, j2_efficiency: float) -> dict[str, float]:
    """Per-layer metrics of one traced repeat that ran from start to end.

    A layer that does not run on the workload reads zero. The benchmark
    reports the ones BENCHMARK.json declares.
    """
    m: dict[str, float] = {}

    def calls_and_self(name):
        m[f"{name}.calls"] = trace.calls(name)
        m[f"{name}.self_s"] = trace.self_total(name)

    for name in ("loss.dice_forward", "loss.dice_backward"):
        calls_and_self(name)
        elems = trace.counts.get(f"{name}.elems", 0)
        m[f"{name}.ns_per_elem"] = m[f"{name}.self_s"] / elems * 1e9 if elems else 0.0
    calls_and_self("loss.marginal_merge")

    steps = sorted(trace.durations("trainer.step_gradients"))
    m["trainer.step_gradients.calls"] = len(steps)
    m["trainer.step_gradients.us_p50"] = spans.nearest_rank(steps, 50) * 1e6 if steps else 0.0
    m["trainer.step_gradients.us_p99"] = spans.nearest_rank(steps, 99) * 1e6 if steps else 0.0
    for name in ("trainer.model_forward", "trainer.model_backward", "trainer.train"):
        m[f"{name}.self_s"] = trace.self_total(name)
    calls_and_self("trainer.featurize")
    distinct = trace.distinct_counts.get("trainer.featurize", 0)
    m["trainer.featurize.useful_ratio"] = (distinct / m["trainer.featurize.calls"]
                                           if m["trainer.featurize.calls"] else 0.0)

    for name in ("gradcheck.finite_diff_grad", "gradcheck.check_two_value",
                 "gradcheck.compare_grads"):
        m[f"{name}.self_s"] = trace.self_total(name)
    m["gradcheck.forward_calls_per_check"] = (m["loss.dice_forward.calls"] / instances
                                              if instances else 0.0)

    cells = trace.named("harness.run_cell")
    cell_times = sorted(e - s for *_, s, e in cells)
    m["harness.run_cell.s_p50"] = spans.nearest_rank(cell_times, 50) if cells else 0.0
    m["harness.run_cell.s_max"] = cell_times[-1] if cells else 0.0
    calls_and_self("harness.build_dataset")
    runs = trace.named("harness.run_experiment")
    m["harness.artifacts_s"] = (runs[-1][4] - max(e for *_, e in cells)
                                if runs and cells else 0.0)
    m["harness.result_bytes"] = trace.counts.get("harness.result_bytes", 0)
    m["harness.j2_efficiency"] = j2_efficiency

    for name in ("metrics.write_csv", "metrics.bootstrap_compare", "metrics.roc_auc",
                 "metrics.hard_dsc", "epsilon.calibrate_epsilon", "tensor.enumerate_subsets"):
        calls_and_self(name)
    for name in ("synthdata.generate", "synthdata.save_dataset"):
        m[f"{name}.self_s"] = trace.self_total(name)

    m["other_s"] = trace.untraced(start, end)
    m["trace.overhead_ratio"] = (end - start) / untraced_wall
    return m


# ---------------------------------------------------------------- references

def load_references(smoke: bool) -> dict:
    path = REFERENCE_DIR / ("smoke.json.gz" if smoke else "full.json.gz")
    if not path.exists():
        return {}
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def _digest(paths_and_bytes) -> str:
    h = hashlib.sha256()
    for name, blob in paths_and_bytes:
        h.update(name.encode() + b"\0" + hashlib.sha256(blob).digest())
    return h.hexdigest()


@dataclasses.dataclass
class Outcome:
    """Gate result of one repeat. digest fingerprints every output of the repeat."""

    attempted: int
    failed: int
    digest: str | None
    notes: dict


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_metrics_csv(text: str, ref_text: str) -> tuple[set[str] | None, float | None]:
    """Cells whose metrics.csv rows differ from the reference (None: all of them),
    and the largest absolute difference over the numeric columns of aligned rows."""
    head, rows = _parse_csv(text)
    ref_head, ref_rows = _parse_csv(ref_text)
    if head != ref_head:
        return None, None

    def by_cell(rs):
        out: dict[str, list[list[str]]] = {}
        for r in rs:
            out.setdefault(f"{r[0]}-{r[1]}-b{r[2]}", []).append(r)
        return out

    got, want = by_cell(rows), by_cell(ref_rows)
    bad, worst = set(), 0.0
    for cell in set(got) | set(want):
        a, b = got.get(cell, []), want.get(cell, [])
        if a == b:
            continue
        bad.add(cell)
        if len(a) != len(b):
            worst = math.inf
            continue
        for ra, rb in zip(a, b):
            for x, y in zip(ra, rb):
                fx, fy = _as_float(x), _as_float(y)
                if fx is not None and fy is not None:
                    d = abs(fx - fy)
                    worst = max(worst, math.inf if math.isnan(d) else d)
                elif x != y:
                    worst = math.inf
    return bad, worst


def check_metrics_csv(data: bytes, reference: dict | None,
                      cells: list[str]) -> tuple[set[str], dict]:
    """Cells failed by a metrics.csv whose sha256 is not the reference's, and gate notes.

    The differing cells fail; when the rows of no single cell differ (rows
    reordered, blank lines or line endings changed), every cell fails.
    """
    sha = hashlib.sha256(data).hexdigest()
    notes = {"metrics_sha256": sha}
    if reference is None:
        notes["reference"] = "missing"
        return set(cells), notes
    notes["reference_sha256"] = reference["sha256"]
    if sha == reference["sha256"]:
        return set(), notes
    differing, worst = (compare_metrics_csv(data.decode(), reference["metrics_csv"])
                        if "metrics_csv" in reference else (None, None))
    differing = (differing or set()) & set(cells) or set(cells)
    notes["max_abs_diff"] = _json_number(worst)
    notes["cells_differing"] = sorted(differing)
    return differing, notes


def _json_number(x: float | None):
    return x if x is None or math.isfinite(x) else repr(x)


@dataclasses.dataclass(frozen=True)
class Matrix:
    """The cross-validated experiment matrix, default_config(task) at --jobs 1.

    pool_jobs: when set, a traced run also times one repeat at --jobs pool_jobs.
    """

    task: str
    pool_jobs: int | None = None

    @property
    def reference_key(self) -> str:
        return self.task

    def inputs(self, seed: int, smoke: bool):
        config = dataclasses.replace(harness.default_config(self.task), seed=data_seed(seed))
        if smoke:
            config = dataclasses.replace(config, iterations=SMOKE["iterations"],
                                         bootstrap_resamples=SMOKE["bootstrap_resamples"])
        return config

    def operations(self, config) -> int:
        return len(config.cells())

    def work(self, config) -> int:
        """SGD steps in one repeat: cells x folds x iterations."""
        return len(config.cells()) * config.folds * config.iterations

    def run(self, config, scratch: Path, jobs: int = 1) -> Path:
        out = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        harness.run_experiment(config, out, jobs=jobs)
        return out

    def check(self, config, out: Path, reference: dict | None) -> Outcome:
        cells = [f"{lab}-{setup}-b{b}" for lab, setup, b in config.cells()]
        bad, notes = check_metrics_csv((out / "metrics.csv").read_bytes(), reference, cells)
        nonfinite = set()
        for cell in cells:
            histories = sorted((out / "cells" / cell).glob("history_fold*.csv"))
            if len(histories) != config.folds:
                bad.add(cell)
            for path in histories:
                head, rows = _parse_csv(path.read_text())
                col = head.index("loss")
                if not all(math.isfinite(float(r[col])) for r in rows):
                    nonfinite.add(cell)
        bad |= nonfinite
        if nonfinite:
            notes["nonfinite_loss_cells"] = sorted(nonfinite)
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digest = _digest((str(p.relative_to(out)), p.read_bytes()) for p in files)
        return Outcome(len(cells), len(bad), digest, notes)


@dataclasses.dataclass(frozen=True)
class GradcheckMatrix:
    """run_check_matrix over its default grid of schemes x shapes x epsilons."""

    reference_key = "gradcheck"
    pool_jobs = None

    def inputs(self, seed: int, smoke: bool) -> dict:
        return {"n_instances": SMOKE["instances"] if smoke else GRADCHECK_INSTANCES,
                "base_seed": data_seed(seed) * GRADCHECK_SEED_STRIDE}

    def operations(self, inputs) -> int:
        return (len(gradcheck.ALL_SCHEMES) * len(gradcheck.DEFAULT_SHAPES)
                * len(gradcheck.DEFAULT_EPSILONS) * inputs["n_instances"])

    def work(self, inputs) -> int:
        """Gradcheck instances verified in one repeat."""
        return self.operations(inputs)

    def run(self, inputs, scratch: Path, jobs: int = 1):
        return gradcheck.run_check_matrix(**inputs)

    def check(self, inputs, records, reference: dict | None) -> Outcome:
        failed = sum(1 for r in records if not (r.grad_report.passed and r.two_value_passed))
        missing = self.operations(inputs) - len(records)
        digest = _digest(
            (repr((r.seed, r.scheme.value, r.epsilon_label, r.shape)),
             repr(dataclasses.astuple(r.grad_report) + (r.two_value_passed,)).encode())
            for r in records)
        notes = {"instances": len(records), "failed_instances": failed}
        return Outcome(self.operations(inputs), failed + max(missing, 0), digest, notes)


WORKLOADS = {
    # 2 = nproc of the 2-core machine the baselines come from, fixed for comparability
    "matrix-binary": Matrix("binary", pool_jobs=2),
    "matrix-multiclass": Matrix("multiclass"),
    "gradcheck-matrix": GradcheckMatrix(),
}
