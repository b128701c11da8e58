"""Self-tests of the benchmark: its arithmetic, its tracer and a smoke run of each workload.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the package's own test collection.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_nested_children():
    tree = [
        ("a", None, "outer", 0.0, 10.0),
        ("b", "a", "mid", 1.0, 4.0),
        ("d", "b", "leaf", 2.0, 3.0),
        ("c", "a", "mid", 5.0, 9.0),
    ]
    assert spans.self_times(tree) == {"a": 3.0, "b": 2.0, "d": 1.0, "c": 4.0}


def test_self_time_counts_overlapping_children_once():
    tree = [
        ("p", None, "run", 0.0, 10.0),
        ("x", "p", "cell", 1.0, 6.0),
        ("y", "p", "cell", 4.0, 8.0),
        ("z", "p", "cell", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)["p"] == pytest.approx(10.0 - 7.0 - 1.0)


def test_untraced_time_is_root_self_time_plus_time_outside_roots():
    tracer = spans.Tracer()
    tracer.spans = [
        (0, None, "run", 1.0, 9.0),
        (1, 0, "cell", 2.0, 5.0),
        (2, 1, "step", 3.0, 4.0),
        (3, 0, "cell", 6.0, 8.0),
    ]
    # 1 s before the root, 3 s of the root's own code, 1 s after it
    assert spans.Trace(tracer).untraced(0.0, 10.0) == pytest.approx(5.0)


def test_lpt_makespan_is_longest_first_not_optimal():
    # LPT: 5 | 4, then 3 -> 4+3, 3 -> 5+3, 3 -> 7+3; the optimum is 9 (5+4 | 3+3+3)
    assert spans.lpt_makespan([3, 3, 5, 3, 4], 2) == 10
    assert spans.lpt_makespan([1.5, 2.5], 1) == 4.0
    assert spans.lpt_makespan([1.0, 2.0], 4) == 2.0


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (200, 95.0),
    (1000, 99.0), (1100, 99.0), (2000, 99.5), (10000, 99.9), (54000, 99.95),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


def test_summarize_reports_median_tail_and_count():
    values = list(range(1, 101))  # nearest rank of p90 among 100 is the 90th value
    assert spans.summarize(values) == {"n": 100, "median": 50.5, "tail_percentile": 90.0,
                                       "tail": 90}
    assert spans.summarize([2.0]) == {"n": 1, "median": 2.0, "tail_percentile": None,
                                      "tail": None}


def test_installed_patches_every_binding_and_restores():
    leaf_mod = types.ModuleType("fakepkg.leafmod")
    exec("def leaf(x):\n    return x + 1\n", leaf_mod.__dict__)
    user_mod = types.ModuleType("fakepkg.user")
    user_mod.leaf = leaf_mod.leaf  # bound by name, as `from .leafmod import leaf` does
    exec("def outer(x):\n    return leaf(x) * 2\n", user_mod.__dict__)
    modules = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.leafmod": leaf_mod,
               "fakepkg.user": user_mod}
    sys.modules.update(modules)
    original = leaf_mod.leaf
    try:
        tracer = spans.Tracer()
        targets = [("fakepkg.leafmod", "leaf", "leafmod.leaf", None),
                   ("fakepkg.user", "outer", "user.outer", None),
                   ("fakepkg.user", "gone", "user.gone", None)]
        with spans.installed(tracer, targets, "fakepkg"):
            assert user_mod.outer(1) == 4
        assert user_mod.leaf is original and leaf_mod.leaf is original
        trace = spans.Trace(tracer)
        (leaf,) = trace.named("leafmod.leaf")
        (outer,) = trace.named("user.outer")
        assert leaf[1] == outer[0]
        assert trace.calls("user.gone") == 0
    finally:
        for name in modules:
            del sys.modules[name]


def test_metrics_csv_comparison_names_cells_and_largest_difference():
    head = "labeling,setup,batch_size,fold,subject_id,tag,class,dsc,delta_v,pred_vol,true_vol\n"
    ref = head + "full,image-wise,1,0,3,A,lesion,0.5,2.0,10.0,8.0\n" \
                 "full,batch-wise,4,0,3,A,lesion,0.25,1.0,9.0,8.0\n"
    got = ref.replace("0.25,1.0,9.0", "0.2500000000000001,1.0,9.0")
    bad, worst = workloads.compare_metrics_csv(got, ref)
    assert bad == {"full-batch-wise-b4"}
    assert 0.0 < worst < 1e-15
    assert workloads.compare_metrics_csv(ref, ref) == (set(), 0.0)
    assert workloads.compare_metrics_csv("other" + got, ref) == (None, None)


@pytest.mark.parametrize("change", [
    lambda t: t.replace("\n", "\r\n"),  # line endings only
    lambda t: t + "\n",  # a trailing blank line only
    lambda t: "\n".join([t.splitlines()[0], *reversed(t.splitlines()[1:])]) + "\n",  # cell order
])
def test_any_metrics_csv_sha_mismatch_fails_cells(change):
    head = "labeling,setup,batch_size,fold,subject_id,tag,class,dsc,delta_v,pred_vol,true_vol\n"
    ref = head + "full,image-wise,1,0,3,A,lesion,0.5,2.0,10.0,8.0\n" \
                 "full,batch-wise,4,0,3,A,lesion,0.25,1.0,9.0,8.0\n"
    reference = {"sha256": hashlib.sha256(ref.encode()).hexdigest(), "metrics_csv": ref}
    cells = ["full-image-wise-b1", "full-batch-wise-b4"]
    assert workloads.check_metrics_csv(ref.encode(), reference, cells)[0] == set()
    bad, notes = workloads.check_metrics_csv(change(ref).encode(), reference, cells)
    assert bad == set(cells)
    assert notes["metrics_sha256"] != reference["sha256"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_passes_its_gate_and_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    *_, detail_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    detail = json.loads(detail_line)
    if trace:
        assert detail["counts_match_reference"] is True
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "--workload", "matrix-binary", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
