"""End-to-end acceptance gate.

One test per numbered criterion of the package's test plan, each printing a
single PASS/FAIL line (bypassing capture) so the verdicts are visible in the
normal pytest run. The heavyweight experiment fixtures run once per module.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from click.testing import CliRunner

from dicelab.cli import main as cli_main
from dicelab.epsilon import BalanceParams, calibrate_epsilon, solve_balance_epsilon
from dicelab.gradcheck import random_instance, run_check_matrix
from dicelab.harness import build_dataset, default_config, run_experiment
from dicelab.loss import DiceLossConfig, dice_value_and_grad
from dicelab.metrics import read_csv
from dicelab.tensor import ReductionScheme, Role, Shape, make_batch


@pytest.fixture
def say(capsys):
    def _say(number: int, label: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"acceptance {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return _say


@pytest.fixture(scope="module")
def gradcheck_matrix():
    t0 = time.perf_counter()
    records = run_check_matrix(n_instances=100)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def binary_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("binary-run")
    config = default_config("binary")
    t0 = time.perf_counter()
    artifacts = run_experiment(config, out)
    return config, artifacts, time.perf_counter() - t0


@pytest.fixture(scope="module")
def multiclass_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("multiclass-run")
    config = default_config("multiclass")
    artifacts = run_experiment(config, out)
    return config, artifacts


def _table(path, key_cols):
    """CSV rows keyed by a column tuple, values as column dicts."""
    header, rows = read_csv(path)
    idx = {h: i for i, h in enumerate(header)}
    out = {}
    for row in rows:
        key = tuple(row[idx[c]] for c in key_cols)
        out[key] = {h: row[idx[h]] for h in header}
    return out


def test_01_gradient_oracle_matrix(gradcheck_matrix, say):
    records, elapsed = gradcheck_matrix
    n_expected = 4 * 4 * 3 * 100  # schemes x shapes x epsilon settings x instances
    failures = [r for r in records if not r.grad_report.passed]
    worst_rel = max(r.grad_report.max_rel_err for r in records)
    ok = not failures and len(records) == n_expected and elapsed < 60.0
    say(1, "analytic-vs-finite-difference matrix", ok,
        f"{len(records)} instances, {len(failures)} grad failures, "
        f"worst rel err {worst_rel:.2e}, {elapsed:.1f}s < 60s")
    assert len(records) == n_expected
    assert not failures
    assert elapsed < 60.0


def test_02_two_value_property(gradcheck_matrix, say):
    records, _ = gradcheck_matrix
    failures = [r for r in records if not r.two_value_passed]
    ok = not failures
    say(2, "two gradient values per subset", ok,
        f"{len(records)} instances, {len(failures)} failures")
    assert not failures


def test_03_scheme_degeneracies(say):
    pairs = [
        ((1, 3, 12), ReductionScheme.IMAGE_WISE, ReductionScheme.BATCH_WISE),
        ((1, 3, 12), ReductionScheme.CLASS_WISE, ReductionScheme.ALL_WISE),
        ((3, 1, 12), ReductionScheme.BATCH_WISE, ReductionScheme.ALL_WISE),
        ((3, 1, 12), ReductionScheme.IMAGE_WISE, ReductionScheme.CLASS_WISE),
    ]
    worst = 0.0
    n_checked = 0
    for dims, scheme_a, scheme_b in pairs:
        shape = Shape(*dims)
        for k in range(50):
            rng = np.random.default_rng(1000 + k)
            gt, pred = random_instance(shape, rng)
            eps = 1.0 if k % 2 else 1e-7
            cfg_a = DiceLossConfig(scheme=scheme_a, epsilon=eps)
            cfg_b = DiceLossConfig(scheme=scheme_b, epsilon=eps)
            out_a, g_a = dice_value_and_grad(gt, pred, cfg_a)
            out_b, g_b = dice_value_and_grad(gt, pred, cfg_b)
            dv = abs(out_a.value - out_b.value)
            dg = float(np.max(np.abs(g_a.data - g_b.data)))
            worst = max(worst, dv, dg)
            n_checked += 1
    ok = worst <= 1e-12
    say(3, "degenerate schemes coincide", ok,
        f"{n_checked} instances over 4 pairs, max deviation {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_04_balance_identity(say):
    targets = (1.0, 80.0, 1000.0, 12412.0)
    solved = [solve_balance_epsilon(BalanceParams(a=0.5, b=2.0, v_hat=v)) for v in targets]
    ok = all(s == v for s, v in zip(solved, targets))
    say(4, "balance equation double root at v", ok,
        "solve(a=0.5, b=2, v) == v exactly for v in {1, 80, 1000, 12412}")
    for s, v in zip(solved, targets):
        assert s == v


def test_05_missing_label_insensitivity(binary_run, say):
    _, artifacts, elapsed = binary_run
    summary = _table(artifacts.summary_csv, ("labeling", "setup", "batch_size", "tag", "class"))
    partial = float(summary[("partial", "image-wise", "1", "grade-b", "lesion")]["mean_dsc"])
    full = float(summary[("full", "image-wise", "1", "grade-b", "lesion")]["mean_dsc"])
    ok = partial >= 0.95 * full and full >= 0.85 and elapsed < 300.0
    say(5, "image-wise B=1 survives emptied labels", ok,
        f"grade-b DSC partial {partial:.3f} >= 0.95 x full {full:.3f}, "
        f"full >= 0.85, run took {elapsed:.0f}s < 300s")
    assert full >= 0.85
    assert partial >= 0.95 * full
    assert elapsed < 300.0


def test_06_empty_label_suppression(binary_run, say):
    _, artifacts, _ = binary_run
    summary = _table(artifacts.summary_csv, ("labeling", "setup", "batch_size", "tag", "class"))
    details = []
    ok = True
    for setup, batch in (("batch-wise", "4"), ("image-wise-calibrated", "1"),
                         ("image-wise-calibrated", "4")):
        row_b = summary[("partial", setup, batch, "grade-b", "lesion")]
        pred_vol = float(row_b["mean_pred_vol"])
        true_vol = float(row_b["mean_true_vol"])
        dsc_a = float(summary[("partial", setup, batch, "grade-a", "lesion")]["mean_dsc"])
        dsc_a_full = float(summary[("full", setup, batch, "grade-a", "lesion")]["mean_dsc"])
        cell_ok = pred_vol <= 0.10 * true_vol and dsc_a >= 0.9 * dsc_a_full
        ok = ok and cell_ok
        details.append(f"{setup}/b{batch} vol {pred_vol:.1f}/{true_vol:.1f} "
                       f"dscA {dsc_a:.3f} vs {dsc_a_full:.3f}")
        assert pred_vol <= 0.10 * true_vol, (setup, batch)
        assert dsc_a >= 0.9 * dsc_a_full, (setup, batch)
    say(6, "grade-b volume suppressed, grade-a kept", ok, "; ".join(details))


def test_07_volume_detection_auc(binary_run, say):
    _, artifacts, _ = binary_run
    auc = _table(artifacts.auc_csv, ("labeling", "setup", "batch_size"))
    values = {
        (setup, batch): float(auc[("partial", setup, batch)]["auc"])
        for setup, batch in (("batch-wise", "4"), ("image-wise-calibrated", "1"),
                             ("image-wise-calibrated", "4"))
    }
    ok = all(v >= 0.85 for v in values.values())
    say(7, "volume-threshold detection AUC", ok,
        ", ".join(f"{s}/b{b} AUC {v:.3f}" for (s, b), v in values.items()) + " (all >= 0.85)")
    for key, v in values.items():
        assert v >= 0.85, key


def test_08_variant_parity_on_missing_labels(multiclass_run, say):
    _, artifacts = multiclass_run
    comps = _table(artifacts.comparisons_csv,
                   ("kind", "side_a", "side_b", "batch_size", "tag", "class"))
    details = []
    ok = True
    for variant in ("leaf", "marginal"):
        row = comps[("setup", variant, "image-wise", "1", "all", "shell")]
        diff = float(row["mean_diff"])
        p = float(row["p_value"])
        ok = ok and abs(diff) <= 0.05
        details.append(f"{variant} vs image-wise shell DSC diff {diff:+.4f}, bootstrap p={p:.3f}")
        assert abs(diff) <= 0.05, variant
    say(8, "leaf/marginal match the plain loss", ok, "; ".join(details))


def test_09_calibration_direction(say):
    details = []
    ok = True
    for task, class_name in (("binary", "lesion"), ("multiclass", "shell")):
        full, partial = build_dataset(default_config(task))
        n_pixels = full.image_size ** 2
        c = full.class_names.index(class_name)

        def per_class(ds):
            maps = [make_batch(Shape(1, ds.n_classes, n_pixels), s.gt.reshape(-1),
                               Role.GROUND_TRUTH) for s in ds.samples]
            cal = calibrate_epsilon(maps, ReductionScheme.IMAGE_WISE)
            return dict(cal.per_class)[c]

        eps_full, eps_partial = per_class(full), per_class(partial)
        ok = ok and eps_partial < eps_full
        details.append(f"{task}/{class_name}: partial {eps_partial:.2f} < full {eps_full:.2f}")
        assert eps_partial < eps_full, task
    say(9, "calibrated epsilon shrinks with label loss", ok, "; ".join(details))


def test_10_byte_identical_rerun(binary_run, tmp_path_factory, say):
    _, artifacts, _ = binary_run
    rerun_dir = tmp_path_factory.mktemp("binary-rerun")
    runner = CliRunner()
    result = runner.invoke(cli_main, ["run", "--config", str(artifacts.config_path),
                                      "--out", str(rerun_dir)])
    assert result.exit_code == 0, result.output
    originals = {p.relative_to(artifacts.out_dir): p
                 for p in sorted(artifacts.out_dir.rglob("*.csv"))}
    reruns = {p.relative_to(rerun_dir): p for p in sorted(rerun_dir.rglob("*.csv"))}
    same_set = set(originals) == set(reruns)
    mismatched = [str(rel) for rel in originals
                  if rel in reruns and originals[rel].read_bytes() != reruns[rel].read_bytes()]
    ok = same_set and not mismatched
    say(10, "rerun from config snapshot is byte-identical", ok,
        f"{len(originals)} CSV files compared, {len(mismatched)} mismatched")
    assert same_set
    assert not mismatched
