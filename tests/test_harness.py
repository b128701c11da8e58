"""Experiment config handling, dataset wiring, and the run/artifact pipeline."""

import numpy as np
import pytest

from dicelab import harness
from dicelab.errors import InvalidConfigError, NonFiniteTrainingError
from dicelab.harness import (
    ExperimentConfig,
    build_dataset,
    config_from_dict,
    config_to_dict,
    corrupted_tag,
    default_config,
    load_config,
    roc_target_class,
    run_cell,
    run_experiment,
    save_config,
)
from dicelab.metrics import read_csv
from dicelab.synthdata import GRADE_B, PHASE_B

TINY_DATASET = {
    "image_size": 16,
    "n_grade_a": 8,
    "n_grade_b": 4,
    "radius_a": [3.0, 4.5],
    "radius_b": [2.0, 3.0],
}


def tiny_config(**kwargs):
    base = dict(task="binary", labelings=("full", "partial"),
                setups=("image-wise", "image-wise-calibrated"), batch_sizes=(1,),
                iterations=25, folds=2, bootstrap_resamples=50, dataset=TINY_DATASET)
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_per_task(self):
        binary = default_config("binary")
        assert binary.setups == ("image-wise", "batch-wise", "image-wise-calibrated")
        assert binary.batch_sizes == (1, 4)
        multi = default_config("multiclass")
        assert multi.setups == ("image-wise", "leaf", "marginal")
        assert multi.batch_sizes == (1,)

    def test_cells_expand_the_matrix(self):
        cfg = tiny_config(batch_sizes=(1, 2))
        assert len(cfg.cells()) == 2 * 2 * 2
        assert cfg.cells()[0] == ("full", "image-wise", 1)

    @pytest.mark.parametrize("kwargs", [
        dict(task="ternary"),
        dict(labelings=("half",)),
        dict(setups=("image-wise", "mystery")),
        dict(setups=()),
        dict(batch_sizes=(0,)),
        dict(folds=1),
        dict(iterations=0),
        dict(learning_rate=-1.0),
        dict(bootstrap_resamples=0),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(learning_rate="fast"),
        dict(folds=2.5),
        dict(folds=True),
        dict(iterations=10.0),
        dict(seed="x"),
        dict(seed=-1),
        dict(bootstrap_resamples=50.5),
        dict(batch_sizes=(1, 2.0)),
        dict(batch_sizes=(True,)),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidConfigError):
            tiny_config(**kwargs)

    def test_marginal_requires_multiclass(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(task="binary", setups=("image-wise", "marginal"))

    def test_dict_round_trip(self):
        cfg = tiny_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_fields_rejected(self):
        raw = config_to_dict(tiny_config())
        raw["turbo"] = True
        with pytest.raises(InvalidConfigError):
            config_from_dict(raw)

    def test_schema_version_checked(self):
        raw = config_to_dict(tiny_config())
        raw["schema_version"] = 99
        with pytest.raises(InvalidConfigError):
            config_from_dict(raw)

    def test_task_required(self):
        with pytest.raises(InvalidConfigError):
            config_from_dict({"seed": 1})

    def test_yaml_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("task: [unclosed\n")
        with pytest.raises(InvalidConfigError):
            load_config(path)


class TestBuildDataset:
    def test_binary_partial_empties_grade_b_only(self):
        full, partial = build_dataset(tiny_config())
        assert len(full) == len(partial) == 12
        for f, p in zip(full.samples, partial.samples):
            if f.tag == GRADE_B:
                assert f.gt.sum() > 0 and p.gt.sum() == 0
                assert p.availability.tolist() == [True]
            else:
                assert np.array_equal(f.gt, p.gt)

    def test_multiclass_partial_marks_shell_unavailable(self):
        full, partial = build_dataset(default_config("multiclass"))
        shell = full.class_names.index("shell")
        for f, p in zip(full.samples, partial.samples):
            if f.tag == PHASE_B:
                assert p.gt[shell].sum() == 0
                assert not p.availability[shell]
            else:
                assert p.availability.all()

    def test_bad_dataset_override_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_dataset(tiny_config(dataset={"mystery_knob": 3}))

    def test_tag_helpers(self):
        assert corrupted_tag("binary") == GRADE_B
        assert corrupted_tag("multiclass") == PHASE_B
        assert roc_target_class("binary") == "lesion"
        assert roc_target_class("multiclass") == "shell"


class TestRunCell:
    def test_metric_rows_cover_validation_folds(self):
        cfg = tiny_config()
        result = run_cell(cfg, "full", "image-wise", 1)
        rows = result.metric_rows
        assert len(rows) == 12  # every subject appears in exactly one fold
        assert sorted(r.subject_id for r in rows) == list(range(12))
        assert rows == tuple(sorted(rows, key=lambda r: (r.fold, r.subject_id, r.class_name)))
        for r in rows:
            assert r.subject_id % cfg.folds == r.fold
            assert r.class_name == "lesion"
            assert 0.0 <= r.dsc <= 1.0
            assert r.true_vol > 0.0

    def test_calibrated_setup_records_per_fold_epsilon(self):
        result = run_cell(tiny_config(), "partial", "image-wise-calibrated", 1)
        folds = [fold for fold, name, value in result.calibration_rows]
        assert folds == [0, 1]
        assert all(name == "lesion" for _, name, _ in result.calibration_rows)
        assert all(value > 0 for _, _, value in result.calibration_rows)

    def test_plain_setup_has_no_calibration(self):
        result = run_cell(tiny_config(), "full", "image-wise", 1)
        assert result.calibration_rows == ()

    def test_non_finite_training_names_cell_and_fold(self, monkeypatch):
        real = harness.train

        def diverge_on_second_fold(train_split, cfg):
            if cfg.seed == 1:  # run_cell seeds each fold's training with the fold index
                raise NonFiniteTrainingError(
                    "non-finite loss or weight gradient at iteration 5")
            return real(train_split, cfg)

        monkeypatch.setattr(harness, "train", diverge_on_second_fold)
        with pytest.raises(NonFiniteTrainingError,
                           match="cell partial-image-wise-b1 fold 1: .* iteration 5"):
            run_cell(tiny_config(), "partial", "image-wise", 1)


def fail_if_trained(*args, **kwargs):
    raise AssertionError("a cell trained")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny-run")
    config = tiny_config()
    return config, run_experiment(config, out)


class TestRunExperiment:
    def test_artifacts_exist(self, tiny_run):
        _, artifacts = tiny_run
        for path in (artifacts.config_path, artifacts.metrics_csv, artifacts.summary_csv,
                     artifacts.auc_csv, artifacts.roc_csv, artifacts.calibration_csv,
                     artifacts.comparisons_csv, artifacts.dataset_dir / "manifest.json"):
            assert path.exists(), path
        assert len(artifacts.cell_dirs) == 4
        for cdir in artifacts.cell_dirs:
            assert (cdir / "history_fold0.csv").exists()
            assert (cdir / "fold1.model").exists()

    def test_summary_covers_every_cell_and_tag(self, tiny_run):
        config, artifacts = tiny_run
        header, rows = read_csv(artifacts.summary_csv)
        idx = {h: i for i, h in enumerate(header)}
        keys = {(r[idx["labeling"]], r[idx["setup"]], r[idx["tag"]]) for r in rows}
        for labeling, setup, _ in config.cells():
            for tag in ("grade-a", "grade-b", "all"):
                assert (labeling, setup, tag) in keys

    def test_comparisons_have_both_kinds(self, tiny_run):
        _, artifacts = tiny_run
        header, rows = read_csv(artifacts.comparisons_csv)
        kinds = {r[0] for r in rows}
        assert kinds == {"labeling", "setup"}
        p_idx = header.index("p_value")
        assert all(0.0 <= float(r[p_idx]) <= 1.0 for r in rows)

    def test_history_losses_are_finite(self, tiny_run):
        _, artifacts = tiny_run
        header, rows = read_csv(artifacts.cell_dirs[0] / "history_fold0.csv")
        loss_idx = header.index("loss")
        values = [float(r[loss_idx]) for r in rows]
        assert len(values) == 25
        assert all(np.isfinite(v) for v in values)

    def test_parallel_jobs_write_identical_artifacts(self, tiny_run, tmp_path_factory):
        config, artifacts = tiny_run
        out2 = tmp_path_factory.mktemp("tiny-run-jobs")
        run_experiment(config, out2, jobs=2)
        for a in sorted(artifacts.out_dir.rglob("*.csv")):
            b = out2 / a.relative_to(artifacts.out_dir)
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_serial_run_builds_the_dataset_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_build(config):
            calls.append(config)
            return build_dataset(config)

        monkeypatch.setattr(harness, "build_dataset", counting_build)
        config = tiny_config(setups=("image-wise",), iterations=5)
        artifacts = run_experiment(config, tmp_path / "x")
        assert len(artifacts.cell_dirs) == 2
        assert len(calls) == 1

    def test_non_empty_output_directory_rejected(self, tiny_run):
        config, artifacts = tiny_run
        before = sorted(artifacts.out_dir.rglob("*"))
        with pytest.raises(InvalidConfigError, match="new or empty"):
            run_experiment(config, artifacts.out_dir)
        assert sorted(artifacts.out_dir.rglob("*")) == before

    def test_existing_empty_output_directory_allowed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "run_cell", fail_if_trained)
        (tmp_path / "empty").mkdir()
        with pytest.raises(AssertionError, match="trained"):
            run_experiment(tiny_config(), tmp_path / "empty")

    def test_batch_size_must_fit_every_fold_before_training(self, tmp_path, monkeypatch):
        # 12 subjects in 2 folds leave 6 training samples per fold
        monkeypatch.setattr(harness, "run_cell", fail_if_trained)
        with pytest.raises(InvalidConfigError, match=r"\[7\].*6 samples"):
            run_experiment(tiny_config(batch_sizes=(6, 7)), tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_every_fold_must_hold_out_a_subject(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "run_cell", fail_if_trained)
        with pytest.raises(InvalidConfigError, match="13 folds"):
            run_experiment(tiny_config(folds=13), tmp_path / "x")

    def test_bad_job_count(self, tiny_run, tmp_path):
        config, _ = tiny_run
        with pytest.raises(InvalidConfigError):
            run_experiment(config, tmp_path / "x", jobs=0)
