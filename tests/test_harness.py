"""Experiment config handling, dataset wiring, and the run/artifact pipeline."""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dicelab import harness
from dicelab.errors import InvalidConfigError, NonFiniteTrainingError
from dicelab.harness import (
    ARTIFACTS,
    LABELINGS,
    SETUPS,
    TASKS,
    CellResult,
    ExperimentConfig,
    build_dataset,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
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


TINY_MULTICLASS = {
    "image_size": 32,
    "n_phase_a": 4,
    "n_phase_b": 2,
    "core_radius": [2.5, 3.5],
    "shell_width": [1.5, 2.0],
    "satellite_radius": [2.0, 3.0],
    "center_jitter": 1.0,
}


def tiny_config(**kwargs):
    base = dict(task="binary", labelings=("full", "partial"),
                setups=("image-wise", "image-wise-calibrated"), batch_sizes=(1,),
                iterations=25, folds=2, bootstrap_resamples=50, dataset=TINY_DATASET)
    base.update(kwargs)
    return ExperimentConfig(**base)


def tiny_multiclass_config(**kwargs):
    """Six subjects whose full labels leave no (sample, class) map empty."""
    return tiny_config(task="multiclass", setups=("image-wise", "leaf"),
                       dataset=TINY_MULTICLASS, **kwargs)


def no_empty_map(ds):
    return bool(ds.gt.any(axis=(-2, -1)).all())


class TestConfig:
    def test_defaults_per_task(self):
        binary = default_config("binary")
        assert binary.setups == ("image-wise", "batch-wise", "image-wise-calibrated")
        assert binary.batch_sizes == (1, 4)
        multi = default_config("multiclass")
        assert multi.setups == ("image-wise", "leaf", "marginal")
        assert multi.batch_sizes == (1,)

    @pytest.mark.parametrize("task", ["binary", "multiclass"])
    def test_omitted_matrix_is_the_tasks(self, task):
        # ExperimentConfig(task="multiclass") used to take the binary setups and batch sizes
        assert ExperimentConfig(task) == default_config(task)
        assert ExperimentConfig(task).setups == TASKS[task].setups
        assert ExperimentConfig(task).batch_sizes == TASKS[task].batch_sizes
        given = ExperimentConfig(task, setups=("image-wise",), batch_sizes=(2,))
        assert (given.setups, given.batch_sizes) == (("image-wise",), (2,))

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
        dict(dataset=[1, 2]),
        dict(dataset={"radius_a": 5}),
        dict(dataset={"radius_b": [2.0]}),
        dict(batch_sizes=4),
        dict(labelings="full"),
        dict(setups="image-wise"),
        dict(labelings=("full", "full")),
        dict(setups=("image-wise", "image-wise")),
        dict(batch_sizes=(1, 2, 1)),
        dict(learning_rate=10 ** 400),  # an int past the float range
        # generator parameters: a bool count made one sample, a NaN jitter an OverflowError
        dict(dataset={"n_grade_a": True}),
        dict(dataset={"noise_sigma": "0.1"}),
        dict(dataset={"radius_a": [3.0, float("nan")]}),
        dict(dataset={"intensity_b": {"low": 0.1, "high": 0.2}}),
        dict(task="multiclass", dataset={"center_jitter": float("nan")}),
        dict(task="multiclass", dataset={"phase_b_shrink": True}),
    ])
    def test_validation(self, kwargs):
        # the raw mapping a config file parses to, up to building the dataset
        raw = {**config_to_dict(tiny_config()), **kwargs}
        with pytest.raises(InvalidConfigError) as exc:
            build_dataset(config_from_dict(raw))
        # config_from_dict turns a constructor TypeError into InvalidConfigError;
        # none of these inputs may reach that, so ExperimentConfig itself stays typed
        assert not isinstance(exc.value.__cause__, TypeError)

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

    @pytest.mark.parametrize("version", [99, True, 1.0])
    def test_schema_version_checked(self, version):
        raw = config_to_dict(tiny_config())
        raw["schema_version"] = version
        with pytest.raises(InvalidConfigError):
            config_from_dict(raw)

    def test_string_in_place_of_a_list_is_rejected_whole(self):
        # iterated, "full" would be reported as the unknown labeling 'f'
        raw = {**config_to_dict(tiny_config()), "labelings": "full"}
        with pytest.raises(InvalidConfigError, match="labelings must be a list"):
            config_from_dict(raw)

    def test_task_required(self):
        with pytest.raises(InvalidConfigError):
            config_from_dict({"seed": 1})

    @pytest.mark.parametrize("task", list(TASKS))
    def test_omitted_fields_take_the_task_defaults(self, tmp_path, task):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"task: {task}\n")
        assert load_config(path) == default_config(task)

    def test_yaml_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_directory_is_not_a_config_file(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            load_config(tmp_path)

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("task: [unclosed\n")
        with pytest.raises(InvalidConfigError):
            load_config(path)


class TestBuildDataset:
    def test_binary_partial_empties_grade_b_only(self):
        full, partial = build_dataset(tiny_config())
        assert len(full) == len(partial) == 12
        target = full.tags == GRADE_B
        assert full.gt[target].sum(axis=(1, 2, 3)).all() and not partial.gt[target].any()
        assert partial.availability.all()
        assert np.array_equal(full.gt[~target], partial.gt[~target])

    def test_multiclass_partial_marks_shell_unavailable(self):
        full, partial = build_dataset(default_config("multiclass"))
        shell = full.class_names.index("shell")
        target = full.tags == PHASE_B
        assert not partial.gt[target, shell].any()
        assert not partial.availability[target, shell].any()
        assert partial.availability[~target].all()

    def test_bad_dataset_override_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_dataset(tiny_config(dataset={"mystery_knob": 3}))

    def test_task_table_names_cohorts_and_targets(self):
        assert TASKS["binary"].partial.tag == GRADE_B
        assert TASKS["multiclass"].partial.tag == PHASE_B
        assert TASKS["binary"].roc_target == "lesion"
        assert TASKS["multiclass"].roc_target == "shell"


class TestRunCell:
    def test_metric_rows_cover_validation_folds(self):
        cfg = tiny_config()
        result = run_cell(cfg, "full", "image-wise", 1, build_dataset(cfg))
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
        cfg = tiny_config()
        result = run_cell(cfg, "partial", "image-wise-calibrated", 1, build_dataset(cfg))
        folds = [fold for fold, name, value in result.calibration_rows]
        assert folds == [0, 1]
        assert all(name == "lesion" for _, name, _ in result.calibration_rows)
        assert all(value > 0 for _, _, value in result.calibration_rows)

    def test_plain_setup_has_no_calibration(self):
        cfg = tiny_config()
        result = run_cell(cfg, "full", "image-wise", 1, build_dataset(cfg))
        assert result.calibration_rows == ()

    def test_non_finite_training_names_cell_and_fold(self, monkeypatch):
        real = harness.train

        def diverge_on_second_fold(train_split, cfg):
            if cfg.seed == 1:  # run_cell seeds each fold's training with the fold index
                raise NonFiniteTrainingError(
                    "non-finite loss or weight gradient at iteration 5")
            return real(train_split, cfg)

        monkeypatch.setattr(harness, "train", diverge_on_second_fold)
        cfg = tiny_config()
        with pytest.raises(NonFiniteTrainingError,
                           match="cell partial-image-wise-b1 fold 1: .* iteration 5"):
            run_cell(cfg, "partial", "image-wise", 1, build_dataset(cfg))


def fail_if_trained(*args, **kwargs):
    raise AssertionError("a cell trained")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny-run")
    config = tiny_config()
    assert run_experiment(config, str(out)) == out  # the output directory, as a Path
    return config, out


class TestRunExperiment:
    def test_artifacts_exist(self, tiny_run):
        config, out = tiny_run
        for name in ("config_snapshot.yaml", *ARTIFACTS, "dataset/manifest.json"):
            assert (out / name).is_file(), name
        # the artifact table is the whole run root, beside the snapshot and two directories
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*ARTIFACTS, "config_snapshot.yaml", "dataset", "cells"])
        assert sorted(p.name for p in (out / "cells").iterdir()) == sorted(
            harness._cell_dirname(*cell) for cell in config.cells())
        for cdir in (out / "cells").iterdir():
            assert (cdir / "history_fold0.csv").exists()
            assert (cdir / "fold1.model").exists()

    def test_summary_covers_every_cell_and_tag(self, tiny_run):
        config, out = tiny_run
        header, rows = read_csv(out / "summary.csv")
        idx = {h: i for i, h in enumerate(header)}
        keys = {(r[idx["labeling"]], r[idx["setup"]], r[idx["tag"]]) for r in rows}
        for labeling, setup, _ in config.cells():
            for tag in ("grade-a", "grade-b", "all"):
                assert (labeling, setup, tag) in keys

    def test_comparisons_have_both_kinds(self, tiny_run):
        _, out = tiny_run
        header, rows = read_csv(out / "comparisons.csv")
        kinds = {r[0] for r in rows}
        assert kinds == {"labeling", "setup"}
        p_idx = header.index("p_value")
        assert all(0.0 <= float(r[p_idx]) <= 1.0 for r in rows)

    def test_history_losses_are_finite(self, tiny_run):
        _, out = tiny_run
        header, rows = read_csv(out / "cells" / "full-image-wise-b1" / "history_fold0.csv")
        loss_idx = header.index("loss")
        values = [float(r[loss_idx]) for r in rows]
        assert len(values) == 25
        assert all(np.isfinite(v) for v in values)

    def test_history_csv_holds_each_folds_train_history(self, tmp_path, monkeypatch):
        histories, real = [], harness.train

        def recording(train_split, cfg):
            result = real(train_split, cfg)
            histories.append(result.history)
            return result

        monkeypatch.setattr(harness, "train", recording)
        config = tiny_config(labelings=("partial",), setups=("image-wise-calibrated",),
                             iterations=7)
        out = run_experiment(config, tmp_path / "x")
        cdir = out / "cells" / "partial-image-wise-calibrated-b1"
        assert len(histories) == config.folds
        for fold, history in enumerate(histories):
            header, rows = read_csv(cdir / f"history_fold{fold}.csv")
            assert header == ["iteration", "loss", "grad_y0_lesion", "grad_y1_lesion"]
            assert [int(r[0]) for r in rows] == list(range(1, 8))
            parsed = np.array([[float(v) for v in r[1:]] for r in rows])
            assert parsed.shape == history.shape
            assert parsed.tobytes() == history.tobytes()
            # each value as its repr, the iteration as an int
            lines = [",".join(header)] + [",".join([str(i), *map(repr, row)])
                                          for i, row in enumerate(history.tolist(), 1)]
            text = (cdir / f"history_fold{fold}.csv").read_text()
            assert text == "\n".join(lines) + "\n"

    def test_shared_cells_write_their_representatives_history(self, tmp_path):
        config = tiny_config(setups=("image-wise", "batch-wise"), labelings=("full",),
                             iterations=5)
        out = run_experiment(config, tmp_path / "x")
        for fold in range(config.folds):
            name = f"history_fold{fold}.csv"
            assert ((out / "cells" / "full-batch-wise-b1" / name).read_bytes()
                    == (out / "cells" / "full-image-wise-b1" / name).read_bytes())

    def test_parallel_jobs_write_identical_artifacts(self, tiny_run, tmp_path_factory):
        config, out = tiny_run
        out2 = tmp_path_factory.mktemp("tiny-run-jobs")
        run_experiment(config, out2, jobs=2)
        for a in sorted(out.rglob("*.csv")):
            b = out2 / a.relative_to(out)
            assert a.read_bytes() == b.read_bytes(), a.name

    @staticmethod
    def run_trees(config, root):
        """The file tree of run_experiment(config) at one and at two jobs, path -> bytes."""
        trees = []
        for jobs in (1, 2):
            out = run_experiment(config, root / f"jobs{jobs}", jobs=jobs)
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        return trees

    def test_default_run_trees_match_at_one_and_two_jobs(self, tmp_path):
        trees = self.run_trees(replace(default_config("binary"), iterations=5), tmp_path)
        assert trees[0] == trees[1]

    def test_shared_leaf_cell_trees_match_at_one_and_two_jobs(self, tmp_path):
        trees = self.run_trees(tiny_multiclass_config(iterations=5), tmp_path)
        assert trees[0] == trees[1]
        for fold in range(2):  # full-leaf-b1 copies its representative's history
            leaf, image = (trees[1][Path("cells", f"full-{s}-b1", f"history_fold{fold}.csv")]
                           for s in ("leaf", "image-wise"))
            assert leaf == image

    def test_serial_run_builds_the_dataset_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_build(config):
            calls.append(config)
            return build_dataset(config)

        monkeypatch.setattr(harness, "build_dataset", counting_build)
        config = tiny_config(setups=("image-wise",), iterations=5)
        out = run_experiment(config, tmp_path / "x")
        assert len(list((out / "cells").iterdir())) == 2
        assert len(calls) == 1

    def test_non_empty_output_directory_rejected(self, tiny_run):
        config, out = tiny_run
        before = sorted(out.rglob("*"))
        with pytest.raises(InvalidConfigError, match="new or empty"):
            run_experiment(config, out)
        assert sorted(out.rglob("*")) == before

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

    # jobs=2.5 created the output directory, then raised TypeError in the pool
    @pytest.mark.parametrize("jobs", [0, 2.5, True, "2"])
    def test_bad_job_count(self, tiny_run, tmp_path, jobs):
        config, _ = tiny_run
        with pytest.raises(InvalidConfigError):
            run_experiment(config, tmp_path / "x", jobs=jobs)
        assert not (tmp_path / "x").exists()


def assert_same_result(a, b):
    """Two CellResults equal field by field, the model weights and histories bit for bit."""
    for f in fields(CellResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "models":
            assert [(m.weights.shape, m.weights.tobytes()) for m in x] == [
                (m.weights.shape, m.weights.tobytes()) for m in y]
        elif f.name == "histories":
            assert [(h.shape, h.tobytes()) for h in x] == [(h.shape, h.tobytes()) for h in y]
        else:
            assert x == y, f.name


def counting_run_cell(monkeypatch):
    """Make harness.run_cell record each cell it trains; returns the record."""
    trained, real = [], harness.run_cell

    def counting(config, labeling, setup, batch_size, datasets):
        trained.append((labeling, setup, batch_size))
        return real(config, labeling, setup, batch_size, datasets)

    monkeypatch.setattr(harness, "run_cell", counting)
    return trained


class TestCellSharing:
    def test_shared_cell_equals_its_own_training(self, monkeypatch):
        config = tiny_config(setups=("image-wise", "batch-wise"), iterations=12)
        datasets = build_dataset(config)
        trained = counting_run_cell(monkeypatch)
        results = harness._run_cells(config, datasets, jobs=1)
        assert trained == [("full", "image-wise", 1), ("partial", "image-wise", 1)]
        assert [r.key for r in results] == config.cells()
        for shared in (r for r in results if r.setup == "batch-wise"):
            assert_same_result(shared, run_cell(config, *shared.key, datasets))

    def test_batch_wise_trains_apart_when_the_batch_holds_two(self, monkeypatch):
        config = tiny_config(setups=("image-wise", "batch-wise"), batch_sizes=(2,),
                             iterations=3)
        trained = counting_run_cell(monkeypatch)
        harness._run_cells(config, build_dataset(config), jobs=1)
        assert trained == config.cells()

    def test_pool_gives_the_serial_results(self):
        config = tiny_config(setups=("image-wise", "batch-wise"), batch_sizes=(1, 2),
                             iterations=3)
        serial = harness._run_cells(config, build_dataset(config), jobs=1)
        pooled = harness._run_cells(config, build_dataset(config), jobs=2)
        for a, b in zip(serial, pooled, strict=True):
            assert_same_result(a, b)
            for r in (a, b):  # unpickled pool results are frozen like serial ones
                assert not any(h.flags.writeable for h in r.histories)
                assert not any(m.weights.flags.writeable for m in r.models)

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (5, 5), (64, 6)])
    def test_pool_starts_no_more_workers_than_cells_to_train(self, monkeypatch, jobs, workers):
        # a fork pool starts all max_workers processes on the first submit
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        trained = counting_run_cell(monkeypatch)
        config = tiny_config(setups=("image-wise", "batch-wise"), batch_sizes=(1, 2),
                             iterations=3)
        results = harness._run_cells(config, build_dataset(config), jobs=jobs)
        assert len(trained) == 6 and len(results) == 8  # batch-wise at B = 1 trains once
        assert seen == [workers]

    @pytest.mark.parametrize("complete", [False, True])
    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_key_merges_only_cells_that_train_alike(self, n_classes, complete):
        def key(cell):
            return harness._training_key(*cell, n_classes, complete)

        cells = [(lab, setup, b) for lab in LABELINGS for setup in SETUPS for b in (1, 2, 4)]
        for a in cells:
            for b in cells:
                if key(a) != key(b):
                    continue
                (lab_a, setup_a, b_a), (lab_b, setup_b, b_b) = a, b
                assert lab_a == lab_b and b_a == b_b
                assert SETUPS[setup_a].calibrated == SETUPS[setup_b].calibrated
                if complete and {setup_a, setup_b} == {"image-wise", "leaf"}:
                    continue  # the one merge complete labels add
                if complete and {setup_a, setup_b} == {"batch-wise", "leaf"} and b_a == 1:
                    continue  # both merge with image-wise there
                assert SETUPS[setup_a].variant is SETUPS[setup_b].variant
                assert {setup_a, setup_b} <= {"image-wise", "batch-wise"} or setup_a == setup_b
                assert setup_a == setup_b or b_a == 1
        image, batch = ("full", "image-wise", 1), ("full", "batch-wise", 1)
        assert key(image) == key(batch)
        for b in (1, 2, 4):
            assert (key(("full", "leaf", b)) == key(("full", "image-wise", b))) is complete

    def test_leaf_on_complete_labels_is_image_wise(self, monkeypatch):
        config = tiny_multiclass_config(labelings=("full",), iterations=12)
        datasets = build_dataset(config)
        assert no_empty_map(datasets[0])
        leaf = run_cell(config, "full", "leaf", 1, datasets)
        image = run_cell(config, "full", "image-wise", 1, datasets)
        assert_same_result(replace(leaf, setup="image-wise"), image)
        trained = counting_run_cell(monkeypatch)
        results = harness._run_cells(config, datasets, jobs=1)
        assert trained == [("full", "image-wise", 1)]
        assert_same_result(results[1], leaf)

    def test_leaf_trains_apart_when_a_map_is_empty(self, monkeypatch):
        config = tiny_multiclass_config(labelings=("full",), iterations=12)
        full, partial = build_dataset(config)
        gt = full.gt.copy()
        gt[0, 1] = False  # subject 0's shell
        datasets = (replace(full, gt=gt), partial)
        assert not no_empty_map(datasets[0])
        trained = counting_run_cell(monkeypatch)
        image, leaf = harness._run_cells(config, datasets, jobs=1)
        assert trained == config.cells()
        assert [m.weights.tobytes() for m in leaf.models] != [
            m.weights.tobytes() for m in image.models]

    @pytest.mark.parametrize("task, trained_cells", [("binary", 10), ("multiclass", 5)])
    def test_default_configs_train_fewer_cells_than_they_have(self, monkeypatch, task,
                                                              trained_cells):
        # binary: batch-wise at B = 1 twice; multiclass: leaf on the full labels
        config = replace(default_config(task), iterations=2)
        trained = counting_run_cell(monkeypatch)
        results = harness._run_cells(config, build_dataset(config), jobs=1)
        assert len(trained) == trained_cells and len(results) == len(config.cells())
