"""Experiment config handling, dataset wiring, and the run/artifact pipeline."""

import hashlib
import os
import subprocess
import sys
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
    run_experiment,
    save_config,
)
from dicelab.metrics import read_csv
from dicelab.synthdata import GRADE_B, PHASE_B
from dicelab.trainer import train

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


def one_cell(config, labeling, setup, batch_size, datasets):
    """The CellResult of one cell of config, trained and scored in a matrix of its own."""
    alone = replace(config, labelings=(labeling,), setups=(setup,), batch_sizes=(batch_size,))
    return harness._run_cells(alone, datasets, jobs=1)[0]


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
    def test_scores_cover_validation_folds(self):
        cfg = tiny_config()
        result = one_cell(cfg, "full", "image-wise", 1, build_dataset(cfg))
        scores = result.scores
        assert scores.dtype.names == tuple(ARTIFACTS["metrics.csv"][3:])
        assert len(scores) == 12  # every subject appears in exactly one fold
        assert sorted(scores["subject_id"]) == list(range(12))
        rows = scores.tolist()
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[3]))
        assert (scores["subject_id"] % cfg.folds == scores["fold"]).all()
        assert (scores["class"] == "lesion").all()
        assert ((0.0 <= scores["dsc"]) & (scores["dsc"] <= 1.0)).all()
        assert (scores["true_vol"] > 0.0).all()
        assert not scores.flags.writeable

    def test_multiclass_scores_sort_subjects_then_class_names(self):
        cfg = tiny_multiclass_config(iterations=3)
        datasets = build_dataset(cfg)
        scores = one_cell(cfg, "full", "image-wise", 1, datasets).scores
        names = datasets[0].class_names
        assert list(names) != sorted(names)  # class order differs from name order
        assert len(scores) == len(datasets[0]) * len(names)
        keys = [(fold, subject, name) for fold, subject, _, name, *_ in scores.tolist()]
        assert keys == sorted(keys)

    def test_calibrated_setup_records_per_fold_epsilon(self):
        cfg = tiny_config()
        result = one_cell(cfg, "partial", "image-wise-calibrated", 1, build_dataset(cfg))
        folds = [fold for fold, name, value in result.calibration_rows]
        assert folds == [0, 1]
        assert all(name == "lesion" for _, name, _ in result.calibration_rows)
        assert all(value > 0 for _, _, value in result.calibration_rows)

    def test_plain_setup_has_no_calibration(self):
        cfg = tiny_config()
        result = one_cell(cfg, "full", "image-wise", 1, build_dataset(cfg))
        assert result.calibration_rows == ()

    def test_non_finite_training_names_cell_and_fold(self, monkeypatch):
        real = harness.train

        def diverge_on_second_fold(runs):
            if runs[0][1].seed == 1:  # each fold's group trains with the fold index as seed
                raise NonFiniteTrainingError(
                    "non-finite loss or weight gradient at iteration 5")
            return real(runs)

        monkeypatch.setattr(harness, "train", diverge_on_second_fold)
        cfg = tiny_config()
        with pytest.raises(NonFiniteTrainingError,
                           match="cell partial-image-wise-b1 fold 1: .* iteration 5"):
            one_cell(cfg, "partial", "image-wise", 1, build_dataset(cfg))


def fail_if_trained(*args, **kwargs):
    raise AssertionError("a cell trained")


# (fold, batch size) -> (the failing run's position in its group, iteration)
GROUP_FAILURES = {(0, 1): (1, 2), (1, 2): (0, 7)}


def diverge_in_two_groups(runs):
    """harness.train, except in the GROUP_FAILURES groups, which fail there."""
    cfg = runs[0][1]
    if (cfg.seed, cfg.batch_size) in GROUP_FAILURES:
        run, iteration = GROUP_FAILURES[cfg.seed, cfg.batch_size]
        raise NonFiniteTrainingError(
            f"non-finite loss or weight gradient at iteration {iteration}", run=run)
    return train(runs)


class TestFailureOrder:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_first_failing_cell_in_matrix_order_is_named(self, monkeypatch, jobs):
        # cells full-b1, full-b2, partial-b1, partial-b2: partial-b1 fails at fold 0,
        # iteration 2, in the first group; full-b2, earlier in matrix order, fails later
        # (fold 1, iteration 7) in the last group, and is the one named
        monkeypatch.setattr(harness, "train", diverge_in_two_groups)
        config = tiny_config(setups=("image-wise",), batch_sizes=(1, 2), iterations=9)
        with pytest.raises(NonFiniteTrainingError,
                           match="^cell full-image-wise-b2 fold 1: .* iteration 7$"):
            harness._run_cells(config, build_dataset(config), jobs=jobs)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny-run")
    config = tiny_config()
    assert run_experiment(config, str(out)) == out  # the output directory, as a Path
    return config, out


# sha256 of every run-level and history CSV of tiny_config() and
# tiny_multiclass_config(); the run-level ones were recorded before scoring became
# column arrays, the history ones when the sigmoid and the weight gradient moved to
# np.exp and BLAS; a refactor of training, scoring or writing must keep every byte
RUN_HASHES = {
    "binary": {
        "auc.csv": "4d16c1fe2c5f40d83ceb486348ce35488d89e7ad43556218262ac741db02a1ec",
        "calibration.csv": "b3d2cd1f8cdced77a74e2563436cf5183f3e150eaf00a3432b865d7a43027362",
        "cells/full-image-wise-b1/history_fold0.csv": "38ff737bbc1e1e141367169ccf50a09a97b46805dca995c1c90a4c5e2778bced",
        "cells/full-image-wise-b1/history_fold1.csv": "32323db65c6e79585b1c932dabf350b53b95236676fcd564a3422665495c8517",
        "cells/full-image-wise-calibrated-b1/history_fold0.csv": "efdd267ce0646cdbb0b7fd4241480004fccce49e031f23784958d2144caf34fc",
        "cells/full-image-wise-calibrated-b1/history_fold1.csv": "88ea1f044a55152688a49599db9dcc2b43dea6af713c16cf0545673ccec5ea36",
        "cells/partial-image-wise-b1/history_fold0.csv": "5ec6a0fb418a2f0ed378fc151b9984f6bad49715c084fb246341457f9ca790b5",
        "cells/partial-image-wise-b1/history_fold1.csv": "b3327ef501405d1868f11233012084c5bf59e2642745718384db9cc04797e67e",
        "cells/partial-image-wise-calibrated-b1/history_fold0.csv": "0b39e65a54247dde306492e5a712cf8dd9c629a756d44d0a1c0859b0a31354a2",
        "cells/partial-image-wise-calibrated-b1/history_fold1.csv": "211f470d77cf4f549b8bf84636fcad44f57471d1ab0fe68e8b8ca772c6a90421",
        "comparisons.csv": "b502056b53b123a012ca42b00b18cf1843f6ca0289430dcc590cc3ba5dfe7c79",
        "metrics.csv": "b3432b95b2e0988adbae9f86ddec7ce9bbac7e351c65c9b6ad9536ae62a5669d",
        "roc_points.csv": "81c845fb0030819f5917145b64b34ea29aa056dfc2462fbbbb59bb73787cee95",
        "summary.csv": "048a468e8875b760f7a0eab179bbab8a11e8c01ee5c4bb09d3130bd00b0135d8",
    },
    "multiclass": {
        "auc.csv": "138a6756996446d417d5a39832f3f616defc6e04a9c54cae0733fb1000e7488f",
        "calibration.csv": "d9c3c773f76bbe64ccfb81f7def8613a7ecb4d8ac80ee279a5fa6070f8eff9d0",
        "cells/full-image-wise-b1/history_fold0.csv": "56dc9227e6ea1210fc6726095e21e435b009cdd607afc9b92447a80cea3a1bbf",
        "cells/full-image-wise-b1/history_fold1.csv": "4839a4eabe336480502a7841e45a362cde82abbe884809919b3dbe9b0a3f28cb",
        "cells/full-leaf-b1/history_fold0.csv": "56dc9227e6ea1210fc6726095e21e435b009cdd607afc9b92447a80cea3a1bbf",
        "cells/full-leaf-b1/history_fold1.csv": "4839a4eabe336480502a7841e45a362cde82abbe884809919b3dbe9b0a3f28cb",
        "cells/partial-image-wise-b1/history_fold0.csv": "090edcc9be2e1b93528ccb6b6d8c6f7630ffe6566bbd0a1a59ebbad8af80a5e9",
        "cells/partial-image-wise-b1/history_fold1.csv": "86b02c904af396c12698acdcb3bd7d9b10ecaa3e9987542fe7b12e3a23ea5397",
        "cells/partial-leaf-b1/history_fold0.csv": "e724a7f779b01a82990107bd41c82c1fa57a518ef17dad5a1bb0c45e2558aa7d",
        "cells/partial-leaf-b1/history_fold1.csv": "e4b587d308f728d763288f9d0b42daafdab94d47dacbf03b4e0049d027767216",
        "comparisons.csv": "eff19f23b5dab8c7b54edd0b0296d25285626291e1c3c0dea5e3c3e86cacf5a0",
        "metrics.csv": "992712edec607ad9ba3ff7f4774af56e9e9924dc44ff642ca5af0f38093695aa",
        "roc_points.csv": "dfc36f89b5f8105b43d4543a88805cbe6f665fb9785f152d3eaaa443fc01d432",
        "summary.csv": "7e356a648279b5ad25c151a9493c9253b6e64f01dfd9c3f29980a84a96c0bef7",
    },
}


TINY_RUNS = """
import sys
sys.path.insert(0, {tests!r})
from test_harness import tiny_config, tiny_multiclass_config
from dicelab.harness import run_experiment
run_experiment(tiny_config(), {out!r} + "/binary")
run_experiment(tiny_multiclass_config(), {out!r} + "/multiclass")
"""


def test_the_blas_thread_count_does_not_change_a_run(tmp_path):
    # each run's weight gradient is a BLAS matrix product; one BLAS thread, as perfbench
    # pins it, and the library's default must write the same bytes
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    unset = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    trees = {}
    for name, env in [("one", {**unset, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
                      ("unset", unset)]:
        out = tmp_path / name
        code = TINY_RUNS.format(tests=str(Path(__file__).parent), out=str(out))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**env, "PYTHONPATH": path}, timeout=300)
        assert done.returncode == 0, done.stderr
        files = sorted([*out.rglob("*.csv"), *out.rglob("*.model")])
        trees[name] = {p.relative_to(out).as_posix(): p.read_bytes() for p in files}
    assert len(trees["one"]) > 20 and any(k.endswith(".model") for k in trees["one"])
    assert trees["one"] == trees["unset"]


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

    @staticmethod
    def run_hashes(out):
        """sha256 of each run-level and history CSV of the run in out, by relative path."""
        paths = [*out.glob("*.csv"), *out.glob("cells/*/history_fold*.csv")]
        return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in paths}

    def test_run_csvs_keep_their_reference_bytes(self, tiny_run, tmp_path):
        multiclass = run_experiment(tiny_multiclass_config(), tmp_path / "multiclass")
        assert self.run_hashes(tiny_run[1]) == RUN_HASHES["binary"]
        assert self.run_hashes(multiclass) == RUN_HASHES["multiclass"]

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

        def recording(runs):
            results = real(runs)
            histories.extend(result.history for result in results)
            return results

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
        monkeypatch.setattr(harness, "train", fail_if_trained)
        (tmp_path / "empty").mkdir()
        with pytest.raises(AssertionError, match="trained"):
            run_experiment(tiny_config(), tmp_path / "empty")

    def test_batch_size_must_fit_every_fold_before_training(self, tmp_path, monkeypatch):
        # 12 subjects in 2 folds leave 6 training samples per fold
        monkeypatch.setattr(harness, "train", fail_if_trained)
        with pytest.raises(InvalidConfigError, match=r"\[7\].*6 samples"):
            run_experiment(tiny_config(batch_sizes=(6, 7)), tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_every_fold_must_hold_out_a_subject(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "train", fail_if_trained)
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
    """Two CellResults equal field by field; the model weights, the histories and the
    ROC arrays bit for bit."""
    for f in fields(CellResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "models":
            assert [(m.weights.shape, m.weights.tobytes()) for m in x] == [
                (m.weights.shape, m.weights.tobytes()) for m in y]
        elif f.name == "histories":
            assert [(h.shape, h.tobytes()) for h in x] == [(h.shape, h.tobytes()) for h in y]
        elif f.name == "scores":
            assert x.dtype == y.dtype and x.tolist() == y.tolist()
        elif f.name == "roc":
            curve = [(c.fpr.tobytes(), c.tpr.tobytes(), c.thresholds.tobytes(), c.auc)
                     for c in (x, y)]
            assert curve[0] == curve[1]
        else:
            assert x == y, f.name


def counting_run_cell(monkeypatch):
    """Make harness.run_cell, which scores each cell that trains, record the cells;
    returns the record."""
    trained, real = [], harness.run_cell

    def counting(config, labeling, setup, batch_size, datasets, folds):
        trained.append((labeling, setup, batch_size))
        return real(config, labeling, setup, batch_size, datasets, folds)

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
            assert_same_result(shared, one_cell(config, *shared.key, datasets))

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

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (3, 3), (64, 4)])
    def test_pool_starts_no_more_workers_than_groups_to_train(self, monkeypatch, jobs, workers):
        # a fork pool starts all max_workers processes on the first submit; the cells
        # that train make one group per (fold, batch size): 2 x 2 here
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *items):
                return map(fn, *items)

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
        leaf = one_cell(config, "full", "leaf", 1, datasets)
        image = one_cell(config, "full", "image-wise", 1, datasets)
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
