"""Command-line surface: happy paths and exit-code contract.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration error.
"""

import json

import pytest
import yaml
from click.testing import CliRunner

from dicelab.cli import main
from dicelab.synthdata import GRADE_B, load_dataset

TINY_CONFIG = {
    "task": "binary",
    "seed": 7,
    "labelings": ["full", "partial"],
    "setups": ["image-wise", "image-wise-calibrated"],
    "batch_sizes": [1],
    "iterations": 25,
    "folds": 2,
    "bootstrap_resamples": 50,
    "dataset": {
        "image_size": 16,
        "n_grade_a": 8,
        "n_grade_b": 4,
        "radius_a": [3.0, 4.5],
        "radius_b": [2.0, 3.0],
    },
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, overrides=None):
    cfg = dict(TINY_CONFIG)
    cfg.update(overrides or {})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestGenData:
    def test_writes_manifest_and_samples(self, runner, tmp_path):
        out = tmp_path / "data"
        result = runner.invoke(main, ["gen-data", "--task", "binary", "--out", str(out)])
        assert result.exit_code == 0, result.output
        ds = load_dataset(out)
        assert len(ds) == 40
        assert "wrote 40 samples" in result.output

    def test_partial_labeling_empties_the_target_cohort(self, runner, tmp_path):
        out = tmp_path / "data"
        result = runner.invoke(main, ["gen-data", "--task", "binary",
                                      "--labeling", "partial", "--out", str(out)])
        assert result.exit_code == 0
        ds = load_dataset(out)
        assert all(s.gt.sum() == 0 for s in ds.samples if s.tag == GRADE_B)

    def test_same_seed_same_bytes(self, runner, tmp_path):
        for name in ("a", "b"):
            result = runner.invoke(main, ["gen-data", "--task", "multiclass",
                                          "--seed", "3", "--out", str(tmp_path / name)])
            assert result.exit_code == 0
        a, b = tmp_path / "a", tmp_path / "b"
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for n in names:
            assert (a / n).read_bytes() == (b / n).read_bytes()

    def test_config_file_drives_the_generator(self, runner, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "data"
        result = runner.invoke(main, ["gen-data", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 0
        assert len(load_dataset(out)) == 12

    def test_bad_config_exits_2(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, {"task": "ternary"})
        result = runner.invoke(main, ["gen-data", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "d")])
        assert result.exit_code == 2


class TestGradcheck:
    FAST = ["--n", "2", "--shapes", "1x2x6", "--schemes", "image-wise,all-wise",
            "--epsilons", "1e-7,1"]

    def test_clean_run_exits_0(self, runner):
        result = runner.invoke(main, ["gradcheck", *self.FAST])
        assert result.exit_code == 0, result.output
        assert "total=8 failed=0" in result.output

    def test_fault_injection_exits_1(self, runner):
        result = runner.invoke(main, ["gradcheck", *self.FAST, "--perturb", "1e-3"])
        assert result.exit_code == 1
        assert "failed=8" in result.output

    def test_zero_instances_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["gradcheck", "--n", "0"])
        assert result.exit_code == 2

    def test_malformed_shape_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["gradcheck", "--shapes", "2x2"])
        assert result.exit_code == 2

    def test_report_file(self, runner, tmp_path):
        out = tmp_path / "report.txt"
        result = runner.invoke(main, ["gradcheck", *self.FAST, "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 9  # 8 instances + the total line
        assert lines[-1] == "total=8 failed=0"


class TestCalibrate:
    def gen(self, runner, tmp_path, labeling):
        out = tmp_path / labeling
        result = runner.invoke(main, ["gen-data", "--task", "binary",
                                      "--labeling", labeling, "--out", str(out)])
        assert result.exit_code == 0
        return out

    def test_per_class_output_and_direction(self, runner, tmp_path):
        full = self.gen(runner, tmp_path, "full")
        partial = self.gen(runner, tmp_path, "partial")
        values = {}
        for name, path in (("full", full), ("partial", partial)):
            result = runner.invoke(main, ["calibrate", "--dataset", str(path)])
            assert result.exit_code == 0, result.output
            values[name] = json.loads(result.output)["per_class"]["lesion"]
        assert 0 < values["partial"] < values["full"]

    def test_global_scheme(self, runner, tmp_path):
        full = self.gen(runner, tmp_path, "full")
        result = runner.invoke(main, ["calibrate", "--dataset", str(full),
                                      "--scheme", "all-wise"])
        payload = json.loads(result.output)
        assert "global" in payload and "per_class" not in payload

    def test_output_file(self, runner, tmp_path):
        full = self.gen(runner, tmp_path, "full")
        out = tmp_path / "cal.json"
        result = runner.invoke(main, ["calibrate", "--dataset", str(full),
                                      "--out", str(out)])
        assert result.exit_code == 0
        assert "per_class" in json.loads(out.read_text())

    def test_missing_dataset_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["calibrate", "--dataset", str(tmp_path / "nope")])
        assert result.exit_code == 2


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-run")
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run-a"
    result = CliRunner().invoke(main, ["run", "--config", str(cfg_path),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


class TestRunAndReport:
    def test_run_writes_artifacts(self, finished_run):
        for name in ("config_snapshot.yaml", "metrics.csv", "summary.csv", "auc.csv",
                     "roc_points.csv", "calibration.csv", "comparisons.csv"):
            assert (finished_run / name).exists(), name

    def test_snapshot_rerun_is_byte_identical(self, finished_run, runner, tmp_path):
        out2 = tmp_path / "run-b"
        result = runner.invoke(main, ["run", "--config",
                                      str(finished_run / "config_snapshot.yaml"),
                                      "--out", str(out2), "--jobs", "2"])
        assert result.exit_code == 0, result.output
        for a in sorted(finished_run.rglob("*.csv")):
            b = out2 / a.relative_to(finished_run)
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_seed_override_changes_results(self, finished_run, runner, tmp_path):
        out2 = tmp_path / "run-c"
        result = runner.invoke(main, ["run", "--config",
                                      str(finished_run / "config_snapshot.yaml"),
                                      "--out", str(out2), "--seed", "99"])
        assert result.exit_code == 0
        assert ((finished_run / "metrics.csv").read_bytes()
                != (out2 / "metrics.csv").read_bytes())

    def test_report_renders_tables(self, finished_run, runner):
        result = runner.invoke(main, ["report", str(finished_run)])
        assert result.exit_code == 0, result.output
        assert "summary" in result.output
        assert "volume-detection AUC" in result.output
        assert "paired comparisons" in result.output
        assert "image-wise-calibrated" in result.output

    def test_report_combined_csv(self, finished_run, runner, tmp_path):
        out = tmp_path / "combined"
        result = runner.invoke(main, ["report", str(finished_run), "--out", str(out)])
        assert result.exit_code == 0
        text = (out / "report.csv").read_text()
        assert text.startswith("run,labeling,setup")

    def test_report_missing_dir_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["report", str(tmp_path / "ghost")])
        assert result.exit_code == 2

    def test_run_with_unknown_config_field_exits_2(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, {"warp_factor": 9})
        result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_run_with_missing_config_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "none.yaml"),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_run_into_non_empty_directory_exits_2(self, finished_run, runner):
        result = runner.invoke(main, ["run", "--config",
                                      str(finished_run / "config_snapshot.yaml"),
                                      "--out", str(finished_run)])
        assert result.exit_code == 2
        assert "new or empty" in result.output

    def test_run_with_oversized_batch_exits_2(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, {"batch_sizes": [500]})
        result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert not (tmp_path / "x").exists()
