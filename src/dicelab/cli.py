"""Command-line interface.

Subcommands: gen-data, gradcheck, calibrate, run, report.  Exit codes:
0 success, 1 a failed check (gradcheck mismatch, non-finite training),
2 usage, config, input or file error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from .epsilon import calibrate_epsilon
from .errors import DicelabError, NonFiniteTrainingError
from .gradcheck import (
    ALL_SCHEMES,
    DEFAULT_EPSILONS,
    DEFAULT_SHAPES,
    format_record,
    run_check_matrix,
)
from .harness import (
    build_dataset,
    default_config,
    load_config,
    run_experiment,
)
from .metrics import read_csv, write_csv
from .synthdata import load_dataset, save_dataset
from .tensor import ReductionScheme


class _Group(click.Group):
    """Ends a DicelabError or OSError from any subcommand in one "error:" line.

    A diverged run is a failed check, like a gradcheck mismatch, and exits 1;
    any other error is bad input or an unusable file and exits 2.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # stdout closed early (`dicelab ... | head`): click exits quietly
        except (DicelabError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1 if isinstance(exc, NonFiniteTrainingError) else 2)


@click.group(cls=_Group)
def main():
    """Dice-loss reduction experiments: data, checks, calibration, runs, reports."""


@main.command("gen-data")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Experiment config; its task/seed/dataset fields are used.")
@click.option("--task", type=click.Choice(["binary", "multiclass"]), default="binary",
              help="Task when no config file is given.")
@click.option("--labeling", type=click.Choice(["full", "partial"]), default="full")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_gen_data(config_path, task, labeling, seed, out_dir):
    """Generate a dataset directory (manifest plus one tensor file per sample)."""
    config = load_config(config_path) if config_path else default_config(task)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    full, corrupted = build_dataset(config)
    dataset = corrupted if labeling == "partial" else full
    save_dataset(dataset, out_dir)
    click.echo(f"wrote {len(dataset)} samples to {out_dir}")


@main.command("gradcheck")
@click.option("--n", type=click.IntRange(min=1), default=100,
              help="Random instances per scheme/shape/epsilon cell.")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--epsilons", default=",".join(DEFAULT_EPSILONS), show_default=True,
              help="Comma list of floats and/or 'calibrated'.")
@click.option("--shapes", default=",".join("x".join(map(str, s)) for s in DEFAULT_SHAPES),
              show_default=True, help="Comma list of BxCxI shapes.")
@click.option("--schemes", default=",".join(s.value for s in ALL_SCHEMES), show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the per-instance report here instead of stdout.")
def cmd_gradcheck(n, seed, epsilons, shapes, schemes, out_path):
    """Compare analytic gradients against finite differences; exit 0 iff all pass."""
    try:  # run_check_matrix checks the dims themselves
        shape_list = [tuple(int(d) for d in t.lower().split("x")) for t in shapes.split(",")]
        scheme_list = [ReductionScheme(s.strip()) for s in schemes.split(",")]
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    eps_list = [e.strip() for e in epsilons.split(",") if e.strip()]
    records = run_check_matrix(shapes=shape_list, schemes=scheme_list,
                               epsilons=eps_list, n_instances=n,
                               base_seed=seed)
    lines = [format_record(r) for r in records]
    failed = sum(1 for r in records
                 if not (r.grad_report.passed and r.two_value_passed))
    lines.append(f"total={len(records)} failed={failed}")
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        click.echo(lines[-1])
    else:
        click.echo(text, nl=False)
    if failed:
        sys.exit(1)


@main.command("calibrate")
@click.option("--dataset", "dataset_dir", type=click.Path(), required=True,
              help="Dataset directory written by gen-data.")
@click.option("--scheme", default="image-wise",
              type=click.Choice([s.value for s in ReductionScheme]))
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_calibrate(dataset_dir, scheme, out_path):
    """Heuristic smoothing value (mean foreground per reduction subset)."""
    ds = load_dataset(dataset_dir)
    gt = ds.gt.reshape(len(ds), ds.n_classes, ds.image_size ** 2)
    eps = calibrate_epsilon(gt, ReductionScheme(scheme))
    payload = {"scheme": scheme, "all_empty": not np.any(eps)}  # 0/1 maps: 0 iff all empty
    if ReductionScheme(scheme).class_pure:
        payload["per_class"] = dict(zip(ds.class_names, eps.tolist()))
    else:
        payload["global"] = eps
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


@main.command("run")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              help="Parallel worker processes; cells that train at one fold and batch "
                   "size train together (at most one worker per such group).")
def cmd_run(config_path, out_dir, seed, jobs):
    """Run the cross-validated experiment matrix and write all artifacts."""
    config = load_config(config_path)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    out = run_experiment(config, out_dir, jobs=jobs)
    click.echo(f"run complete: {out}")
    for name in ("metrics.csv", "summary.csv", "auc.csv", "comparisons.csv"):
        click.echo(f"  {out / name}")


def _aligned(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
    lines += [fmt.format(*row) for row in rows]
    return "\n".join(lines)


def _round_cell(column: str, value: str) -> str:
    if column.startswith(("mean_", "auc", "p_value")):
        try:
            return f"{float(value):.4f}"
        except ValueError:
            return value
    return value


# (file, section title, whether a run may lack it or leave it without rows)
_REPORT_SECTIONS = (("summary.csv", "summary", False),
                    ("auc.csv", "volume-detection AUC", False),
                    ("comparisons.csv", "paired comparisons", True))


@main.command("report")
@click.argument("run_dirs", nargs=-1, required=True,
                type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Also write combined report.csv here.")
def cmd_report(run_dirs, out_dir):
    """Combine one or more run directories into one summary table."""
    combined_header = None
    combined_rows = []
    sections = []
    for d in run_dirs:
        run = Path(d)
        for file, title, optional in _REPORT_SECTIONS:
            if optional and not (run / file).exists():
                continue
            header, rows = read_csv(run / file)
            if optional and not rows:
                continue
            if file == "summary.csv":
                combined_header = combined_header or ["run"] + header
                combined_rows += [[run.name] + row for row in rows]
            pretty = [[_round_cell(c, v) for c, v in zip(header, row)] for row in rows]
            sections.append(f"== {run.name}: {title} ==\n" + _aligned(header, pretty))
    click.echo("\n\n".join(sections))
    if out_dir:
        outp = Path(out_dir)
        outp.mkdir(parents=True, exist_ok=True)
        write_csv(outp / "report.csv", combined_header, combined_rows)
        click.echo(f"\nwrote {outp / 'report.csv'}")


if __name__ == "__main__":
    main()
