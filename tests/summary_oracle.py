"""Per-(tag, class) rescans: the independent oracle for the harness's grouping pass.

summarize and comparisons filter every metric row of a cell once for each
tag x class pair, the way dicelab.harness did before it bucketed the rows in
one pass, so the tests can check that the buckets give the same summary.csv
and comparisons.csv rows, float for float.
"""

from __future__ import annotations

import numpy as np

from dicelab.metrics import bootstrap_compare


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def summarize(results) -> list[list]:
    rows = []
    for r in results:
        tags = sorted({row.tag for row in r.metric_rows})
        classes = sorted({row.class_name for row in r.metric_rows})
        for tag in tags + ["all"]:
            for name in classes:
                sel = [row for row in r.metric_rows
                       if row.class_name == name and (tag == "all" or row.tag == tag)]
                if not sel:
                    continue
                rows.append([
                    r.labeling, r.setup, r.batch_size, tag, name, len(sel),
                    _mean([x.dsc for x in sel]),
                    _mean([x.delta_v for x in sel]),
                    _mean([x.pred_vol for x in sel]),
                    _mean([x.true_vol for x in sel]),
                ])
    return rows


def paired_dsc(a, b, class_name: str, tag: str):
    """Per-subject DSC lists for one class, ordered by subject, tag-filtered."""
    def collect(r):
        return {row.subject_id: row.dsc for row in r.metric_rows
                if row.class_name == class_name and (tag == "all" or row.tag == tag)}
    da, db = collect(a), collect(b)
    common = sorted(set(da) & set(db))
    return [da[s] for s in common], [db[s] for s in common]


def comparisons(config, results) -> list[list]:
    by_key = {r.key: r for r in results}
    classes = sorted({row.class_name for r in results for row in r.metric_rows})
    tags = sorted({row.tag for r in results for row in r.metric_rows}) + ["all"]
    rows = []

    def compare(kind, a, b, label_a, label_b, setup, batch_size):
        for name in classes:
            for tag in tags:
                xs, ys = paired_dsc(a, b, name, tag)
                if len(xs) < 2:
                    continue
                p = bootstrap_compare(xs, ys, config.bootstrap_resamples, seed=config.seed)
                rows.append([kind, setup, batch_size, label_a, label_b, tag, name,
                             len(xs), _mean(xs), _mean(ys), _mean(xs) - _mean(ys), p])

    # partial vs full, same setup and batch size
    for setup in config.setups:
        for b in config.batch_sizes:
            a = by_key.get(("partial", setup, b))
            f = by_key.get(("full", setup, b))
            if a is not None and f is not None:
                compare("labeling", a, f, "partial", "full", setup, b)
    # each setup vs the first configured setup, within partial labeling
    baseline = config.setups[0]
    for setup in config.setups[1:]:
        for b in config.batch_sizes:
            a = by_key.get(("partial", setup, b))
            f = by_key.get(("partial", baseline, b))
            if a is not None and f is not None:
                compare("setup", a, f, setup, baseline, setup, b)
    return rows
