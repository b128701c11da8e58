"""Regenerate the stored references the correctness gate compares against.

    python3 perfbench/make_reference.py            # reference/full.json.gz
    python3 perfbench/make_reference.py --smoke    # reference/smoke.json.gz

Run from the root of a dicelab checkout. For every input seed it runs the
binary matrix, the multiclass matrix and the gradcheck matrix once, traced,
and stores the metrics.csv sha256 (and, except with --smoke, its text) and
every exact count of the trace. It refuses to store a reference for a run
that fails its own gate, and runs one worker per CPU it may use.
Regenerate only together with a change that is meant to alter these outputs.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _init_worker():
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def reference_entry(name: str, seed: int, smoke: bool, scratch: str) -> tuple[str, int, dict]:
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed, smoke)
    tracer = spans.Tracer()
    with spans.installed(tracer, workloads.TARGETS, "dicelab"):
        result = workload.run(inputs, Path(scratch))
    entry = {"counts": workloads.exact_counts(spans.Trace(tracer))}
    if isinstance(result, Path):
        data = (result / "metrics.csv").read_bytes()
        entry["sha256"] = hashlib.sha256(data).hexdigest()
        if not smoke:  # the smoke references keep only fingerprints, to stay small
            entry["metrics_csv"] = data.decode()
    outcome = workload.check(inputs, result, entry)
    if isinstance(result, Path):
        shutil.rmtree(result)
    if outcome.failed:
        raise RuntimeError(f"{name} seed {seed} fails its own gate: {outcome.notes}")
    return workload.reference_key, seed, entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _init_worker()
    import workloads

    scratch = BENCH_DIR / "work" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reference-", dir=scratch)
    refs: dict = {w.reference_key: {} for w in workloads.WORKLOADS.values()}
    try:
        with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0)),
                                 mp_context=get_context("spawn"),
                                 initializer=_init_worker) as pool:
            futures = [pool.submit(reference_entry, name, seed, args.smoke, tmp)
                       for seed in range(workloads.REFERENCE_SEEDS)
                       for name in workloads.WORKLOADS]
            for future in futures:
                key, seed, entry = future.result()
                refs[key][str(seed)] = entry
                print(f"{key} seed {seed}: {entry.get('sha256', 'counts only')}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / ("smoke.json.gz" if args.smoke else "full.json.gz")
    # mtime=0 keeps the file byte-identical when the references do not change
    with open(path, "wb") as raw:
        with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(refs, sort_keys=True, indent=0).encode())
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
