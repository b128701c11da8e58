"""dicelab benchmark: run one workload on one seed and print one JSON result line.

    python3 perfbench/run.py --workload matrix-binary --seed 3 --seconds 35 --trace 0

Run it from the root of a dicelab checkout; it imports the package from
``src/``. With ``--trace 0`` it repeats the workload in a closed loop (each
repeat starts when the previous one ends) until the next repeat would end
after ``--seconds``, and reports the end-to-end metrics. With ``--trace 1`` it
runs the workload once untraced and once traced (and ``matrix-binary`` once
more at ``--jobs 2``), and reports the per-layer metrics. Every repeat passes
the correctness gate in workloads.py; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 0 only
when nothing failed. ``--smoke`` shrinks every workload to a few iterations
for the self-tests.

Details (environment, every repeat's gate notes, sample counts and tail
percentiles, exact counts) go to the line before the result and to
``perfbench/work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
# Workload names and the metrics to report, with their units. workloads.py
# implements them; it is imported only after the thread settings.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# One BLAS/OpenMP thread per process, so that pool workers never oversubscribe the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5

# A fresh interpreter imports dicelab and builds the workload's inputs, then says so.
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.WORKLOADS[sys.argv[3]].inputs(int(sys.argv[4]), sys.argv[5] == '1'); "
         "print('ready', flush=True)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few iterations per workload, checked against the smoke references")
    return ap.parse_args(argv)


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Seconds from starting a fresh interpreter until the workload's inputs exist."""
    cmd = [sys.executable, "-c", PROBE, str(SRC), str(BENCH_DIR), name, str(seed),
           "1" if smoke else "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited {code} without building the inputs")
    return ready - start


def peak_rss_mb() -> float:
    """Peak RSS of this process so far (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int, data_seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "dicelab").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "data_seed": data_seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Runner:
    """Runs and gates repeats of one workload on one set of inputs."""

    def __init__(self, workloads, name: str, seed: int, smoke: bool, scratch: Path):
        self.wl = workloads
        self.workload = workloads.WORKLOADS[name]
        self.inputs = self.workload.inputs(seed, smoke)
        refs = workloads.load_references(smoke).get(self.workload.reference_key, {})
        self.reference = refs.get(str(workloads.data_seed(seed)))
        self.scratch = scratch
        self.outcomes = []

    def repeat(self, jobs: int = 1) -> tuple[float, float]:
        """One timed repeat, gated after the clock stops; returns its start and end."""
        start = time.perf_counter()
        try:
            result = self.workload.run(self.inputs, self.scratch, jobs)
        except Exception:  # counted as failed operations; the run goes on
            traceback.print_exc()
            result = None
        end = time.perf_counter()
        self.outcomes.append(self._gate(result))
        return start, end

    def _gate(self, result):
        ops = self.workload.operations(self.inputs)
        if result is None:
            return self.wl.Outcome(ops, ops, None, {"error": "the workload raised"})
        try:
            return self.workload.check(self.inputs, result, self.reference)
        except Exception:
            traceback.print_exc()
            return self.wl.Outcome(ops, ops, None, {"error": "the gate raised"})
        finally:
            if isinstance(result, Path):
                shutil.rmtree(result, ignore_errors=True)

    def totals(self) -> tuple[int, int]:
        """Attempted and failed operations; a repeat whose outputs differ from the first fails."""
        first = self.outcomes[0].digest
        attempted = failed = 0
        for o in self.outcomes:
            if o.digest != first and o.failed < o.attempted:
                o.notes["differs_from_first_repeat"] = True
                o.failed = o.attempted
            attempted += o.attempted
            failed += o.failed
        return attempted, failed


def end_to_end(runner: Runner, name: str, seed: int, smoke: bool, seconds: float):
    walls = []
    loop_start = time.perf_counter()
    while True:
        start, end = runner.repeat()
        walls.append(end - start)
        if time.perf_counter() - loop_start + statistics.median(walls) > seconds:
            break
    rss = peak_rss_mb()
    setups = [probe_setup(name, seed, smoke) for _ in range(1 if smoke else SETUP_PROBES)]
    wall = statistics.median(walls)
    work = runner.workload.work(runner.inputs)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "work_per_s": work / wall,
        "peak_rss_mb": rss,
    }
    rate = "checks_per_s" if name == "gradcheck-matrix" else "steps_per_s"
    detail = {"timings": {"wall_s": spans.summarize(walls),
                          "setup_s": spans.summarize(setups)},
              "samples": {"wall_s": walls, "setup_s": setups},
              "work_per_repeat": work, rate: work / wall}
    return metrics, detail


def traced(runner: Runner, name: str, seed: int):
    # The untraced repeat times only its cells (a dozen spans), for j2_efficiency.
    timer = spans.Tracer()
    with spans.installed(timer, runner.wl.CELL_TIMER, "dicelab"):
        start, end = runner.repeat()
    untraced_wall = end - start
    tracer = spans.Tracer()
    with spans.installed(tracer, runner.wl.TARGETS, "dicelab"):
        start, end = runner.repeat()
    trace = spans.Trace(tracer)
    j2_efficiency = 0.0
    if runner.workload.pool_jobs:
        # ideal longest-first schedule of the --jobs 1 cell times over the measured pool run
        pool_start, pool_end = runner.repeat(jobs=runner.workload.pool_jobs)
        cell_times = spans.Trace(timer).durations("harness.run_cell")
        j2_efficiency = (spans.lpt_makespan(cell_times, runner.workload.pool_jobs)
                         / (pool_end - pool_start))
    instances = runner.outcomes[1].notes.get("instances", 0)
    metrics = runner.wl.layer_metrics(trace, start, end, untraced_wall, instances, j2_efficiency)

    counts = runner.wl.exact_counts(trace)
    stored = (runner.reference or {}).get("counts")
    differing = {k: [counts.get(k), stored.get(k)] for k in set(counts) | set(stored)
                 if counts.get(k) != stored.get(k)} if stored is not None else None
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    trace.write(WORK / "spans" / f"{name}-seed{seed}.jsonl.gz")
    detail = {"counts": counts,
              "counts_match_reference": None if stored is None else not differing,
              "counts_differing": differing or None,
              "step_gradients_us": spans.summarize(
                  [d * 1e6 for d in trace.durations("trainer.step_gradients")])}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dicelab" / "__init__.py").is_file():
        print(f"perfbench: no dicelab package under {SRC.name}/; "
              "run from the root of a dicelab checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    scratch = WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runner = Runner(workloads, args.workload, args.seed, args.smoke, run_dir)
        if args.trace:
            metrics, detail = traced(runner, args.workload, args.seed)
        else:
            metrics, detail = end_to_end(runner, args.workload, args.seed, args.smoke,
                                         args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = runner.totals()
    detail.update({
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "environment": environment(args.seed, workloads.data_seed(args.seed)),
        "failed_ratio": failed / attempted,
        "repeats": [{"attempted": o.attempted, "failed": o.failed, "digest": o.digest, **o.notes}
                    for o in runner.outcomes],
    })
    declared = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result},
                                                     indent=1) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
