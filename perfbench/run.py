"""qdportfolio benchmark: one workload, timed end to end, optionally traced.

    python3 perfbench/run.py --workload train_s --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
that checkout's `src/` and from nowhere else.  With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it reports per-layer
self times and counts from a traced pass over the same inputs.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TRACED_JOBS = 3  # one traced job on each of the first input sets
SETUP_PROBES = 7  # fresh-process set-ups per untraced run, one after each early job
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QD_PORTFOLIO_THREADS")
# One BLAS thread.  At its default OpenBLAS keeps a second thread spinning
# on these small matrices: it doubles the CPU a job uses for a few percent
# of wall time, and with one other busy process on a 2-core machine it
# makes a train_s job about three times slower.  Set before numpy loads;
# setup probes inherit it.
RUN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _import_program() -> None:
    """Import qdportfolio from this checkout's src/, or exit non-zero."""
    if not (SRC / "qdportfolio" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qdportfolio sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdportfolio

    if Path(qdportfolio.__file__).resolve().parent != SRC / "qdportfolio":
        sys.exit(f"perfbench: imported qdportfolio from {qdportfolio.__file__}, not {SRC}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once in this fresh process, print the clock, exit
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _machine(thread_env: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "env_found": thread_env,
        "env_run": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _setup_sample(args, i: int) -> float:
    """Seconds from process start to ready-for-the-first-job, in a fresh process.

    time.monotonic is one system-wide clock on Linux, so the child's
    reading minus the parent's reading before the spawn covers
    interpreter start, imports and input generation.
    """
    probe_dir = OUT / f"probe-{os.getpid()}-{i}"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--setup-probe", str(probe_dir)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    shutil.rmtree(probe_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.exit(f"perfbench: setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - started


def _layer_metrics(per_job, setup_totals, inputs_made, traced_times, times) -> dict:
    """Per-layer values per traced job; input generation counts per input set."""
    from spantrace import SPAN_FIELDS, SPAN_NAMES

    jobs = len(per_job)
    zero = [0.0, 0, 0]
    metrics = {}
    for name in SPAN_NAMES:
        for i, (field, unit) in enumerate(SPAN_FIELDS):
            in_jobs = sum(totals.get(name, zero)[i] for totals, _ in per_job) / jobs
            in_setup = setup_totals.get(name, zero)[i] / inputs_made
            metrics[f"{name}.{field}"] = (in_jobs + in_setup, unit)
    backward_calls = sum(totals.get("diffcore.backward", zero)[1] for totals, _ in per_job)
    nodes = sum(counters.get("diffcore.graph_nodes", 0) for _, counters in per_job)
    metrics["diffcore.graph_nodes"] = (nodes / max(1, backward_calls), "count")
    written = sum(counters.get("trainer.checkpoint_bytes", 0) for _, counters in per_job)
    metrics["trainer.checkpoint_bytes"] = (written / jobs, "count")
    summed_self = [sum(total[0] for total in totals.values()) for totals, _ in per_job]
    traced = statistics.median(traced_times)
    # untraced jobs on the same input sets as the traced ones
    untraced = [t for n, t in enumerate(times) if n % inputs_made < len(traced_times)]
    metrics["trace.overhead_s"] = (traced - statistics.median(untraced), "s")
    metrics["trace.unattributed_s"] = (traced - statistics.median(summed_self), "s")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    thread_env = {name: os.environ.get(name) for name in THREAD_VARS}
    os.environ.update(RUN_ENV)
    # only compare_optimizers reads it; every workload runs with it unset
    os.environ.pop("QD_PORTFOLIO_THREADS", None)
    _import_program()
    from spantrace import Tracer
    from workloads import WORKLOADS, Outcome, dataset_seed, run_jobs, same_results

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seeds = [dataset_seed(args.seed, k) for k in range(workload.datasets)]

    if args.setup_probe:
        workload.make_input(seeds[0], Path(args.setup_probe))
        print(repr(time.monotonic()))
        return 0

    machine = _machine(thread_env)
    # untraced runs probe set-up once after each of the first timed jobs,
    # so that the samples spread over the run as the job times do
    setup = []

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.append(_setup_sample(args, len(setup)))

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer()
    restored = Outcome()  # traced runs: every patched attribute came back
    try:
        if args.trace:
            tracer.install()
        inputs = [workload.make_input(s, work / f"input-{k}") for k, s in enumerate(seeds)]
        if args.trace:
            restored.check(not tracer.uninstall(), "attributes not restored after set-up")
            setup_totals, _ = tracer.take()
        times, outcomes = run_jobs(workload, inputs, work, args.seconds, len(inputs), "job",
                                   None if args.trace else probe)
        first = outcomes[:len(inputs)]
        checks = [same_results(outcomes[len(inputs):], first, "repeated")]
        if args.trace:
            traced_times, traced, per_job = [], [], []
            tracer.install()
            for k in range(min(TRACED_JOBS, len(inputs))):
                t, o = run_jobs(workload, inputs[k:k + 1], work, 0, 1, f"traced{k}")
                traced_times += t
                traced += o
                per_job.append(tracer.take())
            problems = tracer.uninstall()
            restored.check(not problems, f"after the traced jobs: {problems}")
            checks += [same_results(traced, first, "traced"), restored]
            outcomes += traced
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    judged = outcomes + checks
    attempted = sum(o.attempted for o in judged)
    failed = sum(o.failed for o in judged)
    for o in judged:
        for problem in o.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    good = [o for o in first if math.isfinite(o.ratio)]
    if not good:
        print("perfbench: no job produced a result", file=sys.stderr)
        return 1

    if args.trace:
        metrics = _layer_metrics(per_job, setup_totals, len(inputs), traced_times, times)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "job_s": (statistics.median(times), "s"),
            "best_val_mse_ratio": (statistics.fmean(o.ratio for o in good), "ratio"),
            "ok_rate": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "artifact_mb": (statistics.median(o.artifact_bytes for o in good) / 1e6, "MB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "dataset_seeds": seeds,
        "sizes": workload.sizes(), "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "setup_samples_s": setup, "job_samples_s": times,
        "instances": [
            {"seed": s, "best_val_mse": o.best_mse, "ratio": o.ratio, "artifact_bytes": o.artifact_bytes}
            for s, o in zip(seeds, first)
        ],
        "error_rate": failed / attempted, "metrics": metrics,
    }
    if args.trace:
        report["traced_job_samples_s"] = traced_times

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        keys = ("id", "parent", "name", "start", "end", "failed")
        with stem.with_suffix(".spans.jsonl").open("w") as fh:
            fh.writelines(json.dumps(dict(zip(keys, span))) + "\n" for span in tracer.spans)

    print(f"machine {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed} sizes {json.dumps(workload.sizes())}")
    print(f"  {len(times)} jobs timed on {len(inputs)} input sets; "
          f"best_val_mse {[o.best_mse for o in first]!r}; "
          f"error_rate {report['error_rate']!r} ratio ({failed}/{attempted})")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
