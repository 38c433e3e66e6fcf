#!/usr/bin/env python3
"""belfilt benchmark: three closed-loop workloads, every output checked.

Run from the root of a checkout (the program is imported from ./src):

    python3 benchmarks/run.py --workload ensemble --seed 1 --seconds 35 --trace 0

Workloads: ensemble, online-feedback, record-pipeline (see README.md).
--trace 0 measures and prints the end-to-end metrics; --trace 1 runs the
same jobs again with wrappers on each layer's public functions and prints
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Lines before it
start with '#': machine, job counts, failures with their causes, CSV
hashes.  Everything, spans included, is also written to
.bench_out/<workload>-seed<seed>-trace<t>.json.
"""

import os

# One process, one thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("ensemble", "online-feedback", "record-pipeline")
END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("step_us_p50", "us"),
    ("step_us_p99", "us"),
    ("ok_ops_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
SETUP_TIMEOUT_S = 120
# Horizon positions in the running median over online feedback step times.
# The cost per step grows slowly along the horizon (about 1.5x over 20 000
# steps), so the window keeps that trend and removes per-call noise.
STEP_WINDOW = 101


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="belfilt benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one round of small jobs, for the benchmark's own tests")
    parser.add_argument("--setup-only", metavar="DIR", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seed >= 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _make_workload(args, workdir: Path):
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size], ROOT, workdir)


def measure_setup(args, workdir: Path, repeats: int) -> list:
    """Wall time of fresh processes that import belfilt and run the
    workload's set-up (config load, model and input generation, warm-up)."""
    times = []
    for i in range(repeats):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--setup-only", str(workdir / f"setup{i}")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        times.append(elapsed)
    return times


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except Exception as exc:  # noqa: BLE001 - older numpy has no dict form
        blas = {"error": str(exc)}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def job_seconds(r, scaled: bool) -> float:
    return r.seconds * r.scale if scaled else r.seconds


def median_round(results, scaled: bool) -> dict:
    """Job kind -> (filter steps, median job seconds over the rounds)."""
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, (r.steps, []))[1].append(job_seconds(r, scaled))
    return {kind: (steps, statistics.median(times)) for kind, (steps, times) in by_kind.items()}


def step_latencies(results, scaled: bool):
    """Per-step latency estimates, each robust to one preempted sample.

    Where every step is timed (online feedback), the estimate at a horizon
    position is the median over the run's episodes, then a running median
    over STEP_WINDOW positions.  Elsewhere a step cannot be timed from
    outside, so each job kind gives its median job time over its steps.
    """
    import numpy as np
    from scipy.ndimage import median_filter

    per_call = [r.step_seconds * r.step_scale if scaled and r.step_scale is not None else r.step_seconds
                for r in results if r.step_seconds is not None]
    if per_call:
        return median_filter(np.median(np.stack(per_call), axis=0), size=STEP_WINDOW, mode="nearest")
    return [seconds / steps for steps, seconds in median_round(results, scaled).values() if steps]


def end_to_end(results, setup_times, peak_rss_mb: float, scaled: bool = True) -> dict:
    """Every END_TO_END metric.  Job times are the median round's: each job
    kind at its median over the rounds.  With `scaled`, job and step times are
    in reference time (workloads.HostReference); set-up time is as measured,
    because process start and imports do not follow the reference.  Output
    checks and reference work run outside every timing."""
    kinds = median_round(results, scaled)
    kind_seconds = [seconds for _, seconds in kinds.values()]
    step_seconds = step_latencies(results, scaled)
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    return {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": sum(steps for steps, _ in kinds.values()) / sum(kind_seconds),
        "job_ms_p50": 1e3 * percentile(kind_seconds, 50),
        "job_ms_p90": 1e3 * percentile(kind_seconds, 90),
        "step_us_p50": 1e6 * percentile(step_seconds, 50),
        "step_us_p99": 1e6 * percentile(step_seconds, 99),
        "ok_ops_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def scale_per_layer(raw: dict, units: dict, scale: float) -> dict:
    """Per-layer times (us, ms) in reference time; counts and ratios as measured."""
    return {name: value * scale if units[name] in ("us", "ms") else value for name, value in raw.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "belfilt" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print("error: src/belfilt and configs/ not found; run from the root of a belfilt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_at_start = os.getloadavg()

    if args.setup_only is not None:
        workload = _make_workload(args, Path(args.setup_only))
        workload.setup()
        return 0

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        size = workloads.SIZES[args.size]
        setup_times = [] if args.trace else measure_setup(args, workdir, size.setup_repeats)

        import belfilt

        if Path(belfilt.__file__).resolve().parent != (SRC / "belfilt").resolve():
            raise RuntimeError(f"imported belfilt from {belfilt.__file__}, not from {SRC}")
        info = dict(machine_info(), load_average_at_start=load_at_start, workload=args.workload,
                    seed=args.seed, seconds=args.seconds, trace=args.trace, size=args.size)
        workload = _make_workload(args, workdir / "run")
        workload.setup()
        reference = workloads.HostReference()
        trace_dump = None
        if args.trace == 0:
            workload.reference = reference  # traced runs keep reference work out of the traced jobs
            results, rounds = workloads.run_rounds(workload, args.seconds, workload.min_rounds, reference)
            # Peak memory of the jobs, before the metrics' own arrays.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            raw = end_to_end(results, setup_times, peak_rss_mb, scaled=False)
            metrics = end_to_end(results, setup_times, peak_rss_mb)
            units = dict(END_TO_END)
            info["setup_s_samples"] = setup_times
        else:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                tracer.begin_job("setup")
                workload.setup()
                tracer.end_job()
            finally:
                tracer.uninstall()
            tracer.reset_aggregates()
            # Each round runs untraced, then traced: the same jobs, close in
            # time, so the ratio of their times is the tracing overhead.
            plain, traced = [], []
            deadline = time.perf_counter() + args.seconds
            rounds = 0
            while rounds < 1 or time.perf_counter() < deadline:
                plain += workloads.run_round(workload, rounds, reference=reference)
                tracing.install(tracer)
                try:
                    traced += workloads.run_round(workload, rounds, tracer, prefix="traced.", reference=reference)
                finally:
                    tracer.uninstall()
                workload.end_round(rounds)
                rounds += 1
            overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            raw = tracing.layer_metrics(tracer, overhead)
            metrics = scale_per_layer(raw, units, reference.scale())
            results = plain + traced
            trace_dump = tracer.dump()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results)
    failed = sum(not r.ok for r in results)
    info.update(rounds=rounds, attempted=attempted, failed=failed, raw_metrics=raw,
                reference_scale=reference.scale(), reference_units=len(reference.samples),
                reference_unit_ms=1e3 * statistics.median(reference.samples))
    report(info, results, metrics, units, trace_dump, args)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def report(info, results, metrics, units, trace_dump, args) -> None:
    """'#' lines on stdout and the full record in .bench_out/."""
    print(f"# belfilt benchmark: workload {info['workload']}, seed {info['seed']}, trace {info['trace']},"
          f" {info['seconds']:g} s, size {info['size']}")
    print(f"# nproc {info['nproc']}, python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']},"
          f" blas {info['blas'].get('name')} {info['blas'].get('version')}, threads pinned to 1,"
          f" load average at start {' '.join(f'{x:.2f}' for x in info['load_average_at_start'])}")
    print(f"# jobs: {info['attempted']} attempted, {info['failed']} failed"
          f" (failed_ops_frac {info['failed']}/{info['attempted']}), {info['rounds']} rounds")
    for r in results:
        for problem in r.problems:
            print(f"# FAILED {r.job_id}: {problem}")
    for r in results:
        if r.job_id.startswith("r0."):
            for name, digest in r.hashes.items():
                print(f"# sha256 {r.job_id} {name} {digest}")
    print(f"# host reference: {info['reference_units']} units, median {info['reference_unit_ms']:.4g} ms,"
          f" run scale {info['reference_scale']:.4g}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]} (as measured {info['raw_metrics'][name]:.6g})")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "info": info,
        "metrics": metrics,
        "jobs": [
            {"id": r.job_id, "kind": r.kind, "seconds": r.seconds, "steps": r.steps, "scale": r.scale,
             "problems": r.problems, "sha256": r.hashes}
            for r in results
        ],
        "trace": trace_dump,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
