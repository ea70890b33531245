"""hyperpoly benchmark: closed-loop workloads from one client in one process.

Run from the repository root:

    python3 bench/run.py --workload scaling --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
operations a second time under the span tracer and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
describes the run (sample counts, machine, versions, absent metrics).
See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread for steadier timings; set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# The latency percentiles need at least ten samples beyond p90.
MIN_OPS = 100
# The loop never runs past this many times --seconds, so a run ends in time.
LOOP_CAP = 2.0
IMPORT_PROBE = "import time; t = time.perf_counter(); import hyperpoly.cli; print(time.perf_counter() - t)"


def _import_library():
    """Import hyperpoly from this checkout's src/, or fail."""
    if not (SRC / "hyperpoly" / "__init__.py").is_file():
        raise SystemExit(f"error: no hyperpoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperpoly

    if Path(hyperpoly.__file__).resolve().parent != SRC / "hyperpoly":
        raise SystemExit(f"error: imported hyperpoly from {hyperpoly.__file__}, not {SRC}")


def _import_seconds() -> float:
    """Time to import the library in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise SystemExit(f"error: importing hyperpoly failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workloads, name: str, seed: int, workdir: Path, probe):
    """Build the workload SETUP_REPEATS times, probing the speed around each.

    Returns the rounds and the median set-up time, at the reference speed and raw.
    """
    raw, scaled, rounds = [], [], None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        probe.measure()
        began = time.perf_counter()
        imported = _import_seconds()
        start = time.perf_counter()
        rounds = workloads.BUILDERS[name](seed, workdir)
        raw.append(imported + time.perf_counter() - start)
        probe.measure()
        scaled.append(raw[-1] * probe.factor_at(began))
    return rounds, statistics.median(scaled), statistics.median(raw)


def warm_up(rounds) -> None:
    """Run the smallest op of each family once, untimed, so lazy imports are done."""
    smallest = {}
    for op in rounds[0]:
        if op.family not in smallest or op.size < smallest[op.family].size:
            smallest[op.family] = op
    for op in smallest.values():
        op.call()


def run_loop(workloads, rounds, seconds: float, probe, round_count=None):
    """Closed loop over whole rounds, one op at a time, with speed probes in between.

    Stops after the first round that ends with ``seconds`` of op time at the
    reference speed and MIN_OPS done, or after exactly ``round_count`` rounds
    when given.  Counting time at the reference speed makes a run cover the
    same rounds whatever the host's speed.  Returns [(op, latency_s, result)]
    with latencies at the reference speed, the number of rounds and the raw
    wall time.
    """
    timed = []
    done = 0
    op_time = 0.0
    start = time.perf_counter()
    while True:
        for op in rounds[done % len(rounds)]:
            if probe.due():
                probe.measure()
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, the loop goes on
                result = workloads.OpError(f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - t0
            timed.append((op, t0, latency, result))
            op_time += latency * probe.factor_at(t0)
        done += 1
        if round_count is not None:
            if done >= round_count:
                break
        elif op_time >= seconds and len(timed) >= MIN_OPS:
            break
        elif time.perf_counter() - start >= LOOP_CAP * seconds:
            break
    wall = time.perf_counter() - start
    probe.measure()
    return [(op, latency * probe.factor_at(t0), result) for op, t0, latency, result in timed], done, wall


def check_samples(workloads, samples) -> list[str]:
    failures = []
    for op, _, result in samples:
        problem = workloads.check(op, result)
        if problem is not None:
            failures.append(f"{op.family} n={op.size}: {problem}")
    return failures


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples, setup_s: float, round_size: int) -> dict:
    """The end-to-end metrics; every time is at the reference speed.

    ops_per_s is the median over rounds of each round's ops per second of op
    time: every round holds the same mix, and the median ignores a round
    that a pause of the host stretched.
    """
    latencies_ms = [1000.0 * latency for _, latency, _ in samples]
    p50, p90 = statistics.quantiles(latencies_ms, n=10, method="inclusive")[4::4]
    rates = [
        1000.0 * round_size / sum(latencies_ms[i : i + round_size])
        for i in range(0, len(latencies_ms), round_size)
    ]
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(statistics.median(rates), "1/s"),
        "latency_p50_ms": _metric(p50, "ms"),
        "latency_p90_ms": _metric(p90, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("scaling", "polytope", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # A terminated run still removes its documents.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Probes, work and the import subprocess share one CPU, so a probe sees the speed the work gets.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    _import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import calibration
    import tracing
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        setup_probe = calibration.SpeedProbe()
        rounds, setup_s, setup_raw = set_up(workloads, args.workload, args.seed, workdir, setup_probe)
        warm_up(rounds)
        probe = calibration.SpeedProbe()
        # A traced run does a fixed number of rounds, so its counts repeat exactly for a seed.
        fixed_rounds = workloads.TRACE_ROUNDS[args.workload] if args.trace else None
        samples, round_count, wall = run_loop(workloads, rounds, args.seconds, probe, fixed_rounds)
        info.update(ops=len(samples), rounds=round_count, loop_s=wall, speed_factor=probe.factor())
        info.update(setup_raw_s=setup_raw)
        if args.trace:
            setup_tracer = tracing.Tracer().install()
            try:
                workloads.BUILDERS[args.workload](args.seed, workdir)
            finally:
                setup_tracer.uninstall()
            setup_probe.measure()
            traced_probe = calibration.SpeedProbe()
            tracer = tracing.Tracer().install()
            try:
                traced, _, traced_wall = run_loop(workloads, rounds, args.seconds, traced_probe, round_count)
            finally:
                tracer.uninstall()
            extra = {
                "generators.setup_busy_s": setup_tracer.layer_busy["generators"] * setup_probe.factor(),
                "trace.overhead_ratio": sum(t for _, t, _ in traced) / sum(t for _, t, _ in samples),
            }
            metrics, absent = tracer.metrics(extra, time_scale=traced_probe.factor())
            info.update(traced_loop_s=traced_wall, absent=absent)
            samples = samples + traced
        else:
            metrics = end_to_end(samples, setup_s, len(rounds[0]))
        failures = check_samples(workloads, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    for line in failures[:20]:
        print(f"wrong answer: {line}", file=sys.stderr)
    info.update(failures=failures[:20], environment=environment())
    print(json.dumps({"run": info}))
    result = {"correct": not failures, "attempted": len(samples), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
