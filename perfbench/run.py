"""Benchmark of the k-center system: end to end, and layer by layer from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The program is imported from ``src/`` of the same checkout; with no
``src/repro`` there the benchmark exits with an error. Workloads are
defined in ``workloads.py`` and listed, with their metrics and units, in
``BENCHMARK.json`` at the checkout root.

One invocation on one workload runs a closed loop with one job in flight:

1. Set-up (input generation, and the cluster where there is one) runs
   ``SETUP_REPEATS`` times; ``setup_s`` is the median. The last set-up's
   inputs are used.
2. One cold job runs first and is kept out of the medians (its excess
   over the warm median is ``warmup_extra_s``).
3. Warm jobs repeat for ``--seconds`` (at least ``MIN_WARM_JOBS``); every
   end-to-end metric is the median over them.

Every job's output is checked: structure on each result, the radius by a
brute-force oracle independent of ``repro.metricspace`` on the first
result, and identity to that first result on every later one. A job that
raises or fails a check counts in ``failed``; ``failed_frac`` (failed over
attempted) is printed per workload and carried by the result line's
``attempted`` and ``failed`` fields.

``--trace 1`` makes a separate run: the warm phase takes half of
``--seconds``, traced jobs (see ``tracing.py``) the other half, and the
per-layer metrics are medians over the traced jobs. On
``mr-kcenter-procs`` the reducers run in forked pool workers whose spans
are lost, so the layers inside reducers (``distance.*``, ``coreset.*``)
come from a traced run of the same job on the serial backend; the
round-level reducer split comes from the job's own ``RoundStats``.
``serial_baseline_s`` is one untraced run of the same job on the serial
backend for the two parallel workloads, and the warm median of the job
itself for the two that already run in one process.

Peak RSS is the coordinator's, per job: VmHWM is reset through
``/proc/self/clear_refs`` before each job and read after it. BLAS and
OpenMP thread settings are left as the host has them and reported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import multiprocessing
import os
import platform
import shutil
import statistics
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark's directory
from tracing import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_WARM_JOBS = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Layers that run inside reducers, invisible in forked pool workers.
REDUCER_LAYERS = ("distance.", "coreset.")
#: Per-layer times spent in set-up, not in the job.
SETUP_LAYERS = ("datasets.generate_s", "datasets.inject_outliers_s", "cluster.start_s")


LIBC = ctypes.CDLL("libc.so.6")
LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
LIBC.malloc_trim.restype = ctypes.c_int


def reset_peak_rss() -> None:
    """Start a new peak-RSS window (VmHWM) at what the process holds now.

    Freed heap memory is returned to the system first, so that the window
    does not start from memory that earlier jobs freed but the allocator kept.
    """
    LIBC.malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mib() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def host_fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "start_method": multiprocessing.get_start_method(),
        **{name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


@dataclass
class Sample:
    """One successful job: its wall time, peak RSS, outcome and layer figures."""

    seconds: float
    rss_mib: float
    outcome: object
    layers: dict | None = None


class Run:
    """Jobs of one invocation on one fixture, with their output checks."""

    def __init__(self, workload, fixture):
        self.workload = workload
        self.fixture = fixture
        self.attempted = 0
        self.failed = 0
        self.durations: list[float] = []
        self._identity: bytes | None = None
        self._radius = math.nan

    def job(self, *, serial: bool = False, tracer=None) -> Sample | None:
        self.attempted += 1
        reset_peak_rss()
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            result = self.workload.run(self.fixture, serial)
        except Exception:  # a failed job is counted and reported; the loop goes on
            self.failed += 1
            traceback.print_exc()
            return None
        finally:
            end = perf_counter()
            if tracer is not None:
                tracer.uninstall()
            self.durations.append(end - start)
        rss = peak_rss_mib()
        try:
            outcome = self.workload.outcome(self.fixture, result)
            if self._identity is None:
                self._radius = self.workload.oracle(self.fixture, result)
                self._identity = outcome.identity
            elif outcome.identity != self._identity:
                raise ValueError("centers differ from this invocation's first result")
        except Exception:  # any error while checking an output fails that job
            self.failed += 1
            traceback.print_exc()
            return None
        if math.isnan(outcome.radius):
            outcome.radius = self._radius
        layers = None
        if tracer is not None:
            workers = 1 if serial else self.workload.workers
            layers = layer_metrics(tracer, threading.get_ident(), start, end,
                                   outcome.stats, workers)
        return Sample(end - start, rss, outcome, layers)

    def repeat(self, seconds: float, minimum: int, **job_options) -> list[Sample]:
        """Jobs back to back until the next would end after ``seconds``."""
        samples: list[Sample] = []
        first = len(self.durations)
        start = perf_counter()
        while (len(self.durations) - first < minimum
               or perf_counter() - start + statistics.median(self.durations[first:]) <= seconds):
            sample = self.job(**job_options)
            if sample is not None:
                samples.append(sample)
        if not samples:
            raise RuntimeError(f"every job of {self.workload.name} failed")
        return samples


def _median(values) -> float:
    return float(statistics.median(values))


def _describe(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def measure(workload, seconds: float, trace: bool):
    """One invocation on one workload.

    Returns the metric medians, the samples behind each, the :class:`Run`,
    and the names of the layer metrics taken from a serial run instead.
    """
    timings: dict[str, list[float]] = {}
    setup_times: list[float] = []
    fixture = None
    try:
        for _ in range(SETUP_REPEATS):
            if fixture is not None:
                fixture.close()
            start = perf_counter()
            fixture = workload.setup(timings)
            setup_times.append(perf_counter() - start)

        run = Run(workload, fixture)
        run.job()  # cold: kept out of every median
        cold_seconds = run.durations[0]
        n_points = fixture.points.shape[0]
        if not trace:
            warm = run.repeat(seconds, MIN_WARM_JOBS)
            details = {
                "points_per_s": [n_points / s.seconds for s in warm],
                "peak_rss_mib": [s.rss_mib for s in warm],
                "peak_working_points": [s.outcome.working_points for s in warm],
                "radius": [s.outcome.radius for s in warm],
                "setup_s": setup_times,
            }
            metrics = {name: _median(values) for name, values in details.items()}
            details["warmup_extra_s"] = [cold_seconds - _median([s.seconds for s in warm])]
            return metrics, details, run, ()

        warm = run.repeat(seconds / 2, 1)
        tracer = Tracer()
        traced = run.repeat(seconds / 2, 1, tracer=tracer)
        warm_seconds = _median([s.seconds for s in warm])
        details = {name: [s.layers[name] for s in traced] for name in traced[0].layers}
        from_serial = ()
        if workload.workers > 1:
            serial = run.repeat(0, 1, serial=True)
            details["serial_baseline_s"] = [s.seconds for s in serial]
            if workload.forked_reducers:
                serial_traced = run.repeat(0, 1, serial=True, tracer=tracer)
                from_serial = [name for name in details if name.startswith(REDUCER_LAYERS)]
                for name in from_serial:
                    details[name] = [s.layers[name] for s in serial_traced]
        else:
            details["serial_baseline_s"] = [s.seconds for s in warm]
        for name in SETUP_LAYERS:
            details[name] = timings.get(name, [0.0])
        details["warmup_extra_s"] = [cold_seconds - warm_seconds]
        details["trace.overhead_frac"] = [
            _median([s.seconds for s in traced]) / warm_seconds - 1.0]
        details["job_s"] = [s.seconds for s in traced]
        metrics = {name: _median(values) for name, values in details.items()}
        return metrics, details, run, from_serial
    finally:
        if fixture is not None:
            fixture.close()


def report(workload, why, measured, spec) -> dict:
    """Print one workload's figures; return its metrics with units."""
    metrics, details, run, from_serial = measured
    print(f"workload {workload.name}: {why}")
    print(f"  closed loop, 1 job in flight; {run.attempted} jobs attempted, "
          f"{run.failed} failed; failed_frac {run.failed / run.attempted:.4g}")
    job_seconds = metrics.get("job_s")
    out = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        value = metrics[name]
        share = ""
        if name in from_serial:
            share = "  [serial backend run]"
        elif job_seconds and unit == "s" and name not in SETUP_LAYERS:
            share = f"  [{value / job_seconds:6.1%} of traced job]"
        print(f"  {name:28s} {value:14.6g} {unit:8s} ({_describe(details[name])}){share}")
        out[name] = {"value": value, "unit": unit}
    if "warmup_extra_s" not in out:
        print(f"  {'warmup_extra_s':28s} {details['warmup_extra_s'][0]:14.6g} s        "
              "(cold job minus warm median)")
    return out


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process, if one was started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import repro
    from workloads import WORKLOADS

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    whys = {entry["name"]: entry["why"] for entry in spec["workloads"]}

    print("host " + json.dumps(host_fingerprint()), flush=True)
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    tempfile.tempdir = scratch  # spill files stay inside the checkout
    attempted = failed = 0
    result_metrics = {}
    try:
        for name in names:
            workload = WORKLOADS[name](args.seed)
            measured = measure(workload, args.seconds, bool(args.trace))
            figures = report(workload, whys[name], measured, listed)
            run = measured[2]
            attempted += run.attempted
            failed += run.failed
            if len(names) == 1:
                result_metrics = figures
            else:
                result_metrics.update(
                    {f"{name}.{metric}": value for metric, value in figures.items()})
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        stop_resource_tracker()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
