"""Tracing from outside the program: timed wrappers around public entry points.

Nothing in ``repro`` is edited. While a :class:`Tracer` is installed, each
entry point listed in :data:`ENTRY_POINTS` is replaced by a wrapper that
records one span (name, thread, start, end, nesting depth) per call and
adds to the layer's counters; :meth:`Tracer.uninstall` puts the originals
back, so untraced jobs run the unmodified code.

Two binding rules decide where a wrapper goes:

* Class methods (``Metric.nearest``, ``MapReduceRuntime.execute_round``,
  ...) are looked up on the class at call time, so patching the class
  catches every caller.
* Module functions are bound by name into the modules that import them
  (``build_coreset`` and ``search_radius`` in the MapReduce drivers), so
  the wrapper goes into each of those modules.

Modules are fetched with :func:`importlib.import_module`: the attribute
path ``repro.core.outliers_cluster`` names the *function* that
``repro/core/__init__.py`` re-exports under the module's name.

Spans recorded in a forked pool worker stay in that child and are lost;
spans recorded on other threads of this process (the loopback cluster's
workers) are kept with their thread id.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import Counter, defaultdict
from time import perf_counter


def _rows(array) -> int:
    shape = getattr(array, "shape", None)
    if shape is None:
        return len(array)
    return int(shape[0]) if len(shape) > 1 else 1


def _count_nearest(counts, args, result):
    counts["distance.nearest_calls"] += 1
    counts["distance.nearest_pairs"] += _rows(args[1]) * _rows(args[2])


def _count_point_to_points(counts, args, result):
    counts["distance.point_to_points_calls"] += 1


def _count_coreset(counts, args, result):
    counts["coreset.build_calls"] += 1
    counts["coreset.points_in"] += _rows(args[0])
    counts["coreset.union_points"] += int(result.size)


def _count_probe(counts, args, result):
    counts["solve.probes"] += 1


def _count_batch(counts, args, result):
    counts["stream.batches"] += 1


COUNTERS = ("distance.nearest_calls", "distance.nearest_pairs", "distance.point_to_points_calls",
            "coreset.build_calls", "coreset.points_in", "coreset.union_points",
            "solve.probes", "stream.batches")

#: (module, attribute path, span name, counter) for every traced entry point.
ENTRY_POINTS = (
    ("repro.metricspace.distance", "Metric.nearest", "distance.nearest_s", _count_nearest),
    ("repro.metricspace.distance", "Metric.point_to_points_blocked",
     "distance.point_to_points_s", _count_point_to_points),
    ("repro.metricspace.distance", "Metric.pairwise", "distance.pairwise_s", None),
    ("repro.core.mr_kcenter", "build_coreset", "coreset.build_s", _count_coreset),
    ("repro.core.mr_outliers", "build_coreset", "coreset.build_s", _count_coreset),
    ("repro.core.mr_outliers", "search_radius", "solve.search_s", None),
    ("repro.core.outliers_cluster", "OutliersClusterSolver.__init__", "solve.matrix_s", None),
    ("repro.core.outliers_cluster", "OutliersClusterSolver.run", "solve.probe_s", _count_probe),
    ("repro.core.stream_kcenter", "CoresetStreamKCenter.process_batch", "stream.batch_s",
     _count_batch),
    ("repro.core.stream_kcenter", "CoresetStreamKCenter.finalize", "stream.finalize_s", None),
    ("repro.mapreduce.runtime", "MapReduceRuntime.__init__", "runtime.open_s", None),
    ("repro.mapreduce.runtime", "MapReduceRuntime.shuffle_stream", "shuffle.s", None),
    ("repro.mapreduce.runtime", "MapReduceRuntime.execute_round", "round", None),
    ("repro.mapreduce.runtime", "MapReduceRuntime.close", "runtime.close_s", None),
)


class Tracer:
    """In-memory span and counter record, installed around traced jobs only."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, int]] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, function, counter):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            depth = getattr(tracer._local, "depth", 0)
            tracer._local.depth = depth + 1
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._local.depth = depth
            with tracer._lock:
                tracer.spans.append((name, threading.get_ident(), start, end, depth))
                if counter is not None:
                    counter(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point and start a fresh record."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.spans.clear()
        self.counts.clear()
        for module_name, path, name, counter in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        """Put the original entry points back; the record is kept."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


def covered_seconds(spans, thread_id: int, start: float, end: float) -> float:
    """Wall time in ``[start, end]`` covered by ``thread_id``'s top-level spans."""
    covered, reach = 0.0, start
    intervals = sorted(
        (max(s, start), min(e, end))
        for _, thread, s, e, depth in spans
        if thread == thread_id and depth == 0
    )
    for s, e in intervals:
        s = max(s, reach)
        if e > s:
            covered += e - s
            reach = e
    return covered


def layer_metrics(tracer: Tracer, thread_id: int, start: float, end: float,
                  stats, workers: int) -> dict[str, float]:
    """Per-layer figures of one traced job that ran in ``[start, end]`` on ``thread_id``.

    Span times are summed over every thread (busy time); round wall times,
    and coverage, come from the calling thread alone. ``stats`` is the
    job's :class:`~repro.mapreduce.runtime.JobStats` (empty for a
    streaming job); ``workers`` is the backend's degree of parallelism.
    """
    busy: defaultdict[str, float] = defaultdict(float)
    for name, _, s, e, _ in tracer.spans:
        busy[name] += e - s
    rounds = [e - s for name, thread, s, e, _ in sorted(tracer.spans, key=lambda x: x[2])
              if name == "round" and thread == thread_id]
    metrics = {name: busy[name] for _, _, name, _ in ENTRY_POINTS if name != "round"}
    for counter in COUNTERS:
        metrics[counter] = tracer.counts[counter]
    for index in range(3):
        metrics[f"round{index + 1}.s"] = rounds[index] if index < len(rounds) else 0.0

    reducer_times = [list(r.reducer_times.values()) for r in stats.rounds] + [[], []]
    metrics["round1.reducer_sum_s"] = sum(reducer_times[0])
    metrics["round1.reducer_max_s"] = max(reducer_times[0], default=0.0)
    metrics["round2.reducer_sum_s"] = sum(reducer_times[1])
    metrics["round.dispatch_s"] = sum(
        wall - sum(times) / workers for wall, times in zip(rounds, reducer_times)
    )
    metrics["round.max_reducer_items"] = stats.peak_local_memory
    sizes = list(stats.rounds[0].reducer_input_sizes.values()) if stats.rounds else [0]
    metrics["shuffle.partition_skew"] = max(sizes) * len(sizes) / sum(sizes) if any(sizes) else 0.0
    metrics["shuffle.spilled_bytes"] = stats.spilled_bytes
    metrics["cluster.bytes_shipped"] = stats.bytes_shipped
    metrics["cluster.retries"] = sum(
        len(attempts) > 1
        for assignments in stats.worker_assignments
        for attempts in assignments.values()
    )
    metrics["trace.uncovered_frac"] = 1.0 - covered_seconds(
        tracer.spans, thread_id, start, end) / (end - start)
    return metrics
