"""The names and accounting perfbench's tracer reads from the program.

``perfbench/tracing.py`` replaces ``build_coreset`` in
``repro.core.mr_kcenter`` and ``repro.core.mr_outliers`` and
``search_radius`` in ``repro.core.mr_outliers`` by looking them up in
each module's namespace, and turns the ``MapReduceRuntime.execute_round``
spans plus each round's ``reducer_times`` / ``reducer_input_sizes`` into
its per-layer figures. These tests fail if a driver stops binding (or
calling) those names, or if the figures stop reading the job's rounds.
"""

from __future__ import annotations

import importlib
import threading
from pathlib import Path
from time import perf_counter

import pytest

from repro.core import MapReduceKCenter, MapReduceKCenterOutliers
from repro.datasets import GaussianMixtureSpec, gaussian_mixture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


@pytest.fixture
def points():
    return gaussian_mixture(400, GaussianMixtureSpec(4, 2), random_state=0)


def _outliers_job(points):
    return MapReduceKCenterOutliers(
        4, 8, ell=4, coreset_multiplier=2, random_state=0, backend="serial"
    ).fit(points)


def test_tracer_counts_coreset_builds_and_radius_probes(tracing, points):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        plain = MapReduceKCenter(
            4, ell=4, coreset_multiplier=2, random_state=0, backend="serial"
        ).fit(points)
        outliers = _outliers_job(points)
    finally:
        tracer.uninstall()
    assert tracer.counts["coreset.build_calls"] == plain.ell + outliers.ell
    assert tracer.counts["solve.probes"] == outliers.search_probes > 0


def test_layer_metrics_read_the_rounds_of_the_traced_job(tracing, points):
    tracer = tracing.Tracer()
    tracer.install()
    start = perf_counter()
    try:
        result = _outliers_job(points)
    finally:
        end = perf_counter()
        tracer.uninstall()
    metrics = tracing.layer_metrics(
        tracer, threading.get_ident(), start, end, result.stats, workers=1
    )
    for name in ("round1.s", "round2.s", "round3.s", "round1.reducer_sum_s"):
        assert metrics[name] > 0, name
    assert metrics["round.max_reducer_items"] == result.stats.peak_local_memory
    assert metrics["shuffle.partition_skew"] >= 1
