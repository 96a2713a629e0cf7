"""The by-name bindings perfbench's tracer wraps in the MapReduce drivers.

``perfbench/tracing.py`` replaces ``build_coreset`` in
``repro.core.mr_kcenter`` and ``repro.core.mr_outliers`` and
``search_radius`` in ``repro.core.mr_outliers`` by looking them up in
each module's namespace; this test fails if a driver stops binding (or
calling) them there.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from repro.core import MapReduceKCenter, MapReduceKCenterOutliers
from repro.datasets import GaussianMixtureSpec, gaussian_mixture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_coreset_builds_and_radius_probes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    points = gaussian_mixture(400, GaussianMixtureSpec(4, 2), random_state=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        plain = MapReduceKCenter(
            4, ell=4, coreset_multiplier=2, random_state=0, backend="serial"
        ).fit(points)
        outliers = MapReduceKCenterOutliers(
            4, 8, ell=4, coreset_multiplier=2, random_state=0, backend="serial"
        ).fit(points)
    finally:
        tracer.uninstall()
    assert tracer.counts["coreset.build_calls"] == plain.ell + outliers.ell
    assert tracer.counts["solve.probes"] == outliers.search_probes > 0
