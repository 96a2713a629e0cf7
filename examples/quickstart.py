"""Quickstart: k-center clustering with the coreset-based MapReduce algorithm.

This script walks through the package's main entry points on a synthetic
dataset:

1. generate a clustered dataset;
2. solve plain k-center sequentially (Gonzalez's GMM) and with the
   2-round MapReduce algorithm at several coreset sizes;
3. inject outliers and solve the outlier formulation with the
   deterministic MapReduce algorithm;
4. print radii, coreset sizes and the memory accounting of the simulated
   MapReduce runtime.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import MapReduceKCenter, MapReduceKCenterOutliers, SequentialKCenter
from repro.datasets import GaussianMixtureSpec, gaussian_mixture, inject_outliers
from repro.evaluation import format_records


def main() -> None:
    # 1. A dataset with 12 natural clusters in 5 dimensions.
    spec = GaussianMixtureSpec(n_clusters=12, dimension=5, cluster_std=1.0, box_size=100.0)
    points = gaussian_mixture(5000, spec, random_state=0)
    k = 12

    # 2. Plain k-center: sequential GMM vs MapReduce with growing coresets.
    sequential = SequentialKCenter(k, random_state=0).fit(points)
    print(f"Sequential GMM:            radius = {sequential.radius:.3f}")

    records = []
    for mu in (1, 2, 4, 8):
        result = MapReduceKCenter(
            k, ell=8, coreset_multiplier=mu, random_state=0
        ).fit(points)
        records.append(
            {
                "coreset multiplier": mu,
                "radius": result.radius,
                "union coreset size": result.coreset_size,
                "peak local memory (points)": result.stats.peak_local_memory,
            }
        )
    print("\n2-round MapReduce k-center (ell = 8):")
    print(format_records(records))

    # 3. The outlier formulation: plant 50 far-away points and ask the
    #    solver to ignore up to 50 outliers.
    injected = inject_outliers(points, 50, random_state=1)
    z = injected.n_outliers
    outlier_result = MapReduceKCenterOutliers(
        k, z, ell=8, coreset_multiplier=4, random_state=0
    ).fit(injected.points)

    recovered = set(outlier_result.outlier_indices) == set(injected.outlier_indices)
    print("\n2-round MapReduce k-center with outliers (mu = 4):")
    print(f"  radius excluding z outliers : {outlier_result.radius:.3f}")
    print(f"  radius over all points      : {outlier_result.radius_all_points:.3f}")
    print(f"  planted outliers recovered  : {recovered}")
    print(f"  union coreset size          : {outlier_result.coreset_size}")
    # The paper's two rounds plus the round that scores every point.
    print(f"  rounds (2 + assignment)     : {outlier_result.stats.n_rounds}")


if __name__ == "__main__":
    main()
