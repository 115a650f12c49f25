#!/usr/bin/env python3
"""Inducing-time tail survey at several nice-set scales.

Runs a reduced ensemble per scale and prints censoring and the fitted
log-log slope; the full acceptance-scale run is `lorenzlab inducing-tail`.
"""

import numpy as np

from lorenzlab.inducing import inducing_tail_stats
from lorenzlab.maps import CANON, PerturbedFamily
from lorenzlab.noise import NoiseModel

if __name__ == "__main__":
    family = PerturbedFamily(CANON)
    for delta0 in (0.002, 0.001):
        model = NoiseModel(eps=delta0 / 2.0, seed=20240901)
        stats = inducing_tail_stats(
            family, model, delta0, n_members=10_000, horizon=4096,
            theta=0.001,
        )
        fit = stats.loglog_slope()
        finite = stats.times[stats.times > 0]
        print(
            f"delta0={delta0}: censoring={stats.censoring_fraction:.2%} "
            f"median m={np.median(finite):.0f} slope={fit['slope']:.2f} "
            f"subsample={stats.verified_subsample['agree']}/{stats.verified_subsample['checked']}"
        )
