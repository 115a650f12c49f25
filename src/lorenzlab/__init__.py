"""lorenzlab: a numerical laboratory for contracting Lorenz maps under noise.

The package simulates random orbits of contracting Lorenz maps perturbed by
i.i.d. parameter noise, estimates stationary and physical densities through
discretized transfer operators, and measures the recurrence, distortion and
inducing-time statistics that govern stochastic stability of this map class.
"""

from .errors import (
    ConfigInvalid,
    CriticalHit,
    CriticalPointEval,
    DeltaOutOfRange,
    EmptyPullback,
    LorenzLabError,
    NoConvergence,
    NoiseOutOfRange,
    NotDiffeomorphic,
    OutOfBranchRange,
    PartitionMismatch,
    PartitionTooCoarse,
    VerificationFailed,
)
from .maps import CANON, MapParams, PerturbedFamily, schwarzian, summability_stats
from .noise import NoiseModel, NoiseStream, kernel_regularity_check
from .orbits import OrbitRecord, log_scan, random_orbit, scan_to_landing
from .transfer import (
    Density,
    Partition,
    UlamMatrix,
    birkhoff_density,
    build_ulam,
    l1_distance,
    partition_for,
    stability_sweep,
    stationary_density,
    tv_distance,
)
from .recurrence import (
    BindingPeriodRecord,
    CriticalNeighborhood,
    DepthTrace,
    PullbackChain,
    ReturnEvent,
    backward_contraction_check,
    binding_period,
    critical_neighborhood,
    d_star,
    depth_trace,
    good_return_or_expansion_time,
    good_return_time,
    landing_time,
    pullback_component,
)
from .inducing import (
    NiceSetApprox,
    TailStats,
    build_nice_set,
    inducing_tail_stats,
    markov_theta_cap,
)
from .expansion import (
    ExpansionReport,
    expansion_envelope,
    koebe_check,
    mane_estimate,
    random_koebe_branch,
    total_distortion_trend,
)
from .config import ExperimentConfig, config_hash, load_config

__version__ = "0.1.0"
