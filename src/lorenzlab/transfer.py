"""Discretized Perron-Frobenius machinery: Ulam matrices and densities.

The Ulam discretisation of the transfer operator is the row-stochastic
matrix P[i][j] = |bin_i ∩ f^{-1}(bin_j)| / |bin_i|.  Because both branches
are monotone, bin images are intervals and every entry is an exact interval
overlap (up to root-finding tolerance inside the taper zones).  The
randomized variant averages the deterministic matrices of f_t over a noise
quadrature, which keeps matrix assembly deterministic and replayable.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    PartitionMismatch,
    PartitionTooCoarse,
)
from .maps import CRITICAL_GUARD, PerturbedFamily
from .noise import NoiseModel

__all__ = [
    "Partition",
    "Density",
    "UlamMatrix",
    "build_ulam",
    "stationary_density",
    "birkhoff_density",
    "l1_distance",
    "tv_distance",
    "stability_sweep",
    "nonincreasing_within_slack",
]

_EDGE_TOL = 1e-12
_BIRKHOFF_BLOCK = 1 << 16  # orbit steps per noise draw and per histogram call
_BIRKHOFF_SEGMENT = 1 << 10  # core steps per list comprehension and per array check
_CHECK_EVERY = 16  # power-iteration steps between residual checks
_MAX_ITERS = 200_000  # power-iteration steps before a solve gives up
_ROW_CHUNK = 256  # Ulam rows filled per step, bounding the assembly temporary
STREAM_BIRKHOFF = 6_000_000  # stream id of the noisy Birkhoff orbit


@dataclass(frozen=True)
class Partition:
    """Strictly increasing bin edges covering [0, 1] exactly."""

    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise ValueError("partition must cover [0, 1] exactly")
        if not np.all(np.diff(edges) > 0.0):
            raise ValueError("partition edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def uniform(cls, n_bins: int, refine_at) -> "Partition":
        """Uniform partition with extra edges inserted at the given points.

        Densities of this map class can blow up near the critical values, so
        partitions are normally refined to place edges at c and at both
        critical values; see :func:`partition_for`.
        """
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        edges = np.linspace(0.0, 1.0, n_bins + 1)
        extra = [p for p in refine_at if 0.0 < p < 1.0]
        if extra:
            edges = np.concatenate([edges, np.asarray(extra, dtype=float)])
            edges.sort()
            keep = np.concatenate([[True], np.diff(edges) > _EDGE_TOL])
            edges = edges[keep]
            edges[0], edges[-1] = 0.0, 1.0
        return cls(edges)

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def has_edge_at(self, x: float) -> bool:
        i = np.searchsorted(self.edges, x)
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.edges) and abs(self.edges[j] - x) <= _EDGE_TOL:
                return True
        return False

    def same_as(self, other: "Partition") -> bool:
        return len(self.edges) == len(other.edges) and bool(np.all(self.edges == other.edges))


def partition_for(family_or_params, n_bins: int) -> Partition:
    """Uniform partition refined with edges at c and both critical values."""
    params = getattr(family_or_params, "base", family_or_params)
    return Partition.uniform(n_bins, refine_at=(params.c, params.c1_plus, params.c1_minus))


@dataclass
class Density:
    """Piecewise-constant probability density on a partition."""

    partition: Partition
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(w) != self.partition.n_bins:
            raise ValueError("weights length must match the number of bins")
        if np.any(w < -1e-15):
            raise ValueError("density weights must be nonnegative")
        total = float(np.sum(w * self.partition.widths))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"density mass {total!r} not 1 within 1e-12")
        self.weights = np.maximum(w, 0.0)

    @classmethod
    def from_masses(cls, partition: Partition, masses: np.ndarray) -> "Density":
        masses = np.maximum(np.asarray(masses, dtype=float), 0.0)
        masses = masses / masses.sum()
        return cls(partition, masses / partition.widths)

    @property
    def masses(self) -> np.ndarray:
        return self.weights * self.partition.widths

    @classmethod
    def uniform(cls, partition: Partition) -> "Density":
        return cls(partition, np.ones(partition.n_bins))


@dataclass
class UlamMatrix:
    """Row-stochastic bin-transition matrix for one map or a noise average."""

    partition: Partition
    matrix: np.ndarray
    mode: str  # "deterministic" | "randomized" | "custom"

    def __post_init__(self):
        P = np.asarray(self.matrix, dtype=float)
        n = self.partition.n_bins
        if P.shape != (n, n):
            raise ValueError(f"matrix shape {P.shape} does not match {n} bins")
        if np.any(P < -1e-12):
            raise ValueError("matrix entries must be nonnegative")
        rows = P.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-10):
            raise ValueError(f"rows must sum to 1 within 1e-10 (worst {np.abs(rows - 1.0).max():.3e})")
        self.matrix = P


def _add_matrix(family: PerturbedFamily, t: float, w: float, partition: Partition, P: np.ndarray):
    """Add w * |bin_i ∩ f_t^{-1}(bin_j)| / |bin_i| into P[i, j], one branch's row block at a time.

    Each block is built _ROW_CHUNK rows at a time in one scratch buffer, so
    the temporaries stay that many rows long whatever the bin count.
    """
    edges = partition.edges
    n = partition.n_bins
    c_idx = int(np.argmin(np.abs(edges - family.base.c)))
    scratch = np.empty((min(_ROW_CHUNK, n), n))
    for left, start, stop in ((True, 0, c_idx), (False, c_idx, n)):
        # preimages of the edges, clamped to the branch domain outside the branch range
        dom_lo, dom_hi = family.branch_domain(left)
        rng_lo, rng_hi = family.branch_range(t, left)
        pre = np.where(edges <= rng_lo, dom_lo, dom_hi)
        inner = (rng_lo < edges) & (edges < rng_hi)
        pre[inner] = family.inverse_rows(t, edges[inner], left, 1e-13)
        for lo in range(start, stop, _ROW_CHUNK):
            hi = min(lo + _ROW_CHUNK, stop)
            a = edges[lo:hi, None]
            b = edges[lo + 1 : hi + 1, None]
            block = scratch[: hi - lo]
            np.minimum(pre[1:], b, out=block)
            block -= np.maximum(pre[:-1], a)
            np.maximum(block, 0.0, out=block)
            block /= b - a
            block *= w
            P[lo:hi] += block


def build_ulam(
    family: PerturbedFamily,
    model: NoiseModel | None,
    partition: Partition,
) -> UlamMatrix:
    """Assemble the (noise-averaged) Ulam matrix on the given partition.

    Without a model the average runs over the single node t = 0 of weight 1.
    Requires an edge exactly at the critical point so no bin straddles c;
    use :func:`partition_for` to build suitable partitions.
    """
    if not partition.has_edge_at(family.base.c):
        raise PartitionTooCoarse(f"no partition edge at the critical point c={family.base.c}")
    if model is None:
        nodes, weights, mode = (0.0,), (1.0,), "deterministic"
    else:
        if model.eps > family.eps_max:
            raise ValueError(f"model.eps={model.eps} exceeds family eps_max={family.eps_max}")
        nodes, weights = model.quadrature()
        mode = "randomized"
    n = partition.n_bins
    P = np.zeros((n, n))
    for t, w in zip(nodes, weights):
        _add_matrix(family, float(t), w, partition, P)
    P /= P.sum(axis=1, keepdims=True)
    return UlamMatrix(partition, P, mode=mode)


def stationary_density(
    matrix: UlamMatrix,
    tol: float = 1e-10,
    initial: Density | None = None,
) -> tuple[Density, dict]:
    """Left fixed vector of the Ulam matrix by damped power iteration.

    Iterates pi <- pi (P + I)/2, which has the same fixed vectors as P but
    damps oscillatory modes (the attractor of a contracting Lorenz map can
    consist of cyclically exchanged bands, putting -1 in the spectrum).  The
    reported residual is the undamped fixed-point defect ||pi P - pi||_1.
    Raises NoConvergence when the residual has not reached ``tol`` after
    _MAX_ITERS iterations.
    """
    P = matrix.matrix
    n = matrix.partition.n_bins
    if initial is not None:
        if not initial.partition.same_as(matrix.partition):
            raise PartitionMismatch("initial density partition differs from matrix partition")
        pi = initial.masses.copy()
    else:
        pi = np.full(n, 1.0 / n)
    residual = math.inf
    iterations = 0
    while iterations < _MAX_ITERS:
        steps = min(_CHECK_EVERY, _MAX_ITERS - iterations)
        for _ in range(steps):
            pi = 0.5 * (pi + pi @ P)
        iterations += steps
        pi = pi / pi.sum()
        nxt = pi @ P
        residual = float(np.abs(nxt - pi).sum())
        if residual <= tol:
            break
    if residual > tol:
        raise NoConvergence(iterations, residual)
    info = {"iterations": iterations, "residual": residual}
    return Density.from_masses(matrix.partition, pi), info


def _core_steps(x, noise, c, ell, u, v, one_c, one_v):
    """The orbit of x under f_t, t running over noise, stepped as if every input lay in the core.

    Each point is birkhoff_density's step with w = 1 and no restart test: on the
    core t*w is t exactly, so a step whose input the caller finds in the core
    has family.eval's bits.  The points after a non-core input are garbage,
    and z**ell may overflow on them.
    """
    return [
        x := u * (1.0 - ((c - x) / c) ** ell) + t if x < c else one_v + v * ((x - c) / one_c) ** ell + t
        for t in noise
    ]


def birkhoff_density(
    family: PerturbedFamily,
    model: NoiseModel | None,
    x0: float,
    n_steps: int,
    burn_in: int,
    partition: Partition,
) -> tuple[Density, dict]:
    """Normalised orbit histogram after burn-in (the empirical density).

    A noisy orbit reads the model's stream STREAM_BIRKHOFF.  Critical-guard
    hits restart the orbit from a deterministically jittered point; restarts
    are counted and reported, never silently absorbed.  Every step equals
    ``family.eval(t, x)`` bit for bit.

    The orbit runs in blocks of _BIRKHOFF_BLOCK steps.  Within a block it
    first takes _BIRKHOFF_SEGMENT steps at a time through the core step
    (_core_steps), then tests every input of the segment in one array check:
    in the taper core [m, 1 - m] and outside the critical guard.  At the
    first input that fails, the points before it are kept and the full
    scalar step (restart rule and taper) runs from it to the block's end;
    the next block tries the core step again.  Both paths do the same float
    arithmetic in the same order, so the orbit is the same either way.
    """
    if n_steps <= burn_in:
        raise ValueError("n_steps must exceed burn_in")
    p = family.base
    c, ell, u, v = p.c, p.ell, p.u, p.v
    one_c = 1.0 - c
    one_v = 1.0 - v
    m = family.margin
    core_hi = 1.0 - m
    taper = family.taper
    guard = CRITICAL_GUARD
    edges = partition.edges
    counts = np.zeros(partition.n_bins, dtype=np.int64)
    stream = model.stream(STREAM_BIRKHOFF) if model is not None else None
    restarts = 0
    x = x0
    step = 0
    # xs[0] holds the block's input x and xs[1 + i] the point of its step i, so xs[i] is step i's input
    xs = np.empty(min(_BIRKHOFF_BLOCK, n_steps) + 1)
    # Each step computes f_t(x) = f(x) + t*w(x) inline with family.eval's arithmetic: about 190 ns
    # a core step and 280 ns a scalar one, against about 650 for the test oracle's loop through
    # family.eval (2-core x86-64, CPython 3.11).  Noise is read as Python floats through a
    # memoryview of each block.  With t = 0.0 the term t*w is a signed zero, which leaves x unchanged.
    while step < n_steps:
        n = min(_BIRKHOFF_BLOCK, n_steps - step)
        noise = memoryview(stream.shift(step).prefix(n)) if stream is not None else [0.0] * n
        xs[0] = x
        j = 0
        while j < n:
            try:
                points = _core_steps(x, noise[j : j + _BIRKHOFF_SEGMENT], c, ell, u, v, one_c, one_v)
            except OverflowError:  # a garbage point ran off under z**ell; the scalar step takes over
                break
            end = j + len(points)
            xs[j + 1 : end + 1] = points
            ins = xs[j:end]
            bad = (ins < m) | (ins > core_hi) | (np.abs(ins - c) < guard)
            k = int(bad.argmax())
            if bad[k]:
                j += k
                break
            j = end
            x = points[-1]
        if j < n:
            x = float(xs[j])
            buf = array("d")
            record = buf.append
            for t in noise[j:]:
                if abs(x - c) < guard:
                    restarts += 1
                    x = c + (guard * 1e3 + 1e-9 * restarts) * (1 if restarts % 2 else -1)
                w = 1.0 if m <= x <= core_hi else taper(x)
                if x < c:
                    z = (c - x) / c
                    x = u * (1.0 - z**ell) + t * w
                else:
                    z = (x - c) / one_c
                    x = one_v + v * z**ell + t * w
                record(x)
            xs[j + 1 : n + 1] = np.frombuffer(buf, dtype=float)
        counts += np.histogram(xs[1 + max(0, burn_in - step) : n + 1], bins=edges)[0]
        step += n
    density = Density.from_masses(partition, counts.astype(float))
    return density, {"restarts": restarts, "recorded": n_steps - burn_in}


def l1_distance(a: Density, b: Density) -> float:
    """Integral of |a - b| over [0, 1]; requires identical partitions."""
    if not a.partition.same_as(b.partition):
        raise PartitionMismatch("densities live on different partitions")
    return float(np.sum(np.abs(a.weights - b.weights) * a.partition.widths))


def tv_distance(a: Density, b: Density) -> float:
    """Total variation distance = half the L1 distance."""
    return 0.5 * l1_distance(a, b)


def stability_sweep(
    family: PerturbedFamily,
    models,
    partition: Partition,
) -> tuple[list[dict], Density, dict]:
    """Distance of the stationary density to the zero-noise density per noise model.

    The models' amplitudes form the ladder, which must be sorted in descending
    order with every rung an admissible amplitude; assembly reads only each
    law's quadrature, never a seed.  A rung whose power iteration fails is
    recorded with its final residual and does not abort the sweep.  Returns
    the rows, the zero-noise density and its solve info.
    """
    models = list(models)
    ladder = [model.eps for model in models]
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("eps ladder must be sorted in descending order")
    if any(e > family.eps_max for e in ladder):
        raise ValueError("eps ladder exceeds family eps_max")
    det_matrix = build_ulam(family, None, partition)
    zeta0, det_info = stationary_density(det_matrix)
    rows = []
    for model in models:
        matrix = build_ulam(family, model, partition)
        try:
            zeta_eps, info = stationary_density(matrix)
            rows.append(
                {
                    "eps": model.eps,
                    "l1": l1_distance(zeta_eps, zeta0),
                    "tv": tv_distance(zeta_eps, zeta0),
                    "residual": info["residual"],
                    "iterations": info["iterations"],
                    "error": "",
                }
            )
        except NoConvergence as exc:
            rows.append(
                {
                    "eps": model.eps,
                    "l1": float("nan"),
                    "tv": float("nan"),
                    "residual": exc.residual,
                    "iterations": exc.iterations,
                    "error": "no convergence",
                }
            )
    return rows, zeta0, det_info


def nonincreasing_within_slack(distances) -> bool:
    """Whether each distance of a stability sweep is at most 1.1 times the previous one."""
    return all(b <= a * 1.1 for a, b in zip(distances, distances[1:]))
