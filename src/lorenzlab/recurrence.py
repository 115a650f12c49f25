"""Return times, depth traces, binding periods, pullbacks and backward contraction.

Everything here measures recurrence of (random) orbits into the critical
neighborhood

    B(delta) = f^{-1}(c1+, c1+ + delta)  u  f^{-1}(c1- - delta, c1-),

an interval around c (minus c itself) whose one-sided radii are closed form
for the affine power-law branches.  Long scans run in log space so that
derivative products never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CriticalHit, DeltaOutOfRange, EmptyPullback
from .maps import CRITICAL_GUARD, MapParams, PerturbedFamily, summability_stats
from .orbits import _noise_prefix, log_scan

__all__ = [
    "scale_cap",
    "CriticalNeighborhood",
    "critical_neighborhood",
    "d_star",
    "ReturnEvent",
    "landing_time",
    "good_return_time",
    "good_return_or_expansion_time",
    "DepthTrace",
    "depth_trace",
    "BindingPeriodRecord",
    "binding_constants",
    "binding_period",
    "PullbackChain",
    "pullback_component",
    "backward_contraction_check",
]

#: reference scale delta_* of the distance convention d_*
DELTA_STAR = 0.05

#: binding-period smallness budget theta1 (about 1/(4e))
THETA1 = 0.0919

#: root-finding tolerance of every pullback step, scalar or batched
PULLBACK_TOL = 1e-12


@dataclass(frozen=True)
class CriticalNeighborhood:
    """Two-sided neighborhood of c pulled back from delta-bands at the critical values."""

    params: MapParams
    delta: float
    left_radius: float
    right_radius: float
    #: the open ends c - left_radius and c + right_radius, fixed at construction
    lo: float = field(init=False, compare=False)
    hi: float = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lo", self.params.c - self.left_radius)
        object.__setattr__(self, "hi", self.params.c + self.right_radius)

    @property
    def length(self) -> float:
        return self.left_radius + self.right_radius

    @property
    def expansion_scale(self) -> float:
        """delta / |B(delta)|, comparable to delta**(1 - 1/ell)."""
        return self.delta / self.length

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi and x != self.params.c

    def interval(self) -> tuple[float, float]:
        """The filled interval including c (the hat variant)."""
        return self.lo, self.hi


def scale_cap(params: MapParams) -> float:
    """min(u - (1 - v), u, v): below it the two defining bands of B(delta) stay inside the branch images."""
    return min(params.u - (1.0 - params.v), params.u, params.v)


def critical_neighborhood(params: MapParams, delta: float) -> CriticalNeighborhood:
    """Closed-form critical neighborhood at scale delta.

    Radii are c*(delta/u)**(1/ell) on the left and (1-c)*(delta/v)**(1/ell)
    on the right.  Scales must satisfy 0 < delta < scale_cap(params).
    """
    cap = scale_cap(params)
    if not 0.0 < delta < cap:
        raise DeltaOutOfRange(f"delta={delta} outside (0, {cap})")
    inv_ell = 1.0 / params.ell
    left = params.c * (delta / params.u) ** inv_ell
    right = (1.0 - params.c) * (delta / params.v) ** inv_ell
    return CriticalNeighborhood(params, delta, left, right)


def d_star(params: MapParams, x: float) -> float:
    """Distance-to-critical at reference scale: d(f(x), CV) inside B(DELTA_STAR), else DELTA_STAR."""
    nb = critical_neighborhood(params, DELTA_STAR)
    if nb.contains(x):
        fx = params.eval(x)
        return min(abs(fx - params.c1_plus), abs(fx - params.c1_minus))
    return DELTA_STAR


@dataclass
class ReturnEvent:
    """A stopping event of a random orbit with the witnesses of its defining inequality."""

    kind: str  # "landing" | "theta_good" | "tau_scale"
    time: int
    delta: float | None
    theta: float | None
    tau: float | None
    log_df: float
    log_asum: float
    nbhd_length: float | None

    def inequality_holds(self, theta0: float | None = None) -> bool:
        """Re-evaluate the defining inequality from the stored witnesses."""
        if self.kind == "theta_good":
            return math.log(self.theta) + self.log_df >= self.log_asum + math.log(self.nbhd_length)
        if self.kind == "tau_scale":
            return math.log(theta0) + self.log_df >= 1.0 + math.log(self.tau) + self.log_asum
        return True


def landing_time(
    family: PerturbedFamily,
    x: float,
    omega,
    delta: float,
    *,
    horizon: int,
) -> int | None:
    """First s >= 0 with f_omega^s(x) in B(delta), or None within the horizon."""
    nb = critical_neighborhood(family.base, delta)
    if nb.contains(x):
        return 0
    lo, hi, c = nb.lo, nb.hi, family.base.c
    for s, y, _, _ in log_scan(family, x, _noise_prefix(omega, horizon)):
        if lo < y < hi and y != c:
            return s
    return None


def good_return_time(
    family: PerturbedFamily,
    x: float,
    omega,
    delta: float,
    theta: float,
    *,
    horizon: int,
) -> ReturnEvent | None:
    """First s >= 1 returning to B(delta) with distortion controlled by theta.

    The defining inequality is theta * Df_omega^s(x) >= A(x, omega, s) * |B(delta)|;
    a return satisfying it admits a full-size diffeomorphic pullback window.
    """
    nb = critical_neighborhood(family.base, delta)
    log_theta, log_len = math.log(theta), math.log(nb.length)
    lo, hi, c = nb.lo, nb.hi, family.base.c
    for s, y, log_df, log_a in log_scan(family, x, _noise_prefix(omega, horizon)):
        if lo < y < hi and y != c and log_theta + log_df >= log_a + log_len:
            return ReturnEvent("theta_good", s, delta, theta, None, log_df, log_a, nb.length)
    return None


def default_scale_grid(params: MapParams, delta: float):
    """Geometric grid {delta * e^k} up to DELTA_STAR (capped at admissible scales)."""
    cap = min(DELTA_STAR, 0.999 * scale_cap(params))
    grid = []
    d = delta
    while d <= cap * (1.0 + 1e-12):
        grid.append(d)
        d *= math.e
    return grid or [delta]


def good_return_or_expansion_time(
    family: PerturbedFamily,
    x: float,
    omega,
    delta: float,
    theta: float,
    tau: float,
    *,
    horizon: int,
    theta0: float = 0.01,
    scale_grid=None,
) -> ReturnEvent | None:
    """Earliest of (a) a theta-good return at some scale >= delta, (b) a tau-scale
    expansion time with theta0 * Df >= e * tau * A.

    The scale infimum runs over a geometric grid with ratio e from delta up to
    DELTA_STAR; refining the grid can only make the reported time earlier.
    Ties at the same step report the good return (it carries the scale).
    """
    params = family.base
    if scale_grid is None:
        scale_grid = default_scale_grid(params, delta)
    nbs = [critical_neighborhood(params, d) for d in scale_grid]
    rungs = [(nb.lo, nb.hi, math.log(nb.length), nb) for nb in nbs]
    c = params.c
    log_theta = math.log(theta)
    log_tau_rhs = 1.0 + math.log(tau)  # log(e * tau)
    log_theta0 = math.log(theta0)
    for s, y, log_df, log_a in log_scan(family, x, _noise_prefix(omega, horizon)):
        for lo, hi, log_len, nb in rungs:
            if lo < y < hi and y != c and log_theta + log_df >= log_a + log_len:
                return ReturnEvent("theta_good", s, nb.delta, theta, tau, log_df, log_a, nb.length)
        if log_theta0 + log_df >= log_tau_rhs + log_a:
            return ReturnEvent("tau_scale", s, None, theta, tau, log_df, log_a, None)
    return None


@dataclass
class DepthTrace:
    """Per-step depth values and visit counters of a random orbit.

    ``q[j]`` is the depth of the j-th skew-product state: the smallest
    nonnegative integer q with Df_{omega_j}(x_j) * d(x_j, c) >= e^{-q} * eps.
    ``Q(n1, n2)`` and ``visits(n1, n2)`` are inclusive range sums.
    """

    eps: float
    points: np.ndarray
    q: np.ndarray
    in_nbhd: np.ndarray
    _q_prefix: np.ndarray = field(repr=False, default=None)
    _g_prefix: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        self._q_prefix = np.concatenate([[0], np.cumsum(self.q)])
        self._g_prefix = np.concatenate([[0], np.cumsum(self.in_nbhd.astype(np.int64))])

    @property
    def n(self) -> int:
        return len(self.q) - 1

    def Q(self, n1: int, n2: int) -> int:
        """Sum of depths over steps n1..n2 inclusive."""
        return int(self._q_prefix[n2 + 1] - self._q_prefix[n1])

    def visits(self, n1: int, n2: int) -> int:
        """Number of steps n1..n2 (inclusive) with the orbit inside B(eps)."""
        return int(self._g_prefix[n2 + 1] - self._g_prefix[n1])

    def bad_membership(self, m: int, kappa: float) -> dict:
        """Horizon-limited membership test for the bad set at (m, kappa).

        Clause 1 requires Q(0, s) > min(m, kappa * visits(0, s)) for every
        s up to the horizon; clause 2 (an infinite-time limit) is
        approximated by the horizon value of Q and flagged as such.
        """
        clause1 = True
        for s in range(self.n + 1):
            if not self.Q(0, s) > min(m, kappa * self.visits(0, s)):
                clause1 = False
                break
        clause2 = self.Q(0, self.n) >= m
        return {
            "is_bad": clause1 and clause2,
            "clause1": clause1,
            "clause2_at_horizon": clause2,
            "approximate": True,
            "horizon": self.n,
        }


def _depth(eps: float, df: float, d: float) -> int:
    """Smallest q >= 0 with df * d >= e^{-q} * eps."""
    prod = df * d
    if prod >= eps:
        return 0
    return max(0, math.ceil(math.log(eps / prod)))


def depth_value(family: PerturbedFamily, eps: float, t: float, x: float) -> int:
    """Depth q of a single skew-product state (x with next noise t)."""
    return _depth(eps, family.step(t, x)[1], abs(x - family.base.c))


def depth_trace(
    family: PerturbedFamily,
    x: float,
    omega,
    eps: float,
    n: int,
) -> DepthTrace:
    """Depth values, neighborhood visits and cumulative counters for n+1 states."""
    if n < 1:
        raise ValueError("n must be >= 1")
    values = _noise_prefix(omega, n + 1)
    nb = critical_neighborhood(family.base, eps)
    c = family.base.c
    points = np.empty(n + 1)
    q = np.empty(n + 1, dtype=np.int64)
    flags = np.empty(n + 1, dtype=bool)
    y = x
    for j in range(n + 1):
        if abs(y - c) < CRITICAL_GUARD:
            raise CriticalHit(j, y)
        points[j] = y
        flags[j] = nb.contains(y)
        y_next, df = family.step(float(values[j]), y)  # the bits of family.eval(t, y)
        q[j] = _depth(eps, df, abs(y - c))
        y = y_next
    return DepthTrace(eps=eps, points=points, q=q, in_nbhd=flags)


@dataclass
class BindingPeriodRecord:
    """Preferred binding period of a critical value at scale delta with witnesses."""

    v: float
    delta: float
    M: int
    theta: float
    L: float
    zeta: float
    asum: float  # distortion sum of the deterministic orbit over M steps
    df_after: float  # derivative of the (M+1)-step composition at v
    delta_prime: float

    def verify(self, params: MapParams) -> bool:
        """Re-check the three defining inequalities from scratch."""
        nbL = critical_neighborhood(params, self.L * self.delta)
        x = self.v
        asum = 0.0
        dfn = 1.0
        for j in range(self.M):
            if nbL.contains(x):
                return False
            asum += dfn / abs(x - params.c)
            dfn *= params.deriv(x)
            x = params.eval(x)
        if asum > self.theta / self.delta * (1.0 + 1e-12):
            return False
        dprime = max(d_star(params, x), self.delta)
        df_after = dfn * params.deriv(x)
        return df_after >= (dprime / self.delta) ** (1.0 - self.zeta) * (1.0 - 1e-12)


def binding_constants(params: MapParams) -> tuple[float, float, float]:
    """The map's binding-period constants (theta, L, zeta).

    theta = min(0.008, THETA1 / (4 W0)), where W0 is the larger 400-step
    summability sum of the two critical values; L = 2**(ell+2) exceeds
    2**(ell+1) and zeta = 1/(2 ell) lies in (0, 1/ell).
    """
    w0 = max(summability_stats(params, v, 400)["S_N"] for v in (params.c1_minus, params.c1_plus))
    return min(0.008, THETA1 / (4.0 * w0)), 2.0 ** (params.ell + 2.0), 1.0 / (2.0 * params.ell)


def binding_period(params: MapParams, v: float, delta: float, horizon: int) -> BindingPeriodRecord | None:
    """Largest binding period M <= horizon with all three witnesses satisfied.

    With the map's :func:`binding_constants`, locates the maximal N with
    A(v, f, N) <= theta/delta, then searches M <= N (largest first) for which
    the orbit stays out of B(L*delta) up to M and the (M+1)-step derivative
    clears (delta'/delta)**(1 - zeta).  Returns None with no record when no M
    qualifies, which is possible at coarse scales.
    """
    theta, L, zeta = binding_constants(params)
    nbL = critical_neighborhood(params, L * delta)
    budget = theta / delta
    x = v
    asum = 0.0
    dfn = 1.0
    orbit = [x]
    asums = [0.0]
    dfns = [1.0]
    outside = []
    for j in range(horizon + 1):
        if abs(x - params.c) < CRITICAL_GUARD:
            raise CriticalHit(j, x)
        outside.append(not nbL.contains(x))
        asum += dfn / abs(x - params.c)
        if asum > budget:
            break
        dfn *= params.deriv(x)
        x = params.eval(x)
        orbit.append(x)
        asums.append(asum)
        dfns.append(dfn)
    n_max = len(asums) - 1  # A(v, f, n_max) <= theta/delta
    if n_max < 1:
        return None
    clear_prefix = np.cumprod(outside[: n_max + 1]).astype(bool)
    for M in range(n_max, 0, -1):
        if not clear_prefix[M - 1]:
            continue
        xM = orbit[M]
        dprime = max(d_star(params, xM), delta)
        df_after = dfns[M] * params.deriv(xM)
        if df_after >= (dprime / delta) ** (1.0 - zeta):
            return BindingPeriodRecord(
                v=v,
                delta=delta,
                M=M,
                theta=theta,
                L=L,
                zeta=zeta,
                asum=asums[M],
                df_after=df_after,
                delta_prime=dprime,
            )
    return None


@dataclass
class PullbackChain:
    """A backward chain of interval preimages G_0, ..., G_s of a target interval."""

    intervals: list  # [(lo, hi)] with index j = steps remaining to the target
    order: int

    @property
    def component(self) -> tuple[float, float]:
        return self.intervals[0]

    @property
    def length(self) -> float:
        lo, hi = self.intervals[0]
        return hi - lo


def _pull_once(family: PerturbedFamily, t: float, side: str, interval):
    """Preimage component of an interval through one branch of f_t."""
    a, b = interval
    rng_lo, rng_hi = family.branch_range(t, side)
    lo_y, hi_y = max(a, rng_lo), min(b, rng_hi)
    if hi_y <= lo_y:
        raise EmptyPullback(f"interval ({a}, {b}) misses the {side} branch image")
    c = family.base.c
    at_c = False
    if side == "left":
        x_lo = 0.0 if lo_y <= rng_lo else family.inverse_branch(t, lo_y, side, tol=PULLBACK_TOL)
        if hi_y >= rng_hi:
            x_hi, at_c = c, True
        else:
            x_hi = family.inverse_branch(t, hi_y, side, tol=PULLBACK_TOL)
    else:
        if lo_y <= rng_lo:
            x_lo, at_c = c, True
        else:
            x_lo = family.inverse_branch(t, lo_y, side, tol=PULLBACK_TOL)
        x_hi = 1.0 if hi_y >= rng_hi else family.inverse_branch(t, hi_y, side, tol=PULLBACK_TOL)
    if x_lo is None or x_hi is None or x_hi <= x_lo:
        raise EmptyPullback(f"degenerate preimage of ({a}, {b}) on the {side} branch")
    return (x_lo, x_hi), at_c


def pullback_component(
    family: PerturbedFamily,
    target: tuple[float, float],
    s: int,
    branch_path=None,
    guide_orbit=None,
    omega=None,
) -> PullbackChain:
    """Backward chain of component preimages of a target interval.

    The branch at each step comes either from an explicit ``branch_path``
    (sides ordered G_0 -> G_{s-1}) or from a ``guide_orbit`` of points whose
    sides select the components containing them.  ``omega`` supplies noise
    values for perturbed pullbacks and defaults to the zero sequence.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return PullbackChain([tuple(target)], 0)
    values = _noise_prefix(omega, s) if omega is not None else np.zeros(s)
    if branch_path is not None:
        sides = list(branch_path)
        if len(sides) != s:
            raise ValueError("branch_path length must equal s")
        sides = ["left" if str(side).lower().startswith("l") else "right" for side in sides]
    else:
        if guide_orbit is None or len(guide_orbit) < s:
            raise ValueError("provide branch_path or a guide_orbit with >= s points")
        c = family.base.c
        sides = ["left" if guide_orbit[j] < c else "right" for j in range(s)]
    intervals = [None] * (s + 1)
    intervals[s] = tuple(target)
    order = 0
    for j in range(s - 1, -1, -1):
        intervals[j], at_c = _pull_once(family, float(values[j]), sides[j], intervals[j + 1])
        if at_c:
            order += 1
    return PullbackChain(intervals, order)


def _interval_cv_distance(params: MapParams, interval) -> float:
    lo, hi = interval
    dist = math.inf
    for v in (params.c1_plus, params.c1_minus):
        if lo <= v <= hi:
            return 0.0
        dist = min(dist, abs(v - lo), abs(v - hi))
    return dist


def backward_contraction_check(
    params: MapParams,
    r: float,
    delta_ladder,
    s_max: int,
    sample_budget: int = 2000,
    seed: int = 0,
) -> dict:
    """Search for violations of backward contraction with constant r.

    For each delta in the ladder, enumerates components W of the s-step
    preimages of B(r*delta) near the critical values (single-step components
    in closed form, deeper ones guided by sampled orbits that land in the
    target) and reports every W with dist(W, CV) < delta but |W| >= delta.
    An empty violation list means no violation was found at these scales,
    not a proof.  Coverage is reported as the number of distinct components
    visited.
    """
    family = PerturbedFamily(params)
    rng = np.random.default_rng(seed)
    rows = []
    violations = []
    seen = set()
    cvs = (params.c1_plus, params.c1_minus)
    per_start = max(1, sample_budget // (2 * max(1, len(list(delta_ladder)))))
    for delta in delta_ladder:
        nb_target = critical_neighborhood(params, r * delta)
        target = nb_target.interval()

        def record(chain, s, delta=delta):
            w = chain.component
            key = (s, round(w[0], 10), round(w[1], 10))
            if key in seen:
                return
            seen.add(key)
            dist = _interval_cv_distance(params, w)
            length = w[1] - w[0]
            bad = dist < delta and length >= delta
            rows.append(
                {
                    "delta": delta,
                    "s": s,
                    "w_lo": w[0],
                    "w_hi": w[1],
                    "length": length,
                    "dist_cv": dist,
                    "order": chain.order,
                    "violation": bad,
                }
            )
            if bad:
                violations.append(rows[-1])

        # single-step components in closed form, both branches
        for side in ("left", "right"):
            try:
                interval, at_c = _pull_once(family, 0.0, side, target)
            except EmptyPullback:
                continue
            record(PullbackChain([interval, target], 1 if at_c else 0), 1)
        # guided deeper components from orbits started near the critical values
        for v in cvs:
            starts = v + (rng.uniform(-2.0 * delta, 2.0 * delta, per_start))
            starts = starts[(starts > 0.0) & (starts < 1.0)]
            for x0 in starts:
                orbit = [x0]
                y = x0
                dead = False
                for _ in range(s_max):
                    if abs(y - params.c) < CRITICAL_GUARD:
                        dead = True
                        break
                    y = params.eval(y)
                    orbit.append(y)
                if dead:
                    continue
                for s in range(1, len(orbit)):
                    if target[0] < orbit[s] < target[1]:
                        try:
                            chain = pullback_component(
                                family, target, s, guide_orbit=orbit[:s]
                            )
                        except EmptyPullback:
                            continue
                        record(chain, s)
    return {
        "rows": rows,
        "violations": violations,
        "components_visited": len(rows),
        "r": r,
        "s_max": s_max,
    }
