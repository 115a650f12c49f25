"""Nice sets, Markov inducing times, and inducing-time tail statistics.

A nice set for the random system is a family of intervals V^omega around c
whose boundary orbits never re-enter the family.  It is built depth by
depth as the connected component of c inside the union of backward images
of the critical neighborhood; containment between the generating scale and
its double is checked at every depth.  Inducing times are verified directly
against the definition: an interval around the point must map
diffeomorphically onto the companion set with bounded nonlinearity and a
derivative floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyPullback, VerificationFailed
from .maps import CRITICAL_GUARD, PerturbedFamily
from .noise import NoiseModel
from .orbits import _noise_prefix, chain_derivatives, scan_to_landing
from .recurrence import (
    PULLBACK_TOL,
    CriticalNeighborhood,
    critical_neighborhood,
    pullback_component,
)

__all__ = [
    "NiceSetApprox",
    "build_nice_set",
    "markov_inducing_time",
    "markov_theta_cap",
    "VERIFY_REASONS",
    "verify_markov_batch",
    "TailStats",
    "inducing_tail_stats",
]

# fixed stream-id bases of the companion hull's samples and the tail's members
STREAM_HULL = 7_700_000
STREAM_TAIL = 8_000_000


@dataclass
class NiceSetApprox:
    """Depth-limited approximation of a nice-set fiber V^omega around c.

    ``intervals[n]`` approximates the component of c in the union of the
    first n backward images of B(delta); the final boundary points are
    resolved by bisection against orbit membership computed to ``depth``
    steps.
    """

    delta: float
    depth: int
    intervals: list
    boundary_lo: float
    boundary_hi: float
    containment_ok: bool
    meta: dict = field(default_factory=dict)

    @property
    def interval(self) -> tuple[float, float]:
        return self.boundary_lo, self.boundary_hi

    @property
    def length(self) -> float:
        return self.boundary_hi - self.boundary_lo

    def contains(self, x: float) -> bool:
        return self.boundary_lo < x < self.boundary_hi


def _first_hit_times(family, nb: CriticalNeighborhood, points: np.ndarray, noise: np.ndarray, depth: int):
    """Per-point first i in 1..depth with f_omega^i(point) inside the hat neighborhood."""
    first = np.full(len(points), np.iinfo(np.int64).max, dtype=np.int64)
    x = points.copy()
    alive = np.arange(len(points))
    for i in range(1, depth + 1):
        if len(alive) == 0:
            break
        x[alive] = family.eval_vec(float(noise[i - 1]), x[alive])
        inside = (x[alive] > nb.lo) & (x[alive] < nb.hi)
        first[alive[inside]] = i
        alive = alive[~inside]
    return first


def _point_escapes(family, nb, x: float, noise: np.ndarray, depth: int) -> bool:
    """True when the orbit of x stays out of the hat neighborhood for depth steps."""
    lo, hi = nb.lo, nb.hi
    steps = 0
    for steps, y, _, _ in scan_to_landing(family, x, noise[:depth], lambda y: lo < y < hi):
        if lo < y < hi:
            return False
    return steps == depth  # a shorter walk came within the critical guard


# width at which the bisection for a fiber boundary stops
_BISECT_TOL = 1e-12


def build_nice_set(
    family: PerturbedFamily,
    delta: float,
    omega,
    depth: int,
    verify_horizon: int = 0,
    grid_points: int = 2048,
) -> NiceSetApprox:
    """Depth-limited nice-set fiber with optional boundary-orbit verification.

    The component of c is computed on each side by scanning a grid across
    the annulus between B(delta) and B(2*delta) for the first point whose
    orbit avoids B(delta) up to the depth horizon, then bisecting.

    Verification to a horizon N demands boundary points whose orbits avoid
    the neighborhood for N + depth steps.  Such
    points exist arbitrarily close to the true boundary but their orbits
    cannot be followed in double precision (round-off is amplified past the
    neighborhood scale after a few dozen steps), so the boundary is refined
    with adaptive-precision survivor tracking before its orbit is checked
    against the companion fibers.  Verification failures are reported in
    ``meta["violations"]``; they never raise.
    """
    params = family.base
    nb = critical_neighborhood(params, delta)
    nb2 = critical_neighborhood(params, 2.0 * delta)
    needed = depth + max(verify_horizon, 0)
    noise = _noise_prefix(omega, needed)
    c = params.c

    sides = {}
    containment_ok = True
    for side in ("lo", "hi"):
        if side == "hi":
            grid = np.linspace(nb.hi, nb2.hi, grid_points)
        else:
            grid = np.linspace(nb.lo, nb2.lo, grid_points)
        first = _first_hit_times(family, nb, grid, noise, depth)
        per_depth = []
        for n in range(depth + 1):
            out = np.nonzero(first > n)[0]
            if len(out) == 0:
                containment_ok = False
                per_depth.append(grid[-1])
            else:
                per_depth.append(grid[out[0]])
        out = np.nonzero(first > depth)[0]
        if len(out) == 0:
            containment_ok = False
            boundary = grid[-1]
        else:
            k = out[0]
            inner = grid[k - 1] if k > 0 else (nb.hi if side == "hi" else nb.lo)
            outer = grid[k]
            while abs(outer - inner) > _BISECT_TOL:
                mid = 0.5 * (inner + outer)
                if _point_escapes(family, nb, mid, noise, depth):
                    outer = mid
                else:
                    inner = mid
            boundary = outer
        sides[side] = (per_depth, boundary)

    intervals = [
        (sides["lo"][0][n], sides["hi"][0][n]) for n in range(depth + 1)
    ]
    result = NiceSetApprox(
        delta=delta,
        depth=depth,
        intervals=intervals,
        boundary_lo=sides["lo"][1],
        boundary_hi=sides["hi"][1],
        containment_ok=containment_ok,
        meta={"grid_points": grid_points, "verify_horizon": verify_horizon},
    )
    if verify_horizon > 0:
        violations, refine_meta = _verify_niceness_mp(
            family, nb, nb2, result, noise, depth, verify_horizon
        )
        result.meta["violations"] = violations
        result.meta["boundary_refinement"] = refine_meta
    return result


def _estimate_lyapunov_bits(family, noise, x0: float) -> float:
    """Average log2 of the one-step derivative along the first 2000 steps of a typical orbit."""
    c = family.base.c
    y = x0
    total = 0.0
    count = 0
    for i in range(min(2000, len(noise))):
        if abs(y - c) < 1e-13:
            y += 1e-6
        y, df = family.step(float(noise[i]), y)
        total += math.log2(df)
        count += 1
    return max(total / max(count, 1), 0.1)


# Both boundary scans below return scan(x) -> (first_hit, trajectory, log Df
# at first_hit) for the noise prefix: the trajectory holds the doubles
# nearest to x and to each step's value, and a scan fails (first_hit at most
# total_steps) when its orbit enters B(delta), leaves the taper core or
# grazes c.  Only the core, where f_t = f + t, is ever stepped.  log Df and
# the core test are taken in doubles at the nearest double.


def _scan_mp(family, nb, noise, total_steps):
    """The boundary scan in mpmath at the caller's working precision."""
    import mpmath as mp

    params = family.base
    c = mp.mpf(params.c)
    u = mp.mpf(params.u)
    v = mp.mpf(params.v)
    ell = mp.mpf(params.ell)
    one_c = mp.mpf(1.0 - params.c)  # the double 1 - c, as the float kernels use
    lo_b, hi_b = mp.mpf(nb.lo), mp.mpf(nb.hi)
    margin = family.margin

    def scan(x):
        y = x
        yf = float(y)
        traj = [yf]
        logdf = 0.0
        for i in range(total_steps):
            t = float(noise[i])
            if not margin <= yf <= 1.0 - margin or abs(yf - params.c) < 1e-12:
                return i + 1, traj, logdf  # left the core or grazed c: failure
            logdf += math.log(abs(params.deriv(yf)) + 1e-300)
            # written out in mpmath: PerturbedFamily.step works in doubles
            if y < c:
                z = (c - y) / c
                y = u * (1 - z**ell) + t
            else:
                z = (y - c) / one_c
                y = 1 - v + v * z**ell + t
            yf = float(y)
            traj.append(yf)
            if lo_b < y < hi_b:
                return i + 1, traj, logdf
        return total_steps + 1, traj, logdf

    return scan


# fractional bits the fixed-point scan keeps beyond the mpmath precision
_GUARD_BITS = 16


def _scan_int(family, nb, noise, total_steps, bits):
    """The boundary scan in fixed point, for an integer critical order.

    A value y is the Python int Y = y * 2^S with S = bits + _GUARD_BITS, so
    every step is exact up to a few units of 2^-S, finer than mpmath's
    rounding at ``bits``.  The parameters, the bounds of B(delta) and the
    noise values are doubles and convert exactly; division by c and by
    1 - c goes through 2^(2S)-scaled reciprocals, and z^ell is an int power
    shifted back by S(ell - 1).  Y / 2^S is int true division, which rounds
    to the nearest double as float(mpf) does.
    """
    import mpmath as mp

    params = family.base
    S = bits + _GUARD_BITS
    one = 1 << S

    def fixed(a):
        n, d = float(a).as_integer_ratio()
        return (n << S) // d

    C, U, V = fixed(params.c), fixed(params.u), fixed(params.v)
    inv_c = (1 << 2 * S) // C
    inv_one_c = (1 << 2 * S) // fixed(1.0 - params.c)
    right_floor = one - V
    ell = int(params.ell)
    drop = S * (ell - 1)
    lo_b, hi_b = fixed(nb.lo), fixed(nb.hi)
    ts = [fixed(t) for t in noise[:total_steps].tolist()]
    margin = family.margin
    c = params.c
    deriv = params.deriv

    def scan(x):
        Y = int(mp.ldexp(x, S))  # exact for x at or above 2^-_GUARD_BITS
        yf = Y / one
        traj = [yf]
        logdf = 0.0
        for i in range(total_steps):
            if not margin <= yf <= 1.0 - margin or abs(yf - c) < 1e-12:
                return i + 1, traj, logdf
            logdf += math.log(abs(deriv(yf)) + 1e-300)
            if Y < C:
                Z = (C - Y) * inv_c >> S
                Y = (U * (one - (Z**ell >> drop)) >> S) + ts[i]
            else:
                Z = (Y - C) * inv_one_c >> S
                Y = right_floor + (V * (Z**ell >> drop) >> S) + ts[i]
            yf = Y / one
            traj.append(yf)
            if lo_b < Y < hi_b:
                return i + 1, traj, logdf
        return total_steps + 1, traj, logdf

    return scan


# candidate orbits the survivor tracking scans before it gives up
_MAX_ORBITS = 4000


def _refine_boundary_mp(family, nb, nb2, side, start, noise, total_steps):
    """High-precision survivor tracking: a point near the boundary whose orbit
    avoids the neighborhood for ``total_steps`` steps.

    Doubles cannot hold such points (the avoiding set at this depth is
    thinner than the double-precision grid), so the search runs in mpmath
    with precision tied to the Lyapunov growth over the horizon.  Each
    candidate's orbit is scanned in fixed point when ell is an integer and
    in mpmath otherwise.  Returns (point, trajectory doubles, meta) or
    (None, None, meta) when tracking fails, which includes running out of
    _MAX_ORBITS scans; ``meta["scan_steps"]`` counts the map steps of every
    scan.
    """
    import mpmath as mp

    bits = int(1.3 * _estimate_lyapunov_bits(family, noise, 0.3141) * total_steps) + 64
    if float(family.base.ell).is_integer():
        orbit_scan = _scan_int(family, nb, noise, total_steps, bits)
    else:
        orbit_scan = _scan_mp(family, nb, noise, total_steps)

    with mp.workprec(bits):
        outward = 1.0 if side == "hi" else -1.0  # away from c
        x = mp.mpf(start) + outward * mp.mpf(1e-13)
        best_hit, traj, logdf = orbit_scan(x)
        scan_steps = len(traj) - 1
        orbits_used = 1
        rng = np.random.default_rng(((1 if side == "hi" else 2) << 32) + total_steps)
        stall = 0
        while best_hit <= total_steps and orbits_used < _MAX_ORBITS:
            # resample at scales around |B|/Df^m, which re-randomises the
            # orbit at the current first-hit step m; candidates that drift
            # into the fiber fail the scan and are rejected, so any accepted
            # point remains on the avoiding side of the true boundary
            base = mp.mpf(2.0 * nb.length) / mp.e**mp.mpf(min(logdf, 700.0))
            base = min(base, mp.mpf(nb2.length) * mp.mpf(0.02))
            scale = base * mp.mpf(2.0 ** ((stall % 5) - 1))
            improved = False
            for _ in range(12):
                orbits_used += 1
                step = scale * mp.mpf(float(rng.uniform(0.2, 1.0)))
                cand = x + step if rng.integers(2) else x - step
                hit, traj_c, logdf_c = orbit_scan(cand)
                scan_steps += len(traj_c) - 1
                if hit > best_hit:
                    x, best_hit, traj, logdf = cand, hit, traj_c, logdf_c
                    improved = True
                    break
            stall = 0 if improved else stall + 1
            if stall > 30:
                break
        meta = {
            "bits": bits,
            "orbits_used": orbits_used,
            "achieved_avoidance": int(best_hit - 1),
            "offset_from_start": float(x - mp.mpf(start)),
            "scan_steps": scan_steps,
        }
        if best_hit <= total_steps:
            return None, None, meta
        return x, traj, meta


def _verify_niceness_mp(family, nb, nb2, nice, noise, companion_depth, horizon):
    """Boundary-orbit check against companion fibers via refined trajectories.

    Membership of a trajectory point in a companion fiber is decided from
    the trajectory itself: the fiber at shift k is contained in the union of
    the first ``companion_depth`` backward images of the neighborhood, so a
    point whose continued orbit stays out of the neighborhood for that many
    steps cannot belong to it.
    """
    violations = []
    refine_meta = {}
    total = horizon + companion_depth
    for side, b in (("lo", nice.boundary_lo), ("hi", nice.boundary_hi)):
        point, traj, meta = _refine_boundary_mp(family, nb, nb2, side, b, noise, total)
        refine_meta[side] = meta
        if point is None:
            violations.append(
                {"step": meta["achieved_avoidance"] + 1, "side": side,
                 "point": float("nan"), "kind": "tracking-failed"}
            )
            continue
        for k in range(1, horizon + 1):
            y = traj[k]
            if nb.lo < y < nb.hi:
                violations.append({"step": k, "side": side, "point": y, "kind": "core"})
                break
            if nb2.lo < y < nb2.hi:
                # inside the annulus: in the companion only if the continued
                # orbit re-enters the neighborhood within the companion depth
                enters = any(
                    nb.lo < traj[k + j] < nb.hi for j in range(1, companion_depth + 1)
                )
                if enters:
                    violations.append({"step": k, "side": side, "point": y, "kind": "annulus"})
                    break
    return violations, refine_meta


def markov_theta_cap(ell: float, theta0: float) -> float:
    """Distortion cap under which a good return yields a Markov inducing time, for critical order ell."""
    kappa = 2.0 ** (1.0 / ell)
    return min(theta0 / (4.0 * kappa), 1.0 / (kappa**2 * math.e**3))


@dataclass
class MarkovVerification:
    """Witnesses of a directly verified Markov inducing time."""

    time: int
    window: tuple[float, float]
    target: tuple[float, float]
    nonlinearity: float
    min_df: float
    floor: float
    chain_order: int
    grid_points: int


#: names of the checks a Markov verification can fail, in the order they run
VERIFY_REASONS = (
    "critical_guard",
    "endpoint_outside",
    "pullback_empty",
    "clips_critical",
    "misses_start",
    "not_orientation_preserving",
    "nonlinearity",
    "below_floor",
)


def verify_markov_time(
    family: PerturbedFamily,
    omega_values: np.ndarray,
    x: float,
    m: int,
    target: tuple[float, float],
    base_length: float,
    grid_points: int = 128,
) -> MarkovVerification:
    """Directly verify the inducing definition at time m against a target fiber.

    Pulls the target back along the orbit of x, then checks on a grid that
    the m-step composition is a diffeomorphism of the component onto the
    target with nonlinearity at most 1 and derivative at least
    e^2 |target| / base_length.  Raises VerificationFailed otherwise, with
    ``reason`` set to one of VERIFY_REASONS.
    """
    c = family.base.c
    orbit = [x]
    y = x
    for j in range(m):
        if abs(y - c) < CRITICAL_GUARD:
            raise VerificationFailed(f"orbit hit critical guard at step {j}", "critical_guard")
        y = family.eval(float(omega_values[j]), y)
        orbit.append(y)
    if not target[0] < orbit[m] < target[1]:
        raise VerificationFailed("orbit endpoint is outside the target fiber", "endpoint_outside")
    try:
        chain = pullback_component(
            family, target, m, guide_orbit=orbit[:m], omega=omega_values[:m]
        )
    except EmptyPullback as exc:
        raise VerificationFailed(f"pullback degenerated: {exc}", "pullback_empty") from exc
    if chain.order > 0:
        raise VerificationFailed(
            f"pullback chain clips the critical point (order {chain.order})", "clips_critical"
        )
    lo, hi = chain.component
    if not lo < x < hi:
        raise VerificationFailed(
            "pullback component does not contain the starting point", "misses_start"
        )
    g = np.linspace(lo, hi, grid_points)
    g[0] += 1e-15
    g[-1] -= 1e-15
    _, d1, d2 = chain_derivatives(family, omega_values, g, m)
    if np.any(d1 <= 0.0) or not np.all(np.isfinite(d1)):
        raise VerificationFailed(
            "composition is not orientation-preserving on the window", "not_orientation_preserving"
        )
    nonlinearity = float(np.max(np.abs(d2) / d1) * (hi - lo))
    if nonlinearity > 1.0:
        raise VerificationFailed(f"nonlinearity {nonlinearity:.3f} exceeds 1", "nonlinearity")
    min_df = float(np.min(d1))
    floor = math.e**2 * (target[1] - target[0]) / base_length
    if min_df < floor:
        raise VerificationFailed(f"derivative {min_df:.3f} below floor {floor:.3f}", "below_floor")
    return MarkovVerification(
        time=m,
        window=(lo, hi),
        target=target,
        nonlinearity=nonlinearity,
        min_df=min_df,
        floor=floor,
        chain_order=chain.order,
        grid_points=grid_points,
    )


def _pullback_rows(family: PerturbedFamily, omega, sides_left, target, code):
    """recurrence.pullback_component along each row's orbit, for rows with code -1.

    Returns the components (lo, hi) and whether any step met c (order > 0);
    rows whose chain empties get the code of ``pullback_empty``.
    """
    p = family.base
    c = p.c
    n, m = omega.shape
    lo = np.full(n, float(target[0]))
    hi = np.full(n, float(target[1]))
    clipped = np.zeros(n, dtype=bool)
    empty_code = VERIFY_REASONS.index("pullback_empty")
    for j in range(m - 1, -1, -1):
        r = np.nonzero(code < 0)[0]
        if not len(r):
            break
        t = omega[r, j]
        left = sides_left[r, j]
        # recurrence._pull_once, one row per element
        rng_lo = np.where(left, 0.0, p.c1_plus + t)
        rng_hi = np.where(left, p.c1_minus + t, 1.0)
        lo_y = np.maximum(lo[r], rng_lo)
        hi_y = np.minimum(hi[r], rng_hi)
        empty = hi_y <= lo_y
        lo_end = lo_y <= rng_lo
        hi_end = hi_y >= rng_hi
        x_lo = np.where(left, 0.0, c)
        x_hi = np.where(left, c, 1.0)
        need_lo = ~empty & ~lo_end
        need_hi = ~empty & ~hi_end
        ks = np.concatenate([np.nonzero(need_lo)[0], np.nonzero(need_hi)[0]])
        ys = np.concatenate([lo_y[need_lo], hi_y[need_hi]])
        xs = family.inverse_rows(t[ks], ys, left[ks], PULLBACK_TOL)
        n_lo = int(need_lo.sum())
        x_lo[need_lo] = xs[:n_lo]
        x_hi[need_hi] = xs[n_lo:]
        # a None preimage (NaN) fails the comparison and empties the chain
        empty |= ~(x_hi > x_lo)
        clipped[r] |= np.where(left, hi_end, lo_end) & ~empty
        code[r[empty]] = empty_code
        lo[r] = x_lo
        hi[r] = x_hi
    return lo, hi, clipped


def verify_markov_batch(
    family: PerturbedFamily,
    omega: np.ndarray,
    x: np.ndarray,
    target: tuple[float, float],
    base_length: float,
    grid_points: int = 128,
) -> np.ndarray:
    """verify_markov_time for many candidates at one time m, in one pass.

    Row i verifies the start ``x[i]`` under the noise row ``omega[i]`` at
    m = omega.shape[1] against the common target.  The stages, their order
    and their arithmetic are those of the scalar verifier, which stays the
    oracle.  Returns one code per row: -1 when the time is verified, else
    the index in VERIFY_REASONS of the first check that fails.
    """
    c = family.base.c
    omega = np.asarray(omega, dtype=float)
    x = np.asarray(x, dtype=float)
    n, m = omega.shape
    code = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return code
    # the scalar replay's eval raises on the same noise values
    family._check_noise(float(np.max(np.abs(omega))))

    orbit = np.empty((n, m))
    y = x.copy()
    for j in range(m):
        hit = (np.abs(y - c) < CRITICAL_GUARD) & (code < 0)
        code[hit] = VERIFY_REASONS.index("critical_guard")
        orbit[:, j] = y
        y = family.eval_rows(omega[:, j], y)
    outside = ~((target[0] < y) & (y < target[1])) & (code < 0)
    code[outside] = VERIFY_REASONS.index("endpoint_outside")

    lo, hi, clipped = _pullback_rows(family, omega, orbit < c, target, code)
    code[clipped & (code < 0)] = VERIFY_REASONS.index("clips_critical")
    misses = ~((lo < x) & (x < hi)) & (code < 0)
    code[misses] = VERIFY_REASONS.index("misses_start")

    r = np.nonzero(code < 0)[0]
    if not len(r):
        return code
    g = np.linspace(lo[r], hi[r], grid_points, axis=1)
    g[:, 0] += 1e-15
    g[:, -1] -= 1e-15
    _, d1, d2 = chain_derivatives(family, omega[r].T, g, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        nonlinearity = np.max(np.abs(d2) / d1, axis=1) * (hi[r] - lo[r])
    floor = math.e**2 * (target[1] - target[0]) / base_length
    checks = (
        ("not_orientation_preserving", np.any(d1 <= 0.0, axis=1) | ~np.all(np.isfinite(d1), axis=1)),
        ("nonlinearity", nonlinearity > 1.0),
        ("below_floor", np.min(d1, axis=1) < floor),
    )
    for reason, failed in reversed(checks):
        code[r[failed]] = VERIFY_REASONS.index(reason)
    return code


def markov_inducing_time(
    family: PerturbedFamily,
    x: float,
    omega,
    nice_set: NiceSetApprox,
    theta: float,
    horizon: int,
    theta0: float = 0.01,
    grid_points: int = 128,
) -> tuple[int, MarkovVerification] | None:
    """Minimal directly verified Markov inducing time of (x, omega).

    Candidate times are the successive landings of the orbit in the
    companion fibers; each candidate is verified against the definition
    (diffeomorphic pullback onto the fiber, nonlinearity at most 1,
    derivative floor).  Good returns at distortion theta are a special case
    of such landings, so whenever the theta-good return time is defined the
    returned time is at most it.  ``theta`` must respect the cap tied to
    the window constant theta0.
    """
    cap = markov_theta_cap(family.base.ell, theta0)
    if not 0.0 < theta < cap:
        raise ValueError(f"theta={theta} outside (0, {cap:.4g})")
    if not nice_set.contains(x):
        raise ValueError("x is not inside the nice-set fiber")
    depth = nice_set.depth
    values = _noise_prefix(omega, horizon + depth + 1)
    base_length = nice_set.length
    nb = critical_neighborhood(family.base, nice_set.delta)
    c = family.base.c
    y = x
    for s in range(1, horizon + 1):
        if abs(y - c) < CRITICAL_GUARD:
            return None
        y = family.eval(float(values[s - 1]), y)
        if not (nb.lo < y < nb.hi):
            continue
        target = build_nice_set(
            family, nice_set.delta, values[s:], depth, verify_horizon=0, grid_points=512,
        ).interval
        if not target[0] < y < target[1]:
            continue
        try:
            report = verify_markov_time(
                family, values, x, s, target, base_length, grid_points=grid_points
            )
        except VerificationFailed:
            continue
        return s, report
    return None


@dataclass
class TailStats:
    """Empirical tail of verified inducing times over an ensemble.

    ``times`` holds the verified inducing time per member (-1 when censored
    at the horizon or lost to the critical guard).  The survival function
    P(m_V > m) is estimated with censored members counted as > horizon.
    """

    times: np.ndarray
    horizon: int
    n_members: int
    censored: int
    critical_hits: int
    theta: float
    theta_good_times: np.ndarray
    hull: tuple[float, float]
    verified_subsample: dict
    meta: dict = field(default_factory=dict)

    @property
    def censoring_fraction(self) -> float:
        return self.censored / self.n_members

    def survival(self) -> tuple[np.ndarray, np.ndarray]:
        """(m, P(m_V > m)) on the sorted uncensored support."""
        finite = np.sort(self.times[self.times > 0])
        if len(finite) == 0:
            return np.array([1.0]), np.array([1.0])
        ms, counts = np.unique(finite, return_counts=True)
        below = np.cumsum(counts)
        surv = 1.0 - below / self.n_members
        return ms.astype(float), surv

    def loglog_slope(self) -> dict:
        """Least-squares slope of log S against log m on the uncensored tail.

        The fit starts at the 0.3 quantile of verified times (skipping the
        flat head of the survival curve) and stops where censoring begins to
        dominate, i.e. where S drops within 2% of the censored fraction.
        """
        ms, surv = self.survival()
        if len(ms) < 5:
            return {"slope": float("nan"), "n_points": 0}
        floor = self.censoring_fraction + 0.02
        lo_m = np.quantile(self.times[self.times > 0], 0.3)
        mask = (surv > floor) & (ms >= lo_m) & (surv > 0)
        if mask.sum() < 5:
            return {"slope": float("nan"), "n_points": int(mask.sum())}
        x = np.log(ms[mask])
        ydat = np.log(surv[mask])
        A = np.vstack([np.ones(len(x)), x]).T
        coef, *_ = np.linalg.lstsq(A, ydat, rcond=None)
        return {
            "slope": float(coef[1]),
            "intercept": float(coef[0]),
            "n_points": int(mask.sum()),
            "fit_range": (float(ms[mask][0]), float(ms[mask][-1])),
        }

    def moment(self, p: float) -> float:
        """Censored-from-below empirical p-th moment of the inducing times.

        Censored members count at the horizon.
        """
        capped = np.where(self.times > 0, self.times, self.horizon).astype(float)
        return float(np.mean(capped**p))


# sampled fibers in the companion hull, and its widening in units of their spread
_HULL_SAMPLES = 40
_HULL_MARGIN = 3.0


def estimate_companion_hull(
    family: PerturbedFamily,
    model: NoiseModel,
    delta: float,
    depth: int,
) -> tuple[float, float]:
    """Empirical outer hull of nice-set fibers over _HULL_SAMPLES sampled noise sequences.

    The hull is widened by _HULL_MARGIN times the observed spread on each side;
    it is used as a member-independent onto-target, making every verified
    time an upper bound for the true minimal inducing time whenever the hull
    really contains the member's fiber (cross-checked on a subsample).
    """
    los, his = [], []
    for j in range(_HULL_SAMPLES):
        ns = build_nice_set(
            family, delta, model.stream(STREAM_HULL + j), depth,
            verify_horizon=0, grid_points=512,
        )
        los.append(ns.boundary_lo)
        his.append(ns.boundary_hi)
    lo_spread = max(los) - min(los)
    hi_spread = max(his) - min(his)
    return min(los) - _HULL_MARGIN * lo_spread, max(his) + _HULL_MARGIN * hi_spread


# steps of noise the tail draws at a time for its alive members
_TAIL_BLOCK = 64

# verification attempts per tail member
_MAX_VERIFICATIONS = 16

# grid points of each tail verification's nonlinearity and floor checks
_TAIL_GRID = 64


def inducing_tail_stats(
    family: PerturbedFamily,
    model: NoiseModel,
    delta: float,
    n_members: int,
    horizon: int,
    theta: float,
    depth: int = 48,
    verify_subsample: int = 64,
) -> TailStats:
    """Verified inducing-time tail over an ensemble started in B(delta).

    Members are (x_i, omega_i) with x_i uniform on B(delta) (a subset of
    every nice-set fiber) and omega_i stream ``STREAM_TAIL + i``.  Noise is
    drawn in blocks of _TAIL_BLOCK steps for the members still alive, and
    only their draws so far are held, so memory follows the alive members;
    the exact-companion subsample re-reads its members' streams.  The
    candidate times are landings in B(delta); the candidates landing at one
    step are verified together (verify_markov_batch) directly against the
    inducing definition with the empirical companion hull as the
    onto-target, so accepted times upper-bound the minimal inducing time.
    theta-good return times at the capped theta are tracked alongside for
    comparison.  A member gets at most _MAX_VERIFICATIONS verification
    attempts.  A random subsample is re-verified with the scalar
    verify_markov_time against its own exactly-built companion fiber and
    reported.  ``meta["verify"]`` counts the ensemble's verification
    attempts, acceptances and failures by reason.
    """
    params = family.base
    nb = critical_neighborhood(params, delta)
    hull = estimate_companion_hull(family, model, delta, depth)
    c = params.c
    log_theta = math.log(theta)
    log_len = math.log(nb.length)
    # x0 lies in the pullback window, so Df at x0 bounds inf Df from
    # above: candidates below the derivative floor must fail.
    log_floor = 2.0 + math.log((hull[1] - hull[0]) / nb.length)
    guard = CRITICAL_GUARD

    # STREAM_TAIL is also member 0's noise stream: x0[k] and omega_0[k] are one uniform draw
    x0 = model.generator(STREAM_TAIL).uniform(nb.lo, nb.hi, n_members)
    x0 = np.where(np.abs(x0 - c) < 10 * guard, nb.hi - 1e-6, x0)

    times = np.full(n_members, -1, dtype=np.int64)
    h_times = np.full(n_members, -1, dtype=np.int64)
    failures = np.zeros(len(VERIFY_REASONS), dtype=np.int64)
    critical_hits = 0

    # row k of every state array belongs to member alive[k]; hist holds its draws so far
    alive = np.arange(n_members)
    x = x0.copy()
    log_df = np.zeros(n_members)
    log_a = np.full(n_members, -np.inf)
    attempts = np.zeros(n_members, dtype=np.int64)
    hist = np.empty((n_members, 0))

    s = 0
    while s < horizon and len(alive):
        block = min(_TAIL_BLOCK, horizon - s)
        # widen in one copy: a name left on the narrow array would hold it past every compaction
        hist = np.pad(hist, ((0, 0), (0, block)))
        for row, i in enumerate(alive):
            hist[row, s:] = model.stream(STREAM_TAIL + i).shift(s).prefix(block)
        for b in range(block):
            s_cur = s + b + 1
            d = np.abs(x - c)
            leave = d < guard  # rows that leave at this step: critical hits, then acceptances
            critical_hits += int(np.count_nonzero(leave))
            x, df, _ = family.jet_vec(hist[:, s + b], x)  # one noise value per member
            log_a = np.logaddexp(log_a, log_df - np.log(np.maximum(d, guard)))
            log_df += np.log(np.maximum(df, 1e-300))
            inside = (x > nb.lo) & (x < nb.hi)
            # theta-good return bookkeeping (first occurrence)
            good = inside & (log_theta + log_df >= log_a + log_len)
            if good.any():
                members = alive[good]
                h_times[members[h_times[members] < 0]] = s_cur
            cand = np.nonzero(inside & ~leave & (log_df >= log_floor))[0]
            cand = cand[attempts[cand] < _MAX_VERIFICATIONS]
            if len(cand):
                attempts[cand] += 1
                codes = verify_markov_batch(
                    family, hist[cand, :s_cur], x0[alive[cand]], hull, nb.length,
                    grid_points=_TAIL_GRID,
                )
                ok = codes < 0
                times[alive[cand[ok]]] = s_cur
                leave[cand[ok]] = True
                failures += np.bincount(codes[~ok], minlength=len(VERIFY_REASONS))
            if leave.any():
                keep = ~leave
                alive, x, log_df, log_a, attempts, hist = (
                    a[keep] for a in (alive, x, log_df, log_a, attempts, hist)
                )
        s += block

    censored = int(np.sum(times < 0))

    # exact-companion re-verification on a subsample of accepted members
    accepted = np.nonzero(times > 0)[0]
    sub = []
    if len(accepted):
        sub = model.generator(4242).choice(accepted, size=min(verify_subsample, len(accepted)), replace=False)
    agree = 0
    checked = 0
    inside_hull = 0
    for i in sub:
        m = int(times[i])
        om = model.stream(STREAM_TAIL + int(i)).prefix(m + depth + 1)
        comp = build_nice_set(family, delta, om[m:], depth, verify_horizon=0, grid_points=512)
        checked += 1
        if comp.boundary_lo >= hull[0] and comp.boundary_hi <= hull[1]:
            inside_hull += 1
            try:
                verify_markov_time(
                    family, om, float(x0[int(i)]), m, comp.interval, nb.length,
                    grid_points=_TAIL_GRID,
                )
                agree += 1
            except VerificationFailed:
                pass
    return TailStats(
        times=times,
        horizon=horizon,
        n_members=n_members,
        censored=censored,
        critical_hits=critical_hits,
        theta=theta,
        theta_good_times=h_times,
        hull=hull,
        verified_subsample={"checked": checked, "agree": agree},
        meta={
            # subsample members whose exact fiber lies inside the hull; the
            # rest cannot count as agreeing whatever their verification gives
            "inside_hull": inside_hull,
            "verify": {
                # every attempt is accepted once or fails with one reason
                "attempts": len(accepted) + int(failures.sum()),
                "accepted": len(accepted),
                "failures": dict(zip(VERIFY_REASONS, failures.tolist())),
            },
        },
    )
