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
    CriticalNeighborhood,
    _pullback_rows,
    critical_neighborhood,
    pullback_component,
)

__all__ = [
    "NiceSetApprox",
    "build_nice_set",
    "markov_theta_cap",
    "VERIFY_REASONS",
    "verify_markov_batch",
    "TailStats",
    "inducing_tail_stats",
]

# fixed stream-id bases of the nice-set fibers (the nice-set subcommand and
# criterion 14), the companion hull's samples and the tail's members
STREAM_NICE = 4_000_000
STREAM_HULL = 7_700_000
STREAM_TAIL = 8_000_000


@dataclass
class NiceSetApprox:
    """Depth-limited approximation of a nice-set fiber V^omega around c.

    ``intervals[n]`` approximates the component of c in the union of the
    first n backward images of B(delta); the final boundary points are
    resolved by bisection against orbit membership computed to the build's
    depth, ``len(intervals) - 1`` steps.
    """

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


def _first_hit_times(family, nb: CriticalNeighborhood, points: np.ndarray, noise: np.ndarray, rows: np.ndarray, depth: int):
    """Per-point first i in 1..depth with f_omega^i(point) inside the hat neighborhood.

    Point k is driven by the noise row ``rows[k]`` of the 2-D ``noise``.
    """
    first = np.full(len(points), np.iinfo(np.int64).max, dtype=np.int64)
    x = points.copy()
    alive = np.arange(len(points))
    for i in range(1, depth + 1):
        if len(alive) == 0:
            break
        x[alive] = family.eval_vec(noise[rows[alive], i - 1], x[alive])
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


def _escapes_rows(family, nb, x: np.ndarray, noise: np.ndarray, rows: np.ndarray, depth: int) -> np.ndarray:
    """_point_escapes per element, point k under the noise row ``rows[k]``, in lockstep.

    eval_rows has the bits of the scalar walk; a point within the critical
    guard ends its walk as log_scan's CriticalHit does.
    """
    c = family.base.c
    live = np.arange(len(x))
    y = x
    for i in range(depth):
        stay = ~(np.abs(y - c) < CRITICAL_GUARD)
        live, y = live[stay], y[stay]
        y = family.eval_rows(noise[rows[live], i], y)
        out = ~((nb.lo < y) & (y < nb.hi))
        live, y = live[out], y[out]
        if not len(live):
            break
    escapes = np.zeros(len(x), dtype=bool)
    escapes[live] = True
    return escapes


# width at which the bisection for a fiber boundary stops
_BISECT_TOL = 1e-12
# grid points across the annulus: the nice-set fibers' and the tail's (companion hull and subsample)
_NICE_GRID = 2048
_FIBER_GRID = 512
# fibers whose first-hit grids are walked at once: it bounds the grid's
# temporaries (some 80 KB a fiber at _FIBER_GRID) while keeping the steps few
_GRID_FIBERS = 8
# bisected sides from which the boundaries are walked in lockstep rather
# than one by one: on a 2-core x86-64 the scalar walks win up to about 16
# sides and the lockstep walk from about 24, at grids 512 and 2048 alike
_LOCKSTEP_SIDES = 20


def _fibers(family: PerturbedFamily, delta: float, noise: np.ndarray, depth: int, grid_points: int):
    """Depth-limited nice-set fibers, one for each row of the 2-D ``noise``.

    Each side of c is scanned on a grid of ``grid_points`` points across the
    annulus between B(delta) and B(2*delta); the first-hit times of
    _GRID_FIBERS fibers at a time go through eval_vec with one noise value
    per point.  At depth d a side reaches the first grid point whose orbit
    avoids B(delta) for d steps; where none does, the grid's last point
    stands in and containment fails.  The side's boundary is then bisected
    between that point at the full depth and the grid point before it:
    below _LOCKSTEP_SIDES sides one at a time (_point_escapes), else all in
    lockstep (_escapes_rows), with the same bits.  Returns the arrays
    (intervals (n, depth + 1, 2), boundaries (n, 2), containment (n,)).
    """
    params = family.base
    nb = critical_neighborhood(params, delta)
    nb2 = critical_neighborhood(params, 2.0 * delta)
    n = len(noise)
    grids = np.stack([np.linspace(nb.lo, nb2.lo, grid_points), np.linspace(nb.hi, nb2.hi, grid_points)])
    # per fiber, depth d and side: the first grid index whose orbit avoids
    # B(delta) for d steps, grid_points when none
    reach = np.empty((n, depth + 1, 2), dtype=np.int64)
    for k in range(0, n, _GRID_FIBERS):
        f = min(_GRID_FIBERS, n - k)
        rows = np.repeat(np.arange(k, k + f), 2 * grid_points)
        first = _first_hit_times(family, nb, np.tile(grids.ravel(), f), noise, rows, depth)
        first = first.reshape(f, 2, grid_points)
        for d in range(depth + 1):
            escapes = first > d
            reach[k : k + f, d] = np.where(escapes.any(axis=2), escapes.argmax(axis=2), grid_points)
    containment = (reach < grid_points).all(axis=(1, 2))
    intervals = grids[np.arange(2), np.minimum(reach, grid_points - 1)]
    boundaries = intervals[:, depth].copy()

    fiber, side = np.nonzero(reach[:, depth] < grid_points)
    j = reach[fiber, depth, side]
    inner = np.where(j > 0, grids[side, j - 1], np.where(side == 1, nb.hi, nb.lo))
    outer = grids[side, j]
    if len(fiber) < _LOCKSTEP_SIDES:
        for s in range(len(fiber)):
            while abs(outer[s] - inner[s]) > _BISECT_TOL:
                mid = 0.5 * (inner[s] + outer[s])
                if _point_escapes(family, nb, mid, noise[fiber[s]], depth):
                    outer[s] = mid
                else:
                    inner[s] = mid
    else:
        while True:
            act = np.nonzero(np.abs(outer - inner) > _BISECT_TOL)[0]
            if not len(act):
                break
            mid = 0.5 * (inner[act] + outer[act])
            escapes = _escapes_rows(family, nb, mid, noise, fiber[act], depth)
            outer[act[escapes]] = mid[escapes]
            inner[act[~escapes]] = mid[~escapes]
    boundaries[fiber, side] = outer
    return intervals, boundaries, containment


def build_nice_set(
    family: PerturbedFamily,
    delta: float,
    omega,
    depth: int,
    verify_horizon: int,
) -> NiceSetApprox:
    """Depth-limited nice-set fiber with optional boundary-orbit verification.

    The fiber is built by _fibers on a grid of _NICE_GRID points across each
    side's annulus between B(delta) and B(2*delta).

    Verification to a horizon N demands, next to each side's boundary, a
    point whose orbit avoids the neighborhood for N + depth steps, and that
    is the whole check: the companion fiber at shift k lies in the union of
    the first ``depth`` backward images of B(delta), so an orbit that stays
    out of B(delta) from step k to step k + depth is in no companion fiber
    at step k, for every k up to N.  Such points exist arbitrarily close to
    the true boundary but their orbits cannot be followed in double
    precision (round-off is amplified past the neighborhood scale after a
    few dozen steps), so they are found by adaptive-precision survivor
    tracking, at ``bits`` tied to a typical orbit's Lyapunov growth over the
    N + depth steps, with the fixed-point scan for integer ell and the
    mpmath scan otherwise.  ``meta["violations"]`` lists the sides ("lo",
    "hi") whose tracking failed; it never raises.
    """
    noise = _noise_prefix(omega, depth + max(verify_horizon, 0))
    intervals, boundaries, containment = _fibers(family, delta, noise[None, :depth], depth, _NICE_GRID)
    result = NiceSetApprox(
        intervals=[tuple(pair) for pair in intervals[0]],
        boundary_lo=boundaries[0, 0],
        boundary_hi=boundaries[0, 1],
        containment_ok=bool(containment[0]),
    )
    if verify_horizon > 0:
        nb = critical_neighborhood(family.base, delta)
        nb2 = critical_neighborhood(family.base, 2.0 * delta)
        total = verify_horizon + depth
        bits = int(1.3 * _estimate_lyapunov_bits(family, noise, 0.3141) * total) + 64
        if float(family.base.ell).is_integer():
            scan, trace = _scan_int(family, nb, noise, total, bits)
        else:
            scan, trace = _scan_mp(family, nb, noise, total)
        refine = {
            side: _refine_boundary_mp(nb, nb2, side, b, total, bits, scan, trace)
            for side, b in (("lo", result.boundary_lo), ("hi", result.boundary_hi))
        }
        result.meta["violations"] = [side for side, meta in refine.items() if meta["achieved_avoidance"] < total]
        result.meta["boundary_refinement"] = refine
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
        y, df, _ = family.jet(float(noise[i]), y)
        total += math.log2(df)
        count += 1
    return max(total / max(count, 1), 0.1)


# Both boundary scans below return a pair (scan, trace) for the noise prefix.
# scan(x) -> (first_hit, Ys) steps the orbit of x and fails (first_hit at most
# total_steps) when the orbit enters B(delta), leaves the taper core or grazes
# c; only the core, where f_t = f + t, is ever stepped.  trace(Ys, prev=None)
# -> (trajectory, sums): the doubles nearest to x and to each step's value,
# and the running log Df taken at those doubles, as the core test is; log Df
# at first_hit is sums[-1].


def _trace_doubles(params, traj, prev):
    """(traj, sums) with sums[k] the log Df summed in step order over traj[:k].

    ``prev`` is None or an earlier (traj, sums) of the same noise: its sums
    are kept up to the first index where the two trajectories differ and the
    sum goes on from there in the same order, so it gives the bits of a sum
    from step 0.
    """
    k, sums = 0, [0.0]
    if prev is not None:
        old, old_sums = prev
        n = min(len(old), len(traj)) - 1
        while k < n and old[k] == traj[k]:
            k += 1
        sums = old_sums[: k + 1]
    logdf = sums[-1]
    for yf in traj[k:-1]:
        logdf += math.log(abs(params.deriv(yf)) + 1e-300)
        sums.append(logdf)
    return traj, sums


def _scan_mp(family, nb, noise, total_steps):
    """The boundary scan in mpmath at the caller's working precision; its Ys are the trajectory."""
    import mpmath as mp

    params = family.base
    c, u, v, ell = (mp.mpf(a) for a in (params.c, params.u, params.v, params.ell))
    one_c = mp.mpf(1.0 - params.c)  # the double 1 - c, as the float kernels use
    lo_b, hi_b = mp.mpf(nb.lo), mp.mpf(nb.hi)
    margin = family.margin

    def scan(x):
        y = x
        yf = float(y)
        traj = [yf]
        for i in range(total_steps):
            t = float(noise[i])
            if not margin <= yf <= 1.0 - margin or abs(yf - params.c) < 1e-12:
                return i + 1, traj  # left the core or grazed c: failure
            # written out in mpmath: PerturbedFamily.jet works in doubles
            if y < c:
                z = (c - y) / c
                y = u * (1 - z**ell) + t
            else:
                z = (y - c) / one_c
                y = 1 - v + v * z**ell + t
            yf = float(y)
            traj.append(yf)
            if lo_b < y < hi_b:
                return i + 1, traj
        return total_steps + 1, traj

    return scan, lambda traj, prev=None: _trace_doubles(params, traj, prev)


# fractional bits the fixed-point scan keeps beyond the mpmath precision
_GUARD_BITS = 16


def _scan_int(family, nb, noise, total_steps, bits):
    """The boundary scan in fixed point, for an integer critical order.

    A value y is the Python int Y = y * 2^S with S = bits + _GUARD_BITS, so
    every step is exact up to a few units of 2^-S, finer than mpmath's
    rounding at ``bits``.  The parameters, the bounds of B(delta) and the
    noise values are doubles and convert exactly; division by c and by
    1 - c goes through 2^(2S)-scaled reciprocals, and z^ell is an int power
    shifted back by S(ell - 1).  A multiplier's trailing zero bits join the
    shift after it, so u and v (at most 53 significant bits, as doubles) and
    the reciprocals at c = 1/2 multiply as short ints.  Y / 2^S is int true
    division, which rounds to the nearest double as float(mpf) does; the
    scan itself takes no double: its core and c-graze tests on Y / 2^S are
    int windows on Y.
    """
    import mpmath as mp

    params = family.base
    S = bits + _GUARD_BITS
    one = 1 << S

    def fixed(a):
        n, d = float(a).as_integer_ratio()
        return (n << S) // d

    def first(test, lo, hi):
        """The least Y in (lo, hi] whose Y / 2^S passes ``test``, which fails at lo and is monotone."""
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if test(mid / one) else (mid, hi)
        return hi

    def fold(K):
        """(m, s) with K * W >> S == m * W >> s for every int W: K's trailing zero bits join the shift."""
        k = min((K & -K).bit_length() - 1, S)
        return K >> k, S - k

    C, U, V = fixed(params.c), fixed(params.u), fixed(params.v)
    (Cm, Cs), (Om, Os) = fold((1 << 2 * S) // C), fold((1 << 2 * S) // fixed(1.0 - params.c))
    (Um, Us), (Vm, Vs) = fold(U), fold(V)
    right_floor = one - V
    ell = int(params.ell)
    drop = S * (ell - 1)
    lo_b, hi_b = fixed(nb.lo), fixed(nb.hi)
    ts = [fixed(t) for t in noise[:total_steps].tolist()]
    margin, c, near = family.margin, params.c, one >> 20
    # each window edge is bisected on the double test itself, so it is exact
    core_lo = first(lambda yf: margin <= yf, 0, one)
    core_hi = first(lambda yf: not yf <= 1.0 - margin, 0, one) - 1
    graze_lo = first(lambda yf: abs(yf - c) < 1e-12, C - near, C)
    graze_hi = first(lambda yf: not abs(yf - c) < 1e-12, C, C + near) - 1

    def scan(x):
        Y = int(mp.ldexp(x, S))  # exact for x at or above 2^-_GUARD_BITS
        Ys = [Y]
        for T in ts:
            if not core_lo <= Y <= core_hi or graze_lo <= Y <= graze_hi:
                return len(Ys), Ys
            if Y < C:
                Z = (C - Y) * Cm >> Cs
                Y = (Um * (one - (Z**ell >> drop)) >> Us) + T
            else:
                Z = (Y - C) * Om >> Os
                Y = right_floor + (Vm * (Z**ell >> drop) >> Vs) + T
            Ys.append(Y)
            if lo_b < Y < hi_b:
                return len(Ys) - 1, Ys
        return total_steps + 1, Ys

    return scan, lambda Ys, prev=None: _trace_doubles(params, [Y / one for Y in Ys], prev)


# candidate orbits the survivor tracking scans before it gives up
_MAX_ORBITS = 4000
# how far past the nearer edge of B(delta), in |B|, a directed move aims
_PUSH = 0.5


def _directed_move(nb, x, traced):
    """The candidate that moves the orbit's entry into B(delta) just outside it, or None.

    ``traced`` is the (trajectory, sums) of x's scan.  f^m increases, so when
    the trajectory's last double x_m lies in B(delta), x + (target - x_m) /
    Df^m moves x_m to ``target``, the nearer edge of B(delta) pushed outward
    by _PUSH * |B|, to first order.
    """
    import mpmath as mp

    xm, logdf = traced[0][-1], traced[1][-1]
    if not nb.lo < xm < nb.hi:
        return None
    push = _PUSH * nb.length
    target = nb.lo - push if xm - nb.lo < nb.hi - xm else nb.hi + push
    return x + mp.mpf(target - xm) / mp.e**mp.mpf(logdf)


def _refine_boundary_mp(nb, nb2, side, start, total_steps, bits, scan, trace):
    """High-precision survivor tracking for a point near the boundary whose
    orbit avoids the neighborhood for ``total_steps`` steps.

    Doubles cannot hold such points (the avoiding set at this depth is
    thinner than the double-precision grid), so candidates are mpmath
    numbers at ``bits``, which the caller ties to the Lyapunov growth over
    the horizon, and each candidate's orbit is scanned by the fiber's (scan,
    trace) pair, in fixed point when ell is an integer and in mpmath
    otherwise.  Only the start and each candidate that improves the first
    hit are traced, each improver from the previous one's trace, for the log
    Df that sets the next moves.  A round scans candidates around the best
    point until one improves the first hit m: first, for a new best point
    whose orbit's first hit is an entry into B(delta), one directed move
    (_directed_move), then up to 12 random moves at scales around |B|/Df^m.
    Returns the meta; tracking failed when ``meta["achieved_avoidance"]``
    falls short of ``total_steps``, which includes running out of
    _MAX_ORBITS scans; ``meta["orbits_used"]`` counts every scan, directed
    ones included, and ``meta["scan_steps"]`` their map steps.
    """
    import mpmath as mp

    with mp.workprec(bits):
        outward = 1.0 if side == "hi" else -1.0  # away from c
        x = mp.mpf(start) + outward * mp.mpf(1e-13)
        best_hit, Ys = scan(x)
        best = trace(Ys)
        scan_steps = len(Ys) - 1
        orbits_used = 1
        rng = np.random.default_rng(((1 if side == "hi" else 2) << 32) + total_steps)

        def moves(x, directed, logdf, stall):
            if directed is not None:
                yield directed
            # resample at scales around |B|/Df^m, which re-randomises the
            # orbit at the current first-hit step m; candidates that drift
            # into the fiber fail the scan and are rejected, so any accepted
            # point remains on the avoiding side of the true boundary
            base = mp.mpf(2.0 * nb.length) / mp.e**mp.mpf(min(logdf, 700.0))
            base = min(base, mp.mpf(nb2.length) * mp.mpf(0.02))
            scale = base * mp.mpf(2.0 ** ((stall % 5) - 1))
            for _ in range(12):
                step = scale * mp.mpf(float(rng.uniform(0.2, 1.0)))
                yield x + step if rng.integers(2) else x - step

        stall = 0
        improved = True  # x is a new best point, due its directed move
        while best_hit <= total_steps and orbits_used < _MAX_ORBITS:
            directed = _directed_move(nb, x, best) if improved else None
            improved = False
            for cand in moves(x, directed, best[1][-1], stall):
                orbits_used += 1
                hit, Ys = scan(cand)
                scan_steps += len(Ys) - 1
                if hit > best_hit:
                    x, best_hit, best = cand, hit, trace(Ys, best)
                    improved = True
                    break
            stall = 0 if improved else stall + 1
            if stall > 30:
                break
        return {
            "bits": bits,
            "orbits_used": orbits_used,
            "achieved_avoidance": int(best_hit - 1),
            "offset_from_start": float(x - mp.mpf(start)),
            "scan_steps": scan_steps,
        }


def markov_theta_cap(ell: float, theta0: float) -> float:
    """Distortion cap under which a good return yields a Markov inducing time, for critical order ell."""
    kappa = 2.0 ** (1.0 / ell)
    return min(theta0 / (4.0 * kappa), 1.0 / (kappa**2 * math.e**3))


@dataclass
class MarkovVerification:
    """Witnesses of a directly verified Markov inducing time."""

    target: tuple[float, float]
    nonlinearity: float
    min_df: float
    floor: float


# grid points of each Markov verification's nonlinearity and floor checks, scalar or batched
_TAIL_GRID = 64

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
) -> MarkovVerification:
    """Directly verify the inducing definition at time m against a target fiber.

    Pulls the target back along the orbit of x, then checks on a grid of
    _TAIL_GRID points that the m-step composition is a diffeomorphism of the
    component onto the target with nonlinearity at most 1 and derivative at
    least e^2 |target| / base_length.  Raises VerificationFailed otherwise, with
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
    g = np.linspace(lo, hi, _TAIL_GRID)
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
    return MarkovVerification(target=target, nonlinearity=nonlinearity, min_df=min_df, floor=floor)


# rows whose grids step through the chain rule together: 256 rows of _TAIL_GRID
# points keep each array at 128 KB, within the cache (on a 2-core x86-64,
# jet_vec on the tail's grids costs about 14 ns a point so, 27 ns at 10 000 rows)
_CHAIN_ROWS = 256


def verify_markov_batch(
    family: PerturbedFamily,
    omega: np.ndarray,
    x: np.ndarray,
    m: np.ndarray,
    target: tuple[float, float],
    base_length: float,
) -> np.ndarray:
    """verify_markov_time for many candidates, one time per row, in one pass.

    Row i verifies the start ``x[i]`` at time ``m[i]`` under the first m[i]
    values of the noise row ``omega[i]`` against the common target.  The
    stages, their order and their arithmetic are those of the scalar
    verifier, which stays the oracle.  The rows are taken in order of
    decreasing m, so the rows still stepping at any step of the replay and
    the chain rule form a prefix.  The pullback is recurrence's one array
    pullback step, which backward_contraction_check shares; a chain that
    meets c (order > 0) fails as clips_critical.  Returns one code per row: -1 when the time is verified, else the index
    in VERIFY_REASONS of the first check that fails.
    """
    c = family.base.c
    m = np.asarray(m, dtype=np.int64)
    n = len(m)
    code = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return code
    order = np.argsort(-m, kind="stable")
    x = np.asarray(x, dtype=float)[order]
    # live[j]: the rows with m > j, a prefix in this order
    live = np.searchsorted(-m[order], -np.arange(m[order[0]]))

    guard_code = VERIFY_REASONS.index("critical_guard")
    left = np.empty((n, len(live)), dtype=bool)  # row i's side of c at each step, rows in the given order
    y = x.copy()
    for j, k in enumerate(live):
        t = omega[order[:k], j]
        family._check_noise(float(np.max(np.abs(t))))  # the scalar replay's eval raises on it
        yk = y[:k]
        code[:k][(np.abs(yk - c) < CRITICAL_GUARD) & (code[:k] < 0)] = guard_code
        left[order[:k], j] = yk < c
        y[:k] = family.eval_rows(t, yk)
    outside = ~((target[0] < y) & (y < target[1])) & (code < 0)
    code[outside] = VERIFY_REASONS.index("endpoint_outside")

    lo, hi, met_c = _pullback_rows(family, target, omega, left, order, np.where(code < 0, m[order], 0))
    code[np.isnan(lo)] = VERIFY_REASONS.index("pullback_empty")
    code[(met_c > 0) & (code < 0)] = VERIFY_REASONS.index("clips_critical")
    misses = ~((lo < x) & (x < hi)) & (code < 0)
    code[misses] = VERIFY_REASONS.index("misses_start")

    rest = np.nonzero(code < 0)[0]
    floor = math.e**2 * (target[1] - target[0]) / base_length
    for r in np.array_split(rest, -(-len(rest) // _CHAIN_ROWS)) if len(rest) else ():
        # orbits.chain_derivatives, row i of the grid stepping while j < m
        g = np.linspace(lo[r], hi[r], _TAIL_GRID, axis=1)
        g[:, 0] += 1e-15
        g[:, -1] -= 1e-15
        d1 = np.ones_like(g)
        d2 = np.zeros_like(g)
        for j, k in enumerate(np.searchsorted(r, live)):
            if not k:
                break
            g[:k], s1, s2 = family.jet_vec(omega[order[r[:k]], j], g[:k])
            # d2 = s2 * d1 * d1 + s1 * d2 and d1 = s1 * d1, in place
            s2 *= d1[:k]
            s2 *= d1[:k]
            d2[:k] *= s1
            d2[:k] += s2
            d1[:k] *= s1
        with np.errstate(divide="ignore", invalid="ignore"):
            nonlinearity = np.max(np.abs(d2) / d1, axis=1) * (hi[r] - lo[r])
        checks = (
            ("not_orientation_preserving", np.any(d1 <= 0.0, axis=1) | ~np.all(np.isfinite(d1), axis=1)),
            ("nonlinearity", nonlinearity > 1.0),
            ("below_floor", np.min(d1, axis=1) < floor),
        )
        for reason, failed in reversed(checks):
            code[r[failed]] = VERIFY_REASONS.index(reason)
    out = np.empty_like(code)
    out[order] = code
    return out


@dataclass
class TailStats:
    """Empirical tail of verified inducing times over an ensemble.

    ``times`` holds the verified inducing time per member (-1 when censored
    at the horizon or lost to the critical guard).  The survival function
    P(m_V > m) is estimated with censored members counted as > horizon.
    """

    times: np.ndarray
    horizon: int
    critical_hits: int
    theta_good_times: np.ndarray
    hull: tuple[float, float]
    verified_subsample: dict
    meta: dict = field(default_factory=dict)

    @property
    def n_members(self) -> int:
        return len(self.times)

    @property
    def censored(self) -> int:
        return int(np.count_nonzero(self.times < 0))

    @property
    def censoring_fraction(self) -> float:
        return self.censored / self.n_members

    def survival(self) -> tuple[np.ndarray, np.ndarray]:
        """(m, P(m_V > m)) on the sorted uncensored support."""
        finite = self.times[self.times > 0]
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
    noise = np.stack([model.stream(STREAM_HULL + j).prefix(depth) for j in range(_HULL_SAMPLES)])
    los, his = _fibers(family, delta, noise, depth, _FIBER_GRID)[1].T
    lo_spread = float(los.max() - los.min())
    hi_spread = float(his.max() - his.min())
    return float(los.min()) - _HULL_MARGIN * lo_spread, float(his.max()) + _HULL_MARGIN * hi_spread


# steps of noise the tail draws at a time for its alive members
_TAIL_BLOCK = 64

# verification attempts per tail member
_MAX_VERIFICATIONS = 16
# accepted members re-verified against their exactly-built companion fibers
_VERIFY_SUBSAMPLE = 64


def _first_accepted(family, hist, x0, rows, steps, target, base_length):
    """Each row's first candidate step that verify_markov_batch accepts (0 where none does), and the failures.

    Candidate k is row ``rows[k]`` of the block at time ``steps[k]``, in step
    order.  The first pass verifies each row's first candidate, the second
    the other candidates of the rows the first pass did not accept.  The
    failures, counted by reason, are those of a row's attempts before its
    accepted step, or of all of them when none is accepted.
    """
    codes = np.full(len(rows), -2, dtype=np.int64)  # -2: not verified
    # A verified row's chain rule holds some ten arrays of _TAIL_GRID doubles
    # (for up to _CHAIN_ROWS rows at once), so a pass verifies at most
    # hist.size / (10 _TAIL_GRID) rows at a time: its arrays stay about the
    # history's size and follow the alive rows.  Rows go in time order, so each
    # call's rows have nearby times and few steps.
    size = max(1, hist.size // (10 * _TAIL_GRID))

    def verify(k):
        k = k[np.argsort(steps[k], kind="stable")]
        for part in np.array_split(k, -(-len(k) // size)) if len(k) else ():
            r = rows[part]
            codes[part] = verify_markov_batch(
                family, hist[r, : steps[part].max()], x0[r], steps[part], target, base_length,
            )

    first = np.unique(rows, return_index=True)[1]
    verify(first)
    second = np.ones(len(rows), dtype=bool)
    second[first] = False
    second[np.isin(rows, rows[first[codes[first] == -1]])] = False
    verify(np.nonzero(second)[0])

    acc = np.zeros(len(hist), dtype=np.int64)
    ok = codes == -1
    ok_rows, k = np.unique(rows[ok], return_index=True)  # a row's first acceptance in step order
    acc[ok_rows] = steps[ok][k]
    failed = (codes >= 0) & ((acc[rows] == 0) | (steps < acc[rows]))
    return acc, np.bincount(codes[failed], minlength=len(VERIFY_REASONS))


def inducing_tail_stats(
    family: PerturbedFamily,
    model: NoiseModel,
    delta: float,
    n_members: int,
    horizon: int,
    theta: float,
    depth: int,
) -> TailStats:
    """Verified inducing-time tail over an ensemble started in B(delta).

    Members are (x_i, omega_i) with x_i uniform on B(delta) (a subset of
    every nice-set fiber) and omega_i stream ``STREAM_TAIL + i``.  Noise is
    drawn in blocks of _TAIL_BLOCK steps for the members still alive, and
    only their draws so far are held, so memory follows the alive members;
    the exact-companion subsample re-reads its members' streams.  The
    candidate times are landings in B(delta), verified (verify_markov_batch)
    directly against the inducing definition with the empirical companion
    hull as the onto-target, so accepted times upper-bound the minimal
    inducing time.  A block's candidates are verified at its end, and each
    member's result is the one a verification at every step would give: its
    first accepted candidate, the failed attempts before it, and a critical
    hit or theta-good return only up to the step it leaves at.  theta-good
    return times at the capped theta are tracked alongside for comparison.
    A member gets at most _MAX_VERIFICATIONS verification attempts.  A
    random subsample of _VERIFY_SUBSAMPLE accepted members is re-verified
    with the scalar verify_markov_time against each one's exactly-built
    companion fiber and reported.
    ``meta["verify"]`` counts the ensemble's verification attempts,
    acceptances and failures by reason.
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
        # every row is stepped through the whole block; per row the step of its
        # critical hit and of its first theta-good return (0 while none) and its
        # candidate steps are recorded, and the candidates verified at block end
        hit = np.zeros(len(alive), dtype=np.int64)
        good_at = np.zeros(len(alive), dtype=np.int64)
        cand_rows, cand_steps = [], []
        for b in range(block):
            s_cur = s + b + 1
            d = np.abs(x - c)
            hit[(d < guard) & (hit == 0)] = s_cur
            x, df, _ = family.jet_vec(hist[:, s + b], x)  # one noise value per member
            log_a = np.logaddexp(log_a, log_df - np.log(np.maximum(d, guard)))
            log_df += np.log(np.maximum(df, 1e-300))
            inside = (x > nb.lo) & (x < nb.hi)
            # a theta-good return counts up to the step its member leaves at, that step included
            good = inside & (log_theta + log_df >= log_a + log_len) & (good_at == 0)
            good_at[good & ((hit == 0) | (hit == s_cur))] = s_cur
            cand = np.nonzero(inside & (hit == 0) & (log_df >= log_floor))[0]
            cand = cand[attempts[cand] < _MAX_VERIFICATIONS]
            attempts[cand] += 1  # a row accepted at an earlier step leaves, so its count is not read
            cand_rows.append(cand)
            cand_steps.append(np.full(len(cand), s_cur))
        acc, failed = _first_accepted(
            family, hist, x0[alive], np.concatenate(cand_rows), np.concatenate(cand_steps), hull, nb.length,
        )
        failures += failed
        times[alive[acc > 0]] = acc[acc > 0]
        critical_hits += int(np.count_nonzero((hit > 0) & (acc == 0)))
        ends = np.where(acc > 0, acc, hit)  # the step each row leaves at, 0 for rows that stay
        good = (good_at > 0) & ((ends == 0) | (good_at <= ends)) & (h_times[alive] < 0)
        h_times[alive[good]] = good_at[good]
        keep = ends == 0
        if not keep.all():
            alive, x, log_df, log_a, attempts, hist = (
                a[keep] for a in (alive, x, log_df, log_a, attempts, hist)
            )
        s += block

    # exact-companion re-verification on a subsample of accepted members
    accepted = np.nonzero(times > 0)[0]
    sub = []
    if len(accepted):
        sub = model.generator(4242).choice(accepted, size=min(_VERIFY_SUBSAMPLE, len(accepted)), replace=False)
    # each member's stream is read once, to its time plus the depth: the fiber at its time
    # (the fibers are built together) and the scalar check's prefix are slices of it
    steps = [int(times[i]) for i in sub]
    omegas = [model.stream(STREAM_TAIL + int(i)).prefix(m + depth) for i, m in zip(sub, steps)]
    fibers = np.array([om[m:] for om, m in zip(omegas, steps)]).reshape(len(sub), depth)
    los, his = _fibers(family, delta, fibers, depth, _FIBER_GRID)[1].T
    agree = inside_hull = 0
    for i, om, m, lo, hi in zip(sub, omegas, steps, los, his):
        if lo >= hull[0] and hi <= hull[1]:
            inside_hull += 1
            try:
                verify_markov_time(family, om[:m], float(x0[int(i)]), m, (lo, hi), nb.length)
                agree += 1
            except VerificationFailed:
                pass
    return TailStats(
        times=times,
        horizon=horizon,
        critical_hits=critical_hits,
        theta_good_times=h_times,
        hull=hull,
        verified_subsample={"checked": len(sub), "agree": agree},
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
