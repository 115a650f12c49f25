"""Contracting Lorenz map family and its admissible additive perturbations.

The base map has two increasing branches meeting a discontinuity at ``c``
where both one-sided derivatives vanish with a common critical order
``ell > 1``:

    f(x) = u * (1 - ((c - x)/c)**ell)            for x < c,
    f(x) = 1 - v + v * ((x - c)/(1 - c))**ell    for x > c.

Both branches are affine reparametrisations of a pure power law, so maps,
derivatives, inverses and the Schwarzian derivative are all closed form.
Perturbed maps are f_t = f + t * w with a taper profile w that equals 1 on
the core [m, 1-m] and vanishes at the endpoints, which keeps 0, 1 and the
critical point fixed for every noise value t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import CriticalHit, CriticalPointEval, NoiseOutOfRange, OutOfBranchRange

__all__ = [
    "MapParams",
    "PerturbedFamily",
    "CANON",
    "schwarzian",
]

#: guard radius around c inside which evaluation counts as a critical hit
CRITICAL_GUARD = 1e-14

#: safety factor applied to the admissible noise amplitude
EPS_MARGIN = 0.9


@dataclass(frozen=True)
class MapParams:
    """Parameters of the canonical contracting Lorenz map.

    ``c`` is the critical point, ``ell`` the critical order, ``u`` the left
    critical value and ``1 - v`` the right critical value.  Non-trivial maps
    satisfy ``1 - v < c < u``; trivial maps (every orbit converges to a
    fixed point) are rejected unless ``allow_trivial`` is passed, which is
    only useful for constructing counterexamples in diagnostics.
    """

    c: float
    ell: float
    u: float
    v: float
    allow_trivial: bool = field(default=False, compare=False)

    def __post_init__(self):
        problems = []
        if not 0.0 < self.c < 1.0:
            problems.append(f"c={self.c} outside (0, 1)")
        if not self.ell > 1.0:
            problems.append(f"ell={self.ell} must exceed 1")
        if not 0.0 < self.u < 1.0:
            problems.append(f"u={self.u} outside (0, 1)")
        if not 0.0 < self.v < 1.0:
            problems.append(f"v={self.v} outside (0, 1)")
        if problems:
            raise ValueError("; ".join(problems))
        if not self.allow_trivial and not (1.0 - self.v < self.c < self.u):
            raise ValueError(
                f"trivial map: need 1-v < c < u, got 1-v={1.0 - self.v}, c={self.c}, u={self.u}"
            )

    # -- closed-form branch data -------------------------------------------------

    @property
    def c1_minus(self) -> float:
        """Left critical value, the supremum of f on [0, c)."""
        return self.u

    @property
    def c1_plus(self) -> float:
        """Right critical value, the infimum of f on (c, 1]."""
        return 1.0 - self.v

    def eval(self, x: float) -> float:
        """Base map value at x (x != c)."""
        if abs(x - self.c) < CRITICAL_GUARD:
            raise CriticalPointEval(f"x={x!r} is within the critical guard of c={self.c}")
        if x < self.c:
            z = (self.c - x) / self.c
            return self.u * (1.0 - z**self.ell)
        z = (x - self.c) / (1.0 - self.c)
        return 1.0 - self.v + self.v * z**self.ell

    def deriv(self, x: float) -> float:
        if abs(x - self.c) < CRITICAL_GUARD:
            raise CriticalPointEval(f"x={x!r} is within the critical guard of c={self.c}")
        if x < self.c:
            z = (self.c - x) / self.c
            return self.u * self.ell / self.c * z ** (self.ell - 1.0)
        z = (x - self.c) / (1.0 - self.c)
        return self.v * self.ell / (1.0 - self.c) * z ** (self.ell - 1.0)

    def deriv2(self, x: float) -> float:
        if abs(x - self.c) < CRITICAL_GUARD:
            raise CriticalPointEval(f"x={x!r} is within the critical guard of c={self.c}")
        k = self.ell * (self.ell - 1.0)
        if x < self.c:
            z = (self.c - x) / self.c
            return -self.u * k / self.c**2 * z ** (self.ell - 2.0)
        z = (x - self.c) / (1.0 - self.c)
        return self.v * k / (1.0 - self.c) ** 2 * z ** (self.ell - 2.0)

    def inverse(self, y: float, left: bool) -> float | None:
        """Preimage of y on the left (``left``) or right branch of the base map, or None."""
        if not 0.0 <= y <= 1.0:
            raise OutOfBranchRange(f"y={y!r} outside [0, 1]")
        if left:
            if y > self.u:
                return None
            z = ((self.u - y) / self.u) ** (1.0 / self.ell)
            return self.c * (1.0 - z)
        if y < 1.0 - self.v:
            return None
        z = ((y - 1.0 + self.v) / self.v) ** (1.0 / self.ell)
        return self.c + (1.0 - self.c) * z

    def walk(self, x: float):
        """Yield (j, x_j, Df^j(x), A_j) for j = 0, 1, ... along the orbit of x.

        A_j = sum over i < j of Df^i(x) / |x_i - c| is the distortion sum.
        Stepping past x_j raises CriticalHit(j, x_j) when x_j lies within
        CRITICAL_GUARD of c, so a caller that stops after yield j never
        guard-checks x_j.
        """
        c = self.c
        dfn = 1.0
        asum = 0.0
        for j in itertools.count():
            yield j, x, dfn, asum
            if abs(x - c) < CRITICAL_GUARD:
                raise CriticalHit(j, x)
            asum += dfn / abs(x - c)
            dfn *= self.deriv(x)
            x = self.eval(x)


#: canonical parameter set used throughout the test-suite and default configs
CANON = MapParams(c=0.5, ell=2.0, u=0.9, v=0.9)


def schwarzian(params: MapParams, x: float) -> float:
    """Schwarzian derivative of the base map at x.

    For the affine power-law branches this collapses to
    -(ell**2 - 1) / (2 * d(x, c)**2), which is negative for every ell > 1.
    """
    if abs(x - params.c) < CRITICAL_GUARD:
        raise CriticalPointEval(f"x={x!r} is within the critical guard of c={params.c}")
    d = abs(x - params.c)
    return -(params.ell**2 - 1.0) / (2.0 * d * d)


def _libm_pow(a: np.ndarray, e: float) -> np.ndarray:
    """Elementwise a**e with libm pow, as the scalar kernels' float ``**`` computes it (a >= 0).

    numpy's array power differs from libm in the last bit for some inputs.
    """
    return np.fromiter(map(math.pow, a.tolist(), itertools.repeat(e)), float, len(a))


def _smoothstep(r):
    return r * r * (3.0 - 2.0 * r)


def _smoothstep_d(r):
    return 6.0 * r * (1.0 - r)


def _smoothstep_d2(r):
    return 6.0 - 12.0 * r


@dataclass(frozen=True)
class PerturbedFamily:
    """Admissible one-parameter family f_t = f + t*w around a base map.

    The taper profile w is a C^1 cubic ramp: w = 0 at 0 and 1, w = 1 on the
    core [margin, 1 - margin], |w'| <= 1.5/margin, and w' = 0 in a
    neighborhood of c.  The admissible amplitude ``eps_max`` is computed at
    construction as the largest ``eps`` (times a 0.9 safety margin) keeping
    every f_t with |t| <= eps a non-trivial Lorenz map of [0, 1]:
    increasing branches, range inside [0, 1], critical values on the correct
    sides of c.
    """

    base: MapParams
    margin: float = 0.05
    eps_max: float = field(init=False, compare=False)

    def __post_init__(self):
        m = self.margin
        if not 0.0 < m < min(self.base.c, 1.0 - self.base.c):
            raise ValueError(f"margin={m} outside (0, min(c, 1-c))")
        object.__setattr__(self, "eps_max", self._compute_eps_max())

    def _compute_eps_max(self) -> float:
        p = self.base
        bounds = [1.0 - p.u, 1.0 - p.v, p.u - p.c, p.c - (1.0 - p.v)]
        grids = [
            np.linspace(1e-9, self.margin, 4096),
            np.linspace(1.0 - self.margin, 1.0 - 1e-9, 4096),
        ]
        for grid in grids:
            f, df, _ = self.jet_vec(0.0, grid)
            w, wd, _ = self._taper_jet(grid)
            wd = np.abs(wd)
            mask = wd > 0.0
            if mask.any():
                bounds.append(float(np.min(df[mask] / wd[mask])))
            wmask = w > 0.0
            bounds.append(float(np.min(f[wmask] / w[wmask])))
            bounds.append(float(np.min((1.0 - f[wmask]) / w[wmask])))
        return EPS_MARGIN * min(bounds)

    # -- taper profile ---------------------------------------------------------

    def taper(self, x: float) -> float:
        m = self.margin
        if x <= 0.0 or x >= 1.0:
            return 0.0
        if x < m:
            return _smoothstep(x / m)
        if x > 1.0 - m:
            return _smoothstep((1.0 - x) / m)
        return 1.0

    def taper_d(self, x: float) -> float:
        m = self.margin
        if 0.0 <= x < m:
            return _smoothstep_d(x / m) / m
        if 1.0 - m < x <= 1.0:
            return -_smoothstep_d((1.0 - x) / m) / m
        return 0.0

    def taper_d2(self, x: float) -> float:
        """w'' with the one-sided value 6/m**2 at the fixed endpoints 0 and 1."""
        m = self.margin
        if 0.0 <= x < m:
            return _smoothstep_d2(x / m) / m**2
        if 1.0 - m < x <= 1.0:
            return _smoothstep_d2((1.0 - x) / m) / m**2
        return 0.0

    def _taper_jet(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, w', w'') on an array.

        The clips bind only outside [0, 1], so on it each element gets the
        bits of taper, taper_d and taper_d2.
        """
        m = self.margin
        w = np.ones_like(x)
        w1 = np.zeros_like(x)
        w2 = np.zeros_like(x)
        lo = x < m
        r = np.clip(x[lo], 0.0, m) / m
        w[lo] = _smoothstep(r)
        w1[lo] = _smoothstep_d(r) / m
        w2[lo] = _smoothstep_d2(r) / m**2
        hi = x > 1.0 - m
        r = np.clip(1.0 - x[hi], 0.0, m) / m
        w[hi] = _smoothstep(r)
        w1[hi] = -_smoothstep_d(r) / m
        w2[hi] = _smoothstep_d2(r) / m**2
        return w, w1, w2

    # -- perturbed map ----------------------------------------------------------

    def _check_noise(self, t: float):
        if abs(t) > self.eps_max + 1e-15:
            raise NoiseOutOfRange(f"|t|={abs(t)!r} exceeds eps_max={self.eps_max!r}")

    def eval(self, t: float, x: float) -> float:
        """f_t(x) = f(x) + t*w(x); exact at the fixed endpoints 0 and 1."""
        self._check_noise(t)
        base = self.base.eval(x)
        if t == 0.0:
            return base
        return base + t * self.taper(x)

    def jet(self, t: float, x: float) -> tuple[float, float, float]:
        """(f_t(x), Df_t(x), D2f_t(x)): the base map's eval, deriv and deriv2 plus the taper terms."""
        self._check_noise(t)
        p = self.base
        fx, d1, d2 = p.eval(x), p.deriv(x), p.deriv2(x)
        if t == 0.0:
            return fx, d1, d2
        m = self.margin
        if m <= x <= 1.0 - m:  # taper core: w = 1 and w' = w'' = 0
            return fx + t, d1, d2
        return fx + t * self.taper(x), d1 + t * self.taper_d(x), d2 + t * self.taper_d2(x)

    def branch_domain(self, left: bool) -> tuple[float, float]:
        """The left (``left``) or right branch's domain."""
        return (0.0, self.base.c) if left else (self.base.c, 1.0)

    def branch_range(self, t: float, left: bool) -> tuple[float, float]:
        """Closure of f_t(branch domain)."""
        return (0.0, self.base.c1_minus + t) if left else (self.base.c1_plus + t, 1.0)

    def inverse_branch(self, t: float, y: float, left: bool, tol: float) -> float | None:
        """Unique preimage of y on the left (``left``) or right branch of f_t, or None.

        Closed form shifted by t wherever the candidate lands on the taper
        core; bracketed root finding inside the taper zones.  Raises
        OutOfBranchRange only for y outside [0, 1]; a y outside the branch
        image simply has no preimage and yields None.
        """
        self._check_noise(t)
        if not 0.0 <= y <= 1.0:
            raise OutOfBranchRange(f"y={y!r} outside [0, 1]")
        lo, hi = self.branch_range(t, left)
        if y < lo - 1e-15 or y > hi + 1e-15:
            return None
        y = min(max(y, lo), hi)
        if t == 0.0:
            return self.base.inverse(y, left)
        # On [margin, 1 - margin] the taper is identically 1, so the preimage
        # is the base inverse of y - t whenever that candidate lands there.
        m = self.margin
        candidate = self.base.inverse(min(max(y - t, 0.0), 1.0), left)
        if candidate is not None and m <= candidate <= 1.0 - m:
            # within the critical guard, y is this side's critical value of f_t and c its preimage
            if abs(candidate - self.base.c) < CRITICAL_GUARD or abs(self.eval(t, candidate) - y) < tol:
                return candidate
        # Otherwise the preimage sits in the taper zone of this branch, which
        # is bounded away from the critical point.
        a, b = (0.0, m) if left else (1.0 - m, 1.0)
        fa = self.eval(t, a) - y
        fb = self.eval(t, b) - y
        if fa > 0.0 or fb < 0.0:
            # rounding at the core boundary; the closed-form candidate is the root
            return candidate
        root = brentq(lambda s: self.eval(t, s) - y, a, b, xtol=tol, rtol=8.0 * np.finfo(float).eps)
        return float(root)

    # -- per-element kernels with the scalar bits (powers through _libm_pow) -------

    def eval_rows(self, t, x: np.ndarray) -> np.ndarray:
        """eval per element (x off the critical guard); t is a scalar or one value per element."""
        p = self.base
        left = x < p.c
        zp = _libm_pow(np.where(left, (p.c - x) / p.c, (x - p.c) / (1.0 - p.c)), p.ell)
        fx = np.where(left, p.u * (1.0 - zp), 1.0 - p.v + p.v * zp)
        if isinstance(t, float) and t == 0.0:  # a scalar zero: skip the taper
            return fx
        # off the taper zones w = 1, and fx + t * 1.0 is fx + t
        zone = (x < self.margin) | (x > 1.0 - self.margin)
        return np.where(t == 0.0, fx, fx + t * (self._taper_jet(x)[0] if zone.any() else 1.0))

    def inverse_rows(self, t, y: np.ndarray, left, tol: float) -> np.ndarray:
        """inverse_branch(t, y, left, tol) per element, with NaN where it returns None.

        ``t`` and ``left`` (True for the left branch) are scalars or one value per
        element.  The closed form answers where inverse_branch's does; every other
        element (taper zones, the range ends and beyond) goes through the scalar
        inverse_branch and its brentq.
        """
        p = self.base
        m = self.margin
        y = np.asarray(y, dtype=float)
        zero = t == 0.0
        lo = np.where(left, 0.0, p.c1_plus + t)
        hi = np.where(left, p.c1_minus + t, 1.0)
        yy = np.where(zero, y, np.minimum(np.maximum(y - t, 0.0), 1.0))
        # strictly inside the branch range, y - t rounds into the base branch image, so
        # arg >= 0; the clamp only keeps pow real for the elements left to the scalar
        arg = np.where(left, (p.u - yy) / p.u, (yy - 1.0 + p.v) / p.v)
        z = _libm_pow(np.maximum(arg, 0.0), 1.0 / p.ell)
        x = np.where(left, p.c * (1.0 - z), p.c + (1.0 - p.c) * z)
        # on the taper core f_t = f + t, so the back-check is the base map plus t
        core = (m <= x) & (x <= 1.0 - m)
        back = (np.abs(x - p.c) < CRITICAL_GUARD) | (np.abs(self.eval_rows(0.0, x) + t - y) < tol)
        done = (lo < y) & (y < hi) & (zero | (core & back))
        todo = np.nonzero(~done)[0]
        if len(todo):
            t, left = np.broadcast_to(t, y.shape), np.broadcast_to(left, y.shape)
        for k in todo:
            root = self.inverse_branch(float(t[k]), float(y[k]), bool(left[k]), tol)
            x[k] = np.nan if root is None else root
        return x

    def eval_vec(self, t, x: np.ndarray) -> np.ndarray:
        """f_t on an array, as jet_vec computes it."""
        return self.jet_vec(t, x)[0]

    def jet_vec(self, t, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f_t, Df_t, D2f_t) on an array in one fused pass.

        ``t`` is a scalar, one noise value per element of ``x``, or one per
        row of a 2-D ``x``; each element or row then gets the bits a scalar
        call with its t gives.  Points at c take the right branch.  Off the
        taper zones w = 1 and w' = w'' = 0, so where no point lies in a zone
        only the shift by t is added.
        """
        x = np.asarray(x, dtype=float)
        p = self.base
        c, u, v, ell = p.c, p.u, p.v, p.ell
        one_c = 1.0 - c
        k2 = ell * (ell - 1.0)
        left = x < c
        z = np.where(left, (c - x) / c, (x - c) / one_c)
        # each derivative is its branch's coefficient times a power of z, formed in
        # place: fewer array temporaries alive at once on the tail's ensemble scan
        d1 = np.where(left, u * ell / c, v * ell / one_c)
        d1 *= z ** (ell - 1.0)
        d2 = np.where(left, -u * k2 / c**2, v * k2 / one_c**2)
        d2 *= z ** (ell - 2.0)
        z **= ell
        fx = np.where(left, u * (1.0 - z), 1.0 - v + v * z)
        t = np.asarray(t, dtype=float)
        if t.ndim == 1 and x.ndim == 2:  # one t per row
            t = t[:, None]
        shift = t != 0.0
        if not shift.any():
            return fx, d1, d2
        m = self.margin
        zone = ((x < m) | (x > 1.0 - m)) & shift
        if not zone.any():
            return np.where(shift, fx + t, fx), d1, d2
        w, w1, w2 = self._taper_jet(x)
        # a scalar call adds the taper terms only when some point is in a zone
        if t.shape != x.shape:
            zone = zone.any(axis=-1, keepdims=True) if t.ndim else True
        return (
            np.where(shift, fx + t * w, fx),
            np.where(zone, d1 + t * w1, d1),
            np.where(zone, d2 + t * w2, d2),
        )


def summability_stats(params: MapParams, v: float, n_steps: int) -> dict:
    """Numerical evidence for the summability and large-derivatives conditions.

    Follows the deterministic orbit of a critical value ``v`` for ``n_steps``
    steps and reports Df^n(v), the sum S_N of 1/Df^n(v) and the minimum of
    Df^n(v) over the trailing half of the orbit.
    This is measurement, not proof.  Once Df^n underflows to 0.0 the sum
    diverges numerically: S_N is inf and ``ld_flag`` is set.

    Raises CriticalHit if the orbit lands on the critical point.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    partial = 0.0
    dfn_values = np.empty(n_steps, dtype=float)
    # the break at n = n_steps comes after the walk has guard-checked every recorded point
    for n, _, dfn, _ in params.walk(v):
        if n == n_steps:
            break
        dfn_values[n] = dfn
        partial += 1.0 / dfn if dfn > 0.0 else np.inf
    tail = dfn_values[n_steps // 2 :]
    return {
        "dfn": dfn_values,
        "S_N": float(partial),
        "tail_min_dfn": float(tail.min()),
        "ld_flag": bool(tail.min() < 1.0),
    }
