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

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import CriticalHit, CriticalPointEval, NoiseOutOfRange, OutOfBranchRange

__all__ = [
    "MapParams",
    "PerturbedFamily",
    "CANON",
    "critical_values",
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

    def inverse(self, y: float, side: str) -> float | None:
        """Preimage of y on the requested branch of the base map, or None."""
        if not 0.0 <= y <= 1.0:
            raise OutOfBranchRange(f"y={y!r} outside [0, 1]")
        if side == "left":
            if y > self.u:
                return None
            z = ((self.u - y) / self.u) ** (1.0 / self.ell)
            return self.c * (1.0 - z)
        if side == "right":
            if y < 1.0 - self.v:
                return None
            z = ((y - 1.0 + self.v) / self.v) ** (1.0 / self.ell)
            return self.c + (1.0 - self.c) * z
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def non_flatness_constants(self) -> tuple[float, float]:
        """(O1, O2) with O1*d^(ell-1) <= Df(x) <= O2*d^(ell-1), d = |x - c|.

        Exact on each branch because the branch profiles are affine power
        laws; for the perturbed family they remain valid wherever the taper
        derivative vanishes, in particular near c.
        """
        left = self.u * self.ell / self.c**self.ell
        right = self.v * self.ell / (1.0 - self.c) ** self.ell
        return min(left, right), max(left, right)

    # -- vectorised kernels --------------------------------------------------------

    def eval_vec(self, x: np.ndarray) -> np.ndarray:
        """Vectorised base map; points at c are assigned the left limit u.

        Intended for diagnostic scans where hitting c exactly has measure
        zero; orbit-level code uses the guarded scalar path.
        """
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        left = x < self.c
        z = (self.c - x[left]) / self.c
        out[left] = self.u * (1.0 - z**self.ell)
        right = x > self.c
        z = (x[right] - self.c) / (1.0 - self.c)
        out[right] = 1.0 - self.v + self.v * z**self.ell
        out[~(left | right)] = self.u
        return out

    def deriv_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        left = x < self.c
        z = (self.c - x[left]) / self.c
        out[left] = self.u * self.ell / self.c * z ** (self.ell - 1.0)
        right = ~left
        z = (x[right] - self.c) / (1.0 - self.c)
        out[right] = self.v * self.ell / (1.0 - self.c) * z ** (self.ell - 1.0)
        return out


#: canonical parameter set used throughout the test-suite and default configs
CANON = MapParams(c=0.5, ell=2.0, u=0.9, v=0.9)


def critical_values(params: MapParams) -> tuple[float, float]:
    """(c1_plus, c1_minus) = (1 - v, u)."""
    return params.c1_plus, params.c1_minus


def schwarzian(params: MapParams, x: float) -> float:
    """Schwarzian derivative of the base map at x.

    For the affine power-law branches this collapses to
    -(ell**2 - 1) / (2 * d(x, c)**2), which is negative for every ell > 1.
    """
    if abs(x - params.c) < CRITICAL_GUARD:
        raise CriticalPointEval(f"x={x!r} is within the critical guard of c={params.c}")
    d = abs(x - params.c)
    return -(params.ell**2 - 1.0) / (2.0 * d * d)


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
            df = p.deriv_vec(grid)
            wd = np.abs(self.taper_d_vec(grid))
            mask = wd > 0.0
            if mask.any():
                bounds.append(float(np.min(df[mask] / wd[mask])))
            w = self.taper_vec(grid)
            f = p.eval_vec(grid)
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
        if 0.0 < x < m:
            return _smoothstep_d(x / m) / m
        if 1.0 - m < x < 1.0:
            return -_smoothstep_d((1.0 - x) / m) / m
        return 0.0

    def taper_d2(self, x: float) -> float:
        m = self.margin
        if 0.0 < x < m:
            return _smoothstep_d2(x / m) / m**2
        if 1.0 - m < x < 1.0:
            return _smoothstep_d2((1.0 - x) / m) / m**2
        return 0.0

    def taper_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        m = self.margin
        out = np.ones_like(x)
        lo = x < m
        out[lo] = _smoothstep(np.clip(x[lo], 0.0, m) / m)
        hi = x > 1.0 - m
        out[hi] = _smoothstep(np.clip(1.0 - x[hi], 0.0, m) / m)
        return out

    def taper_d_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        m = self.margin
        out = np.zeros_like(x)
        lo = (x > 0.0) & (x < m)
        out[lo] = _smoothstep_d(x[lo] / m) / m
        hi = (x > 1.0 - m) & (x < 1.0)
        out[hi] = -_smoothstep_d((1.0 - x[hi]) / m) / m
        return out

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

    def step(self, t: float, x: float) -> tuple[float, float]:
        """(f_t(x), Df_t(x)) in one pass, with the arithmetic of eval and deriv."""
        self._check_noise(t)
        p = self.base
        c = p.c
        if abs(x - c) < CRITICAL_GUARD:
            raise CriticalPointEval(f"x={x!r} is within the critical guard of c={c}")
        if x < c:
            z = (c - x) / c
            fx = p.u * (1.0 - z**p.ell)
            df = p.u * p.ell / c * z ** (p.ell - 1.0)
        else:
            z = (x - c) / (1.0 - c)
            fx = 1.0 - p.v + p.v * z**p.ell
            df = p.v * p.ell / (1.0 - c) * z ** (p.ell - 1.0)
        if t == 0.0:
            return fx, df
        m = self.margin
        if m <= x <= 1.0 - m:  # taper core: w = 1 and w' = 0
            return fx + t, df
        return fx + t * self.taper(x), df + t * self.taper_d(x)

    def derivatives(self, t: float, x: float) -> tuple[float, float]:
        """(Df_t(x), D2f_t(x))."""
        self._check_noise(t)
        d1 = self.base.deriv(x)
        d2 = self.base.deriv2(x)
        if t != 0.0:
            d1 += t * self.taper_d(x)
            d2 += t * self.taper_d2(x)
        return d1, d2

    def critical_values(self, t: float = 0.0) -> tuple[float, float]:
        """(c1_plus, c1_minus) of f_t; the taper equals 1 at c."""
        self._check_noise(t)
        return self.base.c1_plus + t, self.base.c1_minus + t

    def branch_domain(self, side: str) -> tuple[float, float]:
        if side == "left":
            return 0.0, self.base.c
        if side == "right":
            return self.base.c, 1.0
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def branch_range(self, t: float, side: str) -> tuple[float, float]:
        """Closure of f_t(branch domain)."""
        if side == "left":
            return 0.0, self.base.c1_minus + t
        if side == "right":
            return self.base.c1_plus + t, 1.0
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def inverse_branch(self, t: float, y: float, side: str, tol: float = 1e-13) -> float | None:
        """Unique preimage of y on the requested branch of f_t, or None.

        Closed form shifted by t wherever the candidate lands on the taper
        core; bracketed root finding inside the taper zones.  Raises
        OutOfBranchRange only for y outside [0, 1]; a y outside the branch
        image simply has no preimage and yields None.
        """
        self._check_noise(t)
        if not 0.0 <= y <= 1.0:
            raise OutOfBranchRange(f"y={y!r} outside [0, 1]")
        lo, hi = self.branch_range(t, side)
        if y < lo - 1e-15 or y > hi + 1e-15:
            return None
        y = min(max(y, lo), hi)
        if t == 0.0:
            return self.base.inverse(y, side)
        # On [margin, 1 - margin] the taper is identically 1, so the preimage
        # is the base inverse of y - t whenever that candidate lands there.
        m = self.margin
        candidate = self.base.inverse(min(max(y - t, 0.0), 1.0), side)
        if candidate is not None and m <= candidate <= 1.0 - m:
            if abs(self.eval(t, candidate) - y) < tol:
                return candidate
        # Otherwise the preimage sits in the taper zone of this branch, which
        # is bounded away from the critical point.
        a, b = (0.0, m) if side == "left" else (1.0 - m, 1.0)
        fa = self.eval(t, a) - y
        fb = self.eval(t, b) - y
        if fa > 0.0 or fb < 0.0:
            # rounding at the core boundary; the closed-form candidate is the root
            return candidate
        root = brentq(lambda s: self.eval(t, s) - y, a, b, xtol=tol, rtol=8.0 * np.finfo(float).eps)
        return float(root)

    def eval_vec(self, t, x: np.ndarray) -> np.ndarray:
        """Vectorised f_t; t may be a scalar or an array matching x."""
        x = np.asarray(x, dtype=float)
        out = self.base.eval_vec(x)
        t = np.asarray(t, dtype=float)
        if np.any(t != 0.0):
            out = out + t * self.taper_vec(x)
        return out

    def deriv_vec(self, t, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.base.deriv_vec(x)
        t = np.asarray(t, dtype=float)
        if np.any(t != 0.0):
            out = out + t * self.taper_d_vec(x)
        return out

    def jet_vec(self, t, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f_t, Df_t, D2f_t) on an array in one fused pass.

        ``t`` is a scalar, or one noise value per row of a 2-D ``x``; each
        row then gets the bits a scalar call with its t gives.  Points at c
        take the right branch.  Off the taper zones w = 1 and w' = w'' = 0,
        so where no point lies in a zone only the shift by t is added.
        """
        x = np.asarray(x, dtype=float)
        p = self.base
        c, u, v, ell = p.c, p.u, p.v, p.ell
        one_c = 1.0 - c
        k2 = ell * (ell - 1.0)
        left = x < c
        z = np.where(left, (c - x) / c, (x - c) / one_c)
        zl = z ** (ell - 1.0)
        d1 = np.where(left, u * ell / c * zl, v * ell / one_c * zl)
        zl2 = z ** (ell - 2.0)
        d2 = np.where(left, -u * k2 / c**2 * zl2, v * k2 / one_c**2 * zl2)
        fx = np.where(left, u * (1.0 - z**ell), 1.0 - v + v * z**ell)
        t = np.asarray(t, dtype=float)
        if t.ndim:
            t = t[:, None]
        shift = t != 0.0
        if not shift.any():
            return fx, d1, d2
        m = self.margin
        lo = (x < m) & shift
        hi = (x > 1.0 - m) & shift
        if not (lo.any() or hi.any()):
            return np.where(shift, fx + t, fx), d1, d2
        w = np.ones_like(x)
        w1 = np.zeros_like(x)
        w2 = np.zeros_like(x)
        r = np.clip(x[lo], 0.0, m) / m
        w[lo] = _smoothstep(r)
        w1[lo] = _smoothstep_d(r) / m
        w2[lo] = _smoothstep_d2(r) / m**2
        r = np.clip(1.0 - x[hi], 0.0, m) / m
        w[hi] = _smoothstep(r)
        w1[hi] = -_smoothstep_d(r) / m
        w2[hi] = _smoothstep_d2(r) / m**2
        # a scalar call adds the taper terms only when some point is in a zone
        zone = (lo | hi).any(axis=-1, keepdims=True) if t.ndim else True
        return (
            np.where(shift, fx + t * w, fx),
            np.where(zone, d1 + t * w1, d1),
            np.where(zone, d2 + t * w2, d2),
        )


def summability_stats(params: MapParams, v: float, n_steps: int) -> dict:
    """Numerical evidence for the summability and large-derivatives conditions.

    Follows the deterministic orbit of a critical value ``v`` for ``n_steps``
    steps and reports the partial sums of sum(1/Df^n(v)), the running minimum
    of Df^n(v) over the trailing half of the orbit, and a monotone-growth
    indicator.  This is measurement, not proof.

    Raises CriticalHit if the orbit lands on the critical point.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = v
    dfn = 1.0  # Df^0(v)
    partial = 0.0
    partial_sums = np.empty(n_steps, dtype=float)
    dfn_values = np.empty(n_steps, dtype=float)
    for n in range(n_steps):
        dfn_values[n] = dfn
        partial += 1.0 / dfn
        partial_sums[n] = partial
        if abs(x - params.c) < CRITICAL_GUARD:
            raise CriticalHit(n, x)
        dfn *= params.deriv(x)
        x = params.eval(x)
    tail_start = n_steps // 2
    tail = dfn_values[tail_start:]
    increments = np.diff(partial_sums)
    return {
        "partial_sums": partial_sums,
        "dfn": dfn_values,
        "S_N": float(partial),
        "tail_min_dfn": float(tail.min()),
        "tail_start": tail_start,
        "growing": bool(np.median(tail) > np.median(dfn_values[: max(1, tail_start)])),
        "increment_trend_decreasing": bool(
            increments.size < 2 or np.median(increments[increments.size // 2 :])
            <= np.median(increments[: increments.size // 2])
        ),
        "ld_flag": bool(tail.min() < 1.0),
    }
