"""Random orbits with exact chain-rule propagation of derivatives.

An orbit record tracks, step by step, the composed map value, the first and
second derivatives of the composition, and the distortion sum

    A(x, omega, n) = sum_{i<n} Df_omega^i(x) / d(x_i, c),

which controls how far the composition stays from the critical point in the
derivative sense.  Orbits stop early (with a flag, not an exception) when a
point falls inside the machine guard around c.

``log_scan`` walks the same orbit in log space, one step per noise value,
for the stopping-time and expansion scans: it yields log Df and log A, so
nothing overflows at long horizons, and raises CriticalHit at the guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CriticalHit
from .maps import CRITICAL_GUARD, PerturbedFamily

__all__ = ["OrbitRecord", "random_orbit", "log_scan"]


@dataclass
class OrbitRecord:
    """A random orbit together with its derivative cocycle and distortion sum.

    ``points[i]`` is the i-th iterate, ``d1[i]`` and ``d2[i]`` the first and
    second derivatives of the i-step composition at ``x0``, and ``asum[i]``
    the distortion sum over the first i steps.  When ``hit_critical`` is
    True the arrays are truncated at the offending point and everything past
    it is invalid (the distortion sum is conventionally infinite from there).
    """

    x0: float
    omega: np.ndarray
    points: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    asum: np.ndarray
    hit_critical: bool = False
    hit_index: int | None = None

    @property
    def n(self) -> int:
        """Number of completed steps."""
        return len(self.points) - 1


def random_orbit(family: PerturbedFamily, x0: float, omega, n: int) -> OrbitRecord:
    """Iterate f_omega^n(x0) recording derivatives and the distortion sum.

    ``omega`` is any sequence of noise values of length >= n (a NoiseStream
    prefix works).  Early critical hits truncate the record and set
    ``hit_critical``; they do not raise.
    """
    omega = _noise_prefix(omega, n)
    c = family.base.c
    points = np.empty(n + 1, dtype=float)
    d1 = np.empty(n + 1, dtype=float)
    d2 = np.empty(n + 1, dtype=float)
    asum = np.empty(n + 1, dtype=float)
    points[0], d1[0], d2[0], asum[0] = x0, 1.0, 0.0, 0.0
    guard = CRITICAL_GUARD
    x = x0
    hit = None
    for i in range(n):
        if abs(x - c) < guard:
            hit = i
            break
        t = float(omega[i])
        df, df2 = family.derivatives(t, x)
        asum[i + 1] = asum[i] + d1[i] / abs(x - c)
        d2[i + 1] = df2 * d1[i] * d1[i] + df * d2[i]
        d1[i + 1] = df * d1[i]
        x = family.eval(t, x)
        points[i + 1] = x
    if hit is not None:
        k = hit + 1
        return OrbitRecord(
            x0=x0,
            omega=omega[:hit],
            points=points[:k],
            d1=d1[:k],
            d2=d2[:k],
            asum=asum[:k],
            hit_critical=True,
            hit_index=hit,
        )
    return OrbitRecord(x0=x0, omega=omega, points=points, d1=d1, d2=d2, asum=asum)


def log_scan(family: PerturbedFamily, x: float, noise):
    """Walk the random orbit of x in log space, one step per noise value.

    Yields ``(s, y, log_df, log_a)`` after step s = 1, 2, ..., where
    y = f_omega^s(x), log_df = log Df_omega^s(x) and log_a = log A(x, omega, s).
    Raises ``CriticalHit(s - 1, y)`` when the point about to be mapped is
    within CRITICAL_GUARD of c.  Scalar on purpose: numpy's array log and power
    differ from libm in the last bit for some inputs, so a member-vectorised
    scan would change the saved ``log_df`` and ``log_asum`` values.
    """
    c = family.base.c
    step = family.step
    guard = CRITICAL_GUARD
    y, log_df, log_a = x, 0.0, -math.inf
    for s, t in enumerate(noise, 1):
        d = abs(y - c)
        if d < guard:
            raise CriticalHit(s - 1, y)
        y, df = step(float(t), y)
        log_a = _logaddexp(log_a, log_df - math.log(d))
        log_df += math.log(df)
        yield s, y, log_df, log_a


_LOG2 = math.log(2.0)


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) by np.logaddexp's formula, without numpy's per-call cost on scalars."""
    if a == b:
        return a + _LOG2
    if a > b:
        return a + math.log1p(math.exp(b - a))
    return b + math.log1p(math.exp(a - b))


def _noise_prefix(omega, n: int) -> np.ndarray:
    """Normalise a noise source to an ndarray prefix of length n."""
    if hasattr(omega, "prefix"):
        return omega.prefix(n)
    arr = np.asarray(omega, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if len(arr) < n:
        raise ValueError(f"noise prefix of length {len(arr)} shorter than n={n}")
    return arr[:n]
