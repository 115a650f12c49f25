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
``scan_to_landing`` cuts that walk at the first landing in a set and ends
quietly at the guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CriticalHit
from .maps import CRITICAL_GUARD, PerturbedFamily

__all__ = ["OrbitRecord", "random_orbit", "chain_derivatives", "log_scan", "scan_to_landing"]


@dataclass
class OrbitRecord:
    """A random orbit together with its derivative cocycle and distortion sum.

    ``points[i]`` is the i-th iterate, ``d1[i]`` and ``d2[i]`` the first and
    second derivatives of the i-step composition at the start ``points[0]``,
    and ``asum[i]`` the distortion sum over the first i steps.  When
    ``hit_critical`` is True the arrays are truncated at the offending point,
    ``points[n]``, and everything past it is invalid (the distortion sum is
    conventionally infinite from there).
    """

    omega: np.ndarray
    points: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    asum: np.ndarray
    hit_critical: bool = False

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
        x_next, df, df2 = family.jet(float(omega[i]), x)
        asum[i + 1] = asum[i] + d1[i] / abs(x - c)
        d2[i + 1] = df2 * d1[i] * d1[i] + df * d2[i]
        d1[i + 1] = df * d1[i]
        x = points[i + 1] = x_next
    if hit is not None:
        k = hit + 1
        return OrbitRecord(omega[:hit], points[:k], d1[:k], d2[:k], asum[:k], hit_critical=True)
    return OrbitRecord(omega, points, d1, d2, asum)


def chain_derivatives(family: PerturbedFamily, values, g: np.ndarray, m: int):
    """m-step chain rule on a grid: returns (points, d1, d2) at step m.

    ``values[j]`` is the noise value of step j, or one value per row of a
    2-D grid.
    """
    d1 = np.ones_like(g)
    d2 = np.zeros_like(g)
    for j in range(m):
        g, s1, s2 = family.jet_vec(values[j], g)
        d2 = s2 * d1 * d1 + s1 * d2
        d1 = s1 * d1
    return g, d1, d2


_LOG2 = math.log(2.0)


def log_scan(family: PerturbedFamily, x: float, noise):
    """Walk the random orbit of x in log space, one step per value of the 1-D float sequence noise.

    Yields ``(s, y, log_df, log_a)`` after step s = 1, 2, ..., where
    y = f_omega^s(x), log_df = log Df_omega^s(x) and log_a = log A(x, omega, s).
    Raises ``CriticalHit(s - 1, y)`` when the point about to be mapped is
    within CRITICAL_GUARD of c, and NoiseOutOfRange at a noise value beyond
    ``family.eps_max``.  Scalar on purpose: numpy's array log and power
    differ from libm in the last bit for some inputs, so a member-vectorised
    scan would change the saved ``log_df`` and ``log_asum`` values.
    """
    p = family.base
    c, ell, u, v = p.c, p.ell, p.u, p.v
    one_c = 1.0 - c
    one_v = 1.0 - v
    ell1 = ell - 1.0
    # MapParams.deriv evaluates u * ell / c and v * ell / (1 - c) left to right before the power
    k_left = u * ell / c
    k_right = v * ell / one_c
    m = family.margin
    core_hi = 1.0 - m
    taper, taper_d = family.taper, family.taper_d
    t_max = family.eps_max + 1e-15
    guard = CRITICAL_GUARD
    log, log1p, exp = math.log, math.log1p, math.exp
    y, log_df, log_a = x, 0.0, -math.inf
    # Each step is f_t and Df_t of family.jet(t, y) and np.logaddexp's formula written out with
    # their exact expressions: about 580 ns a step, against 1400 for the same loop calling
    # family.jet and a logaddexp function (x86-64, CPython 3.11; tests/test_orbits.py keeps that
    # loop as the bit-exact oracle).  Noise is read as Python floats through a memoryview of the
    # prefix.
    for s, t in enumerate(memoryview(np.asarray(noise, dtype=float)), 1):
        d = c - y if y < c else y - c  # abs(y - c): c - y is exactly -(y - c)
        if d < guard:
            raise CriticalHit(s - 1, y)
        if t > t_max or t < -t_max:
            family._check_noise(t)
        if y < c:
            z = d / c
            fy = u * (1.0 - z**ell)
            df = k_left * z**ell1
        else:
            z = d / one_c
            fy = one_v + v * z**ell
            df = k_right * z**ell1
        if t != 0.0:
            if m <= y <= core_hi:  # taper core: w = 1 and w' = 0
                fy += t
            else:
                fy += t * taper(y)
                df += t * taper_d(y)
        b = log_df - log(d)
        if log_a == b:
            log_a += _LOG2
        elif log_a > b:
            log_a += log1p(exp(b - log_a))
        else:
            log_a = b + log1p(exp(log_a - b))
        log_df += log(df)
        y = fy
        yield s, y, log_df, log_a


def scan_to_landing(family: PerturbedFamily, x: float, noise, inside):
    """``log_scan``'s steps up to and including the first whose point satisfies ``inside``.

    A critical hit ends the walk like the end of the noise does, without raising.
    """
    try:
        for step in log_scan(family, x, noise):
            yield step
            if inside(step[1]):
                return
    except CriticalHit:
        return


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
