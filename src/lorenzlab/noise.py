"""Noise distributions, reproducible noise streams and the transition kernel.

A NoiseModel fixes the amplitude eps, the distribution of a single noise
value (uniform on [-eps, eps] by default, or truncated-triangular), the
regularity constant L used by kernel checks, and a master seed.  Streams are
derived from (seed, stream_id) and are deterministic: the same pair always
reproduces the same sequence, and shifted streams reproduce the shifted
sequence exactly, which makes skew-product computations replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CriticalHit
from .maps import CRITICAL_GUARD, PerturbedFamily
from .orbits import _noise_prefix

__all__ = [
    "NoiseModel",
    "NoiseStream",
    "sample_omega",
    "kernel_regularity_check",
    "skew_step",
]

# Growth granularity.  Both laws draw exactly one double per value, so the
# stream is the same for every chunk size; a small chunk keeps short streams small.
_CHUNK = 256


class _StreamBuffer:
    """Window over the draws of one stream, shared by all its shifted views.

    It holds the generator for (seed, stream_id) and the draws
    [base, base + len(values)).  Reading forward costs time linear in the
    stream length and keeps at most the live window plus one chunk; reading
    from offset 0 keeps the whole prefix; reading behind the window
    regenerates the stream from its seed.
    """

    def __init__(self, model: "NoiseModel", stream_id: int):
        self._seq = np.random.SeedSequence([np.uint64(model.seed), np.uint64(stream_id)])
        self._model = model
        self._restart()

    def _restart(self):
        self._rng = np.random.default_rng(self._seq)
        self._base = 0
        self._values = np.empty(0, dtype=float)

    def view(self, start: int, stop: int) -> np.ndarray:
        if stop <= start:
            return self._values[:0]
        if start < self._base:
            self._restart()
        end = self._base + len(self._values)
        if stop > end:
            kept = self._values[max(start - self._base, 0):]
            while end < start:  # draws before the window are thrown away, in bounded pieces
                skipped = min(start - end, 64 * _CHUNK)
                self._model._draw(self._rng, skipped)
                end += skipped
            fresh = self._model._draw(self._rng, -(-(stop - end) // _CHUNK) * _CHUNK)
            self._values = np.concatenate([kept, fresh])
            self._values.flags.writeable = False
            self._base = start
        return self._values[start - self._base:stop - self._base]


@dataclass
class NoiseStream:
    """A deterministic noise sequence omega with exact shift support."""

    model: "NoiseModel"
    stream_id: int
    offset: int = 0
    _buf: _StreamBuffer = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._buf is None:
            self._buf = _StreamBuffer(self.model, self.stream_id)

    def prefix(self, n: int) -> np.ndarray:
        """First n values of the (shifted) sequence as a read-only view."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._buf.view(self.offset, self.offset + n)

    def value(self, i: int) -> float:
        if i < 0:
            raise ValueError("i must be >= 0")
        return float(self._buf.view(self.offset + i, self.offset + i + 1)[0])

    def shift(self, k: int) -> "NoiseStream":
        """The shifted sequence sigma^k omega, sharing the same draws."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        return NoiseStream(self.model, self.stream_id, self.offset + k, self._buf)


@dataclass(frozen=True)
class NoiseModel:
    """i.i.d. noise supported in [-eps, eps] plus bookkeeping for checks."""

    eps: float
    kind: str = "uniform"
    L: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"eps={self.eps} must be positive")
        if self.kind not in ("uniform", "triangular"):
            raise ValueError(f"kind must be 'uniform' or 'triangular', got {self.kind!r}")
        if not self.L > 1.0:
            raise ValueError(f"L={self.L} must exceed 1")

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(-self.eps, self.eps, size=n)
        return rng.triangular(-self.eps, 0.0, self.eps, size=n)

    def stream(self, stream_id: int) -> NoiseStream:
        return NoiseStream(self, stream_id)

    def quadrature(self, n_nodes: int = 32) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights integrating g against the noise law on [-eps, eps].

        Gauss-Legendre with the density folded into the weights; weights sum
        to 1 exactly for both supported kinds (the densities are piecewise
        linear, which Gauss-Legendre integrates exactly).
        """
        if self.kind == "uniform":
            x, w = np.polynomial.legendre.leggauss(n_nodes)
            nodes = x * self.eps
            weights = w / 2.0
            return nodes, weights
        half = max(2, n_nodes // 2)
        x, w = np.polynomial.legendre.leggauss(half)
        nodes_r = (x + 1.0) * self.eps / 2.0
        w_r = w * self.eps / 2.0
        dens_r = (1.0 - np.abs(nodes_r) / self.eps) / self.eps
        nodes = np.concatenate([-nodes_r[::-1], nodes_r])
        weights = np.concatenate([(w_r * dens_r)[::-1], w_r * dens_r])
        return nodes, weights / weights.sum()

    def core_interval(self, family: PerturbedFamily) -> tuple[float, float]:
        """Trapping core [c1_plus - eps, c1_minus + eps] used by kernel checks."""
        return family.base.c1_plus - self.eps, family.base.c1_minus + self.eps


def sample_omega(model: NoiseModel, stream_id: int, n: int) -> np.ndarray:
    """i.i.d. prefix of length n, reproducible per (model.seed, stream_id)."""
    return model.stream(stream_id).prefix(n)


def skew_step(family: PerturbedFamily, model: NoiseModel, x: float, omega, k: int):
    """Apply the skew product k times: (x, omega) -> (f_omega^k(x), sigma^k omega).

    ``omega`` must be a NoiseStream when the shifted handle matters; raises
    CriticalHit if an intermediate point enters the critical guard.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    stream = omega if isinstance(omega, NoiseStream) else None
    values = _noise_prefix(omega, k)
    c = family.base.c
    y = x
    for i in range(k):
        if abs(y - c) < CRITICAL_GUARD:
            raise CriticalHit(i, y)
        y = family.eval(float(values[i]), y)
    shifted = stream.shift(k) if stream is not None else values[k:]
    return y, shifted


def exact_uniform_kernel_mass(
    family: PerturbedFamily, model: NoiseModel, x: float, a: float, b: float
) -> float:
    """p_eps(x, (a, b)) in closed form for uniform noise at core points.

    On the taper core f_t(x) = f(x) + t, so the kernel is the uniform law on
    [f(x) - eps, f(x) + eps].
    """
    fx = family.base.eval(x)
    lo, hi = fx - model.eps, fx + model.eps
    return max(0.0, min(b, hi) - max(a, lo)) / (2.0 * model.eps)


def kernel_regularity_check(
    family: PerturbedFamily,
    model: NoiseModel,
    n_pairs: int = 1000,
    n_draws: int = 4000,
    stream_id: int = 901,
    z_conf: float = 2.576,
) -> dict:
    """Monte-Carlo check of the kernel regularity bound on the core region.

    Samples points x in the trapping core and random intervals A with
    |A| <= 2*eps, estimates p_eps(x, A) = nu_eps{t : f_t(x) in A} and compares
    it with L * (|A| / (2 eps))**(1/L).  A violation is *confirmed* only when
    the lower confidence bound of the estimate exceeds the bound.  Points in
    the taper zones can legitimately exceed the bound, which is why the check
    restricts itself to the core.
    """
    rng = np.random.default_rng(np.random.SeedSequence([np.uint64(model.seed), np.uint64(stream_id)]))
    eps, L = model.eps, model.L
    core_lo, core_hi = model.core_interval(family)
    core_lo = max(core_lo, family.margin)
    core_hi = min(core_hi, 1.0 - family.margin)
    c = family.base.c
    rows = []
    worst = 0.0
    confirmed = 0
    for _ in range(n_pairs):
        while True:
            x = rng.uniform(core_lo, core_hi)
            if abs(x - c) > 1e-6:
                break
        length = rng.uniform(0.05, 1.0) * 2.0 * eps
        fx = family.base.eval(x)
        center = fx + rng.uniform(-1.5 * eps, 1.5 * eps)
        a = max(0.0, center - length / 2.0)
        b = min(1.0, center + length / 2.0)
        if b <= a:
            continue
        ts = model._draw(rng, n_draws)
        vals = family.eval_vec(ts, np.full(n_draws, x))
        p_hat = float(np.mean((vals > a) & (vals < b)))
        se = np.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_draws)
        bound = L * ((b - a) / (2.0 * eps)) ** (1.0 / L)
        ratio = p_hat / bound
        worst = max(worst, ratio)
        if p_hat - z_conf * se > bound:
            confirmed += 1
        rows.append(
            {
                "x": x,
                "a": a,
                "b": b,
                "p_hat": p_hat,
                "se": se,
                "bound": bound,
                "ratio": ratio,
                "p_exact_core": exact_uniform_kernel_mass(family, model, x, a, b)
                if model.kind == "uniform"
                else float("nan"),
            }
        )
    return {
        "rows": rows,
        "worst_ratio": worst,
        "confirmed_violations": confirmed,
        "n_pairs": len(rows),
        "n_draws": n_draws,
    }
