"""Noise distributions, reproducible noise streams and the transition kernel.

A NoiseModel fixes the amplitude eps, the distribution of a single noise
value (uniform on [-eps, eps] by default, or truncated-triangular), the
regularity constant L used by kernel checks, and a master seed.  Noise value
i of stream stream_id is draw i of the generator seeded by (seed, stream_id):
the address (seed, stream_id, i) fixes it, so any member of any ensemble can
be replayed exactly, and a shifted stream reads the shifted sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import PerturbedFamily

__all__ = [
    "NoiseModel",
    "NoiseStream",
    "kernel_regularity_check",
]

#: stream id of the kernel regularity check's samples
STREAM_KERNEL = 901

#: normal quantile of the one-sided 99.5% lower confidence bound on p_eps(x, A)
_Z_CONF = 2.576


@dataclass(frozen=True)
class NoiseStream:
    """The noise sequence omega of one stream, read from index ``offset`` on.

    A stream holds no draws.  Both laws consume one 64-bit generator output
    per value, so ``prefix`` advances a fresh generator to ``offset`` and
    draws from there, which gives every view the same values.
    """

    model: "NoiseModel"
    stream_id: int
    offset: int = 0

    def prefix(self, n: int) -> np.ndarray:
        """First n values of the (shifted) sequence as a read-only array."""
        if n < 0:
            raise ValueError("n must be >= 0")
        rng = self.model.generator(self.stream_id)
        rng.bit_generator.advance(self.offset)
        values = self.model._draw(rng, n)
        values.flags.writeable = False
        return values

    def value(self, i: int) -> float:
        if i < 0:
            raise ValueError("i must be >= 0")
        return float(self.shift(i).prefix(1)[0])

    def shift(self, k: int) -> "NoiseStream":
        """The shifted sequence sigma^k omega."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        return NoiseStream(self.model, self.stream_id, self.offset + k)


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

    def generator(self, stream_id: int) -> np.random.Generator:
        """A fresh generator for (seed, stream_id), at its first draw."""
        return np.random.default_rng(np.random.SeedSequence([np.uint64(self.seed), np.uint64(stream_id)]))

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
) -> dict:
    """Monte-Carlo check of the kernel regularity bound on the core region.

    Samples points x in the trapping core and random intervals A with
    |A| <= 2*eps, estimates p_eps(x, A) = nu_eps{t : f_t(x) in A} and compares
    it with L * (|A| / (2 eps))**(1/L).  A violation is *confirmed* only when
    the lower confidence bound of the estimate exceeds the bound.  Points in
    the taper zones can legitimately exceed the bound, which is why the check
    restricts itself to the core.
    """
    rng = model.generator(STREAM_KERNEL)
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
        if p_hat - _Z_CONF * se > bound:
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
