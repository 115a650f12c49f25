"""Expansion and distortion diagnostics: uniform-expansion constants outside a
neighborhood of c, derivative-growth envelopes for random orbits near the
critical region, Koebe distortion checks on diffeomorphic pullbacks, and the
total-distortion trend at first landings.

All fitted bounds are lower envelopes: no collected sample may fall below
its own fit (re-verified, not assumed).  Exponential growth rates measured
at desk horizons are intrinsically noisy and are reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotDiffeomorphic
from .maps import MapParams, PerturbedFamily
from .noise import NoiseModel
from .orbits import chain_derivatives, scan_to_landing
from .recurrence import critical_neighborhood, pullback_component

__all__ = [
    "ExpansionReport",
    "mane_estimate",
    "expansion_envelope",
    "koebe_check",
    "random_koebe_branch",
    "total_distortion_trend",
]

# fixed stream-id bases so the diagnostics replay run to run
STREAM_MANE = 5_500_000
STREAM_ENVELOPE = 5_600_000
STREAM_DISTORTION = 5_800_000

#: rates the envelope fit tries, evenly spaced on [0, 0.5]
_ENVELOPE_RATES = 33

#: Koebe grid size; the bounds are checked on it and on twice as many points
_KOEBE_GRID = 256

#: Koebe space constant: J is the pullback of the target shrunk by 1/(1 + 2 tau)
_KOEBE_TAU = 1.0

#: largest pullback depth of a random Koebe branch
_KOEBE_S_MAX = 15

#: reference window length of the Mañé envelope fit
_MANE_N_REF = 20


@dataclass
class ExpansionReport:
    """Samples (n, log Df^n) together with a fitted lower envelope.

    The fitted rate is the worst geometric-mean expansion over windows of
    the reference length (monotone under nesting of the excluded
    neighborhood by construction); the intercept is then the largest
    constant keeping the bound below every sample.
    """

    samples_n: np.ndarray
    samples_logdf: np.ndarray
    rate: float  # log lambda (deterministic) or eta (random)
    log_intercept: float
    n_ref: int

    @property
    def lam(self) -> float:
        return math.exp(self.rate)

    @property
    def prefactor(self) -> float:
        return math.exp(self.log_intercept)

    def envelope_holds(self) -> bool:
        """Every sample lies on or above the fitted bound (exact check)."""
        bound = self.log_intercept + self.rate * self.samples_n
        return bool(np.all(self.samples_logdf >= bound - 1e-9))


def _fit_envelope(ns: np.ndarray, logdf: np.ndarray, n_ref: int):
    """(rate, intercept, effective reference length) of the lower envelope."""
    n_eff = int(min(n_ref, ns.max()))
    at_ref = logdf[ns == n_eff]
    rate = float(at_ref.min() / n_eff) if len(at_ref) else 0.0
    rate = max(rate, 0.0)
    intercept = float(np.min(logdf - rate * ns))
    return rate, intercept, n_eff


def mane_estimate(
    family: PerturbedFamily,
    model: NoiseModel | None,
    exclude: tuple[float, float],
    n_starts: int,
    horizon: int,
    seed: int,
) -> ExpansionReport:
    """Uniform-expansion fit for orbit segments avoiding a neighborhood of c.

    Collects (n, log Df^n) for all prefixes of sampled orbits that stay out
    of ``exclude`` and fits the envelope Df^n >= C * lam**n.  With a noise
    model the segments are random-orbit segments; without one they are
    deterministic.
    """
    lo, hi = exclude
    rng = np.random.default_rng(seed)
    ns, logs = [], []
    for k in range(n_starts):
        x = float(rng.uniform(0.02, 0.98))
        if lo < x < hi:
            continue
        noise = (
            model.stream(STREAM_MANE + k).prefix(horizon)
            if model is not None
            else np.zeros(horizon)
        )
        # positions 0..n-1 avoid the neighborhood; the endpoint is free
        for n, _, log_df, _ in scan_to_landing(family, x, noise, lambda y: lo < y < hi):
            ns.append(n)
            logs.append(log_df)
    ns = np.asarray(ns, dtype=float)
    logs = np.asarray(logs, dtype=float)
    if len(ns) == 0:
        raise ValueError("no avoiding segments collected; neighborhood too large")
    rate, intercept, n_eff = _fit_envelope(ns, logs, _MANE_N_REF)
    return ExpansionReport(
        samples_n=ns,
        samples_logdf=logs,
        rate=rate,
        log_intercept=intercept,
        n_ref=n_eff,
    )


def expansion_envelope(
    family: PerturbedFamily,
    model: NoiseModel,
    n_starts: int,
    horizon: int,
) -> dict:
    """Lower envelopes of derivative growth near the critical neighborhood, at eps = model.eps.

    Case 1 starts within 4*eps of a critical value and records (s, log Df^s)
    at every visit to B(2*eps) before the first visit to B(eps); its envelope
    is reported as a prefactor relative to 1/D(eps).  Case 2 records growth
    along segments avoiding B(eps) from generic starts; its envelope is
    reported relative to eps**(1-1/ell).  The exponential rates are nearly
    flat at desk horizons, so the derived exponents carry a spread estimate
    and are for reporting only.
    """
    params = family.base
    eps = model.eps
    nb = critical_neighborhood(params, eps)
    nb2 = critical_neighborhood(params, 2.0 * eps)
    rng = np.random.default_rng(model.seed + 1)

    ns1, logs1 = [], []
    for k in range(n_starts):
        v = params.c1_minus if k % 2 == 0 else params.c1_plus
        x = float(v + rng.uniform(-4.0 * eps, 4.0 * eps))
        if not 0.0 < x < 1.0 or nb.contains(x):
            continue
        noise = model.stream(STREAM_ENVELOPE + k).prefix(horizon)
        for s, y, log_df, _ in scan_to_landing(family, x, noise, nb.contains):
            if nb2.contains(y):
                ns1.append(s)
                logs1.append(log_df)

    ns2, logs2 = [], []
    for k in range(n_starts):
        x = float(rng.uniform(0.02, 0.98))
        if nb.contains(x):
            continue
        noise = model.stream(STREAM_ENVELOPE + n_starts + k).prefix(horizon)
        for s, _, log_df, _ in scan_to_landing(family, x, noise, nb.contains):
            ns2.append(s)
            logs2.append(log_df)

    def envelope(ns, logs):
        ns = np.asarray(ns, dtype=float)
        logs = np.asarray(logs, dtype=float)
        if len(ns) < 4:
            return None
        s_med = float(np.median(ns))
        best = (0.0, float(np.min(logs)))
        for r in np.linspace(0.0, 0.5, _ENVELOPE_RATES):
            intercept = float(np.min(logs - r * ns))
            if intercept + r * s_med > best[1] + best[0] * s_med:
                best = (r, intercept)
        return {
            "rate": best[0],
            "log_intercept": best[1],
            "samples_n": ns,
            "samples_logdf": logs,
        }

    env1 = envelope(ns1, logs1)
    env2 = envelope(ns2, logs2)
    out = {"case1": env1, "case2": env2}
    if env1 is not None:
        out["lambda_hat"] = math.exp(env1["log_intercept"]) * nb.expansion_scale
        out["alpha_hat_case1"] = (
            math.log(env1["rate"]) / math.log(eps) if env1["rate"] > 0 else float("nan")
        )
    if env2 is not None:
        out["prefactor_hat"] = math.exp(env2["log_intercept"]) / eps ** (1.0 - 1.0 / params.ell)
        out["alpha_hat_case2"] = (
            math.log(env2["rate"]) / math.log(eps) if env2["rate"] > 0 else float("nan")
        )
    return out


def koebe_check(
    family: PerturbedFamily,
    target: tuple[float, float],
    s: int,
    guide_orbit,
) -> dict:
    """Grid verification of the Koebe distortion bounds on one pullback branch.

    Builds the diffeomorphic pullback T of ``target`` along ``guide_orbit``
    (raising NotDiffeomorphic when the chain clips the critical point), takes
    J as the pullback of the concentric (1/(1+2 tau))-scaled target, and
    checks the two-sided bounds (tau/(1+tau))**2 <= Df^s(x)/Df^s(y) <=
    ((1+tau)/tau)**2 on a grid, the one-sided variant against the right
    endpoint, and the macroscopic containment with tau' = tau^2/(1+2 tau),
    all at tau = 1.  Returns ``applicable``, ``passed`` (all three checks
    hold) and ``worst_ratio`` (the largest Df^s ratio on J), or only
    ``applicable=False`` (not a failure) when the inner interval is not
    tau-well inside the branch image.
    """
    params = family.base
    tau = _KOEBE_TAU
    chain_T = pullback_component(family, target, s, guide_orbit)
    if chain_T.order > 0:
        raise NotDiffeomorphic(f"chain has order {chain_T.order}")
    a, b = target
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    inner = (mid - half / (1.0 + 2.0 * tau), mid + half / (1.0 + 2.0 * tau))
    image = chain_image_interval(params, chain_T, s)
    # tau-well-inside precondition on the images, checked geometrically
    need_lo = inner[0] - tau * (inner[1] - inner[0])
    need_hi = inner[1] + tau * (inner[1] - inner[0])
    if need_lo < image[0] - 1e-12 or need_hi > image[1] + 1e-12:
        return {"applicable": False}
    chain_J = pullback_component(family, inner, s, guide_orbit)
    if chain_J.order > 0:
        raise NotDiffeomorphic("inner chain clips the critical point")

    def df_grid(interval, n):
        """Df^s on a grid over the interval, and the grid's image under f^s."""
        lo, hi = interval
        g, d1, _ = chain_derivatives(family, [0.0] * s, np.linspace(lo + 1e-14, hi - 1e-14, n), s)
        return d1, g

    lo_bound = (tau / (1.0 + tau)) ** 2
    hi_bound = ((1.0 + tau) / tau) ** 2
    worst_ratio = 0.0
    passed = True
    for n in (_KOEBE_GRID, 2 * _KOEBE_GRID):
        d1, _ = df_grid(chain_J.component, n)
        ratio_max = float(d1.max() / d1.min())
        worst_ratio = max(worst_ratio, ratio_max)
        if ratio_max > hi_bound * (1.0 + 1e-9) or 1.0 / ratio_max < lo_bound * (1.0 - 1e-9):
            passed = False
    # one-sided variant against the branch right endpoint
    t_lo, t_hi = chain_T.component
    dT, fT = df_grid((t_lo, t_hi), _KOEBE_GRID)
    df_b = dT[-1]
    sel = np.abs(fT - fT[0]) >= tau * np.abs(fT[-1] - fT)
    one_sided_ok = bool(np.all(dT[sel] >= lo_bound * df_b * (1.0 - 1e-9))) if sel.any() else True
    # macroscopic variant: J is tau'-well inside T
    tau_p = tau * tau / (1.0 + 2.0 * tau)
    j_lo, j_hi = chain_J.component
    len_j = j_hi - j_lo
    macro_ok = (j_lo - tau_p * len_j >= t_lo - 1e-12) and (j_hi + tau_p * len_j <= t_hi + 1e-12)
    return {"applicable": True, "passed": passed and one_sided_ok and macro_ok, "worst_ratio": worst_ratio}


def random_koebe_branch(family: PerturbedFamily, rng) -> dict | None:
    """``koebe_check`` at tau = 1 on one random pullback branch, or None if none is found.

    Draws a start x0 ~ U(0.05, 0.95), then a depth s uniform in 1..15, in
    that order from ``rng``, and follows the unperturbed orbit of x0 for s
    steps (None if it comes within 1e-9 of c).  The target is the interval of
    radius rho around f^s(x0), clipped to [0, 1], pulled back along that
    orbit; rho starts at 0.05 and is halved, at most 14 tries, while the
    pullback is not diffeomorphic.
    """
    params = family.base
    x0 = float(rng.uniform(0.05, 0.95))
    s = int(rng.integers(1, _KOEBE_S_MAX + 1))
    orbit = [x0]
    y = x0
    for _ in range(s):
        if abs(y - params.c) < 1e-9:
            return None
        y = params.eval(y)
        orbit.append(y)
    rho = 0.05
    for _ in range(14):
        target = (max(0.0, orbit[s] - rho), min(1.0, orbit[s] + rho))
        try:
            return koebe_check(family, target, s, orbit[:s])
        except NotDiffeomorphic:
            rho /= 2.0
    return None


def chain_image_interval(params: MapParams, chain, s: int) -> tuple[float, float]:
    """Image of the chain component under the s-step composition (monotone)."""
    lo, hi = chain.component
    x_lo, x_hi = lo + 1e-15, hi - 1e-15
    for _ in range(s):
        x_lo, x_hi = params.eval(x_lo), params.eval(x_hi)
    return x_lo, x_hi


def total_distortion_trend(
    family: PerturbedFamily,
    models,
    n_starts: int,
    horizon: int,
) -> list[dict]:
    """Worst distortion at first landings per noise model of a ladder, for the trend.

    For each model, at eps = model.eps, the quantity max over sampled first
    landings of A(x, omega, n) |B(eps)| / Df_omega^n(x) is the empirical
    analogue of the small-total-distortion constant; the theory says it
    vanishes as eps -> 0 with no stated rate, so the ladder trend is reported
    rather than pinned.  Rung idx draws its starts from the generator seeded
    model.seed + idx.
    """
    rows = []
    for idx, model in enumerate(models):
        nb = critical_neighborhood(family.base, model.eps)
        rng = np.random.default_rng(model.seed + idx)
        ratios = []
        for k in range(n_starts):
            x = float(rng.uniform(0.02, 0.98))
            if nb.contains(x):
                continue
            noise = model.stream(STREAM_DISTORTION + idx * n_starts + k).prefix(horizon)
            for _, y, log_df, log_a in scan_to_landing(family, x, noise, nb.contains):
                if nb.contains(y):
                    ratios.append(math.exp(log_a + math.log(nb.length) - log_df))
        ratios = np.asarray(ratios)
        rows.append(
            {
                "eps": model.eps,
                "theta_hat": float(ratios.max()) if len(ratios) else float("nan"),
                "median": float(np.median(ratios)) if len(ratios) else float("nan"),
                "q90": float(np.quantile(ratios, 0.9)) if len(ratios) else float("nan"),
                "n_landings": int(len(ratios)),
            }
        )
    return rows
