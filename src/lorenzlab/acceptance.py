"""Acceptance suite: every exit criterion as a callable check.

Each criterion returns a dict with its id, name, pass flag, detail string
and elapsed time; ``run_all`` evaluates them in order.  The checks pin the
tolerances of the package contract; they are exercised both by the
``selftest`` subcommand and by the pytest suite.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .config import ExperimentConfig
from .errors import CriticalPointEval
from .expansion import random_koebe_branch
from .inducing import build_nice_set, inducing_tail_stats
from .maps import MapParams, schwarzian
from .noise import NoiseModel, kernel_regularity_check
from .orbits import chain_derivatives, random_orbit
from .recurrence import (
    backward_contraction_check,
    binding_period,
    critical_neighborhood,
    default_scale_grid,
    good_return_or_expansion_time,
    good_return_time,
)
from .transfer import (
    Density,
    birkhoff_density,
    build_ulam,
    l1_distance,
    partition_for,
    stability_sweep,
    stationary_density,
)

#: map with a near-critical relation f(c1-) ~ c; it violates the
#: large-derivatives condition and backward contraction detectably
NONLD = MapParams(c=0.5, ell=2.0, u=0.6, v=0.52)


def _result(num, name, passed, details, t0, cap=None):
    elapsed = time.time() - t0
    if cap is not None and elapsed >= cap:
        passed = False
        details += f" [runtime {elapsed:.1f}s exceeded cap {cap}s]"
    return {
        "id": num,
        "name": name,
        "passed": bool(passed),
        "details": details,
        "elapsed": elapsed,
        "cap": cap,
    }


def criterion_01_exactness(cfg: ExperimentConfig):
    t0 = time.time()
    family = cfg.perturbed_family()
    params = family.base
    ok = True
    details = []
    for t in (-family.eps_max, -0.5 * family.eps_max, 0.0, 0.5 * family.eps_max, family.eps_max):
        if family.eval(t, 0.0) != 0.0 or family.eval(t, 1.0) != 1.0:
            ok = False
            details.append(f"endpoint not fixed at t={t}")
        for side in ("left", "right"):
            lo, hi = family.branch_domain(side)
            grid = np.linspace(lo + 1e-12, hi - 1e-12, 10_000)
            vals = family.eval_vec(t, grid)
            if not np.all(np.diff(vals) > 0.0):
                ok = False
                details.append(f"branch {side} not strictly increasing at t={t}")
    return _result(1, "endpoint exactness and branch monotonicity", ok,
                   "; ".join(details) or "fixed endpoints bit-exact, 5 noise levels x 1e4-point grids monotone",
                   t0, cap=1.0)


def _compose(family, x, om, n):
    y = x
    for i in range(n):
        y = family.eval(float(om[i]), y)
    return y


def criterion_02_chain_rule(cfg: ExperimentConfig):
    t0 = time.time()
    family = cfg.perturbed_family()
    model = NoiseModel(eps=min(cfg.noise.eps, 0.005), kind=cfg.noise.kind, seed=123)
    rng = np.random.default_rng(7)
    h1 = 1e-7
    h_grid = (2e-6, 4e-6, 8e-6, 1.6e-5, 3.2e-5)
    worst1 = worst2 = 0.0
    count = k = 0
    while count < 200 and k < 5000:
        k += 1
        x0 = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(1, 21))
        om = model.stream(900_000 + k).prefix(n)
        rec = random_orbit(family, x0, om, n)
        if rec.hit_critical or rec.n < n or np.min(np.abs(rec.points - family.base.c)) < 1e-3:
            continue
        count += 1
        fd1 = (_compose(family, x0 + h1, om, n) - _compose(family, x0 - h1, om, n)) / (2 * h1)
        worst1 = max(worst1, abs(fd1 - rec.d1[n]) / abs(rec.d1[n]))
        f0 = _compose(family, x0, om, n)
        vals = [
            (_compose(family, x0 + h, om, n) - 2 * f0 + _compose(family, x0 - h, om, n)) / h**2
            for h in h_grid
        ]
        best, bd = None, math.inf
        for a, b in zip(vals, vals[1:]):
            gap = abs(a - b) / max(abs(a), abs(b), 1e-30)
            if gap < bd:
                bd, best = gap, 0.5 * (a + b)
        worst2 = max(worst2, abs(best - rec.d2[n]) / max(abs(rec.d2[n]), 1e-30))
    ok = count == 200 and worst1 <= 1e-5 and worst2 <= 1e-3
    return _result(2, "chain rule vs finite differences", ok,
                   f"{count} samples, worst Df rel err {worst1:.2e} (<=1e-5), worst D2f rel err {worst2:.2e} (<=1e-3)",
                   t0, cap=10.0)


def criterion_03_schwarzian(cfg: ExperimentConfig):
    t0 = time.time()
    params = cfg.map_params()
    ok = True
    worst = -math.inf
    for side_lo, side_hi in ((1e-9, params.c - 1e-9), (params.c + 1e-9, 1.0 - 1e-9)):
        xs = np.linspace(side_lo, side_hi, 10_000)
        vals = np.array([schwarzian(params, float(x)) for x in xs[:: len(xs) // 100]])
        closed = -(params.ell**2 - 1.0) / (2.0 * (xs - params.c) ** 2)
        if not np.all(closed < 0.0):
            ok = False
        worst = max(worst, float(closed.max()))
        if params.ell == 2.0:
            # for quadratic order the Schwarzian is exactly -1.5 (f''/f')^2
            sample = xs[:: len(xs) // 100]
            ratio = np.array([
                -1.5 * (params.deriv2(float(x)) / params.deriv(float(x))) ** 2 for x in sample
            ])
            direct = np.array([schwarzian(params, float(x)) for x in sample])
            if not np.allclose(ratio, direct, rtol=1e-12):
                ok = False
        if np.any(vals >= 0.0):
            ok = False
    return _result(3, "negative Schwarzian on both branches", ok,
                   f"2 x 1e4 grid points, max value {worst:.3e} < 0", t0, cap=1.0)


def criterion_04_ulam_stationarity(cfg: ExperimentConfig):
    t0 = time.time()
    family = cfg.perturbed_family()
    part = partition_for(family, cfg.partition.n_bins)
    det = build_ulam(family, None, part)
    pi_det, info_det = stationary_density(det, tol=1e-10)
    rnd = build_ulam(family, cfg.noise_model(0.01), part)
    pi_rnd, info_rnd = stationary_density(rnd, tol=1e-10)
    ok = info_det["residual"] <= 1e-10 and info_rnd["residual"] <= 1e-10
    return _result(4, "Ulam stationarity residuals", ok,
                   f"det residual {info_det['residual']:.2e}, randomized {info_rnd['residual']:.2e} (<=1e-10, {part.n_bins} bins)",
                   t0, cap=60.0)


def criterion_05_birkhoff_ulam(cfg: ExperimentConfig):
    """Ulam fixed points on a refinement ladder converge to the orbit histogram.

    Ulam's method promises no accuracy at a fixed resolution for a map with a
    critical point (Li's convergence proof covers piecewise-expanding maps, and
    the density here is singular along the critical orbits), so the operator
    is refined n_bins x {1, 2, 4, 8} and each fixed point is projected
    onto the n_bins comparison grid.  The L1 distance to the Birkhoff
    histogram must not increase along the ladder and the finest rung must be
    within 0.1.
    """
    t0 = time.time()
    family = cfg.perturbed_family()
    part = partition_for(family, cfg.partition.n_bins)
    bd, binfo = birkhoff_density(
        family, None, 0.3141, cfg.ensemble.birkhoff_steps, cfg.ensemble.burn_in, part
    )
    ladder = []
    for factor in (1, 2, 4, 8):
        fine = partition_for(family, factor * cfg.partition.n_bins)
        pi, _ = stationary_density(build_ulam(family, None, fine), tol=1e-10)
        ladder.append((fine.n_bins, l1_distance(_project_density(pi, part), bd)))
    dists = [d for _, d in ladder]
    ok = all(b <= a for a, b in zip(dists, dists[1:])) and dists[-1] <= 0.1
    pretty = ", ".join(f"{n}:{d:.4f}" for n, d in ladder)
    details = (
        f"L1 from the {cfg.ensemble.birkhoff_steps:.0e}-step histogram ({binfo['restarts']} restarts) "
        f"to the Ulam fixed point, operator bins:L1 on the {part.n_bins}-bin grid: {pretty} "
        f"(must not increase; finest {dists[-1]:.4f} <=0.1)"
    )
    return _result(5, "Birkhoff/Ulam cross-validation", ok, details, t0, cap=120.0)


def _project_density(dens, target):
    """Exact L2/L1-consistent projection of a piecewise-constant density."""
    edges = np.union1d(dens.partition.edges, target.edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    w = dens.weights[
        np.clip(np.searchsorted(dens.partition.edges, mids) - 1, 0, dens.partition.n_bins - 1)
    ]
    seg_mass = w * np.diff(edges)
    masses = np.zeros(target.n_bins)
    idx = np.clip(np.searchsorted(target.edges, mids) - 1, 0, target.n_bins - 1)
    np.add.at(masses, idx, seg_mass)
    return Density.from_masses(target, masses)


def criterion_06_uniqueness(cfg: ExperimentConfig):
    t0 = time.time()
    family = cfg.perturbed_family()
    part = partition_for(family, cfg.partition.n_bins)
    rnd = build_ulam(family, cfg.noise_model(0.01), part)
    pi_a, _ = stationary_density(rnd, tol=1e-12)
    rng = np.random.default_rng(3)
    ini = Density.from_masses(part, rng.uniform(0.5, 1.5, part.n_bins))
    pi_b, _ = stationary_density(rnd, tol=1e-12, initial=ini)
    dist = l1_distance(pi_a, pi_b)
    ok = dist <= 1e-6
    return _result(6, "stationary uniqueness probe", ok,
                   f"two independent initial densities agree to L1 {dist:.2e} (<=1e-6)", t0)


def criterion_07_stability_trend(cfg: ExperimentConfig):
    t0 = time.time()
    family = cfg.perturbed_family()
    part = partition_for(family, cfg.partition.n_bins)
    rows, _, _ = stability_sweep(
        family, cfg.noise.eps_ladder, part,
        noise_kind=cfg.noise.kind, seed=cfg.noise.seed,
    )
    dists = [r["l1"] for r in rows]
    ok = all(np.isfinite(dists)) and all(b <= a * 1.1 for a, b in zip(dists, dists[1:]))
    pretty = ", ".join(f"{r['eps']:g}:{r['l1']:.4f}" for r in rows)
    return _result(7, "stochastic stability trend", ok,
                   f"distances nonincreasing within 10% slack: {pretty}", t0, cap=600.0)


def criterion_08_kernel_regularity(cfg: ExperimentConfig):
    t0 = time.time()
    family = cfg.perturbed_family()
    rep = kernel_regularity_check(family, cfg.noise_model(0.01), n_pairs=1000, n_draws=4000)
    ok = rep["confirmed_violations"] == 0
    return _result(8, "transition-kernel regularity", ok,
                   f"{rep['n_pairs']} (x, A) pairs, worst ratio {rep['worst_ratio']:.3f}, "
                   f"{rep['confirmed_violations']} confirmed violations",
                   t0)


def _brute_force_scan(family, x, om_values, delta, theta, tau, theta0, horizon):
    """Naive re-derivation of the stopping times from full re-iterations.

    It keeps to eval and derivatives rather than PerturbedFamily.step, so that
    it stays an oracle independent of the kernel the scans use.
    """
    params = family.base
    grid = default_scale_grid(params, delta)
    nbs = [critical_neighborhood(params, d) for d in grid]
    nb0 = nbs[0]

    def df_and_a(s):
        df = 1.0
        a = 0.0
        y = x
        for i in range(s):
            a += df / abs(y - params.c)
            d1, _ = family.derivatives(float(om_values[i]), y)
            df *= d1
            y = family.eval(float(om_values[i]), y)
        return y, df, a

    plain = capped = None
    for s in range(1, horizon + 1):
        y, df, a = df_and_a(s)
        if plain is None and nb0.contains(y) and theta * df >= a * nb0.length:
            plain = s
        if capped is None:
            hit = None
            for nb in nbs:
                if nb.contains(y) and theta * df >= a * nb.length:
                    hit = ("theta_good", s)
                    break
            if hit is None and theta0 * df >= math.e * tau * a:
                hit = ("tau_scale", s)
            if hit is not None:
                capped = hit
        if plain is not None and capped is not None:
            break
    return plain, capped


def criterion_09_oracle_equivalence(cfg: ExperimentConfig):
    """Both return scans against the brute-force oracle, in two passes.

    The config's (tau, theta0) stop every sample as theta_good, so a second
    pass at tau 0.05, theta0 0.5 on its own streams exercises the tau-scale
    stop; the criterion fails unless both kinds occur.
    """
    t0 = time.time()
    family = cfg.perturbed_family()
    model = cfg.noise_model(cfg.noise.eps)
    delta, theta, horizon = cfg.scales.delta, 2.0, 300
    passes = ((7_300_000, cfg.scales.tau, cfg.scales.theta0), (7_310_000, 0.05, 0.5))
    mismatches = 0
    kinds = {"theta_good": 0, "tau_scale": 0, None: 0}
    for stream_base, tau, theta0 in passes:
        rng = np.random.default_rng(31)
        for k in range(100):
            x0 = float(rng.uniform(0.05, 0.95))
            stream = model.stream(stream_base + k)
            om = stream.prefix(horizon)
            ev = good_return_time(family, x0, stream, delta, theta, horizon=horizon)
            cap = good_return_or_expansion_time(
                family, x0, stream, delta, theta, tau, horizon=horizon, theta0=theta0,
            )
            plain_bf, capped_bf = _brute_force_scan(family, x0, om, delta, theta, tau, theta0, horizon)
            got_plain = None if ev is None else ev.time
            got_capped = None if cap is None else (cap.kind, cap.time)
            if got_plain != plain_bf or got_capped != capped_bf:
                mismatches += 1
            kinds[None if cap is None else cap.kind] += 1
    ok = mismatches == 0 and kinds["theta_good"] > 0 and kinds["tau_scale"] > 0
    return _result(9, "return-time oracle equivalence", ok,
                   f"200 random (x, omega): {mismatches} mismatches against brute-force scans; "
                   f"capped stops {kinds['theta_good']} theta_good, {kinds['tau_scale']} tau_scale, "
                   f"{kinds[None]} none", t0)


def criterion_10_window_nonlinearity(cfg: ExperimentConfig):
    t0 = time.time()
    family = cfg.perturbed_family()
    model = cfg.noise_model(min(cfg.noise.eps, 0.005))
    theta0 = cfg.scales.theta0
    rng = np.random.default_rng(41)
    worst = 0.0
    count = k = 0
    while count < 100 and k < 3000:
        k += 1
        x0 = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(1, 31))
        om = model.stream(7_400_000 + k).prefix(n)
        rec = random_orbit(family, x0, om, n)
        if rec.hit_critical or rec.n < n or rec.asum[n] <= 0:
            continue
        half = theta0 / rec.asum[n]
        lo, hi = x0 - half, x0 + half
        if lo <= 0.0 or hi >= 1.0:
            continue
        count += 1
        g = np.linspace(lo, hi, 256)
        _, d1, d2 = chain_derivatives(family, om, g, n)
        if np.any(d1 <= 0):
            worst = math.inf
            continue
        worst = max(worst, float(np.max(np.abs(d2) / d1) * (hi - lo)))
    ok = count == 100 and worst <= 0.6
    return _result(10, "distortion-window nonlinearity", ok,
                   f"{count} windows, worst nonlinearity {worst:.3f} (<=0.6, theta0={theta0})", t0)


def criterion_11_koebe(cfg: ExperimentConfig):
    t0 = time.time()
    family = cfg.perturbed_family()
    rng = np.random.default_rng(cfg.noise.seed)
    passed = applicable = 0
    worst = 0.0
    attempts = 0
    while applicable < 100 and attempts < 600:
        attempts += 1
        res = random_koebe_branch(family, rng)
        if res is None or not res.get("applicable"):
            continue
        applicable += 1
        passed += bool(res["passed"])
        worst = max(worst, res["worst_ratio"])
    ok = applicable == 100 and passed == applicable
    return _result(11, "Koebe distortion soundness", ok,
                   f"{passed}/{applicable} precondition-verified branches pass, worst ratio {worst:.2f} "
                   f"(bound {((1 + 1.0) / 1.0) ** 2:.1f})",
                   t0)


def criterion_12_binding(cfg: ExperimentConfig):
    t0 = time.time()
    params = cfg.map_params()
    ok = True
    notes = []
    for v, label in ((params.c1_minus, "c1-"), (params.c1_plus, "c1+")):
        last_m = 0
        ms = []
        for delta in cfg.scales.binding_delta_ladder:
            rec = binding_period(params, v, float(delta), cfg.horizons.binding_horizon)
            if rec is None:
                ok = False
                notes.append(f"{label}@{delta}: none")
                continue
            if not rec.verify(params):
                ok = False
                notes.append(f"{label}@{delta}: witnesses fail re-verification")
            if rec.M < last_m:
                ok = False
                notes.append(f"{label}@{delta}: M decreased ({rec.M} < {last_m})")
            last_m = rec.M
            ms.append(rec.M)
        notes.append(f"{label}: M = {ms}")
    return _result(12, "binding-period witnesses and ladder", ok, "; ".join(notes), t0)


def _maps_onto_target(params: MapParams, row, target, tol) -> bool:
    """True if f^s carries W = (w_lo, w_hi), never straddling c, onto the target's endpoints."""
    lo, hi = row["w_lo"], row["w_hi"]
    try:
        for _ in range(row["s"]):
            if lo < params.c < hi:
                return False
            lo, hi = params.eval(lo), params.eval(hi)
    except CriticalPointEval:
        return False
    return abs(lo - target[0]) <= tol and abs(hi - target[1]) <= tol


def criterion_13_backward_contraction(cfg: ExperimentConfig):
    """BC(2) holds below a measured onset scale, and every violation above it is genuine.

    Backward contraction is a property of all scales below some delta_0 that
    the theory does not bound, so the check scans a geometric ladder, takes
    the onset to be the coarsest rung below which no rung has a violation,
    and requires that clean range to span a factor of 8 with 1000 components
    visited.  Every violation above the onset must be re-verified forward.
    """
    t0 = time.time()
    params = cfg.map_params()
    ladder = [0.01 * 2.0 ** (-k / 2) for k in range(18)]
    s_max = 60
    reps = [
        backward_contraction_check(
            params, r=2.0, delta_ladder=[delta], s_max=s_max,
            sample_budget=cfg.ensemble.bc_budget // 8, seed=cfg.noise.seed,
        )
        for delta in ladder
    ]
    fired = backward_contraction_check(
        NONLD, r=2.0, delta_ladder=[0.01], s_max=10, sample_budget=400, seed=cfg.noise.seed,
    )
    per_rung = {f"{d:.2e}": len(rep["violations"]) for d, rep in zip(ladder, reps) if rep["violations"]}
    unverified = 0
    for delta, rep in zip(ladder, reps):
        target = critical_neighborhood(params, 2.0 * delta).interval()
        for v in rep["violations"]:
            unverified += not _maps_onto_target(params, v, target, tol=1e-6 * delta)
    # every violation lies above the onset by construction
    first_clean = max((k + 1 for k, rep in enumerate(reps) if rep["violations"]), default=0)
    clean = reps[first_clean:]
    onset = ladder[first_clean] if clean else None
    span = onset / ladder[-1] if clean else 0.0
    clean_components = sum(rep["components_visited"] for rep in clean)
    ok = (
        unverified == 0
        and span >= 8.0
        and clean_components >= 1000
        and len(fired["violations"]) > 0
    )
    onset_note = (
        f"onset {onset:.2e}: no violation on the {len(clean)} rungs down to {ladder[-1]:.2e} "
        f"(factor {span:.1f}, >=8; {clean_components} components, >=1000)"
        if clean else "no clean rung at the bottom of the ladder"
    )
    details = (
        f"BC(2) {onset_note}; violations above the onset {per_rung}, "
        f"{sum(per_rung.values()) - unverified} re-verified forward (W maps onto B(2 delta) "
        f"in s steps), {unverified} not; "
        f"{sum(rep['components_visited'] for rep in reps)} components over {len(ladder)} rungs "
        f"from {ladder[0]:g}, s_max {s_max}; "
        f"detector fires on the non-LD map ({len(fired['violations'])} hits)"
    )
    return _result(13, "backward contraction check", ok, details, t0)


def criterion_14_nice_set(cfg: ExperimentConfig):
    t0 = time.time()
    family = cfg.perturbed_family()
    s = cfg.scales
    eps = min(cfg.noise.eps, s.delta0)
    model = cfg.noise_model(eps)
    nb = critical_neighborhood(family.base, s.delta0)
    nb2 = critical_neighborhood(family.base, 2.0 * s.delta0)
    ok = True
    notes = []
    n_violations = 0
    for k in range(20):
        ns = build_nice_set(
            family, s.delta0, model.stream(4_000_000 + k),
            depth=cfg.horizons.nice_depth, verify_horizon=cfg.horizons.verify_horizon,
        )
        if not ns.containment_ok:
            ok = False
            notes.append(f"omega {k}: containment broken")
        for n, (lo, hi) in enumerate(ns.intervals):
            if not (nb2.lo - 1e-9 <= lo <= nb.lo + 1e-9 and nb.hi - 1e-9 <= hi <= nb2.hi + 1e-9):
                ok = False
                notes.append(f"omega {k} depth {n}: interval escapes the containment band")
                break
        n_violations += len(ns.meta.get("violations", []))
    if n_violations:
        ok = False
    return _result(14, "nice-set containment and boundary niceness", ok,
                   "; ".join(notes) or
                   f"20 fibers: containment at every depth, 0 boundary violations to horizon "
                   f"{cfg.horizons.verify_horizon} (delta0={s.delta0}, eps={eps})",
                   t0)


def criterion_15_inducing_tail(cfg: ExperimentConfig):
    t0 = time.time()
    family = cfg.perturbed_family()
    s = cfg.scales
    eps = min(cfg.noise.eps, s.delta0)
    model = cfg.noise_model(eps)
    stats = inducing_tail_stats(
        family, model, s.delta0,
        n_members=cfg.ensemble.tail_members,
        horizon=cfg.horizons.tail_horizon,
        theta=s.theta,
        depth=cfg.horizons.nice_depth,
    )
    ms, surv = stats.survival()
    nonincreasing = bool(np.all(np.diff(surv) <= 1e-12))
    fit = stats.loglog_slope()
    slope = fit.get("slope", float("nan"))
    ok = nonincreasing and np.isfinite(slope) and slope <= -1.0
    sub = stats.verified_subsample
    return _result(15, "inducing-time tail", ok,
                   f"{stats.n_members} members, censoring {stats.censoring_fraction:.2%}, "
                   f"slope {slope:.2f} (<=-1) over m in {fit.get('fit_range')}, "
                   f"exact-companion subsample {sub['agree']}/{sub['checked']} "
                   f"({stats.meta['inside_hull']} fibers inside the hull)",
                   t0)


def criterion_16_determinism(cfg: ExperimentConfig):
    import filecmp
    import json as _json
    import tempfile

    from . import cli

    t0 = time.time()
    small = ExperimentConfig()
    small.noise.seed = cfg.noise.seed
    small.ensemble.n_orbits = 4
    small.ensemble.returns_samples = 20
    small.ensemble.birkhoff_steps = 200_000
    small.ensemble.burn_in = 1_000
    small.partition.n_bins = 64
    small.horizons.orbit_steps = 100
    small.horizons.return_horizon = 500
    ok = True
    notes = []
    for sub in ("simulate", "returns", "binding", "density"):
        runs = []
        with (tempfile.TemporaryDirectory(prefix=f"lorenzlab_{sub}_0_") as d1,
              tempfile.TemporaryDirectory(prefix=f"lorenzlab_{sub}_1_") as d2):
            for d in (d1, d2):
                outputs, _ = cli.SUBCOMMANDS[sub](small, d)
                with open(cli._write_summary(d, sub, small, outputs, {}, t0), encoding="utf-8") as fh:
                    summary = _json.load(fh)
                summary.pop("timing")
                runs.append((outputs, summary))
            (out1, s1), (out2, s2) = runs
            for p1, p2 in zip(out1, out2):
                if not filecmp.cmp(p1, p2, shallow=False):
                    ok = False
                    notes.append(f"{sub}: {p1} differs between reruns")
        if s1 != s2:
            ok = False
            notes.append(f"{sub}: summaries differ beyond timing")
    return _result(16, "byte-identical replay", ok,
                   "; ".join(notes) or "simulate/returns/binding/density byte-identical across reruns", t0)


CRITERIA = [
    criterion_01_exactness,
    criterion_02_chain_rule,
    criterion_03_schwarzian,
    criterion_04_ulam_stationarity,
    criterion_05_birkhoff_ulam,
    criterion_06_uniqueness,
    criterion_07_stability_trend,
    criterion_08_kernel_regularity,
    criterion_09_oracle_equivalence,
    criterion_10_window_nonlinearity,
    criterion_11_koebe,
    criterion_12_binding,
    criterion_13_backward_contraction,
    criterion_14_nice_set,
    criterion_15_inducing_tail,
    criterion_16_determinism,
]


def run_all(cfg: ExperimentConfig | None = None):
    cfg = cfg if cfg is not None else ExperimentConfig().validate()
    return [fn(cfg) for fn in CRITERIA]
