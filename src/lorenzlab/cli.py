"""Experiment runner: subcommands, deterministic artifacts, replayable runs.

Every subcommand writes CSV data files plus a JSON summary embedding the full
configuration echo, its hash, the master seed and a git-describe string.
Identical (config, seed) pairs produce byte-identical CSV files; the summary
differs only in its timing block.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import subprocess
import sys
import time

import numpy as np

from . import acceptance
from .config import ExperimentConfig, config_hash, load_config
from .errors import ConfigInvalid, NoConvergence
from .expansion import expansion_envelope, mane_estimate, random_koebe_branch, total_distortion_trend
from .inducing import STREAM_NICE, build_nice_set, inducing_tail_stats
from .orbits import random_orbit
from .recurrence import (
    backward_contraction_check,
    binding_period,
    critical_neighborhood,
    depth_trace,
    good_return_or_expansion_time,
    good_return_time,
    landing_time,
)
from .transfer import (
    birkhoff_density,
    build_ulam,
    l1_distance,
    nonincreasing_within_slack,
    partition_for,
    stability_sweep,
    stationary_density,
)

# fixed stream-id bases so artifacts are replayable run to run
STREAM_SIMULATE = 1_000_000
STREAM_RETURNS = 2_000_000
STREAM_DEPTH = 3_000_000

# seconds per named stage of the running subcommand, written under the summary's timing.stages
_stages: dict[str, float] = {}


@contextlib.contextmanager
def _stage(name: str):
    """Time the block into _stages[name], rounded like wall_clock_s."""
    t0 = time.perf_counter()
    yield
    _stages[name] = round(time.perf_counter() - t0, 3)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _write_csv(path: str, header, rows):
    """Write header and rows, quoting the fields that hold a comma, a quote or a newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    return path


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def _write_summary(out_dir, name, cfg, outputs, results, t_start):
    summary = {
        "subcommand": name,
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "seed": cfg.noise.seed,
        "git_describe": _git_describe(),
        "outputs": [os.path.basename(p) for p in outputs],
        "results": results,
        "timing": {"wall_clock_s": round(time.time() - t_start, 3), "stages": dict(_stages)},
    }
    path = os.path.join(out_dir, f"{name}_summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj)}")


def _density_rows(density):
    edges = density.partition.edges
    return [
        (edges[i], edges[i + 1], density.weights[i])
        for i in range(density.partition.n_bins)
    ]


# -- subcommands ------------------------------------------------------------------


def run_simulate(cfg: ExperimentConfig, out_dir: str):
    family = cfg.perturbed_family()
    model = cfg.noise_model(cfg.noise.eps)
    rng = np.random.default_rng(cfg.noise.seed)
    rows = []
    hits = 0
    for k in range(cfg.ensemble.n_orbits):
        x0 = float(rng.uniform(0.05, 0.95))
        rec = random_orbit(family, x0, model.stream(STREAM_SIMULATE + k), cfg.horizons.orbit_steps)
        hits += int(rec.hit_critical)
        for i in range(len(rec.points)):
            noise_val = rec.omega[i] if i < len(rec.omega) else float("nan")
            rows.append((k, i, rec.points[i], noise_val, rec.d1[i], rec.d2[i], rec.asum[i]))
    path = _write_csv(
        os.path.join(out_dir, "orbits.csv"),
        ["orbit", "step", "x", "noise", "d1", "d2", "asum"],
        rows,
    )
    return [path], {"n_orbits": cfg.ensemble.n_orbits, "critical_hits": hits}


def run_density(cfg: ExperimentConfig, out_dir: str):
    family = cfg.perturbed_family()
    part = partition_for(family, cfg.partition.n_bins)
    model = cfg.noise_model(cfg.noise.eps)
    with _stage("assembly_s"):
        matrix = build_ulam(family, model, part)
    with _stage("solve_s"):
        pi, info = stationary_density(matrix)
    with _stage("birkhoff_s"):
        bd, binfo = birkhoff_density(
            family,
            model,
            x0=0.3141,
            n_steps=cfg.ensemble.birkhoff_steps,
            burn_in=cfg.ensemble.burn_in,
            partition=part,
        )
    p1 = _write_csv(os.path.join(out_dir, "ulam_density.csv"), ["bin_left", "bin_right", "weight"], _density_rows(pi))
    p2 = _write_csv(os.path.join(out_dir, "birkhoff_density.csv"), ["bin_left", "bin_right", "weight"], _density_rows(bd))
    results = {
        "mode": matrix.mode,
        "residual": info["residual"],
        "iterations": info["iterations"],
        "l1_birkhoff_vs_ulam": l1_distance(bd, pi),
        "birkhoff_restarts": binfo["restarts"],
    }
    return [p1, p2], results


def run_stability_sweep(cfg: ExperimentConfig, out_dir: str):
    family = cfg.perturbed_family()
    part = partition_for(family, cfg.partition.n_bins)
    rows, zeta0, det_info = stability_sweep(family, cfg.ladder_models(), part)
    p1 = _write_csv(
        os.path.join(out_dir, "stability_sweep.csv"),
        ["eps", "l1", "tv", "residual", "iterations", "error"],
        [(r["eps"], r["l1"], r["tv"], r["residual"], r["iterations"], r["error"]) for r in rows],
    )
    p2 = _write_csv(os.path.join(out_dir, "zeta0.csv"), ["bin_left", "bin_right", "weight"], _density_rows(zeta0))
    distances = [r["l1"] for r in rows]
    results = {
        "distances": distances,
        "det_residual": det_info["residual"],
        "nonincreasing_within_slack": nonincreasing_within_slack(distances),
    }
    return [p1, p2], results


def _good_and_capped_returns(family, x0, stream, delta, theta, tau, theta0, horizon):
    """(good_return_time, good_return_or_expansion_time) of one sample, in one walk where it settles both."""
    cap = good_return_or_expansion_time(
        family, x0, stream, delta, theta, tau, horizon=horizon, theta0=theta0,
    )
    # The capped scan's first rung is delta itself, tested with good_return_time's neighbourhood, log
    # length and walk values, so it stops at or before the theta-good return at delta.  When it runs
    # out, or stops theta-good at delta, that is the return; only a stop at a coarser scale or a
    # tau-scale stop leaves the return to a walk of its own.
    if cap is None:
        return None, None
    if cap.kind == "theta_good" and cap.delta == delta:
        return cap, cap
    return good_return_time(family, x0, stream, delta, theta, horizon=horizon), cap


def run_returns(cfg: ExperimentConfig, out_dir: str):
    family = cfg.perturbed_family()
    model = cfg.noise_model(cfg.noise.eps)
    s = cfg.scales
    rng = np.random.default_rng(cfg.noise.seed)
    rows = []
    for k in range(cfg.ensemble.returns_samples):
        x0 = float(rng.uniform(0.05, 0.95))
        stream = model.stream(STREAM_RETURNS + k)
        land = landing_time(family, x0, stream, s.delta, horizon=cfg.horizons.return_horizon)
        ev, cap = _good_and_capped_returns(
            family, x0, stream, s.delta, s.theta, s.tau, s.theta0, cfg.horizons.return_horizon
        )
        rows.append(
            (
                k,
                x0,
                -1 if land is None else land,
                -1 if ev is None else ev.time,
                "" if ev is None else ev.kind,
                -1 if cap is None else cap.time,
                "" if cap is None else cap.kind,
                float("nan") if cap is None else cap.log_df,
                float("nan") if cap is None else cap.log_asum,
            )
        )
    path = _write_csv(
        os.path.join(out_dir, "returns.csv"),
        ["sample", "x0", "landing", "good_time", "good_kind", "capped_time", "capped_kind", "log_df", "log_asum"],
        rows,
    )
    n_land = sum(1 for r in rows if r[2] >= 0)
    n_capped = sum(1 for r in rows if r[5] >= 0)
    return [path], {"samples": len(rows), "landed": n_land, "capped_stopped": n_capped}


def run_depth(cfg: ExperimentConfig, out_dir: str):
    family = cfg.perturbed_family()
    model = cfg.noise_model(cfg.noise.eps)
    rng = np.random.default_rng(cfg.noise.seed)
    rows = []
    bad_rows = []
    for k in range(cfg.ensemble.depth_traces):
        x0 = float(rng.uniform(0.05, 0.95))
        trace = depth_trace(family, x0, model.stream(STREAM_DEPTH + k), cfg.noise.eps, cfg.horizons.depth_steps)
        for j in range(trace.n + 1):
            rows.append((k, j, trace.points[j], trace.q[j], int(trace.in_nbhd[j]), trace.Q(0, j), trace.visits(0, j)))
        for m in (5, 10, 20):
            bad = trace.bad_membership(m, cfg.scales.kappa)
            bad_rows.append((k, m, cfg.scales.kappa, int(bad["is_bad"]), int(bad["clause1"]), int(bad["clause2_at_horizon"])))
    p1 = _write_csv(
        os.path.join(out_dir, "depth_trace.csv"),
        ["trace", "j", "x", "q", "in_nbhd", "Q_cum", "visits_cum"],
        rows,
    )
    p2 = _write_csv(
        os.path.join(out_dir, "depth_bad.csv"),
        ["trace", "m", "kappa", "is_bad", "clause1", "clause2_at_horizon"],
        bad_rows,
    )
    return [p1, p2], {"traces": cfg.ensemble.depth_traces, "eps": cfg.noise.eps}


def run_binding(cfg: ExperimentConfig, out_dir: str):
    params = cfg.map_params()
    s = cfg.scales
    rows = []
    for v, side in ((params.c1_minus, "minus"), (params.c1_plus, "plus")):
        for delta in s.binding_delta_ladder:
            rec = binding_period(params, v, float(delta), cfg.horizons.binding_horizon)
            if rec is None:
                rows.append((side, delta, -1, float("nan"), float("nan"), float("nan"), 0))
            else:
                rows.append((side, delta, rec.M, rec.asum, rec.df_after, rec.delta_prime, int(rec.verify(params))))
    path = _write_csv(
        os.path.join(out_dir, "binding.csv"),
        ["side", "delta", "M", "asum", "df_after", "delta_prime", "verified"],
        rows,
    )
    return [path], {"rungs": len(rows)}


def run_bc_check(cfg: ExperimentConfig, out_dir: str):
    """Backward contraction BC(2) components at delta = 0.01, 0.005 and 0.0025.

    A clean last rung does not mean BC(2) holds below it: criterion 13 scans
    a finer ladder and finds genuine violations again at delta = 8.8e-4 and
    6.25e-4 (s = 9), with the onset of the clean range at 4.4e-4.
    """
    params = cfg.map_params()
    ladder = [0.01, 0.005, 0.0025]
    rep = backward_contraction_check(
        params, delta_ladder=ladder, s_max=cfg.horizons.bc_smax,
        sample_budget=cfg.ensemble.bc_budget, seed=cfg.noise.seed,
    )
    path = _write_csv(
        os.path.join(out_dir, "bc_components.csv"),
        ["delta", "s", "w_lo", "w_hi", "length", "dist_cv", "order", "violation"],
        [(r["delta"], r["s"], r["w_lo"], r["w_hi"], r["length"], r["dist_cv"], r["order"], int(r["violation"])) for r in rep["rows"]],
    )
    return [path], {
        "components_visited": rep["components_visited"],
        "violations": len(rep["violations"]),
        "ladder": ladder,
    }


def run_nice_set(cfg: ExperimentConfig, out_dir: str):
    family = cfg.perturbed_family()
    s = cfg.scales
    if cfg.noise.eps > s.delta0:
        raise ConfigInvalid([f"noise.eps={cfg.noise.eps} must not exceed scales.delta0={s.delta0} for nice sets"])
    model = cfg.noise_model(cfg.noise.eps)
    rows = []
    verify_summary = []
    for k in range(4):
        ns = build_nice_set(
            family, s.delta0, model.stream(STREAM_NICE + k),
            depth=cfg.horizons.nice_depth, verify_horizon=cfg.horizons.verify_horizon,
        )
        for n, (lo, hi) in enumerate(ns.intervals):
            rows.append((k, n, lo, hi))
        verify_summary.append(
            {
                "omega": k,
                "containment_ok": ns.containment_ok,
                "violations": len(ns.meta.get("violations", [])),
                "boundary": [ns.boundary_lo, ns.boundary_hi],
            }
        )
    path = _write_csv(os.path.join(out_dir, "nice_set.csv"), ["omega", "depth", "lo", "hi"], rows)
    return [path], {"fibers": verify_summary}


def run_inducing_tail(cfg: ExperimentConfig, out_dir: str):
    family = cfg.perturbed_family()
    s = cfg.scales
    if cfg.noise.eps > s.delta0:
        raise ConfigInvalid([f"noise.eps={cfg.noise.eps} must not exceed scales.delta0={s.delta0} for inducing"])
    model = cfg.noise_model(cfg.noise.eps)
    stats = inducing_tail_stats(
        family, model, s.delta0,
        n_members=cfg.ensemble.tail_members,
        horizon=cfg.horizons.tail_horizon,
        theta=s.theta,
        depth=cfg.horizons.nice_depth,
    )
    ms, surv = stats.survival()
    path = _write_csv(
        os.path.join(out_dir, "inducing_tail.csv"),
        ["m", "survival"],
        list(zip(ms, surv)),
    )
    fit = stats.loglog_slope()
    results = {
        "members": stats.n_members,
        "censoring_fraction": stats.censoring_fraction,
        "critical_hits": stats.critical_hits,
        "slope": fit.get("slope"),
        "fit": fit,
        "moment_p2_inducing": stats.moment(2.0),
        "theta_good_censored_fraction": float(np.mean(stats.theta_good_times < 0)),
        "verified_subsample": stats.verified_subsample,
        "hull": list(stats.hull),
    }
    return [path], results


def run_expansion(cfg: ExperimentConfig, out_dir: str):
    family = cfg.perturbed_family()
    params = family.base
    s = cfg.scales
    model = cfg.noise_model(cfg.noise.eps)
    nb = critical_neighborhood(params, s.delta)
    mane_det = mane_estimate(family, None, nb.interval(), n_starts=cfg.ensemble.expansion_starts,
                             horizon=cfg.horizons.mane_horizon, seed=cfg.noise.seed)
    mane_rnd = mane_estimate(family, model, nb.interval(), n_starts=cfg.ensemble.expansion_starts,
                             horizon=cfg.horizons.mane_horizon, seed=cfg.noise.seed)
    models = cfg.ladder_models()
    env_rows = []
    for env_model in models:
        env = expansion_envelope(family, env_model, n_starts=cfg.ensemble.expansion_starts,
                                 horizon=cfg.horizons.envelope_horizon)
        env_rows.append(
            (
                env_model.eps,
                env.get("lambda_hat", float("nan")),
                env.get("prefactor_hat", float("nan")),
                env.get("alpha_hat_case1", float("nan")),
                env.get("alpha_hat_case2", float("nan")),
            )
        )
    dist_rows = total_distortion_trend(
        family, models, n_starts=cfg.ensemble.expansion_starts * 3, horizon=cfg.horizons.envelope_horizon,
    )
    # koebe survey over random pullback branches
    rng = np.random.default_rng(cfg.noise.seed)
    koebe_pass = koebe_app = 0
    worst = 0.0
    for _ in range(cfg.ensemble.koebe_branches):
        res = random_koebe_branch(family, rng)
        if res is None or not res.get("applicable"):
            continue
        koebe_app += 1
        koebe_pass += bool(res["passed"])
        worst = max(worst, res["worst_ratio"])
    p1 = _write_csv(
        os.path.join(out_dir, "expansion_envelopes.csv"),
        ["eps", "lambda_hat", "prefactor_hat", "alpha_hat_case1", "alpha_hat_case2"],
        env_rows,
    )
    p2 = _write_csv(
        os.path.join(out_dir, "distortion_trend.csv"),
        ["eps", "theta_hat", "median", "q90", "n_landings"],
        [(r["eps"], r["theta_hat"], r["median"], r["q90"], r["n_landings"]) for r in dist_rows],
    )
    results = {
        "mane_det": {"lambda": mane_det.lam, "C": mane_det.prefactor, "envelope_ok": mane_det.envelope_holds()},
        "mane_rnd": {"eta": mane_rnd.rate, "K_inv": mane_rnd.prefactor, "envelope_ok": mane_rnd.envelope_holds()},
        "koebe": {"applicable": koebe_app, "passed": koebe_pass, "worst_ratio": worst},
        "distortion_theta_hat": [r["theta_hat"] for r in dist_rows],
    }
    return [p1, p2], results


def run_selftest(cfg: ExperimentConfig, out_dir: str):
    results = acceptance.run_all(cfg)
    rows = []
    for res in results:
        status = "PASS" if res["passed"] else "FAIL"
        print(f"{status} [{res['id']:>2}] {res['name']}: {res['details']} ({res['elapsed']:.1f}s)")
        rows.append((res["id"], res["name"], int(res["passed"]), res["details"], res["elapsed"]))
    path = _write_csv(
        os.path.join(out_dir, "selftest.csv"),
        ["id", "name", "passed", "details", "elapsed_s"],
        rows,
    )
    n_fail = sum(1 for r in results if not r["passed"])
    return [path], {"criteria": len(results), "failed": n_fail}


SUBCOMMANDS = {
    "simulate": run_simulate,
    "density": run_density,
    "stability-sweep": run_stability_sweep,
    "returns": run_returns,
    "depth": run_depth,
    "binding": run_binding,
    "bc-check": run_bc_check,
    "nice-set": run_nice_set,
    "inducing-tail": run_inducing_tail,
    "expansion": run_expansion,
    "selftest": run_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorenzlab",
        description="Numerical laboratory for contracting Lorenz maps under parameter noise",
    )
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override noise.seed")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="dotted-path config override, e.g. --set scales.delta0=0.002",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"error: bad --set {item!r}, expected FIELD=VALUE", file=sys.stderr)
            return 2
        key, value = item.split("=", 1)
        overrides[key] = value
    if args.seed is not None:
        overrides["noise.seed"] = args.seed
    if args.out is not None:
        overrides["output.out_dir"] = args.out
    try:
        cfg = load_config(args.config, overrides)
        cfg.validate()
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = cfg.output.out_dir
    os.makedirs(out_dir, exist_ok=True)
    _stages.clear()
    t0 = time.time()
    try:
        outputs, results = SUBCOMMANDS[args.subcommand](cfg, out_dir)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = _write_summary(out_dir, args.subcommand.replace("-", "_"), cfg, outputs, results, t0)
    print(f"wrote {len(outputs)} artifact(s) + {os.path.basename(summary)} to {out_dir}")
    if args.subcommand == "selftest" and results.get("failed", 0) > 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
