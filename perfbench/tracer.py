"""Spans and counters wrapped around lorenzlab's public functions from outside.

Nothing under ``src/`` changes: :meth:`Tracer.install` replaces each traced
function under every name it is looked up by (module globals, class
attributes and the CLI's subcommand table), so calls made through any of
those names are counted.

Each call of a traced function opens a span.  A span's busy time is its
duration; its self time is the busy time minus the busy time of the traced
calls made inside it.  Functions marked ``hot`` run millions of times in a
workload, so only their aggregates (calls, busy, self) are kept; every other
call is kept as a span record ``(id, name, start, end, parent, run_id)``.
All of it stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

# VerificationFailed messages from lorenzlab.inducing.verify_markov_time, by
# the reason name the benchmark reports them under.
FAIL_REASONS = {
    "critical_guard": "critical guard",
    "endpoint_outside": "endpoint is outside",
    "pullback_empty": "pullback degenerated",
    "clips_critical": "clips the critical point",
    "misses_start": "does not contain the starting point",
    "not_orientation_preserving": "not orientation-preserving",
    "nonlinearity": "nonlinearity",
    "below_floor": "below floor",
}

# CLI subcommands a workload can run, in the order the CLI lists them.
SUBCOMMANDS = (
    "simulate", "density", "stability-sweep", "returns", "depth", "binding",
    "bc-check", "nice-set", "inducing-tail", "expansion",
)

ROOT = "workload"


def classify_failure(message: str) -> str:
    for reason, needle in FAIL_REASONS.items():
        if needle in message:
            return reason
    return "unclassified"


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(float)  # (parent name, child name) -> busy seconds
        self.counters = defaultdict(int)
        self.spans = []
        # one frame per open span: [name, span id or None, child busy seconds]
        self._stack = [[None, None, 0.0]]
        self._installed = []

    # -- spans -------------------------------------------------------------

    def _open(self, name, record):
        span_id = len(self.spans) if record else None
        if record:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans.append([span_id, name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append([name, span_id, 0.0])
        return time.perf_counter()

    def _close(self, name, t0):
        t1 = time.perf_counter()
        frame = self._stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_time[name] += dur - frame[2]
        parent = self._stack[-1]
        parent[2] += dur
        self.edges[(parent[0], name)] += dur
        if frame[1] is not None:
            self.spans[frame[1]][3] = t1

    @contextlib.contextmanager
    def span(self, name):
        """A span that is not a wrapped call (the root)."""
        t0 = self._open(name, True)
        try:
            yield
        finally:
            self._close(name, t0)

    def wrap(self, name, fn, hot=False, on_call=None, on_return=None, on_error=None):
        """Wrapper of fn that records one span per call and runs the hooks."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            t0 = tracer._open(name, not hot)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, t0)
                if on_error is not None:
                    on_error(tracer, exc, args, kwargs)
                raise
            tracer._close(name, t0)
            if on_return is not None:
                on_return(tracer, result, args, kwargs)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function under every name lorenzlab looks it up by."""
        import lorenzlab
        from lorenzlab import (acceptance, cli, config, expansion, inducing, maps, noise, orbits,
                               recurrence, transfer)

        modules = [lorenzlab, acceptance, cli, config, expansion, inducing, maps, noise, orbits,
                   recurrence, transfer]

        def patch_function(module, attr, name, **hooks):
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, **hooks)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, value))
                        setattr(mod, key, wrapper)
            for key, value in list(cli.SUBCOMMANDS.items()):
                if value is original:
                    self._installed.append((cli.SUBCOMMANDS, key, value))
                    cli.SUBCOMMANDS[key] = wrapper

        def patch_method(cls, attr, name, **hooks):
            original = cls.__dict__[attr]
            self._installed.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, **hooks))

        patch_method(config.ExperimentConfig, "validate", "config.validate")

        for sub in SUBCOMMANDS:
            attr = "run_" + sub.replace("-", "_")
            patch_function(cli, attr, f"cli.{sub}")
        patch_function(cli, "_write_csv", "cli.write_csv", on_return=_count_csv_bytes)
        patch_function(cli, "_write_summary", "cli.write_summary")

        patch_method(noise.NoiseModel, "_draw", "noise.draw", hot=True, on_call=_count_draws)
        patch_method(noise.NoiseStream, "prefix", "noise.prefix", hot=True)

        patch_function(transfer, "birkhoff_density", "transfer.birkhoff",
                       on_call=_count_birkhoff_steps, on_return=_count_restarts)
        patch_function(transfer, "build_ulam", "transfer.build_ulam")
        patch_function(transfer, "stationary_density", "transfer.stationary",
                       on_return=_count_iterations, on_error=_count_iterations_failed)

        patch_method(maps.PerturbedFamily, "eval", "maps.eval", hot=True)
        patch_method(maps.PerturbedFamily, "eval_vec", "maps.eval_vec", hot=True, on_call=_count_elems)
        patch_method(maps.PerturbedFamily, "inverse_branch", "maps.inverse_branch", hot=True)
        patch_function(maps, "brentq", "maps.brentq", hot=True)

        patch_function(orbits, "random_orbit", "orbits.random_orbit")

        # positional index of ``horizon`` in each stopping-time scan's signature
        for attr, horizon_index in (
            ("landing_time", 5), ("good_return_time", 6), ("good_return_or_expansion_time", 7),
        ):
            on_return, on_error = _scan_counters(horizon_index)
            patch_function(recurrence, attr, f"recurrence.{attr}", on_return=on_return, on_error=on_error)
        patch_function(recurrence, "pullback_component", "recurrence.pullback",
                       on_call=_count_pullback_steps)
        patch_function(recurrence, "backward_contraction_check", "recurrence.bc_check",
                       on_return=_count_components)

        patch_function(inducing, "inducing_tail_stats", "inducing.tail")
        patch_function(inducing, "estimate_companion_hull", "inducing.hull")
        patch_function(inducing, "verify_markov_time", "inducing.verify", on_error=_count_failure)
        patch_function(inducing, "build_nice_set", "inducing.nice_set", on_return=_count_mp)

        patch_function(expansion, "mane_estimate", "expansion.mane")
        patch_function(expansion, "expansion_envelope", "expansion.envelope")
        patch_function(expansion, "total_distortion_trend", "expansion.distortion_trend")
        patch_function(expansion, "koebe_check", "expansion.koebe")
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: str):
        data = {
            "run_id": self.run_id,
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "edges": [[p, c, s] for (p, c), s in self.edges.items()],
            "counters": dict(self.counters),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


# -- hooks: counters read at the call boundary ---------------------------------


def _count_csv_bytes(tracer, path, args, kwargs):
    tracer.counters["cli.artifact_bytes"] += os.path.getsize(path)


def _count_draws(tracer, args, kwargs):
    n = args[2] if len(args) > 2 else kwargs["n"]
    tracer.counters["noise.draws"] += int(n)


def _count_birkhoff_steps(tracer, args, kwargs):
    n = args[3] if len(args) > 3 else kwargs["n_steps"]
    tracer.counters["transfer.birkhoff.steps"] += int(n)


def _count_restarts(tracer, result, args, kwargs):
    tracer.counters["transfer.birkhoff.restarts"] += int(result[1]["restarts"])


def _count_iterations(tracer, result, args, kwargs):
    tracer.counters["transfer.stationary.power_iterations"] += int(result[1]["iterations"])


def _count_iterations_failed(tracer, exc, args, kwargs):
    iterations = getattr(exc, "iterations", None)
    if iterations is not None:
        tracer.counters["transfer.stationary.power_iterations"] += int(iterations)


def _count_elems(tracer, args, kwargs):
    x = args[2] if len(args) > 2 else kwargs["x"]
    tracer.counters["maps.eval_vec.elems"] += int(getattr(x, "size", 1))


def _scan_counters(horizon_index):
    """Hooks counting one stopping-time scan and the steps it took."""

    def on_return(tracer, result, args, kwargs):
        if result is None:  # ran to the horizon
            steps = args[horizon_index] if len(args) > horizon_index else kwargs["horizon"]
        else:
            steps = result if isinstance(result, int) else result.time
        tracer.counters["recurrence.scan.calls"] += 1
        tracer.counters["recurrence.scan.steps"] += int(steps)

    def on_error(tracer, exc, args, kwargs):
        step = getattr(exc, "step", None)  # CriticalHit carries the step it stopped at
        if step is not None:
            tracer.counters["recurrence.scan.calls"] += 1
            tracer.counters["recurrence.scan.steps"] += int(step) + 1

    return on_return, on_error


def _count_pullback_steps(tracer, args, kwargs):
    s = args[2] if len(args) > 2 else kwargs["s"]
    tracer.counters["recurrence.pullback.steps"] += int(s)


def _count_components(tracer, result, args, kwargs):
    tracer.counters["recurrence.bc_check.components"] += int(result["components_visited"])


def _count_failure(tracer, exc, args, kwargs):
    from lorenzlab.errors import VerificationFailed

    if isinstance(exc, VerificationFailed):
        tracer.counters["inducing.verify.fail." + classify_failure(str(exc))] += 1


def _count_mp(tracer, result, args, kwargs):
    refine = result.meta.get("boundary_refinement")
    if not refine:
        return
    for side_meta in refine.values():
        tracer.counters["inducing.mp.orbits_used"] += int(side_meta["orbits_used"])
        tracer.counters["inducing.mp.avoidance_steps"] += int(side_meta["achieved_avoidance"])
        tracer.counters["inducing.mp.bits"] = max(tracer.counters["inducing.mp.bits"], int(side_meta["bits"]))


# -- per-layer metrics ------------------------------------------------------------


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(trace: dict, untraced_wall_s: float) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``, from one trace.

    Layers a workload does not use report 0.
    """
    calls, busy, self_s, n = trace["calls"], trace["busy"], trace["self"], trace["counters"]

    def c(name):
        return calls.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    def s(name):
        return self_s.get(name, 0.0)

    def k(name):
        return n.get(name, 0)

    out = {"config.validate_s": (b("config.validate"), "s")}
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.busy_s"] = (b(f"cli.{sub}"), "s")
    out["cli.write_s"] = (b("cli.write_csv") + b("cli.write_summary"), "s")
    out["cli.artifact_bytes"] = (k("cli.artifact_bytes"), "bytes")

    out["noise.draws"] = (k("noise.draws"), "count")
    out["noise.prefix.calls"] = (c("noise.prefix"), "count")
    out["noise.prefix.self_s"] = (s("noise.prefix"), "s")
    out["noise.prefix.ns_per_draw"] = (_ratio(s("noise.prefix"), k("noise.draws"), 1e9), "ns")

    steps = k("transfer.birkhoff.steps")
    out["transfer.birkhoff.steps"] = (steps, "count")
    out["transfer.birkhoff.self_s"] = (s("transfer.birkhoff"), "s")
    out["transfer.birkhoff.ns_per_step"] = (_ratio(s("transfer.birkhoff"), steps, 1e9), "ns")
    out["transfer.birkhoff.restarts"] = (k("transfer.birkhoff.restarts"), "count")
    out["transfer.build_ulam.calls"] = (c("transfer.build_ulam"), "count")
    out["transfer.build_ulam.busy_s"] = (b("transfer.build_ulam"), "s")
    out["transfer.stationary.busy_s"] = (b("transfer.stationary"), "s")
    out["transfer.stationary.power_iterations"] = (k("transfer.stationary.power_iterations"), "count")

    out["maps.eval.calls"] = (c("maps.eval"), "count")
    out["maps.eval.ns_per_call"] = (_ratio(s("maps.eval"), c("maps.eval"), 1e9), "ns")
    out["maps.eval_vec.elems"] = (k("maps.eval_vec.elems"), "count")
    out["maps.eval_vec.ns_per_elem"] = (_ratio(s("maps.eval_vec"), k("maps.eval_vec.elems"), 1e9), "ns")
    out["maps.inverse_branch.calls"] = (c("maps.inverse_branch"), "count")
    out["maps.inverse_branch.us_per_call"] = (
        _ratio(b("maps.inverse_branch"), c("maps.inverse_branch"), 1e6), "us")
    out["maps.brentq.calls"] = (c("maps.brentq"), "count")

    out["orbits.random_orbit.busy_s"] = (b("orbits.random_orbit"), "s")

    scans = ("recurrence.landing_time", "recurrence.good_return_time",
             "recurrence.good_return_or_expansion_time")
    scan_steps = k("recurrence.scan.steps")
    out["recurrence.scan.calls"] = (k("recurrence.scan.calls"), "count")
    out["recurrence.scan.steps"] = (scan_steps, "count")
    out["recurrence.scan.ns_per_step"] = (_ratio(sum(b(x) for x in scans), scan_steps, 1e9), "ns")
    pull_steps = k("recurrence.pullback.steps")
    out["recurrence.pullback.calls"] = (c("recurrence.pullback"), "count")
    out["recurrence.pullback.steps"] = (pull_steps, "count")
    out["recurrence.pullback.us_per_step"] = (_ratio(b("recurrence.pullback"), pull_steps, 1e6), "us")
    out["recurrence.bc_check.components"] = (k("recurrence.bc_check.components"), "count")
    out["recurrence.bc_check.busy_s"] = (b("recurrence.bc_check"), "s")

    verify_calls = c("inducing.verify")
    failed = sum(k("inducing.verify.fail." + r) for r in FAIL_REASONS) + k("inducing.verify.fail.unclassified")
    out["inducing.tail.self_s"] = (s("inducing.tail"), "s")
    out["inducing.hull.busy_s"] = (b("inducing.hull"), "s")
    out["inducing.verify.calls"] = (verify_calls, "count")
    out["inducing.verify.accepted"] = (verify_calls - failed, "count")
    out["inducing.verify.accept_ratio"] = (_ratio(verify_calls - failed, verify_calls), "ratio")
    out["inducing.verify.us_per_call"] = (_ratio(b("inducing.verify"), verify_calls, 1e6), "us")
    for reason in FAIL_REASONS:
        out[f"inducing.verify.fail.{reason}"] = (k("inducing.verify.fail." + reason), "count")
    out["inducing.nice_set.calls"] = (c("inducing.nice_set"), "count")
    out["inducing.nice_set.busy_s"] = (b("inducing.nice_set"), "s")
    out["inducing.mp.orbits_used"] = (k("inducing.mp.orbits_used"), "count")
    out["inducing.mp.bits"] = (k("inducing.mp.bits"), "bits")
    out["inducing.mp.avoidance_steps"] = (k("inducing.mp.avoidance_steps"), "count")

    out["expansion.mane.busy_s"] = (b("expansion.mane"), "s")
    out["expansion.envelope.busy_s"] = (b("expansion.envelope"), "s")
    out["expansion.distortion_trend.busy_s"] = (b("expansion.distortion_trend"), "s")
    out["expansion.koebe.calls"] = (c("expansion.koebe"), "count")

    out["trace.overhead_ratio"] = (_ratio(b(ROOT), untraced_wall_s), "ratio")
    return out


def load_checks(workload: str, trace: dict, metrics: dict) -> list:
    """``(statement, holds)`` pairs confirming a workload loads its chosen layer."""
    wall = trace["busy"].get(ROOT, 0.0)

    def v(name):
        return metrics[name][0]

    if workload == "density-noisy":
        share = _ratio(v("noise.prefix.self_s"), wall)
        return [(f"noise.prefix.self_s is {share:.0%} of the traced wall time (> 50%)", share > 0.5)]
    if workload == "nice-set":
        share = _ratio(v("inducing.nice_set.busy_s"), wall)
        return [(f"inducing.nice_set.busy_s is {share:.0%} of the traced wall time (> 50%)", share > 0.5)]
    if workload == "inducing-tail":
        parts = {child: t for parent, child, t in trace["edges"] if parent == "inducing.tail"}
        parts["inducing.tail (self)"] = trace["self"].get("inducing.tail", 0.0)
        parts["inducing.verify"] = v("inducing.verify.us_per_call") * v("inducing.verify.calls") / 1e6
        largest = max(parts, key=parts.get)
        share = _ratio(parts["inducing.verify"], wall)
        return [(f"inducing.verify ({share:.0%} of the traced wall time) is the largest share of "
                 f"inducing.tail; largest is {largest}", largest == "inducing.verify")]
    if workload == "lab-desk":
        idle = [name for name in ("inducing.verify.calls", "inducing.mp.bits", "transfer.birkhoff.steps")
                if v(name)]
        return [
            (f"recurrence scans ran {v('recurrence.scan.steps')} steps", v("recurrence.scan.steps") > 0),
            (f"tail verification, mp tracking and Birkhoff stay idle (busy: {idle})", not idle),
        ]
    return []
