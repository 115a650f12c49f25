"""Experiment configuration: one dataclass tree, JSON round-trip, validation.

Every run artifact embeds the configuration echo and its hash so results can
be replayed bit for bit.  Validation happens up front and collects all
problems instead of failing at the first one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigInvalid

from .maps import MapParams, PerturbedFamily, summability_stats

__all__ = ["ExperimentConfig", "load_config", "config_hash"]


@dataclass
class MapConfig:
    c: float = 0.5
    ell: float = 2.0
    u: float = 0.9
    v: float = 0.9


@dataclass
class FamilyConfig:
    taper_margin: float = 0.05


@dataclass
class NoiseConfig:
    kind: str = "uniform"
    eps: float = 0.001
    eps_ladder: tuple = (0.02, 0.01, 0.005, 0.0025)
    L: float = 2.0
    seed: int = 20240901


@dataclass
class PartitionConfig:
    n_bins: int = 512


@dataclass
class EnsembleConfig:
    n_orbits: int = 16
    returns_samples: int = 200
    depth_traces: int = 8
    bc_budget: int = 4000
    koebe_branches: int = 100
    expansion_starts: int = 400
    tail_members: int = 100_000
    birkhoff_steps: int = 10_000_000
    burn_in: int = 10_000


@dataclass
class HorizonConfig:
    orbit_steps: int = 200
    return_horizon: int = 4000
    depth_steps: int = 400
    binding_horizon: int = 2000
    bc_smax: int = 30
    nice_depth: int = 48
    verify_horizon: int = 1000
    tail_horizon: int = 4096
    mane_horizon: int = 200
    envelope_horizon: int = 2000


@dataclass
class ScaleConfig:
    theta: float = 0.001        # distortion constant for good returns / inducing
    theta0: float = 0.01        # distortion-window constant (half-width theta0/A)
    theta1: float = 0.0919      # binding-period smallness budget (1/(4e))
    tau: float = 1.0            # scale-expansion constant
    delta: float = 0.009        # generic return scale
    delta0: float = 0.002       # nice-set / inducing scale
    delta_star: float = 0.05    # reference scale for the distance convention
    kappa: float = 5.0          # depth bad-set constant
    L_binding: float = 16.0     # binding-period exclusion factor (> 2**(ell+1))
    zeta: float = 0.25          # binding-period derivative exponent (< 1/ell)
    binding_theta: float = 0.008
    # halving ladder deep enough that the preferred binding period exists at
    # every rung (the defining inequalities are satisfiable only well below
    # desk scales for the canonical map)
    binding_delta_ladder: tuple = (3.125e-12, 1.5625e-12, 7.8125e-13, 3.90625e-13)


@dataclass
class OutputConfig:
    out_dir: str = "out"


@dataclass
class ExperimentConfig:
    map: MapConfig = field(default_factory=MapConfig)
    family: FamilyConfig = field(default_factory=FamilyConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    horizons: HorizonConfig = field(default_factory=HorizonConfig)
    scales: ScaleConfig = field(default_factory=ScaleConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    # -- construction helpers -------------------------------------------------

    def map_params(self) -> MapParams:
        m = self.map
        return MapParams(c=m.c, ell=m.ell, u=m.u, v=m.v)

    def perturbed_family(self) -> PerturbedFamily:
        return PerturbedFamily(self.map_params(), margin=self.family.taper_margin)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def validate(self) -> "ExperimentConfig":
        problems = []
        params = family = None
        try:
            params = self.map_params()
        except ValueError as exc:
            problems.append(f"map: {exc}")
        if params is not None:
            try:
                family = self.perturbed_family()
            except ValueError as exc:
                problems.append(f"family: {exc}")
        n = self.noise
        if n.kind not in ("uniform", "triangular"):
            problems.append(f"noise.kind: unknown kind {n.kind!r}")
        if not n.eps > 0:
            problems.append("noise.eps: must be positive")
        if not n.L > 1.0:
            problems.append("noise.L: must exceed 1")
        ladder = tuple(float(e) for e in n.eps_ladder)
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            problems.append("noise.eps_ladder: must be sorted in descending order")
        if family is not None:
            if n.eps > family.eps_max:
                problems.append(
                    f"noise.eps: {n.eps} exceeds eps_max={family.eps_max:.4g} of the family"
                )
            for rung in ladder:
                if rung > family.eps_max:
                    problems.append(f"noise.eps_ladder: rung {rung} exceeds eps_max")
        if self.partition.n_bins < 16:
            problems.append("partition.n_bins: must be at least 16")
        s = self.scales
        if params is not None:
            scale_cap = min(params.u - (1.0 - params.v), params.u, params.v)
            for name, val in (("delta", s.delta), ("delta0", s.delta0), ("delta_star", s.delta_star)):
                if not 0.0 < val < scale_cap:
                    problems.append(f"scales.{name}: {val} outside (0, {scale_cap:.4g})")
            if not 0.0 < s.zeta < 1.0 / params.ell:
                problems.append(f"scales.zeta: {s.zeta} outside (0, 1/ell)")
            if not s.L_binding > 2.0 ** (params.ell + 1.0):
                problems.append(
                    f"scales.L_binding: {s.L_binding} must exceed 2**(ell+1)="
                    f"{2.0 ** (params.ell + 1.0):.4g}"
                )
        if self.map.ell > 1.0:
            kappa = 2.0 ** (1.0 / self.map.ell)
            cap = min(s.theta0 / (4.0 * kappa), 1.0 / (kappa**2 * math.e**3))
            if not 0.0 < s.theta < cap:
                problems.append(f"scales.theta: {s.theta} outside the inducing cap (0, {cap:.4g})")
        if family is not None and params is not None:
            try:
                w0 = max(
                    summability_stats(params, params.c1_minus, 400)["S_N"],
                    summability_stats(params, params.c1_plus, 400)["S_N"],
                )
                if 4.0 * s.binding_theta * w0 > s.theta1:
                    problems.append(
                        f"scales.binding_theta: 4*theta*W0={4.0 * s.binding_theta * w0:.4g} "
                        f"exceeds theta1={s.theta1}"
                    )
            except Exception as exc:  # critical orbit hit c: cannot estimate W0
                problems.append(f"scales.binding_theta: W0 estimate failed ({exc})")
            for rung in s.binding_delta_ladder:
                if not 0.0 < rung < s.delta_star:
                    problems.append(f"scales.binding_delta_ladder: rung {rung} out of range")
        if not s.kappa > 1.0:
            problems.append("scales.kappa: must exceed 1")
        if not s.tau > 0.0:
            problems.append("scales.tau: must be positive")
        if not 0.0 < s.theta0 < 1.0:
            problems.append("scales.theta0: must lie in (0, 1)")
        e = self.ensemble
        if e.burn_in >= e.birkhoff_steps:
            problems.append("ensemble.burn_in: must be smaller than birkhoff_steps")
        if problems:
            raise ConfigInvalid(problems)
        return self


def _update_nested(obj, data: dict, path=""):
    for key, value in data.items():
        if not hasattr(obj, key):
            raise ConfigInvalid([f"unknown config field {path}{key}"])
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current) and isinstance(value, dict):
            _update_nested(current, value, path=f"{path}{key}.")
        else:
            if isinstance(current, tuple) and isinstance(value, list):
                value = tuple(value)
            setattr(obj, key, value)


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an optional JSON file plus dotted-path overrides."""
    cfg = ExperimentConfig()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            _update_nested(cfg, json.load(fh))
    for dotted, value in (overrides or {}).items():
        *sections, name = dotted.split(".")
        target = cfg
        for part in sections:
            target = getattr(target, part, None)
            if not dataclasses.is_dataclass(target):
                raise ConfigInvalid([f"unknown config field {dotted}"])
        if name not in {f.name for f in dataclasses.fields(target)}:
            raise ConfigInvalid([f"unknown config field {dotted}"])
        old = getattr(target, name)
        if dataclasses.is_dataclass(old):
            raise ConfigInvalid([f"{dotted} is a config section, not a field"])
        try:
            if isinstance(old, tuple):
                if isinstance(value, str):
                    value = tuple(float(tok) for tok in value.split(","))
                else:
                    value = tuple(value)
            elif isinstance(old, bool):
                value = value in (True, "true", "True", "1", 1)
            elif isinstance(old, int):
                value = int(value)
            elif isinstance(old, float):
                value = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid([f"{dotted}: {value!r} is not a valid {type(old).__name__}"]) from exc
        setattr(target, name, value)
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
