"""Experiment configuration: one dataclass tree, JSON round-trip, validation.

Every run artifact embeds the configuration echo and its hash so results can
be replayed bit for bit.  Validation happens up front and collects all
problems instead of failing at the first one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .errors import ConfigInvalid, CriticalHit
from .maps import MapParams, PerturbedFamily, summability_stats
from .noise import NoiseModel
from .inducing import markov_theta_cap
from .recurrence import DELTA_STAR, scale_cap

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
    tau: float = 1.0            # scale-expansion constant
    delta: float = 0.009        # generic return scale
    delta0: float = 0.002       # nice-set / inducing scale
    kappa: float = 5.0          # depth bad-set constant
    # the binding-period constants (theta, L, zeta) come from the map through
    # recurrence.binding_constants; the halving ladder is deep enough that the
    # preferred binding period exists at every rung (the defining inequalities
    # are satisfiable only well below desk scales for the canonical map)
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

    def noise_model(self, eps: float) -> NoiseModel:
        return NoiseModel(eps=eps, kind=self.noise.kind, seed=self.noise.seed)

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
            cap = scale_cap(params)
            for name, val in (("delta", s.delta), ("delta0", s.delta0)):
                if not 0.0 < val < cap:
                    problems.append(f"scales.{name}: {val} outside (0, {cap:.4g})")
            for label, v in (("c1-", params.c1_minus), ("c1+", params.c1_plus)):
                try:
                    summable = not summability_stats(params, v, 400)["ld_flag"]
                except CriticalHit:
                    summable = False
                if not summable:
                    problems.append(
                        f"map: critical value {label} fails the summability check "
                        "(its 400-step orbit hits c, or Df^n drops below 1 on the orbit's second half)"
                    )
        if self.map.ell > 1.0:
            cap = markov_theta_cap(self.map.ell, s.theta0)
            if not 0.0 < s.theta < cap:
                problems.append(f"scales.theta: {s.theta} outside the inducing cap (0, {cap:.4g})")
        for rung in s.binding_delta_ladder:
            if not 0.0 < rung < DELTA_STAR:
                problems.append(f"scales.binding_delta_ladder: rung {rung} outside (0, {DELTA_STAR})")
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


def _real(value) -> float:
    """float(value), refusing booleans, which float() would read as 1.0 and 0.0."""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _flatten(data: dict, prefix: str = "") -> dict:
    """Nested JSON sections as dotted keys: {"noise": {"eps": 0.1}} -> {"noise.eps": 0.1}."""
    flat = {}
    for key, value in data.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an optional JSON file plus dotted-path overrides.

    The file's fields and the overrides (which win) go through the same checks
    and type coercion; a bad field or value raises ConfigInvalid.
    """
    cfg = ExperimentConfig()
    settings = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigInvalid([f"{path}: {exc}"]) from exc
        if not isinstance(data, dict):
            raise ConfigInvalid([f"{path}: expected a JSON object of config sections"])
        settings = _flatten(data)
    settings.update(overrides or {})
    for dotted, value in settings.items():
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
                    value = value.split(",")
                value = tuple(_real(tok) for tok in value)
            elif isinstance(old, int):
                value = int(str(value))  # refuses 64.5 and true, which int() would truncate
            elif isinstance(old, float):
                value = _real(value)
            elif not isinstance(value, str):
                raise TypeError(value)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid([f"{dotted}: {value!r} is not a valid {type(old).__name__}"]) from exc
        setattr(target, name, value)
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
