"""Run configuration: file parsing, validation, environment construction.

Config files are JSON or YAML.  A text that parses as JSON is read as
JSON, strictly: NaN and infinities are rejected, and exponents need no
dot (``2e-1`` is a number, where YAML 1.1 reads a string).  Any other
text is read as YAML, whose parser is imported only then.  Unknown keys
are rejected by name; serialization round-trips losslessly through
JSON, and the canonical dump's SHA-256 is embedded in every output
file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import environments as envs

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "config_hash",
    "build_environment",
]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


@dataclass(frozen=True)
class RunConfig:
    environment: dict
    delta: float
    horizon: int | None = None
    index_tol: float = 1e-9
    tail_eps: float = 1e-4
    quad_nodes: int = 16
    fee_rollouts: int = 2000
    audit_paths: int = 200
    audit_fee_paths: int = 128
    audit_episodes: int = 2000
    coupling_seeds: int = 200
    theta_grid_points: int = 9
    assumption_grid: int = 64
    master_seed: int = 0
    output_dir: str = "out"
    schema_version: int = SCHEMA_VERSION


_FLOAT_FIELDS = ("delta", "index_tol", "tail_eps")

_POSITIVE_FIELDS = (
    "index_tol",
    "tail_eps",
    "quad_nodes",
    "fee_rollouts",
    "audit_paths",
    "audit_fee_paths",
    "audit_episodes",
    "coupling_seeds",
    "theta_grid_points",
    "assumption_grid",
)

_ENV_NAMES = ("sponsored_search", "finite_chain", "ar1")

_ENV_PARAM_KEYS = {
    "sponsored_search": {
        "k",
        "theta_bar",
        "click_prior",
        "purchase_prior",
        "cap",
        "distribution",
    },
    "finite_chain": {"k", "g", "h", "value", "distribution", "e_labels", "rho_labels"},
    "ar1": {
        "k",
        "coeff",
        "shock",
        "distribution",
        "grid_step",
        "alloc_cap",
    },
}


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _not_finite(token: str):
    raise ConfigError(f"cannot parse config: {token} is not a finite number")


def _finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        _not_finite(token)
    return x


def _load(text: str):
    """The config text as JSON, or as YAML when it is not JSON."""
    try:
        return json.loads(text, parse_float=_finite_float, parse_constant=_not_finite)
    except json.JSONDecodeError:
        pass
    import yaml  # only non-JSON configs pay for the YAML parser

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc


def parse_config_text(text: str) -> RunConfig:
    raw = _load(text)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    allowed = set(RunConfig.__dataclass_fields__)
    _reject_unknown(raw, allowed, "config")
    if "environment" not in raw:
        raise ConfigError("missing required key 'environment'")
    if "delta" not in raw:
        raise ConfigError("missing required key 'delta'")
    # YAML 1.1 reads bare scientific notation like 1e-8 as a string
    for key, val in list(raw.items()):
        if key in _FLOAT_FIELDS and isinstance(val, str):
            try:
                raw[key] = float(val)
            except ValueError as exc:
                raise ConfigError(f"{key} must be a number, got {val!r}") from exc
    cfg = RunConfig(**raw)
    _validate(cfg)
    return cfg


def parse_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text())


def _validate(cfg: RunConfig) -> None:
    if not isinstance(cfg.delta, (int, float)) or not 0.0 < cfg.delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {cfg.delta!r}")
    for name in _POSITIVE_FIELDS:
        v = getattr(cfg, name)
        kinds, what = ((int, float), "number") if name in _FLOAT_FIELDS else (int, "integer")
        if isinstance(v, bool) or not isinstance(v, kinds) or v <= 0:
            raise ConfigError(f"{name} must be a positive {what}, got {v!r}")
    if cfg.horizon is not None and (
        isinstance(cfg.horizon, bool) or not isinstance(cfg.horizon, int) or cfg.horizon < 1
    ):
        raise ConfigError(f"horizon must be a positive integer, got {cfg.horizon!r}")
    if cfg.schema_version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg.schema_version!r}")
    env = cfg.environment
    if not isinstance(env, dict):
        raise ConfigError("environment must be a mapping")
    _reject_unknown(env, {"name", "params"}, "environment")
    name = env.get("name")
    if name not in _ENV_NAMES:
        raise ConfigError(f"unknown environment name {name!r} (expected one of {_ENV_NAMES})")
    params = env.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("environment.params must be a mapping")
    _reject_unknown(params, _ENV_PARAM_KEYS[name], f"environment.params ({name})")


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Environment construction
# ---------------------------------------------------------------------------


def _build_distribution(spec, theta_bar: float) -> envs.TypeDistribution:
    if spec is None:
        return envs.uniform_type(theta_bar)
    _reject_unknown(spec, {"name", "p", "rate", "theta_bar"}, "distribution")
    theta_bar = float(spec.get("theta_bar", theta_bar))
    name = spec.get("name", "uniform")
    if name == "uniform":
        return envs.uniform_type(theta_bar)
    if name == "power":
        return envs.power_type(theta_bar, float(spec.get("p", 2.0)))
    if name == "capped_exponential":
        return envs.capped_exponential_type(float(spec.get("rate", 1.0)), theta_bar)
    raise ConfigError(f"unknown distribution name {name!r}")


def _theta_form(spec) -> tuple:
    """Parametric theta-dependence for config-defined value functions."""
    _reject_unknown(spec, {"form", "p", "scale", "shift", "slope"}, "value.a")
    form = spec.get("form", "linear")
    if form == "linear":
        return (lambda t: t), (lambda t: 1.0)
    if form == "power":
        p = float(spec.get("p", 2.0))
        return (lambda t: t**p), (lambda t: p * t ** (p - 1.0) if t > 0 else (1.0 if p == 1.0 else 0.0 if p > 1.0 else float("inf")))
    if form == "sqrt":
        return (lambda t: t**0.5), (lambda t: 0.5 * t**-0.5 if t > 0 else float("inf"))
    if form == "affine":
        scale = float(spec.get("scale", 1.0))
        shift = float(spec.get("shift", 0.0))
        return (lambda t: scale * t + shift), (lambda t: scale)
    if form == "decreasing":
        shift = float(spec.get("shift", 1.5))
        slope = float(spec.get("slope", 1.0))
        return (lambda t: shift - slope * t), (lambda t: -slope)
    raise ConfigError(f"unknown value form {form!r}")


def _build_value(spec) -> envs.AdditiveValue | envs.MultiplicativeValue:
    _reject_unknown(spec, {"variant", "a", "b", "c"}, "value")
    variant = spec.get("variant")
    a, da = _theta_form(spec.get("a", {"form": "linear"}))
    b = np.asarray(spec.get("b"), dtype=float)
    if variant == "multiplicative":
        c = np.asarray(spec.get("c", np.zeros(b.shape[1])), dtype=float)
        return envs.MultiplicativeValue(a=a, da=da, b=b, c=c)
    if variant == "additive":
        return envs.AdditiveValue(
            a=lambda t, rho: a(t), da=lambda t, rho: da(t), b=b
        )
    raise ConfigError(f"unknown value variant {variant!r}")


def build_environment(cfg: RunConfig) -> envs.Environment:
    """The configured environment.  Parameters that the environment
    builders reject (a missing key, a kernel row that does not sum to 1,
    a table of the wrong shape or type) raise ConfigError."""
    try:
        return _build_environment(cfg)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing required key {exc.args[0]!r} in environment.params") from exc
    except (TypeError, ValueError) as exc:  # DomainError is a ValueError
        raise ConfigError(str(exc)) from exc


def _build_environment(cfg: RunConfig) -> envs.Environment:
    name = cfg.environment["name"]
    params = dict(cfg.environment.get("params", {}))
    if name == "sponsored_search":
        dist_spec = params.pop("distribution", None)
        theta_bar = float(params.pop("theta_bar", 1.0))
        dist = _build_distribution(dist_spec, theta_bar) if dist_spec else None
        return envs.sponsored_search(
            k=int(params.pop("k", 1)),
            theta_bar=theta_bar,
            click_prior=tuple(params.pop("click_prior", (1.0, 1.0))),
            purchase_prior=tuple(params.pop("purchase_prior", (1.0, 1.0))),
            cap=int(params.pop("cap", 20)),
            delta=cfg.delta,
            dist=dist,
        )
    if name == "finite_chain":
        dist = _build_distribution(params.get("distribution"), 1.0)
        value = _build_value(params["value"])
        return envs.finite_chain(
            cfg.delta,
            k=int(params.get("k", 1)),
            g=np.asarray(params["g"], dtype=float),
            h=np.asarray(params["h"], dtype=float),
            value=value,
            dist=dist,
            e_labels=params.get("e_labels"),
            rho_labels=params.get("rho_labels"),
        )
    if name == "ar1":
        dist = _build_distribution(params.get("distribution"), 1.0)
        return envs.ar1(
            k=int(params.get("k", 1)),
            coeff=float(params["coeff"]),
            shock=np.asarray(params["shock"], dtype=float),
            delta=cfg.delta,
            dist=dist,
            grid_step=float(params.get("grid_step", 0.05)),
            alloc_cap=int(params.get("alloc_cap", 25)),
        )
    raise ConfigError(f"unknown environment name {name!r}")
