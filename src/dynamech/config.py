"""Run configuration: file parsing, validation, environment construction.

Config files are JSON or YAML.  A text that parses as JSON is read as
JSON, strictly: NaN and infinities are rejected, and exponents need no
dot (``2e-1`` is a number, where YAML 1.1 reads a string).  Any other
text is read as YAML, whose parser is imported only then.  Unknown keys
are rejected by name, and so are environment parameters of the wrong
type or out of range, before any environment is built.  The SHA-256 of
the canonical JSON dump (``config_hash``) is embedded in every output
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


_FLOAT_FIELDS = ("delta", "tail_eps")

_POSITIVE_FIELDS = (
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


def check_seed(name: str, seed) -> None:
    """Seeds are the entropy of every stream key (``rng.stream_key``),
    which must be a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")


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
    check_seed("master_seed", cfg.master_seed)
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


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Environment construction
# ---------------------------------------------------------------------------


def _count(params: dict, key: str, default: int, least: int) -> int:
    """An integer parameter (a bool is not one) of at least ``least``."""
    v = params.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {v!r}")
    return v


def _finite(v, key: str, *, positive: bool = False) -> float:
    """A finite number (a bool is not one), positive if asked; a numeric
    string converts, since YAML 1.1 reads bare scientific notation like
    1e-8 as a string."""
    if isinstance(v, str):
        try:
            v = float(v)
        except ValueError:
            pass
    if not isinstance(v, bool) and isinstance(v, (int, float)):
        try:
            x = float(v)
        except OverflowError:  # an int past the float range
            x = math.inf
        if math.isfinite(x) and (x > 0.0 or not positive):
            return x
    raise ConfigError(f"{key} must be a {'positive ' if positive else ''}finite number, got {v!r}")


def _positive(v, key: str) -> float:
    return _finite(v, key, positive=True)


def _labels(params: dict, key: str) -> list[str] | None:
    v = params.get(key)
    if v is not None and (not isinstance(v, list) or not all(isinstance(x, str) for x in v)):
        raise ConfigError(f"{key} must be a list of strings, got {v!r}")
    return v


def _prior(params: dict, key: str) -> tuple[float, float]:
    v = params.get(key, (1.0, 1.0))
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ConfigError(f"{key} must be a pair of positive numbers, got {v!r}")
    return _positive(v[0], f"{key}[0]"), _positive(v[1], f"{key}[1]")


def _finite_table(v, key: str, ndim: int | None = None) -> np.ndarray:
    """A non-empty table of finite numbers, with ``ndim`` axes if given."""
    what = f"{key} must be a non-empty {f'{ndim}-d ' if ndim else ''}table of finite numbers"
    try:
        table = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(what) from exc
    if not table.size or (ndim and table.ndim != ndim) or not np.all(np.isfinite(table)):
        raise ConfigError(what)
    return table


def _build_distribution(spec, theta_bar: float) -> envs.TypeDistribution:
    if spec is None:
        return envs.uniform_type(theta_bar)
    if not isinstance(spec, dict):
        raise ConfigError("distribution must be a mapping")
    _reject_unknown(spec, {"name", "p", "rate", "theta_bar"}, "distribution")
    theta_bar = _positive(spec.get("theta_bar", theta_bar), "distribution.theta_bar")
    name = spec.get("name", "uniform")
    if name == "uniform":
        return envs.uniform_type(theta_bar)
    if name == "power":
        return envs.power_type(theta_bar, _positive(spec.get("p", 2.0), "distribution.p"))
    if name == "capped_exponential":
        return envs.capped_exponential_type(_positive(spec.get("rate", 1.0), "distribution.rate"), theta_bar)
    raise ConfigError(f"unknown distribution name {name!r}")


def _theta_form(spec) -> tuple:
    """Parametric theta-dependence for config-defined value functions.
    The sign of ``scale`` and ``slope`` is left to ``validate_assumptions``:
    the ``decreasing`` form is a negative control."""
    if not isinstance(spec, dict):
        raise ConfigError(f"value.a must be a mapping, got {spec!r}")
    _reject_unknown(spec, {"form", "p", "scale", "shift", "slope"}, "value.a")
    form = spec.get("form", "linear")
    if form == "linear":
        return (lambda t: t), (lambda t: 1.0)
    if form == "power":
        p = _positive(spec.get("p", 2.0), "value.a.p")
        return (lambda t: t**p), (lambda t: p * t ** (p - 1.0) if t > 0 else (1.0 if p == 1.0 else 0.0 if p > 1.0 else float("inf")))
    if form == "sqrt":
        return (lambda t: t**0.5), (lambda t: 0.5 * t**-0.5 if t > 0 else float("inf"))
    if form == "affine":
        scale = _finite(spec.get("scale", 1.0), "value.a.scale")
        shift = _finite(spec.get("shift", 0.0), "value.a.shift")
        return (lambda t: scale * t + shift), (lambda t: scale)
    if form == "decreasing":
        shift = _finite(spec.get("shift", 1.5), "value.a.shift")
        slope = _finite(spec.get("slope", 1.0), "value.a.slope")
        return (lambda t: shift - slope * t), (lambda t: -slope)
    raise ConfigError(f"unknown value form {form!r}")


def _build_value(spec) -> envs.AdditiveValue | envs.MultiplicativeValue:
    if not isinstance(spec, dict):
        raise ConfigError("value must be a mapping")
    _reject_unknown(spec, {"variant", "a", "b", "c"}, "value")
    variant = spec.get("variant")
    a, da = _theta_form(spec.get("a", {"form": "linear"}))
    b = _finite_table(spec.get("b"), "value.b", ndim=2)
    if variant == "multiplicative":
        c = _finite_table(spec["c"], "value.c") if "c" in spec else np.zeros(b.shape[1])
        return envs.MultiplicativeValue(a=a, da=da, b=b, c=c)
    if variant == "additive":
        return envs.AdditiveValue(
            a=lambda t, rho: a(t), da=lambda t, rho: da(t), b=b
        )
    raise ConfigError(f"unknown value variant {variant!r}")


def build_environment(cfg: RunConfig) -> envs.Environment:
    """The configured environment.  Parameters of the wrong type or out
    of range, parameters that the environment builders reject (a missing
    key, a kernel row that does not sum to 1, a table of the wrong shape
    or type), and values whose tail scale k * v_max / (1 - delta)
    overflows raise ConfigError."""
    try:
        env = _build_environment(cfg)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing required key {exc.args[0]!r} in environment.params") from exc
    except (TypeError, ValueError) as exc:  # DomainError is a ValueError
        raise ConfigError(str(exc)) from exc
    if not math.isfinite(env.k * env.v_max / (1.0 - env.delta)):
        raise ConfigError(
            f"tail scale k * v_max / (1 - delta) overflows (k {env.k}, v_max {env.v_max!r}, "
            f"delta {env.delta!r}): scale down theta_bar or the value tables"
        )
    return env


def _build_environment(cfg: RunConfig) -> envs.Environment:
    name = cfg.environment["name"]
    params = dict(cfg.environment.get("params", {}))
    if name == "sponsored_search":
        dist_spec = params.get("distribution")
        theta_bar = _positive(params.get("theta_bar", 1.0), "theta_bar")
        k, cap = _count(params, "k", 1, 1), _count(params, "cap", 20, 0)
        click_prior, purchase_prior = _prior(params, "click_prior"), _prior(params, "purchase_prior")
        dist = _build_distribution(dist_spec, theta_bar) if dist_spec else None
        return envs.sponsored_search(
            k=k,
            theta_bar=theta_bar,
            click_prior=click_prior,
            purchase_prior=purchase_prior,
            cap=cap,
            delta=cfg.delta,
            dist=dist,
        )
    if name == "finite_chain":
        k = _count(params, "k", 1, 1)
        dist = _build_distribution(params.get("distribution"), 1.0)
        value = _build_value(params["value"])
        return envs.finite_chain(
            cfg.delta,
            k=k,
            g=_finite_table(params["g"], "g"),
            h=_finite_table(params["h"], "h"),
            value=value,
            dist=dist,
            e_labels=_labels(params, "e_labels"),
            rho_labels=_labels(params, "rho_labels"),
        )
    if name == "ar1":
        k, alloc_cap = _count(params, "k", 1, 1), _count(params, "alloc_cap", 25, 0)
        grid_step = _positive(params.get("grid_step", 0.05), "grid_step")
        coeff = _finite(params["coeff"], "coeff")
        if not 0.0 <= coeff < 1.0:
            raise ConfigError(f"coeff must lie in [0, 1), got {params['coeff']!r}")
        dist = _build_distribution(params.get("distribution"), 1.0)
        return envs.ar1(
            k=k,
            coeff=coeff,
            shock=_finite_table(params["shock"], "shock"),
            delta=cfg.delta,
            dist=dist,
            grid_step=grid_step,
            alloc_cap=alloc_cap,
        )
    raise ConfigError(f"unknown environment name {name!r}")
