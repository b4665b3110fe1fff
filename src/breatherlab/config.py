"""Run configuration: defaults, JSON loading, dotted overrides, hashing.

Every tunable of the command-line tools lives in one nested dictionary with
a default for each field, so a config file (or a manifest from a previous
run) plus --set overrides fully determines a run.  Serialization uses 17
significant digits for floats and sorted keys, which makes the canonical
form byte-stable and suitable for content hashing.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

import numpy as np

from . import closed_forms as cf
from . import grid as gr

DEFAULTS: dict = {
    "alpha": 1.5,
    "beta": 1.0,
    "x1": 0.0,
    "x2": 0.0,
    "t": 0.0,
    "seed": 20406,
    "grid": {"half_length": None, "n_points": 1024},
    "integrator": {
        "dt": 1.25e-4,
        "t_end": 0.5,
        "frame_speed": None,
        "dealias": True,
        "monitor_stride": 80,
        "boundary_margin": None,
    },
    "verify": {"gamma_scale": 1.0, "residual_n_points": 2048},
    "spectrum": {"n_points": 512, "phase_sweep": False, "phase_samples": 8},
    "evolve": {
        "initial": "breather",
        "soliton_c": 1.0,
        "drift_tol": 1e-8,
        "steady_tol": 1e-6,
    },
    "stability": {
        "eta": 1e-3,
        "perturbation": "sech",
        "eta_sweep": [],
        "n_points": 2048,
        "a0_threshold": 100.0,
        "closure_tol": 1e-8,
        "h_drift_tol": 1e-8,
    },
}

# fields where null is a meaningful value (auto-derived at run time)
_NULLABLE = {
    ("grid", "half_length"),
    ("integrator", "frame_speed"),
    ("integrator", "boundary_margin"),
}


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 1 in the CLI."""


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def _merge(base: dict, update: dict, path: tuple = ()) -> None:
    for key, value in update.items():
        if key not in base:
            joined = ".".join(path + (key,))
            raise ConfigError(f"unknown config key: {joined}")
        here = path + (key,)
        default = base[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{'.'.join(here)} must be a table")
            _merge(default, value, here)
            continue
        base[key] = _coerce(value, default, here)


def _finite_float(value, joined: str, kind: str) -> float:
    """A JSON number other than a bool, as a finite float; else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{joined} must be {kind}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{joined} must be finite, got {number}")
    return number


def _coerce(value, default, path: tuple):
    joined = ".".join(path)
    if value is None:
        if path in _NULLABLE:
            return None
        raise ConfigError(f"{joined} may not be null")
    if isinstance(default, bool) or (default is None and isinstance(value, bool)):
        if not isinstance(value, bool):
            raise ConfigError(f"{joined} must be a boolean")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        # is_integer() is False for inf and nan
        if isinstance(value, bool) or not (
                isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
            raise ConfigError(f"{joined} must be an integer")
        return int(value)
    if isinstance(default, float) or (default is None and isinstance(value, (int, float))):
        return _finite_float(value, joined, "a number")
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{joined} must be a string")
        return value
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{joined} must be a list")
        return [_finite_float(v, joined, "a list of numbers") for v in value]
    raise ConfigError(f"{joined}: unsupported value {value!r}")


def load_config(path: str | None) -> dict:
    """Defaults merged with a JSON file; a manifest file is unwrapped."""
    config = default_config()
    if path is None:
        return config
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    if "config" in doc and "command" in doc:
        doc = doc["config"]
    _merge(config, doc)
    return config


def apply_overrides(config: dict, assignments: list[str]) -> dict:
    """Apply key=value pairs with dotted paths; values parse as JSON."""
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        update: dict = value
        for part in reversed(key.split(".")):
            update = {part: update}
        _merge(config, update)
    return config


def _power_of_two(n: int) -> bool:
    return n >= 16 and (n & (n - 1)) == 0


def validate_config(config: dict) -> None:
    if not config["alpha"] > 0.0:
        raise ConfigError("alpha > 0 required")
    if not config["beta"] > 0.0:
        raise ConfigError("beta > 0 required")
    for path in (("grid", "n_points"), ("spectrum", "n_points"),
                 ("stability", "n_points"), ("verify", "residual_n_points")):
        n = config[path[0]][path[1]]
        if not _power_of_two(n):
            raise ConfigError(f"{'.'.join(path)} must be a power of two >= 16, got {n}")
    half = config["grid"]["half_length"]
    if half is not None and not half > 0.0:
        raise ConfigError("grid.half_length must be positive")
    integ = config["integrator"]
    if not integ["dt"] > 0.0:
        raise ConfigError("integrator.dt must be positive")
    if not integ["t_end"] > 0.0:
        raise ConfigError("integrator.t_end must be positive")
    if integ["monitor_stride"] < 1:
        raise ConfigError("integrator.monitor_stride must be >= 1")
    if integ["boundary_margin"] is not None and not integ["boundary_margin"] > 0.0:
        raise ConfigError("integrator.boundary_margin must be positive")
    if not config["verify"]["gamma_scale"] > 0.0:
        raise ConfigError("verify.gamma_scale must be positive")
    if config["spectrum"]["phase_samples"] < 1:
        raise ConfigError("spectrum.phase_samples must be >= 1")
    if config["evolve"]["initial"] not in ("breather", "soliton"):
        raise ConfigError("evolve.initial must be 'breather' or 'soliton'")
    if not config["evolve"]["soliton_c"] > 0.0:
        raise ConfigError("evolve.soliton_c must be positive")
    stab = config["stability"]
    if not 0.0 <= stab["eta"] <= 0.05:
        raise ConfigError("stability.eta must lie in [0, 0.05]")
    if stab["perturbation"] not in ("sech", "sech_cos", "random_band"):
        raise ConfigError("stability.perturbation must be sech, sech_cos or random_band")
    for eta in stab["eta_sweep"]:
        if not 0.0 < eta <= 0.05:
            raise ConfigError("stability.eta_sweep entries must lie in (0, 0.05]")


def breather_params(config: dict) -> cf.BreatherParams:
    return cf.BreatherParams(
        alpha=config["alpha"], beta=config["beta"], x1=config["x1"], x2=config["x2"]
    )


def make_grid(config: dict, n_points: int | None = None) -> gr.PeriodicGrid:
    half = config["grid"]["half_length"]
    if half is None:
        half = gr.quadrature_half_length(config["beta"])
    return gr.PeriodicGrid(half, n_points if n_points is not None else config["grid"]["n_points"])


def _scalar_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise ValueError(f"non-finite float in JSON output: {value}")
        return f"{float(value):.17g}"
    if isinstance(value, str):
        return json.dumps(value)
    raise ValueError(f"unsupported JSON scalar: {value!r}")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, 17 significant digits, 2-space indent."""
    return _render(value, 0) + "\n"


def _render(value, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {_render(value[k], level + 1)}'
                for k in sorted(value, key=str)]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{_render(v, level + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return _scalar_json(value)


def config_hash(config: dict) -> str:
    digest = hashlib.sha256(canonical_json(config).encode("ascii")).hexdigest()
    return digest[:12]
