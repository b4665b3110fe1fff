"""Run configuration: defaults, JSON loading, dotted overrides, hashing.

Every tunable of the command-line tools lives in one nested dictionary with
a default for each field, so a config file (or a manifest from a previous
run) plus --set overrides fully determines a run.  Serialization uses 17
significant digits for floats and sorted keys, which makes the canonical
form byte-stable and suitable for content hashing.  plan(command, config)
checks and hands over each command's grids and step, before any field exists.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

import numpy as np

from . import closed_forms as cf
from . import evolution as ev
from . import grid as gr

DEFAULTS: dict = {
    "alpha": 1.5,
    "beta": 1.0,
    "x1": 0.0,
    "seed": 20406,
    "grid": {"n_points": 1024},
    "integrator": {"dt": 1.25e-4, "t_end": 0.5, "monitor_stride": 80},
    "spectrum": {"n_points": 512, "phase_sweep": False},
    "evolve": {"initial": "breather", "soliton_c": 1.0},
    "stability": {"perturbation": "sech", "eta_sweep": [1e-3], "n_points": 2048},
}

# The spectrum command holds at most this many dense N x N float64 arrays at
# once, N = spectrum.n_points: its traced peak is 5.06 N^2 doubles at N=512,
# 5.02 at N=1024, reached in the coercivity pencil, with or without an
# in-process phase sweep (an assembly peaks at 4.0). A spectrum.n_points whose
# arrays would pass the budget is refused before anything is allocated: 4096
# points need 1 GiB, 8192 need 4 GiB. A pooled phase sweep's workers, each
# holding about 4 N^2 more, are started only as far as the budget has room
# for them (spectral._sweep_workers): two at 4096 points.
SPECTRUM_DENSE_ARRAYS = 8
DENSE_BUDGET_BYTES = 2 * 1024**3
# The other commands hold at most this many float64 arrays of the N points
# of grid.n_points or stability.n_points at once: the traced peak is 30 N
# doubles for verify at N=16384, 31 N for evolve and 45 N for stability at
# N=2048, and from the smaller traced size (N/4, N/2, N/2) each grew by at
# most 43 doubles per added point. An N whose arrays would pass the same
# budget is refused before anything is allocated: 2^22 points need 1.5 GiB,
# 2^23 need 3 GiB. A stability eta sweep forks no more workers, each holding
# one run's arrays, than the budget holds (stability.stability_sweep).
GRID_ARRAYS = 48
# A step count that a typo can blow up is refused the same way: evolve and
# stability take m * t_end / dt steps (see run_steps), about 135 us each
# at N=2048 on a 2-core Xeon with one BLAS thread (t_end=50 at the default dt,
# beta <= 1 and alpha <= 3 is 400000 steps).
STEP_BUDGET = 2_000_000
# alpha's weight in the step rule. Along beta = 1 at the default dt, evolve
# exits 2 at alpha = 3.5 and 4 with one step per dt and at alpha = 5 and 6
# with two; any weight in (2/7, 1/3] keeps m = 1 up to alpha = 3 there.
STEP_ALPHA_SCALE = 0.3
# alpha and beta above this bound are refused: far above it the closed forms
# overflow, into a NaN report value at alpha=1e70 and an OverflowError at
# 1e80, which the resolution bound below does not catch.
MAX_FREQUENCY = 1e3
# plan's table: for each command, every grid it samples its initial profile
# on, in the order plan hands them over, as (the section whose n_points sizes
# it, or the name of the fixed residual grid; the profile that sizes it,
# "initial" for evolve.initial's; the largest h*alpha; the largest h*beta).
# Under the grid rule h*alpha is 60 alpha/(beta N) on a config grid and
# 88 alpha/(2048 beta) on the residual grid, and h*beta is 60/N and 0.043.
# Each bound was measured along beta = 1 (README, Conventions): the spectrum's
# mu0 moves 9.0e-5 relative from N = 512 to 1024 at h*alpha = 0.50; verify's
# quadrature checks at N = 512 fail from 0.398, its residual checks from
# 0.269, the Wronskian check from 0.395, evolve's f drift from 0.381 and
# stability's audit at N = 1024 from 0.352;
# verify and spectrum fail at N = 256, evolve and stability at N = 512, at
# every alpha tried.
_GRIDS = {
    "verify": (("grid", "breather", 0.38, 0.12),
               ("verify's fixed residual grid", "breather", 0.25, 0.12),
               ("verify's fixed residual grid", "soliton", 0.25, 0.12)),
    "spectrum": (("spectrum", "breather", 0.5, 0.12),
                 ("the Wronskian check's fixed residual grid", "breather", 0.38, 0.12)),
    "evolve": (("grid", "initial", 0.36, 0.06),),
    "stability": (("stability", "breather", 0.337, 0.06),),
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
        raise ConfigError(f"{joined} may not be null")
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{joined} must be a boolean")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        # is_integer() is False for inf and nan
        if isinstance(value, bool) or not (
                isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
            raise ConfigError(f"{joined} must be an integer")
        return int(value)
    if isinstance(default, float):
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


def validate_config(config: dict) -> None:
    for key in ("alpha", "beta"):
        if not config[key] > 0.0:
            raise ConfigError(f"{key} > 0 required")
        if config[key] > MAX_FREQUENCY:
            raise ConfigError(f"{key}={config[key]!r} is above the bound {MAX_FREQUENCY:g}")
    if config["seed"] < 0:
        raise ConfigError(f"seed={config['seed']!r} must be non-negative")
    for path in (("grid", "n_points"), ("spectrum", "n_points"), ("stability", "n_points")):
        n = config[path[0]][path[1]]
        if not gr.PeriodicGrid.is_dyadic(n):
            raise ConfigError(f"{'.'.join(path)} must be a power of two >= 16, got {n}")
    for key in ("grid", "stability"):
        n = config[key]["n_points"]
        if GRID_ARRAYS * 8 * n > DENSE_BUDGET_BYTES:
            raise ConfigError(
                f"{key}.n_points={n} needs about {GRID_ARRAYS * 8 * n} bytes of {n}-point "
                f"arrays, above the budget of {DENSE_BUDGET_BYTES} bytes")
    n_eig = config["spectrum"]["n_points"]
    dense_bytes = SPECTRUM_DENSE_ARRAYS * 8 * n_eig**2
    if dense_bytes > DENSE_BUDGET_BYTES:
        raise ConfigError(
            f"spectrum.n_points={n_eig} needs about {dense_bytes} bytes of dense "
            f"{n_eig}x{n_eig} arrays, above the budget of {DENSE_BUDGET_BYTES} bytes")
    integ = config["integrator"]
    if not integ["dt"] > 0.0:
        raise ConfigError("integrator.dt must be positive")
    if not integ["t_end"] > 0.0:
        raise ConfigError("integrator.t_end must be positive")
    if integ["monitor_stride"] < 1:
        raise ConfigError("integrator.monitor_stride must be >= 1")
    if config["evolve"]["initial"] not in ("breather", "soliton"):
        raise ConfigError("evolve.initial must be 'breather' or 'soliton'")
    soliton_c = config["evolve"]["soliton_c"]
    if not soliton_c > 0.0:
        raise ConfigError("evolve.soliton_c must be positive")
    if soliton_c > MAX_FREQUENCY**2:  # the soliton's frequency is sqrt(c)
        raise ConfigError(
            f"evolve.soliton_c={soliton_c!r} is above the bound {MAX_FREQUENCY**2:g}")
    stab = config["stability"]
    if stab["perturbation"] not in ("sech", "sech_cos", "random_band"):
        raise ConfigError("stability.perturbation must be sech, sech_cos or random_band")
    if not stab["eta_sweep"]:
        raise ConfigError("stability.eta_sweep must list at least one eta")
    for eta in stab["eta_sweep"]:
        if not 0.0 <= eta <= 0.05:
            raise ConfigError("stability.eta_sweep entries must lie in [0, 0.05]")


def breather_params(config: dict) -> cf.BreatherParams:
    """B(0; alpha, beta, x1, 0): every B(t; alpha, beta, x1, x2) is a translate of
    B(0; alpha, beta, x1 - x2 - 2(alpha^2 + beta^2)t, 0)."""
    return cf.BreatherParams(alpha=config["alpha"], beta=config["beta"], x1=config["x1"])


def make_grid(config: dict, n_points: int | None = None) -> gr.PeriodicGrid:
    return gr.PeriodicGrid(gr.quadrature_half_length(config["beta"]),
                           n_points if n_points is not None else config["grid"]["n_points"])


def check_resolution(config: dict, grid: gr.PeriodicGrid, max_h_alpha: float,
                     max_h_beta: float, remedy: str) -> None:
    """ConfigError, ending in remedy, when h*alpha or h*beta passes its bound."""
    alpha, beta = config["alpha"], config["beta"]
    for name, rate, bound in (("alpha", alpha, max_h_alpha), ("beta", beta, max_h_beta)):
        h_rate = grid.spacing * rate
        if h_rate > bound:
            raise ConfigError(
                f"alpha/beta = {alpha / beta:.6g} (beta={beta!r}) gives h*{name} = {h_rate:.3g} "
                f"on the {grid.n_points}-point grid of half-length {grid.half_length:.6g}, above "
                f"the bound {bound}; {remedy}")


def plan(command: str, config: dict
         ) -> tuple[tuple[gr.PeriodicGrid, ...], ev.IntegratorConfig | None]:
    """The grids of command, one per _GRIDS entry, and the integrator of evolve
    or stability, once every refusal that depends on the command has passed: a
    grid over its bounds, a run over the step or the stepper's stability budget."""
    grids = []
    for where, profile, max_h_alpha, max_h_beta in _GRIDS[command]:
        if profile == "initial":
            profile = config["evolve"]["initial"]
        sized = config
        if profile == "soliton":  # it decays at its own rate sqrt(c), whatever beta
            rate = math.sqrt(config["evolve"]["soliton_c"])
            sized = {**config, "alpha": rate, "beta": rate}
        if where in config:
            grids.append(make_grid(sized, config[where]["n_points"]))
            remedy = f"raise {where}.n_points"
        else:
            grids.append(gr.residual_grid(sized["beta"]))
            remedy = f"no key applies to {where}"
        check_resolution(sized, grids[-1], max_h_alpha, max_h_beta, remedy)
    if command in ("verify", "spectrum"):
        return tuple(grids), None
    # evolve and stability step the one grid they sample, sized and named above
    dt, stride = run_steps(sized)
    t_end = config["integrator"]["t_end"]
    p = breather_params(config)
    if command == "stability":  # the breather's co-moving frame, a boundary guard at 5/beta
        integrator = ev.IntegratorConfig(dt, t_end, -p.gamma, stride, boundary_margin=5.0 / p.beta)
    else:  # the initial profile's own co-moving frame, and no boundary guard
        frame = {"breather": -p.gamma, "soliton": config["evolve"]["soliton_c"]}
        integrator = ev.IntegratorConfig(dt, t_end, frame[config["evolve"]["initial"]], stride)
    try:
        ev.linear_exponent(grids[0], integrator)
    except ValueError as exc:
        raise ConfigError(f"{exc} (integrator.dt={config['integrator']['dt']!r}, "
                          f"{where}.n_points={grids[0].n_points})") from None
    return tuple(grids), integrator


def run_steps(config: dict) -> tuple[float, int]:
    """The step and the monitor stride a run takes: dt/m and stride*m with
    m = ceil(max(beta, STEP_ALPHA_SCALE * alpha)^3), so the checkpoint times
    are those of the configured dt and stride. The scaling that maps B(1, 1)
    to B(beta, beta) shrinks time by beta^3, and alpha sets the internal
    oscillation the step must resolve as well; m is 1 at beta <= 1 and
    alpha <= 1 / STEP_ALPHA_SCALE. ConfigError when the m * t_end / dt steps
    are above STEP_BUDGET."""
    integ = config["integrator"]
    m = math.ceil(max(config["beta"], STEP_ALPHA_SCALE * config["alpha"]) ** 3)
    steps = m * integ["t_end"] / integ["dt"]
    if steps > STEP_BUDGET:
        raise ConfigError(
            f"integrator.t_end={integ['t_end']!r} at integrator.dt={integ['dt']!r} needs "
            f"about {steps:.6g} steps (m = {m} per dt at beta={config['beta']!r}, "
            f"alpha={config['alpha']!r}), above the budget of {STEP_BUDGET}")
    return integ["dt"] / m, integ["monitor_stride"] * m


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
