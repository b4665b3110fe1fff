"""Command-line interface: exit codes, reports, manifests, replay determinism."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import sysconfig
import time
import tracemalloc
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import breatherlab
from breatherlab import cli
from breatherlab import closed_forms as cf
from breatherlab import config as cfgmod
from breatherlab import evolution as ev
from breatherlab import functionals as fn
from breatherlab import grid as gr
from breatherlab import spectral as sp
from breatherlab import stability as st
from breatherlab.cli import main

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
_INSTALLED_SCRIPT = Path(sysconfig.get_path("scripts")) / "breatherlab"
_SHORT_EVOLVE = ["evolve", "--set", "integrator.t_end=0.002", "--set", "integrator.dt=0.0001"]


def _read(outdir, suffix):
    matches = sorted(outdir.glob(f"*{suffix}"))
    assert len(matches) == 1, f"expected one {suffix} in {outdir}, found {matches}"
    return matches[0], json.loads(matches[0].read_text())


@pytest.fixture(scope="module")
def verify_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    code = main(["verify", "--out", str(out)])
    return out, code


def test_verify_defaults_pass(verify_out):
    out, code = verify_out
    assert code == 0
    path, report = _read(out, ".report.json")
    assert path.name.startswith("verify_")
    checks = report["checks"]
    assert all(entry["pass"] for entry in checks.values())
    assert set(checks) >= {"mass_closed_form", "energy_closed_form", "stationary",
                           "wronskian", "soliton_ode", "lyapunov_expansion"}
    for entry in checks.values():
        assert entry["residual"] <= entry["bound"]
    assert set(report["functionals"]) == {"mass", "energy", "f", "h"}


def test_verify_manifest_structure(verify_out):
    out, _ = verify_out
    path, manifest = _read(out, ".manifest.json")
    stem = path.name[: -len(".manifest.json")]
    command, _, digest = stem.partition("_")
    assert command == "verify"
    assert len(digest) == 12 and all(c in "0123456789abcdef" for c in digest)
    assert manifest["command"] == "verify"
    assert manifest["seed"] == 20406
    assert manifest["pass_fail"]["stationary"] is True
    assert f"{stem}.report.json" in manifest["outputs"]
    assert manifest["config"]["alpha"] == 1.5


def test_verify_prints_one_line_per_check(verify_out, tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    _, report = _read(tmp_path, ".report.json")
    pass_lines = [l for l in lines if l.startswith("[PASS]") or l.startswith("[FAIL]")]
    assert len(pass_lines) == len(report["checks"])
    assert all(l.startswith("[PASS]") for l in pass_lines)
    assert code == 0


class _BiasedGamma(cf.BreatherParams):
    """Breather parameters whose gamma is 0.1% off; B itself is unchanged."""

    @property
    def gamma(self) -> float:
        return 1.001 * super().gamma


def test_verify_detects_wrong_velocity(tmp_path, monkeypatch):
    exact = fn.stationary_residual
    monkeypatch.setattr(fn, "stationary_residual", lambda p, grid, t: exact(
        _BiasedGamma(p.alpha, p.beta, p.x1, p.x2), grid, t))
    code = main(["verify", "--out", str(tmp_path)])
    assert code == 2
    _, manifest = _read(tmp_path, ".manifest.json")
    failed = [k for k, ok in manifest["pass_fail"].items() if not ok]
    assert failed == ["stationary"]


def test_non_finite_report_value_exits_two_and_writes_nothing(tmp_path, capsys):
    # at x1 = 1e300 the closed forms give NaN: the report cannot be rendered
    with np.errstate(all="ignore"):
        code = main(["verify", "--set", "x1=1e300", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["check failed: non-finite float in JSON output: nan"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["verify"], ["stability", "--set", "stability.perturbation=random_band"]],
    ids=["verify", "stability"])
def test_negative_seed_exits_one_before_running(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main(command + ["--set", "seed=-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: seed=-1 must be non-negative\n"
    assert not out.exists()


def test_verify_soliton_grid_ignores_the_breather_beta(verify_out, tmp_path):
    # the c = 1 soliton has no beta: its residual grid is sized by sqrt(c)
    _, beta_one = _read(verify_out[0], ".report.json")
    main(["verify", "--set", "alpha=1", "--set", "beta=0.25", "--out", str(tmp_path)])
    _, beta_quarter = _read(tmp_path, ".report.json")
    assert beta_quarter["checks"]["soliton_ode"] == beta_one["checks"]["soliton_ode"]
    assert beta_quarter["checks"]["soliton_ode"]["pass"] is True


def test_verify_makes_eight_closed_form_passes(tmp_path, monkeypatch):
    # one shared trig pass each: the jets on the quadrature and residual
    # grids, the two mass profiles, the Wronskian determinant, the stationary
    # check's extended-precision sample and one complex-step pass per
    # Weinstein parameter derivative
    calls = []
    parts = cf._quotient_parts

    def counting(*args):
        calls.append(args)
        return parts(*args)

    monkeypatch.setattr(cf, "_quotient_parts", counting)
    assert main(["verify", "--out", str(tmp_path)]) == 0
    assert len(calls) == 8


def test_verify_and_spectrum_report_one_wronskian_residual(verify_out, tmp_path):
    # both commands run functionals.wronskian_residual on grid.residual_grid
    _, verify_report = _read(verify_out[0], ".report.json")
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    _, spectrum_report = _read(tmp_path, ".report.json")
    assert (verify_report["checks"]["wronskian"]["residual"]
            == spectrum_report["wronskian"]["closed_form_max_err"])


def test_invalid_parameter_exits_one(tmp_path, capsys):
    assert main(["verify", "--set", "alpha=0", "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "integrator.monitor_stride=[1]",
    "stability.eta_sweep=[[0.01]]",
    "stability.eta_sweep=[]",
    "alpha=1e400",
    "integrator.dt=NaN",
    "grid.half_length=Infinity",
    "integrator.t_end=Infinity",
])
def test_malformed_override_exits_one(tmp_path, override):
    # in a fresh interpreter, so an uncaught exception shows as a traceback
    proc = _run_entry_point(["verify", "--set", override, "--out", str(tmp_path)], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["verify", "--set", "alpha=1e70"],
    ["verify", "--set", "alpha=1e80"],
    ["spectrum", "--set", "alpha=1e80"],
    ["stability", "--set", "alpha=1e200"],
    ["evolve", "--set", "beta=1000.5"],
], ids=lambda args: f"{args[0]}-{args[2]}")
def test_extreme_frequency_exits_one(tmp_path, args):
    # the closed forms overflow far above the bound; in a fresh interpreter,
    # so an uncaught exception shows as a traceback
    proc = _run_entry_point([*args, "--out", "out"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    key = args[2].partition("=")[0]
    assert proc.stderr.startswith(f"config error: {key}=")
    assert "is above the bound 1000" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


# gamma was never a key; the others are the keys a config held before its
# tolerances became constants, its residual grid fixed, its flux band part of
# the scheme, its integration frame and boundary guard derived, its single
# eta folded into stability.eta_sweep, its phase-sweep size fixed and its
# grid half-length derived, at their former defaults. A manifest carrying
# one is refused.
_UNKNOWN_KEYS = {
    "gamma": 1.0,
    "t": 0.0,
    "x2": 0.0,
    "stability.eta": 1e-3,
    "spectrum.phase_samples": 8,
    "integrator.frame_speed": None,
    "integrator.boundary_margin": None,
    "grid.half_length": None,
    "integrator.dealias": True,
    "verify.gamma_scale": 1.0,
    "verify.residual_n_points": 2048,
    "evolve.drift_tol": 1e-8,
    "evolve.steady_tol": 1e-6,
    "stability.a0_threshold": 100.0,
    "stability.closure_tol": 1e-8,
    "stability.h_drift_tol": 1e-8,
}


@pytest.mark.parametrize("key,value", _UNKNOWN_KEYS.items(), ids=list(_UNKNOWN_KEYS))
def test_unknown_key_exits_one(tmp_path, capsys, key, value):
    config = cfgmod.default_config()
    table, _, leaf = key.rpartition(".")
    (config.setdefault(table, {}) if table else config)[leaf] = value
    manifest = tmp_path / "old.manifest.json"
    manifest.write_text(json.dumps({"command": "verify", "config": config}))
    out = tmp_path / "out"
    for args in (["--set", f"{key}={json.dumps(value)}"], ["--config", str(manifest)]):
        assert main(["verify", *args, "--out", str(out)]) == 1
        assert f"unknown config key: {key.partition('.')[0]}" in capsys.readouterr().err
        assert not out.exists()


def test_missing_config_file_exits_one(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["resonate"])
    assert exc.value.code == 1


def test_spectrum_defaults_pass(tmp_path):
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    _, report = _read(tmp_path, ".report.json")
    assert report["spectrum"]["negative_count"] == 1
    assert report["spectrum"]["lambda0_sq"] > 0.0
    assert report["wronskian"]["root_count"] == 1
    assert report["sweep"] is None
    _, manifest = _read(tmp_path, ".manifest.json")
    assert set(manifest["pass_fail"]) == {
        "negative_count_is_one", "root_count_matches_negative_count",
        "lambda0_sq_positive", "wronskian_closed_form"}


def test_spectrum_phase_sweep(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "PHASE_SAMPLES", 4)
    code = main(["spectrum", "--set", "spectrum.phase_sweep=true", "--out", str(tmp_path)])
    assert code == 0
    _, report = _read(tmp_path, ".report.json")
    assert len(report["sweep"]["lambda0_sq"]) == 4
    assert all(v > 0.0 for v in report["sweep"]["lambda0_sq"])
    # the first sample is the unshifted operator: the same eigenvalue call
    # gives bitwise the spectrum's lambda0^2
    assert report["sweep"]["lambda0_sq"][0] == report["spectrum"]["lambda0_sq"]
    _, manifest = _read(tmp_path, ".manifest.json")
    assert manifest["pass_fail"]["sweep_lambda0_sq_positive"] is True



def test_spectrum_sweep_self_check_failure_exits_two(tmp_path, monkeypatch, capsys, one_core):
    # the first assembly (the full spectrum) checks out; a sweep sample does not
    calls = []
    real = sp.apply_operator

    def wrong_in_sweep(z, p, t):
        calls.append(p.x1)
        out = real(z, p, t)
        return out if len(calls) < 3 else out.with_values(2.0 * out.values)

    monkeypatch.setattr(sp, "apply_operator", wrong_in_sweep)
    monkeypatch.setattr(cli, "PHASE_SAMPLES", 4)
    code = main(["spectrum", "--set", "spectrum.phase_sweep=true", "--out", str(tmp_path)])
    assert code == 2
    assert len(calls) == 3
    assert capsys.readouterr().err.startswith(
        "check failed: matrix application disagrees with operator action")
    assert list(tmp_path.iterdir()) == []

def _spy_dense_work(monkeypatch):
    """Record each assemble's x1, and count the scipy.linalg.eigh and
    numpy.linalg.cholesky calls."""
    assembled, solves = [], {"eigh": 0, "cholesky": 0}
    real_assemble = sp.assemble

    def assemble(p, grid, t=0.0):
        assembled.append(p.x1)
        return real_assemble(p, grid, t)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            solves[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sp, "assemble", assemble)
    for owner, name in ((scipy.linalg, "eigh"), (np.linalg, "cholesky")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return assembled, solves


@pytest.mark.parametrize("n_samples", [4, 1])
def test_spectrum_sweep_does_its_dense_work_once(tmp_path, monkeypatch, one_core, n_samples):
    assembled, solves = _spy_dense_work(monkeypatch)
    monkeypatch.setattr(cli, "PHASE_SAMPLES", n_samples)
    code = main(["spectrum", "--set", "spectrum.phase_sweep=true", "--out", str(tmp_path)])
    assert code == 0
    # the first sample is the spectrum's own operator, assembled once
    assert len(assembled) == n_samples
    # the operator's four lowest pairs, one four-value solve per other
    # sample, the pencil and the full list; one Cholesky certifies mu0
    assert solves == {"eigh": n_samples + 2, "cholesky": 1}
    _, report = _read(tmp_path, ".report.json")
    assert report["sweep"]["lambda0_sq"][0] == report["spectrum"]["lambda0_sq"]
    assert len(report["sweep"]["lambda0_sq"]) == n_samples


def test_spectrum_unclassified_base_assembles_no_sweep_sample(tmp_path, monkeypatch, capsys,
                                                              one_blas_thread):
    # at N=256 the base spectrum does not classify: on two cores, no pool starts
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a worker pool was started")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # the spectrum's h*beta bound refuses N = 256 (h*beta = 0.234); admit it here
    monkeypatch.setitem(cfgmod._GRIDS, "spectrum", tuple(
        (where, profile, max_h_alpha, 0.25)
        for where, profile, max_h_alpha, _ in cfgmod._GRIDS["spectrum"]))
    assembled, solves = _spy_dense_work(monkeypatch)
    code = main(["spectrum", "--set", "spectrum.n_points=256", "--set", "spectrum.phase_sweep=true",
                 "--out", str(tmp_path)])
    assert code == 2
    assert assembled == [0.0]
    assert solves == {"eigh": 1, "cholesky": 0}
    assert capsys.readouterr().err.startswith("check failed: expected exactly")
    assert list(tmp_path.iterdir()) == []


_SWEEP = ["spectrum", "--set", "spectrum.phase_sweep=true"]


def test_spectrum_sweep_worker_self_check_failure_exits_two(tmp_path, monkeypatch, capsys,
                                                            one_blas_thread):
    # every sample after the base fails its self-check; in a worker, the
    # first listed one's error crosses the process boundary and exits 2 as
    # it does on one core, leaving no worker
    parent = os.getpid()
    real = sp.apply_operator

    def wrong_in_samples(z, p, t):
        out = real(z, p, t)
        if p.x1 == 0.0:
            return out
        if cores > 1 and os.getpid() == parent:
            raise AssertionError("the sample was not sent to a worker")
        return out.with_values(2.0 * out.values)

    monkeypatch.setattr(sp, "apply_operator", wrong_in_samples)
    monkeypatch.setattr(cli, "PHASE_SAMPLES", 4)
    first_lines = []
    for cores in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        out = tmp_path / f"cores{cores}"
        assert main(_SWEEP + ["--out", str(out)]) == 2
        assert multiprocessing.active_children() == []
        assert list(out.iterdir()) == []
        first_lines.append(capsys.readouterr().err.splitlines()[0])
    assert first_lines[0] == first_lines[1]
    assert first_lines[0].startswith(
        "check failed: matrix application disagrees with operator action")


def test_spectrum_sweep_killed_worker_exits_two(tmp_path, monkeypatch, capsys,
                                                one_blas_thread):
    parent = os.getpid()
    real = sp.assemble

    def killed(p, grid, t=0.0):
        if p.x1 != 0.0:
            if os.getpid() == parent:
                raise AssertionError("the sample was not sent to a worker")
            os.kill(os.getpid(), signal.SIGKILL)
        return real(p, grid, t)

    monkeypatch.setattr(sp, "assemble", killed)
    monkeypatch.setattr(cli, "PHASE_SAMPLES", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    code = main(_SWEEP + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("check failed: a worker process was lost: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


def test_runs_without_a_pool_leave_multiprocessing_unimported(tmp_path):
    # a spectrum without the sweep and a one-eta stability run start no pool,
    # so their set-up does not pay for multiprocessing
    runs = [["spectrum", "--out", str(tmp_path / "spectrum")],
            ["stability", "--set", "integrator.t_end=0.01", "--out", str(tmp_path / "stability")]]
    code = ("import sys, breatherlab.cli; "
            f"codes = [breatherlab.cli.main(argv) for argv in {runs!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(breatherlab.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


def test_spectrum_manifest_replay(tmp_path):
    # the report must replay byte for byte
    first = tmp_path / "first"
    assert main(["spectrum", "--out", str(first)]) == 0
    man_path, _ = _read(first, ".manifest.json")
    second = tmp_path / "second"
    assert main(["spectrum", "--config", str(man_path), "--out", str(second)]) == 0
    firsts = sorted(p.name for p in first.iterdir())
    assert firsts == sorted(p.name for p in second.iterdir())
    for name in firsts:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_evolve_breather_short(tmp_path):
    code = main(["evolve", "--set", "integrator.t_end=0.01",
                 "--set", "integrator.dt=0.0001", "--out", str(tmp_path)])
    assert code == 0
    _, report = _read(tmp_path, ".report.json")
    assert report["n_checkpoints"] == 3
    assert report["monitored_times"] == [0.0, 0.01]
    assert max(report["max_drift"].values()) < report["drift_tol"]
    path, manifest = _read(tmp_path, ".manifest.json")
    for name in manifest["outputs"]:
        assert (tmp_path / name).exists()
    stem = path.name[: -len(".manifest.json")]
    trace = (tmp_path / f"{stem}_trace.csv").read_text().splitlines()
    assert trace[0] == "t,mass,energy,f,sup_abs_u"
    assert len(trace) == 1 + report["n_checkpoints"]
    checkpoints = sorted((tmp_path / f"{stem}_checkpoints").iterdir())
    assert len(checkpoints) == report["n_checkpoints"]


def test_evolve_memory_is_flat_in_monitor_stride(tmp_path, capsys):
    # each checkpoint goes to disk as evolve reaches it: 401 fields at
    # stride 1 and 11 at stride 40 peak within a few 8 KiB fields
    main(_SHORT_EVOLVE + ["--out", str(tmp_path / "warm")])
    peaks = {}
    for stride in (1, 40):
        out = tmp_path / str(stride)
        tracemalloc.start()
        try:
            code = main(["evolve", "--set", "integrator.t_end=0.05",
                         "--set", f"integrator.monitor_stride={stride}", "--out", str(out)])
            peaks[stride] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(list(out.glob("*_checkpoints/*"))) == 400 // stride + 1
        assert not list(out.glob("*.partial"))
    assert abs(peaks[1] - peaks[40]) < 4 * 8 * 1024


@pytest.mark.parametrize("command,key,n,extra", [
    ("verify", "grid", 4096, []),
    ("evolve", "grid", 2048, ["integrator.t_end=0.01"]),
    ("stability", "stability", 2048, ["integrator.t_end=0.01"])])
def test_grid_arrays_hold_the_traced_peak(tmp_path, command, key, n, extra):
    # the grid budget's GRID_ARRAYS doubles per point cover what each
    # command holds at once
    argv = [command, "--set", f"{key}.n_points={n}"]
    for assignment in extra:
        argv += ["--set", assignment]
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < cfgmod.GRID_ARRAYS * 8 * n


@pytest.mark.parametrize("command,key", [
    ("verify", "grid"), ("evolve", "grid"), ("stability", "stability")])
def test_grid_beyond_budget_refused_before_anything_runs(tmp_path, capsys, command, key):
    # 2^40 points: the first array would fail to allocate at once
    out = tmp_path / "out"
    assert main([command, "--set", f"{key}.n_points={2**40}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {key}.n_points=1099511627776 needs about 422212465065984 bytes of "
        "1099511627776-point arrays, above the budget of 2147483648 bytes\n")
    assert not out.exists()


def test_evolve_rerun_replaces_its_checkpoints(tmp_path, capsys):
    assert main(_SHORT_EVOLVE + ["--out", str(tmp_path)]) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.glob("*_checkpoints/*")}
    assert main(_SHORT_EVOLVE + ["--out", str(tmp_path)]) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*_checkpoints/*")} == first
    assert len(first) == 2 and len(list(tmp_path.iterdir())) == 4


def test_evolve_soliton_steady(tmp_path):
    code = main(["evolve", "--set", "evolve.initial=soliton",
                 "--set", "integrator.t_end=0.05",
                 "--set", "integrator.dt=0.0001", "--out", str(tmp_path)])
    assert code == 0
    _, report = _read(tmp_path, ".report.json")
    assert report["frame_speed"] == 1.0
    assert report["steady_deviation"] < 1e-6
    _, manifest = _read(tmp_path, ".manifest.json")
    assert manifest["pass_fail"]["steady"] is True


def test_evolve_soliton_is_sized_by_its_own_rate(tmp_path):
    # the soliton has no beta: its grid, step and guard follow sqrt(c), so
    # its run is the same whatever the breather's beta
    produced = []
    for beta in ("1", "3", "0.25"):
        out = tmp_path / beta
        code = main(["evolve", "--set", "evolve.initial=soliton", "--set", f"beta={beta}",
                     "--set", "integrator.t_end=0.05", "--out", str(out)])
        assert code == 0, beta
        produced.append([path.read_bytes() for suffix in (".report.json", "_trace.csv")
                         for path in out.glob(f"*{suffix}")])
    assert len(produced[0]) == 2
    assert produced[1] == produced[0] and produced[2] == produced[0]


def test_evolve_soliton_steady_reads_the_cli_tolerance(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "STEADY_TOL", 0.0)
    code = main(["evolve", "--set", "evolve.initial=soliton", "--set", "integrator.t_end=0.01",
                 "--set", "integrator.dt=0.0001", "--out", str(tmp_path)])
    assert code == 2
    _, manifest = _read(tmp_path, ".manifest.json")
    assert [k for k, ok in manifest["pass_fail"].items() if not ok] == ["steady"]


def test_evolve_impossible_tolerance_exits_two(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "DRIFT_TOL", 1e-18)
    code = main(["evolve", "--set", "integrator.t_end=0.01",
                 "--set", "integrator.dt=0.0001", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("override", ["integrator.dt=true", "evolve.soliton_c=-1",
                                      "evolve.soliton_c=1e300"])
def test_evolve_invalid_number_exits_one_before_running(tmp_path, capsys, override):
    out = tmp_path / "out"
    assert main(["evolve", "--set", override, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_unstable_dt_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["evolve", "--set", "integrator.dt=0.01",
                 "--set", "integrator.t_end=0.1", "--out", str(out)])
    assert code == 1
    assert "stability budget" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_failed_checkpoint_writes_nothing(tmp_path, monkeypatch, capsys):
    # a check that fails at the third checkpoint, once two checkpoints are
    # on disk, leaves no checkpoint directory, staged or final, behind
    real_writer = ev.checkpoint_writer
    on_disk = []

    def fails_third(directory, names, cfg):
        write = real_writer(directory, names, cfg)

        def observe(field):
            if len(names) == 2:
                on_disk.extend(os.listdir(directory))
                raise ev.BlowUpError("injected blow-up", time=field.time_tag)
            write(field)

        return observe

    monkeypatch.setattr(ev, "checkpoint_writer", fails_third)
    out = tmp_path / "out"
    code = main(["evolve", "--set", "integrator.monitor_stride=10",
                 "--set", "integrator.t_end=0.005",
                 "--set", "integrator.dt=0.0001", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "check failed: injected blow-up\n"
    assert sorted(on_disk) == ["checkpoint_00000.field", "checkpoint_00001.field"]
    assert list(out.iterdir()) == []


def test_stability_domain_exit_exits_two(tmp_path, capsys, monkeypatch):
    # the stability guard is 5/beta: a 4.5 half-length box puts the
    # breather's centroid inside it at t = 0
    monkeypatch.setattr(gr, "quadrature_half_length", lambda beta: 4.5)
    code = main(["stability", "--set", "stability.n_points=256",
                 "--set", "integrator.t_end=0.01", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("check failed: field centroid ")
    assert "within 5.0 of the boundary at t = 0.0" in err
    assert list(tmp_path.iterdir()) == []


def test_stability_eta_zero_reports_null_a0(tmp_path):
    code = main(["stability", "--set", "stability.eta_sweep=[0]",
                 "--set", "integrator.t_end=0.02", "--out", str(tmp_path)])
    assert code == 0
    _, report = _read(tmp_path, ".report.json")
    assert report["runs"][0]["a0_observed"] is None
    assert report["runs"][0]["failure_time"] is None


def test_stability_denormal_eta_exits_one(tmp_path):
    # sup ||z||_H2 / eta overflows to inf at eta = 1e-320; in a fresh
    # interpreter, so an uncaught exception shows as a traceback
    proc = _run_entry_point(["stability", "--set", "stability.eta_sweep=[1e-320]",
                             "--set", "integrator.t_end=0.01", "--out", "out"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: ") and "a0_observed" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("constant,failed", [
    ("A0_THRESHOLD", "run0_stable"),
    ("CLOSURE_TOL", "run0_audit"),
    ("H_DRIFT_TOL", "run0_audit"),
])
def test_stability_checks_read_the_cli_tolerances(tmp_path, monkeypatch, constant, failed):
    monkeypatch.setattr(cli, constant, 0.0)
    code = main(["stability", "--set", "integrator.t_end=0.02", "--out", str(tmp_path)])
    assert code == 2
    _, manifest = _read(tmp_path, ".manifest.json")
    assert [k for k, ok in manifest["pass_fail"].items() if not ok] == [failed]


def test_stability_linearity_ratios_are_the_runs_a0(tmp_path):
    # the sweep's sup ||z||_H2 / eta is each run's a0_observed, null at eta 0
    code = main(["stability", "--set", "stability.eta_sweep=[0.01, 0]",
                 "--set", "integrator.t_end=0.02", "--out", str(tmp_path)])
    assert code == 0
    _, report = _read(tmp_path, ".report.json")
    assert report["sweep"]["linearity_ratios"] == [
        run["a0_observed"] for run in report["runs"]]
    ratio, null = report["sweep"]["linearity_ratios"]
    assert ratio == report["sweep"]["sup_z_h2"][0] / 0.01
    assert null is None


def test_stability_sweep_monotone_in_any_eta_order(tmp_path):
    code = main(["stability", "--set", "stability.eta_sweep=[0.001, 0.01]",
                 "--set", "integrator.t_end=0.02", "--out", str(tmp_path)])
    assert code == 0
    _, manifest = _read(tmp_path, ".manifest.json")
    assert manifest["pass_fail"]["sweep_monotone"] is True
    _, report = _read(tmp_path, ".report.json")
    # the report keeps the listed order
    assert report["sweep"]["etas"] == [0.001, 0.01]
    assert report["sweep"]["sup_z_h2"][0] < report["sweep"]["sup_z_h2"][1]


def test_stability_modulation_failure_exits_two(tmp_path, monkeypatch, capsys):
    real = st.modulate
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args[2])
        if len(calls) == 3:
            raise st.ModulationError("injected stall", (1.0, 1.0))
        return real(*args, **kwargs)

    monkeypatch.setattr(st, "modulate", flaky)
    code = main(["stability", "--set", "integrator.t_end=0.03", "--out", str(tmp_path)])
    assert code == 2
    assert "[FAIL] run0_stable" in capsys.readouterr().out.splitlines()
    _, report = _read(tmp_path, ".report.json")
    assert report["runs"][0]["failure_time"] == calls[2]
    # two fitted checkpoints measure no shift rate; null, not a zero drift
    assert report["runs"][0]["shift_rate_sup"] is None
    assert report["runs"][0]["stable_flag"] is False
    rows = (tmp_path / report["runs"][0]["csv"]).read_text().splitlines()
    assert len(rows) == 3  # header and the two fitted checkpoints


@pytest.mark.parametrize("first,blas_threads,pooled", [
    ("numpy", None, False), ("numpy", "1", True), ("breatherlab.cli", None, True),
    ("breatherlab.spectral", None, True)])
def test_phase_sweep_pools_only_under_one_blas_thread(tmp_path, first, blas_threads, pooled):
    # BLAS reads its thread count when numpy loads it, and a forked worker
    # keeps it: a caller that loaded numpy with the variables unset gets its
    # sweep in process; the variables set from the start, or the package's
    # pin before numpy loads, whichever module is imported first, let it pool
    code = (f"import os, sys, {first}, breatherlab.cli; "
            "os.sched_getaffinity = lambda pid: {0, 1}; "
            f"code = breatherlab.cli.main({_SWEEP + ['--out', str(tmp_path)]!r}); "
            "print(code, 'multiprocessing' in sys.modules)")
    env = {k: v for k, v in os.environ.items() if k not in breatherlab.BLAS_THREAD_VARS}
    if blas_threads:
        env.update(dict.fromkeys(breatherlab.BLAS_THREAD_VARS, blas_threads))
    env["PYTHONPATH"] = str(Path(breatherlab.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {pooled}"


def test_stability_sweep_worker_failure_exits_two(tmp_path, monkeypatch, capsys):
    # the second eta's run raises inside its worker; the error must cross the
    # process boundary and exit 2 as it does in-process, leaving no worker
    real = st.stability_experiment

    def second_fails(p, perturbation, eta, cfg):
        if eta == 0.001:
            raise st.ModulationError("injected failure at eta 0.001", residuals=(1.0, 1.0))
        return real(p, perturbation, eta, cfg)

    monkeypatch.setattr(st, "stability_experiment", second_fails)
    argv = ["stability", "--set", "stability.eta_sweep=[0.01, 0.001]",
            "--set", "integrator.t_end=0.01"]
    errs = []
    for cores in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        code = main(argv + ["--out", str(tmp_path / f"cores{cores}")])
        assert code == 2
        assert multiprocessing.active_children() == []
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "check failed: injected failure at eta 0.001\n"



def test_stability_sweep_failure_stops_the_other_worker(tmp_path, monkeypatch, capsys):
    # the first eta fails at once; the second, a run of about two seconds,
    # is stopped rather than waited for
    real = st.stability_experiment

    def first_fails(p, perturbation, eta, cfg):
        if eta == 0.01:
            raise st.ModulationError("injected failure at eta 0.01", residuals=(1.0, 1.0))
        return real(p, perturbation, eta, cfg)

    monkeypatch.setattr(st, "stability_experiment", first_fails)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    start = time.perf_counter()
    code = main(["stability", "--set", "stability.eta_sweep=[0.01, 0.001]",
                 "--set", "integrator.t_end=1.0", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == "check failed: injected failure at eta 0.01\n"
    assert multiprocessing.active_children() == []
    assert elapsed < 0.5

def test_stability_sweep_killed_worker_exits_two(tmp_path, monkeypatch, capsys):
    # a worker killed by a signal (the OOM killer, say) is a failed check
    # reported on one line, not a traceback with the config-error code
    parent = os.getpid()

    def killed(p, perturbation, eta, cfg):
        if os.getpid() == parent:
            raise AssertionError("the run was not sent to a worker")
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(st, "stability_experiment", killed)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    code = main(["stability", "--set", "stability.eta_sweep=[0.01, 0.001]",
                 "--set", "integrator.t_end=0.01", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("check failed: a worker process was lost: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = ("import sys, breatherlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(breatherlab.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_stability_sweep_leaves_no_worker_running(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    code = main(["stability", "--set", "stability.eta_sweep=[0.01, 0.001]",
                 "--set", "integrator.t_end=0.01", "--out", str(tmp_path)])
    assert code == 0
    assert multiprocessing.active_children() == []


def test_stability_sweep_and_manifest_replay(tmp_path):
    first = tmp_path / "first"
    code = main(["stability", "--set", "stability.eta_sweep=[0.01, 0.001]",
                 "--set", "integrator.t_end=0.02", "--out", str(first)])
    assert code == 0
    man_path, manifest = _read(first, ".manifest.json")
    assert manifest["pass_fail"]["sweep_monotone"] is True
    _, report = _read(first, ".report.json")
    assert report["sweep"]["etas"] == [0.01, 0.001]
    assert report["sweep"]["sup_z_h2"][1] < report["sweep"]["sup_z_h2"][0]
    for run in report["runs"]:
        assert run["stable_flag"] is True
        assert run["config_hash"] == man_path.name.split("_")[1].split(".")[0]

    # replaying from the manifest must reproduce every artifact byte for byte
    second = tmp_path / "second"
    assert main(["stability", "--config", str(man_path), "--out", str(second)]) == 0
    firsts = sorted(p.name for p in first.iterdir())
    assert firsts == sorted(p.name for p in second.iterdir())
    for name in firsts:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_stability_unfittable_first_checkpoint_exits_two(tmp_path, monkeypatch, capsys):
    def no_fit(u, p_guess, t):
        raise st.ModulationError("no fit", residuals=(1.0, 1.0))

    monkeypatch.setattr(st, "modulate", no_fit)
    code = main(["stability", "--set", "integrator.t_end=0.02", "--out", str(tmp_path)])
    assert code == 2
    assert "check failed" in capsys.readouterr().err


def test_stability_frame_ignores_evolve_section(tmp_path, monkeypatch):
    # the stability run always co-moves with the breather, whatever evolve.* says
    seen = []

    def record(p, perturbation, eta, cfg):
        seen.append(cfg)
        raise st.ModulationError("stop after recording", residuals=(0.0, 0.0))

    monkeypatch.setattr(st, "stability_experiment", record)
    code = main(["stability", "--set", "evolve.initial=soliton",
                 "--set", "integrator.t_end=0.01", "--out", str(tmp_path)])
    assert code == 2
    p = cfgmod.breather_params(cfgmod.default_config())
    assert len(seen) == 1
    assert seen[0].frame_speed == -p.gamma
    assert seen[0].boundary_margin == 5.0 / p.beta


def test_out_directory_is_created(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    code = main(["evolve", "--set", "integrator.t_end=0.002",
                 "--set", "integrator.dt=0.0001", "--out", str(nested)])
    assert code == 0
    assert nested.is_dir()


@pytest.mark.parametrize("out", ["a_file", "a_file/sub"])
def test_out_that_cannot_be_a_directory_exits_one(tmp_path, out):
    # in a fresh interpreter, so an uncaught exception shows as a traceback
    (tmp_path / "a_file").write_text("kept\n")
    proc = _run_entry_point(["verify", "--out", out], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["a_file"]
    assert (tmp_path / "a_file").read_text() == "kept\n"


def test_config_file_with_override_precedence(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"alpha": 2.0, "integrator": {"t_end": 0.002,
                                                                 "dt": 1e-4}}))
    code = main(["evolve", "--config", str(cfg_path), "--set", "alpha=2.5",
                 "--out", str(tmp_path)])
    assert code == 0
    _, manifest = _read(tmp_path, ".manifest.json")
    assert manifest["config"]["alpha"] == 2.5
    assert manifest["config"]["integrator"]["t_end"] == 0.002


def _load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(_PYPROJECT, "rb") as fh:
        return tomllib.load(fh)


def _run_entry_point(args, cwd):
    """Run the declared ``breatherlab`` script target in a fresh interpreter.

    The command is the one pip's generated wrapper executes, so the script
    entry, the function it names and the exit code ``main`` returns are all
    exercised without an installed checkout. ``PYTHONPATH`` is the absolute
    directory this package was imported from, so a relative entry in the
    caller's ``PYTHONPATH`` cannot decide which package runs.
    """
    target = _load_pyproject()["project"]["scripts"]["breatherlab"]
    module, _, attr = target.partition(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ,
               PYTHONPATH=str(Path(breatherlab.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_spectrum_report_ignores_the_blas_thread_setting(tmp_path, monkeypatch):
    # the package pins one BLAS thread before numpy loads; with two threads the
    # eigensolver sums in another order and the eigenvalues' last digits move
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        proc = _run_entry_point(["spectrum", "--out", threads], tmp_path)
        assert proc.returncode == 0, proc.stderr
        reports.append(_read(tmp_path / threads, ".report.json")[0].read_bytes())
    assert reports[0] == reports[1]


# The breather family under the grid rule (half-length 30/beta) and the step
# rule (dt/m, m = ceil(max(beta, 0.3 alpha)^3)): each point above beta = 1
# passes, as does evolve at alpha = 3.5 and 5 (m = 2 and 4, which exit 2 at
# one and two steps per dt), and a point too coarse for alpha/beta exits 1
# naming the key to raise, never 2: evolve at alpha = 7 on its own, tighter
# bound, where its f drift failed. So do a grid too coarse for beta (each of
# these exited 2), spectrum's Wronskian grid at alpha = 10 (its closed form
# failed) and a step over the stepper's stability budget (which exited 1 only
# once --out existed).
_FAMILY = [
    (["spectrum", "alpha=1", "beta=2"], 0, None),
    (["verify", "alpha=1", "beta=2"], 0, None),
    (["spectrum", "alpha=3", "beta=3"], 0, None),
    (["verify", "alpha=3", "beta=3"], 0, None),
    (["spectrum", "alpha=10", "beta=10"], 0, None),
    (["verify", "alpha=10", "beta=10"], 0, None),
    (["evolve", "beta=2", "integrator.t_end=0.01"], 0, None),
    (["stability", "beta=2", "integrator.t_end=0.02"], 0, None),
    (["stability", "beta=1.3", "integrator.t_end=0.02"], 0, None),
    (["evolve", "alpha=3.5"], 0, None),
    (["evolve", "alpha=5"], 0, None),
    (["spectrum", "alpha=1", "beta=0.1"], 1,
     "alpha/beta = 10 (beta=0.1) gives h*alpha = 1.17 on the 512-point grid of half-length 300, "
     "above the bound 0.5; raise spectrum.n_points"),
    (["verify", "alpha=1", "beta=0.1"], 1,
     "alpha/beta = 10 (beta=0.1) gives h*alpha = 0.586 on the 1024-point grid of half-length "
     "300, above the bound 0.38; raise grid.n_points"),
    (["verify", "alpha=7"], 1,
     "alpha/beta = 7 (beta=1.0) gives h*alpha = 0.41 on the 1024-point grid of half-length 30, "
     "above the bound 0.38; raise grid.n_points"),
    (["verify", "alpha=6.2"], 1,
     "alpha/beta = 6.2 (beta=1.0) gives h*alpha = 0.266 on the 2048-point grid of half-length 44, "
     "above the bound 0.25; no key applies to verify's fixed residual grid"),
    (["evolve", "alpha=7"], 1,
     "alpha/beta = 7 (beta=1.0) gives h*alpha = 0.41 on the 1024-point grid of half-length 30, "
     "above the bound 0.36; raise grid.n_points"),
    (["evolve", "alpha=3", "grid.n_points=256"], 1, "; raise grid.n_points"),
    (["stability", "alpha=3", "stability.n_points=256"], 1, "; raise stability.n_points"),
    (["spectrum", "spectrum.n_points=2048", "alpha=10"], 1,
     "alpha/beta = 10 (beta=1.0) gives h*alpha = 0.43 on the 2048-point grid of half-length 44, "
     "above the bound 0.38; no key applies to the Wronskian check's fixed residual grid"),
    (["spectrum", "spectrum.n_points=256"], 1,
     "alpha/beta = 1.5 (beta=1.0) gives h*beta = 0.234 on the 256-point grid of half-length 30, "
     "above the bound 0.12; raise spectrum.n_points"),
    (["spectrum", "spectrum.n_points=256", "alpha=0.5"], 1, "; raise spectrum.n_points"),
    (["verify", "grid.n_points=256", "alpha=0.5"], 1,
     "alpha/beta = 0.5 (beta=1.0) gives h*beta = 0.234 on the 256-point grid of half-length 30, "
     "above the bound 0.12; raise grid.n_points"),
    (["evolve", "grid.n_points=512", "integrator.t_end=0.05"], 1,
     "alpha/beta = 1.5 (beta=1.0) gives h*beta = 0.117 on the 512-point grid of half-length 30, "
     "above the bound 0.06; raise grid.n_points"),
    (["evolve", "grid.n_points=512", "alpha=0.5", "integrator.t_end=0.05"], 1,
     "; raise grid.n_points"),
    # the edges of verify's quadrature bound at N = 512 and stability's at N = 1024
    (["verify", "grid.n_points=512", "alpha=3"], 0, None),
    (["verify", "grid.n_points=512", "alpha=3.5"], 1,
     "alpha/beta = 3.5 (beta=1.0) gives h*alpha = 0.41 on the 512-point grid of half-length 30, "
     "above the bound 0.38; raise grid.n_points"),
    (["stability", "stability.n_points=1024", "alpha=6", "integrator.t_end=0.05"], 1,
     "alpha/beta = 6 (beta=1.0) gives h*alpha = 0.352 on the 1024-point grid of half-length 30, "
     "above the bound 0.337; raise stability.n_points"),
    (["stability", "stability.n_points=512", "integrator.t_end=0.05"], 1,
     "alpha/beta = 1.5 (beta=1.0) gives h*beta = 0.117 on the 512-point grid of half-length 30, "
     "above the bound 0.06; raise stability.n_points"),
    (["evolve", "grid.n_points=4096"], 1,
     "dt*max|k^3 + c k| = 1.23e+03 exceeds the stability budget 200.0; reduce dt or the grid "
     "resolution (integrator.dt=0.000125, grid.n_points=4096)"),
    (["stability", "stability.n_points=4096"], 1,
     "dt*max|k^3 + c k| = 1.23e+03 exceeds the stability budget 200.0; reduce dt or the grid "
     "resolution (integrator.dt=0.000125, stability.n_points=4096)"),
]


@pytest.mark.parametrize("args,code,message", _FAMILY, ids=[" ".join(a) for a, _, _ in _FAMILY])
def test_breather_family_runs_or_is_refused(tmp_path, capsys, args, code, message):
    command, *sets = args
    out = tmp_path / "out"
    argv = [command, *(arg for key in sets for arg in ("--set", key)), "--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("config error: ") and err.endswith(f"{message}\n")
        assert len(err.splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "spectrum", "evolve", "stability"])
def test_every_breather_grid_is_a_checked_grid(tmp_path, monkeypatch, command):
    # each grid the breather is evaluated on, at the defaults, is one whose
    # resolution the command's refusals checked first
    checked, evaluated = [], []
    real_check = cfgmod.check_resolution

    def check(config, grid, *args):
        checked.append(grid)
        return real_check(config, grid, *args)

    def recorded(real):
        def evaluate(p, t, x):
            # the nodes of a grid of half-length L start at -L
            evaluated.append(gr.PeriodicGrid(-float(x[0]), len(x)))
            return real(p, t, x)
        return evaluate

    monkeypatch.setattr(cfgmod, "check_resolution", check)
    for name in ("breather", "breather_jet"):
        monkeypatch.setattr(cf, name, recorded(getattr(cf, name)))
    assert main([command, "--out", str(tmp_path)]) == 0
    assert evaluated
    assert set(evaluated) <= set(checked)


def test_verify_below_every_mode_of_the_perturbation_band_exits_one(tmp_path):
    # at beta = 1e-4 the 30/beta box is too coarse for alpha by far, and
    # below the perturbation's band: refused before any field exists, in a
    # fresh interpreter, so a warning or a traceback would show
    proc = _run_entry_point(["verify", "--set", "beta=1e-4", "--out", "out"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (
        "config error: alpha/beta = 15000 (beta=0.0001) gives h*alpha = 879 on the 1024-point "
        "grid of half-length 300000, above the bound 0.38; raise grid.n_points\n")
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_console_script_runs(tmp_path):
    proc = _run_entry_point([*_SHORT_EVOLVE, "--out", str(tmp_path / "ok")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] mass_drift" in proc.stdout

    proc = _run_entry_point([*_SHORT_EVOLVE, "--set", "alpha=0",
                             "--out", str(tmp_path / "bad")], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "config error" in proc.stderr


@pytest.mark.skipif(not _INSTALLED_SCRIPT.exists(),
                    reason=f"no installed console script at {_INSTALLED_SCRIPT}")
def test_installed_console_script_runs(tmp_path):
    proc = subprocess.run(
        [str(_INSTALLED_SCRIPT), *_SHORT_EVOLVE, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] mass_drift" in proc.stdout
