"""Command-line interface: exit codes, reports, manifests, replay determinism."""

import json
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import breatherlab
from breatherlab import config as cfgmod
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


def test_verify_detects_wrong_velocity(tmp_path):
    code = main(["verify", "--set", "verify.gamma_scale=1.001", "--out", str(tmp_path)])
    assert code == 2
    _, manifest = _read(tmp_path, ".manifest.json")
    failed = [k for k, ok in manifest["pass_fail"].items() if not ok]
    assert failed == ["stationary"]


def test_invalid_parameter_exits_one(tmp_path, capsys):
    assert main(["verify", "--set", "alpha=0", "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "integrator.monitor_stride=[1]",
    "stability.eta_sweep=[[0.01]]",
    "alpha=1e400",
    "integrator.frame_speed=NaN",
    "verify.gamma_scale=Infinity",
    "grid.half_length=Infinity",
    "integrator.t_end=Infinity",
])
def test_malformed_override_exits_one(tmp_path, override):
    # in a fresh interpreter, so an uncaught exception shows as a traceback
    proc = _run_entry_point(["verify", "--set", override, "--out", str(tmp_path)], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_key_exits_one(tmp_path):
    assert main(["verify", "--set", "gamma=1", "--out", str(tmp_path)]) == 1


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


def test_spectrum_phase_sweep(tmp_path):
    code = main(["spectrum", "--set", "spectrum.phase_sweep=true",
                 "--set", "spectrum.phase_samples=4", "--out", str(tmp_path)])
    assert code == 0
    _, report = _read(tmp_path, ".report.json")
    assert len(report["sweep"]["lambda0_sq"]) == 4
    assert all(v > 0.0 for v in report["sweep"]["lambda0_sq"])
    _, manifest = _read(tmp_path, ".manifest.json")
    assert manifest["pass_fail"]["sweep_lambda0_sq_positive"] is True


def test_spectrum_manifest_replay(tmp_path):
    # one process, so one BLAS thread count: the report must replay byte for
    # byte (across thread counts the eigenvalues differ in the last digits)
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


def test_evolve_impossible_tolerance_exits_two(tmp_path):
    code = main(["evolve", "--set", "integrator.t_end=0.01",
                 "--set", "integrator.dt=0.0001",
                 "--set", "evolve.drift_tol=1e-18", "--out", str(tmp_path)])
    assert code == 2


def test_evolve_unstable_dt_exits_one(tmp_path, capsys):
    code = main(["evolve", "--set", "integrator.dt=0.01",
                 "--set", "integrator.t_end=0.1", "--out", str(tmp_path)])
    assert code == 1
    assert "stability budget" in capsys.readouterr().err


def test_evolve_domain_exit_writes_nothing(tmp_path, capsys):
    # the soliton drifts in the lab frame and crosses the boundary guard
    # at t = 0.006, long before t_end
    out = tmp_path / "out"
    code = main(["evolve", "--set", "evolve.initial=soliton",
                 "--set", "integrator.frame_speed=0",
                 "--set", "integrator.boundary_margin=29.995",
                 "--set", "integrator.monitor_stride=10",
                 "--set", "integrator.t_end=0.02",
                 "--set", "integrator.dt=0.0001", "--out", str(out)])
    assert code == 2
    assert "check failed" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_stability_eta_zero_reports_null_a0(tmp_path):
    code = main(["stability", "--set", "stability.eta=0",
                 "--set", "integrator.t_end=0.02", "--out", str(tmp_path)])
    assert code == 0
    _, report = _read(tmp_path, ".report.json")
    assert report["runs"][0]["a0_observed"] is None
    assert report["runs"][0]["failure_time"] is None


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
