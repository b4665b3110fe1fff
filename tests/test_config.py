"""Configuration merging, validation, overrides, and canonical hashing."""

import json
from pathlib import Path

import pytest

from breatherlab import config as cfg
from breatherlab.cli import main

_IDENTITY_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "artifact_identity.sh"


def _leaf_keys(table: dict, path: str = "") -> list[str]:
    keys = []
    for key, value in table.items():
        keys += _leaf_keys(value, f"{path}{key}.") if isinstance(value, dict) else [path + key]
    return keys


def test_config_surface():
    # every settable value is one a workload or a check sets; a new knob is
    # added here on purpose
    assert sorted(_leaf_keys(cfg.DEFAULTS)) == [
        "alpha", "beta",
        "evolve.initial", "evolve.soliton_c",
        "grid.n_points",
        "integrator.dt", "integrator.monitor_stride", "integrator.t_end",
        "seed",
        "spectrum.n_points", "spectrum.phase_sweep",
        "stability.eta_sweep", "stability.n_points", "stability.perturbation",
        "x1",
    ]


def test_default_config_is_valid_and_detached():
    a = cfg.default_config()
    cfg.validate_config(a)
    a["grid"]["n_points"] = 13
    assert cfg.default_config()["grid"]["n_points"] == 1024


def test_load_config_missing_path_is_defaults():
    assert cfg.load_config(None) == cfg.default_config()


def test_load_config_merges_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"alpha": 2.0, "grid": {"n_points": 256}}))
    got = cfg.load_config(str(path))
    assert got["alpha"] == 2.0
    assert got["grid"]["n_points"] == 256
    assert got["beta"] == 1.0


def test_load_config_unwraps_manifest(tmp_path):
    inner = cfg.default_config()
    inner["beta"] = 0.5
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"command": "verify", "config": inner, "outputs": []}))
    assert cfg.load_config(str(path))["beta"] == 0.5


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(cfg.ConfigError, match="JSON object"):
        cfg.load_config(str(path))


def test_merge_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alpha": 1.0, "gamma": 2.0}))
    with pytest.raises(cfg.ConfigError, match="unknown config key"):
        cfg.load_config(str(path))


def test_apply_overrides():
    c = cfg.default_config()
    cfg.apply_overrides(c, [
        "alpha=2.5",
        "integrator.dt=0.0005",
        "stability.eta_sweep=[0.01, 0.001]",
        "stability.perturbation=sech_cos",  # bare word falls back to a string
    ])
    assert c["alpha"] == 2.5
    assert c["integrator"]["dt"] == 5e-4
    assert c["stability"]["eta_sweep"] == [0.01, 0.001]
    assert c["stability"]["perturbation"] == "sech_cos"


def test_apply_overrides_rejects_malformed():
    with pytest.raises(cfg.ConfigError, match="key=value"):
        cfg.apply_overrides(cfg.default_config(), ["alpha"])
    with pytest.raises(cfg.ConfigError, match="key=value"):
        cfg.apply_overrides(cfg.default_config(), ["=3"])


@pytest.mark.parametrize("assignment,message", [
    ("alpha=true", "must be a number"),
    ("seed=1.5", "must be an integer"),
    ("spectrum.phase_sweep=3", "must be a boolean"),
    ("alpha=null", "may not be null"),
    ("evolve.initial=[1]", "must be a string"),
    ("stability.eta_sweep=0.01", "must be a list"),
    ("x1=NaN", "must be finite"),
    ("integrator.dt=true", "must be a number"),
])
def test_coercion_rejects_wrong_types(assignment, message):
    with pytest.raises(cfg.ConfigError, match=message):
        cfg.apply_overrides(cfg.default_config(), [assignment])


@pytest.mark.parametrize("assignment,message", [
    ("alpha=-1", "alpha > 0"),
    ("alpha=0", "alpha > 0"),
    ("beta=0", "beta > 0"),
    ("alpha=1e70", "alpha=1e\\+70 is above the bound 1000"),
    ("beta=1000.5", "beta=1000.5 is above the bound 1000"),
    ("grid.n_points=1000", "power of two"),
    ("spectrum.n_points=8", "power of two"),
    ("integrator.dt=0", "dt must be positive"),
    ("integrator.t_end=-1", "t_end must be positive"),
    ("integrator.monitor_stride=0", "monitor_stride"),
    ("evolve.initial=vortex", "breather"),
    ("evolve.soliton_c=0", "soliton_c"),
    ("stability.eta_sweep=[]", "at least one eta"),
    ("stability.eta_sweep=[-0.001]", "eta_sweep"),
    ("stability.eta_sweep=[0.06]", "eta_sweep"),
    ("stability.perturbation=spike", "perturbation"),
])
def test_validate_config_rejections(assignment, message):
    c = cfg.apply_overrides(cfg.default_config(), [assignment])
    with pytest.raises(cfg.ConfigError, match=message):
        cfg.validate_config(c)


def test_frequency_bound_admits_its_value():
    cfg.validate_config(cfg.apply_overrides(cfg.default_config(), ["alpha=1e3", "beta=1e3"]))


def test_spectrum_dense_arrays_beyond_budget_are_refused():
    # arithmetic only: the guard compares 8 * 8 N^2 bytes with the budget
    assert cfg.SPECTRUM_DENSE_ARRAYS * 8 * 4096**2 <= cfg.DENSE_BUDGET_BYTES
    assert cfg.SPECTRUM_DENSE_ARRAYS * 8 * 8192**2 > cfg.DENSE_BUDGET_BYTES
    cfg.validate_config(cfg.apply_overrides(cfg.default_config(), ["spectrum.n_points=4096"]))
    for n in (8192, 2**20):
        c = cfg.apply_overrides(cfg.default_config(), [f"spectrum.n_points={n}"])
        with pytest.raises(cfg.ConfigError,
                           match=f"spectrum.n_points={n} needs about {64 * n**2} bytes"):
            cfg.validate_config(c)


def test_grid_arrays_beyond_budget_are_refused():
    # arithmetic only: the guard compares 48 * 8 N bytes with the budget
    assert cfg.GRID_ARRAYS * 8 * 2**22 <= cfg.DENSE_BUDGET_BYTES
    assert cfg.GRID_ARRAYS * 8 * 2**23 > cfg.DENSE_BUDGET_BYTES
    for key in ("grid", "stability"):
        cfg.validate_config(cfg.apply_overrides(cfg.default_config(), [f"{key}.n_points={2**22}"]))
        for n in (2**23, 2**40):
            c = cfg.apply_overrides(cfg.default_config(), [f"{key}.n_points={n}"])
            with pytest.raises(cfg.ConfigError,
                               match=f"{key}.n_points={n} needs about {384 * n} bytes"):
                cfg.validate_config(c)


def test_spectrum_refused_before_anything_runs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--set", "spectrum.n_points=8192", "--out", str(out)]) == 1
    assert "spectrum.n_points=8192 needs about 4294967296 bytes" in capsys.readouterr().err
    assert not out.exists()


def test_counts_beyond_budget_are_refused():
    # arithmetic only: evolve and stability take m * t_end / dt steps
    assert 50.0 / 1.25e-4 <= cfg.STEP_BUDGET
    cfg.run_steps(cfg.apply_overrides(cfg.default_config(), ["integrator.t_end=50"]))
    refused = [
        (["integrator.t_end=1e6"],
         r"integrator.t_end=1000000.0 at integrator.dt=0.000125 needs about 8e\+09 steps"),
        (["integrator.dt=1e-300", "integrator.t_end=1e300"], "needs about inf steps"),
        # 8 steps per dt at beta = 2: 50 / dt is within the budget, 8 times it is not
        (["beta=2", "integrator.t_end=50"], r"about 3.2e\+06 steps \(m = 8 per dt at beta=2"),
        # and 4 at alpha = 5
        (["alpha=5", "integrator.t_end=100"],
         r"about 3.2e\+06 steps \(m = 4 per dt at beta=1.0, alpha=5.0\)"),
    ]
    for assignments, message in refused:
        c = cfg.apply_overrides(cfg.default_config(), assignments)
        cfg.validate_config(c)  # the budget depends on the command, not the config alone
        with pytest.raises(cfg.ConfigError, match=message):
            cfg.run_steps(c)


@pytest.mark.parametrize("beta,m", [(0.5, 1), (1.0, 1), (1.3, 3), (2.0, 8), (10.0, 1000)])
def test_run_steps_take_m_steps_per_dt(beta, m):
    # m = ceil(max(beta, 0.3 alpha)^3): the checkpoint times stay those of dt
    # and stride; at the default alpha = 1.5 beta alone sets m
    c = cfg.apply_overrides(cfg.default_config(), [f"beta={beta}", "integrator.t_end=0.05"])
    dt, stride = cfg.run_steps(c)
    assert (dt, stride) == (1.25e-4 / m, 80 * m)


@pytest.mark.parametrize("alpha,beta,m", [
    (1.5, 1.0, 1), (3.0, 1.0, 1), (2.0, 0.5, 1), (3.5, 1.0, 2), (5.0, 1.0, 4), (1.0, 2.0, 8),
])
def test_run_steps_weigh_alpha(alpha, beta, m):
    # every identity point, alpha <= 3 at beta = 1 included, takes one step
    # per dt; above that alpha sets m along beta = 1
    c = cfg.apply_overrides(cfg.default_config(),
                            [f"alpha={alpha}", f"beta={beta}", "integrator.t_end=0.05"])
    dt, stride = cfg.run_steps(c)
    assert (dt, stride) == (1.25e-4 / m, 80 * m)


@pytest.mark.parametrize("command,assignment,message", [
    ("evolve", "integrator.t_end=1e6", "integrator.t_end=1000000.0 at integrator.dt"),
    # the defaults' 4000 steps per run are 4e6 at beta = 10, m = 1000; verify
    # and spectrum, which do not step, run there (tests/test_cli.py)
    ("evolve", "beta=10", "about 4e+06 steps (m = 1000 per dt at beta=10"),
    ("stability", "beta=10", "about 4e+06 steps (m = 1000 per dt at beta=10"),
])
def test_counts_refused_before_anything_runs(tmp_path, capsys, command, assignment, message):
    out = tmp_path / "out"
    code = main([command, "--set", assignment, "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _identity_invocations():
    """The CLI argument lists of tools/artifact_identity.sh."""
    block = _IDENTITY_SCRIPT.read_text().split("INVOCATIONS='", 1)[1].split("'", 1)[0]
    return [line.split() for line in block.splitlines()]


def test_identity_invocations_pass_the_dense_guard():
    invocations = _identity_invocations()
    assert len(invocations) == 22
    assert any("spectrum.n_points=1024" in args for args in invocations)
    # and the c12 configuration of tests/test_acceptance.py
    invocations.append(["stability", "--set", "stability.eta_sweep=[0.01, 0.001]",
                        "--set", "integrator.t_end=5.0"])
    steps = []
    for args in invocations:
        overrides = [args[i + 1] for i, arg in enumerate(args) if arg == "--set"]
        c = cfg.apply_overrides(cfg.default_config(), overrides)
        # the dense-array, resolution and step guards
        cfg.validate_config(c)
        _, integrator = cfg.plan(args[0], c)
        if integrator is not None:  # evolve and stability step; verify and spectrum do not
            steps.append(integrator.t_end / integrator.dt)
    assert max(steps) == 40000.0


def test_breather_params_and_grid():
    c = cfg.apply_overrides(cfg.default_config(), ["beta=0.5", "x1=0.3"])
    p = cfg.breather_params(c)
    assert (p.alpha, p.beta, p.x1, p.x2) == (1.5, 0.5, 0.3, 0.0)
    assert cfg.make_grid(c).half_length == 60.0
    assert cfg.make_grid(c, 256).n_points == 256
    c2 = cfg.apply_overrides(c, ["beta=2"])
    assert cfg.make_grid(c2).half_length == 15.0


def test_canonical_json_is_sorted_and_stable():
    doc = cfg.canonical_json({"b": 1, "a": {"y": True, "x": None}, "c": [1.5, 2]})
    assert doc.index('"a"') < doc.index('"b"') < doc.index('"c"')
    assert '"x": null' in doc
    assert '"y": true' in doc
    assert doc.endswith("\n")
    assert json.loads(doc) == {"b": 1, "a": {"y": True, "x": None}, "c": [1.5, 2.0]}


def test_canonical_json_float_format():
    assert cfg.canonical_json(0.1).strip() == "0.10000000000000001"
    with pytest.raises(ValueError, match="non-finite"):
        cfg.canonical_json(float("inf"))


def test_config_hash_order_independent():
    a = {"alpha": 1.5, "beta": 1.0}
    b = {"beta": 1.0, "alpha": 1.5}
    assert cfg.config_hash(a) == cfg.config_hash(b)
    assert len(cfg.config_hash(a)) == 12
    assert cfg.config_hash(a) != cfg.config_hash({"alpha": 1.5, "beta": 2.0})
