"""Configuration merging, validation, overrides, and canonical hashing."""

import json

import pytest

from breatherlab import config as cfg


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
        "integrator.frame_speed=null",
    ])
    assert c["alpha"] == 2.5
    assert c["integrator"]["dt"] == 5e-4
    assert c["stability"]["eta_sweep"] == [0.01, 0.001]
    assert c["stability"]["perturbation"] == "sech_cos"
    assert c["integrator"]["frame_speed"] is None


def test_apply_overrides_rejects_malformed():
    with pytest.raises(cfg.ConfigError, match="key=value"):
        cfg.apply_overrides(cfg.default_config(), ["alpha"])
    with pytest.raises(cfg.ConfigError, match="key=value"):
        cfg.apply_overrides(cfg.default_config(), ["=3"])


@pytest.mark.parametrize("assignment,message", [
    ("alpha=true", "must be a number"),
    ("seed=1.5", "must be an integer"),
    ("integrator.dealias=3", "must be a boolean"),
    ("alpha=null", "may not be null"),
    ("evolve.initial=[1]", "must be a string"),
    ("stability.eta_sweep=0.01", "must be a list"),
    ("x1=NaN", "must be finite"),
])
def test_coercion_rejects_wrong_types(assignment, message):
    with pytest.raises(cfg.ConfigError, match=message):
        cfg.apply_overrides(cfg.default_config(), [assignment])


def test_nullable_paths_accept_null():
    c = cfg.default_config()
    cfg.apply_overrides(c, ["grid.half_length=25.0", "integrator.boundary_margin=4"])
    assert c["grid"]["half_length"] == 25.0
    assert c["integrator"]["boundary_margin"] == 4.0
    cfg.apply_overrides(c, ["grid.half_length=null", "integrator.boundary_margin=null"])
    assert c["grid"]["half_length"] is None
    assert c["integrator"]["boundary_margin"] is None


@pytest.mark.parametrize("assignment,message", [
    ("alpha=-1", "alpha > 0"),
    ("alpha=0", "alpha > 0"),
    ("beta=0", "beta > 0"),
    ("grid.n_points=1000", "power of two"),
    ("spectrum.n_points=8", "power of two"),
    ("integrator.dt=0", "dt must be positive"),
    ("integrator.t_end=-1", "t_end must be positive"),
    ("integrator.monitor_stride=0", "monitor_stride"),
    ("verify.gamma_scale=0", "gamma_scale"),
    ("spectrum.phase_samples=0", "phase_samples"),
    ("evolve.initial=vortex", "breather"),
    ("evolve.soliton_c=0", "soliton_c"),
    ("stability.eta=0.2", "eta must lie"),
    ("stability.eta_sweep=[0.0]", "eta_sweep"),
    ("stability.eta_sweep=[0.06]", "eta_sweep"),
    ("stability.perturbation=spike", "perturbation"),
])
def test_validate_config_rejections(assignment, message):
    c = cfg.apply_overrides(cfg.default_config(), [assignment])
    with pytest.raises(cfg.ConfigError, match=message):
        cfg.validate_config(c)


def test_breather_params_and_grid():
    c = cfg.apply_overrides(cfg.default_config(), ["beta=0.5", "x1=0.3"])
    p = cfg.breather_params(c)
    assert (p.alpha, p.beta, p.x1, p.x2) == (1.5, 0.5, 0.3, 0.0)
    assert cfg.make_grid(c).half_length == 60.0
    assert cfg.make_grid(c, 256).n_points == 256
    c2 = cfg.apply_overrides(c, ["grid.half_length=35.0"])
    assert cfg.make_grid(c2).half_length == 35.0


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
