"""Tests of the benchmark's own code: tracer, self-time arithmetic, gate.

    PYTHONPATH=src python3 -m pytest -q perfbench

None of these tests edits the program; the tracer tests patch and restore
module attributes in this process only.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

import gate
import layers
import run
from breatherlab import closed_forms as cf
from breatherlab import evolution as ev
from breatherlab import functionals as fn
from breatherlab import grid as gr
from breatherlab import spectral as sp


def _namespaces():
    import breatherlab
    import importlib

    mods = [breatherlab] + [importlib.import_module(f"breatherlab.{m}") for m in layers.LAYERS]
    return mods + [np.fft, scipy.fft, scipy.linalg, ev._Stepper]


def _snapshot():
    return {id(ns): dict(vars(ns)) for ns in _namespaces()}


def _assert_restored(before):
    for ns in _namespaces():
        now = vars(ns)
        old = before[id(ns)]
        assert now.keys() == old.keys(), ns
        changed = [k for k in old if now[k] is not old[k]]
        assert not changed, (ns, changed)


def test_tracer_patches_looked_up_names_and_restores_them():
    before = _snapshot()
    tracer = layers.Tracer()
    with tracer.installed():
        # names bound by `from .functionals import ...` inside spectral are wrapped
        assert sp.apply_operator is not before[id(sp)]["apply_operator"]
        assert sp.coefficient_fields is not before[id(sp)]["coefficient_fields"]
        assert scipy.linalg.eigh is not before[id(scipy.linalg)]["eigh"]
        assert np.fft.rfft is not before[id(np.fft)]["rfft"]
        p = cf.BreatherParams(alpha=1.5, beta=1.0)
        op = sp.assemble(p, gr.PeriodicGrid(30.0, 64))
        sp.eigensystem(op)
    _assert_restored(before)

    names = [s.name for s in tracer.spans]
    assert names[0] == "spectral.assemble"
    assert "functionals.coefficient_fields" in names
    assert "functionals.apply_operator" in names
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer.kernels["eigh"].calls == 1
    assert tracer.kernels["numpy_fft"].calls > 0


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(ValueError):
        with layers.Tracer().installed():
            fn.mass(gr.GridField(gr.PeriodicGrid(30.0, 63), np.zeros(63)))
    _assert_restored(before)


def test_tracer_counts_steps_and_checkpoints(tmp_path):
    grid = gr.PeriodicGrid(30.0, 128)
    soliton = cf.SolitonParams(c=1.0)
    u0 = gr.sample(lambda t, x: cf.soliton(soliton, t, x), grid, 0.0)
    cfg = ev.IntegratorConfig(dt=1e-3, t_end=0.01, frame_speed=1.0, monitor_stride=5)
    tracer = layers.Tracer()
    with tracer.installed():
        ev.evolve(u0, cfg)
    metrics = layers.layer_metrics(tracer)
    assert metrics["evolution.steps"] == 10
    assert metrics["evolution.checkpoints"] == 3
    # four flux calls of two transforms per step, plus the start and checkpoints
    assert metrics["numpy_fft.calls"] >= 8 * 10 + 3
    path = tmp_path / "spans.json"
    tracer.write(path)
    doc = json.loads(path.read_text())
    assert doc["steps"] == 10
    assert doc["spans"][0][0] == "evolution.evolve" and doc["spans"][0][3] == -1
    assert all(0 <= row[3] < i for i, row in enumerate(doc["spans"]) if row[3] != -1)


def test_fft_points_is_transform_length_times_batch():
    assert layers._fft_points("rfft", (np.zeros(16),), {}) == 16
    assert layers._fft_points("irfft", (np.zeros(9, complex),), {"n": 16}) == 16
    assert layers._fft_points("irfft", (np.zeros(9, complex),), {}) == 16
    assert layers._fft_points("rfft", (np.eye(8),), {"axis": 0}) == 64
    assert layers._fft_points("irfft", (np.zeros((5, 8), complex),), {"n": 8, "axis": 0}) == 64


def test_self_times_on_synthetic_nested_spans():
    root = layers.Span("cli.main", 0.0, 10.0)
    evolve = layers.Span("evolution.evolve", 1.0, 6.0, root)
    mass = layers.Span("functionals.mass", 2.0, 3.0, evolve)
    quad = layers.Span("grid.quadrature", 2.25, 2.75, mass)
    centroid = layers.Span("evolution.energy_centroid", 4.0, 4.5, evolve)
    modulate = layers.Span("stability.modulate", 7.0, 9.0, root)
    dx1 = layers.Span("closed_forms.breather_dx1", 7.5, 8.0, modulate)
    spans = [root, evolve, mass, quad, centroid, modulate, dx1]
    assert layers.self_times(spans) == [3.0, 3.5, 0.5, 0.5, 0.5, 1.5, 0.5]

    tracer = layers.Tracer()
    tracer.spans.extend(spans)
    tracer.steps = 7
    m = layers.layer_metrics(tracer)
    # evolution self time keeps its own child (energy_centroid), drops the
    # functionals and grid children
    assert m["evolution.self_s"] == 4.0
    assert m["evolution.step_us"] == pytest.approx(4.0e6 / 7)
    assert m["functionals.self_s"] == 0.5 and m["grid.self_s"] == 0.5
    assert m["stability.modulate_calls"] == 1 and m["stability.fit_evals"] == 1
    assert m["stability.modulate_s"] == 2.0
    assert m["stability.modulate_p50_ms"] == 2000.0
    assert m["trace.unattributed_s"] == 3.0
    assert m["closed_forms.calls"] == 1 and m["spectral.spectra"] == 0

    # run.py adds the metrics measured outside the traced call
    with open(run.SPEC, encoding="utf-8") as handle:
        names = {metric["name"] for metric in json.load(handle)["per_layer"]}
    added = {"cli.bytes_written", "process.cpu_s", "process.cpu_util", "trace.overhead_s"}
    assert set(m) | added == names and not set(m) & added


def test_self_time_counts_overlapping_children_once():
    root = layers.Span("spectral.sweep_spectra", 0.0, 10.0)
    a = layers.Span("spectral.spectrum", 1.0, 6.0, root)
    b = layers.Span("spectral.spectrum", 4.0, 8.0, root)
    c = layers.Span("spectral.spectrum", 9.5, 12.0, root)
    assert layers.self_times([root, a, b, c])[0] == pytest.approx(10.0 - 7.0 - 0.5)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert layers._percentile(values, 50) == 50.0
    assert layers._percentile(values, 99) == 99.0
    assert layers._percentile([], 99) == 0.0


STDOUT = "[PASS] run0_audit\n[PASS] run0_stable\nreport: r.json\nmanifest: m.json\n"
REPORT = {"runs": [{"sup_z_h2": 0.0123, "a0_observed": 12.3, "shift_rate_sup": 4.5e-3}],
          "sweep": None}


def test_gate_accepts_a_matching_report():
    reference = gate.report_scalars(REPORT)
    checks = gate.verdict(0, STDOUT, REPORT, reference)
    assert all(ok for _, ok in checks) and len(checks) == 2 + 2 + 3


def test_gate_rejects_a_fail_line():
    reference = gate.report_scalars(REPORT)
    doctored = STDOUT.replace("[PASS] run0_stable", "[FAIL] run0_stable")
    failed = [n for n, ok in gate.verdict(0, doctored, REPORT, reference) if not ok]
    assert failed == ["line.run0_stable"]


def test_gate_rejects_a_drifted_scalar():
    reference = gate.report_scalars(REPORT)
    doctored = json.loads(json.dumps(REPORT))
    doctored["runs"][0]["sup_z_h2"] *= 1.0 + 1e-4
    failed = [n for n, ok in gate.verdict(0, STDOUT, doctored, reference) if not ok]
    assert failed == ["reference.runs.0.sup_z_h2"]


def test_gate_spectrum_scalars_and_tolerances():
    report = {"spectrum": {"lambda0_sq": 2.0, "mu0_estimate": 0.5},
              "sweep": {"lambda0_sq": [2.0, 2.1], "negative_counts": [1, 1]}}
    reference = gate.report_scalars(report)
    nudged = json.loads(json.dumps(report))
    nudged["spectrum"]["mu0_estimate"] = 0.5 * 1.01  # within the bisection's 1%
    assert all(ok for _, ok in gate.verdict(0, "[PASS] a\n", nudged, reference))
    nudged["sweep"]["negative_counts"] = [1, 2]
    nudged["sweep"]["lambda0_sq"] = [2.0, 2.1 * (1 + 1e-5)]
    failed = [n for n, ok in gate.verdict(0, "[PASS] a\n", nudged, reference) if not ok]
    assert failed == ["reference.sweep.lambda0_sq", "reference.sweep.negative_counts"]


def test_gate_fails_everything_on_a_nonzero_exit_or_missing_lines():
    reference = gate.report_scalars(REPORT)
    assert not any(ok for _, ok in gate.verdict(2, STDOUT, REPORT, reference))
    failed = [n for n, ok in gate.verdict(0, "report: r.json\n", REPORT, reference) if not ok]
    assert failed == ["check_lines_present"]
    failed = [n for n, ok in gate.verdict(0, STDOUT, None, reference) if not ok]
    assert len(failed) == 3
    failed = [n for n, ok in gate.verdict(0, STDOUT, REPORT, None) if not ok]
    assert failed == ["reference_present"]


def test_workload_inputs_follow_the_seed():
    for workload in run.WORKLOADS:
        assert run.workload_case(workload, 3) == run.workload_case(workload, 3)
        assert run.workload_case(workload, 3)[0] == run.workload_case(workload, 3 + run.CASES)[0]
    shifts = set()
    for seed in range(run.CASES):
        _, argv = run.workload_case("spectrum_sweep", seed)
        x1 = float(next(a for a in argv if a.startswith("x1="))[3:])
        assert 0.0 <= x1 < math.pi / (8.0 * run.ALPHA)
        shifts.add(x1)
    assert len(shifts) == run.CASES


def test_references_cover_every_workload_and_case():
    with open(run.REFERENCES, encoding="ascii") as handle:
        references = json.load(handle)
    for workload in run.WORKLOADS:
        assert sorted(references[workload], key=int) == [str(c) for c in range(run.CASES)]
        for values in references[workload].values():
            assert all(key.rpartition(".")[2] in gate.REL_TOL for key in values)
