"""Traced-run instrumentation, installed from outside the program.

A Tracer replaces every public function of the breatherlab modules with a
wrapper that records a span (name, start, end, parent).  A function is
replaced under every name that binds it, so a name imported with
``from .functionals import apply_operator`` inside ``spectral`` is traced as
well as ``functionals.apply_operator`` itself.  Three kernels the package
reaches through module attributes get counting wrappers instead of spans:
the FFT transforms of ``numpy.fft`` and ``scipy.fft`` (the ``numpy_fft``
pseudo-layer), ``scipy.linalg.eigh``, and the ETDRK4 step method
``evolution._Stepper.advance``.  Every replaced attribute is restored on
uninstall.

Spans nest by call order on one thread.  The benchmark runs the program's
default single-threaded path (``BREATHERLAB_WORKERS`` unset), which is the
path these spans describe.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

PACKAGE = "breatherlab"
LAYERS = ("config", "cli", "closed_forms", "grid", "functionals", "spectral",
          "evolution", "stability")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft")


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float = 0.0, parent: Span | None = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Kernel:
    """Call count, busy seconds and a computed work count of one kernel."""

    __slots__ = ("calls", "seconds", "points")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.points = 0


def _fft_points(name: str, args: tuple, kwargs: dict) -> int:
    """Transform length times the number of transforms in one FFT call."""
    shape = np.shape(args[0] if args else kwargs["a"])
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    m = shape[axis]
    if n is None:
        n = 2 * (m - 1) if name == "irfft" else m
    return n * (math.prod(shape) // m) if m else 0


class Tracer:
    """Spans and kernel counters of one traced program call."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Span] = []
        self.kernels = {"numpy_fft": Kernel(), "eigh": Kernel()}
        self.steps = 0
        self.checkpoints = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, func, on_return=None):
        clock, spans, stack = self.clock, self.spans, self._stack

        @wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _kernel_wrapper(self, kernel: Kernel, func, points=None):
        clock = self.clock

        @wraps(func)
        def wrapper(*args, **kwargs):
            if points is not None:
                kernel.points += points(func.__name__, args, kwargs)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                kernel.seconds += clock() - start
                kernel.calls += 1

        return wrapper

    def _count_steps(self, func):
        @wraps(func)
        def wrapper(*args, **kwargs):
            self.steps += 1
            return func(*args, **kwargs)

        return wrapper

    def _count_checkpoints(self, trace) -> None:
        self.checkpoints += len(trace.times)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.fft
        import scipy.fft
        import scipy.linalg

        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    span = f"{layer}.{name}"
                    hook = self._count_checkpoints if span == "evolution.evolve" else None
                    wrappers[id(obj)] = self._span_wrapper(span, obj, hook)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, name, wrappers[id(obj)])
        stepper = modules["evolution"]._Stepper
        self._patch(stepper, "advance", self._count_steps(stepper.advance))
        for owner in (numpy.fft, scipy.fft):
            for name in FFT_NAMES:
                self._patch(owner, name, self._kernel_wrapper(
                    self.kernels["numpy_fft"], getattr(owner, name), _fft_points))
        self._patch(scipy.linalg, "eigh",
                    self._kernel_wrapper(self.kernels["eigh"], scipy.linalg.eigh))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """Spans as [name, start, end, parent index or -1], plus counters."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        doc = {
            "spans": [[s.name, s.start, s.end, index[id(s.parent)] if s.parent else -1]
                      for s in self.spans],
            "kernels": {k: {"calls": v.calls, "seconds": v.seconds, "points": v.points}
                        for k, v in self.kernels.items()},
            "steps": self.steps,
            "checkpoints": self.checkpoints,
        }
        with open(path, "w", encoding="ascii") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return [s.duration - _covered(children.get(id(s), ()), s.start, s.end) for s in spans]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _has_ancestor(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced call, keyed by benchmark metric name."""
    spans = tracer.spans
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    fn_self = defaultdict(float)
    by_name = defaultdict(list)
    for s, t in zip(spans, own):
        calls[s.layer] += 1
        self_s[s.layer] += t
        fn_self[s.name] += t
        by_name[s.name].append(s.duration)
    fft, eigh = tracer.kernels["numpy_fft"], tracer.kernels["eigh"]
    modulate = by_name["stability.modulate"]
    spectra = by_name["spectral.spectrum"]
    return {
        "evolution.steps": tracer.steps,
        "evolution.checkpoints": tracer.checkpoints,
        "evolution.self_s": self_s["evolution"],
        "evolution.step_us": 1e6 * self_s["evolution"] / tracer.steps if tracer.steps else 0.0,
        "numpy_fft.calls": fft.calls,
        "numpy_fft.s": fft.seconds,
        "numpy_fft.points": fft.points,
        "stability.modulate_calls": len(modulate),
        "stability.fit_evals": sum(1 for s in spans if s.name == "closed_forms.breather_dx1"
                                   and _has_ancestor(s, "stability.modulate")),
        "stability.modulate_s": math.fsum(modulate),
        "stability.modulate_p50_ms": 1e3 * _percentile(modulate, 50),
        "stability.modulate_p99_ms": 1e3 * _percentile(modulate, 99),
        "stability.audit_s": math.fsum(by_name["stability.lyapunov_audit"]),
        "stability.experiment_self_s": fn_self["stability.stability_experiment"],
        "closed_forms.calls": calls["closed_forms"],
        "closed_forms.self_s": self_s["closed_forms"],
        "functionals.calls": calls["functionals"],
        "functionals.self_s": self_s["functionals"],
        "grid.calls": calls["grid"],
        "grid.self_s": self_s["grid"],
        "spectral.spectra": len(spectra),
        "spectral.assemble_s": math.fsum(by_name["spectral.assemble"]),
        "spectral.spectrum_s": math.fsum(spectra),
        "spectral.spectrum_p50_s": _percentile(spectra, 50),
        "spectral.eigh_calls": eigh.calls,
        "spectral.eigh_s": eigh.seconds,
        "spectral.wronskian_s": math.fsum(by_name["spectral.wronskian_analysis"]),
        "config.s": self_s["config"],
        # the root span is the traced cli.main call; its self time is the part
        # of the call that no layer span below it covers
        "trace.unattributed_s": math.fsum(t for s, t in zip(spans, own) if s.parent is None),
    }
