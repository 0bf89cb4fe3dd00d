"""Spans around the calls into each maternbox module, recorded from outside the package.

``Tracer`` replaces every public function of the layer modules (the names in
each module's ``__all__``) with a wrapper, wherever a module binds it: its
own module, the package namespace and the modules that import it from each
other (``matern.log_bessel_k``, ``folded.unit_matern``, ...).  Leaving the
``with`` block puts the original objects back.  A wrapper records one span
per call: name, start, end, parent span and task id, plus a work count for
the functions that have one (points, modes, draws, ...).  Spans stay in
memory; ``layer_metrics`` reduces them and ``write`` stores them.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("specfun", "matern", "folded", "bounds", "spectral", "sampler", "experiments")
_PACKAGE = "maternbox"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _modes(args, kwargs, result):
    bc, box, trunc = _arg(args, kwargs, 1, "bc"), _arg(args, kwargs, 2, "box"), \
        _arg(args, kwargs, 4, "trunc")
    k = trunc.kmax
    per_axis = {"dirichlet": k, "neumann": k + 1, "periodic": 2 * k + 1, "robin": k + 1}
    return per_axis[bc.kind] ** box.d


def _folded_shape(args, kwargs, result):
    params, kind = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 2, "kind")
    n = len(np.atleast_2d(_arg(args, kwargs, 3, "points")))
    reflections = 1 if kind == "periodic" else 2 ** params.d
    radius = args[4] if len(args) > 4 else kwargs.get("radius")
    return (n * (n + 1) // 2 * reflections, params.d, radius)


# work recorded per call, from the arguments and the result
WORK = {
    "specfun.log_bessel_k": lambda a, k, r: np.size(_arg(a, k, 1, "x")),
    "matern.unit_matern": lambda a, k, r: np.size(_arg(a, k, 1, "t")),
    "folded.pick_radius": lambda a, k, r: r,
    "folded.cov_folded_gram": _folded_shape,
    "spectral.cov_spectral_gram": _modes,
    "spectral.robin_eigen_1d": lambda a, k, r: _arg(a, k, 2, "count"),
    "spectral.mode_system": lambda a, k, r: r[1].nbytes,
    "sampler.sample_ensemble": lambda a, k, r: _arg(a, k, 6, "n"),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    task: int
    work: object = None


class Tracer:
    """Context manager that traces the layer modules while it is entered."""

    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)
        self.task = -1
        self._stack = []
        self._patched = []

    def _wrap(self, qualname: str, layer: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        work = WORK.get(qualname)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(spans)
            span = Span(qualname, 0.0, 0.0, stack[-1] if stack else -1, tracer.task)
            spans.append(span)
            stack.append(sid)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def __enter__(self):
        modules = [sys.modules[_PACKAGE]] + [sys.modules[f"{_PACKAGE}.{m}"] for m in LAYERS]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"{_PACKAGE}.{layer}"]
            for name in mod.__all__:
                obj = inspect.unwrap(getattr(mod, name))
                if callable(obj) and not isinstance(obj, type):
                    targets[id(obj)] = (f"{layer}.{name}", layer)
        wrapped = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                target = targets.get(id(inspect.unwrap(value))) if callable(value) else None
                if target is None:
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(*target, value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrapped[id(value)])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    def write(self, path) -> None:
        """All spans as gzip CSV: name,start_s,end_s,parent,task."""
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,task\n")
            for s in self.spans:
                fh.write(f"{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{s.parent},{s.task}\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, tasks: int) -> dict:
    """Per-layer metrics, counts and self times per task (table in README.md).

    Returns {name: (value, unit)}.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    total = defaultdict(float)
    work = defaultdict(float)
    for s, t in zip(spans, own):
        calls[s.name] += 1
        busy[s.name] += t
        total[s.name] += s.end - s.start
        if s.work is not None and s.name != "folded.cov_folded_gram":
            work[s.name] += s.work

    # image count of each folded Gram: pairs x reflections x (2R+1)^d, R from the
    # explicit argument or the pick_radius call it made; kernel points it asked for
    radius_of, points_of = {}, defaultdict(int)
    for s in spans:
        if s.parent >= 0 and spans[s.parent].name == "folded.cov_folded_gram":
            if s.name == "folded.pick_radius":
                radius_of[s.parent] = s.work
            elif s.name == "matern.unit_matern":
                points_of[s.parent] += s.work
    images, unique, radius_max = 0, 0, 0
    for sid, s in enumerate(spans):
        if s.name == "folded.cov_folded_gram" and s.work is not None:
            pairs_refl, d, radius = s.work
            radius = radius if radius is not None else radius_of.get(sid, 0)
            radius_max = max(radius_max, radius)
            images += pairs_refl * (2 * radius + 1) ** d
            unique += points_of[sid]

    per = 1.0 / max(tasks, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, extra in (
            ("specfun.log_bessel_k", ("points",)),
            ("matern.unit_matern", ("points",)),
            ("folded.pick_radius", ()),
            ("folded.cov_folded_gram", ()),
            ("bounds.window_error_bound", ()),
            ("bounds.lattice_kernel_sum", ()),
            ("spectral.cov_spectral_gram", ("modes",)),
            ("spectral.robin_eigen_1d", ("roots",)),
            ("spectral.mode_system", ("bytes",)),
            ("sampler.sample_ensemble", ("draws",)),
            ("sampler.empirical_cov", ()),
            ("experiments.run_error_curve", ()),
            ("experiments.measured_max_error", ()),
            ("experiments.render_csv", ()),
            ("experiments.run_sampler_check", ())):
        m[f"{name}.calls"] = (calls[name] * per, "count/task")
        m[f"{name}.self_s"] = (busy[name] * per, "s/task")
        for what in extra:
            unit = "B/task" if what == "bytes" else "count/task"
            m[f"{name}.{what}"] = (work[name] * per, unit)
    lbk = "specfun.log_bessel_k"
    m[f"{lbk}.us_per_call"] = (ratio(total[lbk], calls[lbk]) * 1e6, "us")
    m[f"{lbk}.ns_per_point"] = (ratio(total[lbk], work[lbk]) * 1e9, "ns")
    m["folded.image_tail_bound.calls"] = (calls["folded.image_tail_bound"] * per, "count/task")
    m["folded.cov_folded_gram.images"] = (images * per, "count/task")
    m["folded.cov_folded_gram.radius_max"] = (float(radius_max), "shells")
    m["folded.cov_folded_gram.unique_ratio"] = (ratio(unique, images), "ratio")
    m["bounds.lattice_kernel_sum.calls_per_report"] = (
        ratio(calls["bounds.lattice_kernel_sum"], calls["bounds.window_error_bound"]), "ratio")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (float(tracer.errors[layer]), "count")
    return m
