"""Spans around the calls into simplexmix's modules, recorded from outside.

The program is not edited.  `Tracer.install` replaces each public name at the
module attribute its caller looks up at call time (``asymptotics`` reads
``extremal_set`` from its own namespace, for example) with a wrapper that
records one span per call: name, start, end, parent span, thread and a few
counts read off the arguments and the result.  Spans stay in memory until the
run ends.  `layer_metrics` turns the spans of one CLI run into per-layer
numbers.

A span opened on a pool thread that has no open span of its own takes as
parent the innermost span open on the thread that installed the tracer: the
pools in the program are created inside that span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

# (module the caller reads the name from, attribute, span name).  The span
# name is the layer that owns the function, so the same function reached from
# two modules aggregates under one name.
SITES = (
    ("simplexmix.asymptotics", "sample", "simplex.sample"),
    ("simplexmix.asymptotics", "child_seed", "simplex.child_seed"),
    ("simplexmix.asymptotics", "PointSet", "hull.PointSet"),
    ("simplexmix.asymptotics", "extremal_set", "hull.extremal_set"),
    ("simplexmix.admixture", "child_seed", "simplex.child_seed"),
    ("simplexmix.admixture", "em_fit", "admixture.em_fit"),
    ("simplexmix.admixture", "log_likelihood", "admixture.log_likelihood"),
    ("simplexmix.admixture", "identifiability_check", "admixture.identifiability_check"),
    ("simplexmix.admixture", "pca_project", "hull.pca_project"),
    ("simplexmix.admixture", "extremal_set", "hull.extremal_set"),
    ("simplexmix.admixture", "PointSet", "hull.PointSet"),
    ("simplexmix.admixture", "point_to_hull_distance", "hull.point_to_hull_distance"),
    ("simplexmix.cli", "load_docword", "admixture.load_docword"),
    ("simplexmix.cli", "two_stage", "admixture.two_stage"),
    ("simplexmix.cli", "growth_experiment", "asymptotics.growth_experiment"),
    ("simplexmix.cli", "clt_experiment", "asymptotics.clt_experiment"),
)

ROOT = "cli.main"
EXPERIMENTS = ("asymptotics.growth_experiment", "asymptotics.clt_experiment")


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Records spans for every call through the installed sites."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._home
        return home[-1] if home else None

    def _annotate(self, name, fn, args, kwargs, result, attrs):
        """Counts read off one call; the cloud key links a sample to its f0."""
        if name == "simplex.sample":
            a = _bind(fn, args, kwargs)
            self._local.cloud = (int(a["spec"].seed), int(a["n"]))
        elif name == "hull.PointSet":
            attrs["n_in"] = int(len(_bind(fn, args, kwargs)["points"]))
            attrs["n_out"] = int(result.n)
        elif name == "hull.extremal_set":
            attrs["f0"] = int(result.f0)
            cloud = getattr(self._local, "cloud", None)
            if cloud is not None:
                attrs["cloud"] = cloud
                self._local.cloud = None
        elif name == "admixture.em_fit":
            attrs["n_iters"] = int(result.n_iters)
            attrs["restarts"] = int(_bind(fn, args, kwargs)["restarts"])
        elif name == "admixture.load_docword":
            attrs["nnz"] = int(result.nnz)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = next(self._ids)
        stack = self._stack()
        parent = self._parent(stack)
        stack.append(sid)
        attrs: dict = {}
        ok = False
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            t1 = time.perf_counter()
            c1 = time.process_time()
            stack.pop()
            if name in EXPERIMENTS:
                attrs["cpu"] = c1 - c0
            if ok:
                self._annotate(name, fn, args, kwargs, result, attrs)
            self.spans.append({
                "id": sid, "name": name, "parent": parent, "thread": threading.get_ident(),
                "start": t0, "end": t1, "ok": ok, **attrs,
            })
        return result

    def install(self) -> None:
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            functools.update_wrapper(wrapper, original, updated=())
            setattr(module, attr, wrapper)
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def take(self) -> list[dict]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans, bytes_written: int) -> dict[str, float]:
    """Per-layer numbers of one traced CLI run (everything except the overhead).

    ``.s`` sums span durations, so two pool threads busy at once count twice;
    ``self_s`` subtracts the time covered by child spans.  A layer the run
    never calls reads 0.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    self_s = self_times(spans)

    def dur(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def own(*names):
        return sum(self_s[s["id"]] for n in names for s in by_name.get(n, ()))

    points = by_name.get("hull.PointSet", ())
    n_in = sum(s.get("n_in", 0) for s in points)
    experiments = [s for n in EXPERIMENTS for s in by_name.get(n, ())]
    exp_wall = sum(s["end"] - s["start"] for s in experiments)
    fits = by_name.get("admixture.em_fit", ())
    # Each restart evaluates the likelihood once before its first iteration
    # and once per iteration, so the calls under em_fit minus the restarts
    # count the iterations of all restarts.
    fit_ids = {s["id"] for s in fits}
    ll_in_fits = sum(1 for s in by_name.get("admixture.log_likelihood", ()) if s["parent"] in fit_ids)
    iterations = ll_in_fits - sum(s.get("restarts", 0) for s in fits)
    loads = by_name.get("admixture.load_docword", ())
    load_s = dur("admixture.load_docword")
    return {
        "simplex.sample.s": dur("simplex.sample"),
        "simplex.sample.calls": calls("simplex.sample"),
        "simplex.child_seed.s": dur("simplex.child_seed"),
        "hull.extremal_set.s": dur("hull.extremal_set"),
        "hull.extremal_set.calls": calls("hull.extremal_set"),
        "hull.extremal_set.vertices": sum(s.get("f0", 0) for s in by_name.get("hull.extremal_set", ())),
        "hull.PointSet.s": dur("hull.PointSet"),
        "hull.PointSet.kept_ratio": sum(s.get("n_out", 0) for s in points) / n_in if n_in else 0.0,
        "hull.pca_project.s": dur("hull.pca_project"),
        "hull.point_to_hull_distance.s": dur("hull.point_to_hull_distance"),
        "hull.point_to_hull_distance.calls": calls("hull.point_to_hull_distance"),
        "asymptotics.self_s": own(*EXPERIMENTS),
        "asymptotics.cpu_per_wall": sum(s.get("cpu", 0.0) for s in experiments) / exp_wall if exp_wall else 0.0,
        "admixture.em_fit.self_s": own("admixture.em_fit"),
        "admixture.em_iters": sum(s.get("n_iters", 0) for s in fits),
        "admixture.em_iter_ms": 1e3 * dur("admixture.em_fit") / iterations if iterations > 0 else 0.0,
        "admixture.log_likelihood.s": dur("admixture.log_likelihood"),
        "admixture.log_likelihood.calls": calls("admixture.log_likelihood"),
        "admixture.load_docword.s": load_s,
        "admixture.load_docword.nnz_per_s": sum(s.get("nnz", 0) for s in loads) / load_s if load_s else 0.0,
        "admixture.two_stage.self_s": own("admixture.two_stage"),
        "admixture.identifiability_check.s": dur("admixture.identifiability_check"),
        "cli.self_s": own(ROOT),
        "cli.bytes_written": bytes_written,
        "trace.spans": len(spans),
    }


def extremal_ms(spans) -> list[float]:
    """Durations of the hull.extremal_set spans, in milliseconds."""
    return [1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == "hull.extremal_set"]


def cloud_f0(spans) -> dict[tuple[int, int], int]:
    """(sampler seed, n) -> f0 for every cloud counted inside asymptotics."""
    return {tuple(s["cloud"]): s["f0"] for s in spans if "cloud" in s}
