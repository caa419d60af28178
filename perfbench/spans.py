"""Per-layer tracing of torifano, installed from outside the package.

``Tracer.install()`` wraps every public function of every loaded torifano
module and rebinds each module-level name that refers to one, so calls made
through ``from .geometry import triangulate`` bindings are traced as well.
Each call becomes a span (name, start, end, parent, exception) kept in
memory; small hot helpers are only counted.  A layer is a module of
``src/torifano``; a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "problems", "geometry", "linalg", "moments", "quadrature", "stability", "masolver")

# Called per matrix, per vertex or per scalar: a span each would cost more
# than the work, so these are counted and their time stays in the caller.
COUNTED = {
    "linalg.dot", "linalg.solve", "linalg.det", "linalg.rank", "linalg.kernel_vector", "linalg.affine_rank",
    "geometry.dot", "moments.divided_difference_exp", "problems.parse_scalar", "problems.format_scalar",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, exception class name]
        self.stack = []
        self.counts = Counter()
        self._undo = []

    def install(self, package="torifano"):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and name.startswith(package + ".") and name.rpartition(".")[2] in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules + [sys.modules[package]]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self):
        for module, attr, obj in reversed(self._undo):
            setattr(module, attr, obj)
        self._undo.clear()

    def _wrap(self, name, fn):
        counts = self.counts
        if name in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self.stack, time.perf_counter
        on_result = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                # Recursion (jsonable) stays inside the outer span.
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                key, value = on_result(result)
                counts[key] += value
            return result
        return spanned

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


# Counts read off a function's result.
RESULT_COUNTS = {
    "geometry.triangulate": lambda mesh: ("geometry.simplices", len(mesh.simplices)),
    "stability.solve_soliton": lambda sol: ("stability.newton_iterations", sol.iterations),
}


def span_key(span):
    """A span's name, with the exception class when the call raised."""
    return span[0] if span[4] is None else f"{span[0]}!{span[4]}"


def self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def summarize(spans, counts):
    """Per-name self time and call counts, per-layer self time, and the
    log-volume evaluations made inside the Newton solve."""
    selfs = self_times(spans)
    self_by = Counter()
    calls = Counter(counts)
    layer = Counter()
    objective = 0
    for span, s in zip(spans, selfs):
        key = span_key(span)
        self_by[key] += s
        calls[span[0]] += 1
        layer[span[0].partition(".")[0]] += s
        if span[0] == "moments.log_weighted_volume" and span[3] >= 0 and spans[span[3]][0] == "stability.solve_soliton":
            objective += 1
    return self_by, calls, layer, objective


# The per-layer metrics: name -> (unit, how it is read off the summary).
# "self" sums self times of the listed span keys, "calls" counts calls,
# "count" reads a result count, "layer" is a layer's total self time.
PER_LAYER = {
    "cli.main_self_s": ("s", "self", ["cli.main", "cli.run", "cli.build_parser"]),
    "cli.jsonable_s": ("s", "self", ["cli.jsonable"]),
    "problems.load_problem_s": ("s", "self", ["problems.load_problem", "problems.document_from_dict"]),
    "problems.builtin_example_s": ("s", "self", ["problems.builtin_example"]),
    "geometry.validate_fan_s": ("s", "self", ["geometry.validate_fan"]),
    "geometry.ampleness_class_calls": ("count", "calls", ["geometry.ampleness_class"]),
    "geometry.polytope_from_support_s": ("s", "self", ["geometry.polytope_from_support"]),
    "geometry.polytope_from_halfspaces.bounded_s": ("s", "self", ["geometry.polytope_from_halfspaces"]),
    "geometry.polytope_from_halfspaces.infeasible_s": (
        "s", "self", ["geometry.polytope_from_halfspaces!EmptyPolytopeError"]),
    "geometry.polytope_from_halfspaces.unbounded_s": (
        "s", "self", ["geometry.polytope_from_halfspaces!UnboundedPolytopeError"]),
    "geometry.triangulate_s": ("s", "self", ["geometry.triangulate"]),
    "geometry.triangulate_calls": ("count", "calls", ["geometry.triangulate"]),
    "geometry.simplices": ("count", "count", ["geometry.simplices"]),
    "linalg.solve_calls": ("count", "calls", ["linalg.solve"]),
    "linalg.rank_calls": ("count", "calls", ["linalg.rank"]),
    "linalg.kernel_vector_calls": ("count", "calls", ["linalg.kernel_vector"]),
    "linalg.affine_rank_calls": ("count", "calls", ["linalg.affine_rank"]),
    "linalg.det_calls": ("count", "calls", ["linalg.det"]),
    "moments.volume_calls": ("count", "calls", ["moments.volume"]),
    "moments.barycenter_calls": ("count", "calls", ["moments.barycenter"]),
    "moments.barycenter_s": ("s", "self", ["moments.barycenter"]),
    "moments.weighted_barycenter_s": ("s", "self", ["moments.weighted_barycenter"]),
    "moments.weighted_barycenter_calls": ("count", "calls", ["moments.weighted_barycenter"]),
    "moments.log_weighted_volume_s": ("s", "self", ["moments.log_weighted_volume"]),
    "moments.log_weighted_volume_calls": ("count", "calls", ["moments.log_weighted_volume"]),
    "moments.weighted_covariance_s": ("s", "self", ["moments.weighted_covariance"]),
    "moments.dd_calls": ("count", "calls", ["moments.divided_difference_exp"]),
    "quadrature.exp_moments_simplex_s": ("s", "self", ["quadrature.exp_moments_simplex"]),
    "quadrature.exp_moments_simplex_calls": ("count", "calls", ["quadrature.exp_moments_simplex"]),
    "stability.solve_soliton_self_s": ("s", "self", ["stability.solve_soliton"]),
    "stability.soliton_residual_s": ("s", "self", ["stability.soliton_residual"]),
    "stability.newton_iterations": ("count", "count", ["stability.newton_iterations"]),
    "stability.objective_evals": ("count", "objective", []),
    "stability.sum_barycenter_calls": ("count", "calls", ["stability.sum_barycenter"]),
    "stability.lifted_config_s": ("s", "self", ["stability.lifted_config"]),
    "stability.validate_decomposition_s": ("s", "self", ["stability.validate_decomposition"]),
    "masolver.solve_continuity_1d_s": ("s", "self", ["masolver.solve_continuity_1d"]),
    "masolver.ma_step_1d_s": ("s", "self", ["masolver.ma_step_1d"]),
    "masolver.sweeps": ("count", "calls", ["masolver.ma_step_1d"]),
}
# linalg is only counted, so its time stays in its callers' layers.
PER_LAYER.update({f"layer.{name}.self_s": ("s", "layer", [name]) for name in LAYERS if name != "linalg"})


def layer_metrics(spans, counts, rounds):
    """Every PER_LAYER metric, per round."""
    self_by, calls, layer, objective = summarize(spans, counts)
    out = {}
    for name, (unit, kind, keys) in PER_LAYER.items():
        if kind == "self":
            value = sum(self_by[k] for k in keys)
        elif kind == "calls":
            value = sum(calls[k] for k in keys)
        elif kind == "count":
            value = sum(counts[k] for k in keys)
        elif kind == "layer":
            value = sum(layer[k] for k in keys)
        else:
            value = objective
        out[name] = {"value": value / rounds, "unit": unit}
    return out
