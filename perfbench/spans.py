"""Spans around the calls into each ``ssem`` module's public functions.

Tracing works from outside the program: on entry, a ``Tracer`` replaces
every public function of each module, in every ``ssem`` namespace that
holds it, by a wrapper that records a span; on exit it puts the
originals back. Spans nest where one module calls another (a span's
parent is the span open when it started), are kept in memory, and are
written out by the caller at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

LAYERS = ("chebyshev", "geometry", "assembly", "solver", "parabolic",
          "experiments", "cli")

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    parent: int   # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _count(args, result):
    return {"count": int(result.count)}


def _qr_flops(args, result):
    # Householder QR of an N x n matrix with the thin Q formed:
    # 2Nn^2 - 2n^3/3 to factor (geqrf), as much again to form Q (orgqr).
    big, n = args[0].shape
    return {"flops": 4.0 * big * n * n - 4.0 * n ** 3 / 3.0}


def _svd_flops(args, result):
    # Singular values of a tall N x n matrix: LAPACK takes a QR first,
    # then bidiagonalises R; 2Nn^2 + 2n^3 in all.
    big, n = args[0].shape
    return {"flops": 2.0 * big * n * n + 2.0 * n ** 3}


def _elliptic_key(args):
    domain, axes = args[0], args[1]
    return {"key": f"{domain.name}/m={axes[0].m}"}


def _parabolic_key(args):
    problem, grid = args[0], args[1]
    return {"key": f"{problem.domain.name}/m={grid.space_axes[0].m}"
                   f"/n={grid.time_axis.n}"}


def _nbytes(args, result):
    return {"bytes": int(result.nbytes)}


# What a span keeps besides its times, by span name, from the positional
# arguments the program passes (and the result).
DESCRIBE_RESULT = {
    "geometry.classify_interior": _count,
    "geometry.sample_boundary": _count,
    "geometry.sample_boundary_2d": _count,
    "geometry.sample_boundary_3d": _count,
    "assembly.materialize_matrix": _nbytes,
    "solver.householder_qr": _qr_flops,
    "solver.condition_estimate": _svd_flops,
}
DESCRIBE_CALL = {
    "assembly.assemble_elliptic": _elliptic_key,
    "parabolic.assemble_parabolic": _parabolic_key,
}


class Tracer:
    """Records a span for each call into an ``ssem`` module while active."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._restore = []

    def __enter__(self):
        package = importlib.import_module("ssem")
        modules = {layer: importlib.import_module(f"ssem.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        # The back-solve is a SciPy call inside solver; the residual check
        # is a method of the assembled system.
        solve = modules["solver"].solve_triangular
        wrappers[solve] = self._wrap("solver.solve_triangular", solve)
        system = modules["assembly"].ConstraintSystem
        self._patch(system, "residual",
                    self._wrap("assembly.ConstraintSystem.residual",
                               system.residual))
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(namespace, attr, wrappers[value])
        return self

    def __exit__(self, *exc_info):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn):
        spans, open_spans = self.spans, self._open
        describe_call = DESCRIBE_CALL.get(name)
        describe_result = DESCRIBE_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_spans[-1] if open_spans else -1,
                        time.perf_counter())
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_spans.pop()
            if describe_call:
                span.info = describe_call(args)
            if describe_result:
                span.info = describe_result(args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

TRANSFORMS = {"chebyshev.forward_cheb", "chebyshev.inverse_cheb",
              "chebyshev.forward_extrema", "chebyshev.inverse_extrema"}
DIFFS = {"chebyshev.diff1", "chebyshev.diff2", "chebyshev.diff1_transpose",
         "chebyshev.diff2_transpose"}
SAMPLERS = {"geometry.sample_boundary", "geometry.sample_boundary_2d",
            "geometry.sample_boundary_3d"}
ASSEMBLERS = {"assembly.assemble_elliptic", "parabolic.assemble_parabolic"}

# name -> unit, in the order they are printed; the names the runner adds
# from the pass outcomes and from comparing passes come last.
LAYER_UNITS = {
    "geometry.sample_boundary_s": "s",
    "geometry.sample_boundary_calls": "count",
    "geometry.classify_s": "s",
    "geometry.n_omega": "count",
    "geometry.n_gamma": "count",
    "assembly.assemble_s": "s",
    "assembly.assemble_unique_ratio": "ratio",
    "assembly.build_s": "s",
    "assembly.smoother_s": "s",
    "assembly.matrix_mb": "MiB",
    "chebyshev.transform_calls": "count",
    "chebyshev.transform_s": "s",
    "chebyshev.diff_s": "s",
    "parabolic.assemble_s": "s",
    "parabolic.smoother_s": "s",
    "solver.solve_s": "s",
    "solver.factor_s": "s",
    "solver.factor_gflops": "GFLOP/s",
    "solver.cond_s": "s",
    "solver.cond_gflops": "GFLOP/s",
    "solver.backsolve_s": "s",
    "solver.residual_s": "s",
    "experiments.error_s": "s",
    "trace.top_span_share": "ratio",
    "trace.spans": "count",
    "experiments.rows_floored": "count",
    "trace.overhead_ratio": "ratio",
}


class PassSpans:
    """Queries over the spans of one pass."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for index, span in enumerate(spans):
            if span.parent >= 0:
                self.children[span.parent].append(index)

    def outermost(self, names):
        """Spans named in `names` that no other span named there encloses."""
        found = []
        for span in self.spans:
            if span.name not in names:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if parent < 0:
                found.append(span)
        return found

    def seconds(self, names) -> float:
        return sum(s.seconds for s in self.outermost(names))

    def _foreign(self, index: int, layer: str) -> float:
        """Time inside span `index` spent in spans of other layers."""
        total = 0.0
        for child in self.children[index]:
            span = self.spans[child]
            total += (span.seconds if span.layer != layer
                      else self._foreign(child, layer))
        return total

    def self_seconds(self, name) -> float:
        """Time in spans called `name`, less what other layers took."""
        return sum(s.seconds - self._foreign(i, s.layer)
                   for i, s in enumerate(self.spans) if s.name == name)

    def info_total(self, names, field) -> float:
        return sum(s.info[field] for s in self.outermost(names))

    def rate_gflops(self, name) -> float:
        spans = self.outermost({name})
        seconds = sum(s.seconds for s in spans)
        if not seconds:
            return 0.0
        return sum(s.info["flops"] for s in spans) / seconds / 1e9


def pass_metrics(spans, wall_seconds: float) -> dict:
    """The span-derived per-layer metrics of one traced pass."""
    q = PassSpans(spans)
    assembled = q.outermost(ASSEMBLERS)
    matrices = q.outermost({"assembly.materialize_matrix"})
    return {
        "geometry.sample_boundary_s": q.seconds(SAMPLERS),
        "geometry.sample_boundary_calls": len(q.outermost(SAMPLERS)),
        "geometry.classify_s": q.seconds({"geometry.classify_interior"}),
        "geometry.n_omega": q.info_total({"geometry.classify_interior"},
                                         "count"),
        "geometry.n_gamma": q.info_total(SAMPLERS, "count"),
        "assembly.assemble_s": q.self_seconds("assembly.assemble_elliptic"),
        "assembly.assemble_unique_ratio":
            len({s.info["key"] for s in assembled}) / len(assembled)
            if assembled else 0.0,
        "assembly.build_s": q.seconds({"assembly.materialize_matrix"}),
        "assembly.smoother_s": q.seconds(
            {"assembly.apply_smoother_half_inverse",
             "assembly.apply_smoother_half_forward"}),
        "assembly.matrix_mb": max((s.info["bytes"] for s in matrices),
                                  default=0) / MIB,
        "chebyshev.transform_calls": len(q.outermost(TRANSFORMS)),
        "chebyshev.transform_s": q.seconds(TRANSFORMS),
        "chebyshev.diff_s": q.seconds(DIFFS),
        "parabolic.assemble_s":
            q.self_seconds("parabolic.assemble_parabolic"),
        "parabolic.smoother_s": q.seconds(
            {"parabolic.spacetime_half_inverse",
             "parabolic.spacetime_half_inverse_adjoint"}),
        "solver.solve_s": q.seconds({"solver.pinv_solve"}),
        "solver.factor_s": q.seconds({"solver.householder_qr"}),
        "solver.factor_gflops": q.rate_gflops("solver.householder_qr"),
        "solver.cond_s": q.seconds({"solver.condition_estimate"}),
        "solver.cond_gflops": q.rate_gflops("solver.condition_estimate"),
        "solver.backsolve_s": q.seconds({"solver.solve_triangular"}),
        "solver.residual_s": q.seconds({"assembly.ConstraintSystem.residual"}),
        "experiments.error_s": q.self_seconds("experiments.solve_problem"),
        "trace.top_span_share":
            sum(s.seconds for s in spans if s.parent < 0) / wall_seconds,
        "trace.spans": len(spans),
    }
