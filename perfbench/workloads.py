"""The benchmark's workloads: configs drawn from the seed, passes, checks.

A pass is one closed loop of solves through the public ``ssem`` API: each
solve starts only when the previous one has returned. The seed decides
only the order of the sweep and the smoother exponent of each repeat, so
every pass of a workload does the same amount of work.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import ssem
import ssem.cli

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SWEEP_PROBLEMS = ("dirichlet-disc", "neumann-star", "robin-annulus")
SWEEP_GRIDS = tuple(range(10, 39, 4))
P_CHOICES = (4.0, 6.0, 8.0)
BALL = ("dirichlet-3d", 20)
HEAT = ("parabolic-star", 24)
TINY_M = 10

# Correctness gate, checked on every solve against the reference answers.
COND_RTOL = 1e-6
# Criterion 6 of the acceptance suite: the residual bound holds wherever
# cond <= 1e9.
RESIDUAL_COND_LIMIT = 1e9
RESIDUAL_RTOL = 1e-6
# "No worse than the reference" allows for rounding: a relative 1e-6, and
# the conditioning floor cond * eps below which a row counts as floored.
# One BLAS thread instead of two moves unfloored errors by up to 3.3e-7.
L2_RTOL = 1e-6
FLOOR_EPS = 2.2e-16


def p_label(p: float) -> str:
    return f"{p:g}"


def reference_key(problem: str, m: int, p: str) -> str:
    return f"{problem}/m={m}/p={p}"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["solves"]


@dataclass
class Outcome:
    """One attempted solve: its row, or the error that prevented it."""

    problem: str
    m: int
    p: str
    row: object = None
    error: str = ""

    @property
    def key(self) -> str:
        return reference_key(self.problem, self.m, self.p)


def check(outcome: Outcome, reference: dict) -> list:
    """Every way the solve disagrees with the reference; empty if none."""
    if outcome.error:
        return [outcome.error]
    row = outcome.row
    if row.failed:
        return ["the solve failed"]
    ref = reference.get(outcome.key)
    if ref is None:
        return ["no reference answer"]
    problems = []
    if (row.n_omega, row.n_gamma) != (ref["n_omega"], ref["n_gamma"]):
        problems.append(f"counts ({row.n_omega}, {row.n_gamma}) != "
                        f"({ref['n_omega']}, {ref['n_gamma']})")
    if not abs(row.cond - ref["cond"]) <= COND_RTOL * ref["cond"]:
        problems.append(f"cond {row.cond!r} != {ref['cond']!r}")
    if (row.cond <= RESIDUAL_COND_LIMIT and not row.residual_linf
            <= RESIDUAL_RTOL * max(1.0, row.rhs_linf)):
        problems.append(f"residual {row.residual_linf:.3e} above bound")
    allowed = ref["l2_error"] * (1.0 + L2_RTOL) + FLOOR_EPS * ref["cond"]
    if not ref["floored"] and not row.l2_error <= allowed:
        problems.append(f"l2_error {row.l2_error!r} worse than "
                        f"{ref['l2_error']!r}")
    return problems


def error_ratio(outcome: Outcome, reference: dict) -> float:
    """l2_error over the reference's, or NaN where the reference is floored."""
    ref = reference.get(outcome.key)
    if outcome.row is None or ref is None or ref["floored"]:
        return math.nan
    return outcome.row.l2_error / ref["l2_error"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@contextmanager
def recorded_rows():
    """Keep the rows that ``ssem study`` computes.

    The CSV it writes has no residual column, and the correctness gate
    needs the residual, so the rows are taken on their way to the writer.
    """
    rows = []
    compute = ssem.cli.run_experiment

    def compute_and_record(config):
        result = compute(config)
        rows.extend(result)
        return result

    ssem.cli.run_experiment = compute_and_record
    try:
        yield rows
    finally:
        ssem.cli.run_experiment = compute


class Sweep2D:
    """The acceptance sweep of the three planar problems, as ``ssem study``.

    Geometry-bound: boundary sampling is most of a pass, and each
    (domain, m) is assembled once per p. The seed shuffles the problem
    order and, within each problem, the order of m and of p.
    """

    def __init__(self, tiny: bool, out_dir: Path):
        self.grids = (TINY_M,) if tiny else SWEEP_GRIDS
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def warm_up(self):
        for problem in SWEEP_PROBLEMS:
            ssem.solve_problem(problem, TINY_M, ssem.SmootherSpec(p=4.0))

    def draw(self, rng):
        plan = []
        for problem in rng.sample(SWEEP_PROBLEMS, len(SWEEP_PROBLEMS)):
            plan.append((problem, rng.sample(self.grids, len(self.grids)),
                         rng.sample(P_CHOICES, len(P_CHOICES))))
        return plan

    def csv_path(self, problem: str) -> Path:
        return self.out_dir / f"{problem}.csv"

    def run(self, plan):
        """The timed part of a pass: one ``ssem study`` per problem."""
        results = []
        for problem, grids, ps in plan:
            argv = ["study", "--problem", problem,
                    "--grids", ",".join(str(m) for m in grids),
                    "--p", ",".join(p_label(p) for p in ps),
                    "--out", str(self.csv_path(problem))]
            try:
                with recorded_rows() as rows:
                    ssem.cli.main(argv)
                results.append((problem, grids, ps, rows, ""))
            except Exception as exc:  # a crash fails every solve it covers
                results.append((problem, grids, ps, [],
                                f"{type(exc).__name__}: {exc}"))
        return results

    def outcomes(self, results):
        outcomes = []
        for problem, grids, ps, rows, error in results:
            if not error:
                error = self._csv_mismatch(problem, rows)
            by_key = {(r.m, r.p): r for r in rows}
            for m in grids:
                for p in ps:
                    row = by_key.get((m, p_label(p)))
                    outcomes.append(Outcome(
                        problem, m, p_label(p), row=row,
                        error=error or ("" if row else "no row written")))
        return outcomes

    def _csv_mismatch(self, problem, rows) -> str:
        """The CSV must hold exactly the rows the sweep computed."""
        try:
            written = ssem.cli.read_csv_rows(str(self.csv_path(problem)))
        except ssem.ConfigError as exc:
            return str(exc)
        fields = ("m", "p", "n_omega", "n_gamma", "l2_error", "cond")

        def values(r):  # as text, so that NaN rows compare equal
            return tuple(str(getattr(r, f)) for f in fields)

        if [values(r) for r in written] != [values(r) for r in rows]:
            return f"{self.csv_path(problem).name} differs from the sweep"
        return ""


class SingleSolve:
    """One large solve per pass; the seed picks p, which leaves the
    matrix shape and the work unchanged.

    Every three consecutive passes take each p once, in an order the seed
    shuffles, so that a run of three or more passes includes p=4, whose
    error at the workload's m is not floored.
    """

    def __init__(self, problem: str, m: int, tiny: bool):
        self.problem = problem
        self.m = TINY_M if tiny else m
        self._cycle = []

    def warm_up(self):
        ssem.solve_problem(self.problem, TINY_M, ssem.SmootherSpec(p=4.0))

    def draw(self, rng):
        if not self._cycle:
            self._cycle = rng.sample(P_CHOICES, len(P_CHOICES))
        return self._cycle.pop()

    def run(self, p):
        try:
            _, row = ssem.solve_problem(self.problem, self.m,
                                        ssem.SmootherSpec(p=p))
            row.p = p_label(p)
            return p, row, ""
        except Exception as exc:
            return p, None, f"{type(exc).__name__}: {exc}"

    def outcomes(self, result):
        p, row, error = result
        return [Outcome(self.problem, self.m, p_label(p), row=row,
                        error=error)]


def make_workload(name: str, tiny: bool, out_dir: Path):
    if name == "sweep-2d":
        return Sweep2D(tiny, out_dir)
    if name == "ball-3d":
        return SingleSolve(*BALL, tiny)
    if name == "heat-st":
        return SingleSolve(*HEAT, tiny)
    raise ValueError(f"unknown workload {name!r}")
