"""Experiment sweeps, error metrics, CSV/plot-data plumbing, CLI."""

import csv
import dataclasses
import math
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import ssem.cli
import ssem.experiments
import ssem.solver
from ssem.assembly import SmootherSpec
from ssem.chebyshev import extrema_axis, roots_axis
from ssem.cli import (
    CSV_HEADER,
    emit_plot_data,
    main,
    parse_config,
    read_csv_rows,
    write_csv,
)
from ssem.experiments import (
    ConfigError,
    ConvergenceRow,
    ExperimentConfig,
    fit_convergence_order,
    run_experiment,
)
from ssem.geometry import classify_interior, star_domain
from ssem.solver import RankDeficientError


def make_row(m, l2, cond=1e3, p="4"):
    row = ConvergenceRow(m=m, n_omega=4 * m, n_gamma=m, p=p, l2_error=l2,
                         linf_error=l2, cond=cond, seconds=0.01)
    row.mark_floor()
    return row


def test_bessel_integral_matches_scipy_j0():
    # the parabolic problem's exact solution takes J0 from Bessel's
    # integral by the trapezoid rule, not from scipy.special
    from scipy.special import j0
    r = np.linspace(0.0, 2.0, 2001)
    assert np.max(np.abs(ssem.experiments._j0(r) - j0(r))) <= 1e-15
    column = r[:, None]
    assert ssem.experiments._j0(column).shape == column.shape
    assert ssem.experiments._j0(0.0) == 1.0


class TestL2Error:
    """The (l2, linf) error closure of a roster problem (dirichlet-disc,
    exact solution x^2 - y^2) on the interior grid nodes."""

    def setup_method(self):
        _, self.errors = ssem.experiments._PROBLEMS["dirichlet-disc"].build(10)
        nodes = roots_axis(10).nodes
        self.u = nodes[:, None] ** 2 - nodes[None, :] ** 2

    def test_exact_is_zero(self):
        assert self.errors(self.u) == (0.0, 0.0)

    def test_constant_offset(self):
        l2, linf = self.errors(self.u + 1.0)
        assert l2 == pytest.approx(1.0, abs=1e-14)
        assert linf == pytest.approx(1.0, abs=1e-14)

    def test_noise_rms(self):
        rng = np.random.default_rng(31)
        noisy = self.u + 1e-3 * rng.standard_normal((10, 10))
        l2, linf = self.errors(noisy)
        assert l2 == pytest.approx(1e-3, rel=0.35)
        assert l2 < linf

    def test_empty_interior_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ssem.experiments._error_norms(np.zeros((0, 11)))


def test_neumann_errors_in_the_quotient():
    # pure Neumann data fixes u up to a constant: the errors are those of
    # u - exact less its mean over the interior nodes
    system, errors = ssem.experiments._PROBLEMS["neumann-star"].build(10)
    nodes = roots_axis(10).nodes
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    noise = np.random.default_rng(5).standard_normal((10, 10))
    l2, linf = errors(x**3 + y**3 + 2.0 + noise)
    inner = noise[tuple(system.interior.indices.T)]
    inner = inner - inner.mean()
    assert l2 == pytest.approx(np.sqrt(np.mean(inner**2)), rel=1e-12)
    assert linf == pytest.approx(np.max(np.abs(inner)), rel=1e-12)


def test_rhs_linf_is_the_largest_magnitude():
    # parabolic-star's right-hand side is nowhere positive
    system, _ = ssem.experiments._PROBLEMS["parabolic-star"].build(10)
    _, row = ssem.experiments.solve_problem("parabolic-star", 10,
                                            SmootherSpec(p=4.0))
    assert row.rhs_linf == np.max(np.abs(system.rhs))
    assert np.max(system.rhs) < row.rhs_linf


def test_heat_errors_cover_every_time_node():
    # parabolic-star's errors run over every interior node at every time,
    # t = 0 included, against its exact solution taken with scipy's J0
    from scipy.special import j0
    axis = roots_axis(10)
    report, row = ssem.experiments.solve_problem("parabolic-star", 10,
                                                 SmootherSpec(p=6.0))
    times = extrema_axis(ssem.experiments.TIME_POINTS, 0.0, 2.0).nodes
    ii, jj = classify_interior(star_domain(), (axis, axis)).indices.T
    r = np.hypot(axis.nodes[ii], axis.nodes[jj])[:, None]
    exact = np.exp(-times) * j0(r) - np.exp(-times / 4.0) * j0(r / 2.0)
    diff = report.solution[ii, jj, :] - exact
    assert diff.shape == (len(ii), times.size)
    assert row.l2_error == pytest.approx(np.sqrt(np.mean(diff**2)),
                                         rel=1e-9)
    assert row.linf_error == pytest.approx(np.max(np.abs(diff)), rel=1e-9)


class TestFitConvergenceOrder:
    def test_clean_power_law(self):
        rows = [make_row(m, float(m) ** -4) for m in (10, 14, 18, 22)]
        assert fit_convergence_order(rows) == pytest.approx(4.0, abs=1e-9)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(32)
        rows = [make_row(m, 3.0 * float(m) ** -6
                         * np.exp(0.05 * rng.standard_normal()))
                for m in range(10, 40, 4)]
        assert fit_convergence_order(rows) == pytest.approx(6.0, abs=0.3)

    def test_too_few_rows(self):
        rows = [make_row(10, 1e-3), make_row(14, 1e-4)]
        with pytest.raises(ValueError):
            fit_convergence_order(rows)

    def test_floored_rows_excluded(self):
        rows = [make_row(m, float(m) ** -4) for m in (10, 14, 18)]
        # saturated tail: error stuck at 1e-14 with conditioning to blame
        rows += [make_row(m, 1e-14, cond=1e9) for m in (22, 26)]
        assert all(r.floored for r in rows[3:])
        assert fit_convergence_order(rows) == pytest.approx(4.0, abs=1e-9)

    def test_failed_rows_excluded(self):
        rows = [make_row(m, float(m) ** -4) for m in (10, 14, 18)]
        bad = make_row(22, math.nan)
        bad.failed = True
        assert fit_convergence_order(rows + [bad]) \
            == pytest.approx(4.0, abs=1e-9)


class TestExperimentConfig:
    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="poisson-square", grids=(10,),
                             p_list=(4.0,))

    def test_empty_grids(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="dirichlet-disc", grids=(),
                             p_list=(4.0,))

    def test_small_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="dirichlet-disc", grids=(4, 10),
                             p_list=(4.0,))

    @pytest.mark.parametrize("bad", [10.5, 10.0, "10"])
    def test_non_integer_grid_rejected(self, bad):
        # 10.5 used to run and write a failed row from the axis builder
        with pytest.raises(ConfigError, match=f"integers, got {bad!r}"):
            ExperimentConfig(problem="dirichlet-disc", grids=(10, bad),
                             p_list=(4.0,))

    def test_numpy_integer_grid_accepted(self):
        config = ExperimentConfig(problem="dirichlet-disc",
                                  grids=(np.int64(10),), p_list=(4.0,))
        assert config.grids == (10,)

    def test_repeated_grid_rejected(self):
        # a repeat used to be solved twice and counted twice by the fit
        with pytest.raises(ConfigError, match=r"grid size 12 is listed "
                                              r"twice in \[10, 12, 14, 12\]"):
            ExperimentConfig(problem="dirichlet-disc", grids=(10, 12, 14, 12),
                             p_list=(4.0,))

    @pytest.mark.parametrize("p_list", [(4, 4.0), (6.0, 4.0, 6.0),
                                        (4.0, 4.0000001)])
    def test_repeated_exponent_rejected(self, p_list):
        # exponents that print alike give two rows labelled alike, which
        # the plot data and the order fit would count twice
        label = f"{p_list[-1]:g}"
        with pytest.raises(ConfigError, match=rf"smoother exponent {label} "
                                              rf"is listed twice in "):
            ExperimentConfig(problem="dirichlet-disc", grids=(10, 12),
                             p_list=p_list)

    @pytest.mark.parametrize("p, label", [(4.0000001, "4"),
                                          (2.0 / 3.0 + 4.0, "4.66667"),
                                          (1234567.0, "1.23457e+06")])
    def test_exponent_its_label_misnames_rejected(self, p, label):
        # the CSV's p column is the six-digit label: rows of an exponent
        # that it cannot name exactly would pass for another exponent's
        with pytest.raises(ConfigError, match=re.escape(
                f"smoother exponent {p!r} would be labelled {label} ")):
            ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                             p_list=(6.0, p))

    def test_exponents_their_labels_name_accepted(self):
        config = ExperimentConfig(problem="dirichlet-3d", grids=(10,),
                                  p_list=(1.75, 2, 4.5, 123456.0, 0.5e3))
        assert [lab for lab, _ in config.smoother_specs()] \
            == ["1.75", "2", "4.5", "123456", "500"]

    def test_exponent_must_exceed_half_dimension(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                             p_list=(1.0,))
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="parabolic-star", grids=(10,),
                             p_list=(1.5,))
        ExperimentConfig(problem="parabolic-star", grids=(10,), p_list=(2.0,))

    def test_power_needs_p_list(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="dirichlet-disc", grids=(10,))

    def test_bad_smoother(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                             p_list=(4.0,), smoother="gaussian")

    def test_exp_smoother_needs_no_p(self):
        config = ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                                  smoother="exp")
        assert config.smoother_specs()[0][0] == "exp"

    def test_exp_smoother_rejects_p_list(self):
        # the exponential smoother has no exponent: a p list would be
        # dropped without a word
        with pytest.raises(ConfigError, match="exp smoother takes no"):
            ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                             p_list=(4.0, 6.0), smoother="exp")


class TestRunExperiment:
    def test_disc_counts(self):
        config = ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                                  p_list=(4.0,))
        rows = run_experiment(config)
        assert len(rows) == 1
        assert (rows[0].n_omega, rows[0].n_gamma) == (40, 12)
        assert rows[0].p == "4"
        assert not rows[0].failed

    def test_failures_marked_and_sweep_continues(self, monkeypatch):
        real = ssem.experiments.pinv_solve

        def flaky(system, spec):
            if system.grid_shape[0] == 12:
                raise RankDeficientError(3, 1e-20, 1e-13)
            return real(system, spec)

        monkeypatch.setattr(ssem.experiments, "pinv_solve", flaky)
        config = ExperimentConfig(problem="dirichlet-disc", grids=(10, 12, 14),
                                  p_list=(4.0,))
        rows = run_experiment(config)
        assert [r.failed for r in rows] == [False, True, False]
        assert math.isnan(rows[1].l2_error)

    def test_failed_row_names_its_error(self, monkeypatch, tmp_path):
        error = RankDeficientError(3, 1e-20, 1e-13)

        def rank_loss(system, spec):
            raise error

        monkeypatch.setattr(ssem.experiments, "pinv_solve", rank_loss)
        config = ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                                  p_list=(4.0,))
        rows = run_experiment(config)
        assert rows[0].error == f"RankDeficientError: {error}"
        assert "|R[3,3]|" in rows[0].error
        # the CSV has no error column: a failed row writes as before
        path = tmp_path / "failed.csv"
        write_csv(rows, str(path))
        assert path.read_text().splitlines()[1] == \
            "10,0,0,4,nan,nan,nan,nan"

    def test_failed_build_names_its_error(self, monkeypatch):
        real = ssem.experiments._PROBLEMS["dirichlet-disc"]

        def build(m):
            raise ValueError("boundary data: NaN")

        monkeypatch.setitem(ssem.experiments._PROBLEMS, "dirichlet-disc",
                            dataclasses.replace(real, build=build))
        config = ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                                  p_list=(4.0, 6.0))
        assert [r.error for r in run_experiment(config)] == [
            "ValueError: boundary data: NaN"] * 2

    def test_solved_row_has_no_error(self):
        config = ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                                  p_list=(4.0,))
        assert run_experiment(config)[0].error == ""

    @pytest.mark.parametrize("error", [
        np.linalg.LinAlgError("synthetic LAPACK failure"),
        ValueError("synthetic rejected input"),
    ])
    def test_solver_failure_types_become_failed_rows(self, monkeypatch,
                                                     error):
        def boom(system, spec):
            raise error

        monkeypatch.setattr(ssem.experiments, "pinv_solve", boom)
        config = ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                                  p_list=(4.0,))
        assert [r.failed for r in run_experiment(config)] == [True]

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(system, spec):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(ssem.experiments, "pinv_solve", broken)
        config = ExperimentConfig(problem="dirichlet-disc", grids=(10,),
                                  p_list=(4.0,))
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(config)


class TestAssembleOncePerM:
    """run_experiment builds each m once and solves it for every p."""

    def patch_build(self, monkeypatch, fail=None):
        real = ssem.experiments._PROBLEMS["dirichlet-disc"]
        built = []

        def build(m):
            built.append(m)
            if fail is not None and m == 12:
                raise fail
            return real.build(m)

        monkeypatch.setitem(ssem.experiments._PROBLEMS, "dirichlet-disc",
                            dataclasses.replace(real, build=build))
        return built

    def config(self):
        return ExperimentConfig(problem="dirichlet-disc", grids=(10, 12),
                                p_list=(4.0, 6.0, 8.0))

    def test_one_build_per_m_same_rows(self, monkeypatch):
        built = self.patch_build(monkeypatch)
        rows = run_experiment(self.config())
        # the builds run side by side, the largest m first
        assert sorted(built) == [10, 12]
        for row in rows:
            with ssem.solver._one_blas_thread():
                _, ref = ssem.experiments.solve_problem(
                    "dirichlet-disc", row.m, SmootherSpec(p=float(row.p)))
            assert (row.l2_error, row.linf_error, row.cond,
                    row.residual_linf, row.rhs_linf, row.floored) \
                == (ref.l2_error, ref.linf_error, ref.cond,
                    ref.residual_linf, ref.rhs_linf, ref.floored)
        assert [(r.m, r.p) for r in rows] == [
            (m, p) for m in (10, 12) for p in ("4", "6", "8")]

    def test_build_failure_fails_every_row_of_its_m(self, monkeypatch):
        self.patch_build(monkeypatch, ValueError("boundary data: NaN"))
        rows = run_experiment(self.config())
        assert [(r.m, r.failed) for r in rows] == [
            (10, False)] * 3 + [(12, True)] * 3

    def test_build_programming_error_propagates(self, monkeypatch):
        self.patch_build(monkeypatch, TypeError("synthetic bug"))
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(self.config())


# every ConvergenceRow field but the wall time
ROW_FIELDS = tuple(f.name for f in dataclasses.fields(ConvergenceRow)
                   if f.name != "seconds")


def row_values(row):
    return tuple(getattr(row, f) for f in ROW_FIELDS)


@pytest.fixture
def bundled_threads():
    """(get, set) of the bundled OpenBLAS's thread count; the count is
    put back after the test."""
    if ssem.solver._bundled_lapack() is None:
        pytest.skip("numpy bundles no OpenBLAS with LAPACK")
    lib = ssem.solver._bundled_openblas()
    get = lib.scipy_openblas_get_num_threads64_
    put = lib.scipy_openblas_set_num_threads64_
    before = get()
    yield get, put
    put(before)


class TestSweepPool:
    """run_experiment solves its grid sizes side by side, each on one
    BLAS thread, and returns the rows in config order."""

    GRIDS = (22, 10, 18, 14)
    P_LIST = (4.0, 6.0)

    def config(self, grids=GRIDS):
        return ExperimentConfig(problem="neumann-star", grids=grids,
                                p_list=self.P_LIST)

    def watch_builds(self, monkeypatch, hook=lambda m: None):
        """Each build records its m, its thread and the bundled BLAS
        thread count (None without the bundled library), then calls
        hook(m); returns the records."""
        real = ssem.experiments._PROBLEMS["neumann-star"]
        lib = ssem.solver._bundled_openblas()
        seen = []

        def build(m):
            seen.append((m, threading.get_ident(),
                         lib and lib.scipy_openblas_get_num_threads64_()))
            hook(m)
            return real.build(m)

        monkeypatch.setitem(ssem.experiments._PROBLEMS, "neumann-star",
                            dataclasses.replace(real, build=build))
        return seen

    def test_rows_match_each_solve_alone_on_one_thread(self):
        rows = run_experiment(self.config())
        alone = []
        with ssem.solver._one_blas_thread():
            for m in self.GRIDS:
                for p in self.P_LIST:
                    _, row = ssem.experiments.solve_problem(
                        "neumann-star", m, SmootherSpec(p=p))
                    row.p = f"{p:g}"
                    alone.append(row)
        assert [row_values(r) for r in rows] == \
            [row_values(r) for r in alone]

    def test_two_workers_build_at_once(self, monkeypatch, bundled_threads):
        # neither of the two largest builds can go on until the other has
        # started
        _, put = bundled_threads
        put(2)
        monkeypatch.setattr(ssem.experiments, "_usable_cpus", lambda: 2)
        meeting = threading.Barrier(2, timeout=30)
        seen = self.watch_builds(
            monkeypatch, lambda m: m in (22, 18) and meeting.wait())
        rows = run_experiment(self.config())
        assert not any(r.failed for r in rows)
        assert sorted(m for m, _, _ in seen) == sorted(self.GRIDS)
        assert len({thread for _, thread, _ in seen}) == 2
        assert {threads for _, _, threads in seen} == {1}

    def test_rows_in_config_order_either_way(self):
        forward = run_experiment(self.config())
        backward = run_experiment(self.config(self.GRIDS[::-1]))
        labels = [f"{p:g}" for p in self.P_LIST]
        assert [(r.m, r.p) for r in forward] == [
            (m, p) for m in self.GRIDS for p in labels]
        assert [(r.m, r.p) for r in backward] == [
            (m, p) for m in self.GRIDS[::-1] for p in labels]
        assert sorted(map(row_values, forward)) == \
            sorted(map(row_values, backward))

    def test_thread_count_restored(self, monkeypatch, bundled_threads):
        get, put = bundled_threads
        put(2)
        before = get()
        seen = self.watch_builds(monkeypatch)
        run_experiment(self.config())
        assert get() == before
        assert {threads for _, _, threads in seen} == {1}

    def test_overlapping_blocks_share_one_pin(self, bundled_threads):
        # blocks entered A, B and left A, B, as two sweeps on two threads
        # may: the pin holds while either is open, and the count saved
        # before both comes back once both have left
        get, put = bundled_threads
        put(2)
        before = get()
        first = ssem.solver._one_blas_thread()
        second = ssem.solver._one_blas_thread()
        with ThreadPoolExecutor(max_workers=1) as other:
            assert first.__enter__()
            assert other.submit(second.__enter__).result()
            assert get() == 1
            first.__exit__(None, None, None)
            assert get() == 1
            other.submit(second.__exit__, None, None, None).result()
        assert get() == before

    def test_pin_holds_under_contention(self, bundled_threads):
        # more threads than cores enter and leave blocks at fine-grained
        # interleavings: a lost update of the open-block count would lift
        # the pin inside an open block or leave it on after the last
        get, put = bundled_threads
        put(2)
        before = get()

        def churn(_):
            seen = set()
            for _ in range(200):
                with ssem.solver._one_blas_thread():
                    seen.add(get())
            return seen

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(churn, i) for i in range(8)]
                seen = set().union(*(f.result(timeout=60) for f in futures))
        finally:
            sys.setswitchinterval(switch)
        assert seen == {1}
        assert get() == before

    def test_thread_count_restored_after_an_error(self, monkeypatch,
                                                  bundled_threads):
        get, put = bundled_threads
        put(2)
        before = get()

        def fail(m):
            if m == 18:
                raise TypeError("synthetic bug")

        self.watch_builds(monkeypatch, fail)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(self.config())
        assert get() == before

    def test_an_error_cancels_the_sizes_not_started(self, monkeypatch):
        # one worker: 22 fails while 18 is queued or holds the worker, so
        # 14 and 10 never start
        monkeypatch.setattr(ssem.experiments, "_usable_cpus", lambda: 1)

        def hook(m):
            if m == 22:
                raise TypeError("synthetic bug")
            time.sleep(0.5)

        seen = self.watch_builds(monkeypatch, hook)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(self.config())
        assert [m for m, _, _ in seen] in ([22], [22, 18])

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(ssem.experiments.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        assert ssem.experiments._usable_cpus() == 1

    def test_one_grid_keeps_the_blas_pool(self, monkeypatch,
                                          bundled_threads):
        # a single m has nothing to run beside it
        get, put = bundled_threads
        put(2)
        before = get()
        monkeypatch.setattr(ssem.experiments, "_usable_cpus", lambda: 8)
        seen = self.watch_builds(monkeypatch)
        run_experiment(self.config((14,)))
        assert [threads for _, _, threads in seen] == [before]

    def test_scipy_path_runs_one_worker(self, monkeypatch):
        alone = []
        for m in self.GRIDS:
            for p in self.P_LIST:
                _, row = ssem.experiments.solve_problem(
                    "neumann-star", m, SmootherSpec(p=p))
                alone.append(row)
        monkeypatch.setattr(ssem.solver, "_bundled_lapack", lambda: None)
        monkeypatch.setattr(ssem.experiments, "_usable_cpus", lambda: 8)
        seen = self.watch_builds(monkeypatch)
        rows = run_experiment(self.config())
        assert len({thread for _, thread, _ in seen}) == 1
        # one worker takes the grid sizes in the order they were submitted
        assert [m for m, _, _ in seen] == sorted(self.GRIDS, reverse=True)
        assert [(r.m, r.n_omega, r.n_gamma, r.failed) for r in rows] == \
            [(r.m, r.n_omega, r.n_gamma, r.failed) for r in alone]
        for got, want in zip(rows, alone):
            assert got.l2_error == pytest.approx(want.l2_error, rel=1e-9)
            assert got.cond == pytest.approx(want.cond, rel=1e-9)


class TestParseConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_full_roundtrip(self, tmp_path):
        path = self.write(tmp_path, """
# benchmark sweep
problem = dirichlet-disc
grids = 10:18:4
p_list = 4,6
out = results.csv   # destination
""")
        config = parse_config(path)
        assert config.problem == "dirichlet-disc"
        assert config.grids == (10, 14, 18)
        assert config.p_list == (4.0, 6.0)
        assert config.smoother == "power"
        assert config.out == "results.csv"

    def test_comma_grids(self, tmp_path):
        path = self.write(tmp_path, "problem = dirichlet-disc\n"
                          "grids = 10,12\np_list = 4\nout = r.csv\n")
        assert parse_config(path).grids == (10, 12)

    @pytest.mark.parametrize("grids, want", [
        ("10:13", (10, 11, 12, 13)),  # a two-part range steps by one
        ("14,10,12", (14, 10, 12)),   # the CSV rows follow this order
    ])
    def test_grid_list_as_written(self, tmp_path, grids, want):
        path = self.write(tmp_path, f"problem = dirichlet-disc\n"
                          f"grids = {grids}\np_list = 4\nout = r.csv\n")
        assert parse_config(path).grids == want

    def test_unknown_key(self, tmp_path):
        path = self.write(tmp_path, "problem = dirichlet-disc\ngrids = 10\n"
                          "p_list = 4\nout = r.csv\ntolerance = 1e-8\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_missing_required(self, tmp_path):
        path = self.write(tmp_path, "problem = dirichlet-disc\ngrids = 10\n"
                          "p_list = 4\n")
        with pytest.raises(ConfigError, match="out"):
            parse_config(path)

    def test_bad_assignment(self, tmp_path):
        path = self.write(tmp_path, "problem dirichlet-disc\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)

    def test_seed_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "problem = dirichlet-disc\ngrids = 10\n"
                          "p_list = 4\nout = r.csv\nseed = 7\n")
        with pytest.raises(ConfigError, match="unknown key 'seed'"):
            parse_config(path)

    def test_bad_grid_range(self, tmp_path):
        for grids in ("38:10:4", "10:38:0", "a,b", "10:20:4:2"):
            path = self.write(tmp_path, f"problem = dirichlet-disc\n"
                              f"grids = {grids}\np_list = 4\nout = r.csv\n")
            with pytest.raises(ConfigError):
                parse_config(path)

    def test_repeated_key(self, tmp_path):
        # the second problem used to win silently
        path = self.write(tmp_path, "problem = dirichlet-disc\ngrids = 10\n"
                          "p_list = 4\n\nproblem = dirichlet-star\n"
                          "out = r.csv\n")
        with pytest.raises(ConfigError, match=r"exp\.cfg:5: key 'problem' "
                                              r"is set again \(first on "
                                              r"line 1\)"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_repeated_grid_size(self, tmp_path):
        path = self.write(tmp_path, "problem = dirichlet-disc\n"
                          "grids = 10,10\np_list = 4\nout = r.csv\n")
        with pytest.raises(ConfigError, match="grid size 10 is listed twice"):
            parse_config(path)

    def test_repeated_exponent(self, tmp_path):
        path = self.write(tmp_path, "problem = dirichlet-disc\n"
                          "grids = 10\np_list = 4,6,4.0\nout = r.csv\n")
        with pytest.raises(ConfigError, match="smoother exponent 4 is "
                                              "listed twice"):
            parse_config(path)


class TestWriteCsv:
    def test_empty_rows(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv([], path)
        assert open(path).read() == ",".join(CSV_HEADER) + "\n"

    def test_one_row(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv([make_row(10, 1.0 / 3.0)], path)
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1].startswith("10,40,10,4,0.33333333333333331,")
        assert all(line == line.rstrip() for line in lines)

    def test_each_value_under_its_header_name(self, tmp_path):
        # the header is frozen, and every value sits under its own name
        path = str(tmp_path / "out.csv")
        row = ConvergenceRow(m=10, n_omega=40, n_gamma=12, p="6",
                             l2_error=0.25, linf_error=0.5, cond=1e3,
                             seconds=0.125)
        write_csv([row], path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            records = list(reader)
        assert tuple(reader.fieldnames) == (
            "m", "n_omega", "n_gamma", "p", "l2_error", "linf_error",
            "cond", "seconds")
        assert records == [{"m": "10", "n_omega": "40", "n_gamma": "12",
                            "p": "6", "l2_error": "0.25",
                            "linf_error": "0.5", "cond": "1000",
                            "seconds": "0.125"}]

    def test_unwritable_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            write_csv([], "/no/such/dir/out.csv")

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.csv")
        rows = [make_row(10, 1e-3), make_row(14, math.nan, p="exp")]
        write_csv(rows, path)
        back = read_csv_rows(path)
        assert [(r.m, r.p) for r in back] == [(10, "4"), (14, "exp")]
        assert back[0].l2_error == 1e-3
        assert back[0].cond == 1e3
        assert not back[0].failed
        assert back[1].failed

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("m,error\n10,0.5\n")
        with pytest.raises(ConfigError, match="header"):
            read_csv_rows(str(path))


class TestEmitPlotData:
    def emit(self, tmp_path, rows):
        path = str(tmp_path / "plot.txt")
        emit_plot_data(rows, path)
        return open(path).read()

    def test_block_structure(self, tmp_path):
        rows = [make_row(m, float(m) ** -4) for m in (10, 14, 18)]
        text = self.emit(tmp_path, rows)
        blocks = text.strip().split("\n\n")
        assert len(blocks) == 4
        assert [b.splitlines()[0].split()[2] for b in blocks] \
            == ["l2_error", "cond", "reference", "reference"]
        assert all(len(b.splitlines()) == 4 for b in blocks)

    def test_reference_anchored_at_first_point(self, tmp_path):
        rows = [make_row(m, float(m) ** -4) for m in (10, 14, 18)]
        text = self.emit(tmp_path, rows)
        blocks = text.strip().split("\n\n")
        first_data = blocks[0].splitlines()[1]
        first_ref = blocks[2].splitlines()[1]
        assert first_ref == first_data

    def test_reference_slope(self, tmp_path):
        rows = [make_row(m, 2.0 * float(m) ** -3.3, p="6") for m in
                (10, 14, 18)]
        text = self.emit(tmp_path, rows)
        blocks = text.strip().split("\n\n")
        pts = [line.split() for line in blocks[2].splitlines()[1:]]
        slope = (math.log(float(pts[2][1]) / float(pts[0][1]))
                 / math.log(float(pts[2][0]) / float(pts[0][0])))
        assert slope == pytest.approx(-6.0, abs=1e-12)
        pts = [line.split() for line in blocks[3].splitlines()[1:]]
        slope = (math.log(float(pts[2][1]) / float(pts[0][1]))
                 / math.log(float(pts[2][0]) / float(pts[0][0])))
        assert slope == pytest.approx(6.0, abs=1e-12)

    def test_exp_rows_have_no_reference(self, tmp_path):
        rows = [make_row(m, float(m) ** -4, p="exp") for m in (10, 14, 18)]
        text = self.emit(tmp_path, rows)
        blocks = text.strip().split("\n\n")
        assert len(blocks) == 2
        assert "reference" not in text

    def test_failed_rows_skipped(self, tmp_path):
        rows = [make_row(10, 1e-3), make_row(14, math.nan)]
        rows[1].failed = True
        text = self.emit(tmp_path, rows)
        assert "14" not in text.replace("p=4", "")


class TestMain:
    @pytest.mark.parametrize("row,culprit", [
        ("10,40,12,4,0.5,0.5", "expected 8 fields"),
        ("10,40,12,4,0.5,0.5,1e3,0.1,7", "expected 8 fields"),
        ("10,40,12,4,0.5,bad,1e3,0.1", "could not convert string to float"),
        ("ten,40,12,4,0.5,0.5,1e3,0.1", "invalid literal for int"),
    ], ids=["short", "long", "float", "int"])
    def test_plotdata_malformed_row_exit_code(self, tmp_path, capsys, row,
                                              culprit):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(",".join(CSV_HEADER) + "\n"
                            "14,76,17,4,0.25,0.5,1e3,0.1\n" + row + "\n")
        code = main(["plotdata", "--in", str(csv_path),
                     "--out", str(tmp_path / "plot.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{csv_path} line 3: {culprit}" in err
        assert not (tmp_path / "plot.txt").exists()

    def test_study_unparsable_p_list_exit_code(self, tmp_path, capsys):
        code = main(["study", "--problem", "dirichlet-disc", "--grids", "10",
                     "--p", "4,x", "--out", str(tmp_path / "disc.csv")])
        assert code == 2
        assert "cannot parse p list '4,x'" in capsys.readouterr().err
        assert not (tmp_path / "disc.csv").exists()

    def test_plotdata_missing_csv_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = main(["plotdata", "--in", str(missing),
                     "--out", str(tmp_path / "plot.txt")])
        assert code == 2
        assert f"cannot read CSV {missing}" in capsys.readouterr().err
        assert not (tmp_path / "plot.txt").exists()

    def test_study_and_plotdata(self, tmp_path):
        csv_path = str(tmp_path / "disc.csv")
        code = main(["study", "--problem", "dirichlet-disc",
                     "--grids", "10,12", "--p", "4", "--out", csv_path])
        assert code == 0
        lines = open(csv_path).read().splitlines()
        assert len(lines) == 3
        assert lines[0] == ",".join(CSV_HEADER)
        plot_path = str(tmp_path / "disc.txt")
        assert main(["plotdata", "--in", csv_path, "--out", plot_path]) == 0
        assert "# p=4 l2_error" in open(plot_path).read()

    def test_run_from_config(self, tmp_path):
        csv_path = tmp_path / "disc.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = dirichlet-disc\ngrids = 10\n"
                       f"p_list = 4\nout = {csv_path}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert csv_path.exists()

    @staticmethod
    def unwritable(tmp_path, kind):
        """An output path of the given kind that cannot be written."""
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        return {"missing dir": str(tmp_path / "no" / "x.csv"),
                "a directory": str(tmp_path / "dir"),
                "under a file": str(tmp_path / "file" / "x.csv"),
                "empty": ""}[kind]

    @pytest.mark.parametrize("kind", ["missing dir", "a directory",
                                      "under a file", "empty"])
    @pytest.mark.parametrize("command", ["study", "run"])
    def test_unwritable_out_exit_code(self, tmp_path, capsys, monkeypatch,
                                      command, kind):
        # the sweep used to run to the end, then die in a traceback with
        # exit code 1, which is reserved for failed rows
        calls = []
        monkeypatch.setattr(ssem.cli, "run_experiment", calls.append)
        out = self.unwritable(tmp_path, kind)
        before = sorted(tmp_path.rglob("*"))
        if command == "study":
            argv = ["study", "--problem", "dirichlet-disc", "--grids",
                    "10,14", "--p", "4", "--out", out]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"problem = dirichlet-disc\ngrids = 10,14\n"
                           f"p_list = 4\nout = {out}\n")
            argv, before = ["run", "--config", str(cfg)], before + [cfg]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ssem: cannot write CSV to {out}: ")
        assert err.count("\n") == 1
        assert not calls
        assert sorted(tmp_path.rglob("*")) == sorted(before)

    def test_existing_out_kept_until_the_sweep_ends(self, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "x.csv"
        out.write_text("old\n")
        seen = []
        monkeypatch.setattr(ssem.cli, "run_experiment",
                            lambda config: seen.append(out.read_text()) or [])
        assert main(["study", "--problem", "dirichlet-disc", "--grids", "10",
                     "--p", "4", "--out", str(out)]) == 0
        assert seen == ["old\n"]
        assert out.read_text() == ",".join(CSV_HEADER) + "\n"

    @pytest.mark.parametrize("kind", ["missing dir", "a directory",
                                      "under a file", "empty"])
    def test_plotdata_unwritable_out_exit_code(self, tmp_path, capsys, kind):
        csv_path = tmp_path / "in.csv"
        write_csv([make_row(10, 1e-3)], str(csv_path))
        out = self.unwritable(tmp_path, kind)
        assert main(["plotdata", "--in", str(csv_path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ssem: cannot write plot data to {out}: ")
        assert err.count("\n") == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["study", "--problem", "bogus", "--grids", "10",
                     "--p", "4", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "ssem:" in capsys.readouterr().err

    def test_repeated_grid_exit_code(self, tmp_path, capsys):
        code = main(["study", "--problem", "dirichlet-disc", "--grids",
                     "10,10", "--p", "4", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "grid size 10 is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_repeated_grid_in_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = dirichlet-disc\ngrids = 14,10,14\n"
                       f"p_list = 4\nout = {tmp_path / 'x.csv'}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "grid size 14 is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_repeated_exponent_exit_code(self, tmp_path, capsys):
        code = main(["study", "--problem", "dirichlet-disc", "--grids",
                     "10", "--p", "4,4", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "smoother exponent 4 is listed twice" \
            in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_misnamed_exponent_exit_code(self, tmp_path, capsys):
        code = main(["study", "--problem", "dirichlet-disc", "--grids",
                     "10", "--p", "4.0000001", "--out",
                     str(tmp_path / "x.csv")])
        assert code == 2
        assert "smoother exponent 4.0000001 would be labelled 4" \
            in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_study_exp_with_p_exit_code(self, tmp_path, capsys):
        code = main(["study", "--problem", "dirichlet-disc", "--grids", "10",
                     "--smoother", "exp", "--p", "4,6",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "exp smoother takes no exponents" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("p", ["nan", "inf", "4,-inf"])
    def test_study_non_finite_p_exit_code(self, tmp_path, capsys, p):
        # nan <= d/2 is False: without its own check a NaN exponent ran
        code = main(["study", "--problem", "dirichlet-disc", "--grids", "10",
                     "--p", p, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "smoother exponents must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_run_non_finite_p_list_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = dirichlet-disc\ngrids = 10\n"
                       f"p_list = 4,nan\nout = {tmp_path / 'x.csv'}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "smoother exponents must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_run_repeated_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = dirichlet-disc\ngrids = 10\np_list = 4\n"
                       f"grids = 12\nout = {tmp_path / 'x.csv'}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "key 'grids' is set again" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_run_exp_with_p_list_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = dirichlet-disc\ngrids = 10\n"
                       f"smoother = exp\np_list = 4,6\n"
                       f"out = {tmp_path / 'x.csv'}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "exp smoother takes no exponents" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_seed_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = dirichlet-disc\ngrids = 10\np_list = 4\n"
                       f"out = {tmp_path / 'x.csv'}\nseed = 7\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "unknown key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_study_seed_flag_exit_code(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["study", "--problem", "dirichlet-disc", "--grids", "10",
                  "--p", "4", "--out", str(tmp_path / "x.csv"),
                  "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_failed_row_exit_code(self, tmp_path, monkeypatch):
        def boom(system, spec):
            raise RankDeficientError(0, 0.0, 1e-13)

        monkeypatch.setattr(ssem.experiments, "pinv_solve", boom)
        code = main(["study", "--problem", "dirichlet-disc", "--grids", "10",
                     "--p", "4", "--out", str(tmp_path / "x.csv")])
        assert code == 1
