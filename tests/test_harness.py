"""Experiment sweeps, error metrics, CSV/plot-data plumbing, CLI."""

import dataclasses
import math

import numpy as np
import pytest

import ssem.experiments
from ssem.assembly import SmootherSpec
from ssem.chebyshev import roots_axis
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
        assert built == [10, 12]
        for row in rows:
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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "absent.cfg"))


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

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["study", "--problem", "bogus", "--grids", "10",
                     "--p", "4", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "ssem:" in capsys.readouterr().err

    def test_study_exp_with_p_exit_code(self, tmp_path, capsys):
        code = main(["study", "--problem", "dirichlet-disc", "--grids", "10",
                     "--smoother", "exp", "--p", "4,6",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "exp smoother takes no exponents" in capsys.readouterr().err
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
