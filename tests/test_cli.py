import ast
import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gark
import gark.adaptivity
import gark.cli
from gark.cli import build_parser, main
from gark.forward import StepFailureError
from gark.mesh import TimeGrid
from gark.systems import PROBLEM_BUILDERS


def run_cli(argv):
    return main(argv)


def run_python(*argv):
    """python argv in a child process that imports the same gark as this
    process, installed or not."""
    src = str(Path(gark.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_module(*argv):
    """python -m gark.cli argv in a child process (run_python)."""
    return run_python("-m", "gark.cli", *argv)


def subcommand_options(command) -> set:
    """The long options, without their dashes, that `command --help`
    lists."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    return set(re.findall(r"--([a-z][a-z-]*)", text.getvalue()))


def no_runs(monkeypatch):
    """Make every run of the commands fail, so that a test reaching one
    fails."""
    for runner in ("integrate", "estimate_errors", "run_campaign"):
        monkeypatch.setattr(gark.cli, runner, None)


def zero_gap(module, monkeypatch):
    """Make module's estimate_errors report accuracy=None (e_ref == 0)."""
    real = module.estimate_errors

    def fake(*args, **kwargs):
        bundle = real(*args, **kwargs)
        bundle.report.accuracy = None
        return bundle

    monkeypatch.setattr(module, "estimate_errors", fake)


class TestConverge:
    def test_writes_table_and_slopes(self, tmp_path, capsys):
        code = run_cli(["converge", "--problem", "calvo", "--nx", "8",
                        "--ny", "4", "--dt", "0.15", "--levels", "3",
                        "--ref-exponent", "5", "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "convergence.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert float(rows[0]["dt"]) == 0.15
        assert float(rows[1]["forward_rel_l2"]) < float(
            rows[0]["forward_rel_l2"])
        slopes = json.loads((tmp_path / "convergence.json").read_text())
        assert 1.7 <= slopes["forward_slope"] <= 2.3
        assert 1.7 <= slopes["adjoint_slope"] <= 2.3
        assert "slope" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, named", [
        (["--levels", "0"], "--levels"), (["--levels", "1"], "--levels"),
        (["--levels", "3", "--ref-exponent", "2"], "--ref-exponent")])
    def test_level_counts_that_fit_no_slope_rejected(self, flags, named,
                                                     tmp_path):
        with pytest.raises(SystemExit, match=named):
            run_cli(["converge", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--out", str(tmp_path), *flags])
        assert not (tmp_path / "convergence.json").exists()

    def test_step_that_does_not_divide_the_interval_names_dt(self,
                                                             tmp_path):
        # checked before the reference run, whose step dt / 2**7 it would
        # otherwise name
        with pytest.raises(SystemExit, match="^--dt: dt=0.7 does not"):
            run_cli(["converge", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--dt", "0.7", "--out", str(tmp_path)])
        assert not tmp_path.joinpath("convergence.csv").exists()

    def test_reference_beyond_physical_memory_names_ref_exponent(
            self, tmp_path, monkeypatch):
        # 10 * 2**40 reference steps would store petabytes
        monkeypatch.setattr(gark.cli, "integrate", None)  # never reached
        with pytest.raises(SystemExit, match=r"^--ref-exponent 40: .* "
                           r"10 \* 2\*\*40 steps .* physical memory"):
            run_cli(["converge", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--levels", "2", "--ref-exponent", "40",
                     "--out", str(tmp_path)])
        assert not any(tmp_path.iterdir())

    def test_reference_is_checked_before_the_level_grids(self, tmp_path,
                                                         monkeypatch):
        # levels 1..29 would hold up to 10 * 2**29 steps; only level 0,
        # which sizes the reference run, is built before its check
        built = []
        uniform = TimeGrid.uniform

        def build_one(t0, t_final, dt):
            built.append(dt)
            assert len(built) == 1, "a level grid was built before the check"
            return uniform(t0, t_final, dt)

        monkeypatch.setattr(TimeGrid, "uniform", staticmethod(build_one))
        with pytest.raises(SystemExit, match=r"^--ref-exponent 60: "):
            run_cli(["converge", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--levels", "30", "--ref-exponent", "60",
                     "--out", str(tmp_path)])
        assert built == [0.15]

    def test_reference_check_precedes_the_level_step_sizes(self, tmp_path):
        # 0.15 / 2**1099 does not fit a float: the reference check refuses
        # the run before any level's step size is computed
        proc = run_module("converge", "--problem", "calvo", "--nx", "4",
                          "--ny", "2", "--levels", "1100", "--ref-exponent",
                          "1100", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert re.fullmatch(r"--ref-exponent 1100: the reference run of 10 "
                            r"\* 2\*\*1100 steps .* physical memory\n",
                            proc.stderr)
        assert not any(tmp_path.iterdir())

    def test_memory_guard_counts_what_the_run_and_its_sweep_hold(
            self, monkeypatch):
        # the stored run's states and stage values and the sweep's arrays
        # (lam only: the converge sweep stores no mu)
        held = []
        run, sweep = gark.cli.integrate, gark.cli.adjoint_sweep

        def integrate(*args):
            traj = run(*args)
            held.extend([traj.states] + traj.stage_values)
            return traj

        def adjoint_sweep(*args, **kwargs):
            adjoint = sweep(*args, **kwargs)
            held.extend([adjoint.lam] + adjoint.mu)
            return adjoint

        monkeypatch.setattr(gark.cli, "integrate", integrate)
        monkeypatch.setattr(gark.cli, "adjoint_sweep", adjoint_sweep)
        args = build_parser().parse_args(["converge", "--problem", "calvo",
                                          "--nx", "8", "--ny", "4", "--dt",
                                          "0.15"])
        problem = gark.cli._make_problem(args)
        grid = gark.cli._time_grid(problem, args.dt)
        gark.cli._final_pair(problem, grid)
        assert gark.cli._stored_run_bytes(problem, grid.num_steps) \
            == sum(a.nbytes for a in held if a is not None)

    def test_rerun_in_same_out_is_byte_identical(self, tmp_path):
        argv = ["converge", "--problem", "calvo", "--nx", "8", "--ny", "4",
                "--dt", "0.15", "--levels", "2", "--ref-exponent", "4",
                "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        first = (tmp_path / "convergence.csv").read_bytes()
        assert run_cli(argv) == 0
        assert (tmp_path / "convergence.csv").read_bytes() == first
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["convergence.csv", "convergence.json"]

    def test_blow_up_names_the_level_that_failed(self, tmp_path):
        # as in TestRefine.BLOW_UP, bsvd overflows at dt 0.25; the reference
        # run at dt 0.125 and the dt 0.5 level stay finite
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["converge", "--problem", "bsvd", "--nx", "2", "--ny",
                     "2", "--dt", "0.5", "--t-final", "1", "--levels", "2",
                     "--ref-exponent", "2", "--out", str(tmp_path)])
        assert exit_info.value.code == ("dt=0.25 run, step 3, from t = 0.75 "
                                        "to 1: the new state is not finite")
        failure = exit_info.value.__cause__
        assert (failure.run, failure.step_index) == ("dt=0.25", 3)
        assert not (tmp_path / "convergence.csv").exists()


class TestEstimate:
    def test_report_files(self, tmp_path, capsys):
        code = run_cli(["estimate", "--problem", "calvo", "--nx", "8",
                        "--ny", "4", "--dt", "0.15", "--out",
                        str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["kind"] == "error_report"
        assert len(report["e_spatial"]) == 2
        with open(tmp_path / "report.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "goal_num"
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_zero_reference_gap_prints_na(self, tmp_path, capsys,
                                          monkeypatch):
        zero_gap(gark.cli, monkeypatch)
        assert run_cli(["estimate", "--problem", "calvo", "--nx", "8",
                        "--ny", "4", "--dt", "0.15", "--out",
                        str(tmp_path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("accuracy n/a")

    def test_zero_step_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="^--dt: dt=0.0 must be positive"):
            run_cli(["estimate", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--dt", "0", "--out", str(tmp_path)])

    @pytest.mark.parametrize("name, cells, flags", [
        ("gray_scott", "4", ["--t-final", "1.0", "--dt", "0.001"]),
        ("bsvd", "6", ["--t-final", "1.0", "--dt", "0.001"]),
        ("calvo", "8", ["--dt", "0.0015"])])
    def test_memory_guard_counts_what_the_estimate_holds(
            self, name, cells, flags, tmp_path, monkeypatch):
        # the guard counts the stored run, lam and the mu of the weighed
        # partitions; at 1000 steps the estimate's traced peak is that count
        # plus less than 15%
        counted, peaks = [], []
        count, estimate = gark.cli._stored_run_bytes, gark.cli.estimate_errors

        def stored_run_bytes(*args):
            counted.append(count(*args))
            return counted[-1]

        def estimate_errors(*args):
            tracemalloc.start()
            try:
                bundle = estimate(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return bundle

        monkeypatch.setattr(gark.cli, "_stored_run_bytes", stored_run_bytes)
        monkeypatch.setattr(gark.cli, "estimate_errors", estimate_errors)
        assert run_cli(["estimate", "--problem", name, "--nx", cells, "--ny",
                        cells, *flags, "--out", str(tmp_path)]) == 0
        assert len(counted) == len(peaks) == 1
        assert counted[0] <= peaks[0] < 1.15 * counted[0]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["estimate", "--problem", "calvo", "--nx", "8",
                            "--ny", "4", "--dt", "0.15", "--out",
                            str(out)]) == 0
        assert (a / "report.json").read_bytes() \
            == (b / "report.json").read_bytes()
        assert (a / "report.csv").read_bytes() \
            == (b / "report.csv").read_bytes()


class TestRefine:
    def test_campaign_outputs(self, tmp_path, capsys):
        code = run_cli(["refine", "--problem", "calvo", "--nx", "8",
                        "--ny", "4", "--dt", "0.15", "--stages", "2",
                        "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "campaign.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert (tmp_path / "grids" / "stage-0.json").exists()
        assert (tmp_path / "grids" / "stage-1.json").exists()
        assert capsys.readouterr().out.count("stage") == 2

    def test_zero_stages_fail_before_any_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gark.cli, "run_campaign", None)  # never reached
        with pytest.raises(SystemExit, match="^--stages must"):
            run_cli(["refine", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--out", str(tmp_path), "--stages", "0"])
        assert not (tmp_path / "campaign.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--space-pct", "--time-pct"])
    def test_marking_percentiles_are_no_flags(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["refine", flag, "90", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    # dt 0.5 is far beyond the explicit reaction's stability limit on bsvd:
    # the numerical run at dt 0.5 stays finite to t = 1, the time-refined
    # run at dt 0.25 overflows, before any stage is logged
    BLOW_UP = ["refine", "--problem", "bsvd", "--nx", "2", "--ny", "2",
               "--dt", "0.5", "--t-final", "1", "--stages", "2"]
    BLOW_UP_MESSAGE = ("stage 0, time-refined run, step 3, from t = 0.75 "
                       "to 1: the new state is not finite")

    def test_blow_up_fails_naming_the_step(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            run_cli([*self.BLOW_UP, "--out", str(tmp_path)])
        assert exit_info.value.code == self.BLOW_UP_MESSAGE
        failure = exit_info.value.__cause__
        assert isinstance(failure, StepFailureError)
        assert (failure.run, failure.step_index) \
            == ("stage 0, time-refined", 3)
        assert (tmp_path / "campaign.jsonl").read_text() == ""

    def test_blow_up_exits_with_one_line_and_no_traceback(self, tmp_path):
        proc = run_module(*self.BLOW_UP, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == self.BLOW_UP_MESSAGE + "\n"

    def test_rerun_in_same_out_is_byte_identical(self, tmp_path):
        argv = ["refine", "--problem", "calvo", "--nx", "4", "--ny", "2",
                "--dt", "0.15", "--stages", "2", "--out", str(tmp_path)]

        def written():
            return {path.relative_to(tmp_path): path.read_bytes()
                    for path in tmp_path.rglob("*") if path.is_file()}

        assert run_cli(argv) == 0
        first = written()
        assert run_cli(argv) == 0
        assert written() == first
        assert sorted(map(str, first)) == [
            "campaign.jsonl", "grids/stage-0.json", "grids/stage-1.json"]

    def test_zero_reference_gap_prints_na(self, tmp_path, capsys,
                                          monkeypatch):
        zero_gap(gark.adaptivity, monkeypatch)
        assert run_cli(["refine", "--problem", "calvo", "--nx", "8",
                        "--ny", "4", "--dt", "0.15", "--stages", "1",
                        "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("accuracy n/a")


def scopes_naming(*names) -> dict:
    """Per name, the scopes of the gark sources (module.function or
    module.Class.method) that refer to it as a variable or attribute."""
    where = {name: set() for name in names}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", getattr(child, "attr", None))
            if isinstance(child, (ast.Name, ast.Attribute)) and name in where:
                where[name].add(scope)
            visit(child, f"{scope}.{child.name}"
                  if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                  else scope)

    for path in sorted(Path(gark.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return where


class TestPlumbing:
    # one good and (where the type rejects any) one bad value per option
    OPTION_VALUES = {
        "problem": ("bsvd", "heat"), "nx": (4, "x"), "ny": (3, 2.5),
        "dt": (0.05, "fast"), "t-final": (2.0, "never"),
        "out": ("some/dir", None), "levels": (3, "3.5"),
        "ref-exponent": (6, "x"), "stages": (2, "two"),
    }
    # each subcommand's options besides --help
    COMMON = {"problem", "nx", "ny", "dt", "t-final", "out"}
    OPTIONS = {"converge": COMMON | {"levels", "ref-exponent"},
               "estimate": COMMON, "refine": COMMON | {"stages"}}

    @pytest.mark.parametrize("command", ["converge", "estimate", "refine"])
    def test_options_and_their_values_by_flag(self, command, capsys):
        options = subcommand_options(command) - {"help"}
        assert options == self.OPTIONS[command]
        assert set(self.OPTION_VALUES) == set().union(*self.OPTIONS.values())
        for option in sorted(options):
            good, bad = self.OPTION_VALUES[option]
            args = build_parser().parse_args([command, f"--{option}",
                                              str(good)])
            assert str(getattr(args, option.replace("-", "_"))) == str(good)
            if bad is None:
                continue
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([command, f"--{option}", str(bad)])
            assert exit_info.value.code == 2
            assert f"argument --{option}: invalid" in capsys.readouterr().err

    def test_calvo_rejects_time_override(self, tmp_path):
        with pytest.raises(SystemExit, match="t-final"):
            run_cli(["estimate", "--problem", "calvo", "--nx", "8",
                     "--ny", "4", "--t-final", "2.0", "--out",
                     str(tmp_path)])

    def test_builder_type_error_is_not_rewritten(self, tmp_path,
                                                 monkeypatch):
        def broken(grid, t_final=7.0):
            raise TypeError("broken builder")

        monkeypatch.setitem(PROBLEM_BUILDERS, "bsvd", broken)
        with pytest.raises(TypeError, match="broken builder"):
            run_cli(["estimate", "--problem", "bsvd", "--nx", "4",
                     "--ny", "4", "--t-final", "0.1", "--out",
                     str(tmp_path)])

    @pytest.mark.parametrize("command", ["estimate", "refine"])
    @pytest.mark.parametrize("dt, message", [
        ("-0.1", "dt=-0.1 must be positive"),
        ("0.7", r"dt=0.7 does not evenly divide \[0.0, 1.5\]")],
        ids=["negative", "non_divisor"])
    def test_bad_step_names_dt_before_any_run(self, command, dt, message,
                                              tmp_path, monkeypatch):
        monkeypatch.setattr(gark.cli, "estimate_errors", None)
        monkeypatch.setattr(gark.cli, "run_campaign", None)
        with pytest.raises(SystemExit, match=f"^--dt: {message}"):
            run_cli([command, "--problem", "calvo", "--nx", "4", "--ny", "2",
                     "--dt", dt, "--out", str(tmp_path)])
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["converge", "estimate", "refine"])
    @pytest.mark.parametrize("t_final, named, steps", [
        ("1e12", r"1000000000000\.0", r"1e\+14"),
        ("1e300", r"1e\+300", r"1e\+302")])
    def test_run_beyond_physical_memory_names_dt_and_t_final(
            self, command, t_final, named, steps, tmp_path, monkeypatch):
        # refused from the step count alone: no grid is built
        monkeypatch.setattr(TimeGrid, "uniform", None)
        monkeypatch.setattr(gark.cli, "estimate_errors", None)
        monkeypatch.setattr(gark.cli, "run_campaign", None)
        with pytest.raises(SystemExit, match=(
                f"^--dt 0.01, --t-final {named}: a stored run of {steps} "
                "steps and its adjoint sweep would store more than the "
                r"[0-9.]+ GiB of physical memory$")):
            run_cli([command, "--problem", "bsvd", "--nx", "4", "--ny", "4",
                     "--t-final", t_final, "--dt", "0.01",
                     "--out", str(tmp_path)])
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["converge", "estimate", "refine"])
    @pytest.mark.parametrize("flags, message", [
        (["--nx", "0"], "--nx must be at least 1, not 0"),
        (["--ny", "-4"], "--ny must be at least 1, not -4"),
        (["--t-final", "-1.0"],
         "--t-final must exceed the start time 0.0, not -1.0"),
        (["--t-final", "0"],
         "--t-final must exceed the start time 0.0, not 0.0"),
        (["--t-final", "inf"], "--t-final must be finite, not inf")],
        ids=["nx_zero", "ny_negative", "t_final_negative", "t_final_zero",
             "t_final_infinite"])
    def test_bad_grid_flags_are_named_before_any_run(self, command, flags,
                                                     message, tmp_path,
                                                     monkeypatch):
        no_runs(monkeypatch)
        with pytest.raises(SystemExit, match=f"^{message}$"):
            run_cli([command, "--problem", "bsvd", "--nx", "4", "--ny", "4",
                     "--dt", "0.1", "--out", str(tmp_path), *flags])
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["converge", "estimate", "refine"])
    @pytest.mark.parametrize("flag", ["--nx", "--ny"])
    def test_calvo_needs_two_cells_a_side(self, command, flag, tmp_path,
                                          monkeypatch):
        # calvo's Dirichlet edges leave one cell between them no unknowns
        no_runs(monkeypatch)
        with pytest.raises(SystemExit, match=f"^{flag} must be at least 2, "
                                             "not 1$"):
            run_cli([command, "--problem", "calvo", "--nx", "4", "--ny", "2",
                     "--out", str(tmp_path), flag, "1"])
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["converge", "estimate", "refine"])
    @pytest.mark.parametrize("key, value", [
        ("gamma", gark.GAMMA_MINUS), ("alpha", 0.5)])
    def test_tableau_is_no_option(self, command, key, value, tmp_path,
                                  monkeypatch, capsys):
        # every command runs cli.TABLEAU: gamma and alpha are no flags, even
        # at the value TABLEAU has
        no_runs(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, "--problem", "calvo", "--nx", "4", "--ny", "2",
                     "--out", str(tmp_path / "out"), f"--{key}", repr(value)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("converge", "--config", "cfg.json"),
        ("estimate", "--config", "cfg.json"),
        ("refine", "--config", "cfg.json"),
        ("converge", "--seed", "3"),
        ("estimate", "--seed", "3"),
        ("refine", "--seed", "3")])
    def test_removed_options_are_unrecognized(self, command, flag, value,
                                              tmp_path, monkeypatch, capsys):
        # no config file stands for the flags
        no_runs(monkeypatch)
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"dt": 0.5}))
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, "--out", "out", flag, value])
        assert exit_info.value.code == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert f"unrecognized arguments: {flag}" in printed.err
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_a_subcommand_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli([])
        assert exit_info.value.code == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "the following arguments are required: command" \
            in printed.err

    @pytest.mark.parametrize("removed", [
        "oracle-check", "gark.oracle", "make_random_nonlinear",
        "adjoint_coefficients"])
    def test_the_self_check_is_not_shipped(self, removed, capsys):
        # the references the self-check ran live with the tests
        if removed == "oracle-check":
            with pytest.raises(SystemExit) as exit_info:
                run_cli([removed])
            assert exit_info.value.code == 2
            printed = capsys.readouterr()
            assert printed.out == ""
            assert "invalid choice: 'oracle-check'" in printed.err
        elif removed == "gark.oracle":
            assert importlib.util.find_spec(removed) is None
        else:
            assert not hasattr(gark, removed)

    def test_the_cli_builds_its_pair_once(self):
        # every command reads TABLEAU
        assert scopes_naming("build_imex22") == {"build_imex22": {"cli"}}

    def test_the_cli_pair_is_the_default_imex22(self):
        pair = gark.build_imex22()
        assert gark.cli.TABLEAU.validate().ok
        for q in range(2):
            for m in range(2):
                assert np.array_equal(gark.cli.TABLEAU.coupling[q][m],
                                      pair.coupling[q][m])

    @pytest.mark.parametrize("command, runner", [
        ("converge", "integrate"), ("estimate", "estimate_errors"),
        ("refine", "run_campaign")])
    def test_each_command_runs_the_cli_pair(self, command, runner, tmp_path,
                                            monkeypatch):
        # each runner takes (problem, tableau, grid, ...); the first call
        # stops the command
        seen = []

        def record(problem, tableau, *rest, **kwargs):
            seen.append(tableau)
            raise StopIteration

        no_runs(monkeypatch)
        monkeypatch.setattr(gark.cli, runner, record)
        with pytest.raises(StopIteration):
            run_cli([command, "--problem", "calvo", "--nx", "4", "--ny", "2",
                     "--out", str(tmp_path / "out")])
        assert len(seen) == 1 and seen[0] is gark.cli.TABLEAU

    @pytest.mark.parametrize("command", ["converge", "estimate", "refine"])
    @pytest.mark.parametrize("out, error", [
        ("taken", "File exists"), ("taken/sub", "Not a directory")],
        ids=["file", "under_a_file"])
    def test_out_that_cannot_be_a_directory_is_named_before_any_run(
            self, command, out, error, tmp_path, monkeypatch):
        no_runs(monkeypatch)
        (tmp_path / "taken").write_text("kept")
        with pytest.raises(SystemExit, match=f"^--out: .*{error}"):
            run_cli([command, "--problem", "calvo", "--nx", "4", "--ny", "2",
                     "--out", str(tmp_path / out)])
        assert (tmp_path / "taken").read_text() == "kept"

    @pytest.mark.parametrize("command, entry, kind", [
        ("converge", "convergence.csv", "directory"),
        ("converge", "convergence.json", "directory"),
        ("estimate", "report.json", "directory"),
        ("estimate", "report.csv", "directory"),
        ("refine", "campaign.jsonl", "directory"),
        ("refine", "grids", "file"),
        ("refine", "grids/stage-0.json", "directory")])
    def test_out_entry_in_the_way_is_named_before_any_run(
            self, command, entry, kind, tmp_path, monkeypatch):
        # a directory where the command writes a file or refine removes an
        # earlier campaign's grid file, or a file where refine makes its
        # grids directory
        no_runs(monkeypatch)
        blocker = tmp_path / entry
        if kind == "directory":
            blocker.mkdir(parents=True)
            message = "is a directory"
        else:
            blocker.write_text("kept")
            message = "is not a directory"
        with pytest.raises(SystemExit, match=f"^--out: "
                           f"{re.escape(str(blocker))} {message}$"):
            run_cli([command, "--problem", "calvo", "--nx", "4", "--ny", "2",
                     "--out", str(tmp_path)])
        assert [path.name for path in tmp_path.iterdir()] \
            == [Path(entry).parts[0]]
        if kind == "directory":
            assert not any(blocker.iterdir())
        else:
            assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("command, flags", [
        ("converge", ["--levels", "2", "--ref-exponent", "2"]),
        ("estimate", []), ("refine", ["--stages", "2"])],
        ids=["converge", "estimate", "refine"])
    def test_make_out_is_told_every_entry_a_command_writes(
            self, command, flags, tmp_path, monkeypatch):
        # an entry that _make_out is not told of escapes its check for
        # something in the way
        told = []
        make_out = gark.cli._make_out

        def record(out, files, dirs=()):
            told.append((files, dirs))
            make_out(out, files, dirs)

        monkeypatch.setattr(gark.cli, "_make_out", record)
        assert run_cli([command, "--problem", "calvo", "--nx", "4", "--ny",
                        "2", "--out", str(tmp_path), *flags]) == 0
        [(files, dirs)] = told
        entries = set(tmp_path.rglob("*"))
        assert {path for path in entries if path.is_file()} \
            == {path for pattern in files for path in tmp_path.glob(pattern)}
        assert {path for path in entries if path.is_dir()} \
            == {tmp_path / name for name in dirs}

    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().replace("\\\n", " ").splitlines()
        commands = [line.split()[3:] for line in lines
                    if line.startswith("python3 -m gark.cli ")]
        assert len(commands) == 3
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {argv}")

    def test_readme_names_only_flags_that_exist(self):
        # the --flags that the Command line section names, in prose or in
        # a command, are exactly the options of the subcommands
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("\n## Command line\n")[1]
        section = section.split("\n## ")[0]
        named = set(re.findall(r"--([a-z][a-z-]*)", section))
        options = set().union(*map(subcommand_options, self.OPTIONS))
        assert named == options - {"help"}

    def test_every_export_resolves(self):
        # a stale name in __all__ breaks only `from gark import *`
        assert [name for name in gark.__all__ if not hasattr(gark, name)] \
            == []

    def test_no_module_imports_a_name_it_never_uses(self):
        # an imported name must be loaded in the module that imports it,
        # and one imported inside a function in that function; __init__.py
        # loads its re-exports through __all__.  No linter runs on the
        # sources, so this test is what catches an import left behind
        unused = []
        for path in sorted(Path(gark.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            exported = {name for node in tree.body
                        if isinstance(node, ast.Assign)
                        and any(getattr(target, "id", None) == "__all__"
                                for target in node.targets)
                        for name in ast.literal_eval(node.value)}
            for scope in ast.walk(tree):
                if not isinstance(scope, (ast.Module, ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                    continue
                nodes = list(ast.walk(scope))
                used = exported | {node.id for node in nodes
                                   if isinstance(node, ast.Name)
                                   and isinstance(node.ctx, ast.Load)}
                unused += [
                    f"{path.name}:{node.lineno} {name}"
                    for node in nodes
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for name in (alias.asname or alias.name.split(".")[0]
                                 for alias in node.names)
                    if name not in used]
        assert unused == []

    def test_every_definition_is_read_by_the_program(self):
        # a function, method, class or module constant that only the tests
        # read is a capability no run uses; the program is gark and the
        # benchmark, and gark/__init__.py's re-exports read nothing
        src = sorted(Path(gark.__file__).parent.glob("*.py"))
        bench = sorted((Path(__file__).resolve().parents[1] / "perfbench")
                       .glob("*.py"))
        assert bench, "perfbench sources not found next to the tests"
        defined, read = [], set()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    if not re.fullmatch(r"__\w+__", child.name):
                        defined.append((f"{scope}.{child.name}", child.name))
                    visit(child, f"{scope}.{child.name}")
                else:
                    visit(child, scope)

        for path in src:
            tree = ast.parse(path.read_text())
            visit(tree, path.stem)
            for node in tree.body:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, ast.AnnAssign) else [])
                defined += [(f"{path.stem}.{name.id}", name.id)
                            for target in targets
                            for name in ast.walk(target)
                            if isinstance(name, ast.Name)
                            and not re.fullmatch(r"__\w+__", name.id)]
        for path in src + bench:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom) \
                        and path != Path(gark.__file__):
                    read.update(alias.name for alias in node.names)
        assert [where for where, name in defined if name not in read] == []

    def test_stage_factors_have_one_way_in(self):
        # splu and the stage solver classes are named only in factorize,
        # and factorize only in LinearStageCache.get, the one way in to a
        # stage solver
        assert scopes_naming("splu", "SeparableStageSolver",
                             "SuperLUStageSolver", "factorize") == {
            "splu": {"forward.factorize"},
            "SeparableStageSolver": {"forward.factorize"},
            "SuperLUStageSolver": {"forward.factorize"},
            "factorize": {"forward.LinearStageCache.get"}}

    def test_separable_form_has_one_way_in(self):
        # separable_laplacian is named only in systems._diffusion, which
        # attaches it exactly when the diffusion coefficient is constant
        assert scopes_naming("separable_laplacian") == {
            "separable_laplacian": {"systems._diffusion"}}

    def test_solve_directions_are_named_by_the_solvers(self):
        # SuperLU's trans flag, and its "T"/"N" letters, stay inside
        # SuperLUStageSolver: every other module asks a stage solver for
        # solve, slope or adjoint, and only the adjoint sweep asks for adjoint
        trans, letters, adjoint_calls = set(), set(), set()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.keyword) and child.arg == "trans" \
                        or isinstance(child, ast.arg) and child.arg == "trans":
                    trans.add(scope)
                if isinstance(child, ast.Constant) \
                        and child.value in ("T", "N") \
                        and not (isinstance(node, ast.keyword)
                                 and node.arg == "trans"):
                    letters.add(scope)
                if isinstance(child, ast.Attribute) \
                        and child.attr == "adjoint":
                    adjoint_calls.add(scope)
                visit(child, f"{scope}.{child.name}"
                      if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                      else scope)

        for path in sorted(Path(gark.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), path.stem)
        assert trans == {"forward.SuperLUStageSolver.solve"}
        assert letters == set()
        assert adjoint_calls == {"adjoint.adjoint_sweep"}

    def test_module_entry_point(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "converge" in proc.stdout

    def test_separable_runs_import_no_scipy(self, tmp_path):
        # A fresh interpreter: this one has SciPy from the tests' imports.
        # It prints the SciPy modules loaded after each run, as JSON.
        script = f"""
import json, sys
import gark, gark.cli
from gark import build_imex22, build_problem, default_grid, estimate_errors
from gark.mesh import TimeGrid

def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

seen = {{}}
problem = build_problem("gray_scott", default_grid("gray_scott", 4, 4),
                        t_final=1.0)
estimate_errors(problem, build_imex22(), TimeGrid.uniform(0.0, 1.0, 0.25))
gark.cli.main(["converge", "--problem", "calvo", "--nx", "8", "--ny", "4",
               "--levels", "2", "--ref-exponent", "3",
               "--out", {str(tmp_path)!r}])
seen["separable"] = loaded()
bsvd = build_problem("bsvd", default_grid("bsvd", 6, 6), t_final=0.1)
seen["bsvd built"] = loaded()
estimate_errors(bsvd, build_imex22(), TimeGrid.uniform(0.0, 0.1, 0.05))
seen["bsvd estimated"] = loaded()
print(json.dumps(seen))
"""
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["separable"] == []
        assert "scipy.sparse" in seen["bsvd built"]
        assert "scipy.sparse.linalg" not in seen["bsvd built"]
        assert "scipy.sparse.linalg" in seen["bsvd estimated"]
        assert (tmp_path / "convergence.json").is_file()
