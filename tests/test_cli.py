import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gark
import gark.adaptivity
import gark.cli
from gark.cli import build_parser, main, parse_args
from gark.forward import StepFailureError
from gark.mesh import TimeGrid
from gark.systems import PROBLEM_BUILDERS


GAMMA_REFUSED = (f"--gamma must be GAMMA_MINUS = {gark.GAMMA_MINUS!r} or "
                 f"GAMMA_PLUS = {gark.GAMMA_PLUS!r}")


def run_cli(argv):
    return main(argv)


def run_module(*argv):
    """python -m gark.cli argv in a child process that imports the same
    gark as this process, installed or not."""
    src = str(Path(gark.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gark.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


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

    def test_level_checks_read_the_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": 1}))
        with pytest.raises(SystemExit, match="--levels"):
            run_cli(["converge", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--out", str(tmp_path), "--config", str(cfg)])

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
        args = parse_args(["converge", "--problem", "calvo", "--nx", "8",
                           "--ny", "4", "--dt", "0.15"])
        problem = gark.cli._make_problem(args)
        tableau = gark.cli._tableau(args)
        grid = gark.cli._time_grid(problem, tableau, args.dt)
        gark.cli._final_pair(problem, tableau, grid)
        assert gark.cli._final_pair_bytes(problem, tableau, grid.num_steps) \
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

    def test_space_pct_is_not_a_known_option(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setattr(gark.cli, "run_campaign", None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space-pct": 90}))
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["refine", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--out", str(tmp_path), "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --space-pct=90" \
            in capsys.readouterr().err

    # dt 0.5 is far beyond the explicit reaction's stability limit on bsvd:
    # the numerical run at dt 0.5 stays finite to t = 1, the time-refined
    # run at dt 0.25 overflows, before any stage is logged
    BLOW_UP = ["refine", "--problem", "bsvd", "--nx", "2", "--ny", "2",
               "--dt", "0.5", "--t-final", "1", "--stages", "2"]
    BLOW_UP_MESSAGE = ("time-refined run, step 3, from t = 0.75 to 1: the "
                       "new state is not finite")

    def test_blow_up_fails_naming_the_step(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            run_cli([*self.BLOW_UP, "--out", str(tmp_path)])
        assert exit_info.value.code == self.BLOW_UP_MESSAGE
        failure = exit_info.value.__cause__
        assert isinstance(failure, StepFailureError)
        assert (failure.run, failure.step_index) == ("time-refined", 3)
        assert (tmp_path / "campaign.jsonl").read_text() == ""

    def test_blow_up_exits_with_one_line_and_no_traceback(self, tmp_path):
        proc = run_module(*self.BLOW_UP, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == self.BLOW_UP_MESSAGE + "\n"

    def test_zero_reference_gap_prints_na(self, tmp_path, capsys,
                                          monkeypatch):
        zero_gap(gark.adaptivity, monkeypatch)
        assert run_cli(["refine", "--problem", "calvo", "--nx", "8",
                        "--ny", "4", "--dt", "0.15", "--stages", "1",
                        "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("accuracy n/a")


class TestOracleCheck:
    def test_all_diagnostics_pass(self, capsys):
        assert run_cli(["oracle-check", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok  ") == 5
        assert "FAIL" not in out

    def test_negative_seed_is_named_before_any_check(self, capsys):
        with pytest.raises(SystemExit,
                           match="^--seed must be non-negative, not -1$"):
            run_cli(["oracle-check", "--seed", "-1"])
        assert capsys.readouterr().out == ""


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
    def test_config_file_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 0.075, "levels": 2}))
        out = tmp_path / "out"
        assert run_cli(["converge", "--problem", "calvo", "--nx", "8",
                        "--ny", "4", "--dt", "0.15", "--levels", "3",
                        "--ref-exponent", "4", "--out", str(out),
                        "--config", str(cfg)]) == 0
        with open(out / "convergence.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert float(rows[0]["dt"]) == 0.075

    def test_unknown_config_key_rejected(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setattr(gark.cli, "estimate_errors", None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"step_size": 0.1}))
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["estimate", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --step-size=0.1" \
            in capsys.readouterr().err

    def test_config_key_of_no_option_rejected(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr(gark.cli, "estimate_errors", None)
        cfg = tmp_path / "cfg.json"
        for entry, named in (
                # a namespace attribute but no option of estimate
                ({"command": "converge"},
                 "unrecognized arguments: --command=converge"),
                # a config file that printed help or named another config
                # file would run nothing, or skip that file's entries
                ({"help": 1}, "config key 'help': a config file cannot"),
                ({"config": "other.json"}, "config key 'config': a config"),
                ({"conf": "other.json"}, "config key 'conf': a config")):
            cfg.write_text(json.dumps(entry))
            with pytest.raises(SystemExit) as exit_info:
                run_cli(["estimate", "--config", str(cfg)])
            assert exit_info.value.code == 2
            assert named in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha", "t_final", "nx"])
    def test_null_config_entry_rejected(self, key, tmp_path, monkeypatch,
                                        capsys):
        # a null cannot reset a flag: it would reach argparse as 'None'
        monkeypatch.setattr(gark.cli, "estimate_errors", None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 0.5, key: None}))
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["estimate", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert f"config key {key!r}: null is no value" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "{\"dt\": "])
    def test_config_file_that_is_no_json_object_rejected(self, text,
                                                         tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        with pytest.raises(SystemExit, match="cfg.json"):
            run_cli(["estimate", "--config", str(cfg)])

    def test_config_values_parse_like_flags(self, tmp_path, monkeypatch,
                                            capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({"nx": "4", "ny": 2, "dt": "0.5",
                                   "problem": "calvo", "out": str(out)}))
        assert run_cli(["estimate", "--config", str(cfg)]) == 0
        assert (out / "report.json").is_file()
        monkeypatch.setattr(gark.cli, "estimate_errors", None)
        for bad, named in (({"nx": "x"}, "argument --nx: invalid int"),
                           ({"nx": 2.5}, "argument --nx: invalid int"),
                           ({"problem": "heat"},
                            "argument --problem: invalid choice: 'heat'")):
            cfg.write_text(json.dumps(bad))
            with pytest.raises(SystemExit) as exit_info:
                run_cli(["estimate", "--config", str(cfg)])
            assert exit_info.value.code == 2
            assert named in capsys.readouterr().err

    # one good and (where the type rejects any) one bad value per option
    OPTION_VALUES = {
        "problem": ("bsvd", "heat"), "nx": (4, "x"), "ny": (3, 2.5),
        "dt": (0.05, "fast"), "t-final": (2.0, "never"),
        "gamma": (0.2928932188134524, "g"), "alpha": (-0.5, "a"),
        "out": ("some/dir", None), "levels": (3, "3.5"),
        "ref-exponent": (6, "x"), "stages": (2, "two"), "seed": (7, "x"),
    }

    @pytest.mark.parametrize("command", ["converge", "estimate", "refine",
                                         "oracle-check"])
    def test_flags_and_config_entries_parse_alike(self, command, tmp_path,
                                                  capsys):
        with pytest.raises(SystemExit):
            parse_args([command, "--help"])
        options = set(re.findall(r"--([a-z][a-z-]*)",
                                 capsys.readouterr().out))
        assert options - {"help", "config"} <= set(self.OPTION_VALUES)
        cfg = tmp_path / "cfg.json"
        for option in sorted(options - {"help", "config"}):
            good, bad = self.OPTION_VALUES[option]
            # config keys may spell the flag's dashes as underscores
            cfg.write_text(json.dumps({option.replace("-", "_"): good}))
            by_flag = vars(parse_args([command, f"--{option}", str(good)]))
            by_config = vars(parse_args([command, "--config", str(cfg)]))
            assert (by_flag.pop("config"), by_config.pop("config")) \
                == (None, cfg)
            assert by_config == by_flag, option
            if bad is None:
                continue
            cfg.write_text(json.dumps({option: bad}))
            failures = []
            for argv in ([command, f"--{option}", str(bad)],
                         [command, "--config", str(cfg)]):
                with pytest.raises(SystemExit) as exit_info:
                    parse_args(argv)
                failures.append((exit_info.value.code,
                                 capsys.readouterr().err))
            assert failures[0] == failures[1], option
            assert failures[0][0] == 2
            assert f"argument --{option}: invalid" in failures[0][1]

    @pytest.mark.parametrize("command", ["converge", "estimate", "refine"])
    def test_seed_is_an_oracle_check_flag_only(self, command, tmp_path,
                                               capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, "--seed", "1", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err

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
        monkeypatch.setattr(gark.cli, "integrate", None)
        monkeypatch.setattr(gark.cli, "estimate_errors", None)
        monkeypatch.setattr(gark.cli, "run_campaign", None)
        with pytest.raises(SystemExit, match=f"^{message}$"):
            run_cli([command, "--problem", "bsvd", "--nx", "4", "--ny", "4",
                     "--dt", "0.1", "--out", str(tmp_path), *flags])
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["converge", "estimate", "refine"])
    @pytest.mark.parametrize("flag", ["--nx", "--ny"])
    def test_calvo_needs_two_cells_a_side(self, command, flag, tmp_path,
                                          monkeypatch):
        # calvo's Dirichlet edges leave one cell between them no unknowns
        monkeypatch.setattr(gark.cli, "integrate", None)
        monkeypatch.setattr(gark.cli, "estimate_errors", None)
        monkeypatch.setattr(gark.cli, "run_campaign", None)
        with pytest.raises(SystemExit, match=f"^{flag} must be at least 2, "
                                             "not 1$"):
            run_cli([command, "--problem", "calvo", "--nx", "4", "--ny", "2",
                     "--out", str(tmp_path), flag, "1"])
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["converge", "estimate", "refine"])
    @pytest.mark.parametrize("flags, message", [
        (["--gamma", "0.5"], GAMMA_REFUSED),
        (["--alpha", "0"], "--alpha: alpha must be nonzero"),
        # GAMMA_MINUS + 1e-12 leaves b . c 1.4e-12 off 1/2
        (["--gamma", "0.2928932188144524"], GAMMA_REFUSED),
        (["--gamma", "nan"], GAMMA_REFUSED),
        (["--gamma", "inf"], GAMMA_REFUSED),
        (["--alpha", "nan"], "--alpha: alpha must be nonzero and finite"),
        (["--alpha", "inf"], "--alpha: alpha must be nonzero and finite"),
        (["--alpha", "1e17"], "--alpha: the pair fails validate(): "
         "weight-sum")],
        ids=["gamma", "alpha", "gamma_near_root", "gamma_nan", "gamma_inf",
             "alpha_nan", "alpha_inf", "alpha_huge"])
    def test_bad_tableau_flags_are_named_before_any_run(self, command, flags,
                                                        message, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(gark.cli, "integrate", None)
        monkeypatch.setattr(gark.cli, "estimate_errors", None)
        monkeypatch.setattr(gark.cli, "run_campaign", None)
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, "--problem", "calvo", "--nx", "4", "--ny", "2",
                     "--out", str(tmp_path), *flags])
        assert str(exit_info.value.code).startswith(message)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("entry, named", [
        ({"gamma": 0.5}, "--gamma must be"), ({"alpha": 0}, "--alpha:")])
    def test_tableau_checks_read_the_config_file(self, entry, named,
                                                 tmp_path, monkeypatch):
        monkeypatch.setattr(gark.cli, "estimate_errors", None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        with pytest.raises(SystemExit, match=f"^{named}"):
            run_cli(["estimate", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--out", str(tmp_path / "out"), "--config",
                     str(cfg)])

    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().replace("\\\n", " ").splitlines()
        commands = [line.split()[3:] for line in lines
                    if line.startswith("python3 -m gark.cli ")]
        assert len(commands) == 4
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {argv}")

    def test_every_export_resolves(self):
        # a stale name in __all__ breaks only `from gark import *`
        assert [name for name in gark.__all__ if not hasattr(gark, name)] \
            == []

    def test_no_module_imports_a_name_it_never_uses(self):
        # an import inside a function must be used in that function
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
                                   if isinstance(node, ast.Name)}
                unused += [
                    f"{path.name}:{node.lineno} {name}"
                    for node in nodes
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for name in (alias.asname or alias.name.split(".")[0]
                                 for alias in node.names)
                    if name not in used]
        assert unused == []

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
        # solve or solve_transposed, and the adjoint sweep asks itself
        trans, letters, transposed = set(), set(), set()

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
                        and child.attr == "solve_transposed":
                    transposed.add(scope)
                visit(child, f"{scope}.{child.name}"
                      if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                      else scope)

        for path in sorted(Path(gark.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), path.stem)
        assert trans == {"forward.SuperLUStageSolver.solve"}
        assert letters == set()
        assert transposed == {"adjoint.adjoint_sweep"}

    def test_module_entry_point(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "converge" in proc.stdout
