import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gark
import gark.adaptivity
import gark.cli
from gark.cli import main
from gark.systems import PROBLEM_BUILDERS


def run_cli(argv):
    return main(argv)


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
        with pytest.raises(ValueError, match="dt=0.0 must be positive"):
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

    @pytest.mark.parametrize("flags, named", [
        (["--space-pct", "150"], "--space-pct"),
        (["--space-pct", "-1"], "--space-pct"),
        (["--time-pct", "100.5"], "--time-pct"),
        (["--stages", "0"], "--stages")])
    def test_bad_marking_flags_fail_before_any_run(self, flags, named,
                                                   tmp_path, monkeypatch):
        monkeypatch.setattr(gark.cli, "run_campaign", None)  # never reached
        with pytest.raises(SystemExit, match=f"^{named} must"):
            run_cli(["refine", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--out", str(tmp_path), *flags])
        assert not (tmp_path / "campaign.jsonl").exists()

    def test_marking_checks_read_the_config_file(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(gark.cli, "run_campaign", None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space-pct": 150}))
        with pytest.raises(SystemExit, match="^--space-pct must"):
            run_cli(["refine", "--problem", "calvo", "--nx", "4", "--ny",
                     "2", "--out", str(tmp_path), "--config", str(cfg)])

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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"step_size": 0.1}))
        with pytest.raises(SystemExit, match="step_size"):
            run_cli(["estimate", "--config", str(cfg)])

    def test_config_key_of_no_option_rejected(self, tmp_path):
        # "command" is a namespace attribute but no option of estimate
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "converge"}))
        with pytest.raises(SystemExit, match="'command' is not a known"):
            run_cli(["estimate", "--config", str(cfg)])

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "{\"dt\": "])
    def test_config_file_that_is_no_json_object_rejected(self, text,
                                                         tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        with pytest.raises(SystemExit, match="cfg.json"):
            run_cli(["estimate", "--config", str(cfg)])

    def test_config_values_parse_like_flags(self, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({"nx": "4", "ny": 2, "dt": "0.5",
                                   "problem": "calvo", "out": str(out)}))
        assert run_cli(["estimate", "--config", str(cfg)]) == 0
        assert (out / "report.json").is_file()
        for bad in ({"nx": "x"}, {"nx": 2.5}, {"problem": "heat"}):
            cfg.write_text(json.dumps(bad))
            key = next(iter(bad))
            with pytest.raises(SystemExit, match=f"config key '{key}'"):
                run_cli(["estimate", "--config", str(cfg)])

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

    def test_every_export_resolves(self):
        # a stale name in __all__ breaks only `from gark import *`
        assert [name for name in gark.__all__ if not hasattr(gark, name)] \
            == []

    def test_module_entry_point(self):
        # the child imports the same gark as this process, installed or not
        src = str(Path(gark.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "gark.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "converge" in proc.stdout
