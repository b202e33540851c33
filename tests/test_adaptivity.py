import json
import math

import numpy as np
import pytest

from gark.adaptivity import (RefinementConfig, mark_percentile,
                             refine_stage, run_campaign)
from gark.mesh import TimeGrid
from gark.systems import build_problem, default_grid, make_calvo
from gark.tableau import build_imex22
from helpers import assert_bitwise


def brute_mark(values, pct):
    mags = np.abs(np.asarray(values, dtype=float)).ravel()
    order = np.sort(mags)
    rank = max(1, math.ceil(pct / 100.0 * mags.size))
    thr = order[rank - 1]
    if thr == 0.0:
        return np.abs(values) > 0.0
    return np.abs(values) >= thr


class TestMarking:
    def test_ninetieth_percentile_of_ten_values(self):
        values = np.arange(1.0, 11.0)
        mask = mark_percentile(values, 90.0)
        assert list(np.nonzero(mask)[0]) == [8, 9]

    def test_tiny_percentile_marks_everything_nonzero(self):
        values = np.array([0.5, -2.0, 1.0])
        assert mark_percentile(values, 1e-9).all()

    def test_full_percentile_marks_only_the_largest(self):
        values = np.array([1.0, -3.0, 2.0])
        assert list(np.nonzero(mark_percentile(values, 100.0))[0]) == [1]

    def test_equal_values_all_marked(self):
        values = np.full(7, 3.3)
        assert mark_percentile(values, 90.0).all()

    def test_zero_field_marks_nothing(self):
        assert not mark_percentile(np.zeros(9), 80.0).any()

    def test_ties_at_threshold_included(self):
        values = np.array([1.0, 2.0, 2.0, 2.0, 5.0])
        mask = mark_percentile(values, 60.0)
        assert list(np.nonzero(mask)[0]) == [1, 2, 3, 4]

    def test_sign_is_ignored(self):
        values = np.array([-10.0, 1.0, 2.0])
        mask = mark_percentile(values, 90.0)
        assert list(np.nonzero(mask)[0]) == [0]

    def test_two_dimensional_input_keeps_shape(self):
        values = np.array([[0.0, 4.0], [1.0, 3.0]])
        mask = mark_percentile(values, 75.0)
        assert mask.shape == (2, 2)
        assert mask[0, 1] and mask[1, 1]

    @pytest.mark.parametrize("pct", [5.0, 33.0, 50.0, 80.0, 97.0])
    def test_matches_brute_nearest_rank(self, pct):
        rng = np.random.default_rng(int(pct))
        values = rng.standard_normal(40)
        np.testing.assert_array_equal(mark_percentile(values, pct),
                                      brute_mark(values, pct))

    def test_percentile_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            mark_percentile(np.ones(3), 101.0)


class TestConfig:
    def test_stage_count_validated(self):
        with pytest.raises(ValueError, match="stage"):
            RefinementConfig(num_stages=0)

    @pytest.mark.parametrize("name, value", [
        ("space_percentile", 150.0), ("space_percentile", -1.0),
        ("time_percentile", 100.5), ("time_percentile", float("nan"))])
    def test_percentiles_validated(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            RefinementConfig(**{name: value})


class TestRefineStage:
    def make_record(self, **kwargs):
        problem = make_calvo(default_grid("calvo", 8, 4))
        return refine_stage(problem, build_imex22(),
                            TimeGrid.uniform(0.0, 1.5, 0.15), **kwargs)

    def test_record_structure(self):
        record = self.make_record()
        assert record.stage == 0
        assert record.marked_cells
        assert record.marked_steps
        assert all(0 <= ix < 8 and 0 <= iy < 4
                   for ix, iy in record.marked_cells)
        assert all(0 <= n < 10 for n in record.marked_steps)

    def test_next_grids_are_nested_refinements(self):
        record = self.make_record()
        xs = record.space_grid.xs
        assert set(np.round(xs, 12)).issubset(
            set(np.round(record.next_space_grid.xs, 12)))
        # refinement never moves a node, so inclusion holds bitwise
        assert set(record.time_grid.nodes) <= set(record.next_time_grid.nodes)
        assert record.next_time_grid.num_steps > record.time_grid.num_steps

    def test_symmetric_problem_marks_symmetrically(self):
        # the manufactured field is even in y about the domain midline, so
        # the marked cell set must be invariant under the vertical flip
        record = self.make_record()
        _, ny = record.space_grid.num_cells
        flipped = {(ix, ny - 1 - iy) for ix, iy in record.marked_cells}
        assert flipped == record.marked_cells

    def test_percentile_extremes_control_mark_counts(self):
        all_marked = self.make_record(
            cfg=RefinementConfig(space_percentile=1e-12,
                                 time_percentile=1e-12))
        assert len(all_marked.marked_steps) == 10
        assert len(all_marked.marked_cells) == 32
        sparse = self.make_record(
            cfg=RefinementConfig(space_percentile=100.0,
                                 time_percentile=100.0))
        assert len(sparse.marked_steps) < len(all_marked.marked_steps)
        assert len(sparse.marked_cells) < len(all_marked.marked_cells)


class TestCampaign:
    def test_single_stage_equals_refine_stage(self):
        problem = make_calvo(default_grid("calvo", 8, 4))
        grid = TimeGrid.uniform(0.0, 1.5, 0.15)
        campaign = run_campaign(problem, build_imex22(), grid,
                                RefinementConfig(num_stages=1))
        direct = refine_stage(problem, build_imex22(), grid)
        assert campaign.final_record.report.e_total \
            == direct.report.e_total
        assert campaign.final_record.marked_cells == direct.marked_cells

    def test_two_stage_bsvd_campaign_shrinks_reference_error(self):
        problem = build_problem("bsvd", default_grid("bsvd", 8, 8),
                                t_final=1.0)
        campaign = run_campaign(problem, build_imex22(),
                                TimeGrid.uniform(0.0, 1.0, 0.1),
                                RefinementConfig(num_stages=2))
        first, second = campaign.records
        assert second.space_grid.num_unknowns > \
            first.space_grid.num_unknowns
        assert abs(second.report.e_ref) < abs(first.report.e_ref)

    def test_campaign_logs(self, tmp_path):
        problem = make_calvo(default_grid("calvo", 8, 4))
        campaign = run_campaign(problem, build_imex22(),
                                TimeGrid.uniform(0.0, 1.5, 0.15),
                                RefinementConfig(num_stages=2),
                                out_dir=tmp_path)
        lines = (tmp_path / "campaign.jsonl").read_text().splitlines()
        assert len(lines) == 2
        entries = [json.loads(line) for line in lines]
        assert entries[0]["stage"] == 0
        assert entries[1]["num_cells"][0] > entries[0]["num_cells"][0]
        for entry, record in zip(entries, campaign.records, strict=True):
            assert list(entry) == [
                "stage", "num_cells", "num_unknowns", "num_steps", "psi_num",
                "psi_ref", "e_ref", "e_temporal", "e_spatial", "e_total",
                "accuracy", "marked_cells", "marked_steps"]
            for name in ("psi_num", "psi_ref", "e_ref", "e_temporal",
                         "e_spatial", "e_total", "accuracy"):
                assert_bitwise(entry[name], getattr(record.report, name))
            cells = entry["num_cells"]
            # calvo's Dirichlet sides hold no unknowns
            assert entry["num_unknowns"] == (cells[0] - 1) * (cells[1] - 1)
        assert entries[1]["num_unknowns"] > entries[0]["num_unknowns"]
        for stage in (0, 1):
            payload = json.loads(
                (tmp_path / "grids" / f"stage-{stage}.json").read_text())
            assert payload["space"]["kind"] == "tensor_grid"
            assert payload["time"]["kind"] == "time_grid"

    def test_rerun_with_fewer_stages_leaves_only_its_grid_files(self,
                                                                tmp_path):
        problem = make_calvo(default_grid("calvo", 8, 4))
        grid = TimeGrid.uniform(0.0, 1.5, 0.15)
        for stages in (3, 1):
            run_campaign(problem, build_imex22(), grid,
                         RefinementConfig(num_stages=stages),
                         out_dir=tmp_path)
        assert len((tmp_path / "campaign.jsonl").read_text()
                   .splitlines()) == 1
        assert sorted(p.name for p in (tmp_path / "grids").iterdir()) \
            == ["stage-0.json"]
