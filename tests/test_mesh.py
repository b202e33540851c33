import json

import numpy as np
import pytest

from gark.adaptivity import RefinementConfig, run_campaign
from gark.cli import main
from gark.mesh import (GridTransfer, TensorGrid2D, TimeGrid, TransferError,
                       trapezoid_weights)
from gark.systems import build_problem, default_grid
from gark.tableau import build_imex22
from helpers import assert_bitwise, loop_bisect, loop_transfer, nested_grids


@pytest.fixture(scope="module")
def written_grids(tmp_path_factory):
    """(grid file, stage record) pairs: the files `gark refine` writes and
    the records of the same campaign run in memory."""
    out = tmp_path_factory.mktemp("refine")
    # thirds of the unit square: coordinates that no short decimal holds
    assert main(["refine", "--problem", "bsvd", "--nx", "3", "--ny", "3",
                 "--dt", "0.05", "--t-final", "0.3", "--stages", "2",
                 "--out", str(out)]) == 0
    problem = build_problem("bsvd", default_grid("bsvd", 3, 3), t_final=0.3)
    campaign = run_campaign(problem, build_imex22(),
                            TimeGrid.uniform(0.0, 0.3, 0.05),
                            RefinementConfig(num_stages=2))
    files = [json.loads((out / "grids" / f"stage-{k}.json").read_text())
             for k in range(2)]
    return list(zip(files, campaign.records, strict=True))


class TestTimeGrid:
    def test_uniform_nodes(self):
        g = TimeGrid.uniform(0.0, 1.5, 0.15)
        assert g.num_steps == 10
        assert g.nodes[-1] == 1.5
        np.testing.assert_allclose(g.steps, 0.15, rtol=1e-12)

    def test_uniform_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            TimeGrid.uniform(0.0, 1.0, 0.3)

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
    def test_uniform_rejects_non_positive_step(self, dt):
        with pytest.raises(ValueError, match="positive"):
            TimeGrid.uniform(0.0, 1.0, dt)

    @pytest.mark.parametrize("t0, t_final", [
        (0.0, float("inf")), (0.0, float("nan")), (float("-inf"), 1.0)])
    def test_uniform_rejects_non_finite_interval(self, t0, t_final):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid.uniform(t0, t_final, 0.1)

    @pytest.mark.parametrize("t_final, dt", [(1e300, 1e-10), (1.0, 1e-320),
                                             (1.0, 1e-300)])
    def test_uniform_rejects_a_step_count_that_overflows(self, t_final, dt):
        # (t_final - t0) / dt is infinite or beyond numpy's largest array,
        # so no node array is attempted
        with pytest.raises(ValueError, match=f"dt={dt}"):
            TimeGrid.uniform(0.0, t_final, dt)

    def test_halve_all_steps_uniform(self):
        g = TimeGrid(np.array([0.0, 1.0])).halve_all_steps()
        np.testing.assert_array_equal(g.nodes, [0.0, 0.5, 1.0])

    def test_halve_all_steps_nonuniform(self):
        g = TimeGrid(np.array([0.0, 0.4, 1.0])).halve_all_steps()
        np.testing.assert_array_equal(g.nodes, [0.0, 0.2, 0.4, 0.7, 1.0])

    def test_halve_preserves_parents_bitwise(self):
        base = TimeGrid.uniform(0.0, 7.0, 0.02)
        fine = base.halve_all_steps()
        assert fine.num_steps == 2 * base.num_steps
        np.testing.assert_array_equal(fine.nodes[::2], base.nodes)
        np.testing.assert_allclose(fine.steps, 0.01, rtol=1e-12)

    def test_halve_marked(self):
        g = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0]))
        out = g.halve_marked({1})
        np.testing.assert_array_equal(out.nodes, [0.0, 1.0, 1.5, 2.0, 3.0])
        out = g.halve_marked(set())
        np.testing.assert_array_equal(out.nodes, g.nodes)
        with pytest.raises(ValueError):
            g.halve_marked({3})

    def test_halve_marked_all_equals_halve_all_steps(self):
        g = TimeGrid(np.array([0.0, 0.1, 0.35, 0.4, 1.0 / 3.0 + 0.7]))
        assert_bitwise(g.halve_marked(range(g.num_steps)).nodes,
                       g.halve_all_steps().nodes)

    def test_steps_are_computed_once_and_frozen(self):
        g = TimeGrid(np.array([0.0, 0.1, 0.3, 0.7]))
        assert g.steps is g.steps
        np.testing.assert_array_equal(g.steps, np.diff(g.nodes))
        with pytest.raises(ValueError):
            g.steps[0] = 1.0

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.4]))

    def test_json_round_trip(self, written_grids):
        for written, record in written_grids:
            assert written["time"].keys() == {"kind", "nodes"}
            assert written["time"]["kind"] == "time_grid"
            assert_bitwise(written["time"]["nodes"], record.time_grid.nodes)


class TestTensorGrid2D:
    def test_unknown_counts(self):
        dirich = TensorGrid2D.uniform(0, 1, 4, 0, 1, 4, "dirichlet")
        assert dirich.num_unknowns == 9
        neum = TensorGrid2D.uniform(0, 1, 4, 0, 1, 4, "neumann")
        assert neum.num_unknowns == 25

    def test_unknown_count_is_computed_once(self, monkeypatch):
        # restrict_state reads fine.num_unknowns on every call, so the count
        # must not rebuild the node mask each time it is read
        coarse = TensorGrid2D.uniform(0, 1, 3, 0, 1, 2, "dirichlet")
        tr = GridTransfer.between(coarse.refine_uniform(), coarse)
        masks = []
        mask = TensorGrid2D.unknown_mask
        monkeypatch.setattr(TensorGrid2D, "unknown_mask",
                            lambda g: masks.append(g) or mask(g))
        expected = int(mask(tr.fine).sum())
        assert [tr.fine.num_unknowns for _ in range(3)] == [expected] * 3
        state = np.ones(2 * expected)
        for _ in range(3):
            tr.restrict_state(state)
        assert masks == [tr.fine]
        # the cached count leaves the grid frozen
        with pytest.raises(AttributeError):
            tr.fine.num_unknowns = expected + 1
        assert tr.fine.num_unknowns == expected

    @pytest.mark.parametrize("bc", [
        {"left": "dirichlet", "right": "dirichlet",
         "bottom": "dirichlet", "top": "dirichlet"},
        "robin"], ids=["per-edge", "robin"])
    def test_one_known_tag_for_all_edges(self, bc):
        with pytest.raises(ValueError, match="one tag for all edges"):
            TensorGrid2D.uniform(0, 1, 2, 0, 1, 2, bc)

    def test_unknown_ordering_row_major(self):
        g = TensorGrid2D.uniform(0, 1, 2, 0, 1, 2, "neumann")
        coords = g.unknown_coords()
        # y varies slowest, x fastest
        np.testing.assert_allclose(coords[0], [0.0, 0.0])
        np.testing.assert_allclose(coords[1], [0.5, 0.0])
        np.testing.assert_allclose(coords[3], [0.0, 0.5])

    def test_scatter_gather_round_trip(self):
        g = TensorGrid2D.uniform(0, 1, 3, 0, 1, 2, "dirichlet")
        v = np.arange(g.num_unknowns, dtype=float) + 1.0
        nodal = g.scatter(v)
        assert nodal.shape == g.node_shape
        assert nodal[0, 0] == 0.0
        np.testing.assert_array_equal(nodal[g.unknown_mask()], v)

    def test_quadrature_constant_neumann(self):
        g = TensorGrid2D.uniform(0, 1, 5, 0, 1, 7, "neumann")
        w = g.quadrature_weights()
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert w @ np.ones(g.num_unknowns) == pytest.approx(1.0, abs=1e-14)

    def test_trapezoid_weights_nonuniform(self):
        w = trapezoid_weights(np.array([0.0, 0.2, 1.0]))
        np.testing.assert_allclose(w, [0.1, 0.5, 0.4], rtol=1e-14)

    def test_refine_uniform_coords(self):
        g = TensorGrid2D(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0]),
                         "neumann")
        f = g.refine_uniform()
        np.testing.assert_array_equal(f.xs, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_array_equal(f.ys, [0.0, 1.0, 2.0])
        # parents survive bitwise
        np.testing.assert_array_equal(f.xs[::2], g.xs)

    def test_refine_marked_single_cell(self):
        g = TensorGrid2D.uniform(0, 4, 4, 0, 4, 4, "neumann")
        f = g.refine_marked({(1, 2)})
        np.testing.assert_array_equal(f.xs, [0, 1, 1.5, 2, 3, 4])
        np.testing.assert_array_equal(f.ys, [0, 1, 2, 2.5, 3, 4])

    def test_refine_marked_shared_line_bisected_once(self):
        g = TensorGrid2D.uniform(0, 4, 4, 0, 4, 4, "neumann")
        f = g.refine_marked({(1, 0), (1, 3)})
        assert len(f.xs) == len(g.xs) + 1
        assert len(f.ys) == len(g.ys) + 2

    def test_refine_marked_all_equals_uniform(self):
        g = TensorGrid2D(np.array([0.0, 0.1, 0.35, 1.0]),
                         np.array([0.0, 1.0 / 3.0, 1.0]), "dirichlet")
        all_cells = {(ix, iy) for ix in range(3) for iy in range(2)}
        assert_bitwise(g.refine_marked(all_cells).xs, g.refine_uniform().xs)
        assert_bitwise(g.refine_marked(all_cells).ys, g.refine_uniform().ys)

    def test_refine_marked_rejects_out_of_range(self):
        g = TensorGrid2D.uniform(0, 1, 2, 0, 1, 2, "neumann")
        with pytest.raises(ValueError):
            g.refine_marked({(2, 0)})

    def test_json_round_trip(self, written_grids):
        for written, record in written_grids:
            space = written["space"]
            assert space.keys() == {"kind", "xs", "ys", "bc"}
            assert space["kind"] == "tensor_grid"
            assert_bitwise(space["xs"], record.space_grid.xs)
            assert_bitwise(space["ys"], record.space_grid.ys)
            assert space["bc"] == record.space_grid.bc == "neumann"


def test_every_refinement_matches_the_interval_loop_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(50):
        xs, ys, ts = (np.cumsum(rng.uniform(0.01, 1.0, rng.integers(2, 12)))
                      for _ in range(3))
        g, t = TensorGrid2D(xs, ys, "neumann"), TimeGrid(ts)
        cells = {(int(rng.integers(len(xs) - 1)),
                  int(rng.integers(len(ys) - 1)))
                 for _ in range(rng.integers(0, 6))}
        steps = set(rng.integers(0, t.num_steps, rng.integers(0, 6)).tolist())
        assert_bitwise(g.refine_marked(cells).xs,
                       loop_bisect(xs, {ix for ix, _ in cells}))
        assert_bitwise(g.refine_marked(cells).ys,
                       loop_bisect(ys, {iy for _, iy in cells}))
        assert_bitwise(g.refine_uniform().xs, loop_bisect(xs, range(len(xs))))
        assert_bitwise(t.halve_marked(steps).nodes, loop_bisect(ts, steps))
        assert_bitwise(t.halve_all_steps().nodes,
                       loop_bisect(ts, range(len(ts))))


class TestGridTransfer:
    @pytest.mark.parametrize("bc, refine", [
        ("dirichlet", TensorGrid2D.refine_uniform),
        ("neumann", TensorGrid2D.refine_uniform),
        ("neumann", lambda g: g.refine_marked({(0, 0), (2, 3)}))],
        ids=["dirichlet", "neumann", "refine_marked"])
    def test_injection_matches_coordinate_oracle(self, bc, refine):
        rng = np.random.default_rng(7)
        coarse = TensorGrid2D.uniform(-1, 3, 5, -1, 1, 4, bc)
        fine = refine(coarse)
        tr = GridTransfer.between(fine, coarse)
        v = rng.standard_normal(fine.num_unknowns)

        # brute-force oracle: match unknown coordinates one by one
        fc, cc = fine.unknown_coords(), coarse.unknown_coords()
        expected = np.empty(coarse.num_unknowns)
        for k, (x, y) in enumerate(cc):
            hit = np.where((np.abs(fc[:, 0] - x) < 1e-12)
                           & (np.abs(fc[:, 1] - y) < 1e-12))[0]
            assert hit.size == 1
            expected[k] = v[hit[0]]
        np.testing.assert_array_equal(tr.restrict(v), expected)

    def test_restrict_preserves_constant(self):
        coarse = TensorGrid2D.uniform(0, 1, 2, 0, 1, 2, "neumann")
        fine = coarse.refine_uniform()
        tr = GridTransfer.between(fine, coarse)
        np.testing.assert_allclose(tr.restrict(np.ones(fine.num_unknowns)),
                                   1.0, rtol=1e-15)

    def test_non_nested_grids_rejected(self):
        coarse = TensorGrid2D.uniform(0, 1, 3, 0, 1, 3, "neumann")
        other = TensorGrid2D.uniform(0, 1, 4, 0, 1, 4, "neumann")
        with pytest.raises(TransferError):
            GridTransfer.between(other, coarse)

    def test_mismatched_bc_rejected(self):
        coarse = TensorGrid2D.uniform(0, 1, 2, 0, 1, 2, "neumann")
        fine = TensorGrid2D.uniform(0, 1, 4, 0, 1, 4, "dirichlet")
        with pytest.raises(TransferError):
            GridTransfer.between(fine, coarse)

    @pytest.mark.parametrize("name", ["calvo", "gray_scott", "bsvd"])
    def test_matches_node_loop_bitwise(self, name):
        base, once, twice = nested_grids(name)
        for fine, coarse in ((once, base), (twice, once), (twice, base)):
            tr = GridTransfer.between(fine, coarse)
            restriction = loop_transfer(fine, coarse)
            # one unit entry per row: the injection is its column indices
            np.testing.assert_array_equal(restriction.indptr,
                                          np.arange(coarse.num_unknowns + 1))
            np.testing.assert_array_equal(restriction.data, 1.0)
            np.testing.assert_array_equal(tr.injection, restriction.indices)

    @pytest.mark.parametrize("name", ["calvo", "gray_scott", "bsvd"])
    def test_restrict_equals_the_sparse_product_bitwise(self, name):
        # injection by index, signed zeros included
        base, once, twice = nested_grids(name)
        rng = np.random.default_rng(5)
        for fine, coarse in ((once, base), (twice, once), (twice, base)):
            tr = GridTransfer.between(fine, coarse)
            restriction = loop_transfer(fine, coarse)
            v = rng.standard_normal((2, fine.num_unknowns))
            v[:, ::3] = -0.0
            for rows in (v[0], v):
                got = tr.restrict(rows)
                want = (restriction @ rows.T).T
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got),
                                              np.signbit(want))

    def test_species_stacked_state(self):
        # the species count comes from the state's length
        coarse = TensorGrid2D.uniform(0, 1, 2, 0, 1, 2, "neumann")
        fine = coarse.refine_uniform()
        tr = GridTransfer.between(fine, coarse)
        n_f = fine.num_unknowns
        rng = np.random.default_rng(3)
        for species in (1, 2, 3):
            state = rng.standard_normal(species * n_f)
            each = np.concatenate([tr.restrict(part)
                                   for part in state.reshape(species, n_f)])
            assert_bitwise(tr.restrict_state(state), each)

    def test_state_length_off_the_fine_unknowns_rejected(self):
        coarse = TensorGrid2D.uniform(0, 1, 3, 0, 1, 2, "dirichlet")
        tr = GridTransfer.between(coarse.refine_uniform(), coarse)
        n_f = tr.fine.num_unknowns
        for length in (n_f - 1, n_f + 1, 2 * n_f + 3):
            with pytest.raises(ValueError, match="reshape"):
                tr.restrict_state(np.ones(length))
