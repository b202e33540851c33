import csv
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from helpers import (assert_bitwise, at_coarse_nodes, linear_pair,
                     nonlinear_stiff, scalar_split, stored_estimate, wrap)

from gark.adjoint import adjoint_sweep
from gark.cli import main
from gark.estimation import (RestrictedRun, assemble_report, estimate_errors,
                             spatial_residuals, temporal_residuals)
from gark.forward import integrate
from gark.mesh import GridTransfer, TensorGrid2D, TimeGrid
from gark.systems import (Partition, ProblemInstance, SplitOdeSystem,
                          build_problem, default_grid, discretize_laplacian,
                          integral_goal, make_calvo, rebuild_on)
from gark.tableau import build_imex22


def explicit_growth(z: float) -> float:
    return 1.0 + z + z * z / 2.0


def linear_heat(grid: TensorGrid2D) -> ProblemInstance:
    """Diffusion plus linear decay; every stage solve is exact."""
    lap = (0.05 * discretize_laplacian(grid)).tocsr()
    n = grid.num_unknowns
    coords = grid.unknown_coords()
    y0 = np.sin(np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1])
    eye = sp.identity(n, format="csr")
    parts = (
        Partition(name="diffusion", rhs=lambda t, y: lap @ y,
                  jacobian=lambda t, y: lap, linear=True, stiff=True),
        Partition(name="decay", rhs=lambda t, y: -0.3 * y + 0.2,
                  jacobian=lambda t, y: (-0.3 * eye).tocsr(), linear=True),
    )
    system = SplitOdeSystem(dim=n, partitions=parts)
    return ProblemInstance(name="linear_heat", system=system, grid=grid,
                           y0=y0, t0=0.0, t_final=0.4,
                           goal=integral_goal(grid))


def pointwise_problem(grid: TensorGrid2D) -> ProblemInstance:
    """Uncoupled per-node dynamics; restriction commutes with the rhs."""
    n = grid.num_unknowns
    eye = sp.identity(n, format="csr")
    coords = grid.unknown_coords()
    y0 = 1.5 + np.sin(coords[:, 0]) * np.cos(coords[:, 1])
    parts = (
        Partition(name="decay", rhs=lambda t, y: -y,
                  jacobian=lambda t, y: -eye, linear=True, stiff=True),
        Partition(name="wave", rhs=lambda t, y: np.sin(y),
                  jacobian=lambda t, y: sp.diags(np.cos(y)).tocsr()),
    )
    system = SplitOdeSystem(dim=n, partitions=parts)
    return ProblemInstance(name="pointwise", system=system, grid=grid,
                           y0=y0, t0=0.0, t_final=0.3,
                           goal=integral_goal(grid))


def restricted(coarse, fine_problem, transfer, time_grid=None):
    """fine_problem run on time_grid (default: the coarse run's), restricted
    step by step onto the coarse space grid."""
    run = RestrictedRun(coarse, transfer)
    integrate(fine_problem, build_imex22(), time_grid or coarse.time_grid,
              consumer=run)
    return run


class TestTemporalResiduals:
    def test_self_reference_vanishes_bitwise(self):
        problem = wrap(nonlinear_stiff(), np.full(4, 0.4), t_final=0.3)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.3, 0.05))
        res = temporal_residuals(traj, traj.states)
        assert np.all(res == 0.0)

    def test_exact_reference_gives_truncation_defect(self):
        lam, dt, y0 = -0.8, 0.25, 2.0
        problem = wrap(scalar_split(lam, 0.0), [y0], t_final=1.0)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.0, dt))
        exact = y0 * np.exp(lam * traj.time_grid.nodes)
        res = temporal_residuals(traj, exact[:, None])
        z = lam * dt
        for n in range(traj.num_steps):
            x_prev = y0 * np.exp(lam * dt * n)
            expected = (np.exp(z) - explicit_growth(z)) * x_prev
            np.testing.assert_allclose(res[n, 0], expected, rtol=1e-12)

    def test_residual_norm_decays_at_third_order(self):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.4)
        fine = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.4, 0.005 / 16))
        norms, dts = [], [0.02, 0.01, 0.005]
        for dt in dts:
            traj = integrate(problem, build_imex22(),
                             TimeGrid.uniform(0.0, 0.4, dt))
            res = temporal_residuals(traj,
                                     at_coarse_nodes(fine, traj.time_grid))
            norms.append(np.max(np.linalg.norm(res, axis=1)))
        slope = np.polyfit(np.log(dts), np.log(norms), 1)[0]
        assert 2.7 <= slope <= 3.3

    def test_dimension_mismatch_rejected(self):
        problem = wrap(scalar_split(-1.0, 0.0), [1.0], t_final=0.2)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.2, 0.05))
        for bad in (np.zeros((5, 3)), np.zeros((4, 1)), np.zeros(5)):
            with pytest.raises(ValueError, match="shape"):
                temporal_residuals(traj, bad)


class TestLinearTelescoping:
    def test_weighted_residual_sum_equals_goal_gap(self):
        # for a linear system and linear goal the estimate telescopes to
        # Q(reference) - Q(numerical) exactly
        system, _ = linear_pair(seed=21, dim=6)
        problem = wrap(system, np.linspace(0.5, 1.1, 6), t_final=0.8)
        grid = TimeGrid.uniform(0.0, 0.8, 0.1)
        traj = integrate(problem, build_imex22(), grid)
        fine = integrate(problem, build_imex22(),
                         grid.halve_all_steps().halve_all_steps())
        adj = adjoint_sweep(traj, method="mu")
        res = temporal_residuals(traj, at_coarse_nodes(fine, grid))
        report = assemble_report(traj, adj, res,
                                 psi_ref=problem.goal.evaluate(fine.states[-1]))
        gap = float(problem.goal.evaluate(fine.states[-1])
                    - problem.goal.evaluate(traj.states[-1]))
        np.testing.assert_allclose(report.e_temporal, gap, rtol=1e-10)
        np.testing.assert_allclose(report.e_ref, gap, rtol=1e-12)
        assert abs(report.accuracy) < 1e-9

    def test_per_step_entries_sum_to_temporal_total(self):
        system, _ = linear_pair(seed=22, dim=5)
        problem = wrap(system, np.ones(5), t_final=0.5)
        grid = TimeGrid.uniform(0.0, 0.5, 0.1)
        traj = integrate(problem, build_imex22(), grid)
        fine = integrate(problem, build_imex22(), grid.halve_all_steps())
        adj = adjoint_sweep(traj, method="mu")
        report = assemble_report(traj, adj, temporal_residuals(
            traj, at_coarse_nodes(fine, grid)))
        assert report.per_step.shape == (5,)
        np.testing.assert_allclose(np.sum(report.per_step),
                                   report.e_temporal, rtol=1e-13)


class TestSpatialResiduals:
    def test_self_consistency_on_diffusion_reaction(self):
        problem = make_calvo(default_grid("calvo", 8, 4))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.5, 0.15))
        transfer = GridTransfer.between(problem.grid, problem.grid)
        res = spatial_residuals(traj, restricted(traj, problem, transfer))
        # explicit reaction stages recombine bitwise; implicit diffusion
        # stages sit at the linear-solve round-off level
        assert np.all(res[1] == 0.0)
        scale = np.max(np.abs(traj.states))
        assert np.max(np.abs(res[0])) < 1e-10 * scale

    def test_pointwise_dynamics_commute_with_restriction(self):
        coarse = TensorGrid2D.uniform(0.0, 1.0, 4, 0.0, 1.0, 4, bc="neumann")
        fine = coarse.refine_uniform()
        grid = TimeGrid.uniform(0.0, 0.3, 0.05)
        traj_c = integrate(pointwise_problem(coarse), build_imex22(), grid)
        transfer = GridTransfer.between(fine, coarse)
        res = spatial_residuals(traj_c, restricted(
            traj_c, pointwise_problem(fine), transfer))
        scale = np.max(np.abs(traj_c.states))
        for q in range(2):
            assert np.max(np.abs(res[q])) < 1e-12 * scale

    def test_step_count_mismatch_rejected(self):
        # a longer fine run fails at its first extra step, a shorter one
        # when its missing rows would be read
        problem = make_calvo(default_grid("calvo", 8, 4))
        coarse = integrate(problem, build_imex22(),
                           TimeGrid.uniform(0.0, 1.5, 0.15))
        transfer = GridTransfer.between(problem.grid, problem.grid)
        for fine_dt in (0.075, 0.3):
            with pytest.raises(ValueError, match="time grid"):
                spatial_residuals(coarse, restricted(
                    coarse, problem, transfer,
                    TimeGrid.uniform(0.0, 1.5, fine_dt)))


class TestAssembleReport:
    def test_spatial_weighting_requires_mu(self):
        problem = make_calvo(default_grid("calvo", 8, 4))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.5, 0.15))
        adj = adjoint_sweep(traj, method="theta")
        transfer = GridTransfer.between(problem.grid, problem.grid)
        res = spatial_residuals(traj, restricted(traj, problem, transfer))
        temporal = temporal_residuals(traj, traj.states)
        with pytest.raises(ValueError, match="mu"):
            assemble_report(traj, adj, temporal, res)

    def test_reference_bookkeeping(self):
        system, _ = linear_pair(seed=4, dim=4)
        problem = wrap(system, np.ones(4), t_final=0.4)
        grid = TimeGrid.uniform(0.0, 0.4, 0.1)
        traj = integrate(problem, build_imex22(), grid)
        fine = integrate(problem, build_imex22(), grid.halve_all_steps())
        adj = adjoint_sweep(traj, method="mu")
        psi_ref = 12.5
        report = assemble_report(traj, adj, temporal_residuals(
            traj, at_coarse_nodes(fine, grid)), psi_ref=psi_ref)
        psi_num = problem.goal.evaluate(traj.states[-1])
        assert report.e_ref == psi_ref - psi_num
        assert report.accuracy == (report.e_total - report.e_ref) / report.e_ref
        assert report.e_total == report.e_temporal


class TestFourSolutionPipeline:
    def make_bundle(self):
        problem = make_calvo(default_grid("calvo", 8, 4))
        return estimate_errors(problem, build_imex22(),
                               TimeGrid.uniform(0.0, 1.5, 0.15))

    def test_report_structure(self):
        bundle = self.make_bundle()
        report = bundle.report
        assert report.partition_names == ("diffusion", "reaction")
        assert len(report.e_spatial) == 2
        assert report.per_step.shape == (10,)
        assert report.per_cell[0].shape == (4, 8)
        for value in (report.psi_num, report.psi_ref, report.e_temporal,
                      report.e_total, report.accuracy):
            assert np.isfinite(value)

    def test_linear_spatial_weighting_telescopes_exactly(self):
        # linear dynamics + linear goal: the mu-weighted stage residuals
        # sum to Q(restricted fine solution) - Q(coarse solution) exactly
        coarse = TensorGrid2D.uniform(0.0, 1.0, 6, 0.0, 1.0, 6,
                                      bc="dirichlet")
        fine = coarse.refine_uniform()
        grid = TimeGrid.uniform(0.0, 0.4, 0.1)
        traj_c = integrate(linear_heat(coarse), build_imex22(), grid)
        transfer = GridTransfer.between(fine, coarse)
        fine_run = RestrictedRun(traj_c, transfer)
        traj_f = integrate(linear_heat(fine), build_imex22(), grid,
                           consumer=fine_run)
        adj = adjoint_sweep(traj_c, method="mu")
        res = spatial_residuals(traj_c, fine_run)
        report = assemble_report(traj_c, adj,
                                 temporal_residuals(traj_c, traj_c.states),
                                 res)
        goal = traj_c.problem.goal
        gap = (goal.evaluate(transfer.restrict(traj_f.states[-1]))
               - goal.evaluate(traj_c.states[-1]))
        np.testing.assert_allclose(sum(report.e_spatial), gap, rtol=1e-9)
        assert report.e_temporal == 0.0

    def test_components_estimate_their_proxy_gaps(self):
        # E1 targets the goal gap to the time-refined run; the spatial sum
        # targets the gap to the restricted space-refined run
        bundle = self.make_bundle()
        report = bundle.report
        goal = bundle.numerical.problem.goal
        transfer = GridTransfer.between(bundle.space_refined.problem.grid,
                                        bundle.numerical.problem.grid)
        temporal_gap = (goal.evaluate(bundle.time_refined.states[-1])
                        - report.psi_num)
        spatial_gap = (goal.evaluate(
            transfer.restrict(bundle.space_refined.states[-1]))
            - report.psi_num)
        assert abs(report.e_temporal - temporal_gap) \
            <= 0.1 * abs(temporal_gap) + 1e-8
        assert abs(sum(report.e_spatial) - spatial_gap) \
            <= 0.1 * abs(spatial_gap) + 1e-8

    def test_per_cell_maps_sum_to_partition_totals(self):
        report = self.make_bundle().report
        scale = max(abs(report.e_total), 1e-30)
        for q in range(2):
            np.testing.assert_allclose(report.per_cell[q].sum(),
                                       report.e_spatial[q],
                                       rtol=1e-10, atol=1e-12 * scale)

    def test_grid_free_problem_rejected(self):
        problem = wrap(nonlinear_stiff(), np.full(4, 0.4), t_final=0.3)
        with pytest.raises(ValueError, match="grid"):
            estimate_errors(problem, build_imex22(),
                            TimeGrid.uniform(0.0, 0.3, 0.05))

    def test_json_round_trip_is_exact(self, tmp_path):
        # what `gark estimate` writes decodes to the in-memory report bitwise
        assert main(["estimate", "--problem", "calvo", "--nx", "8", "--ny",
                     "4", "--dt", "0.15", "--out", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "report.json").read_text())
        report = self.make_bundle().report
        assert list(written) == ["kind", "psi_num", "psi_ref", "e_ref",
                                 "e_temporal", "e_spatial", "e_total",
                                 "accuracy", "per_step", "per_cell",
                                 "partition_names"]
        assert written["kind"] == "error_report"
        for name in ("psi_num", "psi_ref", "e_ref", "e_temporal",
                     "e_spatial", "e_total", "accuracy", "per_step"):
            assert_bitwise(written[name], getattr(report, name))
        for mine, theirs in zip(written["per_cell"], report.per_cell,
                                strict=True):
            assert_bitwise(mine, theirs)
        assert tuple(written["partition_names"]) == report.partition_names

    def test_csv_row(self, tmp_path):
        report = self.make_bundle().report
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["goal_num", "goal_ref", "ref_error",
                           "temporal_error", "spatial_error_diffusion",
                           "spatial_error_reaction", "total_error",
                           "accuracy"]
        parsed = dict(zip(rows[0], rows[1]))
        np.testing.assert_allclose(float(parsed["temporal_error"]),
                                   report.e_temporal, rtol=1e-3)
        np.testing.assert_allclose(float(parsed["total_error"]),
                                   report.e_total, rtol=1e-3)


class TestStreamedCompanionRuns:
    @pytest.mark.parametrize("name, cells, t_final, dt", [
        ("gray_scott", 4, 1.0, 0.05), ("bsvd", 6, 0.5, 0.05)])
    def test_report_equals_the_all_stored_estimate_bitwise(self, name, cells,
                                                           t_final, dt):
        problem = build_problem(name, default_grid(name, cells, cells),
                                t_final=t_final)
        grid = TimeGrid.uniform(0.0, t_final, dt)
        bundle = estimate_errors(problem, build_imex22(), grid)
        streamed, stored = bundle.report, stored_estimate(
            problem, build_imex22(), grid)
        for field in ("psi_num", "psi_ref", "e_ref", "e_temporal",
                      "e_spatial", "e_total", "accuracy"):
            assert getattr(streamed, field) == getattr(stored, field), field
        np.testing.assert_array_equal(streamed.per_step, stored.per_step)
        for mine, theirs in zip(streamed.per_cell, stored.per_cell,
                                strict=True):
            np.testing.assert_array_equal(mine, theirs)
        for run in (bundle.time_refined, bundle.space_refined,
                    bundle.reference):
            assert run.stage_values is None
            assert run.states.shape == (1, run.system.dim)

    def test_one_factorization_per_grid_and_step_size(self, monkeypatch):
        # steps dt and dt/2 here, dt/2 and dt/4 halved: three nominal h*gamma
        # on each space grid, whichever of the four runs meets them first
        calls = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: calls.append(1) or splu(*a, **k))
        problem = build_problem("bsvd", default_grid("bsvd", 6, 6),
                                t_final=0.5)
        grid = TimeGrid.uniform(0.0, 0.5, 0.05).halve_marked([1, 4, 5, 8])
        bundle = estimate_errors(problem, build_imex22(), grid)
        assert len(calls) == 2 * 3
        assert np.isfinite(bundle.report.e_total)

    def test_peak_stays_below_the_fine_stage_arrays(self):
        problem = build_problem("gray_scott", default_grid("gray_scott", 8, 8),
                                t_final=1.0)
        grid = TimeGrid.uniform(0.0, 1.0, 0.02)
        tableau = build_imex22()
        fine_dim = rebuild_on(problem,
                              problem.grid.refine_uniform()).system.dim
        # stage values and slopes of the space-refined run, if it were stored
        fine_stage_bytes = 2 * grid.num_steps * sum(
            tableau.stage_counts) * fine_dim * 8
        tracemalloc.start()
        try:
            estimate_errors(problem, tableau, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fine_stage_bytes
