import csv
import dataclasses
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from helpers import (RestrictedRun, assert_bitwise, at_coarse_nodes,
                     identity_pairs, linear_pair, nonlinear_stiff,
                     scalar_split, stored_estimate, stored_space_refined,
                     swap_partitions, wrap)

import gark.estimation
from gark.adjoint import adjoint_sweep
from gark.cli import main
from gark.estimation import (assemble_report, estimate_errors,
                             spatial_residuals, temporal_residuals,
                             weighed_partitions)
from gark.forward import integrate
from gark.mesh import GridTransfer, TensorGrid2D, TimeGrid
from gark.systems import (PROBLEM_BUILDERS, Partition, ProblemInstance,
                          SplitOdeSystem, build_problem, default_grid,
                          discretize_laplacian, integral_goal, make_calvo,
                          rebuild_on)
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
                  jacobian=lambda t, y: lap, linear=True),
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
                  jacobian=lambda t, y: -eye, linear=True),
        Partition(name="wave", rhs=lambda t, y: np.sin(y),
                  jacobian=lambda t, y: sp.diags(np.cos(y)).tocsr()),
    )
    system = SplitOdeSystem(dim=n, partitions=parts)
    return ProblemInstance(name="pointwise", system=system, grid=grid,
                           y0=y0, t0=0.0, t_final=0.3,
                           goal=integral_goal(grid))


# (cells in x, cells in y, t_final, dt) of a small case per grid problem
SMALL_CASES = {"calvo": (8, 4, 1.5, 0.15), "gray_scott": (4, 4, 1.0, 0.05),
               "bsvd": (6, 6, 0.5, 0.05)}


def small_case(name: str, dt: float | None = None):
    """The problem and time grid of SMALL_CASES[name], stepped at dt if
    given."""
    nx, ny, t_final, default_dt = SMALL_CASES[name]
    params = {} if name == "calvo" else {"t_final": t_final}
    problem = build_problem(name, default_grid(name, nx, ny), **params)
    return problem, TimeGrid.uniform(0.0, t_final, dt or default_dt)


def rebuild_with(monkeypatch, name: str, edit) -> None:
    """Let every build of problem name, rebuild_on's included, pass its
    partitions through edit(partition)."""
    build = PROBLEM_BUILDERS[name]

    def edited(grid, **params):
        problem = build(grid, **params)
        parts = tuple(map(edit, problem.system.partitions))
        return dataclasses.replace(problem, system=SplitOdeSystem(
            dim=problem.system.dim, partitions=parts))

    monkeypatch.setitem(PROBLEM_BUILDERS, name, edited)


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
        problem = wrap(scalar_split(0.0, lam), [y0], t_final=1.0)
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
        problem = wrap(scalar_split(0.0, -1.0), [1.0], t_final=0.2)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.2, 0.05))
        for bad in (np.zeros((5, 3)), np.zeros((4, 1)), np.zeros(5)):
            with pytest.raises(ValueError, match="shape"):
                temporal_residuals(traj, bad)


class TestLinearTelescoping:
    PAIRS = identity_pairs()

    @pytest.mark.parametrize("pair", PAIRS.values(), ids=list(PAIRS))
    def test_weighted_residual_sum_equals_goal_gap(self, pair):
        # for a linear system and linear goal the estimate telescopes to
        # Q(reference) - Q(numerical) exactly
        system, _ = linear_pair(seed=21, dim=6)
        problem = wrap(system, np.linspace(0.5, 1.1, 6), t_final=0.8)
        grid = TimeGrid.uniform(0.0, 0.8, 0.1)
        traj = integrate(problem, pair, grid)
        fine = integrate(problem, pair,
                         grid.halve_all_steps().halve_all_steps())
        adj = adjoint_sweep(traj)
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
        adj = adjoint_sweep(traj)
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

    @pytest.mark.parametrize("name", sorted(SMALL_CASES))
    def test_pointwise_declarations_hold(self, name):
        # the all-stored path: a pointwise partition's restricted residuals
        # are exactly zero at every stage, the diffusion's are not, so a
        # wrong pointwise=True in a problem builder fails here
        problem, grid = small_case(name)
        tableau = build_imex22()
        coarse = integrate(problem, tableau, grid)
        res = spatial_residuals(coarse, stored_space_refined(problem, tableau,
                                                             grid))
        parts = problem.system.partitions
        assert [p.pointwise for p in parts] == [False, True]
        for q, part in enumerate(parts):
            if part.pointwise:
                assert np.all(res[q] == 0.0), part.name
            else:
                assert np.any(res[q] != 0.0), part.name

    def test_implicit_pointwise_partition_stays_weighed(self):
        # an explicit pointwise stage commutes with restriction bitwise; a
        # linear implicit one leaves its solve's round-off in the residual
        def declared(grid):
            problem = pointwise_problem(grid)
            parts = tuple(dataclasses.replace(p, pointwise=True)
                          for p in problem.system.partitions)
            return dataclasses.replace(problem, system=SplitOdeSystem(
                dim=problem.system.dim, partitions=parts))

        coarse = TensorGrid2D.uniform(0.0, 1.0, 4, 0.0, 1.0, 4, bc="neumann")
        fine = coarse.refine_uniform()
        traj_c = integrate(declared(coarse), build_imex22(),
                           TimeGrid.uniform(0.0, 0.3, 0.05))
        res = spatial_residuals(traj_c, restricted(
            traj_c, declared(fine), GridTransfer.between(fine, coarse)))
        assert traj_c.system.partitions[0].linear
        assert weighed_partitions(traj_c.tableau, traj_c.system) == (0,)
        assert np.any(res[0] != 0.0) and np.all(res[1] == 0.0)

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
    def test_weighted_sums_match_exactly_rounded_sums(self):
        # the weighting rule sums in its own order; every total stays within
        # the a priori bound (number of terms) * eps * sum|terms| of any
        # summation order from math.fsum over the same products
        problem = make_calvo(default_grid("calvo", 8, 4))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.5, 0.15))
        adj = adjoint_sweep(traj, mu_partitions=(0, 1))
        rng = np.random.default_rng(5)
        temporal = rng.standard_normal(traj.states[1:].shape)
        spatial = [rng.standard_normal(mu.shape) for mu in adj.mu]
        report = assemble_report(traj, adj, temporal, spatial)
        eps = np.finfo(float).eps
        for n, residual in enumerate(temporal):
            terms = adj.lam[n + 1] * residual
            assert abs(report.per_step[n] - math.fsum(terms)) \
                <= terms.size * eps * np.abs(terms).sum()
        for q, (mu, res) in enumerate(zip(adj.mu, spatial)):
            terms = (mu * res).ravel()
            assert abs(report.e_spatial[q] - math.fsum(terms)) \
                <= terms.size * eps * np.abs(terms).sum()
            np.testing.assert_allclose(report.per_cell[q].sum(),
                                       report.e_spatial[q], rtol=1e-12)

    def test_reference_bookkeeping(self):
        system, _ = linear_pair(seed=4, dim=4)
        problem = wrap(system, np.ones(4), t_final=0.4)
        grid = TimeGrid.uniform(0.0, 0.4, 0.1)
        traj = integrate(problem, build_imex22(), grid)
        fine = integrate(problem, build_imex22(), grid.halve_all_steps())
        adj = adjoint_sweep(traj)
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
        adj = adjoint_sweep(traj_c, mu_partitions=(0, 1))
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

    @pytest.mark.parametrize("name", sorted(SMALL_CASES))
    def test_report_equals_the_estimate_weighing_every_partition(
            self, name, monkeypatch):
        # the reaction is pointwise and explicit, so the estimate weighs no
        # reaction residual; declared otherwise it weighs them all
        problem, grid = small_case(name)
        skipped = estimate_errors(problem, build_imex22(), grid).report
        rebuild_with(monkeypatch, name,
                     lambda p: dataclasses.replace(p, pointwise=False))
        problem, grid = small_case(name)
        assert weighed_partitions(build_imex22(), problem.system) == (0, 1)
        weighed = estimate_errors(problem, build_imex22(), grid).report
        assert skipped.to_json() == weighed.to_json()

    @pytest.mark.parametrize("name, dt", [
        ("calvo", 0.15), ("gray_scott", 0.05), ("bsvd", 0.01)])
    def test_pointwise_partition_with_newton_stages_is_weighed(
            self, name, dt, monkeypatch):
        # the pair listing its explicit scheme first gives the reaction the
        # implicit scheme, so its stages run Newton and its residuals are
        # not zero: its mu is stored
        tableau = swap_partitions(build_imex22())
        problem, grid = small_case(name, dt)
        stored_mu = []

        def sweep(trajectory, mu_partitions):
            adjoint = adjoint_sweep(trajectory, mu_partitions=mu_partitions)
            stored_mu.extend(mu is not None for mu in adjoint.mu)
            return adjoint

        monkeypatch.setattr(gark.estimation, "adjoint_sweep", sweep)
        report = estimate_errors(problem, tableau, grid).report
        assert stored_mu == [True, True]
        assert report.e_spatial[1] != 0.0
        assert report.to_json() == stored_estimate(problem, tableau,
                                                   grid).to_json()

    def test_numerical_stage_values_are_released_after_the_sweep(
            self, monkeypatch):
        # only the adjoint sweep reads them: no companion run starts while
        # anything holds them, and the bundle's numerical run has none
        swept, released = [], []

        def sweep(trajectory, mu_partitions):
            swept.extend(weakref.ref(v) for v in trajectory.stage_values
                         if v is not None)
            return adjoint_sweep(trajectory, mu_partitions=mu_partitions)

        def companion_aware_integrate(*args, **kwargs):
            if swept:
                gc.collect()
                released.append(all(ref() is None for ref in swept))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(gark.estimation, "adjoint_sweep", sweep)
        monkeypatch.setattr(gark.estimation, "integrate",
                            companion_aware_integrate)
        problem = build_problem("bsvd", default_grid("bsvd", 6, 6),
                                t_final=0.5)
        bundle = estimate_errors(problem, build_imex22(),
                                 TimeGrid.uniform(0.0, 0.5, 0.05))
        # bsvd's diffusion is linear: only the reaction's values are stored
        assert len(swept) == 1 and released == [True] * 3
        assert bundle.numerical.stage_values is None
        assert bundle.numerical.states.shape == (1, problem.system.dim)

    def test_adjoint_arrays_are_released_after_their_last_reader(
            self, monkeypatch):
        # lam and the coarse factors serve only the time-refined run's
        # residuals and mu only the space-refined run's: each run starts
        # with only what it reads alive
        lam, mu, factors, alive = [], [], [], []

        def sweep(trajectory, mu_partitions):
            adjoint = adjoint_sweep(trajectory, mu_partitions=mu_partitions)
            lam.append(weakref.ref(adjoint.lam))
            mu.extend(weakref.ref(v) for v in adjoint.mu if v is not None)
            factors.append(weakref.ref(trajectory.factors))
            return adjoint

        def noting_integrate(*args, **kwargs):
            gc.collect()
            alive.append(tuple(any(ref() is not None for ref in refs)
                               for refs in (lam, mu, factors)))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(gark.estimation, "adjoint_sweep", sweep)
        monkeypatch.setattr(gark.estimation, "integrate", noting_integrate)
        problem = build_problem("bsvd", default_grid("bsvd", 6, 6),
                                t_final=0.5)
        estimate_errors(problem, build_imex22(),
                        TimeGrid.uniform(0.0, 0.5, 0.05))
        # (lam, mu, coarse factors alive) as the numerical, time-refined,
        # space-refined and reference runs start
        assert alive == [(False, False, False), (True, True, True),
                         (False, True, False), (False, False, False)]

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

    @pytest.mark.parametrize("name", ["gray_scott", "bsvd"])
    def test_estimate_stores_no_weights_of_zero_residuals(self, name):
        # the stores are the states, the reaction's one stored stage row
        # (its first stage is y_n), lam, and the diffusion's mu: the
        # diffusion is linear, so its values are not stored, and the
        # reaction is pointwise and explicit, so its mu is not; beyond the
        # stores the estimate holds less than a quarter of one coarse
        # (N, sum s_q, dim) array, as the residuals are weighted as the
        # companion runs make them
        problem = build_problem(name, default_grid(name, 8, 8), t_final=4.0)
        grid = TimeGrid.uniform(0.0, 4.0, 0.02)
        tableau = build_imex22()
        n, dim = grid.num_steps, problem.system.dim
        stage_array = n * sum(tableau.stage_counts) * dim * 8
        assert [p.linear for p in problem.system.partitions] == [True, False]
        assert [p.pointwise for p in problem.system.partitions] \
            == [False, True]
        stores = 8 * dim * (2 * (n + 1) + n + n * tableau.stage_counts[0])
        tracemalloc.start()
        try:
            estimate_errors(problem, tableau, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - stores < 0.25 * stage_array


def test_hot_loops_make_no_sparse_matmul(monkeypatch):
    # every stage, residual and sweep product of a grid problem goes through
    # the kernels its diffusion partition bound at build, never through
    # scipy.sparse's @ dispatch; the f calls per step do not change
    calls = {"matmul": 0, "f": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    sparse_base = scipy.sparse._base._spbase
    monkeypatch.setattr(sparse_base, "__matmul__",
                        counted("matmul", sparse_base.__matmul__))
    monkeypatch.setattr(SplitOdeSystem, "f", counted("f", SplitOdeSystem.f))
    problem = build_problem("bsvd", default_grid("bsvd", 6, 6), t_final=0.4)
    grid = TimeGrid.uniform(0.0, 0.4, 0.05)
    tableau = build_imex22()
    run = integrate(problem, tableau, grid)
    assert calls["f"] == 4 * grid.num_steps
    adjoint_sweep(run)
    estimate_errors(problem, tableau, grid)
    assert calls["matmul"] == 0
    problem.system.jac(0, 0.0, problem.y0) @ problem.y0
    assert calls["matmul"] == 1  # the patch sees the operator
