import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from helpers import (linear_pair, nonlinear_stiff, plan_cases, scalar_split,
                     scan_step, stiff_relaxation, sum_goal, wrap)

from gark.adjoint import _stage_solve
from gark.estimation import temporal_residuals
from gark.forward import (ForwardTrajectory, LinearStageCache,
                          StepFailureError, align_tableau, factorize,
                          integrate, step)
from gark.mesh import TimeGrid
from gark.systems import (Partition, SplitOdeSystem, default_grid, make_bsvd,
                          make_calvo, make_random_nonlinear)
from gark.tableau import GAMMA_MINUS, UnsupportedTableauError, build_imex22


def implicit_scalar_growth(z: float, gamma: float = GAMMA_MINUS) -> float:
    """1 + z b (I - z A)^-1 1 for the two-stage implicit scheme."""
    A = np.array([[gamma, 0.0], [1.0 - gamma, gamma]])
    b = np.array([1.0 - gamma, gamma])
    ones = np.ones(2)
    return 1.0 + z * float(b @ np.linalg.solve(np.eye(2) - z * A, ones))


class TestSingleStep:
    def test_zero_rhs_is_constant(self):
        system = scalar_split(0.0, 0.0)
        result = step(system, build_imex22(), 0.0, 0.25, np.array([3.0]))
        np.testing.assert_array_equal(result.y_next, [3.0])

    @pytest.mark.parametrize("alpha", [None, 0.5, 0.31])
    def test_explicit_part_alone_gives_quadratic_growth(self, alpha):
        # slope assigned only to the explicit scheme: one step multiplies
        # the state by 1 + z + z^2/2 regardless of alpha
        lam, h = -0.7, 0.3
        system = scalar_split(lam, 0.0)
        tableau = build_imex22(alpha=alpha)
        result = step(system, tableau, 0.0, h, np.array([1.0]))
        z = lam * h
        np.testing.assert_allclose(result.y_next[0], 1.0 + z + z * z / 2.0,
                                   rtol=1e-14)

    def test_implicit_part_alone_matches_resolvent_formula(self):
        lam, h = -2.1, 0.4
        system = scalar_split(0.0, lam)
        result = step(system, build_imex22(), 0.0, h, np.array([1.0]))
        np.testing.assert_allclose(result.y_next[0],
                                   implicit_scalar_growth(lam * h), rtol=1e-13)

    def test_implicit_growth_bounded_for_stiff_z(self):
        # the implicit scheme alone must damp z = -100, the explicit one
        # would blow up there
        assert abs(implicit_scalar_growth(-100.0)) < 1.0
        system = scalar_split(0.0, -1000.0)
        result = step(system, build_imex22(), 0.0, 0.1, np.array([1.0]))
        assert abs(result.y_next[0]) < 1.0

    def test_stage_times_use_own_abscissae(self):
        # each partition's rhs must be called at its own stage times:
        # partition 0 is explicit and partition 1 linear implicit, one call
        # per stage each (a linear stage's slope comes from its solve)
        seen = ([], [])

        def partition(q):
            def rhs(t, y):
                seen[q].append(t)
                return -y
            return Partition(name=f"p{q}", rhs=rhs, linear=True,
                             jacobian=lambda t, y: sp.csr_matrix([[-1.0]]))

        system = SplitOdeSystem(dim=1, partitions=(partition(0),
                                                   partition(1)))
        step(system, build_imex22(), 2.0, 0.5, np.array([1.0]))
        assert len(seen[0]) == 2 and len(seen[1]) == 2
        assert seen[0][0] == 2.0
        np.testing.assert_allclose(seen[0][1], 2.0 + 0.5 / (2.0 * GAMMA_MINUS))
        np.testing.assert_allclose(seen[1][0], 2.0 + 0.5 * GAMMA_MINUS)
        np.testing.assert_allclose(seen[1][1], 2.5)

    def test_schedule_missing_dependency_raises(self):
        tableau = build_imex22()
        bad = dataclasses.replace(tableau,
                                  stage_schedule=((0, 1), (0, 0), (1, 0), (1, 1)))
        with pytest.raises(UnsupportedTableauError, match="needs slope"):
            bad.plan
        system = scalar_split(-1.0, -1.0)
        with pytest.raises(UnsupportedTableauError, match="needs slope"):
            step(system, bad, 0.0, 0.1, np.array([1.0]))


@pytest.mark.parametrize("case", plan_cases(), ids=lambda case: case[0])
def test_planned_step_matches_schedule_scan(case):
    # the stored run must equal, bitwise, steps that look every
    # coefficient up in the coupling matrices
    _, problem, grid, tableau = case
    traj = integrate(problem, tableau, grid)
    assert traj.tableau is tableau
    cache = LinearStageCache()
    for n in range(traj.num_steps):
        t, h = float(grid.nodes[n]), float(grid.steps[n])
        y_next, values, slopes = scan_step(traj.system, tableau, t, h,
                                           traj.states[n], cache)
        np.testing.assert_array_equal(y_next, traj.states[n + 1])
        assert len(values) == len(slopes) == len(tableau.plan)
        for (q, i), value in values.items():
            np.testing.assert_array_equal(value, traj.stage_values[q][n, i])
            np.testing.assert_array_equal(slopes[(q, i)],
                                          traj.stage_slopes[q][n, i])


class TestAlignment:
    def test_identity_when_nothing_is_stiff(self):
        system = scalar_split(-1.0, -1.0)
        tableau = build_imex22()
        assert align_tableau(tableau, system) is tableau

    def test_stiff_first_partition_gets_the_implicit_scheme(self):
        system = stiff_relaxation()
        aligned = align_tableau(build_imex22(), system)
        assert np.any(np.diag(aligned.coupling[0][0]) != 0.0)
        assert not np.any(np.diag(aligned.coupling[1][1]) != 0.0)
        assert aligned.validate().ok

    def test_alignment_preserved_on_calvo(self):
        problem = make_calvo(default_grid("calvo", 8, 4))
        aligned = align_tableau(build_imex22(), problem.system)
        assert np.any(np.diag(aligned.coupling[0][0]) != 0.0)

    def test_partition_count_mismatch_raises(self):
        system = SplitOdeSystem(dim=1, partitions=(
            Partition(name="only",
                      rhs=lambda t, y: -y,
                      jacobian=lambda t, y: sp.csr_matrix([[-1.0]])),))
        with pytest.raises(UnsupportedTableauError, match="partitions"):
            align_tableau(build_imex22(), system)

    def test_two_stiff_partitions_cannot_align_to_imex(self):
        system = scalar_split(-1.0, -1.0, stiff=(True, True))
        with pytest.raises(UnsupportedTableauError, match="cannot align"):
            align_tableau(build_imex22(), system)


class TestIntegrate:
    def test_linear_convergence_order_two(self):
        system, total = linear_pair(seed=11)
        y0 = np.linspace(0.4, 1.0, system.dim)
        problem = wrap(system, y0, t_final=1.0)
        exact = scipy.linalg.expm(total) @ y0
        errors = []
        dts = [0.1, 0.05, 0.025, 0.0125]
        for dt in dts:
            traj = integrate(problem, build_imex22(),
                             TimeGrid.uniform(0.0, 1.0, dt))
            errors.append(np.linalg.norm(traj.states[-1] - exact)
                          / np.linalg.norm(exact))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_nonlinear_stiff_convergence_order_two(self):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.3), t_final=0.5)
        ref = integrate(problem, build_imex22(),
                        TimeGrid.uniform(0.0, 0.5, 0.5 / 512))
        errors, dts = [], [0.05, 0.025, 0.0125]
        for dt in dts:
            traj = integrate(problem, build_imex22(),
                             TimeGrid.uniform(0.0, 0.5, dt))
            errors.append(np.linalg.norm(traj.states[-1] - ref.states[-1]))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_step_identity_is_exact(self):
        system = stiff_relaxation()
        problem = wrap(system, np.full(system.dim, 0.5), t_final=1.0)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.0, 0.05))
        assert traj.step_identity_residual() == 0.0

    def test_stage_consistency_at_solver_tolerance(self):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.4)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.4, 0.02))
        assert traj.stage_consistency_residual() < 1e-9

    def test_linear_stage_slope_comes_from_its_solve(self):
        # bsvd: linear implicit diffusion, explicit reaction; Y is built
        # from the solved slope with the very sums the check recombines
        problem = make_bsvd(default_grid("bsvd", 8, 8))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.2, 0.02))
        assert traj.stage_consistency_residual() == 0.0
        system, q = traj.system, 0  # q: diffusion after alignment
        assert system.partitions[q].linear
        for n in range(traj.num_steps):
            for i in range(traj.tableau.stage_counts[q]):
                slope = traj.stage_slopes[q][n, i]
                f_val = system.f(q, traj.stage_time(n, q, i),
                                 traj.stage_values[q][n, i])
                assert np.linalg.norm(slope - f_val) \
                    <= 1e-13 * np.linalg.norm(f_val)

    def test_stiffly_accurate_last_stage_equals_state(self):
        system = stiff_relaxation()
        problem = wrap(system, np.full(system.dim, 0.5), t_final=0.5)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.5, 0.05))
        # implicit scheme sits on partition 0 after alignment; its last
        # stage value must reproduce y_{n+1}
        for n in range(traj.num_steps):
            np.testing.assert_allclose(traj.stage_values[0][n, -1],
                                       traj.states[n + 1], rtol=1e-12,
                                       atol=1e-12)

    def test_deterministic_rerun_is_bitwise_identical(self):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.3)
        grid = TimeGrid.uniform(0.0, 0.3, 0.03)
        a = integrate(problem, build_imex22(), grid)
        b = integrate(problem, build_imex22(), grid)
        np.testing.assert_array_equal(a.states, b.states)
        for q in range(2):
            np.testing.assert_array_equal(a.stage_slopes[q],
                                          b.stage_slopes[q])

    def test_linear_factor_cache_is_shared_across_steps(self, monkeypatch):
        calls = []
        splu = scipy.sparse.linalg.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
        system = stiff_relaxation()
        problem = wrap(system, np.full(system.dim, 0.5), t_final=0.2)
        grid = TimeGrid.uniform(0.0, 0.2, 0.05)
        traj = integrate(problem, build_imex22(), grid)
        # both implicit stages share h*gamma, so four steps factor once
        assert len(calls) == 1
        fine = integrate(problem, build_imex22(), grid.halve_all_steps())
        calls.clear()
        # the coarse steps of the residual reuse the trajectory's factors
        temporal_residuals(traj, fine)
        assert calls == []

    def test_stage_factors_use_a_fill_reducing_symmetric_ordering(self):
        problem = make_bsvd(default_grid("bsvd", 40, 40))
        system, y, q = problem.system, problem.y0, 0  # q: diffusion
        matrix = sp.identity(system.dim) - 0.01 * system.jac(q, 0.0, y)
        lu = factorize(system, q, 0.0, y, 0.01)
        default = scipy.sparse.linalg.splu(sp.csc_matrix(matrix.T))
        assert lu.L.nnz + lu.U.nnz < 0.7 * (default.L.nnz + default.U.nnz)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_solve_directions_on_non_symmetric_stage_matrix(self, seed):
        # the cache holds factors of (I - cJ)^T: the forward solve must meet
        # the stage system and the adjoint solve its transpose
        problem = make_random_nonlinear(seed)
        system, q, t, coef = problem.system, 1, 0.2, 0.3
        traj = integrate(problem, build_imex22(), TimeGrid.uniform(0.0, 0.1,
                                                                   0.05))
        y = traj.stage_values[q][0, 0]
        matrix = np.eye(system.dim) - coef * system.jac(q, t, y).toarray()
        assert np.max(np.abs(matrix - matrix.T)) > 0.1
        b = np.random.default_rng(seed).standard_normal(system.dim)
        forward_x = factorize(system, q, t, y, coef).solve(b, trans="T")
        adjoint_x = _stage_solve(traj, q, t, y, coef, b)
        for m, x in ((matrix, forward_x), (matrix.T, adjoint_x)):
            assert np.linalg.norm(m @ x - b) <= 1e-13 * np.linalg.norm(b)

    def test_newton_failure_reports_step_index(self, monkeypatch):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.3)
        monkeypatch.setattr("gark.forward.MAX_NEWTON_ITERATIONS", 0)
        # aligned, the stiff partition is scheme 1; its first stage sits
        # at t_0 + gamma h
        where = (r"^step 0, stage \(1,1\) of partition 'stiff' at "
                 r"t_i = 0\.0087868: Newton stalled at residual ")
        with pytest.raises(StepFailureError, match=where) as err:
            integrate(problem, build_imex22(),
                      TimeGrid.uniform(0.0, 0.3, 0.03))
        assert err.value.step_index == 0
        assert err.value.iterations == 0
        assert np.isfinite(err.value.residual_norm)

    def test_y0_override_and_shape_check(self):
        system = scalar_split(-1.0, 0.0)
        problem = wrap(system, [1.0], t_final=0.1)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.1, 0.1), y0=np.array([2.0]))
        assert traj.states[0, 0] == 2.0
        with pytest.raises(ValueError, match="shape"):
            integrate(problem, build_imex22(),
                      TimeGrid.uniform(0.0, 0.1, 0.1), y0=np.ones(3))

    def test_invalid_tableau_is_rejected(self):
        tableau = build_imex22()
        bad = dataclasses.replace(
            tableau, weights=(tableau.weights[0] * 0.9, tableau.weights[1]))
        system = scalar_split(-1.0, 0.0)
        with pytest.raises(UnsupportedTableauError, match="invalid tableau"):
            integrate(wrap(system, [1.0], t_final=0.1), bad,
                      TimeGrid.uniform(0.0, 0.1, 0.1))

    def test_streamed_run_hands_each_step_to_the_consumer(self):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.2)
        grid = TimeGrid.uniform(0.0, 0.2, 0.05)
        stored = integrate(problem, build_imex22(), grid)
        seen = []
        streamed = integrate(problem, build_imex22(), grid,
                             consumer=lambda n, y_n, result:
                             seen.append((n, y_n, result)))
        assert [n for n, _, _ in seen] == list(range(grid.num_steps))
        for n, y_n, result in seen:
            np.testing.assert_array_equal(y_n, stored.states[n])
            np.testing.assert_array_equal(result.y_next, stored.states[n + 1])
            for (q, i), slope in result.stage_slopes.items():
                np.testing.assert_array_equal(slope,
                                              stored.stage_slopes[q][n, i])
        np.testing.assert_array_equal(streamed.states[-1], stored.states[-1])
        assert streamed.states.shape == (1, system.dim)
        assert streamed.stage_values is None
        assert streamed.stage_slopes is None

    def test_replay_matches_the_streamed_steps(self):
        system = stiff_relaxation()
        problem = wrap(system, np.full(system.dim, 0.5), t_final=0.2)
        grid = TimeGrid.uniform(0.0, 0.2, 0.05)
        live, replayed = [], []
        stored = integrate(problem, build_imex22(), grid)
        integrate(problem, build_imex22(), grid,
                  consumer=lambda *step: live.append(step))
        stored.replay(lambda *step: replayed.append(step))
        assert len(live) == len(replayed) == grid.num_steps
        for (n, y_n, a), (m, y_m, b) in zip(live, replayed):
            assert n == m
            np.testing.assert_array_equal(y_n, y_m)
            np.testing.assert_array_equal(a.y_next, b.y_next)
            for qi in a.stage_slopes:
                np.testing.assert_array_equal(a.stage_values[qi],
                                              b.stage_values[qi])
                np.testing.assert_array_equal(a.stage_slopes[qi],
                                              b.stage_slopes[qi])

    @pytest.mark.parametrize("use", [
        lambda traj, tmp: traj.state(0),
        lambda traj, tmp: traj.step_identity_residual(),
        lambda traj, tmp: traj.stage_consistency_residual(),
        lambda traj, tmp: traj.save_npz(tmp / "traj.npz"),
        lambda traj, tmp: traj.replay(lambda *step: None),
        lambda traj, tmp: temporal_residuals(traj, traj),
    ], ids=["state", "step_identity", "stage_consistency", "save_npz",
            "replay", "temporal_reference"])
    def test_streamed_run_refuses_stored_reads(self, use, tmp_path):
        problem = wrap(scalar_split(-1.0, -0.5), [1.0], t_final=0.2)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.2, 0.05),
                         consumer=lambda n, y_n, result: None)
        with pytest.raises(ValueError, match="kept only its final state"):
            use(traj, tmp_path)
        assert not (tmp_path / "traj.npz").exists()

    def test_stage_time_accessor(self):
        system = scalar_split(-1.0, -0.5)
        problem = wrap(system, [1.0], t_final=0.2)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.2, 0.1))
        np.testing.assert_allclose(traj.stage_time(1, 1, 0),
                                   0.1 + 0.1 * GAMMA_MINUS)

    def test_npz_round_trip(self, tmp_path):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.2)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.2, 0.05))
        path = tmp_path / "traj.npz"
        traj.save_npz(path)
        loaded = ForwardTrajectory.load_npz(path, problem)
        np.testing.assert_array_equal(loaded.states, traj.states)
        np.testing.assert_array_equal(loaded.time_grid.nodes,
                                      traj.time_grid.nodes)
        for q in range(2):
            np.testing.assert_array_equal(loaded.stage_slopes[q],
                                          traj.stage_slopes[q])
            np.testing.assert_array_equal(
                loaded.tableau.coupling[q][q], traj.tableau.coupling[q][q])


class TestCalvoForward:
    def test_tracks_manufactured_solution(self):
        problem = make_calvo(default_grid("calvo", 20, 10))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.5, 0.0375))
        exact = problem.exact_solution(1.5)
        rel = (np.linalg.norm(traj.states[-1] - exact)
               / np.linalg.norm(exact))
        assert rel < 5e-3

    def test_forward_order_two_against_fine_reference(self):
        problem = make_calvo(default_grid("calvo", 20, 10))
        ref = integrate(problem, build_imex22(),
                        TimeGrid.uniform(0.0, 1.5, 0.15 / 2 ** 7),
                        consumer=lambda n, y_n, result: None)
        errors, dts = [], [0.0375, 0.075, 0.15]
        for dt in dts:
            traj = integrate(problem, build_imex22(),
                             TimeGrid.uniform(0.0, 1.5, dt),
                             consumer=lambda n, y_n, result: None)
            errors.append(np.linalg.norm(traj.states[-1] - ref.states[-1])
                          / np.linalg.norm(ref.states[-1]))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 1.8 <= slope <= 2.2
