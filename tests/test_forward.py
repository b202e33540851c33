import dataclasses
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from helpers import (StepRecorder, adjoint_coefficients, assert_bitwise,
                     at_coarse_nodes, dense_step_propagator, identity_pairs,
                     imex22_family, linear_pair, make_random_nonlinear, nonlinear_stiff,
                     plan_cases, scalar_split, scan_step, stage_time,
                     stiff_relaxation, sum_goal, swap_partitions,
                     thrice_refined, wrap)

from gark import forward
from gark.adjoint import adjoint_sweep
from gark.estimation import estimate_errors, temporal_residuals
from gark.forward import (LinearStageCache, SeparableStageSolver,
                          StepFailureError, SuperLUStageSolver, factorize,
                          integrate, step)
from gark.mesh import TimeGrid
from gark.systems import (Partition, SplitOdeSystem, build_problem,
                          default_grid, make_bsvd, make_calvo)
from gark.tableau import (GAMMA_MINUS, GarkTableau, UnsupportedTableauError,
                          build_imex22)


def implicit_scalar_growth(z: float, gamma: float = GAMMA_MINUS) -> float:
    """1 + z b (I - z A)^-1 1 for the two-stage implicit scheme."""
    A = np.array([[gamma, 0.0], [1.0 - gamma, gamma]])
    b = np.array([1.0 - gamma, gamma])
    ones = np.ones(2)
    return 1.0 + z * float(b @ np.linalg.solve(np.eye(2) - z * A, ones))


PAIRS = identity_pairs()
# |theta - J^T mu| / |J^T mu| of a stage solver's adjoint: SuperLU's theta
# is that product, and the eigenbasis theta of the separable solvers came
# within 2.4e-15 of it on test_solve_directions_meet_the_stage_system's
# vectors (3.2e-15 over 30 more seeds)
THETA_RTOL = 1e-14


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
        system = scalar_split(0.0, lam)
        tableau = (build_imex22() if alpha is None
                   else imex22_family(GAMMA_MINUS, alpha))
        result = step(system, tableau, 0.0, h, np.array([1.0]))
        z = lam * h
        np.testing.assert_allclose(result.y_next[0], 1.0 + z + z * z / 2.0,
                                   rtol=1e-14)

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("pair", PAIRS.values(), ids=list(PAIRS))
    def test_each_part_alone_matches_its_resolvent_formula(self, pair, q):
        # a slope on partition q alone grows the state by q's stability
        # function 1 + z b^T (I - z A)^-1 1, A = A^{q,q}, b = b^(q)
        lam, h = -2.1, 0.4
        z = lam * h
        rates = [0.0, 0.0]
        rates[q] = lam
        result = step(scalar_split(*rates), pair, 0.0, h, np.array([1.0]))
        A, b = pair.coupling[q][q], pair.weights[q]
        growth = 1.0 + z * float(b @ np.linalg.solve(
            np.eye(len(b)) - z * A, np.ones(len(b))))
        np.testing.assert_allclose(result.y_next[0], growth, rtol=1e-13)

    def test_implicit_growth_bounded_for_stiff_z(self):
        # the implicit scheme alone must damp z = -100, the explicit one
        # would blow up there
        assert abs(implicit_scalar_growth(-100.0)) < 1.0
        system = scalar_split(-1000.0, 0.0)
        result = step(system, build_imex22(), 0.0, 0.1, np.array([1.0]))
        assert abs(result.y_next[0]) < 1.0

    def test_stage_times_use_own_abscissae(self):
        # each partition's rhs must be called at its own stage times:
        # partition 0 is linear implicit and partition 1 explicit, one call
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
        assert seen[1][0] == 2.0
        np.testing.assert_allclose(seen[1][1], 2.0 + 0.5 / (2.0 * GAMMA_MINUS))
        np.testing.assert_allclose(seen[0][0], 2.0 + 0.5 * GAMMA_MINUS)
        np.testing.assert_allclose(seen[0][1], 2.5)

    def test_schedule_missing_dependency_raises(self):
        tableau = build_imex22()
        bad = dataclasses.replace(tableau,
                                  stage_schedule=((1, 1), (1, 0), (0, 0), (0, 1)))
        with pytest.raises(UnsupportedTableauError, match="needs slope"):
            bad.plan
        system = scalar_split(-1.0, -1.0)
        with pytest.raises(UnsupportedTableauError, match="needs slope"):
            step(system, bad, 0.0, 0.1, np.array([1.0]))


@pytest.mark.parametrize("case", plan_cases(), ids=lambda case: case[0])
def test_planned_step_matches_schedule_scan(case):
    # the run's steps must equal, bitwise, steps that look every
    # coefficient up in the coupling matrices
    _, problem, grid, tableau = case
    recorded = StepRecorder()
    traj = integrate(problem, tableau, grid, consumer=recorded)
    assert traj.tableau is tableau
    states, stage_values, stage_slopes = (
        recorded.states, recorded.stage_values, recorded.stage_slopes)
    cache = LinearStageCache(traj.system)
    for n in range(traj.num_steps):
        t, h = float(grid.nodes[n]), float(grid.steps[n])
        y_next, values, slopes = scan_step(traj.system, tableau, t, h,
                                           states[n], cache)
        np.testing.assert_array_equal(y_next, states[n + 1])
        assert len(values) == len(slopes) == len(tableau.plan)
        for (q, i), value in values.items():
            np.testing.assert_array_equal(value, stage_values[q][n, i])
            np.testing.assert_array_equal(slopes[(q, i)],
                                          stage_slopes[q][n, i])


def count_combine_step(monkeypatch) -> list:
    """Patch gark.forward.combine_step to record each call; returns the
    record, one entry per call."""
    calls, combine = [], forward.combine_step

    def counted(*args):
        calls.append(args)
        return combine(*args)

    monkeypatch.setattr(forward, "combine_step", counted)
    return calls


def assert_steps_match_scan(traj) -> None:
    """Every step of the stored run traj equals scan_step's, bitwise."""
    grid, cache = traj.time_grid, LinearStageCache(traj.system)
    for n, (t, h) in enumerate(zip(grid.nodes.tolist(), grid.steps.tolist())):
        y_next, _, _ = scan_step(traj.system, traj.tableau, t, h,
                                 traj.states[n], cache)
        assert_bitwise(traj.states[n + 1], y_next)


class TestStepCompletion:
    """y_{n+1} is the last stage's value where the plan carries the
    weights exactly and that stage is explicit or linear implicit, and the
    weighted sum of the slopes otherwise; the bits are the same either
    way."""

    def test_imex22_in_either_partition_order_carries_the_weights(self):
        tableau = build_imex22()
        assert tableau.last_stage_is_step
        assert swap_partitions(tableau).last_stage_is_step
        assert imex22_family(GAMMA_MINUS, 0.33).last_stage_is_step

    def test_adjoint_coefficients_do_not_carry_the_weights(self):
        assert not adjoint_coefficients(build_imex22()).last_stage_is_step

    def test_weights_within_validation_tolerance_are_not_enough(self,
                                                                monkeypatch):
        # a last row 1e-13 off the weights passes validate(), but the
        # stage's value would not be y_{n+1}'s bits
        base = build_imex22()
        (a_ii, a_ie), (a_ei, a_ee) = base.coupling
        a_ie = a_ie.copy()
        a_ie[1, 0] += 1e-13
        near = GarkTableau(((a_ii, a_ie), (a_ei, a_ee)), base.weights,
                           base.stage_schedule)
        assert near.validate().ok
        assert not near.last_stage_is_step
        calls = count_combine_step(monkeypatch)
        system = stiff_relaxation()
        problem = wrap(system, np.full(system.dim, 0.5), t_final=0.2)
        traj = integrate(problem, near, TimeGrid.uniform(0.0, 0.2, 0.05))
        assert len(calls) == traj.num_steps
        assert_steps_match_scan(traj)

    @pytest.mark.parametrize("name", ["gray_scott", "bsvd", "calvo"])
    def test_imex22_steps_sum_no_weights(self, name, monkeypatch):
        calls = count_combine_step(monkeypatch)
        problem = build_problem(name, default_grid(name, 4, 4))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.2, 0.05))
        assert traj.num_steps == 4 and calls == []

    @pytest.mark.parametrize(
        "case", [c for c in plan_cases() if c[0].startswith("nonlinear_stiff")],
        ids=lambda case: case[0])
    def test_newton_last_stage_keeps_the_weighted_sum(self, case,
                                                      monkeypatch):
        _, problem, grid, tableau = case
        assert tableau.last_stage_is_step
        calls = count_combine_step(monkeypatch)
        traj = integrate(problem, tableau, grid)
        last = traj.tableau.plan[-1]
        assert not traj.system.partitions[last.q].linear
        assert len(calls) == grid.num_steps
        assert_steps_match_scan(traj)


@pytest.mark.parametrize("case", plan_cases(), ids=lambda case: case[0])
def test_step_never_writes_into_its_input(case):
    # every step starts from a read-only state, the last step's y_{n+1}
    # included, which may be one of that step's stage values
    _, problem, grid, tableau = case
    cache = LinearStageCache(problem.system)
    y = np.array(problem.y0, dtype=float)
    for t, h in zip(grid.nodes.tolist(), grid.steps.tolist()):
        y.setflags(write=False)
        y = step(problem.system, tableau, t, h, y, cache).y_next
    assert np.isfinite(y).all()


@pytest.mark.parametrize("case", plan_cases(), ids=lambda case: case[0])
def test_implicit_partitions_hold_the_plan_s_implicit_stages(case):
    name, _, _, tableau = case
    implicit = tableau.implicit_partitions
    assert implicit is tableau.implicit_partitions
    assert implicit == tuple(sorted({st.q for st in tableau.plan
                                     if st.a_ii != 0.0}))
    assert implicit == ((0,) if name.endswith("implicit-first") else (1,))


class TestIntegrate:
    @pytest.mark.parametrize("name", ["calvo", "gray_scott", "bsvd"])
    def test_runs_the_tableau_it_is_given(self, name):
        # partition q of the tableau is partition q of the system: no copy
        problem = build_problem(name, default_grid(name, 4, 4))
        tableau = build_imex22()
        traj = integrate(problem, tableau, TimeGrid.uniform(0.0, 0.1, 0.05))
        assert traj.tableau is tableau

    def test_partition_count_mismatch_raises(self):
        system = SplitOdeSystem(dim=1, partitions=(
            Partition(name="only",
                      rhs=lambda t, y: -y,
                      jacobian=lambda t, y: sp.csr_matrix([[-1.0]])),))
        with pytest.raises(UnsupportedTableauError,
                           match="^tableau has 2 partitions, system has 1$"):
            integrate(wrap(system, [1.0], t_final=0.1), build_imex22(),
                      TimeGrid.uniform(0.0, 0.1, 0.1))

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
        recorded = StepRecorder()
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.0, 0.05), consumer=recorded)
        assert recorded.step_identity_residual(traj) == 0.0

    def test_stage_consistency_at_solver_tolerance(self):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.4)
        recorded = StepRecorder()
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.4, 0.02), consumer=recorded)
        assert recorded.stage_consistency_residual(traj) < 1e-9

    def test_linear_stage_slope_comes_from_its_solve(self):
        # bsvd: linear implicit diffusion, explicit reaction; Y is built
        # from the solved slope with the very sums the check recombines
        problem = make_bsvd(default_grid("bsvd", 8, 8))
        recorded = StepRecorder()
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.2, 0.02), consumer=recorded)
        assert recorded.stage_consistency_residual(traj) == 0.0
        system, q = traj.system, 0  # q: diffusion
        assert system.partitions[q].linear
        slopes, values = recorded.stage_slopes[q], recorded.stage_values[q]
        for n in range(traj.num_steps):
            for i in range(traj.tableau.stage_counts[q]):
                slope = slopes[n, i]
                f_val = system.f(q, stage_time(traj, n, q, i), values[n, i])
                assert np.linalg.norm(slope - f_val) \
                    <= 1e-13 * np.linalg.norm(f_val)

    def test_stiffly_accurate_last_stage_equals_state(self):
        system = stiff_relaxation()
        problem = wrap(system, np.full(system.dim, 0.5), t_final=0.5)
        recorded = StepRecorder()  # no run stores a linear stage's values
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.5, 0.05), consumer=recorded)
        # the implicit scheme is partition 0's; its last stage value must
        # reproduce y_{n+1} bitwise
        for n in range(traj.num_steps):
            assert_bitwise(recorded.stage_values[0][n, -1],
                           recorded.states[n + 1])

    def test_deterministic_rerun_is_bitwise_identical(self):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.3)
        grid = TimeGrid.uniform(0.0, 0.3, 0.03)
        a, b = StepRecorder(), StepRecorder()
        for recorded in (a, b):
            integrate(problem, build_imex22(), grid, consumer=recorded)
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
        temporal_residuals(traj, at_coarse_nodes(fine, grid))
        assert calls == []

    def test_jittered_coefficients_share_one_factorization(self,
                                                           monkeypatch):
        # gamma * 0.01 as two node differences give: they straddle a
        # rounding boundary of 13 significant digits
        calls = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: calls.append(1) or splu(*a, **k))
        system = stiff_relaxation()
        y, cache = np.zeros(system.dim), LinearStageCache(system)
        first = cache.get(0, 0.0, y, 0.0029289321881345244)
        assert cache.get(0, 0.0, y, 0.0029289321881344945) is first
        assert len(calls) == 1
        # a different step size is a different stage matrix
        assert cache.get(0, 0.0, y, 0.0029289321881345244 / 2) is not first
        assert len(calls) == 2

    def test_cache_refuses_a_second_system(self):
        # an equal system is another object, whose stage matrices the cache
        # does not hold
        one, other = stiff_relaxation(), stiff_relaxation()
        tableau = build_imex22()
        y, cache = np.zeros(one.dim), LinearStageCache(one)
        step(one, tableau, 0.0, 0.01, y, cache)
        with pytest.raises(ValueError, match="another system"):
            step(other, tableau, 0.0, 0.01, y, cache)

    def test_runs_given_one_cache_share_its_factors(self, monkeypatch):
        calls = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: calls.append(1) or splu(*a, **k))
        system = stiff_relaxation()
        problem = wrap(system, np.full(system.dim, 0.5), t_final=0.2)
        grid = TimeGrid.uniform(0.0, 0.2, 0.05)
        traj = integrate(problem, build_imex22(), grid)
        streamed = integrate(problem, build_imex22(), grid,
                             consumer=lambda n, y_n, result: None,
                             factors=traj.factors)
        assert len(calls) == 1
        np.testing.assert_array_equal(streamed.states[-1], traj.states[-1])
        with pytest.raises(ValueError, match="another system"):
            integrate(wrap(stiff_relaxation(), problem.y0, t_final=0.2),
                      build_imex22(), grid, factors=traj.factors)

    def test_stage_factors_use_a_fill_reducing_symmetric_ordering(self):
        problem = make_bsvd(default_grid("bsvd", 40, 40))
        system, y, q = problem.system, problem.y0, 0  # q: diffusion
        matrix = sp.identity(system.dim) - 0.01 * system.jac(q, 0.0, y)
        lu = factorize(system, q, 0.0, y, 0.01).lu
        default = scipy.sparse.linalg.splu(sp.csc_matrix(matrix.T))
        assert lu.L.nnz + lu.U.nnz < 0.7 * (default.L.nnz + default.U.nnz)

    @pytest.mark.parametrize("case", [
        "bsvd", "random_nonlinear-3", "random_nonlinear-11", "calvo-uniform",
        "calvo-refined", "gray_scott-uniform", "gray_scott-refined"])
    def test_solve_directions_meet_the_stage_system(self, case):
        # every solver kind: solve meets (I - cJ) x = b, and adjoint's mu
        # (I - cJ)^T mu = b with theta = J^T mu, theta's bits not depending
        # on whether mu is kept; SuperLU's, holding factors of the
        # transpose, are its transposed and its plain kernel, and its theta
        # is the system's vjp
        name, _, variant = case.partition("-")
        if name == "random_nonlinear":  # a Newton stage, not symmetric
            problem = make_random_nonlinear(int(variant))
            traj = integrate(problem, build_imex22(),
                             TimeGrid.uniform(0.0, 0.1, 0.05))
            q, t, y, coefs = 0, 0.2, traj.stage_values[0][0, 0], (0.3,)
            seed = int(variant)
        else:  # diffusion
            grid = (thrice_refined(name) if variant == "refined"
                    else default_grid(name, 8, 6))
            problem = build_problem(name, grid)
            q, t, y, coefs, seed = 0, 0.0, problem.y0, (0.0029, 0.4), 7
        kind = (SeparableStageSolver if name in ("calvo", "gray_scott")
                else SuperLUStageSolver)
        system, rng = problem.system, np.random.default_rng(seed)
        for coef in coefs:
            solver = factorize(system, q, t, y, coef)
            assert type(solver) is kind
            matrix = sp.identity(system.dim) - coef * system.jac(q, t, y)
            if name == "random_nonlinear":
                assert abs(matrix - matrix.T).max() > 0.1
            b = rng.standard_normal(system.dim)
            mu, theta = solver.adjoint(t, y, b, True)
            for m, x in ((matrix, solver.solve(b)), (matrix.T, mu)):
                assert x.shape == b.shape
                assert np.linalg.norm(m @ x - b) <= 1e-13 * np.linalg.norm(b)
            jac_t_mu = system.jac(q, t, y).T @ mu
            assert theta.shape == b.shape
            assert (np.linalg.norm(theta - jac_t_mu)
                    <= THETA_RTOL * np.linalg.norm(jac_t_mu))
            unkept, theta_alone = solver.adjoint(t, y, b, False)
            assert unkept is None
            assert_bitwise(theta_alone, theta)
            if kind is SuperLUStageSolver:
                assert_bitwise(solver.solve(b), solver.lu.solve(b, trans="T"))
                assert_bitwise(mu, solver.lu.solve(b))
                assert_bitwise(theta, system.vjp(q, t, y, mu))

    def test_newton_failure_reports_step_index(self, monkeypatch):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.3)
        monkeypatch.setattr("gark.forward.MAX_NEWTON_ITERATIONS", 0)
        # the stiff partition is the pair's implicit partition 1; its first
        # stage sits at t_0 + gamma h
        where = (r"^step 0, stage \(1,1\) of partition 'stiff' at "
                 r"t_i = 0\.0087868: Newton stalled at residual ")
        with pytest.raises(StepFailureError, match=where) as err:
            integrate(problem, build_imex22(),
                      TimeGrid.uniform(0.0, 0.3, 0.03))
        assert err.value.step_index == 0
        assert err.value.iterations == 0
        assert np.isfinite(err.value.residual_norm)

    def test_y0_override_and_shape_check(self):
        # a run starts from problem.y0; another start is another problem
        system = scalar_split(0.0, -1.0)
        problem = wrap(system, [1.0], t_final=0.1)
        traj = integrate(dataclasses.replace(problem, y0=np.array([2.0])),
                         build_imex22(), TimeGrid.uniform(0.0, 0.1, 0.1))
        assert traj.states[0, 0] == 2.0
        with pytest.raises(ValueError, match="shape"):
            integrate(dataclasses.replace(problem, y0=np.ones(3)),
                      build_imex22(), TimeGrid.uniform(0.0, 0.1, 0.1))

    def test_blow_up_names_the_step_and_its_time(self):
        # growth ~1e198 per step: step 0 stays finite, step 1 overflows
        problem = wrap(scalar_split(0.0, 1e100), [1.0], t_final=0.3)
        finished = []
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                StepFailureError, match=r"^step 1, from t = 0\.1 to 0\.2: "
                                        r"the new state is not finite$") as err:
            integrate(problem, build_imex22(),
                      TimeGrid.uniform(0.0, 0.3, 0.1),
                      consumer=lambda n, y_n, result: finished.append(n))
        assert err.value.step_index == 1
        assert err.value.iterations is None
        assert finished == [0]  # the failed step reaches no consumer

    def test_invalid_tableau_is_rejected(self):
        tableau = build_imex22()
        bad = dataclasses.replace(
            tableau, weights=(tableau.weights[0], tableau.weights[1] * 0.9))
        system = scalar_split(0.0, -1.0)
        with pytest.raises(UnsupportedTableauError, match="invalid tableau"):
            integrate(wrap(system, [1.0], t_final=0.1), bad,
                      TimeGrid.uniform(0.0, 0.1, 0.1))

    def test_streamed_run_hands_each_step_to_the_consumer(self):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.2)
        grid = TimeGrid.uniform(0.0, 0.2, 0.05)
        stored = integrate(problem, build_imex22(), grid)
        recorded = StepRecorder()
        streamed = integrate(problem, build_imex22(), grid, consumer=recorded)
        assert len(recorded.steps) == grid.num_steps
        np.testing.assert_array_equal(recorded.states, stored.states)
        for q, (values, slopes) in enumerate(zip(
                recorded.stage_values, recorded.stage_slopes, strict=True)):
            for n, i in np.ndindex(values.shape[:2]):
                assert_bitwise(values[n, i], stored.stage_point(n, q, i))
            assert slopes.shape == values.shape
        np.testing.assert_array_equal(streamed.states[-1], stored.states[-1])
        assert streamed.states.shape == (1, system.dim)
        assert streamed.stage_values is None
        assert streamed.stage_slopes is None
        assert streamed.factors is None

    @pytest.mark.parametrize("streamed", [False, True],
                             ids=["stored", "streamed"])
    def test_runs_keep_only_what_the_adjoint_reads(self, streamed):
        # a stored run's arrays are its states and the stage values of its
        # nonlinear partitions that move off y_n, (N+1) dim + N dim floats
        # per such stage, and no slopes; a streamed run keeps y_N
        problem = make_bsvd(default_grid("bsvd", 6, 6))
        grid = TimeGrid.uniform(0.0, 0.2, 0.02)
        traj = integrate(problem, build_imex22(), grid,
                         consumer=(lambda n, y_n, result: None)
                         if streamed else None)
        arrays = [a for value in vars(traj).values()
                  for a in (value if isinstance(value, list) else [value])
                  if isinstance(a, np.ndarray)]
        n, dim = grid.num_steps, problem.system.dim
        floats = sum(a.size for a in arrays)
        if streamed:
            assert traj.stage_values is None and floats == dim
        else:
            # diffusion is linear, so only the reaction's values are kept,
            # and its first stage, explicit and reading no slope, is y_n
            assert traj.stage_values[0] is None
            assert traj.stage_values[1].shape == (n, 1, dim)
            assert floats == (n + 1) * dim + n * dim
        assert traj.stage_slopes is None

    @pytest.mark.parametrize("use", [
        lambda traj: adjoint_sweep(traj),
        lambda traj: dense_step_propagator(traj, 0),
    ], ids=["adjoint_sweep", "dense_step_propagator"])
    def test_streamed_run_refuses_stored_reads(self, use):
        problem = wrap(scalar_split(-0.5, -1.0), [1.0], t_final=0.2)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.2, 0.05),
                         consumer=lambda n, y_n, result: None)
        with pytest.raises(ValueError, match="kept only its final state"):
            use(traj)

    def test_stage_time_accessor(self):
        system = scalar_split(-0.5, -1.0)
        problem = wrap(system, [1.0], t_final=0.2)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.2, 0.1))
        np.testing.assert_allclose(stage_time(traj, 1, 0, 0),
                                   0.1 + 0.1 * GAMMA_MINUS)


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


class TestSeparableStageSolver:
    """Constant-coefficient diffusion stages are solved by fast
    diagonalization."""

    @pytest.mark.parametrize("name", ["calvo", "gray_scott"])
    @pytest.mark.parametrize("refined", [False, True],
                             ids=["uniform", "refined"])
    def test_slope_solves_the_stage_system_for_the_operator(self, name,
                                                            refined):
        # the partition's rhs is J y, so (I - cJ) k = J rhs, with no f call
        grid = thrice_refined(name) if refined else default_grid(name, 8, 6)
        problem = build_problem(name, grid)
        system, y = problem.system, problem.y0
        jac = system.jac(0, 0.0, y)
        rng = np.random.default_rng(5)
        for coef in (0.0029, 0.4):
            solver = factorize(system, 0, 0.0, y, coef)
            rhs = rng.standard_normal(system.dim)
            k = solver.slope(0.0, rhs)
            assert k.shape == rhs.shape
            target = jac @ rhs
            assert (np.linalg.norm(k - coef * (jac @ k) - target)
                    <= 1e-13 * np.linalg.norm(target))

    def test_superlu_slope_is_one_f_call_and_one_solve(self):
        problem = make_bsvd(default_grid("bsvd", 8, 8))
        system, y, t = problem.system, problem.y0, 0.3
        solver = factorize(system, 0, t, y, 0.01)
        assert not isinstance(solver, SeparableStageSolver)
        rhs = np.random.default_rng(2).standard_normal(system.dim)
        assert_bitwise(solver.slope(t, rhs), solver.solve(system.f(0, t, rhs)))

    @pytest.fixture
    def diffusion_f_calls(self, monkeypatch):
        """The callers of SplitOdeSystem.f on partition 0, by name."""
        calls = []
        f = SplitOdeSystem.f

        def counted(system, q, t, y):
            if q == 0:
                calls.append(sys._getframe(1).f_code.co_name)
            return f(system, q, t, y)

        monkeypatch.setattr(SplitOdeSystem, "f", counted)
        return calls

    def test_gray_scott_estimate_calls_diffusion_only_in_residuals(
            self, diffusion_f_calls):
        # the four runs and the temporal residuals take every diffusion
        # slope from the stage solver; only the space-refined run's stage
        # residuals k - f(Y) call f, once per diffusion stage and step
        problem = build_problem("gray_scott", default_grid("gray_scott", 4, 4),
                                t_final=0.2)
        grid = TimeGrid.uniform(0.0, 0.2, 0.05)
        estimate_errors(problem, build_imex22(), grid)
        assert diffusion_f_calls == ["stage_residual"] * (2 * grid.num_steps)

    def test_calvo_run_and_sweep_call_no_diffusion_f(self,
                                                     diffusion_f_calls):
        problem = make_calvo(default_grid("calvo", 8, 4))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.5, 0.15))
        adjoint_sweep(traj)
        assert diffusion_f_calls == []

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: calls.append(1) or splu(*a, **k))
        return calls

    def test_gray_scott_estimate_factors_nothing(self, splu_calls):
        problem = build_problem("gray_scott", default_grid("gray_scott", 4, 4),
                                t_final=0.2)
        bundle = estimate_errors(problem, build_imex22(),
                                 TimeGrid.uniform(0.0, 0.2, 0.05))
        assert np.isfinite(bundle.report.e_total)
        assert splu_calls == []

    def test_calvo_run_and_sweep_factor_nothing(self, splu_calls):
        problem = make_calvo(default_grid("calvo", 8, 4))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.5, 0.15))
        lam = adjoint_sweep(traj).lam
        assert np.isfinite(lam).all()
        assert splu_calls == []
