import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (dense_step_propagator, fd_goal_gradient, form_lam,
                     identity_pairs, imex22_family, linear_goal, linear_pair,
                     make_random_nonlinear, mu_theta, nonlinear_stiff,
                     plan_cases, propagator_chain_adjoint, scalar_split,
                     scan_adjoint_sweep, wrap)

from gark.adjoint import adjoint_sweep
from gark.forward import integrate, step
from gark.mesh import TimeGrid
from gark.systems import (Partition, SplitOdeSystem, build_problem,
                          default_grid, make_calvo, make_gray_scott)
from gark.tableau import GAMMA_MINUS, UnsupportedTableauError, build_imex22


def zero_system(dim: int = 3) -> SplitOdeSystem:
    z = sp.csr_matrix((dim, dim))
    part = lambda name: Partition(name=name,
                                  rhs=lambda t, y: np.zeros_like(y),
                                  jacobian=lambda t, y: z, linear=True)
    return SplitOdeSystem(dim=dim, partitions=(part("a"), part("b")))


def explicit_growth(z: float) -> float:
    return 1.0 + z + z * z / 2.0


PAIRS = identity_pairs()


@pytest.mark.parametrize("method", ["theta", "mu", "ell"])
@pytest.mark.parametrize("case", plan_cases(), ids=lambda case: case[0])
def test_planned_sweeps_match_schedule_scan(case, method):
    # the planned mu sweep must equal, bitwise, the scan that looks every
    # coefficient up in the coupling matrices; the scan's theta and ell
    # forms must reach the same lam, and their stage vectors must be the
    # sweep's mu through theta = J^T mu and h b ell = theta,
    # h b Lambda = mu
    _, problem, grid, tableau = case
    traj = integrate(problem, tableau, grid)
    adj = adjoint_sweep(traj, mu_partitions=(0, 1))
    lam, stores = scan_adjoint_sweep(traj, method)
    if method == "mu":
        np.testing.assert_array_equal(adj.lam, lam)
        for q, expected in enumerate(stores["mu"]):
            np.testing.assert_array_equal(adj.mu[q], expected)
        return
    scale = np.max(np.abs(adj.lam))
    np.testing.assert_allclose(lam, adj.lam, rtol=1e-12, atol=1e-12 * scale)
    theta = mu_theta(traj, adj)
    hs = grid.steps[:, None]
    for q, i in tableau.stage_schedule:
        if method == "theta":
            pairs = [(stores["theta"][q][:, i], theta[q][:, i])]
        else:
            b_i = tableau.weights[q][i]
            pairs = [(hs * b_i * stores["ell"][q][:, i], theta[q][:, i]),
                     (hs * b_i * stores["stage_adjoint"][q][:, i],
                      adj.mu[q][:, i])]
        for got, expected in pairs:
            np.testing.assert_allclose(got, expected, rtol=1e-10,
                                       atol=1e-10 * scale)


class TestDegenerate:
    def test_zero_rhs_adjoint_is_constant(self):
        problem = wrap(zero_system(), np.ones(3), t_final=1.0)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.0, 0.25))
        adj = adjoint_sweep(traj, mu_partitions=(0, 1))
        for n in range(traj.num_steps + 1):
            np.testing.assert_array_equal(adj.lam[n], np.ones(3))
        for theta in mu_theta(traj, adj):
            np.testing.assert_array_equal(theta, np.zeros_like(theta))

    def test_single_step_shapes(self):
        problem = wrap(scalar_split(0.0, -1.0), [2.0], t_final=0.1,
                       goal=linear_goal([3.0]))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.1, 0.1))
        adj = adjoint_sweep(traj, mu_partitions=(0, 1))
        assert adj.lam.shape == (2, 1)
        assert adj.lam[1, 0] == 3.0
        assert adj.ell is None
        assert adj.mu[0].shape == (1, 2, 1)
        assert adj.theta is None

    def test_unknown_method_rejected(self):
        problem = wrap(scalar_split(0.0, -1.0), [1.0], t_final=0.1)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.1, 0.1))
        for method in ("psi", "theta", "ell"):
            with pytest.raises(ValueError, match="method"):
                adjoint_sweep(traj, method=method)

    def test_needs_stored_stages(self):
        problem = wrap(scalar_split(0.0, -1.0), [1.0], t_final=0.1)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.1, 0.1),
                         consumer=lambda n, y_n, result: None)
        with pytest.raises(ValueError, match="stored stages"):
            adjoint_sweep(traj)

    def test_ell_needs_nonzero_weights(self):
        # alpha = 1 zeroes the first explicit weight; the mu sweep runs,
        # and the reversed-method form divides by weights and must refuse
        problem = wrap(scalar_split(-0.5, -1.0), [1.0], t_final=0.2)
        traj = integrate(problem, imex22_family(GAMMA_MINUS, 1.0),
                         TimeGrid.uniform(0.0, 0.2, 0.1))
        adjoint_sweep(traj)
        with pytest.raises(UnsupportedTableauError, match="weight"):
            scan_adjoint_sweep(traj, "ell")


class TestScalarRecursions:
    @pytest.mark.parametrize("method", ["theta", "mu", "ell"])
    def test_explicit_part_adjoint_matches_growth_power(self, method):
        lam_val, dt, n = -0.6, 0.2, 5
        problem = wrap(scalar_split(0.0, lam_val), [1.0], t_final=1.0)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.0, dt))
        lam = form_lam(traj, method)  # sum goal: lam_N = 1
        growth = explicit_growth(lam_val * dt)
        np.testing.assert_allclose(lam[0, 0], growth ** n, rtol=1e-12)

    @pytest.mark.parametrize("method", ["theta", "mu", "ell"])
    def test_implicit_part_adjoint_matches_growth_power(self, method):
        from test_forward import implicit_scalar_growth
        lam_val, dt, n = -2.5, 0.2, 5
        problem = wrap(scalar_split(lam_val, 0.0), [1.0], t_final=1.0)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.0, dt))
        lam = form_lam(traj, method)  # sum goal: lam_N = 1
        growth = implicit_scalar_growth(lam_val * dt)
        np.testing.assert_allclose(lam[0, 0], growth ** n, rtol=1e-12)


class TestPropagatorOracle:
    def test_propagator_reproduces_affine_step_exactly(self):
        system, _ = linear_pair(seed=3, dim=5)
        problem = wrap(system, np.linspace(0.2, 1.0, 5), t_final=0.3)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.3, 0.3))
        phi = dense_step_propagator(traj, 0)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(5)
        base = step(system, traj.tableau, 0.0, 0.3, traj.states[0]).y_next
        moved = step(system, traj.tableau, 0.0, 0.3,
                     traj.states[0] + u).y_next
        np.testing.assert_allclose(moved - base, phi @ u, rtol=1e-12,
                                   atol=1e-13)

    @pytest.mark.parametrize("pair", PAIRS.values(), ids=list(PAIRS))
    def test_single_step_duality(self, pair):
        system = nonlinear_stiff()
        rng = np.random.default_rng(11)
        v = rng.standard_normal(system.dim)
        u = rng.standard_normal(system.dim)
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.05,
                       goal=linear_goal(v))
        traj = integrate(problem, pair, TimeGrid.uniform(0.0, 0.05, 0.05))
        adj = adjoint_sweep(traj)
        phi = dense_step_propagator(traj, 0)
        np.testing.assert_allclose(float(adj.lam[0] @ u),
                                   float(v @ (phi @ u)), rtol=1e-10)

    @pytest.mark.parametrize("method", ["theta", "mu", "ell"])
    def test_sweep_matches_propagator_chain(self, method):
        system = nonlinear_stiff()
        rng = np.random.default_rng(5)
        v = rng.standard_normal(system.dim)
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.4,
                       goal=linear_goal(v))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.4, 0.05))
        chain = propagator_chain_adjoint(traj, v)
        np.testing.assert_allclose(form_lam(traj, method), chain, rtol=1e-10,
                                   atol=1e-12)

    @pytest.mark.parametrize("method", ["theta", "mu", "ell"])
    def test_all_linear_run_stores_no_stage_values(self, method):
        # linear Jacobians ignore y: the run keeps no stage values, and the
        # sweep and the dense oracle both read y_n in their place; the
        # duality gap is held to criterion 3's 1e-10
        system, _ = linear_pair(seed=4, dim=5)
        rng = np.random.default_rng(8)
        problem = wrap(system, np.linspace(0.2, 1.0, 5), t_final=0.4,
                       goal=linear_goal(rng.standard_normal(5)))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.4, 0.05))
        assert traj.stage_values == [None, None]
        lam = form_lam(traj, method)
        for n in range(traj.num_steps):
            u = rng.standard_normal(5)
            lhs = float(lam[n] @ u)
            rhs = float(lam[n + 1] @ (dense_step_propagator(traj, n) @ u))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_sensitivity_matrix_orders_products_left_to_right(self):
        system, _ = linear_pair(seed=9, dim=4)
        problem = wrap(system, np.ones(4), t_final=0.4)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.4, 0.1))
        # linear steps: y_N = Phi_{N-1} ... Phi_1 Phi_0 y_0
        total = np.eye(4)
        for n in range(traj.num_steps):
            total = dense_step_propagator(traj, n) @ total
        np.testing.assert_allclose(total @ problem.y0, traj.states[-1],
                                   rtol=1e-12)

    def test_dimension_cap(self):
        problem = make_calvo(default_grid("calvo", 20, 10))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.5, 0.75))
        with pytest.raises(ValueError, match="capped"):
            dense_step_propagator(traj, 0)


class TestFormulationAgreement:
    def make_trajectory(self):
        system = nonlinear_stiff()
        problem = wrap(system, np.full(system.dim, 0.4), t_final=0.5)
        return integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 0.5, 0.05))

    def test_three_methods_agree_to_twelve_digits(self):
        traj = self.make_trajectory()
        base = form_lam(traj, "theta")
        scale = np.max(np.abs(base))
        for other in ("mu", "ell"):
            np.testing.assert_allclose(form_lam(traj, other), base,
                                       rtol=1e-12, atol=1e-12 * scale)

    def test_stage_vector_identities(self):
        # theta = J^T mu and theta = h b ell and mu = h b Lambda, stage
        # by stage
        traj = self.make_trajectory()
        th_lam, th = scan_adjoint_sweep(traj, "theta")
        mu = adjoint_sweep(traj, mu_partitions=(0, 1))
        _, el = scan_adjoint_sweep(traj, "ell")
        via_mu = mu_theta(traj, mu)
        hs = traj.time_grid.steps
        scale = np.max(np.abs(th_lam))
        for q, i in traj.tableau.stage_schedule:
            b_i = traj.tableau.weights[q][i]
            theta = th["theta"][q][:, i]
            np.testing.assert_allclose(via_mu[q][:, i], theta,
                                       rtol=1e-10, atol=1e-10 * scale)
            np.testing.assert_allclose(
                hs[:, None] * b_i * el["ell"][q][:, i], theta,
                rtol=1e-10, atol=1e-10 * scale)
            np.testing.assert_allclose(
                hs[:, None] * b_i * el["stage_adjoint"][q][:, i],
                mu.mu[q][:, i], rtol=1e-10, atol=1e-10 * scale)

    def test_agreement_on_diffusion_reaction_problem(self):
        problem = make_calvo(default_grid("calvo", 8, 4))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.5, 0.15))
        base = form_lam(traj, "theta")
        scale = np.max(np.abs(base))
        for other in ("mu", "ell"):
            np.testing.assert_allclose(form_lam(traj, other), base,
                                       rtol=1e-12, atol=1e-12 * scale)

    def test_assembled_fallback_matches_vjp(self):
        problem = make_gray_scott(default_grid("gray_scott", 4, 4),
                                  t_final=1.0)
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.0, 0.1))
        system = problem.system
        assembled = SplitOdeSystem(
            system.dim, tuple(dataclasses.replace(p, vjp=None)
                              for p in system.partitions))
        fallback = dataclasses.replace(
            traj, problem=dataclasses.replace(problem, system=assembled))
        a = adjoint_sweep(traj, mu_partitions=(0, 1))
        b = adjoint_sweep(fallback, mu_partitions=(0, 1))
        assert a.lam.tobytes() == b.lam.tobytes()
        for q in range(system.num_partitions):
            assert a.mu[q].tobytes() == b.mu[q].tobytes()

    @pytest.mark.parametrize("name, kept", [("calvo", ()),
                                            ("gray_scott", (0,))])
    def test_separable_stages_call_no_vjp(self, name, kept):
        # an implicit diffusion stage takes theta = J^T mu in its stage
        # solver's eigenbasis, whether the sweep keeps its mu or not: the
        # diffusion partition's vjp is never called, the reaction's once
        # per stage
        problem = build_problem(name, default_grid(name, 8, 4))
        calls = [0, 0]

        def counted(q, vjp):
            def wrapped(t, y, w):
                calls[q] += 1
                return vjp(t, y, w)
            return wrapped

        system = problem.system
        problem.system = SplitOdeSystem(system.dim, tuple(
            dataclasses.replace(p, vjp=counted(q, p.vjp))
            for q, p in enumerate(system.partitions)))
        tableau, grid = build_imex22(), TimeGrid.uniform(0.0, 0.6, 0.15)
        traj = integrate(problem, tableau, grid)
        adjoint_sweep(traj, mu_partitions=kept)
        assert calls == [0, tableau.stage_counts[1] * grid.num_steps]

    @pytest.mark.parametrize("kept", [(), (0,), (1,)])
    def test_mu_partitions_name_the_stored_mu(self, kept):
        # a partition left out gets None, and the default leaves every one
        # out; lam and every stored mu are the full sweep's, bitwise
        problem = make_calvo(default_grid("calvo", 8, 4))
        traj = integrate(problem, build_imex22(),
                         TimeGrid.uniform(0.0, 1.5, 0.15))
        full = adjoint_sweep(traj, mu_partitions=(0, 1))
        some = (adjoint_sweep(traj, mu_partitions=kept) if kept
                else adjoint_sweep(traj))
        assert some.lam.tobytes() == full.lam.tobytes()
        for q, mu in enumerate(some.mu):
            if q in kept:
                assert mu.tobytes() == full.mu[q].tobytes()
            else:
                assert mu is None


class TestFiniteDifferenceGradient:
    @pytest.mark.parametrize("pair", PAIRS.values(), ids=list(PAIRS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_adjoint_gradient_matches_central_differences(self, seed, pair):
        problem = make_random_nonlinear(seed=seed, dim=6)
        grid = TimeGrid.uniform(problem.t0, problem.t_final, 0.05)
        traj = integrate(problem, pair, grid)
        adj = adjoint_sweep(traj)
        fd = fd_goal_gradient(problem, pair, grid)
        np.testing.assert_allclose(adj.lam[0], fd, rtol=1e-5, atol=1e-8)

    def test_terminal_defaults_to_goal_gradient(self):
        problem = make_random_nonlinear(seed=2, dim=5)
        grid = TimeGrid.uniform(problem.t0, problem.t_final, 0.05)
        traj = integrate(problem, build_imex22(), grid)
        adj = adjoint_sweep(traj)
        np.testing.assert_array_equal(
            adj.lam[-1], problem.goal.gradient(traj.states[-1]))
