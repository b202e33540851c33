import dataclasses
import math

import numpy as np
import pytest

from gark.mesh import TensorGrid2D
import scipy.sparse as sp

from helpers import (assert_bitwise, loop_laplacian, nested_grids,
                     thrice_refined)
from gark.systems import (GRAY_SCOTT_DU, GRAY_SCOTT_DV, _calvo_g, _calvo_gxx,
                          bsvd_diffusivity, build_problem, default_grid,
                          discretize_laplacian, integral_goal, make_bsvd,
                          make_calvo, make_gray_scott, make_random_nonlinear,
                          rebuild_on)


def interior_mask(grid):
    m = np.zeros(grid.node_shape, dtype=bool)
    m[1:-1, 1:-1] = True
    return m[grid.unknown_mask()]


class TestLaplacian:
    def test_uniform_interior_stencil(self):
        g = TensorGrid2D.uniform(0, 1, 4, 0, 1, 4, "dirichlet")
        lap = discretize_laplacian(g).toarray()
        h2 = 0.25 ** 2
        # center unknown of the 3x3 interior block
        k = 4
        assert lap[k, k] == pytest.approx(-4.0 / h2, rel=1e-14)
        for nb in (1, 3, 5, 7):
            assert lap[k, nb] == pytest.approx(1.0 / h2, rel=1e-14)
        assert np.count_nonzero(lap[k]) == 5

    def test_exact_on_quadratic_interior(self):
        g = TensorGrid2D.uniform(0, 1, 6, 0, 1, 6, "neumann")
        c = g.unknown_coords()
        u = c[:, 0] ** 2 + c[:, 1] ** 2
        res = discretize_laplacian(g) @ u
        np.testing.assert_allclose(res[interior_mask(g)], 4.0, rtol=1e-11)

    def test_neumann_constant_in_kernel(self):
        g = TensorGrid2D.uniform(0, 2, 5, 0, 1, 4, "neumann")
        res = discretize_laplacian(g) @ np.ones(g.num_unknowns)
        np.testing.assert_allclose(res, 0.0, atol=1e-13)

    def test_neumann_conserves_integral(self):
        rng = np.random.default_rng(5)
        g = TensorGrid2D(np.concatenate([[0.0, 0.1], np.linspace(0.3, 1, 6)]),
                         np.linspace(0, 1, 7), "neumann")
        lap = discretize_laplacian(g, bsvd_diffusivity)
        w = g.quadrature_weights()
        for _ in range(10):
            y = rng.standard_normal(g.num_unknowns)
            flux = w @ (lap @ y)
            scale = np.linalg.norm(w) * np.linalg.norm(lap @ y) + 1e-30
            assert abs(flux) / scale < 1e-10

    def test_variable_coefficient_second_order(self):
        c_fun = lambda x, y: np.exp(x + 0.5 * y)
        u_fun = lambda x, y: np.sin(x) * np.cos(y)

        def analytic(x, y):
            c = c_fun(x, y)
            ux, uy = np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)
            uxx = -np.sin(x) * np.cos(y)
            uyy = -np.sin(x) * np.cos(y)
            return c * ux + c * uxx + 0.5 * c * uy + c * uyy

        errs, hs = [], []
        for n in (8, 16, 32):
            g = TensorGrid2D.uniform(0, 1, n, 0, 1, n, "neumann")
            pts = g.unknown_coords()
            res = discretize_laplacian(g, c_fun) @ u_fun(pts[:, 0], pts[:, 1])
            mask = interior_mask(g)
            err = np.max(np.abs(res[mask] - analytic(pts[mask, 0],
                                                     pts[mask, 1])))
            errs.append(err)
            hs.append(1.0 / n)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

    @pytest.mark.parametrize("name", ["calvo", "gray_scott", "bsvd"])
    @pytest.mark.parametrize("coefficient", [None, "bsvd", "array"])
    def test_matches_node_loop_bitwise(self, name, coefficient):
        rng = np.random.default_rng(5)
        for g in nested_grids(name):
            X, Y = np.meshgrid(g.xs, g.ys)
            field = {None: np.ones(g.node_shape),
                     "bsvd": bsvd_diffusivity(X, Y),
                     "array": rng.uniform(0.1, 2.0, g.node_shape)}[coefficient]
            arg = {None: None, "bsvd": bsvd_diffusivity,
                   "array": lambda X, Y: field}[coefficient]
            got, want = discretize_laplacian(g, arg), loop_laplacian(g, field)
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, attr),
                                              getattr(want, attr))

    def test_bad_coefficient_shape_rejected(self):
        g = TensorGrid2D.uniform(0, 1, 2, 0, 1, 2, "neumann")
        with pytest.raises(ValueError):
            discretize_laplacian(g, lambda X, Y: np.ones((2, 2)))


class TestIntegralGoal:
    def test_constant_unit_square(self):
        g = TensorGrid2D.uniform(0, 1, 5, 0, 1, 4, "neumann")
        goal = integral_goal(g)
        assert goal.evaluate(np.ones(g.num_unknowns)) == pytest.approx(1.0,
                                                                       abs=1e-14)

    def test_linear_field(self):
        g = TensorGrid2D.uniform(0, 1, 6, 0, 1, 3, "neumann")
        goal = integral_goal(g)
        x = g.unknown_coords()[:, 0]
        assert goal.evaluate(x) == pytest.approx(0.5, abs=1e-14)

    def test_species_selection(self):
        g = TensorGrid2D.uniform(0, 1, 2, 0, 1, 2, "neumann")
        n = g.num_unknowns
        first = integral_goal(g, num_species=2)
        y = np.concatenate([np.ones(n), 2.0 * np.ones(n)])
        assert first.evaluate(y) == pytest.approx(1.0, abs=1e-14)

    def test_gradient_matches_fd(self):
        g = TensorGrid2D.uniform(0, 1, 3, 0, 1, 3, "dirichlet")
        goal = integral_goal(g)
        rng = np.random.default_rng(2)
        y = rng.standard_normal(g.num_unknowns)
        grad = goal.gradient(y)
        eps = 1e-7
        for j in (0, 2, g.num_unknowns - 1):
            e = np.zeros_like(y)
            e[j] = eps
            fd = (goal.evaluate(y + e) - goal.evaluate(y - e)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-7, abs=1e-12)


def jacobian_probe(system, q, t, y, rng, n_probes=10, tol=1e-5):
    jac = system.jac(q, t, y)
    for _ in range(n_probes):
        v = rng.standard_normal(len(y))
        v /= np.linalg.norm(v)
        eps = 1e-6 * (1.0 + np.linalg.norm(y))
        fd = (system.f(q, t, y + eps * v) - system.f(q, t, y - eps * v)) / (2 * eps)
        jv = jac @ v
        denom = max(np.linalg.norm(jv), 1.0)
        assert np.linalg.norm(fd - jv) / denom < tol
        assert np.array_equal(system.vjp(q, t, y, v), jac.T @ v)


class TestCalvo:
    def grid(self, nx=20, ny=10):
        return TensorGrid2D.uniform(-1, 3, nx, -1, 1, ny, "dirichlet")

    def test_profile_vanishes_on_x_boundary(self):
        assert _calvo_g(np.array([-1.0]))[0] == 0.0
        assert _calvo_g(np.array([3.0]))[0] == 0.0

    def test_profile_c1_at_seam(self):
        left = (2.0 + 1.0) * (2.0 * 2.0 - 21.0 / 4.0)
        right = (3.0 - 2.0) * (2.0 - 23.0 / 4.0)
        assert left == pytest.approx(-15.0 / 4.0, abs=1e-14)
        assert right == pytest.approx(-15.0 / 4.0, abs=1e-14)
        # one-sided slopes agree as well
        eps = 1e-7
        dl = (_calvo_g(np.array([2.0])) - _calvo_g(np.array([2.0 - eps]))) / eps
        dr = (_calvo_g(np.array([2.0 + eps])) - _calvo_g(np.array([2.0]))) / eps
        assert dl[0] == pytest.approx(19.0 / 4.0, rel=1e-6)
        assert dr[0] == pytest.approx(19.0 / 4.0, rel=1e-6)

    def test_seam_second_derivative_convention(self):
        x = np.array([1.9, 2.0, 2.0 + 1e-12, 2.1])
        np.testing.assert_allclose(_calvo_gxx(x), [4.0, 1.0, 1.0, -2.0])

    @pytest.mark.parametrize("nx, ny", [(1, 4), (4, 1)])
    def test_grid_without_unknowns_rejected(self, nx, ny):
        # one cell between two Dirichlet edges has no unknown node
        with pytest.raises(ValueError, match=r"no unknowns .* \(%d, %d\) "
                                             "cells" % (nx, ny)):
            make_calvo(self.grid(nx, ny))

    def test_exact_solution_at_t0(self):
        p = make_calvo(self.grid())
        np.testing.assert_allclose(p.y0, p.exact_solution(0.0), rtol=0)
        c = p.grid.unknown_coords()
        expect = 0.1 * _calvo_g(c[:, 0]) * (c[:, 1] ** 2 - 1.0)
        np.testing.assert_allclose(p.y0, expect, rtol=1e-14)

    def test_forcing_consistency_continuous(self):
        # residual of the closed-form solution in the PDE, with all
        # derivatives taken by independent finite differences
        nu = 0.1
        rng = np.random.default_rng(8)

        def u_star(t, x, y):
            s = (2.0 + np.cos(np.pi * t)) / 30.0
            return s * _calvo_g(np.asarray(x, dtype=float)) * (y * y - 1.0)

        p = make_calvo(self.grid(), nu=nu)
        for _ in range(6):
            t = rng.uniform(0.1, 1.4)
            x = rng.uniform(-0.9, 1.7)  # keep the FD stencil off the seam
            y = rng.uniform(-0.9, 0.9)
            ht, hx = 1e-5, 1e-3
            ut = (u_star(t + ht, x, y) - u_star(t - ht, x, y)) / (2 * ht)
            lap = ((u_star(t, x + hx, y) - 2 * u_star(t, x, y)
                    + u_star(t, x - hx, y)) / hx ** 2
                   + (u_star(t, x, y + hx) - 2 * u_star(t, x, y)
                      + u_star(t, x, y - hx)) / hx ** 2)
            u = u_star(t, x, y)
            s = (2.0 + math.cos(math.pi * t)) / 30.0
            sd = -math.pi * math.sin(math.pi * t) / 30.0
            gx = float(_calvo_g(np.array([x]))[0])
            gxx = float(_calvo_gxx(np.array([x]))[0])
            f = sd * gx * (y * y - 1) - nu * s * (gxx * (y * y - 1) + 2 * gx) \
                - u + u ** 3
            resid = ut - (nu * lap + u - u ** 3 + f)
            assert abs(resid) < 1e-7

    def test_samples_solve_semidiscrete_system(self):
        # the manufactured solution is piecewise quadratic, so its nodal
        # samples satisfy the FD system exactly on a seam-aligned grid
        p = make_calvo(self.grid(20, 10))
        for t in (0.0, 0.37, 1.2):
            u = p.exact_solution(t)
            rhs = p.system.f(0, t, u) + p.system.f(1, t, u)
            c = p.grid.unknown_coords()
            s_dot = -math.pi * math.sin(math.pi * t) / 30.0
            u_dot = s_dot * _calvo_g(c[:, 0]) * (c[:, 1] ** 2 - 1.0)
            assert np.max(np.abs(u_dot - rhs)) < 1e-11

    def test_partition_layout(self):
        p = make_calvo(self.grid())
        assert p.system.partition_names == ("diffusion", "reaction")
        assert p.system.stiff_flags == (True, False)
        assert tuple(part.linear for part in p.system.partitions) \
            == (True, False)

    def test_jacobians_match_fd(self):
        p = make_calvo(self.grid(8, 4))
        rng = np.random.default_rng(4)
        y = p.y0 + 0.1 * rng.standard_normal(len(p.y0))
        for q in range(2):
            jacobian_probe(p.system, q, 0.3, y, rng)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            make_calvo(TensorGrid2D.uniform(0, 1, 4, 0, 1, 4, "dirichlet"))


class TestGrayScott:
    def grid(self, n=8):
        return TensorGrid2D.uniform(0, 2, n, 0, 2, n, "neumann")

    def test_initial_state_outside_strip(self):
        p = make_gray_scott(self.grid())
        n = p.grid.num_unknowns
        c = p.grid.unknown_coords()
        k = int(np.where((np.abs(c[:, 0] - 0.5) < 1e-12)
                         & (np.abs(c[:, 1] - 0.5) < 1e-12))[0][0])
        assert p.y0[k] == 0.0          # u
        assert p.y0[n + k] == 1.0      # v

    def test_initial_state_inside_strip(self):
        p = make_gray_scott(TensorGrid2D.uniform(0, 2, 32, 0, 2, 32, "neumann"))
        n = p.grid.num_unknowns
        c = p.grid.unknown_coords()
        k = int(np.where((np.abs(c[:, 0] - 0.8125) < 1e-12)
                         & (np.abs(c[:, 1] - 0.8125) < 1e-12))[0][0])
        assert p.y0[n + k] == pytest.approx(0.0625, abs=1e-12)
        assert p.y0[k] == pytest.approx(0.875, abs=1e-12)

    def test_reaction_jacobian_entry(self):
        p = make_gray_scott(self.grid(4))
        n = p.grid.num_unknowns
        y = np.concatenate([np.ones(n), np.zeros(n)])
        jac = p.system.jac(1, 0.0, y).toarray()
        assert jac[0, 0] == pytest.approx(-0.024, abs=1e-15)

    def test_jacobians_match_fd(self):
        p = make_gray_scott(self.grid(4))
        rng = np.random.default_rng(6)
        y = p.y0 + 0.05 * rng.standard_normal(len(p.y0))
        for q in range(2):
            jacobian_probe(p.system, q, 0.0, y, rng)

    @pytest.mark.parametrize("seed", [None, 5])
    def test_reaction_matches_its_formula_bitwise(self, seed):
        # the reaction writes both species into one array; it must keep the
        # bits of the two-row formula, signed zeros included, at the
        # default rates and at rates drawn from the benchmark's band
        params = {}
        if seed is not None:
            rng = np.random.default_rng(seed)
            params = {"feed": float(rng.uniform(0.0236, 0.0244)),
                      "kill": float(rng.uniform(0.059, 0.061))}
        p = make_gray_scott(self.grid(4), **params)
        feed, decay = p.params["feed"], p.params["feed"] + p.params["kill"]
        n = p.grid.num_unknowns
        rng = np.random.default_rng(8)
        u, v = rng.uniform(-1.5, 1.5, (2, n))
        u[:6] = [0.0, -0.0, 1.0, -1.0, -1.0, 1.0]
        v[:6] = [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0]
        uvv = u * v * v
        expected = np.concatenate([-uvv + feed * (1.0 - u), uvv - decay * v])
        assert np.signbit(expected[expected == 0.0]).any()
        assert_bitwise(p.system.f(1, 0.0, np.concatenate([u, v])), expected)

    def test_goal_is_first_species(self):
        p = make_gray_scott(self.grid(4))
        n = p.grid.num_unknowns
        y = np.concatenate([np.ones(n), 5.0 * np.ones(n)])
        assert p.goal.evaluate(y) == pytest.approx(4.0, abs=1e-12)  # area of [0,2]^2

    def test_defaults(self):
        p = make_gray_scott(self.grid(4))
        assert p.params["feed"] == 0.024
        assert p.params["kill"] == 0.06
        # the diffusivities du = 8e-2 and dv = 4e-2 scale the u and v blocks
        n = p.grid.num_unknowns
        lap = discretize_laplacian(p.grid)
        op = p.system.jac(0, 0.0, p.y0)
        assert_bitwise(op[:n, :n].toarray(), (8.0e-2 * lap).toarray())
        assert_bitwise(op[n:, n:].toarray(), (4.0e-2 * lap).toarray())
        assert op[:n, n:].nnz == op[n:, :n].nnz == 0
        assert p.t_final == 50.0
        assert p.system.dim == 2 * p.grid.num_unknowns


class TestBsvd:
    def grid(self, n=10):
        return TensorGrid2D.uniform(0, 1, n, 0, 1, n, "neumann")

    def test_diffusivity_value(self):
        expect = 0.1 * (1.0 + math.exp(-100 * 0.0225) + math.exp(-100 * 0.09))
        assert bsvd_diffusivity(0.5, 0.6) == pytest.approx(expect, rel=1e-14)

    def test_initial_state_value(self):
        p = make_bsvd(self.grid())
        c = p.grid.unknown_coords()
        k = int(np.where((np.abs(c[:, 0] - 0.5) < 1e-12)
                         & (np.abs(c[:, 1]) < 1e-12))[0][0])
        assert p.y0[k] == pytest.approx(2.0 * math.exp(-0.1) - 1.0, rel=1e-14)
        assert p.y0[k] == pytest.approx(0.80967, abs=5e-6)

    def test_reaction_equilibria(self):
        p = make_bsvd(self.grid(4))
        for u in (-1.0, 1.0, -0.6):
            y = np.full(p.grid.num_unknowns, u)
            np.testing.assert_allclose(p.system.f(1, 0.0, y), 0.0, atol=1e-13)

    def test_jacobians_match_fd(self):
        p = make_bsvd(self.grid(5))
        rng = np.random.default_rng(9)
        y = p.y0 + 0.1 * rng.standard_normal(len(p.y0))
        for q in range(2):
            jacobian_probe(p.system, q, 0.0, y, rng)

    def test_time_span_configurable(self):
        assert make_bsvd(self.grid(4)).t_final == 7.0
        assert make_bsvd(self.grid(4), t_final=4.0).t_final == 4.0


class TestDiffusionKernels:
    """The diffusion partition calls scipy.sparse's private compiled
    kernels directly; these pin them to the public products."""

    @pytest.fixture(params=[("calvo", 8, 4), ("gray_scott", 4, 4),
                            ("bsvd", 6, 6)], ids=lambda p: p[0])
    def problems(self, request):
        """The problem on its coarse grid and on its refine_uniform."""
        name, nx, ny = request.param
        coarse = default_grid(name, nx, ny)
        return [build_problem(name, grid)
                for grid in (coarse, coarse.refine_uniform())]

    def test_products_equal_the_sparse_ones_bitwise(self, problems):
        rng = np.random.default_rng(3)
        for problem in problems:
            system, dim = problem.system, problem.system.dim
            op = system.jac(0, 0.0, problem.y0)
            y, w = rng.standard_normal((2, dim))
            y[::3], w[::4] = 0.0, -0.0
            y[1::5] = w[2::5] = -0.0
            for t in (0.0, 0.3):
                assert_bitwise(system.f(0, t, y), op @ y)
                assert_bitwise(system.vjp(0, t, y, w), op.T @ w)
            signed_zeros = np.where(np.arange(dim) % 2, -0.0, 0.0)
            assert_bitwise(system.f(0, 0.0, signed_zeros), op @ signed_zeros)
            assert_bitwise(system.vjp(0, 0.0, y, signed_zeros),
                           op.T @ signed_zeros)

    def test_wrong_shapes_raise(self, problems):
        for problem in problems:
            system, dim = problem.system, problem.system.dim
            y = problem.y0
            for bad in (np.ones(dim - 1), np.ones(dim + 1),
                        np.ones((dim, 1)), np.ones((1, dim))):
                with pytest.raises(ValueError, match="diffusion operator"):
                    system.f(0, 0.0, bad)
                with pytest.raises(ValueError, match="diffusion operator"):
                    system.vjp(0, 0.0, y, bad)


class TestSeparableLaplacian:
    """The 1-D factors that the diffusion stage solver diagonalizes."""

    @pytest.fixture(params=["calvo", "gray_scott"])
    def problems(self, request):
        """The problem on a uniform grid and on a thrice refined one."""
        name = request.param
        return [build_problem(name, grid)
                for grid in (default_grid(name, 8, 6), thrice_refined(name))]

    def test_kronecker_sum_equals_the_assembled_jacobian(self, problems):
        for problem in problems:
            separable = problem.system.partitions[0].separable
            (wx, kx), (wy, ky) = separable.x, separable.y
            lap = (sp.kron(np.eye(len(wy)), kx / wx[:, None])
                   + sp.kron(ky / wy[:, None], np.eye(len(wx))))
            kron = sp.block_diag([s * lap for s in separable.scales])
            jac = problem.system.jac(0, 0.0, problem.y0)
            err = abs(kron - jac).max() / abs(jac).max()
            assert err <= 1e-13

    def test_scales_are_the_diffusivities(self):
        calvo = make_calvo(default_grid("calvo", 8, 4), nu=0.098)
        gray_scott = make_gray_scott(default_grid("gray_scott", 4, 4))
        assert calvo.system.partitions[0].separable.scales == (0.098,)
        assert gray_scott.system.partitions[0].separable.scales == (
            GRAY_SCOTT_DU, GRAY_SCOTT_DV)

    def test_diagonalized_on_first_use_only(self, problems):
        # problem setup computes no eigenbasis
        separable = problems[0].system.partitions[0].separable
        assert "diagonalization" not in vars(separable)
        assert separable.diagonalization is separable.diagonalization

    def test_a_nonlinear_partition_cannot_be_separable(self):
        diffusion = make_calvo(default_grid("calvo", 8, 4)).system.partitions[0]
        with pytest.raises(ValueError, match="not linear"):
            dataclasses.replace(diffusion, linear=False)

    def test_only_constant_coefficient_diffusion_is_separable(self, problems):
        bsvd = make_bsvd(default_grid("bsvd", 6, 6))
        for problem in (*problems, bsvd):
            diffusion, reaction = problem.system.partitions
            assert reaction.separable is None
            assert (diffusion.separable is None) == (problem is bsvd)


class TestRandomNonlinear:
    def test_deterministic_per_seed(self):
        a = make_random_nonlinear(123, dim=6)
        b = make_random_nonlinear(123, dim=6)
        np.testing.assert_array_equal(a.y0, b.y0)
        y = a.y0
        np.testing.assert_array_equal(a.system.f(0, 0.1, y),
                                      b.system.f(0, 0.1, y))

    def test_jacobians_match_fd(self):
        rng = np.random.default_rng(11)
        for seed in (1, 2):
            p = make_random_nonlinear(seed, dim=7)
            y = rng.standard_normal(7)
            for q in range(2):
                jacobian_probe(p.system, q, 0.2, y, rng)

    def test_goal_gradient_matches_fd(self):
        p = make_random_nonlinear(5, dim=6)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(6)
        grad = p.goal.gradient(y)
        eps = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = eps
            fd = (p.goal.evaluate(y + e) - p.goal.evaluate(y - e)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestRegistry:
    def test_default_grids(self):
        g = default_grid("calvo", 20, 10)
        assert (g.xs[0], g.xs[-1]) == (-1.0, 3.0)
        assert g.bc == "dirichlet"
        g = default_grid("bsvd", 8, 8)
        assert g.bc == "neumann"

    def test_build_and_rebuild(self):
        p = build_problem("bsvd", default_grid("bsvd", 6, 6), t_final=4.0)
        fine = p.grid.refine_uniform()
        p2 = rebuild_on(p, fine)
        assert p2.t_final == 4.0
        assert p2.grid is fine
        assert len(p2.y0) == fine.num_unknowns

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_problem("nope", default_grid("bsvd", 4, 4))
