"""Small problem builders shared by the test modules."""

import numpy as np
import scipy.sparse as sp

from gark.systems import (GoalFunction, Partition, ProblemInstance,
                          SplitOdeSystem, rebuild_on)


def sum_goal(dim: int) -> GoalFunction:
    w = np.ones(dim)
    return GoalFunction(evaluate=lambda y: float(w @ y),
                        gradient=lambda y: w.copy(),
                        weights=w, description="component sum")


def wrap(system: SplitOdeSystem, y0, t_final: float, t0: float = 0.0,
         goal: GoalFunction | None = None, exact=None,
         name: str = "test") -> ProblemInstance:
    y0 = np.asarray(y0, dtype=float)
    return ProblemInstance(name=name, system=system, grid=None, y0=y0,
                           t0=t0, t_final=t_final,
                           goal=goal or sum_goal(y0.size),
                           exact_solution=exact)


def _linear_partition(name: str, A: np.ndarray, stiff: bool = False) -> Partition:
    A_sp = sp.csr_matrix(A)
    return Partition(name=name,
                     rhs=lambda t, y, A_sp=A_sp: A_sp @ y,
                     jacobian=lambda t, y, A_sp=A_sp: A_sp,
                     linear=True, stiff=stiff)


def scalar_split(lam_a: float, lam_b: float,
                 stiff=(False, False)) -> SplitOdeSystem:
    """Scalar y' = lam_a*y + lam_b*y as a two-partition system."""
    parts = (_linear_partition("a", np.array([[lam_a]]), stiff[0]),
             _linear_partition("b", np.array([[lam_b]]), stiff[1]))
    return SplitOdeSystem(dim=1, partitions=parts)


def linear_pair(seed: int, dim: int = 6):
    """Random nonstiff matrices A, B; returns (system, A + B)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) / dim - 0.5 * np.eye(dim)
    B = rng.standard_normal((dim, dim)) / dim - 0.5 * np.eye(dim)
    system = SplitOdeSystem(dim=dim, partitions=(
        _linear_partition("a", A), _linear_partition("b", B)))
    return system, A + B


def stiff_relaxation(dim: int = 5, rate: float = 40.0) -> SplitOdeSystem:
    """Stiff linear decay plus a mild nonlinear coupling term."""
    L = -rate * np.eye(dim) + 0.5 * np.eye(dim, k=1)
    shift = np.arange(1, dim + 1, dtype=float)

    def soft_rhs(t, y):
        return np.sin(y) + 0.1 * np.cos(t) * shift

    def soft_jac(t, y):
        return sp.diags(np.cos(y)).tocsr()

    parts = (_linear_partition("decay", L, stiff=True),
             Partition(name="soft", rhs=soft_rhs, jacobian=soft_jac))
    return SplitOdeSystem(dim=dim, partitions=parts)


def nonlinear_stiff(dim: int = 4, rate: float = 30.0) -> SplitOdeSystem:
    """Nonlinear stiff partition (needs Newton) plus an explicit drift."""

    def stiff_rhs(t, y):
        return -rate * y - y ** 3

    def stiff_jac(t, y):
        return sp.diags(-rate - 3.0 * y ** 2).tocsr()

    def drift_rhs(t, y):
        return np.cos(y) + np.sin(t) * np.ones_like(y)

    def drift_jac(t, y):
        return sp.diags(-np.sin(y)).tocsr()

    parts = (Partition(name="stiff", rhs=stiff_rhs, jacobian=stiff_jac,
                       stiff=True),
             Partition(name="drift", rhs=drift_rhs, jacobian=drift_jac))
    return SplitOdeSystem(dim=dim, partitions=parts)


# --- node-by-node assembly loops: oracles for the vectorized operators ------

def loop_laplacian(grid, D: np.ndarray) -> sp.csr_matrix:
    """Flux-form div(D grad u) assembled one node and one face at a time;
    D is the nodal coefficient field of shape grid.node_shape."""
    from gark.mesh import trapezoid_weights

    ny, nx = grid.node_shape
    idx = grid.unknown_index()
    hx, hy = np.diff(grid.xs), np.diff(grid.ys)
    wx, wy = trapezoid_weights(grid.xs), trapezoid_weights(grid.ys)
    rows, cols, vals = [], [], []

    def face(k, neighbor, d_face, h, w):
        coef = d_face / (h * w)
        rows.append(k)
        cols.append(k)
        vals.append(-coef)
        if neighbor >= 0:
            rows.append(k)
            cols.append(neighbor)
            vals.append(coef)

    for r in range(ny):
        for c in range(nx):
            k = idx[r, c]
            if k < 0:
                continue
            if c + 1 < nx:
                face(k, idx[r, c + 1], 0.5 * (D[r, c] + D[r, c + 1]),
                     hx[c], wx[c])
            if c - 1 >= 0:
                face(k, idx[r, c - 1], 0.5 * (D[r, c] + D[r, c - 1]),
                     hx[c - 1], wx[c])
            if r + 1 < ny:
                face(k, idx[r + 1, c], 0.5 * (D[r, c] + D[r + 1, c]),
                     hy[r], wy[r])
            if r - 1 >= 0:
                face(k, idx[r - 1, c], 0.5 * (D[r, c] + D[r - 1, c]),
                     hy[r - 1], wy[r])

    n = grid.num_unknowns
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _loop_match_indices(coarse, fine):
    out = np.empty(len(coarse), dtype=int)
    for k, (i, c) in enumerate(zip(np.searchsorted(fine, coarse), coarse)):
        hits = [j for j in (i - 1, i, i + 1) if 0 <= j < len(fine)
                and abs(fine[j] - c) <= 1e-12 * max(abs(c), 1.0)]
        out[k] = hits[0]
    return out


def loop_transfer(fine, coarse):
    """(restriction, prolongation) between nested grids, one node at a time."""
    ixs = _loop_match_indices(coarse.xs, fine.xs)
    iys = _loop_match_indices(coarse.ys, fine.ys)
    fine_idx = fine.unknown_index()
    coarse_idx = coarse.unknown_index()
    n_fine, n_coarse = fine.num_unknowns, coarse.num_unknowns

    rows, cols = [], []
    for jy, fy in enumerate(iys):
        for jx, fx in enumerate(ixs):
            c = coarse_idx[jy, jx]
            if c >= 0:
                rows.append(c)
                cols.append(fine_idx[fy, fx])
    restriction = sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_coarse, n_fine))

    rows, cols, vals = [], [], []
    cxs, cys = coarse.xs, coarse.ys
    for fy, y in enumerate(fine.ys):
        jy = min(max(int(np.searchsorted(cys, y, side="right")) - 1, 0),
                 len(cys) - 2)
        ty = (y - cys[jy]) / (cys[jy + 1] - cys[jy])
        for fx, x in enumerate(fine.xs):
            f = fine_idx[fy, fx]
            if f < 0:
                continue
            jx = min(max(int(np.searchsorted(cxs, x, side="right")) - 1, 0),
                     len(cxs) - 2)
            tx = (x - cxs[jx]) / (cxs[jx + 1] - cxs[jx])
            for (dy, wy) in ((0, 1.0 - ty), (1, ty)):
                for (dx, wx) in ((0, 1.0 - tx), (1, tx)):
                    w = wx * wy
                    if w == 0.0:
                        continue
                    c = coarse_idx[jy + dy, jx + dx]
                    if c < 0:
                        continue
                    rows.append(f)
                    cols.append(c)
                    vals.append(w)
    prolongation = sp.csr_matrix(
        (vals, (rows, cols)), shape=(n_fine, n_coarse))
    return restriction, prolongation


def nested_grids(name: str) -> list:
    """A problem's default 8x6 grid and two successive refine_marked grids."""
    from gark.systems import default_grid

    base = default_grid(name, 8, 6)
    once = base.refine_marked({(1, 1), (2, 1), (7, 5)})
    return [base, once, once.refine_marked({(0, 0), (4, 3), (5, 3), (9, 7)})]


# --- the four-solution estimate with every run stored: streaming's oracle ---

def stored_estimate(problem, tableau, time_grid, cfg=None):
    """ErrorReport of the estimate with all four runs stored whole; the
    space-refined run is restricted after the fact by restrict_run."""
    from gark.adjoint import adjoint_sweep
    from gark.estimation import (assemble_report, restrict_run,
                                 spatial_residuals, temporal_residuals)
    from gark.forward import integrate
    from gark.mesh import GridTransfer

    fine_grid = problem.grid.refine_uniform()
    fine_problem = rebuild_on(problem, fine_grid)
    fine_time = time_grid.halve_all_steps()

    numerical = integrate(problem, tableau, time_grid, cfg)
    time_refined = integrate(problem, tableau, fine_time, cfg)
    space_refined = integrate(fine_problem, tableau, time_grid, cfg)
    reference = integrate(fine_problem, tableau, fine_time, cfg)

    adjoint = adjoint_sweep(numerical, method="mu")
    transfer = GridTransfer.between(fine_grid, problem.grid)
    temporal = temporal_residuals(numerical, time_refined)
    spatial = spatial_residuals(numerical, restrict_run(
        numerical, space_refined, transfer, problem.num_species))
    psi_ref = float(fine_problem.goal.evaluate(reference.states[-1]))
    return assemble_report(numerical, adjoint, temporal, spatial, psi_ref)
