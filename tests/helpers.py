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

def stored_estimate(problem, tableau, time_grid):
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

    numerical = integrate(problem, tableau, time_grid)
    time_refined = integrate(problem, tableau, fine_time)
    space_refined = integrate(fine_problem, tableau, time_grid)
    reference = integrate(fine_problem, tableau, fine_time)

    adjoint = adjoint_sweep(numerical, method="mu")
    transfer = GridTransfer.between(fine_grid, problem.grid)
    temporal = temporal_residuals(numerical, time_refined)
    spatial = spatial_residuals(numerical, restrict_run(
        numerical, space_refined, transfer, problem.num_species))
    psi_ref = float(fine_problem.goal.evaluate(reference.states[-1]))
    return assemble_report(numerical, adjoint, temporal, spatial, psi_ref)


# --- stage loops that scan the whole tableau: oracles for the stage plan ----

def plan_cases():
    """(id, problem, time grid, tableau) on which the planned stage loops
    are checked against the scanning ones: three problems, equal and
    unequal weights, and both partition orders.  Stiff flags are cleared so
    integrate runs each tableau as given: the plain tableau treats
    partition 1 implicitly, the permuted one partition 0."""
    import dataclasses

    from gark.mesh import TimeGrid
    from gark.systems import build_problem, default_grid
    from gark.tableau import build_imex22

    def nonstiff(problem):
        parts = tuple(dataclasses.replace(p, stiff=False)
                      for p in problem.system.partitions)
        return dataclasses.replace(problem, system=SplitOdeSystem(
            dim=problem.system.dim, partitions=parts))

    grid = TimeGrid.uniform(0.0, 0.2, 0.02)
    problems = (
        ("nonlinear_stiff", wrap(nonlinear_stiff(), np.full(4, 0.4), 0.2),
         grid),
        ("stiff_relaxation", wrap(stiff_relaxation(), np.full(5, 0.5), 0.2),
         grid),
        ("gray_scott", build_problem("gray_scott",
                                     default_grid("gray_scott", 4, 4)),
         TimeGrid.uniform(0.0, 2.0, 0.25)))
    cases = []
    for name, problem, time_grid in problems:
        for alpha in (None, 0.33):
            for permuted in (False, True):
                tableau = build_imex22(alpha=alpha)
                if permuted:
                    tableau = tableau.permute_partitions((1, 0))
                cases.append((f"{name}-alpha{alpha}-"
                              f"{'permuted' if permuted else 'plain'}",
                              nonstiff(problem), time_grid, tableau))
    return cases


def scan_step(system, tableau, t, h, y, cache):
    """One forward step that looks every coefficient up in the coupling
    matrices, scanning the whole schedule per stage; returns (y_next,
    stage_values, stage_slopes)."""
    from gark import forward

    def combine(q, i, slopes):
        out = y.copy()
        for m, j in tableau.stage_schedule:
            a = tableau.coupling[q][m][i, j]
            if a != 0.0 and (m, j) != (q, i):
                out += (h * a) * slopes[(m, j)]
        return out

    values, slopes = {}, {}
    for q, i in tableau.stage_schedule:
        t_i = t + float(tableau.abscissae(q)[i]) * h
        a_ii = float(tableau.coupling[q][q][i, i])
        rhs = combine(q, i, slopes)
        if a_ii == 0.0:
            y_stage = rhs
            slope = system.f(q, t_i, y_stage)
        elif system.partitions[q].linear:
            coef = h * a_ii
            lu = cache.get(system, q, t_i, y, coef)
            slope = lu.solve(system.f(q, t_i, rhs), trans="T")
            y_stage = rhs + coef * slope
        else:
            coef, y_stage = h * a_ii, y.copy()
            for _ in range(forward.MAX_NEWTON_ITERATIONS + 1):
                residual = y_stage - rhs - coef * system.f(q, t_i, y_stage)
                if np.linalg.norm(residual) <= forward.NEWTON_ATOL \
                        + forward.NEWTON_RTOL * max(
                            1.0, float(np.linalg.norm(y_stage))):
                    break
                y_stage = y_stage + forward.factorize(
                    system, q, t_i, y_stage, coef).solve(-residual,
                                                         trans="T")
            slope = system.f(q, t_i, y_stage)
        values[(q, i)] = y_stage
        slopes[(q, i)] = slope

    y_next = y.copy()
    for q, i in tableau.stage_schedule:
        b = tableau.weights[q][i]
        if b != 0.0:
            y_next += (h * b) * slopes[(q, i)]
    return y_next, values, slopes


def scan_adjoint_sweep(trajectory, method):
    """The three reverse sweeps with coefficients looked up per stage in the
    coupling matrices (ell: in adjoint_coefficients); returns lam and the
    per-stage stores by name."""
    from gark.tableau import adjoint_coefficients

    system, tableau = trajectory.system, trajectory.tableau
    n_steps, dim = trajectory.num_steps, system.dim
    abar = adjoint_coefficients(tableau) if method == "ell" else None
    reverse_schedule = tuple(reversed(tableau.stage_schedule))
    names = {"theta": ("theta",), "mu": ("theta", "mu"),
             "ell": ("ell", "stage_adjoint")}[method]
    stores = {name: [np.zeros((n_steps, s, dim))
                     for s in tableau.stage_counts] for name in names}
    lam = np.empty((n_steps + 1, dim))
    lam[n_steps] = trajectory.problem.goal.gradient(trajectory.states[-1])

    def solve(q, t_i, y_stage, coef, rhs):
        if coef == 0.0:
            return rhs
        lu = trajectory.factors.get(system, q, t_i, y_stage, coef)
        return lu.solve(rhs)

    for n in range(n_steps - 1, -1, -1):
        h = float(trajectory.time_grid.steps[n])
        lam_next, theta, ell = lam[n + 1], {}, {}
        for q, i in reverse_schedule:
            t_i = trajectory.stage_time(n, q, i)
            y_stage = trajectory.stage_values[q][n, i]
            h_aii = h * float(tableau.coupling[q][q][i, i])
            if method == "ell":
                acc = lam_next.copy()
                for (m, j), val in ell.items():
                    coef = abar.coupling[q][m][i, j]
                    if coef != 0.0:
                        acc += (h * coef) * val
                vec = solve(q, t_i, y_stage, h_aii,
                            system.vjp(q, t_i, y_stage, acc))
                ell[(q, i)] = stores["ell"][q][n, i] = vec
                stores["stage_adjoint"][q][n, i] = \
                    acc + (h * abar.coupling[q][q][i, i]) * vec
                continue
            acc = float(tableau.weights[q][i]) * lam_next
            for (m, j), val in theta.items():
                coef = tableau.coupling[m][q][j, i]
                if coef != 0.0:
                    acc += coef * val
            if method == "theta":
                vec = solve(q, t_i, y_stage, h_aii,
                            h * system.vjp(q, t_i, y_stage, acc))
            else:
                mu = stores["mu"][q][n, i] = solve(q, t_i, y_stage, h_aii,
                                                   h * acc)
                vec = system.vjp(q, t_i, y_stage, mu)
            theta[(q, i)] = stores["theta"][q][n, i] = vec

        lam_n = lam_next.copy()
        for q, i in reverse_schedule:
            if method != "ell":
                lam_n += theta[(q, i)]
            elif tableau.weights[q][i] != 0.0:
                lam_n += (h * tableau.weights[q][i]) * ell[(q, i)]
        lam[n] = lam_n
    return lam, stores
