"""Small problem builders shared by the test modules."""

import numpy as np
import scipy.sparse as sp

from gark.systems import (GoalFunction, Partition, ProblemInstance,
                          SplitOdeSystem, rebuild_on)


def assert_bitwise(actual, expected) -> None:
    """Equal floats or float arrays, down to the sign of zero."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def at_coarse_nodes(run, coarse_grid) -> np.ndarray:
    """The states of a stored finer run at the nodes of coarse_grid, each of
    which must be a node of the run's time grid within 1e-12 relative."""
    nodes, coarse = run.time_grid.nodes, coarse_grid.nodes
    idx = np.abs(nodes[:, None] - coarse).argmin(axis=0)
    assert np.all(np.abs(nodes[idx] - coarse)
                  <= 1e-12 * np.maximum(np.abs(coarse), 1.0))
    return run.states[idx]


def linear_goal(w) -> GoalFunction:
    """Q(y) = w . y, whose gradient w seeds the adjoint sweep."""
    w = np.asarray(w, dtype=float)
    return GoalFunction(evaluate=lambda y: float(w @ y),
                        gradient=lambda y: w.copy())


def sum_goal(dim: int) -> GoalFunction:
    return linear_goal(np.ones(dim))


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


def loop_bisect(coords, marked) -> np.ndarray:
    """coords with the midpoint of every marked interval inserted, one
    interval at a time."""
    out = [coords[0]]
    for i in range(len(coords) - 1):
        if i in marked:
            out.append(coords[i] + 0.5 * (coords[i + 1] - coords[i]))
        out.append(coords[i + 1])
    return np.array(out)


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


def thrice_refined(name: str):
    """A problem's default 8x6 grid after three refine_marked passes: 18x13
    cells, whose x spacings vary eightfold."""
    grid = nested_grids(name)[-1]
    return grid.refine_marked({(2, 2), (3, 2), (12, 9)})


# --- stage slopes, which only a step consumer sees -------------------------

class StepRecorder:
    """Step consumer keeping every step of a run as a stored run would lay
    it out, slopes included: states (num_steps + 1, dim) and, per partition
    q, stage_values[q] and stage_slopes[q] of shape (num_steps, s_q, dim)."""

    def __init__(self):
        self.steps = []

    def __call__(self, n, y_n, result):
        assert n == len(self.steps)
        self.steps.append((y_n, result))

    @property
    def states(self) -> np.ndarray:
        return np.array([y for y, _ in self.steps]
                        + [self.steps[-1][1].y_next])

    @property
    def stage_values(self) -> list:
        return self._stages("stage_values")

    @property
    def stage_slopes(self) -> list:
        return self._stages("stage_slopes")

    def _stages(self, name):
        keys = getattr(self.steps[0][1], name)
        counts = [1 + max(i for m, i in keys if m == q)
                  for q in range(1 + max(q for q, _ in keys))]
        return [np.array([[getattr(result, name)[(q, i)] for i in range(s)]
                          for _, result in self.steps])
                for q, s in enumerate(counts)]

    def step_identity_residual(self, run) -> float:
        """max_n |y_{n+1} - y_n - h_n sum b k| over the recorded steps of
        run, the trajectory integrate returned."""
        from gark.forward import combine_step

        return max(float(np.max(np.abs(
            combine_step(y_n, h, run.tableau, result.stage_slopes)
            - result.y_next)))
            for (y_n, result), h in zip(self.steps, run.time_grid.steps))

    def stage_consistency_residual(self, run) -> float:
        """max |Y - (y_n + h sum a k)| over all recorded stages: exactly 0
        on explicit and linear implicit stages, Newton-tolerance small on
        the others."""
        from gark.forward import combine_stage_argument

        return max(float(np.max(np.abs(
            combine_stage_argument(y_n, h, stage.value_terms,
                                   result.stage_slopes)
            - result.stage_values[(stage.q, stage.i)])))
            for (y_n, result), h in zip(self.steps, run.time_grid.steps)
            for stage in run.tableau.plan)


class RestrictedRun:
    """Step consumer keeping a fine run's y_n and stage slopes restricted to
    the coarse space grid, in arrays shaped like the coarse trajectory's:
    the fine argument of gark.estimation.spatial_residuals.

    The fine run must step on the coarse trajectory's time grid: a step
    past its last raises ValueError at once, and spatial_residuals refuses
    a run that ended early.  num_steps counts the steps handed in.
    """

    def __init__(self, coarse, transfer):
        self.transfer = transfer
        dim, n_steps = coarse.system.dim, coarse.num_steps
        self.num_steps = 0
        self.states = np.empty((n_steps, dim))
        self.slopes = [np.empty((n_steps, s, dim))
                       for s in coarse.tableau.stage_counts]

    def __call__(self, n, y_n, result) -> None:
        if n >= len(self.states):
            raise ValueError(
                f"fine run step {n} lies past the coarse time grid's "
                f"{len(self.states)} steps; the runs must share the time grid")
        self.states[n] = self.transfer.restrict_state(y_n)
        for (q, i), slope in result.stage_slopes.items():
            self.slopes[q][n, i] = self.transfer.restrict_state(slope)
        self.num_steps = n + 1


# --- the four-solution estimate with every run stored: streaming's oracle ---

def stored_space_refined(problem, tableau, time_grid):
    """The space-refined run of the estimate, its fine slopes recorded whole
    and restricted after the run, all steps at once: the fine argument of
    gark.estimation.spatial_residuals."""
    from types import SimpleNamespace

    from gark.forward import integrate
    from gark.mesh import GridTransfer

    fine_grid = problem.grid.refine_uniform()
    space_refined = StepRecorder()
    integrate(rebuild_on(problem, fine_grid), tableau, time_grid,
              consumer=space_refined)
    transfer = GridTransfer.between(fine_grid, problem.grid)

    def restrict(stacked):  # species-major stacked vectors on the last axis
        return transfer.restrict(stacked.reshape(
            *stacked.shape[:-1], -1, fine_grid.num_unknowns)).reshape(
            *stacked.shape[:-1], -1)

    return SimpleNamespace(
        num_steps=time_grid.num_steps,
        states=restrict(space_refined.states[:-1]),
        slopes=[restrict(k) for k in space_refined.stage_slopes])


def stored_estimate(problem, tableau, time_grid):
    """ErrorReport of the estimate with the numerical, time-refined and
    reference runs stored whole, every partition's mu stored and weighed,
    and the space-refined run from stored_space_refined."""
    from gark.adjoint import adjoint_sweep
    from gark.estimation import (assemble_report, spatial_residuals,
                                 temporal_residuals)
    from gark.forward import integrate

    fine_problem = rebuild_on(problem, problem.grid.refine_uniform())
    fine_time = time_grid.halve_all_steps()

    numerical = integrate(problem, tableau, time_grid)
    time_refined = integrate(problem, tableau, fine_time)
    restricted = stored_space_refined(problem, tableau, time_grid)
    reference = integrate(fine_problem, tableau, fine_time)

    adjoint = adjoint_sweep(numerical)
    temporal = temporal_residuals(numerical,
                                  at_coarse_nodes(time_refined, time_grid))
    spatial = spatial_residuals(numerical, restricted)
    psi_ref = float(fine_problem.goal.evaluate(reference.states[-1]))
    return assemble_report(numerical, adjoint, temporal, spatial, psi_ref)


def mu_theta(trajectory, adjoint):
    """theta = J^T mu of a mu sweep, which the sweep does not keep: the
    vector-Jacobian product it takes at each stage_point, so the arrays
    equal the sweep's bitwise."""
    system, grid = trajectory.system, trajectory.time_grid
    theta = [np.empty_like(mu) for mu in adjoint.mu]
    for n in range(trajectory.num_steps):
        t, h = float(grid.nodes[n]), float(grid.steps[n])
        for stage in trajectory.tableau.plan:
            q, i = stage.q, stage.i
            theta[q][n, i] = system.vjp(q, t + stage.c * h,
                                        trajectory.stage_point(n, q, i),
                                        adjoint.mu[q][n, i])
    return theta


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
            slope = cache.get(q, t_i, y, coef).slope(t_i, rhs)
            y_stage = rhs + coef * slope
        else:
            coef, y_stage = h * a_ii, y.copy()
            for _ in range(forward.MAX_NEWTON_ITERATIONS + 1):
                residual = y_stage - rhs - coef * system.f(q, t_i, y_stage)
                if np.linalg.norm(residual) <= forward.NEWTON_ATOL \
                        + forward.NEWTON_RTOL * max(
                            1.0, float(np.linalg.norm(y_stage))):
                    break
                y_stage = y_stage + cache.get(q, t_i, y_stage, coef).solve(
                    -residual, trans="T")
            slope = system.f(q, t_i, y_stage)
        values[(q, i)] = y_stage
        slopes[(q, i)] = slope

    y_next = y.copy()
    for q, i in tableau.stage_schedule:
        b = tableau.weights[q][i]
        if b != 0.0:
            y_next += (h * b) * slopes[(q, i)]
    return y_next, values, slopes


def form_lam(trajectory, method):
    """lam of one adjoint form: the program's sweep for "mu", the scan's
    for "theta" and "ell"."""
    from gark.adjoint import adjoint_sweep

    if method == "mu":
        return adjoint_sweep(trajectory).lam
    return scan_adjoint_sweep(trajectory, method)[0]


def scan_adjoint_sweep(trajectory, method):
    """The theta, mu and ell reverse sweeps with coefficients looked up per
    stage in the coupling matrices (ell: in adjoint_coefficients); returns
    lam and the per-stage stores by name.  Its mu sweep checks the
    program's, and its theta and ell sweeps are the only ones there are:
    criterion 4's routes to the same adjoint by other recursions."""
    from gark.tableau import adjoint_coefficients

    system, tableau = trajectory.system, trajectory.tableau
    n_steps, dim = trajectory.num_steps, system.dim
    abar = adjoint_coefficients(tableau) if method == "ell" else None
    reverse_schedule = tuple(reversed(tableau.stage_schedule))
    names = {"theta": ("theta",), "mu": ("mu",),
             "ell": ("ell", "stage_adjoint")}[method]
    stores = {name: [np.zeros((n_steps, s, dim))
                     for s in tableau.stage_counts] for name in names}
    lam = np.empty((n_steps + 1, dim))
    lam[n_steps] = trajectory.problem.goal.gradient(trajectory.states[-1])

    def solve(q, t_i, y_stage, coef, rhs):
        if coef == 0.0:
            return rhs
        lu = trajectory.factors.get(q, t_i, y_stage, coef)
        return lu.solve(rhs)

    for n in range(n_steps - 1, -1, -1):
        h = float(trajectory.time_grid.steps[n])
        lam_next, theta, ell = lam[n + 1], {}, {}
        for q, i in reverse_schedule:
            t_i = trajectory.stage_time(n, q, i)
            y_stage = trajectory.stage_point(n, q, i)
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
                vec = stores["theta"][q][n, i] = solve(
                    q, t_i, y_stage, h_aii,
                    h * system.vjp(q, t_i, y_stage, acc))
            else:
                mu = stores["mu"][q][n, i] = solve(q, t_i, y_stage, h_aii,
                                                   h * acc)
                vec = system.vjp(q, t_i, y_stage, mu)
            theta[(q, i)] = vec

        lam_n = lam_next.copy()
        for q, i in reverse_schedule:
            if method != "ell":
                lam_n += theta[(q, i)]
            elif tableau.weights[q][i] != 0.0:
                lam_n += (h * tableau.weights[q][i]) * ell[(q, i)]
        lam[n] = lam_n
    return lam, stores
