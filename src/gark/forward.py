"""Forward time stepping for additively split systems.

One step walks the tableau's stage plan in schedule order, each stage
combining only the earlier slopes it reads.  A stage with a nonzero
own-diagonal coefficient solves Y = rhs + h a_ii f^(q)(T_i, Y): on a
linear partition its stage solver's slope gives k = f(Y) =
(I - h a_ii J)^-1 f(rhs), and Y = rhs + h a_ii k; otherwise by full
Newton iteration (fixed tolerances, below).  Everything else is an
explicit update, and no stage copies y_n.  y_{n+1} is the last stage's
value when the tableau is stiffly accurate (GarkTableau.last_stage_is_step)
and that stage is explicit or linear implicit, as that value then is y_n +
h sum b k bitwise; otherwise it is that weighted sum (combine_step).  A
stage solver's adjoint(t, y, x, keep_mu) takes the adjoint sweep's stage:
mu = (I - h a_ii J)^-T x and theta = J^T mu (factorize), and a SuperLU
solver's solve(b) the Newton stage's system (I - h a_ii J) x = b.  A
diffusion partition with a separable constant-coefficient operator is
solved by fast diagonalization, four small matrix products on its 1-D
eigenbases, and a stage's slope, or its theta, is one such round trip with
no f or vjp call (SeparableStageSolver); any other partition by SuperLU
with a symmetric minimum-degree column ordering (MMD on A^T + A), and a
stage's slope is one f call and one solve, its theta one solve and one vjp
call (SuperLUStageSolver).  SciPy is imported on the first SuperLU
factorization, so a run whose stage solves are all separable never loads
it.  Every stage solver comes from one LinearStageCache made for its
system, which keeps the solvers of partitions with constant Jacobians, one
per (partition, h a_ii) up to step-size jitter, and refactors Newton
stages; step refuses a cache of another system.  integrate stores what the
adjoint sweep reads (every state, the stage values of the nonlinear
partitions, and the cache), or
hands each finished step, its stage values and slopes included, to a
consumer and keeps only y_N.  A linear partition's Jacobian ignores the
state, so no reader needs its stage values and no run stores them; an
explicit stage that reads no slope has the value y_n bitwise, so no run
stores it either (stored_stage_rows).  A consumer is the only reader of the
slopes, which no run stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gark.mesh import TimeGrid
from gark.systems import ProblemInstance, SeparableLaplacian, SplitOdeSystem
from gark.tableau import GarkTableau, UnsupportedTableauError

# Newton stops when |Y - rhs - coef f(Y)| <= ATOL + RTOL max(1, |Y|).
NEWTON_RTOL = 1e-10
NEWTON_ATOL = 1e-12
MAX_NEWTON_ITERATIONS = 20
# Stage coefficients h a_ii this close, relatively, share one stage solver:
# step sizes are differences of nodes and jitter by about 1e-14.
COEF_RTOL = 1e-10


class StepFailureError(RuntimeError):
    """Newton stalled on an implicit stage, or a step's new state is not
    finite; integrate adds the step index, estimate_errors the name of its
    run and run_campaign the stage."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.run = None

    def __str__(self) -> str:
        run = "" if self.run is None else f"{self.run} run, "
        where = "" if self.step_index is None else f"step {self.step_index}, "
        return run + where + self.args[0]


def factorize(system: SplitOdeSystem, q: int, t: float, y: np.ndarray,
              coef: float):
    """A solver of the stage matrix I - coef * J^(q)(t, y).

    adjoint(t, y, x, keep_mu) gives the adjoint stage's (mu, theta),
    mu = (I - coef J)^-T x, or None unless keep_mu, and theta = J^T mu with
    J taken at (t, y); and on a linear partition slope(t, rhs) is its
    stage's slope k = (I - coef J)^-1 f^(q)(t, rhs).  A separable partition
    gets a SeparableStageSolver; any other a SuperLUStageSolver, for which
    SciPy is imported here, whose solve(b) solves (I - coef J) x = b for
    Newton.
    """
    separable = system.partitions[q].separable
    if separable is not None:
        return SeparableStageSolver(separable, coef)
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    jac = system.jac(q, t, y)
    matrix = sp.identity(system.dim, format="csr") - coef * jac
    return SuperLUStageSolver(
        system, q, spla.splu(matrix.T.tocsc(), permc_spec="MMD_AT_PLUS_A"))


class SuperLUStageSolver:
    """SuperLU's factors lu of the transpose (I - coef J)^T, whose columns
    are ordered by minimum degree on the structure of A^T + A, which fits
    the structurally symmetric diffusion stencils better than SuperLU's
    default COLAMD.  solve takes SuperLU's faster transposed kernel, and
    adjoint's mu the plain one; slope is one f call and one solve, and
    adjoint's theta one vjp call on that mu."""

    __slots__ = ("system", "q", "lu")

    def __init__(self, system: SplitOdeSystem, q: int, lu):
        self.system, self.q, self.lu = system, q, lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b, trans="T")

    def slope(self, t: float, rhs: np.ndarray) -> np.ndarray:
        return self.solve(self.system.f(self.q, t, rhs))

    def adjoint(self, t: float, y: np.ndarray, x: np.ndarray,
                keep_mu: bool) -> tuple:
        mu = self.lu.solve(x)
        return (mu if keep_mu else None), self.system.vjp(self.q, t, y, mu)


class SeparableStageSolver:
    """(I - coef J)^-1 of a separable diffusion partition by fast
    diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964): each
    species' (ny, nx) array goes into the operator's eigenbasis by two small
    matrix products, is scaled there, and comes back by two more, or by the
    four's transposes in adjoint.  adjoint's mu scales by 1 / (1 - coef s
    lam); slope and adjoint's theta, as J is s lam in that basis and the
    partition's rhs is J y, by s lam / (1 - coef s lam), with no f or vjp
    call.  It has no solve: only Newton stages call one, and a separable
    partition is linear.  The basis is the partition's, computed once; a
    solver keeps only its two scalings.
    """

    def __init__(self, separable: SeparableLaplacian, coef: float):
        lam, self._forward, self._transposed = separable.diagonalization
        self._shape = (len(separable.scales), *lam.shape)
        eigenvalues = np.multiply.outer(separable.scales, lam)
        self._scaling = 1.0 / (1.0 - coef * eigenvalues)
        self._slope_scaling = eigenvalues * self._scaling

    def slope(self, t: float, rhs: np.ndarray) -> np.ndarray:
        into_a, into_b, out_a, out_b = self._forward
        z = into_a @ rhs.reshape(self._shape) @ into_b
        z *= self._slope_scaling
        return (out_a @ z @ out_b).reshape(-1)

    def adjoint(self, t: float, y: np.ndarray, x: np.ndarray,
                keep_mu: bool) -> tuple:
        # theta is taken before z is scaled in place, so its bits do not
        # depend on keep_mu
        into_a, into_b, out_a, out_b = self._transposed
        z = into_a @ x.reshape(self._shape) @ into_b
        theta = (out_a @ (z * self._slope_scaling) @ out_b).reshape(-1)
        if not keep_mu:
            return None, theta
        z *= self._scaling
        return (out_a @ z @ out_b).reshape(-1), theta


class LinearStageCache:
    """Stage solvers of I - coef*J for one system (see factorize), the one
    way in to factorize: shared by a trajectory's steps, its temporal
    residuals and its adjoint sweep, and by any other run on the system
    given the cache through integrate(factors=).

    Only partitions with constant Jacobians are stored.  A coefficient
    reuses the first stored solver of its partition whose coefficient lies
    within COEF_RTOL of it, searched in insertion order: the jitter of
    nominally equal step sizes maps onto one solver, and every solve at a
    coefficient meets the solver its first solve met.  Other partitions are
    factored afresh at (t, y) on every call.
    """

    def __init__(self, system: SplitOdeSystem):
        self.system = system
        self._store: dict[int, tuple] = {}

    def get(self, q, t, y, coef):
        if not self.system.partitions[q].linear:
            return factorize(self.system, q, t, y, coef)
        entries = self._store.get(q, ())
        for stored, lu in entries:
            if abs(coef - stored) <= COEF_RTOL * abs(stored):
                return lu
        lu = factorize(self.system, q, t, y, coef)
        self._store[q] = (*entries, (coef, lu))
        return lu


def combine_stage_argument(y: np.ndarray, h: float, terms: tuple,
                           slopes: dict) -> np.ndarray:
    """y + h * sum a k^(m)_j over terms, (m, j, a) in their order.  The sum
    starts as y + (first term), and no terms give y itself: no caller
    writes into the result."""
    if not terms:
        return y
    m, j, a = terms[0]
    out = y + (h * a) * slopes[(m, j)]
    for m, j, a in terms[1:]:
        out += (h * a) * slopes[(m, j)]
    return out


def combine_step(y: np.ndarray, h: float, tableau: GarkTableau,
                 slopes: dict) -> np.ndarray:
    """y + h * sum b^(q)_i k^(q)_i over the tableau's step_terms."""
    return combine_stage_argument(y, h, tableau.step_terms, slopes)


@dataclass
class StepResult:
    y_next: np.ndarray
    stage_values: dict
    stage_slopes: dict


def step(system: SplitOdeSystem, tableau: GarkTableau, t: float, h: float,
         y: np.ndarray, cache: LinearStageCache | None = None) -> StepResult:
    """Advance one step of size h from (t, y), partition q of the tableau
    on partition q of the system.  A cache made for another system raises
    ValueError: it does not hold this system's stage matrices."""
    if cache is None:
        cache = LinearStageCache(system)
    elif cache.system is not system:
        raise ValueError("this factor cache holds the stage factors of "
                         "another system; each system needs its own cache")
    slopes: dict = {}
    values: dict = {}

    for stage in tableau.plan:
        q = stage.q
        t_i = t + stage.c * h
        rhs = combine_stage_argument(y, h, stage.reads, slopes)
        if stage.a_ii == 0.0:
            y_stage = rhs
            slope = system.f(q, t_i, y_stage)
        elif system.partitions[q].linear:
            # (I - coef J) k = f(rhs) gives k = f(rhs + coef k) = f(Y)
            coef = h * stage.a_ii
            slope = cache.get(q, t_i, y, coef).slope(t_i, rhs)
            y_stage = rhs + coef * slope
        else:
            y_stage, slope = _newton_stage(system, cache, stage, t_i,
                                           h * stage.a_ii, rhs, y)
        values[(q, stage.i)] = y_stage
        slopes[(q, stage.i)] = slope

    last = tableau.plan[-1]
    if tableau.last_stage_is_step and (last.a_ii == 0.0
                                       or system.partitions[last.q].linear):
        # its value summed the step's terms in their order: y_stage is
        # y_{n+1} bitwise; a Newton stage's value is off that sum by its
        # residual
        return StepResult(y_stage, values, slopes)
    return StepResult(combine_step(y, h, tableau, slopes), values, slopes)


def _newton_stage(system, cache, stage, t_i, coef, rhs, predictor):
    q = stage.q
    y = predictor.copy()
    res = float("inf")
    for it in range(MAX_NEWTON_ITERATIONS + 1):
        f_val = system.f(q, t_i, y)
        residual = y - rhs - coef * f_val
        res = float(np.linalg.norm(residual))
        tol = NEWTON_ATOL + NEWTON_RTOL * max(1.0, float(np.linalg.norm(y)))
        if res <= tol:
            return y, f_val
        if it == MAX_NEWTON_ITERATIONS:
            break
        y = y + cache.get(q, t_i, y, coef).solve(-residual)
    raise StepFailureError(
        f"stage ({q + 1},{stage.i + 1}) of partition "
        f"{system.partitions[q].name!r} at t_i = {t_i:.6g}: Newton stalled "
        f"at residual {res:.3e} after {MAX_NEWTON_ITERATIONS} iterations")


def stored_stage_rows(tableau: GarkTableau, system: SplitOdeSystem) -> tuple:
    """Per partition, {stage i: row} of the stage values a stored run
    keeps, rows in stage order.  A linear partition keeps none, as its
    Jacobian ignores the state, and neither does an explicit stage that
    reads no slope: its value is y_n bitwise."""
    moved = {(st.q, st.i) for st in tableau.plan if st.a_ii != 0.0 or st.reads}
    rows = []
    for q, (part, s) in enumerate(zip(system.partitions,
                                      tableau.stage_counts)):
        kept = [] if part.linear else [i for i in range(s) if (q, i) in moved]
        rows.append({i: row for row, i in enumerate(kept)})
    return tuple(rows)


@dataclass
class ForwardTrajectory:
    """States and stage values of one forward integration.

    states has shape (num_steps + 1, dim) and stage_values[q] shape
    (num_steps, rows_q, dim) with one row per stage of stored_stage_rows,
    or None where partition q keeps no row: what the adjoint sweep reads,
    through stage_point.  factors holds the run's stage solvers.  A
    run made with a step consumer keeps only states = [y_N]: no stage
    values and no factors.
    """

    problem: ProblemInstance
    tableau: GarkTableau
    time_grid: TimeGrid
    states: np.ndarray
    stage_values: list | None
    factors: LinearStageCache | None = None

    @property
    def stage_slopes(self) -> None:
        """Always None: no run stores its slopes.  Kept only for perfbench's
        stage-byte count (perfbench/layers.py), its one reader."""
        return None

    @property
    def system(self) -> SplitOdeSystem:
        return self.problem.system

    @property
    def num_steps(self) -> int:
        return self.time_grid.num_steps

    def require_stored(self, what: str) -> None:
        """Raise ValueError when the run holds no stage values."""
        if self.stage_values is None:
            raise ValueError(
                f"{what} needs stored stages and states; this run was streamed "
                "(it kept only its final state) or its stage values released")

    @cached_property
    def _stage_rows(self) -> tuple:
        return stored_stage_rows(self.tableau, self.system)

    def stage_point(self, n: int, q: int, i: int) -> np.ndarray:
        """Where stage (q, i) of step n takes its Jacobian: the stored stage
        value, or y_n where none is stored (a linear partition, whose
        Jacobian ignores it, or an explicit stage whose value is y_n)."""
        row = self._stage_rows[q].get(i)
        return self.states[n] if row is None else self.stage_values[q][n, row]


@np.errstate(over="ignore", invalid="ignore")
def integrate(problem: ProblemInstance, tableau: GarkTableau,
              time_grid: TimeGrid, consumer=None,
              factors: LinearStageCache | None = None) -> ForwardTrajectory:
    """Integrate the problem over the time grid from problem.y0.

    The tableau is validated first, and must have as many partitions as
    the system: its partition q is the system's partition q.
    A step whose new state is not finite raises StepFailureError; numpy's
    overflow and invalid-value warnings are off, as that check reports them.
    Without a consumer the trajectory keeps every state, the stage values
    of its nonlinear partitions that move off y_n (stored_stage_rows) and
    the cache of constant-Jacobian stage solvers.
    With one, consumer(n, y_n, StepResult) is called as each step finishes
    and the returned trajectory is streamed: it keeps only y_N.  factors, a
    cache made for the same system (step refuses another), is read and
    filled instead of a new one, so runs at shared step sizes factor each
    stage matrix once; a streamed run does not keep it.
    """
    report = tableau.validate()
    if not report.ok:
        raise UnsupportedTableauError(f"invalid tableau: {report}")
    system = problem.system
    if tableau.num_partitions != system.num_partitions:
        raise UnsupportedTableauError(
            f"tableau has {tableau.num_partitions} partitions, "
            f"system has {system.num_partitions}")
    y = np.array(problem.y0, dtype=float)
    if y.shape != (system.dim,):
        raise ValueError(f"initial state has shape {y.shape}, "
                         f"expected ({system.dim},)")

    n_steps = time_grid.num_steps
    cache = LinearStageCache(system) if factors is None else factors
    stored = consumer is None
    if stored:
        states = np.empty((n_steps + 1, system.dim))
        states[0] = y
        rows = stored_stage_rows(tableau, system)
        values = [np.empty((n_steps, len(r), system.dim)) if r else None
                  for r in rows]

        def consumer(n, y_n, result):
            states[n + 1] = result.y_next
            for q, r in enumerate(rows):
                for i, row in r.items():
                    values[q][n, row] = result.stage_values[(q, i)]

    for n, (t, h) in enumerate(zip(time_grid.nodes.tolist(),
                                   time_grid.steps.tolist())):
        try:
            result = step(system, tableau, t, h, y, cache)
        except StepFailureError as err:
            err.step_index = n
            raise
        if not np.isfinite(result.y_next).all():
            raise StepFailureError(f"from t = {t:.6g} to {t + h:.6g}: the "
                                   "new state is not finite", step_index=n)
        consumer(n, y, result)
        y = result.y_next

    if not stored:
        states, values, cache = y[None], None, None
    return ForwardTrajectory(problem=problem, tableau=tableau,
                             time_grid=time_grid, states=states,
                             stage_values=values, factors=cache)
