"""Forward time stepping for additively split systems.

One step walks the tableau's stage plan in schedule order, each stage
combining only the earlier slopes it reads.  A stage with a nonzero
own-diagonal coefficient solves Y = rhs + h a_ii f^(q)(T_i, Y): on a
linear partition its slope k = f(Y) comes from one solve,
(I - h a_ii J) k = f(rhs), so the stage makes one f call and Y = rhs +
h a_ii k; otherwise by full Newton iteration (fixed tolerances, below).
Everything else is an explicit update.  SuperLU factors the transpose
(I - h a_ii J)^T of every stage matrix, with a symmetric minimum-degree
column ordering (MMD on A^T + A): forward solves take SuperLU's faster
transposed kernel, and the adjoint, with far fewer solves, the plain one.
Each trajectory keeps one LinearStageCache of the factors for partitions
with constant Jacobians, one per (partition, h a_ii) up to step-size
jitter; the reversed sweep reads the same cache, and runs on the same
system may share it.  integrate stores what the adjoint sweep reads (every
state and stage value, and the factors), or hands each finished step, its
stage slopes included, to a consumer and keeps only y_N.  A consumer is
the only reader of the slopes: no run stores them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gark.mesh import TimeGrid
from gark.systems import ProblemInstance, SplitOdeSystem
from gark.tableau import GarkTableau, PlannedStage, UnsupportedTableauError

# Newton stops when |Y - rhs - coef f(Y)| <= ATOL + RTOL max(1, |Y|).
NEWTON_RTOL = 1e-10
NEWTON_ATOL = 1e-12
MAX_NEWTON_ITERATIONS = 20
# Stage coefficients h a_ii this close, relatively, share one factorization:
# step sizes are differences of nodes and jitter by about 1e-14.
COEF_RTOL = 1e-10


class StepFailureError(RuntimeError):
    """Newton iteration on an implicit stage did not converge; the message
    names the stage, and integrate adds the step index."""

    def __init__(self, message: str, iterations: int, residual_norm: float,
                 step_index: int | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.step_index = step_index

    def __str__(self) -> str:
        where = "" if self.step_index is None else f"step {self.step_index}, "
        return where + self.args[0]


def factorize(system: SplitOdeSystem, q: int, t: float, y: np.ndarray,
              coef: float):
    """SuperLU factors of the transpose (I - coef * J^(q)(t, y))^T.

    solve(b, trans="T") solves the stage system (I - coef J) x = b, and
    solve(b) its transpose.  The columns are ordered by minimum degree on
    the structure of A^T + A, which fits the structurally symmetric
    diffusion stencils better than SuperLU's default COLAMD.
    """
    jac = system.jac(q, t, y)
    matrix = sp.identity(system.dim, format="csr") - coef * jac
    return spla.splu(matrix.T.tocsc(), permc_spec="MMD_AT_PLUS_A")


class LinearStageCache:
    """Factorizations of (I - coef*J)^T for one system (see factorize for
    the solve directions), shared by a trajectory's steps, its temporal
    residuals and its adjoint sweep, and by any other run on the system
    given the cache through integrate(factors=).

    Only partitions with constant Jacobians are stored.  A coefficient
    reuses the first stored factor of its partition whose coefficient lies
    within COEF_RTOL of it, searched in insertion order: the jitter of
    nominally equal step sizes maps onto one factorization, and every solve
    at a coefficient meets the factor its first solve met.  Other partitions
    are factored afresh at (t, y) on every call.  A system whose partitions
    have other Jacobian callables than the first one served raises
    ValueError: the cache does not hold its stage matrices.
    """

    def __init__(self):
        self._jacobians = None
        self._store: dict[int, list] = {}

    def get(self, system, q, t, y, coef):
        jacobians = tuple(p.jacobian for p in system.partitions)
        if self._jacobians is None:
            self._jacobians = jacobians
        elif jacobians != self._jacobians:
            raise ValueError(
                "this factor cache holds the stage factors of another "
                "system; each system needs its own cache")
        if not system.partitions[q].linear:
            return factorize(system, q, t, y, coef)
        entries = self._store.setdefault(q, [])
        for stored, lu in entries:
            if abs(coef - stored) <= COEF_RTOL * abs(stored):
                return lu
        lu = factorize(system, q, t, y, coef)
        entries.append((coef, lu))
        return lu


def align_tableau(tableau: GarkTableau, system: SplitOdeSystem) -> GarkTableau:
    """Permute tableau partitions so implicit schemes treat stiff partitions.

    Problems list their partitions by physics (diffusion first), while a
    tableau lists its schemes by construction (explicit first); the returned
    tableau is reindexed so scheme q applies to system partition q.
    """
    if tableau.num_partitions != system.num_partitions:
        raise UnsupportedTableauError(
            f"tableau has {tableau.num_partitions} partitions, "
            f"system has {system.num_partitions}")
    stiff = system.stiff_flags
    if not any(stiff):
        return tableau
    implicit = [q for q in range(tableau.num_partitions)
                if np.any(np.diag(tableau.coupling[q][q]) != 0.0)]
    explicit = [q for q in range(tableau.num_partitions) if q not in implicit]
    stiff_parts = [q for q, s in enumerate(stiff) if s]
    loose_parts = [q for q, s in enumerate(stiff) if not s]
    if len(implicit) != len(stiff_parts):
        raise UnsupportedTableauError(
            f"{len(stiff_parts)} stiff partitions but {len(implicit)} "
            "implicit schemes; cannot align")
    perm = [0] * tableau.num_partitions
    for part, scheme in zip(stiff_parts + loose_parts, implicit + explicit):
        perm[part] = scheme
    if perm == list(range(tableau.num_partitions)):
        return tableau
    return tableau.permute_partitions(tuple(perm))


def combine_stage_argument(y: np.ndarray, h: float, stage: PlannedStage,
                           slopes: dict, include_self: bool) -> np.ndarray:
    """y + h * sum a^{q,m}_{i,j} k^(m)_j over the slopes the stage reads,
    in schedule order, then its own slope when include_self is set."""
    out = y.copy()
    for m, j, a in stage.reads:
        out += (h * a) * slopes[(m, j)]
    if include_self and stage.a_ii != 0.0:
        out += (h * stage.a_ii) * slopes[(stage.q, stage.i)]
    return out


def combine_step(y: np.ndarray, h: float, plan: tuple,
                 slopes: dict) -> np.ndarray:
    """y + h * sum b^(q)_i k^(q)_i over the plan's nonzero weights."""
    out = y.copy()
    for stage in plan:
        if stage.b != 0.0:
            out += (h * stage.b) * slopes[(stage.q, stage.i)]
    return out


@dataclass
class StepResult:
    y_next: np.ndarray
    stage_values: dict
    stage_slopes: dict


def step(system: SplitOdeSystem, tableau: GarkTableau, t: float, h: float,
         y: np.ndarray, cache: LinearStageCache | None = None) -> StepResult:
    """Advance one step of size h from (t, y); no partition alignment here."""
    cache = cache or LinearStageCache()
    slopes: dict = {}
    values: dict = {}

    for stage in tableau.plan:
        q = stage.q
        t_i = t + stage.c * h
        rhs = combine_stage_argument(y, h, stage, slopes, include_self=False)
        if stage.a_ii == 0.0:
            y_stage = rhs
            slope = system.f(q, t_i, y_stage)
        elif system.partitions[q].linear:
            # (I - coef J) k = f(rhs) gives k = f(rhs + coef k) = f(Y)
            coef = h * stage.a_ii
            lu = cache.get(system, q, t_i, y, coef)
            slope = lu.solve(system.f(q, t_i, rhs), trans="T")
            y_stage = rhs + coef * slope
        else:
            y_stage, slope = _newton_stage(system, stage, t_i,
                                           h * stage.a_ii, rhs, y)
        values[(q, stage.i)] = y_stage
        slopes[(q, stage.i)] = slope

    return StepResult(combine_step(y, h, tableau.plan, slopes), values,
                      slopes)


def _newton_stage(system, stage, t_i, coef, rhs, predictor):
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
        y = y + factorize(system, q, t_i, y, coef).solve(-residual,
                                                           trans="T")
    raise StepFailureError(
        f"stage ({q + 1},{stage.i + 1}) of partition "
        f"{system.partitions[q].name!r} at t_i = {t_i:.6g}: Newton stalled "
        f"at residual {res:.3e} after {MAX_NEWTON_ITERATIONS} iterations",
        iterations=MAX_NEWTON_ITERATIONS, residual_norm=res)


@dataclass
class ForwardTrajectory:
    """States and stage values of one forward integration.

    states has shape (num_steps + 1, dim) and stage_values[q] shape
    (num_steps, s_q, dim): what the adjoint sweep reads.  factors holds the
    run's stage factorizations.  A run made with a step consumer keeps only
    states = [y_N], no stage values and an empty factor cache.
    """

    problem: ProblemInstance
    tableau: GarkTableau
    time_grid: TimeGrid
    states: np.ndarray
    stage_values: list | None
    factors: LinearStageCache = field(default_factory=LinearStageCache)

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
        """Raise ValueError when the run was streamed (final state only)."""
        if self.stage_values is None:
            raise ValueError(
                f"{what} needs stored stages and states, but this run handed "
                "its steps to a consumer and kept only its final state")

    def stage_time(self, n: int, q: int, i: int) -> float:
        return float(self.time_grid.nodes[n]
                     + self.tableau.abscissae(q)[i] * self.time_grid.steps[n])


def integrate(problem: ProblemInstance, tableau: GarkTableau,
              time_grid: TimeGrid, y0: np.ndarray | None = None,
              consumer=None,
              factors: LinearStageCache | None = None) -> ForwardTrajectory:
    """Integrate the problem over the time grid.

    The tableau is validated and aligned to the system's partitions first.
    Without a consumer the trajectory keeps every state, all stage values
    and the cache of constant-Jacobian stage factorizations.
    With one, consumer(n, y_n, StepResult) is called as each step finishes
    and the returned trajectory is streamed: it keeps only y_N.  factors, a
    cache of the same system, is read and filled instead of a new one, so
    runs at shared step sizes factor each stage matrix once; a streamed run
    does not keep it.
    """
    report = tableau.validate()
    if not report.ok:
        raise UnsupportedTableauError(f"invalid tableau: {report}")
    tableau = align_tableau(tableau, problem.system)

    system = problem.system
    y = np.array(problem.y0 if y0 is None else y0, dtype=float)
    if y.shape != (system.dim,):
        raise ValueError(f"initial state has shape {y.shape}, "
                         f"expected ({system.dim},)")

    n_steps = time_grid.num_steps
    cache = LinearStageCache() if factors is None else factors
    stored = consumer is None
    if stored:
        states = np.empty((n_steps + 1, system.dim))
        states[0] = y
        values = [np.empty((n_steps, s, system.dim))
                  for s in tableau.stage_counts]

        def consumer(n, y_n, result):
            states[n + 1] = result.y_next
            for (q, i), val in result.stage_values.items():
                values[q][n, i] = val

    for n in range(n_steps):
        t, h = float(time_grid.nodes[n]), float(time_grid.steps[n])
        try:
            result = step(system, tableau, t, h, y, cache)
        except StepFailureError as err:
            err.step_index = n
            raise
        consumer(n, y, result)
        y = result.y_next

    if not stored:
        states, values, cache = y[None], None, LinearStageCache()
    return ForwardTrajectory(problem=problem, tableau=tableau,
                             time_grid=time_grid, states=states,
                             stage_values=values, factors=cache)
