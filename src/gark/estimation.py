"""Adjoint-weighted goal-error estimation.

Temporal residuals measure how far a reference path is from satisfying the
coarse step map; weighting them with the adjoint states gives the
time-discretization part of the goal error.  Spatial residuals measure how
far the restricted fine-grid stages are from satisfying the coarse
semi-discrete equations; weighting them with the pre-Jacobian stage
adjoints gives one spatial contribution per partition.  The signed total
estimates Q(reference) - Q(numerical).

The estimate integrates and stores the numerical run and sweeps its
adjoint first.  Its three companion runs are then streamed into step
consumers that weight each step's residuals as the step finishes, so only
the weighted sums are kept: the time-refined run gives the temporal
residual of each coarse step it completes, the space-refined run the stage
residuals of each step restricted to the coarse grid, and the reference
run its final state.  Only the weighed partitions' stage residuals are
computed and only their mu is stored: a pointwise partition whose stages
are all explicit has restricted residuals that are zero by construction
(weighed_partitions), and its spatial part is reported as 0.0.  The
per-step kernels temporal_residual and stage_residual also build the whole
residual arrays (temporal_residuals, spatial_residuals) that
assemble_report weights by the same rule.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from gark.adjoint import AdjointTrajectory, adjoint_sweep
from gark.forward import (ForwardTrajectory, LinearStageCache,
                          StepFailureError, combine_stage_argument,
                          integrate, step)
from gark.mesh import GridTransfer, TensorGrid2D, TimeGrid
from gark.systems import ProblemInstance, rebuild_on


def temporal_residual(trajectory: ForwardTrajectory, n: int,
                      x_n: np.ndarray, x_next: np.ndarray) -> np.ndarray:
    """r_n = x(t_{n+1}) - onestep(x(t_n)) for step n of the coarse step map,
    from the reference states x_n and x_next at its two nodes.  The coarse
    step reuses the trajectory's factor cache, whose step sizes it shares.
    """
    grid = trajectory.time_grid
    t, h = float(grid.nodes[n]), float(grid.steps[n])
    return x_next - step(trajectory.system, trajectory.tableau, t, h, x_n,
                         trajectory.factors).y_next


def temporal_residuals(trajectory: ForwardTrajectory,
                       at_nodes: np.ndarray) -> np.ndarray:
    """temporal_residual of every coarse step, one row per step.

    at_nodes holds the reference states x(t_n) at the trajectory's nodes,
    shape (num_steps + 1, dim).  Row n of the result pairs with the adjoint
    state at node n+1.
    """
    system, grid = trajectory.system, trajectory.time_grid
    if at_nodes.shape != (grid.num_steps + 1, system.dim):
        raise ValueError(f"reference states of shape {at_nodes.shape} "
                         f"do not match ({grid.num_steps + 1}, {system.dim})")
    out = np.empty((grid.num_steps, system.dim))
    for n in range(grid.num_steps):
        out[n] = temporal_residual(trajectory, n, at_nodes[n], at_nodes[n + 1])
    return out


def stage_residual(coarse: ForwardTrajectory, n: int, y_n: np.ndarray,
                   slopes: dict, stage) -> np.ndarray:
    """k_i - f^(q)(T_i, Y_i) of the planned stage (q, i) of coarse step n,
    for a fine step's state y_n and stage slopes {(m, j): k} restricted to
    the coarse space grid.

    The slopes are recombined into the stage state with the accumulation
    the forward step uses, so a coarse step checked against itself gives
    bitwise zeros on explicit stages.
    """
    grid = coarse.time_grid
    t, h = float(grid.nodes[n]), float(grid.steps[n])
    y_stage = combine_stage_argument(y_n, h, stage.value_terms, slopes)
    return (slopes[(stage.q, stage.i)]
            - coarse.system.f(stage.q, t + stage.c * h, y_stage))


def weighed_partitions(trajectory: ForwardTrajectory) -> tuple:
    """The partitions whose restricted stage residuals can be nonzero.

    A pointwise partition (Partition.pointwise) commutes with injection,
    so its residual is exactly zero when all its stages in the aligned
    tableau are explicit; with an implicit stage it is weighed as every
    other partition is.
    """
    implicit = trajectory.tableau.implicit_partitions
    return tuple(q for q, part in enumerate(trajectory.system.partitions)
                 if not part.pointwise or q in implicit)


def spatial_residuals(coarse: ForwardTrajectory, fine) -> list:
    """stage_residual of every stage of every coarse step, one
    (num_steps, s_q, dim) array per partition.

    fine is a fine run on the coarse trajectory's time grid and (aligned)
    tableau, restricted to the coarse space grid: num_steps, its states
    (num_steps, dim) and slopes[q] (num_steps, s_q, dim).  A fine run of
    another step count raises ValueError.
    """
    if fine.num_steps != coarse.num_steps:
        raise ValueError(
            f"fine run made {fine.num_steps} steps, the coarse run "
            f"{coarse.num_steps}; the runs must share the time grid")
    out = [np.empty_like(s) for s in fine.slopes]
    for n in range(coarse.num_steps):
        slopes = {(st.q, st.i): fine.slopes[st.q][n, st.i]
                  for st in coarse.tableau.plan}
        for stage in coarse.tableau.plan:
            out[stage.q][n, stage.i] = stage_residual(
                coarse, n, fine.states[n], slopes, stage)
    return out


def _per_cell_map(grid: TensorGrid2D, nodal: np.ndarray) -> np.ndarray:
    """Split per-unknown contributions onto cells via shared corners; a
    species-major stacked vector sums its species first."""
    per_node = nodal.reshape(-1, grid.num_unknowns).sum(axis=0)
    full = grid.scatter(per_node)
    # a node is shared by two cells along an axis, one at the ends
    cy, cx = (np.r_[1.0, np.full(k - 2, 2.0), 1.0] for k in full.shape)
    w = full / (cy[:, None] * cx[None, :])
    return w[:-1, :-1] + w[:-1, 1:] + w[1:, :-1] + w[1:, 1:]


# The scalar figures of a report, in the order every output lists them,
# each with its report.csv column name.
_TOTALS = {"psi_num": "goal_num", "psi_ref": "goal_ref", "e_ref": "ref_error",
           "e_temporal": "temporal_error", "e_spatial": "spatial_error",
           "e_total": "total_error", "accuracy": "accuracy"}


@dataclass
class ErrorReport:
    """Goal-error estimate split into temporal and spatial parts.

    e_total estimates Q(reference) - Q(numerical); accuracy is the signed
    relative gap (e_total - e_ref) / e_ref when a reference value exists.
    per_step localizes the temporal part; per_cell localizes each spatial
    part onto grid cells (None for problems without a grid).
    """

    psi_num: float
    psi_ref: float | None
    e_ref: float | None
    e_temporal: float
    e_spatial: tuple
    e_total: float
    accuracy: float | None
    per_step: np.ndarray
    per_cell: tuple | None
    partition_names: tuple

    def totals(self) -> dict:
        """The scalar figures, in the order every output lists them."""
        out = {name: getattr(self, name) for name in _TOTALS}
        out["e_spatial"] = list(self.e_spatial)
        return out

    def to_json_dict(self) -> dict:
        return {
            "kind": "error_report",
            **self.totals(),
            "per_step": self.per_step.tolist(),
            "per_cell": (None if self.per_cell is None
                         else [m.tolist() for m in self.per_cell]),
            "partition_names": list(self.partition_names),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def write_csv(self, path) -> None:
        """totals() in one row; a list spans one column per partition."""
        fmt = lambda v: "" if v is None else f"{v:.4e}"
        columns = {}
        for name, value in self.totals().items():
            if isinstance(value, list):
                columns.update((f"{_TOTALS[name]}_{part}", fmt(v)) for part, v
                               in zip(self.partition_names, value))
            else:
                columns[_TOTALS[name]] = fmt(value)
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows([list(columns), columns.values()])


class _WeightedSums:
    """Adjoint-weighted residuals, added up one step at a time.

    The one weighting rule of assemble_report and of the streamed estimate:
    per_step[n] = (lam[n+1] * r_n).sum(), and nodal[q] sums the rows
    mu^(q)[n, i] * res^(q)[n, i] in (n, i) order.  spatial=False weights
    temporal residuals only.  A partition whose mu the sweep did not store
    gets no residuals and reports 0.0 with an all-zero per-cell map.  The
    sums hold the adjoint's lam and mu, not the adjoint, so the estimate
    can drop each (set it to None) once it has weighed its last residual.
    """

    def __init__(self, trajectory: ForwardTrajectory,
                 adjoint: AdjointTrajectory, spatial: bool):
        self.trajectory = trajectory
        self.lam = adjoint.lam
        self.mu = adjoint.mu if spatial else None
        self.per_step = np.empty(trajectory.num_steps)
        self.nodal = ([np.zeros(trajectory.system.dim) for _ in adjoint.mu]
                      if spatial else None)

    def add_step(self, n: int, residual: np.ndarray) -> None:
        self.per_step[n] = (self.lam[n + 1] * residual).sum()

    def add_stages(self, n: int, residuals: dict) -> None:
        """residuals: {(q, i): stage residual} of step n."""
        for (q, i), res in sorted(residuals.items()):
            self.nodal[q] += self.mu[q][n, i] * res

    def report(self, psi_ref: float | None) -> ErrorReport:
        """The sums, totalled and localized per cell."""
        problem = self.trajectory.problem
        psi_num = float(problem.goal.evaluate(self.trajectory.states[-1]))
        e_temporal = float(np.sum(self.per_step))
        e_spatial, per_cell = (), None
        if self.nodal is not None:
            e_spatial = tuple(float(v.sum()) for v in self.nodal)
            if problem.grid is not None:
                per_cell = tuple(_per_cell_map(problem.grid, v)
                                 for v in self.nodal)
        e_total = e_temporal + float(sum(e_spatial))
        e_ref = None if psi_ref is None else float(psi_ref) - psi_num
        accuracy = None
        if e_ref is not None and e_ref != 0.0:
            accuracy = (e_total - e_ref) / e_ref
        return ErrorReport(psi_num=psi_num, psi_ref=psi_ref, e_ref=e_ref,
                           e_temporal=e_temporal, e_spatial=e_spatial,
                           e_total=e_total, accuracy=accuracy,
                           per_step=self.per_step, per_cell=per_cell,
                           partition_names=self.trajectory.system
                           .partition_names)


def assemble_report(trajectory: ForwardTrajectory,
                    adjoint: AdjointTrajectory,
                    temporal: np.ndarray,
                    spatial: list | None = None,
                    psi_ref: float | None = None) -> ErrorReport:
    """Weight residual arrays with adjoint quantities and localize them."""
    sums = _WeightedSums(trajectory, adjoint, spatial is not None)
    for n, residual in zip(range(trajectory.num_steps), temporal,
                           strict=True):
        sums.add_step(n, residual)
        if spatial is not None:
            sums.add_stages(n, {(q, i): res[n, i]
                                for q, res in enumerate(spatial)
                                for i in range(res.shape[1])})
    return sums.report(psi_ref)


@dataclass
class EstimateBundle:
    """The four-solution report and the four runs behind it."""

    report: ErrorReport
    numerical: ForwardTrajectory
    time_refined: ForwardTrajectory
    space_refined: ForwardTrajectory
    reference: ForwardTrajectory


def _named_run(run: str, *args, **kwargs) -> ForwardTrajectory:
    """integrate(*args, **kwargs), naming the run in a StepFailureError."""
    try:
        return integrate(*args, **kwargs)
    except StepFailureError as err:
        err.run = run
        raise


def estimate_errors(problem: ProblemInstance, tableau,
                    time_grid: TimeGrid) -> EstimateBundle:
    """Run the four solutions and assemble the split goal-error report.

    numerical: given grids, stored whole; time-refined: halved steps on the
    coarse space grid; space-refined: uniformly refined space grid on the
    given steps; reference: both refinements.  The numerical run is
    integrated and swept by its adjoint first.  The companion runs are then
    streamed, and each step's residuals are weighted as the step finishes:
    the time-refined run gives one temporal residual per coarse node it
    reaches, the space-refined run the stage residuals of its restricted
    step on the weighed partitions (weighed_partitions; the sweep stores mu
    of those only, and the others report 0.0).  Only the per-step and
    per-partition nodal sums are kept, and
    each array is dropped after its last reader: the numerical run's stage
    values and all its states but y_N after the sweep, the adjoint's lam
    and the coarse factors after the time-refined run and its mu after the
    space-refined run, so the fine runs hold no coarse factors and the
    reference run no adjoint.  The bundle holds all four runs with their
    final states only and no factors.  The reference goal value uses the
    fine grid's own quadrature.

    Runs on one space grid share one factor cache, so each stage matrix is
    factored once per (space grid, nominal h a_ii): the numerical run
    fills the cache that the adjoint sweep, the time-refined run and the
    temporal residuals read; the space-refined and reference runs share a
    fine cache.
    """
    if problem.grid is None:
        raise ValueError("four-solution estimate needs a grid problem")

    fine_grid = problem.grid.refine_uniform()
    fine_problem = rebuild_on(problem, fine_grid)
    fine_time = time_grid.halve_all_steps()

    numerical = _named_run("numerical", problem, tableau, time_grid)
    weighed = weighed_partitions(numerical)
    sums = _WeightedSums(numerical,
                         adjoint_sweep(numerical, mu_partitions=weighed),
                         spatial=True)
    # the sweep is the last reader of the stage values and all but y_N
    numerical.stage_values = None
    numerical.states = numerical.states[-1:].copy()
    node = None  # the time-refined state at the last coarse node reached

    def weigh_coarse_step(n, y_n, result):  # halving keeps node k at 2k
        nonlocal node
        if n % 2 == 0:
            node = y_n
        else:
            k = n // 2
            sums.add_step(k, temporal_residual(numerical, k, node,
                                               result.y_next))

    time_refined = _named_run("time-refined", problem, tableau, fine_time,
                              consumer=weigh_coarse_step,
                              factors=numerical.factors)
    # lam weighed the last temporal residual; the time-refined run was the
    # last reader of the coarse factors
    sums.lam = numerical.factors = None
    restrict = GridTransfer.between(fine_grid, problem.grid).restrict_state

    weighed_stages = [st for st in numerical.tableau.plan if st.q in weighed]

    def weigh_stages(n, y_n, result):
        y_n = restrict(y_n)
        slopes = {key: restrict(k) for key, k in result.stage_slopes.items()}
        sums.add_stages(n, {(st.q, st.i): stage_residual(numerical, n, y_n,
                                                         slopes, st)
                            for st in weighed_stages})

    fine_factors = LinearStageCache(fine_problem.system)
    space_refined = _named_run("space-refined", fine_problem, tableau,
                               time_grid, consumer=weigh_stages,
                               factors=fine_factors)
    sums.mu = None  # weighed the last stage residuals
    reference = _named_run("reference", fine_problem, tableau, fine_time,
                           consumer=lambda n, y_n, result: None,
                           factors=fine_factors)
    psi_ref = float(fine_problem.goal.evaluate(reference.states[-1]))
    return EstimateBundle(report=sums.report(psi_ref), numerical=numerical,
                          time_refined=time_refined,
                          space_refined=space_refined, reference=reference)
