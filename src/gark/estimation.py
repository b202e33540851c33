"""Adjoint-weighted goal-error estimation.

Temporal residuals measure how far a reference path is from satisfying the
coarse step map; weighting them with the adjoint states gives the
time-discretization part of the goal error.  Spatial residuals measure how
far the restricted fine-grid stages are from satisfying the coarse
semi-discrete equations; weighting them with the pre-Jacobian stage
adjoints gives one spatial contribution per partition.  The signed total
estimates Q(reference) - Q(numerical).

Only the numerical run is stored whole, for the adjoint sweep.  The other
three runs are streamed into step consumers that keep what the residuals
read: time-refined states at coarse nodes, space-refined states and slopes
restricted to the coarse grid (RestrictedRun), and the final reference state.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from gark.adjoint import AdjointTrajectory, adjoint_sweep
from gark.forward import (ForwardTrajectory, LinearStageCache, StepResult,
                          combine_stage_argument, integrate, step)
from gark.mesh import GridTransfer, TensorGrid2D, TimeGrid
from gark.systems import ProblemInstance, rebuild_on


def temporal_residuals(trajectory: ForwardTrajectory,
                       at_nodes: np.ndarray) -> np.ndarray:
    """r_n = x(t_{n+1}) - onestep(x(t_n)) for the coarse step map.

    at_nodes holds the reference states x(t_n) at the trajectory's nodes,
    shape (num_steps + 1, dim).  Row n of the result pairs with the adjoint
    state at node n+1.  The coarse steps reuse the trajectory's factor
    cache, whose step sizes they share.
    """
    system, grid = trajectory.system, trajectory.time_grid
    if at_nodes.shape != (grid.num_steps + 1, system.dim):
        raise ValueError(f"reference states of shape {at_nodes.shape} "
                         f"do not match ({grid.num_steps + 1}, {system.dim})")
    out = np.empty((grid.num_steps, system.dim))
    for n in range(grid.num_steps):
        t, h = float(grid.nodes[n]), float(grid.steps[n])
        out[n] = at_nodes[n + 1] - step(system, trajectory.tableau, t, h,
                                        at_nodes[n], trajectory.factors).y_next
    return out


class RestrictedRun:
    """Step consumer keeping a fine run's y_n and stage slopes restricted to
    the coarse space grid, in arrays shaped like the coarse trajectory's.

    The fine run must step on the coarse trajectory's time grid: a step
    past its last raises ValueError at once, and spatial_residuals refuses
    a run that ended early.  num_steps counts the steps handed in.
    """

    def __init__(self, coarse: ForwardTrajectory, transfer: GridTransfer):
        self.transfer = transfer
        dim, n_steps = coarse.system.dim, coarse.num_steps
        self.num_steps = 0
        self.states = np.empty((n_steps, dim))
        self.slopes = [np.empty((n_steps, s, dim))
                       for s in coarse.tableau.stage_counts]

    def __call__(self, n: int, y_n: np.ndarray, result: StepResult) -> None:
        if n >= len(self.states):
            raise ValueError(
                f"fine run step {n} lies past the coarse time grid's "
                f"{len(self.states)} steps; the runs must share the time grid")
        self.states[n] = self.transfer.restrict_state(y_n)
        for (q, i), slope in result.stage_slopes.items():
            self.slopes[q][n, i] = self.transfer.restrict_state(slope)
        self.num_steps = n + 1


def spatial_residuals(coarse: ForwardTrajectory, fine: RestrictedRun) -> list:
    """Per-partition stage residuals of the restricted fine solution.

    fine is a fine run on the coarse trajectory's time grid and (aligned)
    tableau, restricted to the coarse space grid.  Restricted fine slopes
    are recombined into stage states with the same accumulation the forward
    step uses, so a coarse trajectory checked against itself gives bitwise
    zeros on explicit stages.  A fine run of another step count raises
    ValueError.
    """
    if fine.num_steps != coarse.num_steps:
        raise ValueError(
            f"fine run made {fine.num_steps} steps, the coarse run "
            f"{coarse.num_steps}; the runs must share the time grid")
    plan = coarse.tableau.plan
    system = coarse.system
    out = [np.empty_like(s) for s in fine.slopes]
    for n in range(coarse.num_steps):
        t = float(coarse.time_grid.nodes[n])
        h = float(coarse.time_grid.steps[n])
        slopes = {(st.q, st.i): fine.slopes[st.q][n, st.i] for st in plan}
        for stage in plan:
            q, i = stage.q, stage.i
            y_stage = combine_stage_argument(fine.states[n], h, stage, slopes,
                                             include_self=True)
            out[q][n, i] = slopes[(q, i)] - system.f(q, t + stage.c * h,
                                                     y_stage)
    return out


def _per_cell_map(grid: TensorGrid2D, nodal: np.ndarray) -> np.ndarray:
    """Split per-unknown contributions onto cells via shared corners; a
    species-major stacked vector sums its species first."""
    per_node = nodal.reshape(-1, grid.num_unknowns).sum(axis=0)
    full = grid.scatter(per_node, fill=0.0)
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


def assemble_report(trajectory: ForwardTrajectory,
                    adjoint: AdjointTrajectory,
                    temporal: np.ndarray,
                    spatial: list | None = None,
                    psi_ref: float | None = None) -> ErrorReport:
    """Weight residuals with adjoint quantities and localize them."""
    problem = trajectory.problem
    psi_num = float(problem.goal.evaluate(trajectory.states[-1]))

    per_step = np.einsum("nd,nd->n", adjoint.lam[1:], temporal)
    e_temporal = float(np.sum(per_step))

    e_spatial = ()
    per_cell = None
    if spatial is not None:
        if adjoint.mu is None:
            raise ValueError("spatial weighting needs a mu-form adjoint")
        totals = []
        cells = []
        for q, res in enumerate(spatial):
            pointwise = adjoint.mu[q] * res
            totals.append(float(np.sum(pointwise)))
            if problem.grid is not None:
                nodal = pointwise.sum(axis=(0, 1))
                cells.append(_per_cell_map(problem.grid, nodal))
            del pointwise  # one product alive at a time
        e_spatial = tuple(totals)
        per_cell = tuple(cells) if cells else None

    e_total = e_temporal + float(sum(e_spatial))
    e_ref = None if psi_ref is None else float(psi_ref) - psi_num
    accuracy = None
    if e_ref is not None and e_ref != 0.0:
        accuracy = (e_total - e_ref) / e_ref
    return ErrorReport(psi_num=psi_num, psi_ref=psi_ref, e_ref=e_ref,
                       e_temporal=e_temporal, e_spatial=e_spatial,
                       e_total=e_total, accuracy=accuracy,
                       per_step=per_step, per_cell=per_cell,
                       partition_names=trajectory.system.partition_names)


@dataclass
class EstimateBundle:
    """The four-solution report and the four runs behind it."""

    report: ErrorReport
    numerical: ForwardTrajectory
    time_refined: ForwardTrajectory
    space_refined: ForwardTrajectory
    reference: ForwardTrajectory


def estimate_errors(problem: ProblemInstance, tableau,
                    time_grid: TimeGrid) -> EstimateBundle:
    """Run the four solutions and assemble the split goal-error report.

    numerical: given grids, stored whole; time-refined: halved steps on the
    coarse space grid; space-refined: uniformly refined space grid on the
    given steps; reference: both refinements.  The three companion runs are
    streamed: the bundle holds them with their final states only.  The
    reference goal value uses the fine grid's own quadrature.

    Runs on one space grid share one factor cache, so each stage matrix is
    factored once per (space grid, nominal h a_ii): the time-refined run
    fills the numerical run's cache, which the temporal residuals and the
    adjoint sweep read too; the space-refined and reference runs share a
    fine cache, dropped before the sweep.
    """
    if problem.grid is None:
        raise ValueError("four-solution estimate needs a grid problem")

    fine_grid = problem.grid.refine_uniform()
    fine_problem = rebuild_on(problem, fine_grid)
    fine_time = time_grid.halve_all_steps()

    numerical = integrate(problem, tableau, time_grid)
    at_nodes = np.empty((time_grid.num_steps + 1, problem.system.dim))

    def keep_coarse_nodes(n, y_n, result):  # halving keeps node k at 2k
        if n % 2 == 0:
            at_nodes[n // 2] = y_n

    time_refined = integrate(problem, tableau, fine_time,
                             consumer=keep_coarse_nodes,
                             factors=numerical.factors)
    at_nodes[-1] = time_refined.states[-1]
    temporal = temporal_residuals(numerical, at_nodes)
    transfer = GridTransfer.between(fine_grid, problem.grid)
    restricted = RestrictedRun(numerical, transfer)
    fine_factors = LinearStageCache()
    space_refined = integrate(fine_problem, tableau, time_grid,
                              consumer=restricted, factors=fine_factors)
    spatial = spatial_residuals(numerical, restricted)
    del at_nodes, restricted  # read by the residuals only; free them now
    reference = integrate(fine_problem, tableau, fine_time,
                          consumer=lambda n, y_n, result: None,
                          factors=fine_factors)
    del fine_factors  # the sweep runs on the coarse grid; free them first
    adjoint = adjoint_sweep(numerical, method="mu")
    psi_ref = float(fine_problem.goal.evaluate(reference.states[-1]))
    report = assemble_report(numerical, adjoint, temporal, spatial, psi_ref)
    return EstimateBundle(report=report, numerical=numerical,
                          time_refined=time_refined,
                          space_refined=space_refined, reference=reference)
