"""Discrete adjoint sweeps over a stored forward trajectory.

Three algebraically equivalent stage recursions walk the stages of every
step in reverse schedule order and propagate lambda_n = lambda_{n+1} +
(update).  "theta" carries the raw stage increments and "mu" the
pre-Jacobian solve vectors with theta = J^T mu; both read each stage's
transposed couplings from the stage plan's read_by.  "ell" runs the
reversed method, whose adjoint coefficient tableau needs every stage weight
nonzero; its plan is the forward one reversed, read through its reads.
Implicit-stage solves with (I - h a_ii J)^T use SuperLU's plain kernel on
the trajectory's factor cache, which holds the factors of those transposes
(the forward run solves with its transposed kernel): constant-Jacobian
stages hit the factors the forward run stored, and Newton stages are
factored at their stored (converged) stage values.  Each stage applies its
Jacobian only as a vector-Jacobian product ``system.vjp``, so partitions
that supply ``vjp`` are never assembled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gark.forward import ForwardTrajectory
from gark.tableau import adjoint_coefficients

METHODS = ("theta", "mu", "ell")


@dataclass
class AdjointTrajectory:
    """Adjoint states lambda and per-stage vectors of one reverse sweep.

    lam[n] is the adjoint at time node n; lam[-1] is the terminal seed.
    Stage arrays have shape (num_steps, s_q, dim) and only the fields
    produced by the chosen method are set.
    """

    lam: np.ndarray
    theta: list | None = None
    mu: list | None = None
    ell: list | None = None
    stage_adjoint: list | None = None


def _stage_solve(traj: ForwardTrajectory, q: int, t_i: float,
                 y_stage: np.ndarray, coef: float,
                 rhs: np.ndarray) -> np.ndarray:
    """(I - coef J^(q))^-T rhs at the stage; rhs itself on explicit stages.
    The cache holds factors of the transpose, so this is a plain solve."""
    if coef == 0.0:
        return rhs
    lu = traj.factors.get(traj.system, q, t_i, y_stage, coef)
    return lu.solve(rhs)


def adjoint_sweep(trajectory: ForwardTrajectory, method: str = "mu",
                  terminal: np.ndarray | None = None) -> AdjointTrajectory:
    """Propagate terminal, by default the problem's goal gradient at y_N,
    backwards through the trajectory."""
    if method not in METHODS:
        raise ValueError(f"unknown adjoint method {method!r}")
    trajectory.require_stored("adjoint sweep")

    system = trajectory.system
    tableau = trajectory.tableau
    n_steps = trajectory.num_steps
    dim = system.dim

    lam = np.empty((n_steps + 1, dim))
    if terminal is None:
        lam[n_steps] = trajectory.problem.goal.gradient(
            trajectory.states[n_steps])
    else:
        lam[n_steps] = np.asarray(terminal, dtype=float)

    reverse_plan = tuple(reversed(tableau.plan))
    # the reversed method's stages come in reverse_plan's order; only ell
    # reads them
    abar_plan = (adjoint_coefficients(tableau).plan if method == "ell"
                 else reverse_plan)

    def make_store():
        return [np.zeros((n_steps, s, dim)) for s in tableau.stage_counts]

    theta_arr = make_store() if method in ("theta", "mu") else None
    mu_arr = make_store() if method == "mu" else None
    ell_arr = make_store() if method == "ell" else None
    lambda_arr = make_store() if method == "ell" else None

    for n in range(n_steps - 1, -1, -1):
        t = float(trajectory.time_grid.nodes[n])
        h = float(trajectory.time_grid.steps[n])
        lam_next = lam[n + 1]
        theta: dict = {}
        ell: dict = {}

        for stage, abar in zip(reverse_plan, abar_plan):
            q, i = stage.q, stage.i
            t_i = t + stage.c * h
            y_stage = trajectory.stage_values[q][n, i]
            h_aii = h * stage.a_ii

            if method == "ell":
                acc = lam_next.copy()
                for m, j, coef in abar.reads:
                    acc += (h * coef) * ell[(m, j)]
                rhs = system.vjp(q, t_i, y_stage, acc)
                vec = _stage_solve(trajectory, q, t_i, y_stage, h_aii, rhs)
                ell[(q, i)] = vec
                ell_arr[q][n, i] = vec
                lambda_arr[q][n, i] = acc + (h * abar.a_ii) * vec
            else:
                acc = stage.b * lam_next
                for m, j, coef in stage.read_by:
                    acc += coef * theta[(m, j)]
                if method == "theta":
                    rhs = h * system.vjp(q, t_i, y_stage, acc)
                    vec = _stage_solve(trajectory, q, t_i, y_stage, h_aii, rhs)
                    theta[(q, i)] = vec
                else:
                    rhs = h * acc
                    mu_vec = _stage_solve(trajectory, q, t_i, y_stage, h_aii,
                                          rhs)
                    vec = system.vjp(q, t_i, y_stage, mu_vec)
                    theta[(q, i)] = vec
                    mu_arr[q][n, i] = mu_vec
                theta_arr[q][n, i] = vec

        lam_n = lam_next.copy()
        for stage in reverse_plan:
            if method != "ell":
                lam_n += theta[(stage.q, stage.i)]
            elif stage.b != 0.0:
                lam_n += (h * stage.b) * ell[(stage.q, stage.i)]
        lam[n] = lam_n

    return AdjointTrajectory(lam=lam, theta=theta_arr, mu=mu_arr,
                             ell=ell_arr, stage_adjoint=lambda_arr)
