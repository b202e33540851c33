"""Discrete adjoint sweeps over a stored forward trajectory.

Three algebraically equivalent stage recursions are implemented side by
side; each walks the stages of every step in reverse schedule order and
propagates lambda_n = lambda_{n+1} + (update).  "theta" carries the raw
stage increments, "mu" carries the pre-Jacobian solve vectors with
theta = J^T mu, and "ell" runs the reversed method built from the adjoint
coefficient tableau (which requires every stage weight to be nonzero).
Implicit-stage solves are transposed SuperLU solves taken from the
trajectory's factor cache: constant-Jacobian stages hit the factors the
forward run stored, and Newton stages are factored at their stored
(converged) stage values.  Each
stage applies its Jacobian only as a vector-Jacobian product
``system.vjp``, so partitions that supply ``vjp`` are never assembled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gark.forward import ForwardTrajectory
from gark.systems import GoalFunction
from gark.tableau import adjoint_coefficients

METHODS = ("theta", "mu", "ell")


@dataclass
class AdjointTrajectory:
    """Adjoint states lambda and per-stage vectors of one reverse sweep.

    lam[n] is the adjoint at time node n; lam[-1] is the terminal seed.
    Stage arrays have shape (num_steps, s_q, dim) and only the fields
    produced by the chosen method are set.
    """

    forward: ForwardTrajectory
    method: str
    lam: np.ndarray
    theta: list | None = None
    mu: list | None = None
    ell: list | None = None
    stage_adjoint: list | None = None

    @property
    def initial(self) -> np.ndarray:
        return self.lam[0]


def _stage_solve(traj: ForwardTrajectory, q: int, t_i: float,
                 y_stage: np.ndarray, coef: float,
                 rhs: np.ndarray) -> np.ndarray:
    """(I - coef J^(q))^-T rhs at the stage; rhs itself on explicit stages."""
    if coef == 0.0:
        return rhs
    lu = traj.factors.get(traj.system, q, t_i, y_stage, coef)
    return lu.solve(rhs, trans="T")


def adjoint_sweep(trajectory: ForwardTrajectory,
                  goal: GoalFunction | None = None, method: str = "mu",
                  terminal: np.ndarray | None = None) -> AdjointTrajectory:
    """Propagate the goal gradient backwards through the trajectory."""
    if method not in METHODS:
        raise ValueError(f"unknown adjoint method {method!r}")
    trajectory.require_stored("adjoint sweep")

    system = trajectory.system
    tableau = trajectory.tableau
    n_steps = trajectory.num_steps
    dim = system.dim

    lam = np.empty((n_steps + 1, dim))
    if terminal is None:
        goal = goal or trajectory.problem.goal
        lam[n_steps] = goal.gradient(trajectory.states[n_steps])
    else:
        lam[n_steps] = np.asarray(terminal, dtype=float)

    abar = adjoint_coefficients(tableau) if method == "ell" else None
    reverse_schedule = tuple(reversed(tableau.stage_schedule))
    counts = tableau.stage_counts
    num_p = tableau.num_partitions

    def make_store():
        return [np.zeros((n_steps, counts[q], dim)) for q in range(num_p)]

    theta_arr = make_store() if method in ("theta", "mu") else None
    mu_arr = make_store() if method == "mu" else None
    ell_arr = make_store() if method == "ell" else None
    lambda_arr = make_store() if method == "ell" else None

    for n in range(n_steps - 1, -1, -1):
        h = float(trajectory.time_grid.steps[n])
        lam_next = lam[n + 1]
        theta: dict = {}
        ell: dict = {}

        for q, i in reverse_schedule:
            t_i = trajectory.stage_time(n, q, i)
            y_stage = trajectory.stage_values[q][n, i]
            h_aii = h * float(tableau.coupling[q][q][i, i])
            b_i = float(tableau.weights[q][i])

            if method == "ell":
                acc = lam_next.copy()
                for (m, j), val in ell.items():
                    coef = abar.coupling[q][m][i, j]
                    if coef != 0.0:
                        acc += (h * coef) * val
                rhs = system.vjp(q, t_i, y_stage, acc)
                vec = _stage_solve(trajectory, q, t_i, y_stage, h_aii, rhs)
                ell[(q, i)] = vec
                ell_arr[q][n, i] = vec
                lambda_arr[q][n, i] = acc + (h * abar.coupling[q][q][i, i]) * vec
            else:
                acc = b_i * lam_next
                for (m, j), val in theta.items():
                    coef = tableau.coupling[m][q][j, i]
                    if coef != 0.0:
                        acc += coef * val
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
        if method == "ell":
            for q, i in reverse_schedule:
                b_i = tableau.weights[q][i]
                if b_i != 0.0:
                    lam_n += (h * b_i) * ell[(q, i)]
        else:
            for q, i in reverse_schedule:
                lam_n += theta[(q, i)]
        lam[n] = lam_n

    return AdjointTrajectory(forward=trajectory, method=method, lam=lam,
                             theta=theta_arr, mu=mu_arr, ell=ell_arr,
                             stage_adjoint=lambda_arr)
