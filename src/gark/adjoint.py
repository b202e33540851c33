"""Discrete adjoint sweeps over a stored forward trajectory.

Three algebraically equivalent stage recursions walk the stages of every
step in reverse schedule order and propagate lambda_n = lambda_{n+1} +
(update).  "theta" carries the raw stage increments and "mu" the
pre-Jacobian solve vectors with theta = J^T mu; both read each stage's
transposed couplings from the stage plan's read_by.  "ell" runs the
reversed method, whose adjoint coefficient tableau needs every stage weight
nonzero; its plan is the forward one reversed, read through its reads.
Implicit-stage solves with (I - h a_ii J)^T are the plain solves of the
trajectory's factor cache (the forward run solves with trans="T"; see
forward.factorize): constant-Jacobian stages hit the solvers the forward
run stored, and Newton stages are factored at their stored (converged)
stage values; a linear partition, whose values no run stores, is read at
y_n (ForwardTrajectory.stage_point), as is an explicit stage that reads no
slope.  Each stage applies its
Jacobian only as a vector-Jacobian product ``system.vjp``, so partitions
that supply ``vjp`` are never assembled here.  A "mu" sweep stores mu only
for the partitions its caller names; the others get None.
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
    produced by the chosen method are set: theta by "theta", mu by "mu"
    (its theta = J^T mu is not kept; None for a partition whose mu the
    sweep did not store), ell and stage_adjoint by "ell".
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
    A stage solver's plain solve is the transposed one."""
    if coef == 0.0:
        return rhs
    lu = traj.factors.get(q, t_i, y_stage, coef)
    return lu.solve(rhs)


def adjoint_sweep(trajectory: ForwardTrajectory, method: str = "mu",
                  mu_partitions=None) -> AdjointTrajectory:
    """Propagate the problem's goal gradient at y_N backwards through the
    trajectory.

    A "mu" sweep stores mu[q] for the partitions q in mu_partitions, every
    partition when it is None, and sets mu[q] = None for the others.
    """
    if method not in METHODS:
        raise ValueError(f"unknown adjoint method {method!r}")
    trajectory.require_stored("adjoint sweep")

    system = trajectory.system
    tableau = trajectory.tableau
    n_steps = trajectory.num_steps
    dim = system.dim

    lam = np.empty((n_steps + 1, dim))
    lam[n_steps] = trajectory.problem.goal.gradient(trajectory.states[n_steps])

    reverse_plan = tuple(reversed(tableau.plan))
    # the reversed method's stages come in reverse_plan's order; only ell
    # reads them
    abar_plan = (adjoint_coefficients(tableau).plan if method == "ell"
                 else reverse_plan)

    def make_store(kept=None):
        return [np.zeros((n_steps, s, dim)) if kept is None or q in kept
                else None for q, s in enumerate(tableau.stage_counts)]

    theta_arr = make_store() if method == "theta" else None
    mu_arr = make_store(mu_partitions) if method == "mu" else None
    ell_arr = make_store() if method == "ell" else None
    lambda_arr = make_store() if method == "ell" else None

    nodes = trajectory.time_grid.nodes.tolist()
    steps = trajectory.time_grid.steps.tolist()
    for n in range(n_steps - 1, -1, -1):
        t, h = nodes[n], steps[n]
        lam_next = lam[n + 1]
        theta: dict = {}
        ell: dict = {}

        for stage, abar in zip(reverse_plan, abar_plan):
            q, i = stage.q, stage.i
            t_i = t + stage.c * h
            y_stage = trajectory.stage_point(n, q, i)
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
                    theta_arr[q][n, i] = vec
                else:
                    rhs = h * acc
                    mu_vec = _stage_solve(trajectory, q, t_i, y_stage, h_aii,
                                          rhs)
                    vec = system.vjp(q, t_i, y_stage, mu_vec)
                    if mu_arr[q] is not None:
                        mu_arr[q][n, i] = mu_vec
                theta[(q, i)] = vec

        # lambda_n = lambda_{n+1} + the stage terms in reverse_plan's order,
        # summed in its row of lam; a generator, so no container keeps this
        # step's terms alive through the next step's stages
        if method != "ell":
            terms = (theta[(st.q, st.i)] for st in reverse_plan)
        else:
            terms = ((h * st.b) * ell[(st.q, st.i)] for st in reverse_plan
                     if st.b != 0.0)
        lam_n = lam[n]
        np.add(lam_next, next(terms), out=lam_n)
        for term in terms:
            lam_n += term

    return AdjointTrajectory(lam=lam, theta=theta_arr, mu=mu_arr,
                             ell=ell_arr, stage_adjoint=lambda_arr)
