"""The discrete adjoint sweep over a stored forward trajectory.

The sweep walks the stages of every step in reverse schedule order and
propagates lambda_n = lambda_{n+1} + sum_i theta_i in the mu form: mu is
the stage's pre-Jacobian solve vector and theta = J^T mu its increment.
Each stage reads its transposed couplings from the stage plan's read_by.
Implicit-stage solves with (I - h a_ii J)^T are the plain solves of the
trajectory's factor cache (the forward run solves with trans="T"; see
forward.factorize): constant-Jacobian stages hit the solvers the forward
run stored, and Newton stages are factored at their stored (converged)
stage values; a linear partition, whose values no run stores, is read at
y_n (ForwardTrajectory.stage_point), as is an explicit stage that reads no
slope.  Each stage applies its Jacobian only as a vector-Jacobian product
``system.vjp``, so partitions that supply ``vjp`` are never assembled
here.  The sweep stores mu only for the partitions its caller names; the
others get None.  The theta and ell forms of the same adjoint, which
criterion 4 checks this one against, are the tests' coefficient-scanning
sweeps (tests/helpers.py, scan_adjoint_sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gark.forward import ForwardTrajectory


@dataclass
class AdjointTrajectory:
    """Adjoint states lambda and stage vectors mu of one reverse sweep.

    lam[n] is the adjoint at time node n; lam[-1] is the terminal seed.
    mu[q] has shape (num_steps, s_q, dim), or is None for a partition whose
    mu the sweep did not store; theta = J^T mu is not kept.  theta, ell and
    stage_adjoint are always None, as no sweep computes those forms; they
    remain because perfbench's layer tracer still reads them.
    """

    lam: np.ndarray
    mu: list
    theta = None
    ell = None
    stage_adjoint = None


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

    The sweep stores mu[q] for the partitions q in mu_partitions, every
    partition when it is None, and sets mu[q] = None for the others.
    method must be "mu", the one form there is; the keyword remains
    because perfbench's workloads still pass it.
    """
    if method != "mu":
        raise ValueError(f"unknown adjoint method {method!r}; only 'mu' "
                         "is swept")
    trajectory.require_stored("adjoint sweep")

    system = trajectory.system
    tableau = trajectory.tableau
    n_steps = trajectory.num_steps
    dim = system.dim

    lam = np.empty((n_steps + 1, dim))
    lam[n_steps] = trajectory.problem.goal.gradient(trajectory.states[n_steps])
    mu_arr = [np.zeros((n_steps, s, dim))
              if mu_partitions is None or q in mu_partitions else None
              for q, s in enumerate(tableau.stage_counts)]

    reverse_plan = tuple(reversed(tableau.plan))
    nodes = trajectory.time_grid.nodes.tolist()
    steps = trajectory.time_grid.steps.tolist()
    for n in range(n_steps - 1, -1, -1):
        t, h = nodes[n], steps[n]
        lam_next = lam[n + 1]
        theta: dict = {}

        for stage in reverse_plan:
            q, i = stage.q, stage.i
            t_i = t + stage.c * h
            y_stage = trajectory.stage_point(n, q, i)
            h_aii = h * stage.a_ii
            acc = stage.b * lam_next
            for m, j, coef in stage.read_by:
                acc += coef * theta[(m, j)]
            mu = _stage_solve(trajectory, q, t_i, y_stage, h_aii, h * acc)
            if mu_arr[q] is not None:
                mu_arr[q][n, i] = mu
            theta[(q, i)] = system.vjp(q, t_i, y_stage, mu)

        # lambda_n = lambda_{n+1} + the stage terms in reverse_plan's order,
        # summed in its row of lam; a generator, so no container keeps this
        # step's terms alive through the next step's stages
        terms = (theta[(st.q, st.i)] for st in reverse_plan)
        lam_n = lam[n]
        np.add(lam_next, next(terms), out=lam_n)
        for term in terms:
            lam_n += term

    return AdjointTrajectory(lam=lam, mu=mu_arr)
