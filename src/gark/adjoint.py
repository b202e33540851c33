"""The discrete adjoint sweep over a stored forward trajectory.

The sweep walks the stages of every step in reverse schedule order and
propagates lambda_n = lambda_{n+1} + sum_i theta_i in the mu form: mu is
the stage's pre-Jacobian solve vector and theta = J^T mu its increment.
Each stage reads its transposed couplings from the stage plan's read_by.
An implicit stage solves (I - h a_ii J)^T mu = h (b lambda_{n+1} + its
read_by terms) and takes mu and theta from adjoint of its stage solver in
the trajectory's factor cache, as a forward stage takes its slope from the
solver: constant-Jacobian stages hit the solvers the forward run stored,
and Newton stages are factored at their stored (converged) stage values; a
linear partition, whose values no run stores, is read at y_n
(ForwardTrajectory.stage_point), as is an explicit stage that reads no
slope.  A separable partition's solver takes theta in its eigenbasis, on
the same transform as mu; every other stage applies its Jacobian only as a
vector-Jacobian product ``system.vjp``, so partitions that supply ``vjp``
are never assembled here.  The sweep stores mu only for the partitions its
caller names, and a separable solver computes it only for those; the
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


def adjoint_sweep(trajectory: ForwardTrajectory, method: str = "mu",
                  mu_partitions=()) -> AdjointTrajectory:
    """Propagate the problem's goal gradient at y_N backwards through the
    trajectory.

    The sweep stores mu[q] for the partitions q in mu_partitions, none by
    default, and sets mu[q] = None for the others.
    method must be "mu", the one form there is; the keyword remains
    because perfbench's workloads still pass it.
    """
    if method != "mu":
        raise ValueError(f"unknown adjoint method {method!r}; only 'mu' "
                         "is swept")
    trajectory.require_stored("adjoint sweep")

    system, factors = trajectory.system, trajectory.factors
    tableau = trajectory.tableau
    n_steps = trajectory.num_steps
    dim = system.dim

    lam = np.empty((n_steps + 1, dim))
    lam[n_steps] = trajectory.problem.goal.gradient(trajectory.states[n_steps])
    mu_arr = [np.zeros((n_steps, s, dim)) if q in mu_partitions else None
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
            mu = h * acc
            keep_mu = mu_arr[q] is not None
            if h_aii != 0.0:
                solver = factors.get(q, t_i, y_stage, h_aii)
                mu, theta[(q, i)] = solver.adjoint(t_i, y_stage, mu, keep_mu)
            else:
                theta[(q, i)] = system.vjp(q, t_i, y_stage, mu)
            if keep_mu:
                mu_arr[q][n, i] = mu

        # lambda_n = lambda_{n+1} + the stage terms in reverse_plan's order,
        # summed in its row of lam; a generator, so no container keeps this
        # step's terms alive through the next step's stages
        terms = (theta[(st.q, st.i)] for st in reverse_plan)
        lam_n = lam[n]
        np.add(lam_next, next(terms), out=lam_n)
        for term in terms:
            lam_n += term

    return AdjointTrajectory(lam=lam, mu=mu_arr)
