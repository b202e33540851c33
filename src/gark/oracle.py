"""Independent cross-checks for the stepper and the adjoint sweep.

These build the one-step propagator dY/dy by dense block forward
substitution along the stage schedule, with Jacobians evaluated at each
stage's ForwardTrajectory.stage_point (its stored value; y_n where none
is stored).  Adjoints and sensitivities derived from these dense
matrices share no code path with the sparse sweep they are checked
against.  Dimension is capped; this is a verification tool, not a solver.
The theta and ell forms of the adjoint, which criterion 4 compares with
the mu sweep, are not here: only tests read them, and the tests'
scan_adjoint_sweep computes them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from gark.forward import ForwardTrajectory, integrate
from gark.systems import ProblemInstance

MAX_DENSE_DIM = 64
# central differences shift y_0[j] by FD_REL_STEP * (1 + |y_0[j]|)
FD_REL_STEP = 1e-6


def dense_step_propagator(trajectory: ForwardTrajectory, n: int) -> np.ndarray:
    """d y_{n+1} / d y_n as a dense matrix, from the stored stages."""
    system = trajectory.system
    if system.dim > MAX_DENSE_DIM:
        raise ValueError(f"dense propagator capped at {MAX_DENSE_DIM} "
                         f"unknowns, got {system.dim}")
    trajectory.require_stored("dense propagator")
    tableau = trajectory.tableau
    h = float(trajectory.time_grid.steps[n])
    dim = system.dim
    eye = np.eye(dim)

    slope_derivs: dict = {}
    for q, i in tableau.stage_schedule:
        t_i = trajectory.stage_time(n, q, i)
        y_stage = trajectory.stage_point(n, q, i)
        jac = np.asarray(system.jac(q, t_i, y_stage).todense())
        basis = eye.copy()
        for (m, j), deriv in slope_derivs.items():
            a = tableau.coupling[q][m][i, j]
            if a != 0.0:
                basis = basis + (h * a) * deriv
        a_ii = float(tableau.coupling[q][q][i, i])
        if a_ii != 0.0:
            stage_deriv = np.linalg.solve(eye - (h * a_ii) * jac, basis)
        else:
            stage_deriv = basis
        slope_derivs[(q, i)] = jac @ stage_deriv

    phi = eye.copy()
    for q, i in tableau.stage_schedule:
        b = tableau.weights[q][i]
        if b != 0.0:
            phi = phi + (h * b) * slope_derivs[(q, i)]
    return phi


def propagator_chain_adjoint(trajectory: ForwardTrajectory,
                             terminal: np.ndarray) -> np.ndarray:
    """lambda_n = Phi_n^T lambda_{n+1} rolled back step by step."""
    n_steps = trajectory.num_steps
    lam = np.empty((n_steps + 1, trajectory.system.dim))
    lam[n_steps] = terminal
    for n in range(n_steps - 1, -1, -1):
        lam[n] = dense_step_propagator(trajectory, n).T @ lam[n + 1]
    return lam


def fd_goal_gradient(problem: ProblemInstance, tableau,
                     time_grid) -> np.ndarray:
    """Central-difference gradient of Q(y_N) with respect to y_0."""
    base = np.array(problem.y0, dtype=float)
    grad = np.empty_like(base)
    for j in range(base.size):
        delta = FD_REL_STEP * (1.0 + abs(base[j]))
        values = []
        for sign in (1.0, -1.0):
            shifted = base.copy()
            shifted[j] += sign * delta
            traj = integrate(replace(problem, y0=shifted), tableau,
                             time_grid, consumer=lambda n, y_n, result: None)
            values.append(problem.goal.evaluate(traj.states[-1]))
        grad[j] = (values[0] - values[1]) / (2.0 * delta)
    return grad
