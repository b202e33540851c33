"""End-to-end acceptance checks for the solver, adjoint, and estimator stack.

Each test prints exactly one summary line (bypassing capture) so a full run
yields a compact verdict table; the assertions enforce the same thresholds
the lines report.  Expected wall time for the whole module is a few minutes,
dominated by the reaction-diffusion runs.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gark.adaptivity import RefinementConfig, run_campaign
from gark.adjoint import adjoint_sweep
from gark.estimation import (assemble_report, estimate_errors,
                             temporal_residuals)
from gark.forward import integrate
from gark.mesh import GridTransfer, TimeGrid
from gark.systems import build_problem, default_grid, make_calvo
from gark.tableau import build_imex22

from helpers import (GAMMA_PLUS, StepRecorder, dense_step_propagator,
                     fd_goal_gradient, imex22_family, make_random_nonlinear,
                     mu_theta, nonlinear_stiff, scan_adjoint_sweep, wrap)

TABLEAU = build_imex22()


def emit(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}  {detail}")


def fitted_slope(dts, errors) -> float:
    return float(np.polyfit(np.log2(dts), np.log2(errors), 1)[0])


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.fixture(scope="module")
def convergence_study():
    """Forward and adjoint errors on the manufactured-solution problem over
    dt = 0.15 / 2^k, k = 0..4, against a dt = 0.15 / 2^7 reference run."""
    start = time.perf_counter()
    problem = make_calvo(default_grid("calvo", 20, 10))
    ref = integrate(problem, TABLEAU,
                    TimeGrid.uniform(0.0, 1.5, 0.15 / 2 ** 7))
    ref_lam0 = adjoint_sweep(ref).lam[0]
    y_scale = np.linalg.norm(ref.states[-1])
    lam_scale = np.linalg.norm(ref_lam0)

    dts, forward_err, adjoint_err = [], [], []
    for k in range(5):
        dt = 0.15 / 2 ** k
        traj = integrate(problem, TABLEAU, TimeGrid.uniform(0.0, 1.5, dt))
        lam0 = adjoint_sweep(traj).lam[0]
        dts.append(dt)
        forward_err.append(
            np.linalg.norm(traj.states[-1] - ref.states[-1]) / y_scale)
        adjoint_err.append(np.linalg.norm(lam0 - ref_lam0) / lam_scale)
    elapsed = time.perf_counter() - start
    return np.array(dts), np.array(forward_err), np.array(adjoint_err), elapsed


def test_criterion_1_forward_order(convergence_study, capsys):
    dts, forward_err, _, elapsed = convergence_study
    order = fitted_slope(dts, forward_err)
    ok = 1.8 <= order <= 2.2
    emit(capsys, 1, ok,
         f"forward temporal order {order:.3f} in [1.8, 2.2] "
         f"(20x10 grid, dt=0.15/2^k k=0..4 vs 2^-7 reference; "
         f"{elapsed:.1f}s shared)")
    assert ok, f"forward order {order} outside [1.8, 2.2]"


def test_criterion_2_adjoint_order(convergence_study, capsys):
    dts, _, adjoint_err, elapsed = convergence_study
    order = fitted_slope(dts, adjoint_err)
    ok = 1.8 <= order <= 2.2
    emit(capsys, 2, ok,
         f"adjoint temporal order {order:.3f} in [1.8, 2.2] "
         f"(lambda_0 vs refined-grid adjoint; {elapsed:.1f}s shared)")
    assert ok, f"adjoint order {order} outside [1.8, 2.2]"


def test_criterion_3_adjoint_exactness(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst_grad, worst_dual = 0.0, 0.0
    for seed in range(5):
        problem = make_random_nonlinear(seed)
        grid = TimeGrid.uniform(problem.t0, problem.t_final, 0.05)
        traj = integrate(problem, TABLEAU, grid)
        sweep = adjoint_sweep(traj)

        fd_start = fd_goal_gradient(problem, TABLEAU, grid)
        worst_grad = max(worst_grad, rel_l2(sweep.lam[0], fd_start))
        mid = traj.num_steps // 2
        fd_mid = fd_goal_gradient(replace(problem, y0=traj.states[mid]),
                                  TABLEAU, TimeGrid(grid.nodes[mid:]))
        worst_grad = max(worst_grad, rel_l2(sweep.lam[mid], fd_mid))

        for n in range(traj.num_steps):
            phi = dense_step_propagator(traj, n)
            u = rng.standard_normal(problem.system.dim)
            lhs = float(sweep.lam[n] @ u)
            rhs = float(sweep.lam[n + 1] @ (phi @ u))
            gap = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
            worst_dual = max(worst_dual, gap)
    ok = worst_grad <= 1e-5 and worst_dual <= 1e-10
    emit(capsys, 3, ok,
         f"5 random split systems: max gradient error {worst_grad:.2e} "
         f"<= 1e-5, max duality gap {worst_dual:.2e} <= 1e-10 "
         f"({time.perf_counter() - start:.1f}s)")
    assert worst_grad <= 1e-5, f"gradient mismatch {worst_grad}"
    assert worst_dual <= 1e-10, f"duality gap {worst_dual}"


def test_criterion_4_formulation_equivalence(capsys):
    start = time.perf_counter()
    system = nonlinear_stiff()
    runs = [
        integrate(wrap(system, np.full(system.dim, 0.4), t_final=0.5),
                  TABLEAU, TimeGrid.uniform(0.0, 0.5, 0.05)),
        integrate(make_calvo(default_grid("calvo", 20, 10)), TABLEAU,
                  TimeGrid.uniform(0.0, 1.5, 0.0375)),
    ]
    lam_rel, stage_rel = 0.0, 0.0
    for traj in runs:
        # the program sweeps mu; theta and ell come from the tests' scan
        theta_lam, stores = scan_adjoint_sweep(traj, "theta")
        theta = stores["theta"]
        mu = adjoint_sweep(traj, mu_partitions=(0, 1))
        ell_lam, stores = scan_adjoint_sweep(traj, "ell")
        ell = stores["ell"]
        lam_scale = np.max(np.abs(theta_lam))
        for other in (mu.lam, ell_lam):
            lam_rel = max(lam_rel,
                          np.max(np.abs(other - theta_lam)) / lam_scale)
        steps = traj.time_grid.steps[:, None]
        theta_scale = max(np.max(np.abs(t)) for t in theta)
        theta_from_mu = mu_theta(traj, mu)
        for q, i in traj.tableau.stage_schedule:
            b_i = traj.tableau.weights[q][i]
            via_mu = np.max(np.abs(theta_from_mu[q][:, i] - theta[q][:, i]))
            via_ell = np.max(np.abs(steps * b_i * ell[q][:, i]
                                    - theta[q][:, i]))
            stage_rel = max(stage_rel, via_mu / theta_scale,
                            via_ell / theta_scale)
    ok = lam_rel <= 1e-12 and stage_rel <= 1e-10
    emit(capsys, 4, ok,
         f"theta/mu/ell sweeps: lambda spread {lam_rel:.2e} <= 1e-12, "
         f"stage identities theta=J^T mu and theta=h b ell off by "
         f"{stage_rel:.2e} <= 1e-10 ({time.perf_counter() - start:.1f}s)")
    assert lam_rel <= 1e-12, f"lambda spread {lam_rel}"
    assert stage_rel <= 1e-10, f"stage identity residual {stage_rel}"


def test_criterion_5_temporal_estimator_accuracy(capsys):
    start = time.perf_counter()
    problem = make_calvo(default_grid("calvo", 20, 10))
    psi_exact = problem.goal.evaluate(problem.exact_solution(problem.t_final))
    dts, gaps = [], []
    for k in range(4):
        dt = 0.15 / 2 ** k
        traj = integrate(problem, TABLEAU,
                         TimeGrid.uniform(0.0, problem.t_final, dt))
        sweep = adjoint_sweep(traj)
        exact = np.array([problem.exact_solution(t)
                          for t in traj.time_grid.nodes])
        residuals = temporal_residuals(traj, exact)
        report = assemble_report(traj, sweep, residuals)
        e_true = psi_exact - problem.goal.evaluate(traj.states[-1])
        dts.append(dt)
        gaps.append(abs(report.e_temporal - e_true))
    slope = fitted_slope(np.array(dts), np.array(gaps))
    ok = slope >= 3.0
    emit(capsys, 5, ok,
         f"|E_1 - E_true| decays at order {slope:.2f} >= 3 under step "
         f"halving (exact-solution reference; "
         f"{time.perf_counter() - start:.1f}s)")
    assert ok, f"estimator defect order {slope} below 3"


def test_criterion_6_error_decomposition(capsys):
    start = time.perf_counter()
    verdicts, ok = [], True
    for name, nx, ny, dt in (("gray_scott", 10, 10, 0.02),
                             ("bsvd", 20, 20, 0.01)):
        problem = build_problem(name, default_grid(name, nx, ny))
        grid = TimeGrid.uniform(problem.t0, problem.t_final, dt)
        report = estimate_errors(problem, TABLEAU, grid).report
        sign_ok = (report.e_total > 0) == (report.e_ref > 0)
        effectivity = abs(report.e_total - report.e_ref) / abs(report.e_ref)
        ok = ok and sign_ok and effectivity <= 1.0
        verdicts.append(
            f"{name}: e_ref={report.e_ref:+.3e} e_total={report.e_total:+.3e}"
            f" sign {'ok' if sign_ok else 'FLIPPED'},"
            f" |E_total-E_ref|/|E_ref|={effectivity:.3f}")
    emit(capsys, 6, ok,
         "; ".join(verdicts) + f" ({time.perf_counter() - start:.1f}s)")
    assert ok, "; ".join(verdicts)


def test_criterion_7_adaptive_campaign(capsys):
    # Known limitation, currently a genuine failure: with a pointwise
    # reaction the bistable front pins inside the low-diffusivity gap
    # (depinning needs local h ~ 3e-3; verified against the exact
    # traveling-wave speed at constant D), so no protrusion forms by T = 4
    # and the marks track the pinned front in the lower half-domain.  The
    # space-refined companion unpins first once marked refinement drives
    # its local h past the threshold, which makes the reference gap jump
    # at the last stage.  The assertions state the target behavior.
    start = time.perf_counter()
    problem = build_problem("bsvd", default_grid("bsvd", 20, 20),
                            t_final=4.0)
    result = run_campaign(problem, TABLEAU,
                          TimeGrid.uniform(0.0, 4.0, 0.02),
                          RefinementConfig(num_stages=4))
    e_ref = np.array([abs(r.report.e_ref) for r in result.records])
    accuracy = [abs(r.report.accuracy) for r in result.records]
    decreasing = bool(np.all(np.diff(e_ref) < 0))
    order = fitted_slope(2.0 ** -np.arange(e_ref.size), e_ref)
    order_ok = 0.6 <= order <= 1.4
    accuracy_ok = accuracy[-1] <= accuracy[0]
    upper_fractions = []
    for record in result.records[2:]:
        grid = record.space_grid
        centers = 0.5 * (grid.ys[:-1] + grid.ys[1:])
        upper = sum(1 for ix, iy in record.marked_cells if centers[iy] > 0.5)
        upper_fractions.append(upper / max(1, len(record.marked_cells)))
    marks_ok = all(f >= 0.6 for f in upper_fractions)
    ok = decreasing and order_ok and accuracy_ok and marks_ok
    emit(capsys, 7, ok,
         f"4-stage campaign: |E_ref| {'strictly decreasing' if decreasing else 'NOT decreasing'}"
         f" {np.array2string(e_ref, formatter={'float': lambda v: f'{v:.2e}'})},"
         f" decay order {order:.2f} in [0.6, 1.4],"
         f" |accuracy| {accuracy[0]:.3f} -> {accuracy[-1]:.3f},"
         f" upper-half mark share {[f'{f:.2f}' for f in upper_fractions]}"
         f" >= 0.60 at stages >= 2 ({time.perf_counter() - start:.1f}s)")
    assert decreasing, f"|e_ref| sequence {e_ref} not strictly decreasing"
    assert order_ok, f"decay order {order} outside [0.6, 1.4]"
    assert accuracy_ok, f"accuracy degraded: {accuracy[0]} -> {accuracy[-1]}"
    assert marks_ok, f"upper-half mark fractions {upper_fractions} below 0.6"


def test_criterion_8_invariant_suites(capsys):
    start = time.perf_counter()
    checks = {}

    checks["tableau order conditions"] = (
        build_imex22().validate().ok
        and imex22_family(GAMMA_PLUS, 0.4).validate().ok)

    problem = make_calvo(default_grid("calvo", 8, 4))
    traj = integrate(problem, TABLEAU, TimeGrid.uniform(0.0, 1.5, 0.15))
    # the same run, its slopes and linear stage values seen as it is made
    recorded = StepRecorder()
    run = integrate(problem, TABLEAU, traj.time_grid, consumer=recorded)
    implicit_last = recorded.stage_values[0][:, -1]
    checks["stiff accuracy"] = bool(
        np.array_equal(implicit_last, traj.states[1:]))

    # a field with a distinct value per node, sampled on both grids:
    # bisection keeps every coarse coordinate bitwise, so injection must
    # pick exactly the coarse samples out of the fine ones
    grid = problem.grid
    fine = grid.refine_uniform()
    transfer = GridTransfer.between(fine, grid)
    field = lambda coords: coords[:, 0] + np.pi * coords[:, 1]
    checks["grid-transfer sampling"] = bool(np.array_equal(
        transfer.restrict(field(fine.unknown_coords())),
        field(grid.unknown_coords())))

    report = estimate_errors(
        problem, TABLEAU, TimeGrid.uniform(0.0, 1.5, 0.15)).report
    localized = all(
        math.isclose(float(cells.sum()), total, rel_tol=1e-10, abs_tol=1e-14)
        for cells, total in zip(report.per_cell, report.e_spatial))
    checks["localization sums to totals"] = localized and math.isclose(
        float(report.per_step.sum()), report.e_temporal,
        rel_tol=1e-12, abs_tol=1e-15)

    checks["residual self-consistency"] = (
        not np.any(temporal_residuals(traj, traj.states))
        and recorded.step_identity_residual(run) == 0.0)

    ok = all(checks.values())
    failed = [name for name, passed in checks.items() if not passed]
    emit(capsys, 8, ok,
         f"invariants: {', '.join(checks)} all hold"
         f" ({time.perf_counter() - start:.1f}s)"
         if ok else f"invariants failed: {', '.join(failed)}")
    assert ok, f"failed invariants: {failed}"
