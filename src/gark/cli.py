"""Command line front end.

Subcommands: converge (time-convergence study of the forward and adjoint
solutions), estimate (four-solution split error report), refine
(adaptive refinement campaign), oracle-check (self-diagnostics against
independent formulas).  All outputs are deterministic: a rerun with the
same settings writes byte-identical files.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from gark.adaptivity import RefinementConfig, run_campaign
from gark.adjoint import adjoint_sweep
from gark.estimation import estimate_errors, temporal_residuals, \
    assemble_report
from gark.forward import (StepFailureError, align_tableau, integrate, step,
                          stored_stage_rows)
from gark.mesh import DIRICHLET, TimeGrid
from gark.oracle import fd_goal_gradient, propagator_chain_adjoint
from gark.systems import (PROBLEM_BUILDERS, PROBLEM_DOMAINS, GoalFunction,
                          Partition, ProblemInstance, SplitOdeSystem,
                          build_problem, default_grid, make_random_nonlinear)
from gark.tableau import (GAMMA_MINUS, GAMMA_PLUS, InvalidParameterError,
                          adjoint_coefficients, build_imex22)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", choices=PROBLEM_BUILDERS,
                        default="calvo")
    parser.add_argument("--nx", type=int, default=20,
                        help="cells along x")
    parser.add_argument("--ny", type=int, default=10,
                        help="cells along y")
    parser.add_argument("--dt", type=float, default=0.15)
    parser.add_argument("--t-final", type=float, default=None,
                        help="override the problem's final time "
                             "(where the problem accepts one)")
    parser.add_argument("--gamma", type=float, default=GAMMA_MINUS)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file whose entries override flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gark",
        description="split-system integrator with adjoint error estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("converge",
                          help="forward/adjoint time-convergence study")
    _add_common(conv)
    conv.add_argument("--levels", type=int, default=5,
                      help="number of step-size halvings from --dt")
    conv.add_argument("--ref-exponent", type=int, default=7,
                      help="reference step is dt / 2**this")
    conv.set_defaults(run=cmd_converge)

    est = sub.add_parser("estimate",
                         help="four-solution split goal-error estimate")
    _add_common(est)
    est.set_defaults(run=cmd_estimate)

    ref = sub.add_parser("refine", help="adaptive refinement campaign")
    _add_common(ref)
    ref.add_argument("--stages", type=int, default=4)
    ref.set_defaults(run=cmd_refine)

    orc = sub.add_parser("oracle-check",
                         help="self-check against independent formulas")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--config", type=Path, default=None)
    orc.set_defaults(run=cmd_oracle_check)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv, then argv and the --config file's entries as flag tokens
    --key=value, which argparse checks like flags and which win over them.
    Keys naming or abbreviating --help or --config, and null values, are
    refused."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        data = json.loads(args.config.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"config file {args.config}: {err}") from err
    if not isinstance(data, dict):
        raise SystemExit(f"config file {args.config}: not a JSON object")
    for key, value in data.items():
        flag = "--" + key.replace("_", "-").partition("=")[0]
        if "--help".startswith(flag) or "--config".startswith(flag):
            parser.error(f"config key {key!r}: a config file cannot set "
                         "--help or --config")
        if value is None:
            parser.error(f"config key {key!r}: null is no value; leave the "
                         "key out to keep the flag's default")
    return parser.parse_args(argv + [f"--{key.replace('_', '-')}={value}"
                                     for key, value in data.items()])


def _make_problem(args: argparse.Namespace):
    # Dirichlet edges hold no unknowns, so one cell between two holds none
    least = 2 if PROBLEM_DOMAINS[args.problem][2] == DIRICHLET else 1
    for flag, cells in (("--nx", args.nx), ("--ny", args.ny)):
        if cells < least:
            raise SystemExit(f"{flag} must be at least {least}, not {cells}")
    grid = default_grid(args.problem, args.nx, args.ny)
    params = {}
    if args.t_final is not None:
        builder = PROBLEM_BUILDERS[args.problem]
        if "t_final" not in inspect.signature(builder).parameters:
            raise SystemExit(
                f"problem {args.problem!r} does not accept --t-final")
        params["t_final"] = args.t_final
    problem = build_problem(args.problem, grid, **params)
    if not problem.t_final > problem.t0:
        raise SystemExit(f"--t-final must exceed the start time "
                         f"{problem.t0}, not {problem.t_final}")
    if not np.isfinite(problem.t_final):
        raise SystemExit(f"--t-final must be finite, not {problem.t_final}")
    return problem


def _time_grid(problem, dt: float) -> TimeGrid:
    """The uniform grid of step dt over the problem's interval; exits
    naming --dt when dt is not positive or does not divide the interval."""
    try:
        return TimeGrid.uniform(problem.t0, problem.t_final, dt)
    except ValueError as err:
        raise SystemExit(f"--dt: {err}") from err


def _format_accuracy(accuracy: float | None) -> str:
    """Signed relative accuracy, or n/a when the reference gap is zero."""
    return "n/a" if accuracy is None else f"{accuracy:+.4f}"


def _tableau(args: argparse.Namespace):
    """The IMEX pair of --gamma and --alpha.  validate() judges gamma on
    the pair with alpha at its default, gamma, then alpha on the pair; a
    refusal exits naming its flag."""
    try:
        gamma_ok = build_imex22(gamma=args.gamma).validate().ok
    except InvalidParameterError:  # alpha = gamma is zero or not finite
        gamma_ok = False
    if not gamma_ok:
        raise SystemExit(f"--gamma must be GAMMA_MINUS = {GAMMA_MINUS!r} or "
                         f"GAMMA_PLUS = {GAMMA_PLUS!r} (1 -+ sqrt(2)/2, "
                         f"second order), not {args.gamma!r}")
    try:
        tableau = build_imex22(gamma=args.gamma, alpha=args.alpha)
    except InvalidParameterError as err:
        raise SystemExit(f"--alpha: {err}") from err
    report = tableau.validate()
    if not report.ok:
        raise SystemExit(f"--alpha: the pair fails validate(): {report}")
    return tableau


def _final_pair(problem, tableau, grid: TimeGrid):
    """Final state y_N and initial adjoint lambda_0 of one run on grid; the
    sweep stores no mu, as only lam is read."""
    traj = integrate(problem, tableau, grid)
    return traj.states[-1], adjoint_sweep(traj, mu_partitions=()).lam[0]


def _final_pair_bytes(problem, tableau, num_steps: int) -> int:
    """Bytes that _final_pair's stored run of num_steps steps and its sweep
    keep: N + 1 states, N rows per stored stage value and N + 1 adjoint
    states."""
    system = problem.system
    rows = sum(map(len, stored_stage_rows(align_tableau(tableau, system),
                                          system)))
    return 8 * system.dim * (2 * (num_steps + 1) + num_steps * rows)


def _rel_l2(value: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))


def cmd_converge(args: argparse.Namespace) -> int:
    if args.levels < 2:
        raise SystemExit("--levels must be at least 2 to fit a slope")
    if args.ref_exponent < args.levels:
        raise SystemExit("--ref-exponent must be at least --levels")
    problem = _make_problem(args)
    # halvings of a step that divides [t0, T] divide it too, so a bad --dt
    # fails at level 0, before the reference run
    dts = [args.dt / 2 ** level for level in range(args.levels)]
    grids = [_time_grid(problem, dt) for dt in dts]
    tableau = _tableau(args)
    ref_steps = grids[0].num_steps * 2 ** args.ref_exponent
    ref_bytes = _final_pair_bytes(problem, tableau, ref_steps)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if ref_bytes > memory:
        raise SystemExit(
            f"--ref-exponent {args.ref_exponent}: the reference run of "
            f"{grids[0].num_steps} * 2**{args.ref_exponent} steps and its "
            f"adjoint sweep would store more than the {memory / 2 ** 30:.1f}"
            " GiB of physical memory")
    args.out.mkdir(parents=True, exist_ok=True)
    ref_dt = args.dt / 2 ** args.ref_exponent
    run, rows = "reference", []  # run names the run in a StepFailureError
    try:
        y_ref, lam0_ref = _final_pair(problem, tableau,
                                      _time_grid(problem, ref_dt))
        for dt, grid in zip(dts, grids):
            run = f"dt={dt:.6g}"
            y_n, lam0 = _final_pair(problem, tableau, grid)
            rows.append((dt, _rel_l2(y_n, y_ref), _rel_l2(lam0, lam0_ref)))
    except StepFailureError as err:
        err.run = run
        raise

    with open(args.out / "convergence.csv", "w") as handle:
        handle.write("dt,forward_rel_l2,adjoint_rel_l2\n")
        for dt, fwd, adj in rows:
            handle.write(f"{dt!r},{fwd!r},{adj!r}\n")

    log_dt = np.log([r[0] for r in rows])
    slopes = {
        "forward_slope": float(np.polyfit(
            log_dt, np.log([r[1] for r in rows]), 1)[0]),
        "adjoint_slope": float(np.polyfit(
            log_dt, np.log([r[2] for r in rows]), 1)[0]),
        "reference_dt": ref_dt,
    }
    (args.out / "convergence.json").write_text(
        json.dumps(slopes, indent=2) + "\n")
    print(f"forward slope {slopes['forward_slope']:.3f}, "
          f"adjoint slope {slopes['adjoint_slope']:.3f} "
          f"over {args.levels} levels from dt={args.dt}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    problem = _make_problem(args)
    grid = _time_grid(problem, args.dt)
    tableau = _tableau(args)
    bundle = estimate_errors(problem, tableau, grid)
    report = bundle.report
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "report.json").write_text(report.to_json() + "\n")
    report.write_csv(args.out / "report.csv")
    parts = ", ".join(f"{name}={value:.4e}" for name, value
                      in zip(report.partition_names, report.e_spatial))
    print(f"goal {report.psi_num:.6e}  reference gap {report.e_ref:.4e}  "
          f"temporal {report.e_temporal:.4e}  spatial [{parts}]  "
          f"total {report.e_total:.4e}  "
          f"accuracy {_format_accuracy(report.accuracy)}")
    return 0


def cmd_refine(args: argparse.Namespace) -> int:
    if args.stages < 1:
        raise SystemExit("--stages must be at least 1")
    problem = _make_problem(args)
    grid = _time_grid(problem, args.dt)
    tableau = _tableau(args)
    campaign = run_campaign(problem, tableau, grid,
                            RefinementConfig(num_stages=args.stages),
                            out_dir=args.out)
    for record in campaign.records:
        entry = record.summary_dict()
        print(f"stage {entry['stage']}: cells {entry['num_cells']}, "
              f"steps {entry['num_steps']}, e_ref {entry['e_ref']:.4e}, "
              f"total {entry['e_total']:.4e}, "
              f"accuracy {_format_accuracy(entry['accuracy'])}")
    return 0


def _check_tableau_identities() -> bool:
    for gamma in (GAMMA_MINUS, GAMMA_PLUS):
        tableau = build_imex22(gamma=gamma)
        if not tableau.validate().ok:
            return False
        twice = adjoint_coefficients(adjoint_coefficients(tableau))
        for q in range(2):
            for m in range(2):
                if np.max(np.abs(twice.coupling[q][m]
                                 - tableau.coupling[q][m])) > 1e-13:
                    return False
    return True


def _linear_system(*mats) -> SplitOdeSystem:
    """The split system y' = sum_q A_q y, one linear partition per matrix."""
    parts = tuple(Partition(name=f"p{q}", rhs=lambda t, y, A=A: A @ y,
                            jacobian=lambda t, y, A=A: A, linear=True)
                  for q, A in enumerate(map(sp.csr_matrix, mats)))
    return SplitOdeSystem(dim=len(mats[0]), partitions=parts)


def _check_scalar_growth() -> bool:
    h = 0.3
    tab = build_imex22()
    explicit = step(_linear_system([[-0.7]], [[0.0]]), tab, 0.0, h,
                    np.array([1.0])).y_next[0]
    z = -0.7 * h
    if abs(explicit - (1 + z + z * z / 2)) > 1e-13:
        return False
    implicit = step(_linear_system([[0.0]], [[-2.0]]), tab, 0.0, h,
                    np.array([1.0])).y_next[0]
    g = GAMMA_MINUS
    A = np.array([[g, 0.0], [1 - g, g]])
    b = np.array([1 - g, g])
    z = -2.0 * h
    resolvent = 1 + z * float(b @ np.linalg.solve(np.eye(2) - z * A,
                                                  np.ones(2)))
    return abs(implicit - resolvent) < 1e-13


def _check_duality(seed: int) -> bool:
    problem = make_random_nonlinear(seed=seed, dim=6)
    grid = TimeGrid.uniform(problem.t0, problem.t_final, 0.05)
    traj = integrate(problem, build_imex22(), grid)
    adj = adjoint_sweep(traj)
    chain = propagator_chain_adjoint(
        traj, problem.goal.gradient(traj.states[-1]))
    scale = np.max(np.abs(chain))
    return bool(np.max(np.abs(adj.lam - chain)) < 1e-9 * scale)


def _check_gradient(seed: int) -> bool:
    problem = make_random_nonlinear(seed=seed + 1, dim=5)
    grid = TimeGrid.uniform(problem.t0, problem.t_final, 0.05)
    traj = integrate(problem, build_imex22(), grid)
    lam0 = adjoint_sweep(traj).lam[0]
    fd = fd_goal_gradient(problem, build_imex22(), grid)
    return bool(np.max(np.abs(lam0 - fd))
                < 1e-4 * max(1.0, np.max(np.abs(fd))))


def _check_telescoping(seed: int) -> bool:
    rng = np.random.default_rng(seed + 2)
    dim = 6
    system = _linear_system(*(rng.standard_normal((dim, dim)) / dim
                              - 0.5 * np.eye(dim) for _ in range(2)))
    w = np.ones(dim)
    goal = GoalFunction(evaluate=lambda y: float(w @ y),
                        gradient=lambda y: w.copy())
    problem = ProblemInstance(name="check", system=system, grid=None,
                              y0=rng.standard_normal(dim), t0=0.0,
                              t_final=0.6, goal=goal)
    grid = TimeGrid.uniform(0.0, 0.6, 0.1)
    traj = integrate(problem, build_imex22(), grid)
    fine = integrate(problem, build_imex22(),
                     grid.halve_all_steps().halve_all_steps())
    adj = adjoint_sweep(traj)
    report = assemble_report(traj, adj,
                             temporal_residuals(traj, fine.states[::4]))
    gap = goal.evaluate(fine.states[-1]) - goal.evaluate(traj.states[-1])
    return abs(report.e_temporal - gap) < 1e-9 * max(1.0, abs(gap))


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.seed < 0:  # numpy's generators take no negative seed
        raise SystemExit(f"--seed must be non-negative, not {args.seed}")
    checks = (
        ("tableau-identities", lambda: _check_tableau_identities()),
        ("scalar-growth", lambda: _check_scalar_growth()),
        ("propagator-duality", lambda: _check_duality(args.seed)),
        ("gradient-vs-differences", lambda: _check_gradient(args.seed)),
        ("estimator-telescoping", lambda: _check_telescoping(args.seed)),
    )
    failed = 0
    for name, run in checks:
        ok = run()
        failed += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.run(args)
    except StepFailureError as err:
        raise SystemExit(str(err)) from err


if __name__ == "__main__":
    sys.exit(main())
