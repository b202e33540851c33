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
import sys
from pathlib import Path

import numpy as np

from gark.adaptivity import RefinementConfig, run_campaign
from gark.adjoint import adjoint_sweep
from gark.estimation import estimate_errors, temporal_residuals, \
    assemble_report
from gark.forward import integrate, step
from gark.mesh import TimeGrid
from gark.oracle import fd_goal_gradient, propagator_chain_adjoint
from gark.systems import (PROBLEM_BUILDERS, GoalFunction, Partition,
                          SplitOdeSystem, build_problem, default_grid,
                          make_random_nonlinear)
from gark.tableau import GAMMA_MINUS, GAMMA_PLUS, adjoint_coefficients, \
    build_imex22

PROBLEM_CHOICES = tuple(PROBLEM_BUILDERS)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", choices=PROBLEM_CHOICES,
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

    est = sub.add_parser("estimate",
                         help="four-solution split goal-error estimate")
    _add_common(est)

    ref = sub.add_parser("refine", help="adaptive refinement campaign")
    _add_common(ref)
    ref.add_argument("--stages", type=int, default=4)
    ref.add_argument("--space-pct", type=float, default=90.0)
    ref.add_argument("--time-pct", type=float, default=80.0)

    orc = sub.add_parser("oracle-check",
                         help="self-check against independent formulas")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--config", type=Path, default=None)
    return parser


def _apply_config(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> None:
    """Override args with the entries of the JSON file args.config.

    Each key must name an option of the subcommand, and each value is
    parsed as if typed after that option on the command line.
    """
    if args.config is None:
        return
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {action.dest: action
               for action in subparsers.choices[args.command]._actions
               if action.option_strings and action.dest not in ("help",
                                                                "config")}
    try:
        data = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as err:
        raise SystemExit(f"config file {args.config}: {err}") from err
    if not isinstance(data, dict):
        raise SystemExit(f"config file {args.config}: not a JSON object")
    for key, value in data.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise SystemExit(f"config key {key!r} is not a known option")
        try:
            value = (action.type or str)(str(value))
        except (TypeError, ValueError) as err:
            raise SystemExit(
                f"config key {key!r}: invalid value {value!r}") from err
        if action.choices is not None and value not in action.choices:
            raise SystemExit(f"config key {key!r}: {value!r} is not one of "
                             f"{', '.join(action.choices)}")
        setattr(args, action.dest, value)


def _make_problem(args: argparse.Namespace):
    grid = default_grid(args.problem, args.nx, args.ny)
    params = {}
    if args.t_final is not None:
        builder = PROBLEM_BUILDERS[args.problem]
        if "t_final" not in inspect.signature(builder).parameters:
            raise SystemExit(
                f"problem {args.problem!r} does not accept --t-final")
        params["t_final"] = args.t_final
    return build_problem(args.problem, grid, **params)


def _format_accuracy(accuracy: float | None) -> str:
    """Signed relative accuracy, or n/a when the reference gap is zero."""
    return "n/a" if accuracy is None else f"{accuracy:+.4f}"


def _tableau(args: argparse.Namespace):
    return build_imex22(gamma=args.gamma, alpha=args.alpha)


def _reference_pair(problem, tableau, ref_dt: float):
    """Final state and adjoint seed state of the reference run."""
    grid = TimeGrid.uniform(problem.t0, problem.t_final, ref_dt)
    traj = integrate(problem, tableau, grid)
    return traj.states[-1], adjoint_sweep(traj, method="mu").lam[0]


def cmd_converge(args: argparse.Namespace) -> int:
    if args.levels < 2:
        raise SystemExit("--levels must be at least 2 to fit a slope")
    if args.ref_exponent < args.levels:
        raise SystemExit("--ref-exponent must be at least --levels")
    problem = _make_problem(args)
    try:  # halvings of a step that divides [t0, T] divide it too
        grids = [TimeGrid.uniform(problem.t0, problem.t_final,
                                  args.dt / 2 ** level)
                 for level in range(args.levels)]
    except ValueError as err:
        raise SystemExit(f"--dt: {err}") from err
    tableau = _tableau(args)
    args.out.mkdir(parents=True, exist_ok=True)
    ref_dt = args.dt / 2 ** args.ref_exponent
    y_ref, lam0_ref = _reference_pair(problem, tableau, ref_dt)

    rows = []
    for level, grid in enumerate(grids):
        dt = args.dt / 2 ** level
        traj = integrate(problem, tableau, grid)
        lam0 = adjoint_sweep(traj, method="mu").lam[0]
        rows.append((dt,
                     float(np.linalg.norm(traj.states[-1] - y_ref)
                           / np.linalg.norm(y_ref)),
                     float(np.linalg.norm(lam0 - lam0_ref)
                           / np.linalg.norm(lam0_ref))))

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
    grid = TimeGrid.uniform(problem.t0, problem.t_final, args.dt)
    bundle = estimate_errors(problem, _tableau(args), grid)
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
    for flag, pct in (("--space-pct", args.space_pct),
                      ("--time-pct", args.time_pct)):
        if not 0.0 <= pct <= 100.0:
            raise SystemExit(f"{flag} must lie in [0, 100], not {pct}")
    if args.stages < 1:
        raise SystemExit("--stages must be at least 1")
    problem = _make_problem(args)
    grid = TimeGrid.uniform(problem.t0, problem.t_final, args.dt)
    cfg = RefinementConfig(space_percentile=args.space_pct,
                           time_percentile=args.time_pct,
                           num_stages=args.stages)
    campaign = run_campaign(problem, _tableau(args), grid, cfg,
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


def _scalar_system(lam_a: float, lam_b: float) -> SplitOdeSystem:
    import scipy.sparse as sp
    mk = lambda lam: Partition(
        name=f"rate{lam}", rhs=lambda t, y: lam * y,
        jacobian=lambda t, y: sp.csr_matrix([[lam]]), linear=True)
    return SplitOdeSystem(dim=1, partitions=(mk(lam_a), mk(lam_b)))


def _check_scalar_growth() -> bool:
    h = 0.3
    tab = build_imex22()
    explicit = step(_scalar_system(-0.7, 0.0), tab, 0.0, h,
                    np.array([1.0])).y_next[0]
    z = -0.7 * h
    if abs(explicit - (1 + z + z * z / 2)) > 1e-13:
        return False
    implicit = step(_scalar_system(0.0, -2.0), tab, 0.0, h,
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
    adj = adjoint_sweep(traj, method="mu")
    chain = propagator_chain_adjoint(
        traj, problem.goal.gradient(traj.states[-1]))
    scale = np.max(np.abs(chain))
    return bool(np.max(np.abs(adj.lam - chain)) < 1e-9 * scale)


def _check_gradient(seed: int) -> bool:
    problem = make_random_nonlinear(seed=seed + 1, dim=5)
    grid = TimeGrid.uniform(problem.t0, problem.t_final, 0.05)
    traj = integrate(problem, build_imex22(), grid)
    lam0 = adjoint_sweep(traj, method="mu").lam[0]
    fd = fd_goal_gradient(problem, build_imex22(), grid)
    return bool(np.max(np.abs(lam0 - fd))
                < 1e-4 * max(1.0, np.max(np.abs(fd))))


def _check_telescoping(seed: int) -> bool:
    import scipy.sparse as sp
    rng = np.random.default_rng(seed + 2)
    dim = 6
    mats = [sp.csr_matrix(rng.standard_normal((dim, dim)) / dim
                          - 0.5 * np.eye(dim)) for _ in range(2)]
    parts = tuple(Partition(name=f"p{k}",
                            rhs=lambda t, y, A=A: A @ y,
                            jacobian=lambda t, y, A=A: A, linear=True)
                  for k, A in enumerate(mats))
    system = SplitOdeSystem(dim=dim, partitions=parts)
    w = np.ones(dim)
    goal = GoalFunction(evaluate=lambda y: float(w @ y),
                        gradient=lambda y: w.copy())
    from gark.systems import ProblemInstance
    problem = ProblemInstance(name="check", system=system, grid=None,
                              y0=rng.standard_normal(dim), t0=0.0,
                              t_final=0.6, goal=goal)
    grid = TimeGrid.uniform(0.0, 0.6, 0.1)
    traj = integrate(problem, build_imex22(), grid)
    fine = integrate(problem, build_imex22(),
                     grid.halve_all_steps().halve_all_steps())
    adj = adjoint_sweep(traj, method="mu")
    report = assemble_report(traj, adj,
                             temporal_residuals(traj, fine.states[::4]))
    gap = goal.evaluate(fine.states[-1]) - goal.evaluate(traj.states[-1])
    return abs(report.e_temporal - gap) < 1e-9 * max(1.0, abs(gap))


def cmd_oracle_check(args: argparse.Namespace) -> int:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(parser, args)
    handlers = {
        "converge": cmd_converge,
        "estimate": cmd_estimate,
        "refine": cmd_refine,
        "oracle-check": cmd_oracle_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
