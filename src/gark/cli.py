"""Command line front end.

Subcommands: converge (time-convergence study of the forward and adjoint
solutions), estimate (four-solution split error report) and refine
(adaptive refinement campaign).  All outputs are deterministic: a rerun
with the same settings writes byte-identical files.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np

from gark.adaptivity import RefinementConfig, run_campaign
from gark.adjoint import adjoint_sweep
from gark.estimation import estimate_errors, weighed_partitions
from gark.forward import StepFailureError, integrate, stored_stage_rows
from gark.mesh import DIRICHLET, TimeGrid
from gark.systems import (PROBLEM_BUILDERS, PROBLEM_DOMAINS, build_problem,
                          default_grid)
from gark.tableau import build_imex22

PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
# the one pair every command runs
TABLEAU = build_imex22()


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
    parser.add_argument("--out", type=Path, default=Path("out"))


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
    return parser


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


def _time_grid(problem, dt: float, mu_partitions=()) -> TimeGrid:
    """The uniform grid of step dt over the problem's interval; exits naming
    --dt when dt is not positive or does not divide the interval, and --dt
    and --t-final, before building it, when its stored run and a sweep
    storing the mu of mu_partitions would not fit (_stored_run_bytes)."""
    steps = (problem.t_final - problem.t0) / dt if dt > 0 else 0.0
    if _stored_run_bytes(problem, steps, mu_partitions) > PHYSICAL_MEMORY:
        raise SystemExit(
            f"--dt {dt!r}, --t-final {problem.t_final!r}: a stored run of "
            f"{steps:.4g} steps and its adjoint sweep would store more than "
            f"the {PHYSICAL_MEMORY / 2 ** 30:.1f} GiB of physical memory")
    try:
        return TimeGrid.uniform(problem.t0, problem.t_final, dt)
    except ValueError as err:
        raise SystemExit(f"--dt: {err}") from err


def _format_accuracy(accuracy: float | None) -> str:
    """Signed relative accuracy, or n/a when the reference gap is zero."""
    return "n/a" if accuracy is None else f"{accuracy:+.4f}"


def _make_out(out: Path, files: tuple, dirs: tuple = ()) -> None:
    """Create the --out directory, called after a command's flag checks and
    before its first run, for the files (glob patterns) and subdirectories
    the command writes or removes in it; exits naming --out when it cannot
    be made, when a path that one of files matches is a directory, or when
    one of dirs is something else."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise SystemExit(f"--out: {err}") from err
    for pattern in files:
        for path in sorted(out.glob(pattern)):
            if path.is_dir():
                raise SystemExit(f"--out: {path} is a directory")
    for name in dirs:
        if (out / name).exists() and not (out / name).is_dir():
            raise SystemExit(f"--out: {out / name} is not a directory")


def _final_pair(problem, grid: TimeGrid):
    """Final state y_N and initial adjoint lambda_0 of one run on grid; the
    sweep stores no mu, as only lam is read."""
    traj = integrate(problem, TABLEAU, grid)
    return traj.states[-1], adjoint_sweep(traj).lam[0]


def _stored_run_bytes(problem, num_steps: float, mu_partitions=()) -> float:
    """Bytes that a stored run of num_steps steps and its adjoint sweep
    keep: N + 1 states, N rows per stored stage value, N + 1 adjoint states
    and N rows per stage of mu_partitions, whose mu the sweep stores
    (infinite for num_steps = inf).  _final_pair's sweep stores no mu, an
    estimate's that of its weighed_partitions."""
    system = problem.system
    rows = sum(map(len, stored_stage_rows(TABLEAU, system)))
    rows += sum(TABLEAU.stage_counts[q] for q in mu_partitions)
    return 8 * system.dim * ((2 + rows) * num_steps + 2)


def _rel_l2(value: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))


def cmd_converge(args: argparse.Namespace) -> int:
    if args.levels < 2:
        raise SystemExit("--levels must be at least 2 to fit a slope")
    if args.ref_exponent < args.levels:
        raise SystemExit("--ref-exponent must be at least --levels")
    problem = _make_problem(args)
    # halvings of a step that divides [t0, T] divide it too, so a bad --dt
    # fails at level 0, and the reference bounds every level's size: it is
    # checked before any finer step is computed, which could overflow
    grids = [_time_grid(problem, args.dt)]
    ref_steps = grids[0].num_steps * 2 ** args.ref_exponent
    if _stored_run_bytes(problem, ref_steps) > PHYSICAL_MEMORY:
        raise SystemExit(
            f"--ref-exponent {args.ref_exponent}: the reference run of "
            f"{grids[0].num_steps} * 2**{args.ref_exponent} steps and its "
            "adjoint sweep would store more than the "
            f"{PHYSICAL_MEMORY / 2 ** 30:.1f} GiB of physical memory")
    dts = [args.dt / 2 ** level for level in range(args.levels)]
    grids += [_time_grid(problem, dt) for dt in dts[1:]]
    _make_out(args.out, ("convergence.csv", "convergence.json"))
    ref_dt = args.dt / 2 ** args.ref_exponent
    run, rows = "reference", []  # run names the run in a StepFailureError
    try:
        y_ref, lam0_ref = _final_pair(problem, _time_grid(problem, ref_dt))
        for dt, grid in zip(dts, grids):
            run = f"dt={dt:.6g}"
            y_n, lam0 = _final_pair(problem, grid)
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
    grid = _time_grid(problem, args.dt,
                      weighed_partitions(TABLEAU, problem.system))
    _make_out(args.out, ("report.json", "report.csv"))
    report = estimate_errors(problem, TABLEAU, grid).report
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
    # guards stage 0's estimate; the stages after it refine their grids
    # inside the campaign, unguarded
    grid = _time_grid(problem, args.dt,
                      weighed_partitions(TABLEAU, problem.system))
    _make_out(args.out, ("campaign.jsonl", "grids/stage-*.json"), ("grids",))
    campaign = run_campaign(problem, TABLEAU, grid,
                            RefinementConfig(num_stages=args.stages),
                            out_dir=args.out)
    for record in campaign.records:
        entry = record.summary_dict()
        print(f"stage {entry['stage']}: cells {entry['num_cells']}, "
              f"steps {entry['num_steps']}, e_ref {entry['e_ref']:.4e}, "
              f"total {entry['e_total']:.4e}, "
              f"accuracy {_format_accuracy(entry['accuracy'])}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except StepFailureError as err:
        raise SystemExit(str(err)) from err


if __name__ == "__main__":
    sys.exit(main())
