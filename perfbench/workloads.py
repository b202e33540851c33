"""The benchmark's workloads, built from a seed.

Importing this module imports gark from the ``src`` directory next to the
benchmark's own directory, never from anywhere else, and raises
``ProgramMissing`` when that source is absent.

Seed 0 reproduces the acceptance-test configurations exactly.  Other seeds
draw the problem's physical parameter from a narrow band and keep every
grid and step size, so the work per job moves by at most a few percent:

* gs_estimate: Gray-Scott ``feed`` in [0.0236, 0.0244], ``kill`` in
  [0.059, 0.061];
* bsvd_campaign: ``t_final`` = 0.02 n with n drawn from 198..202;
* calvo_converge: ``nu`` in [0.095, 0.105].

A job is one call of the workload's entry point.  ``run`` returns what the
job computed; ``digest`` reduces it to the work done, a fingerprint of every
output number, the correctness problems found and the accuracy figures.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


class ProgramMissing(ImportError):
    """The program's source is not next to the benchmark."""


if not (SRC / "gark" / "__init__.py").is_file():
    raise ProgramMissing(f"no gark source under {SRC}")
sys.path.insert(0, str(SRC))

import gark  # noqa: E402
from gark import adaptivity, adjoint, estimation, forward, systems  # noqa: E402
from gark.mesh import TimeGrid  # noqa: E402
from gark.tableau import build_imex22  # noqa: E402

if Path(gark.__file__).resolve().parent != (SRC / "gark").resolve():
    raise ProgramMissing(f"gark was imported from {gark.__file__}, "
                         f"not from {SRC}")

# Criterion 8's localization tolerances: (rel_tol, abs_tol).
PER_CELL_TOL = (1e-10, 1e-14)
PER_STEP_TOL = (1e-12, 1e-15)
ORDER_RANGE = (1.8, 2.2)


@dataclass
class Outcome:
    """What the checks need from one job; the job's arrays are dropped."""

    work: int                 # sum of unknowns x steps over forward runs
    fingerprint: str          # sha256 of every output number
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


class _Fingerprint:
    def __init__(self):
        self.hash = hashlib.sha256()

    def add(self, *arrays) -> None:
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=float)
            self.hash.update(str(a.shape).encode())
            self.hash.update(a.tobytes())

    def hexdigest(self) -> str:
        return self.hash.hexdigest()


def _report_numbers(report) -> list:
    return ([report.psi_num, report.psi_ref, report.e_ref, report.e_temporal]
            + list(report.e_spatial) + [report.e_total, report.accuracy])


def check_report(report, where: str) -> list:
    """Finite numbers, and localizations that sum to their totals."""
    problems = []
    scalars = _report_numbers(report)
    if any(v is None or not math.isfinite(v) for v in scalars):
        problems.append(f"{where}: non-finite report number in {scalars}")
        return problems
    arrays = [report.per_step] + list(report.per_cell or ())
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append(f"{where}: non-finite localization")
        return problems
    rel, abs_ = PER_STEP_TOL
    if not math.isclose(float(report.per_step.sum()), report.e_temporal,
                        rel_tol=rel, abs_tol=abs_):
        problems.append(f"{where}: per_step does not sum to e_temporal")
    rel, abs_ = PER_CELL_TOL
    if report.per_cell is None or len(report.per_cell) != len(report.e_spatial):
        problems.append(f"{where}: per_cell missing")
    elif not all(math.isclose(float(cells.sum()), total, rel_tol=rel,
                              abs_tol=abs_)
                 for cells, total in zip(report.per_cell, report.e_spatial)):
        problems.append(f"{where}: per_cell does not sum to e_spatial")
    return problems


def _add_report(fp: _Fingerprint, report) -> None:
    fp.add(np.array(_report_numbers(report), dtype=float), report.per_step,
           *(report.per_cell or ()))


def effectivity(report) -> float:
    return abs(report.e_total - report.e_ref) / abs(report.e_ref)


class Workload:
    """One benchmark workload; ``setup`` builds the inputs of every job."""

    name = ""
    problem_name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.params = self.draw(np.random.default_rng(seed)) if seed else {}

    def draw(self, rng) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the problem, the time grids and the validated tableau."""
        self.tableau = build_imex22()
        report = self.tableau.validate()
        if not report.ok:
            raise ValueError(f"invalid tableau: {report}")
        self.build()

    def describe(self) -> str:
        drawn = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return drawn or "acceptance-test defaults"

    def integrate_label(self, problem, time_grid) -> str:
        """Span name of an ``integrate`` call made outside an estimate."""
        return "forward.numerical"


class GrayScottEstimate(Workload):
    """Criterion 6's Gray-Scott estimate: 10x10 cells, dt 0.02, T 50."""

    name = "gs_estimate"
    problem_name = "gray_scott"

    def draw(self, rng):
        return {"feed": float(rng.uniform(0.0236, 0.0244)),
                "kill": float(rng.uniform(0.059, 0.061))}

    def build(self):
        cells, dt, t_final = (4, 0.05, 1.0) if self.smoke else (10, 0.02, 50.0)
        grid = systems.default_grid(self.problem_name, cells, cells)
        self.problem = systems.build_problem(self.problem_name, grid,
                                             t_final=t_final, **self.params)
        self.time_grid = TimeGrid.uniform(self.problem.t0, t_final, dt)

    def run(self):
        return estimation.estimate_errors(self.problem, self.tableau,
                                          self.time_grid)

    def digest(self, bundle) -> Outcome:
        runs = (bundle.numerical, bundle.time_refined, bundle.space_refined,
                bundle.reference)
        fp = _Fingerprint()
        _add_report(fp, bundle.report)
        return Outcome(
            work=sum(t.system.dim * t.num_steps for t in runs),
            fingerprint=fp.hexdigest(),
            problems=check_report(bundle.report, "report"),
            quality={"effectivity": effectivity(bundle.report)})


class BsvdCampaign(Workload):
    """Criterion 7's campaign: bsvd 20x20, dt 0.02, T 4, 4 stages."""

    name = "bsvd_campaign"
    problem_name = "bsvd"

    def draw(self, rng):
        return {"t_final_steps": int(rng.integers(198, 203))}

    def build(self):
        cells, dt, steps = (6, 0.05, 10) if self.smoke else (20, 0.02, 200)
        steps += self.params.get("t_final_steps", 200) - 200
        t_final = round(steps * dt, 12)
        grid = systems.default_grid(self.problem_name, cells, cells)
        self.problem = systems.build_problem(self.problem_name, grid,
                                             t_final=t_final)
        self.time_grid = TimeGrid.uniform(0.0, t_final, dt)
        self.config = adaptivity.RefinementConfig(num_stages=4)

    def run(self):
        return adaptivity.run_campaign(self.problem, self.tableau,
                                       self.time_grid, self.config)

    def digest(self, campaign) -> Outcome:
        fp = _Fingerprint()
        problems, work = [], 0
        for record in campaign.records:
            report = record.report
            problems += check_report(report, f"stage {record.stage}")
            _add_report(fp, report)
            fp.add(record.space_grid.xs, record.space_grid.ys,
                   record.time_grid.nodes, record.next_space_grid.xs,
                   record.next_space_grid.ys, record.next_time_grid.nodes,
                   sorted(record.marked_cells), sorted(record.marked_steps))
            # numerical, time-refined, space-refined and reference runs:
            # N and 2N steps on the coarse and the uniformly refined grid
            fine = record.space_grid.refine_uniform().num_unknowns
            work += 3 * record.time_grid.num_steps * (
                record.space_grid.num_unknowns + fine)
        final = campaign.final_record.report
        quality = {"effectivity": effectivity(final)}
        return Outcome(work=work, fingerprint=fp.hexdigest(),
                       problems=problems, quality=quality)


@dataclass
class ConvergenceStudy:
    dts: np.ndarray
    forward_err: np.ndarray
    adjoint_err: np.ndarray
    arrays: list


def fitted_slope(dts, errors) -> float:
    return float(np.polyfit(np.log2(dts), np.log2(errors), 1)[0])


class CalvoConverge(Workload):
    """Criteria 1-2: calvo 20x10, dt 0.15/2^k (k = 0..4) and a dt 0.15/2^7
    reference, each integrated and swept backwards."""

    name = "calvo_converge"
    problem_name = "calvo"

    def draw(self, rng):
        return {"nu": float(rng.uniform(0.095, 0.105))}

    def build(self):
        (nx, ny), levels, ref_level = (((8, 4), 3, 5) if self.smoke
                                       else ((20, 10), 5, 7))
        grid = systems.default_grid(self.problem_name, nx, ny)
        self.problem = systems.build_problem(self.problem_name, grid,
                                             **self.params)
        t_final = self.problem.t_final
        self.dts = np.array([0.15 / 2 ** k for k in range(levels)])
        self.level_grids = [TimeGrid.uniform(0.0, t_final, dt)
                            for dt in self.dts]
        self.ref_grid = TimeGrid.uniform(0.0, t_final, 0.15 / 2 ** ref_level)

    def integrate_label(self, problem, time_grid):
        if time_grid.num_steps == self.ref_grid.num_steps:
            return "forward.reference"
        return "forward.levels"

    def run(self):
        ref = forward.integrate(self.problem, self.tableau, self.ref_grid)
        ref_lam0 = adjoint.adjoint_sweep(ref, method="mu").lam[0]
        ref_final = ref.states[-1]
        del ref
        y_scale = np.linalg.norm(ref_final)
        lam_scale = np.linalg.norm(ref_lam0)
        forward_err, adjoint_err, arrays = [], [], [ref_final, ref_lam0]
        for grid in self.level_grids:
            traj = forward.integrate(self.problem, self.tableau, grid)
            lam0 = adjoint.adjoint_sweep(traj, method="mu").lam[0]
            forward_err.append(
                np.linalg.norm(traj.states[-1] - ref_final) / y_scale)
            adjoint_err.append(np.linalg.norm(lam0 - ref_lam0) / lam_scale)
            arrays += [traj.states[-1], lam0]
        return ConvergenceStudy(self.dts, np.array(forward_err),
                                np.array(adjoint_err), arrays)

    def digest(self, study) -> Outcome:
        fp = _Fingerprint()
        fp.add(*study.arrays)
        work = self.problem.system.dim * (
            self.ref_grid.num_steps
            + sum(g.num_steps for g in self.level_grids))
        errors = np.concatenate([study.forward_err, study.adjoint_err])
        if not np.all(np.isfinite(errors)) or np.any(errors <= 0.0):
            return Outcome(work, fp.hexdigest(),
                           [f"errors not finite and positive: {errors}"])
        forward_order = fitted_slope(study.dts, study.forward_err)
        adjoint_order = fitted_slope(study.dts, study.adjoint_err)
        problems = [f"{kind} order {order:.3f} outside {ORDER_RANGE}"
                    for kind, order in (("forward", forward_order),
                                        ("adjoint", adjoint_order))
                    if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]]
        quality = {"forward_order": forward_order,
                   "adjoint_order": adjoint_order,
                   "order_gap": max(abs(forward_order - 2.0),
                                    abs(adjoint_order - 2.0))}
        return Outcome(work, fp.hexdigest(), problems, quality)


WORKLOADS = {cls.name: cls
             for cls in (GrayScottEstimate, BsvdCampaign, CalvoConverge)}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choices: "
                       f"{sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, smoke)
