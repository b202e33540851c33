"""Which gark callables the traced run wraps, and the per-layer metrics
computed from their spans.

Every callable is wrapped under each name a caller looks it up by:
``gark.estimation`` and ``gark.adaptivity`` import ``integrate``,
``adjoint_sweep``, ``rebuild_on`` and ``estimate_errors`` by name, so
patching ``gark.forward.integrate`` alone would miss the estimate's runs.
SuperLU work is counted through a proxy that a wrapped
``scipy.sparse.linalg.splu`` returns.
"""

from __future__ import annotations

import importlib
import pkgutil

import scipy.sparse.linalg as spla

import gark
from gark.mesh import GridTransfer, TensorGrid2D, TimeGrid
from gark.systems import SplitOdeSystem

from tracer import LayerSums, SpanTable

FORWARD = ("forward.numerical", "forward.time_refined",
           "forward.space_refined", "forward.reference", "forward.levels")
NUM_STAGES = 4
_RUN_NAMES = {("coarse", "coarse"): "forward.numerical",
              ("coarse", "fine"): "forward.time_refined",
              ("fine", "coarse"): "forward.space_refined",
              ("fine", "fine"): "forward.reference"}


def _nbytes(arrays) -> int:
    return sum(a.nbytes for a in arrays if a is not None)


class _CountingLU:
    """SuperLU stand-in whose solves open ``lu.solve`` spans."""

    __slots__ = ("lu", "tracer")

    def __init__(self, lu, tracer):
        self.lu = lu
        self.tracer = tracer

    def solve(self, rhs, trans="N"):
        index = self.tracer.open("lu.solve")
        try:
            return self.lu.solve(rhs, trans=trans)
        finally:
            self.tracer.close(index)

    def __getattr__(self, attr):
        return getattr(self.lu, attr)


def install(tracer, fallback_label):
    """Wrap the program's public callables; returns a function that undoes it.

    Each ``integrate`` span is named by its grids relative to the input of
    the innermost open ``estimate_errors`` call (same or refined space grid,
    same or refined time grid).  Outside an estimate ``fallback_label(problem,
    time_grid)`` names it.
    """
    modules = [gark] + [importlib.import_module(f"gark.{m.name}")
                        for m in pkgutil.iter_modules(gark.__path__)]
    saved = []

    def everywhere(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def on_class(cls, attr, wrapper):
        saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    estimate_inputs = []

    def integrate_label(args, kwargs):
        problem, time_grid = args[0], args[2]
        if not estimate_inputs:
            return fallback_label(problem, time_grid)
        dim, steps = estimate_inputs[-1]
        space = "coarse" if problem.system.dim == dim else "fine"
        time = "coarse" if time_grid.num_steps == steps else "fine"
        return _RUN_NAMES[space, time]

    def after_integrate(traj, args, kwargs):
        tracer.count("steps", traj.num_steps)
        tracer.count("unknown_steps", traj.system.dim * traj.num_steps)
        tracer.count("stage_bytes", _nbytes((traj.stage_values or [])
                                            + (traj.stage_slopes or [])))

    def after_sweep(sweep, args, kwargs):
        stores = [sweep.lam]
        for field in (sweep.theta, sweep.mu, sweep.ell, sweep.stage_adjoint):
            stores += field or []
        tracer.count("store_bytes", _nbytes(stores))

    def stage_label(args, kwargs):
        return f"adaptivity.stage{kwargs.get('stage', 0)}"

    def after_stage(record, args, kwargs):
        tracer.count("unknowns", record.space_grid.num_unknowns)
        tracer.count("steps", record.time_grid.num_steps)
        tracer.count("marked_cells", len(record.marked_cells))
        tracer.count("marked_steps", len(record.marked_steps))

    traced_estimate = tracer.wrap(gark.estimation.estimate_errors,
                                  "estimation.estimate")

    def estimate(problem, tableau, time_grid, *args, **kwargs):
        estimate_inputs.append((problem.system.dim, time_grid.num_steps))
        try:
            return traced_estimate(problem, tableau, time_grid, *args,
                                   **kwargs)
        finally:
            estimate_inputs.pop()

    everywhere(gark.estimation.estimate_errors, estimate)
    for fn, name, label, after in (
            (gark.forward.integrate, None, integrate_label, after_integrate),
            (gark.adjoint.adjoint_sweep, "adjoint.sweep", None, after_sweep),
            (gark.estimation.temporal_residuals, "estimation.temporal",
             None, None),
            (gark.estimation.spatial_residuals, "estimation.spatial",
             None, None),
            (gark.estimation.assemble_report, "estimation.report",
             None, None),
            (gark.adaptivity.refine_stage, None, stage_label, after_stage),
            (gark.adaptivity.mark_percentile, "adaptivity.mark", None, None),
            (gark.systems.build_problem, "systems.build", None, None),
            (gark.systems.discretize_laplacian, "systems.laplacian",
             None, None)):
        everywhere(fn, tracer.wrap(fn, name, label, after))

    on_class(SplitOdeSystem, "f", tracer.wrap(SplitOdeSystem.f, "rhs"))
    on_class(SplitOdeSystem, "jac", tracer.wrap(SplitOdeSystem.jac, "jac"))
    on_class(GridTransfer, "between", staticmethod(
        tracer.wrap(GridTransfer.between, "mesh.transfer_build")))
    on_class(GridTransfer, "restrict",
             tracer.wrap(GridTransfer.restrict, "mesh.restrict"))
    for cls, attr in ((TensorGrid2D, "refine_uniform"),
                      (TensorGrid2D, "refine_marked"),
                      (TimeGrid, "halve_all_steps"),
                      (TimeGrid, "halve_marked")):
        on_class(cls, attr, tracer.wrap(getattr(cls, attr), "mesh.refine"))

    splu = spla.splu

    def counting_splu(*args, **kwargs):
        index = tracer.open("lu.factor")
        try:
            lu = splu(*args, **kwargs)
        finally:
            tracer.close(index)
        # Reading L and U copies them; the trace.* span keeps that copy out
        # of every layer's time.
        with tracer.span("trace.lu_nnz"):
            tracer.count("nnz", lu.L.nnz + lu.U.nnz, index=index)
        return _CountingLU(lu, tracer)

    saved.append((spla, "splu", splu))
    spla.splu = counting_splu

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
    return restore


def layer_metrics(table: SpanTable, jobs) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, over the given jobs."""
    sums = LayerSums(table, jobs)
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for name in FORWARD:
        put(f"{name}_s", sums.time[name], "s")
    put("forward.self_s", sums.over(FORWARD, "self_time"), "s")
    put("forward.steps", sums.over(FORWARD, "counts", "steps"), "count")
    put("forward.rhs_evals", sums.leaf(FORWARD, "rhs", calls=True), "count")
    put("forward.rhs_s", sums.leaf(FORWARD, "rhs"), "s")
    factorizations = sums.leaf(FORWARD, "lu.factor", calls=True)
    solves = sums.leaf(FORWARD, "lu.solve", calls=True)
    put("forward.lu_factorizations", factorizations, "count")
    put("forward.lu_factor_s", sums.leaf(FORWARD, "lu.factor"), "s")
    put("forward.lu_solves", solves, "count")
    put("forward.lu_solve_s", sums.leaf(FORWARD, "lu.solve"), "s")
    put("forward.solves_per_factorization",
        solves / factorizations if factorizations else 0.0, "ratio")
    put("forward.lu_nnz", max((sums.leaf_max[o, "lu.factor"]["nnz"]
                               for o in FORWARD), default=0), "count")
    put("forward.stage_bytes", sums.over(FORWARD, "counts", "stage_bytes"),
        "bytes")

    sweep = ("adjoint.sweep",)
    put("adjoint.sweep_s", sums.time["adjoint.sweep"], "s")
    put("adjoint.self_s", sums.self_time["adjoint.sweep"], "s")
    put("adjoint.jac_assemblies", sums.leaf(sweep, "jac", calls=True),
        "count")
    put("adjoint.jac_s", sums.leaf(sweep, "jac"), "s")
    put("adjoint.lu_solves", sums.leaf(sweep, "lu.solve", calls=True),
        "count")
    put("adjoint.lu_solve_s", sums.leaf(sweep, "lu.solve"), "s")
    put("adjoint.lu_factorizations", sums.leaf(sweep, "lu.factor", calls=True),
        "count")
    put("adjoint.store_bytes", sums.counts["adjoint.sweep"]["store_bytes"],
        "bytes")
    # The sweeps run on the numerical trajectory of an estimate, and on
    # every trajectory of the convergence study.
    forward_base = (sums.time["forward.numerical"]
                    or sums.time["forward.levels"]
                    + sums.time["forward.reference"])
    put("adjoint.to_forward_ratio",
        sums.time["adjoint.sweep"] / forward_base if forward_base else 0.0,
        "ratio")

    put("estimation.temporal_s", sums.time["estimation.temporal"], "s")
    put("estimation.temporal_lu_factorizations",
        sums.leaf(("estimation.temporal",), "lu.factor", calls=True), "count")
    put("estimation.spatial_s", sums.time["estimation.spatial"], "s")
    put("estimation.report_s", sums.time["estimation.report"], "s")

    put("mesh.transfer_build_s", sums.time["mesh.transfer_build"], "s")
    put("mesh.restricts", sums.calls["mesh.restrict"], "count")
    put("mesh.restrict_s", sums.time["mesh.restrict"], "s")
    put("mesh.refine_s", sums.time["mesh.refine"], "s")

    put("systems.build_s", sums.time["systems.build"], "s")
    put("systems.laplacian_s", sums.time["systems.laplacian"], "s")

    stages = [f"adaptivity.stage{k}" for k in range(NUM_STAGES)]
    for name in stages:
        put(f"{name}_s", sums.time[name], "s")
        put(f"{name}_unknowns", sums.counts[name]["unknowns"], "count")
        put(f"{name}_steps", sums.counts[name]["steps"], "count")
    put("adaptivity.mark_s", sums.time["adaptivity.mark"], "s")
    put("adaptivity.marked_cells", sums.over(stages, "counts", "marked_cells"),
        "count")
    put("adaptivity.marked_steps", sums.over(stages, "counts", "marked_steps"),
        "count")
    put("forward.unknown_steps", sums.over(FORWARD, "counts", "unknown_steps"),
        "count")
    return out
