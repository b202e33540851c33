"""Error-driven refinement of the space and time grids.

Each stage runs the four-solution estimate, marks the cells and steps that
carry the largest absolute error contributions by a nearest-rank
percentile rule (cells on the per-partition cell maps summed), and bisects
the marked tensor lines and steps.  A campaign chains stages, rebuilding
the problem on each new grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gark.estimation import ErrorReport, estimate_errors
from gark.mesh import TensorGrid2D, TimeGrid
from gark.systems import ProblemInstance, rebuild_on
from gark.tableau import GarkTableau


def mark_percentile(values: np.ndarray, percentile: float) -> np.ndarray:
    """Boolean mask of entries whose |value| reaches the percentile.

    The threshold is the nearest-rank order statistic of the absolute
    values; ties at the threshold are all marked.  A zero threshold marks
    only strictly positive magnitudes, so an all-zero field marks nothing.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    magnitudes = np.abs(np.asarray(values, dtype=float))
    flat = np.sort(magnitudes, axis=None)
    rank = max(1, math.ceil(percentile / 100.0 * flat.size))
    threshold = flat[rank - 1]
    if threshold == 0.0:
        return magnitudes > 0.0
    return magnitudes >= threshold


@dataclass(frozen=True)
class RefinementConfig:
    space_percentile: float = 90.0
    time_percentile: float = 80.0
    num_stages: int = 4

    def __post_init__(self):
        for name in ("space_percentile", "time_percentile"):
            if not 0.0 <= getattr(self, name) <= 100.0:
                raise ValueError(f"{name} must lie in [0, 100]")
        if self.num_stages < 1:
            raise ValueError("need at least one stage")


@dataclass
class StageRecord:
    """One refinement stage: the estimate and what it marked."""

    stage: int
    space_grid: TensorGrid2D
    time_grid: TimeGrid
    report: ErrorReport
    marked_cells: set
    marked_steps: set
    next_space_grid: TensorGrid2D
    next_time_grid: TimeGrid

    def summary_dict(self) -> dict:
        return {
            "stage": self.stage,
            "num_cells": list(self.space_grid.num_cells),
            "num_unknowns": self.space_grid.num_unknowns,
            "num_steps": self.time_grid.num_steps,
            **self.report.totals(),
            "marked_cells": len(self.marked_cells),
            "marked_steps": len(self.marked_steps),
        }


def refine_stage(problem: ProblemInstance, tableau: GarkTableau,
                 time_grid: TimeGrid,
                 cfg: RefinementConfig | None = None,
                 stage: int = 0) -> StageRecord:
    """Estimate, mark, and build the next grids for one stage."""
    cfg = cfg or RefinementConfig()
    report = estimate_errors(problem, tableau, time_grid).report

    cell_mask = mark_percentile(np.sum(report.per_cell, axis=0),
                                cfg.space_percentile)
    cells = {(int(ix), int(iy)) for iy, ix in np.argwhere(cell_mask)}
    step_mask = mark_percentile(report.per_step, cfg.time_percentile)
    steps = {int(i) for i in np.nonzero(step_mask)[0]}

    next_space = problem.grid.refine_marked(cells)
    next_time = time_grid.halve_marked(steps)
    return StageRecord(stage=stage, space_grid=problem.grid,
                       time_grid=time_grid, report=report,
                       marked_cells=cells, marked_steps=steps,
                       next_space_grid=next_space, next_time_grid=next_time)


@dataclass
class CampaignResult:
    records: list = field(default_factory=list)

    @property
    def final_record(self) -> StageRecord:
        return self.records[-1]


def run_campaign(problem: ProblemInstance, tableau: GarkTableau,
                 time_grid: TimeGrid, cfg: RefinementConfig | None = None,
                 out_dir=None) -> CampaignResult:
    """Chain refinement stages, optionally logging each one to disk.

    Writes campaign.jsonl (one summary line per stage) and
    grids/stage-<k>.json (the grids the stage ran on) under out_dir.
    """
    cfg = cfg or RefinementConfig()
    result = CampaignResult()
    log_path = grids_dir = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        grids_dir = out_dir / "grids"
        grids_dir.mkdir(exist_ok=True)
        for stale in grids_dir.glob("stage-*.json"):
            stale.unlink()
        log_path = out_dir / "campaign.jsonl"
        log_path.write_text("")

    for stage in range(cfg.num_stages):
        record = refine_stage(problem, tableau, time_grid, cfg, stage=stage)
        result.records.append(record)
        if out_dir is not None:
            with open(log_path, "a") as handle:
                handle.write(json.dumps(record.summary_dict()) + "\n")
            payload = {"space": record.space_grid.to_json_dict(),
                       "time": record.time_grid.to_json_dict()}
            (grids_dir / f"stage-{stage}.json").write_text(
                json.dumps(payload, indent=2))
        if stage + 1 < cfg.num_stages:
            problem = rebuild_on(problem, record.next_space_grid)
            time_grid = record.next_time_grid
    return result
