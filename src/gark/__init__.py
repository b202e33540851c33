"""Split-system time integration with discrete adjoints and goal-error
estimation driving adaptive space-time refinement."""

from gark.adaptivity import (CampaignResult, RefinementConfig, StageRecord,
                             mark_percentile, refine_stage, run_campaign)
from gark.adjoint import AdjointTrajectory, adjoint_sweep
from gark.estimation import (ErrorReport, EstimateBundle, assemble_report,
                             estimate_errors, spatial_residuals,
                             temporal_residuals)
from gark.forward import ForwardTrajectory, StepFailureError, integrate, step
from gark.mesh import GridTransfer, TensorGrid2D, TimeGrid
from gark.systems import (GoalFunction, Partition, ProblemInstance,
                          SplitOdeSystem, build_problem, default_grid,
                          discretize_laplacian, integral_goal, make_bsvd,
                          make_calvo, make_gray_scott, rebuild_on)
from gark.tableau import (GAMMA_MINUS, GarkTableau, UnsupportedTableauError,
                          build_imex22)

__version__ = "0.1.0"

__all__ = [
    "GAMMA_MINUS", "AdjointTrajectory",
    "CampaignResult", "ErrorReport", "EstimateBundle", "ForwardTrajectory",
    "GarkTableau", "GoalFunction", "GridTransfer",
    "Partition", "ProblemInstance", "RefinementConfig", "SplitOdeSystem",
    "StageRecord", "StepFailureError", "TensorGrid2D",
    "TimeGrid", "UnsupportedTableauError",
    "adjoint_sweep", "assemble_report", "build_imex22",
    "build_problem", "default_grid", "discretize_laplacian",
    "estimate_errors", "integral_goal", "integrate", "make_bsvd",
    "make_calvo", "make_gray_scott",
    "mark_percentile", "rebuild_on", "refine_stage", "run_campaign",
    "spatial_residuals", "step", "temporal_residuals",
]
