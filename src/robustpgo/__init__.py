"""Robust EM back-end for point-cloud fragment pose graphs.

Given odometry and loop-closure constraints expressed as raw 3D feature-match
sets, both contaminated by outliers, recover globally consistent fragment
poses and inlier/outlier labels for the loop closures.
"""

from .em import (
    EmError,
    EmIteration,
    EmTrace,
    classify_loops,
    e_step,
    evaluate_poses,
    learn_theta_cauchy,
    learn_theta_gaussian,
    run_em,
    theta_from_errors,
)
from .graphio import ParseError, RunReport, parse, parse_poses, write_graph, write_poses, write_report
from .model import (
    AlignmentError,
    Hyperparams,
    LoopClosureConstraint,
    MatchTable,
    OdometryConstraint,
    PosteriorState,
    ProblemGraph,
    Violation,
    initialize_poses,
    validate,
)
from .se3 import Pose, compose, exp, identity, inverse, retract
from .solver import SolverError, SolverReport, build_problem, solve
from .synth import EvalResult, ScenarioConfig, ScenarioError, evaluate, generate

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "EmError",
    "EmIteration",
    "EmTrace",
    "EvalResult",
    "Hyperparams",
    "LoopClosureConstraint",
    "MatchTable",
    "OdometryConstraint",
    "ParseError",
    "Pose",
    "PosteriorState",
    "ProblemGraph",
    "RunReport",
    "ScenarioConfig",
    "ScenarioError",
    "SolverError",
    "SolverReport",
    "Violation",
    "build_problem",
    "classify_loops",
    "compose",
    "e_step",
    "evaluate",
    "evaluate_poses",
    "exp",
    "generate",
    "identity",
    "initialize_poses",
    "inverse",
    "learn_theta_cauchy",
    "learn_theta_gaussian",
    "parse",
    "parse_poses",
    "retract",
    "run_em",
    "solve",
    "theta_from_errors",
    "validate",
    "write_graph",
    "write_poses",
    "write_report",
]
