"""Per-match oracle for the flat objective and gradient that LM runs.

ResidualBlock and its helpers evaluate one match at a time, through the
single-pose se3 functions; they are the independent reference the solver
tests compare the flat evaluation against, not part of the solve path.
"""

from dataclasses import dataclass

import numpy as np

from robustpgo import se3
from robustpgo.se3 import Pose
from robustpgo.solver import _drho, _rho


@dataclass
class ResidualBlock:
    """One feature match: indices of the two poses it couples, the point pair,
    its weight (inlier posterior / match count for loops, 1 / match count for
    odometry), and the kernel applied to the squared residual."""

    i: int
    j: int
    p: np.ndarray
    q: np.ndarray
    weight: float
    kernel: str
    sigma: float = 1.0


def block_cost(block: ResidualBlock, pose_i: Pose, pose_j: Pose) -> float:
    e = se3.transform_point(pose_i, block.p) - se3.transform_point(pose_j, block.q)
    s = float(e @ e)
    return block.weight * float(_rho(np.array([s]), block.kernel, block.sigma)[0])


def residual_and_jacobian(
    block: ResidualBlock, poses: list[Pose]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Block cost and its analytic gradient w.r.t. the two poses' twists.

    For the log-Cauchy kernel the chain rule factor on the squared-residual
    gradient is 1 / (sigma^2 + s).
    """
    pose_i, pose_j = poses[block.i], poses[block.j]
    yi = se3.transform_point(pose_i, block.p)
    yj = se3.transform_point(pose_j, block.q)
    e = yi - yj
    s = float(e @ e)
    alpha = 2.0 * block.weight * float(_drho(np.array([s]), block.kernel, block.sigma)[0])
    g_i = alpha * np.concatenate([np.cross(yi, e), e])
    g_j = alpha * np.concatenate([-np.cross(yj, e), -e])
    cost = block.weight * float(_rho(np.array([s]), block.kernel, block.sigma)[0])
    return cost, g_i, g_j


def finite_difference_gradient(
    block: ResidualBlock, poses: list[Pose], h: float = 1e-6
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient of the block cost under twist retractions.

    Touches only the cost evaluation, never the analytic derivative path, so
    it serves as an independent check of residual_and_jacobian.
    """
    pose_i, pose_j = poses[block.i], poses[block.j]
    g_i = np.zeros(6)
    g_j = np.zeros(6)
    for k in range(6):
        d = np.zeros(6)
        d[k] = h
        g_i[k] = (
            block_cost(block, se3.retract(pose_i, d), pose_j)
            - block_cost(block, se3.retract(pose_i, -d), pose_j)
        ) / (2.0 * h)
        g_j[k] = (
            block_cost(block, pose_i, se3.retract(pose_j, d))
            - block_cost(block, pose_i, se3.retract(pose_j, -d))
        ) / (2.0 * h)
    return g_i, g_j
