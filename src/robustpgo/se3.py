"""SE(3) pose arithmetic on unit quaternions.

Conventions, fixed repo-wide:
  * quaternions are stored (w, x, y, z), made canonical by `_canonical_quats`
    alone: unit norm within 1e-12, and hemisphere-normalized (w >= 0)
  * twist vectors are (wx, wy, wz, vx, vy, vz): rotation first, then translation
  * retract(T, d) is exp(d) o T, i.e. updates multiply on the left

Each formula is written once, over arrays that hold one item, e.g. a (4,)
quaternion, or a stack of N, e.g. (N, 4) quaternions, (N, 3) translations or
(N, 6) twists. A `Pose` holds one pose's two arrays; `identity`, `retract`
and `transform_points` take or give one, for the edges of the package and
for callers that hold poses one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_UNIT_TOL = 1e-12
CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])  # times a quaternion (w, x, y, z), its conjugate

# below this squared rotation angle, exp and log use truncated series
_SMALL_ANGLE_SQ = 1e-8


def _canonical_quats(q: np.ndarray) -> np.ndarray:
    """A new array of quaternions (4,) or (N, 4), each renormalized if its
    norm is off 1 by more than 1e-12 and put in the w >= 0 hemisphere; at
    w == 0 the first nonzero component is made positive, so the choice is
    deterministic. Raises ValueError if any norm is below 1e-9 or past the
    float range; a NaN row passes through. Each norm is the (1, 4) @ (4, 1)
    product of its row, which rounds as the dot `q @ q` of that row alone
    does, so a row gets the same bits in any batch."""
    q = np.array(q, dtype=float)
    rows = q.reshape(-1, 4)
    with np.errstate(over="ignore"):  # reported below
        n = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).reshape(-1))
    if np.count_nonzero(n < 1e-9):
        raise ValueError("quaternion norm too small to normalize")
    if np.count_nonzero(n == np.inf):
        raise ValueError("quaternion norm too large to normalize")
    off = np.abs(n - 1.0) > _UNIT_TOL
    if np.count_nonzero(off):
        rows[off] /= n[off, None]
    w, x, y, z = rows.T
    if np.count_nonzero(w <= 0.0):
        lead = np.where(w != 0.0, w, np.where(x != 0.0, x, np.where(y != 0.0, y, z)))
        rows[lead < 0.0] *= -1.0
    return q


@dataclass
class Pose:
    """A rigid transform: unit quaternion (w,x,y,z) plus translation (m).

    Treated as an immutable value everywhere; operations return new poses.
    """

    quat: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        self.quat = _canonical_quats(np.reshape(self.quat, 4))
        self.trans = np.asarray(self.trans, dtype=float).reshape(3).copy()


def identity() -> Pose:
    return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions (4,) or (N, 4)."""
    aw, ax, ay, az = np.asarray(a, dtype=float).T
    bw, bx, by, bz = np.asarray(b, dtype=float).T
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + ax * bw + ay * bz - az * by
    y = aw * by - ax * bz + ay * bw + az * bx
    z = aw * bz + ax * by - ay * bx + az * bw
    return np.stack([w, x, y, z], axis=-1)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of 3-vectors (3,) or (N, 3): np.cross's formula and bits, without its call overhead."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (3, 3) or (N, 3, 3) of unit quaternions (4,) or (N, 4)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q.T
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    entries = [
        1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy),
        2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx),
        2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy),
    ]
    return np.array(entries).T.reshape(q.shape[:-1] + (3, 3))


def _rotate(quat: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    return (quat_to_matrix(quat) @ np.asarray(vectors, dtype=float)[..., None])[..., 0]


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Quaternions (4,) or (N, 4) of rotation matrices (3, 3) or (N, 3, 3),
    each by its max-trace branch (Shepperd): branch 0 where the trace is
    positive, else branch k for the largest diagonal entry R[k-1, k-1].
    Branch k's component k is s / 4, with s = 2 sqrt of the radicand below,
    and each other component a difference or a sum of two mirrored
    off-diagonal entries, over s."""
    R = np.asarray(R, dtype=float)
    m = R.reshape(-1, 3, 3)
    d0, d1, d2 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    tr = d0 + d1 + d2
    branch = np.where(tr > 0.0, 0, np.where((d0 >= d1) & (d0 >= d2), 1, np.where(d1 >= d2, 2, 3)))
    radicand = np.choose(branch, [tr + 1.0, 1.0 + d0 - d1 - d2, 1.0 + d1 - d0 - d2, 1.0 + d2 - d0 - d1])
    s = np.sqrt(radicand) * 2.0
    # numerators[:, k] holds branch k's (w, x, y, z) numerators
    numerators = np.zeros((len(m), 4, 4))
    numerators[:, 0, 1:] = numerators[:, 1:, 0] = np.stack(
        [m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0], m[:, 1, 0] - m[:, 0, 1]], axis=1
    )
    numerators[:, 1:, 1:] = m + np.swapaxes(m, 1, 2)
    rows = np.arange(len(m))
    q = numerators[rows, branch] / s[:, None]
    q[rows, branch] = 0.25 * s
    return _canonical_quats(q.reshape(R.shape[:-2] + (4,)))


def stack(poses) -> tuple[np.ndarray, np.ndarray]:
    """(N, 4) quaternions and (N, 3) translations of a sequence of poses."""
    quats = np.array([p.quat for p in poses], dtype=float).reshape(-1, 4)
    return quats, np.array([p.trans for p in poses], dtype=float).reshape(-1, 3)


def unstack(quats: np.ndarray, trans: np.ndarray) -> list[Pose]:
    """Poses of (N, 4) quaternions and (N, 3) translations, made canonical in
    one batch, the bits `Pose` makes of each; raises ValueError as `Pose`
    does. Each pose holds views of its rows of the new arrays."""
    poses = []
    for q, t in zip(_canonical_quats(np.reshape(quats, (-1, 4))), np.array(trans, dtype=float).reshape(-1, 3)):
        pose = object.__new__(Pose)  # skips __post_init__: q is canonical already
        pose.quat, pose.trans = q, t
        poses.append(pose)
    return poses


def compose_arrays(qa, ta, qb, tb) -> tuple[np.ndarray, np.ndarray]:
    """(a o b), transforming points as a(b(p)), of poses held as arrays."""
    return _canonical_quats(quat_mul(qa, qb)), _rotate(qa, tb) + ta


def inverse_arrays(quat, trans) -> tuple[np.ndarray, np.ndarray]:
    conj = np.asarray(quat, dtype=float) * CONJUGATE
    return _canonical_quats(conj), -_rotate(conj, trans)


def transform_points(T: Pose, pts: np.ndarray) -> np.ndarray:
    """Apply T to an (n, 3) array of points."""
    return np.asarray(pts, dtype=float) @ quat_to_matrix(T.quat).T + T.trans


def exp_arrays(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential map of twists (6,) or (N, 6): canonical quaternions and
    translations J_l v, with J_l = I + c1 [w]x + c2 [w]x^2."""
    xi = np.asarray(xi, dtype=float)
    omega, v = xi[..., :3], xi[..., 3:]
    wx, wy, wz = omega.T
    theta_sq = wx * wx + wy * wy + wz * wz
    theta = np.sqrt(theta_sq)
    half = 0.5 * theta
    small = theta_sq < _SMALL_ANGLE_SQ
    sq = theta_sq * theta_sq
    # the exact ratios see a dummy angle of 1 where the series is used
    t1, t2 = np.where(small, 1.0, theta), np.where(small, 1.0, theta_sq)
    k = np.where(small, 0.5 - theta_sq / 48.0 + sq / 3840.0, np.sin(half) / t1)  # sin(theta/2)/theta
    c1 = np.where(small, 0.5 - theta_sq / 24.0 + sq / 720.0, (1.0 - np.cos(theta)) / t2)
    c2 = np.where(
        small, 1.0 / 6.0 - theta_sq / 120.0 + sq / 5040.0, (theta - np.sin(theta)) / (t2 * t1)
    )
    quat = np.stack([np.cos(half), *(k * omega.T)], axis=-1)
    wv = cross(omega, v)
    return _canonical_quats(quat), (v.T + c1 * wv.T + c2 * cross(omega, wv).T).T


def log_arrays(quat: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Inverse of exp_arrays for canonical quaternions: twists (6,) or (N, 6)."""
    quat, trans = np.asarray(quat, dtype=float), np.asarray(trans, dtype=float)
    w, x, y, z = quat.T
    vec = quat[..., 1:]
    n = np.sqrt(x * x + y * y + z * z)
    theta = 2.0 * np.arctan2(n, w)  # in [0, pi] thanks to w >= 0
    tiny = n < 1e-9
    # first order for tiny n; exact at theta == 0
    omega = (np.where(tiny, 2.0, theta / np.where(tiny, 1.0, n)) * vec.T).T

    theta_sq = theta * theta
    small = theta_sq < _SMALL_ANGLE_SQ
    half = np.where(small, 1.0, 0.5 * theta)
    c3 = np.where(
        small,
        1.0 / 12.0 + theta_sq / 720.0 + theta_sq * theta_sq / 30240.0,
        (1.0 - 0.5 * theta * np.cos(half) / np.sin(half)) / np.where(small, 1.0, theta_sq),
    )
    wt = cross(omega, trans)
    rho = (trans.T - 0.5 * wt.T + c3 * cross(omega, wt).T).T
    return np.concatenate([omega, rho], axis=-1)


def retract(T: Pose, delta: np.ndarray) -> Pose:
    """Left-multiplicative update: T moved by exp(delta) on the left."""
    return Pose(*compose_arrays(*exp_arrays(np.reshape(delta, 6)), T.quat, T.trans))
