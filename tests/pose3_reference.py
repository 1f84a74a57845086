"""The array quaternion forms quat_mul, quat_conj and quat_rotate, and the
Pose3 composition, inverse and lift written on them, as geometry carried them
before the float kernels quat_rotate_floats and compose_se3_floats took their
place; kept as the tests' oracle.

Every pose goes through the Pose3 constructor, which canonicalises its
rotation, as the methods' results did. The Hamilton product is written out
here rather than taken from quat_mul_floats, so the oracle shares no
arithmetic with the code it checks.
"""
import numpy as np

from mobman.geometry import Pose2, Pose3, quat_from_axis_angle


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a * b (no normalization)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conj(q) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion."""
    qv = np.array([0.0, v[0], v[1], v[2]])
    return quat_mul(quat_mul(q, qv), quat_conj(q))[1:]


def compose(a: Pose3, b: Pose3) -> Pose3:
    """b, given in the frame of a, expressed in a's parent frame."""
    return Pose3(quat_mul(a.rotation, b.rotation), a.translation + quat_rotate(a.rotation, b.translation))


def inverse(a: Pose3) -> Pose3:
    q_inv = quat_conj(a.rotation)
    return Pose3(q_inv, -quat_rotate(q_inv, a.translation))


def rot_z(angle: float) -> np.ndarray:
    return quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), angle)


def lift(base: Pose2, z: float) -> Pose3:
    """The planar pose embedded in SE(3) as a level pose at height z."""
    return Pose3(rot_z(base.theta), np.array([base.x, base.y, z]))


_S = 0.5**0.5
# the enumerated quaternions of the oracle tests: w = 0 ties (the Pose3
# constructor stores some with w = -0.0), signed zeros, half-turns about x, y,
# z and a diagonal, one next to a half-turn, general and non-unit rotations
QUATS = [
    (1.0, 0.0, 0.0, 0.0),
    (1.0, -0.0, 0.0, -0.0),
    (-1.0, 0.0, -0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (-0.0, 0.0, 0.0, 1.0),
    (0.0, -0.0, -1.0, 0.0),
    (-0.0, -_S, _S, 0.0),
    (1e-17, 0.0, 0.0, -1.0),
    (_S, 0.0, -_S, -0.0),
    (0.3, -0.5, 0.2, 0.7),
    (-0.9, 0.1, 0.3, -0.2),
    (2.5, 1.0, -3.0, 0.5),
]
# vectors with signed zeros, a tiny entry and mixed magnitudes
VECTORS = [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, -2.0, 3.0), (0.25, -0.0, -1e-300), (-7.5, 1e10, 0.1)]
