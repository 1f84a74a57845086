# Rigid-body pose algebra: unit quaternions (w, x, y, z), SE(3) poses, planar
# SE(2) pose records and their float kernels, interpolation and the distances
# used by the state matcher.
#
# Conventions, used everywhere in this package:
#   - quaternions are (w, x, y, z) with the Hamilton product;
#   - stored quaternions are canonical: unit norm, w >= 0;
#   - angles are wrapped to (-pi, pi], with ties at pi mapped to +pi;
#   - a pose T_A_B maps coordinates from frame B to frame A.
#
# Bit rules. Every dot product of three or four floats is BLAS's ddot, as
# ndarray.dot takes it; a contiguous copy and a strided view of the same
# numbers can round differently, so the stride is part of the rule:
#   - the float helpers (dot4_floats, norm4_floats, norm3_floats) pack their
#     floats into one preallocated buffer and take ndarray.dot on unit-stride
#     views of it, which runs the same ddot on the same values as ndarray.dot
#     on a new array of those floats, so no call builds an array;
#   - the *_rows functions apply a scalar function to every row of an (N, 4)
#     quaternion or (N, 3) vector array and return the same bits, row for
#     row: element-wise arithmetic keeps the scalar code's operation order,
#     and every row dot is np.vecdot, which takes the same BLAS dot as the
#     scalar q.dot(q) when the rows have the same memory stride;
#   - transcendentals stay per-row math calls, because np.arccos, np.arctan2
#     and np.hypot round some inputs differently from math.
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .jsonl import finite_rows

# m, dist_se2's arc-length radius for heading error: the base's turning radius
FOLD_RADIUS = 0.5


# Single-threaded scratch for the float helpers' dots: each packs its floats
# and takes its dot with nothing run in between, and no caller keeps a view.
# [:4] and [4:] hold two quaternions, [:3] a 3-vector; both halves have unit
# stride, as a new array has.
_DOT_BUF = np.empty(8)
_DOT_A, _DOT_B, _DOT_V3 = _DOT_BUF[:4], _DOT_BUF[4:], _DOT_BUF[:3]
_PACK8_INTO = struct.Struct("8d").pack_into
_PACK4_INTO = struct.Struct("4d").pack_into
_PACK3_INTO = struct.Struct("3d").pack_into


def dot4_floats(aw, ax, ay, az, bw, bx, by, bz) -> float:
    """The dot product of the quaternions (aw, ax, ay, az) and (bw, bx, by, bz),
    with the bits of np.array(a).dot(np.array(b))."""
    _PACK8_INTO(_DOT_BUF, 0, aw, ax, ay, az, bw, bx, by, bz)
    return float(_DOT_A.dot(_DOT_B))


def norm4_floats(w, x, y, z) -> float:
    """The norm of the quaternion (w, x, y, z), sqrt(q.dot(q)) of a new array q."""
    _PACK4_INTO(_DOT_BUF, 0, w, x, y, z)
    return math.sqrt(_DOT_A.dot(_DOT_A))


def norm3_floats(x, y, z) -> float:
    """The norm of the vector (x, y, z), sqrt(v.dot(v)) of a new array v, which
    is what np.linalg.norm computes."""
    _PACK3_INTO(_DOT_BUF, 0, x, y, z)
    return math.sqrt(_DOT_V3.dot(_DOT_V3))


class DegeneratePitchError(ValueError):
    """Raised when a pose is too far from level to define a ground-plane yaw."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]; ties at pi map to +pi."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Normalize and flip to the w >= 0 hemisphere.

    For w == 0 the sign of the first nonzero vector component decides, so
    canonicalization is deterministic and idempotent.
    """
    q = np.asarray(q, dtype=float)
    # sqrt(q.dot(q)) is what np.linalg.norm computes, without its dispatch;
    # it is taken on q itself, because a copy with another stride can round
    # differently
    return np.array(_canonical_by_norm(*q.tolist(), math.sqrt(q.dot(q))))


def quat_canonical_floats(w: float, x: float, y: float, z: float) -> tuple[float, ...]:
    """quat_canonical of the quaternion (w, x, y, z), given and returned as
    four floats with the bits quat_canonical gives a contiguous array; the
    norm is norm4_floats'."""
    return _canonical_by_norm(w, x, y, z, norm4_floats(w, x, y, z))


def _canonical_by_norm(w, x, y, z, n: float) -> tuple[float, ...]:
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("cannot canonicalize a zero or non-finite quaternion")
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0 or (w == 0.0 and (x < 0.0 if x != 0.0 else y < 0.0 if y != 0.0 else z < 0.0)):
        return -w, -x, -y, -z
    return w, x, y, z


def quat_canonical_rows(q: np.ndarray) -> np.ndarray:
    """quat_canonical of every row of an (N, 4) array."""
    q = np.asarray(q, dtype=float)
    n = np.sqrt(np.vecdot(q, q))
    if not np.all(np.isfinite(n) & (n != 0.0)):
        raise ValueError("cannot canonicalize a zero or non-finite quaternion")
    q = q / n[:, None]
    flip = q[:, 0] < 0.0
    for i in np.flatnonzero(q[:, 0] == 0.0):
        nonzero = q[i, 1:][q[i, 1:] != 0.0]
        flip[i] = nonzero[0] < 0.0
    return np.where(flip[:, None], -q, q)


def quat_mul_floats(aw, ax, ay, az, bw, bx, by, bz) -> tuple[float, float, float, float]:
    """Hamilton product (aw, ax, ay, az) * (bw, bx, by, bz) of quaternions
    given as floats (no normalization)."""
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b (no normalization)."""
    return np.array(quat_mul_floats(*a, *b))


def quat_mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """quat_mul of matching rows; either side may be a single (4,) quaternion."""
    a = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    b = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack(quat_mul_floats(*a, *b), axis=-1)


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_conj_rows(q: np.ndarray) -> np.ndarray:
    """quat_conj of every row of an (N, 4) array, or of one (4,) quaternion."""
    q = np.asarray(q, dtype=float)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion."""
    qv = np.array([0.0, v[0], v[1], v[2]])
    return quat_mul(quat_mul(q, qv), quat_conj(q))[1:]


def quat_rotate_rows(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """quat_rotate of matching rows; q may be one (4,) and v one (3,)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    qv = np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)
    return quat_mul_rows(quat_mul_rows(q, qv), quat_conj_rows(q))[..., 1:]


def compose_rows(
    pa: np.ndarray, qa: np.ndarray, pb: np.ndarray, qb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row i is Pose3(qa_i, pa_i).compose(Pose3(qb_i, pb_i)) for canonical qa
    and qb, as (position, canonical quaternion) arrays; either side may be a
    single (3,) position and (4,) quaternion."""
    return pa + quat_rotate_rows(qa, pb), quat_canonical_rows(quat_mul_rows(qa, qb))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    h = 0.5 * angle
    return quat_canonical(np.concatenate(([math.cos(h)], math.sin(h) * axis)))


def quat_from_axis_angle_rows(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """quat_from_axis_angle of matching rows of an (N, 3) axis array and N angles."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.sqrt(np.vecdot(axis, axis))[:, None]
    h = (0.5 * np.asarray(angle, dtype=float)).tolist()
    cos_h = np.array([math.cos(x) for x in h])
    sin_h = np.array([math.sin(x) for x in h])
    return quat_canonical_rows(np.column_stack([cos_h, sin_h[:, None] * axis]))


def rot_z(angle: float) -> np.ndarray:
    return quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), angle)


def slerp(q0: np.ndarray, q1: np.ndarray, s: float) -> np.ndarray:
    """Spherical linear interpolation with hemisphere alignment of q1 to q0.

    A near-antipodal pair (dot < 1e-6 after alignment, i.e. rotations close to
    180 degrees apart, where the geodesic is not unique) falls back to
    normalized linear interpolation.
    """
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    return np.array(slerp_floats(q0.tolist(), q1.tolist(), s, float(q0.dot(q1))))


def slerp_floats(q0, q1, s: float, dot: float) -> tuple[float, float, float, float]:
    """slerp of two quaternions given as sequences of four floats, whose dot
    product the caller has taken with ndarray.dot or dot4_floats; four floats
    with slerp's bits. The normalising norm is norm4_floats'."""
    w0, x0, y0, z0 = q0
    w1, x1, y1, z1 = q1
    if dot < 0.0:
        w1, x1, y1, z1 = -w1, -x1, -y1, -z1
        dot = -dot
    linear = dot > 1.0 - 1e-12 or dot < 1e-6
    if linear:
        a, b = 1.0 - s, s
    else:
        # 1e-6 <= dot <= 1 - 1e-12 here, or NaN: inside acos's domain
        omega = math.acos(dot)
        so = math.sin(omega)
        a, b = math.sin((1.0 - s) * omega) / so, math.sin(s * omega) / so
    w, x, y, z = a * w0 + b * w1, a * x0 + b * x1, a * y0 + b * y1, a * z0 + b * z1
    n = norm4_floats(w, x, y, z)
    if linear and n < 1e-12:
        return w0, x0, y0, z0
    return w / n, x / n, y / n, z / n


def slerp_rows(q0: np.ndarray, q1: np.ndarray, s: np.ndarray) -> np.ndarray:
    """slerp of matching rows of two (N, 4) arrays at the N fractions s."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    s = np.asarray(s, dtype=float)
    dot = np.vecdot(q0, q1)
    neg = dot < 0.0
    q1 = np.where(neg[:, None], -q1, q1)
    dot = np.where(neg, -dot, dot)
    out = np.empty_like(q0)
    lin = (dot > 1.0 - 1e-12) | (dot < 1e-6)
    if lin.any():
        sl = s[lin][:, None]
        o = (1.0 - sl) * q0[lin] + sl * q1[lin]
        n = np.sqrt(np.vecdot(o, o))
        tiny = n < 1e-12
        out[lin] = np.where(tiny[:, None], q0[lin], o / np.where(tiny, 1.0, n)[:, None])
    gen = ~lin
    if gen.any():
        wa, wb = [], []
        # 1e-6 <= d <= 1 - 1e-12 here, or NaN: inside acos's domain
        for d, sg in zip(dot[gen].tolist(), s[gen].tolist()):
            omega = math.acos(d)
            so = math.sin(omega)
            wa.append(math.sin((1.0 - sg) * omega) / so)
            wb.append(math.sin(sg * omega) / so)
        o = np.array(wa)[:, None] * q0[gen] + np.array(wb)[:, None] * q1[gen]
        out[gen] = o / np.sqrt(np.vecdot(o, o))[:, None]
    return out


def geodesic_so3(r0, r1) -> float:
    """Geodesic angle between two rotations, in [0, pi]; r0 and r1 are any
    sequences of four floats, such as a state's slots 6:10 or a (4,) array."""
    return geodesic_of_dot(dot4_floats(*r0, *r1))


def geodesic_of_dot(dot: float) -> float:
    """geodesic_so3 of two unit quaternions whose dot product is given."""
    d = abs(dot)
    # min(d, 1.0) as the comparison it makes
    return 2.0 * math.acos(1.0 if 1.0 < d else d)


_IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class Pose3:
    """Rigid transform in SE(3): canonical unit quaternion + translation [m]."""

    rotation: np.ndarray = field(default_factory=lambda: _IDENTITY_QUAT.copy())
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "rotation", quat_canonical(self.rotation))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).copy())

    def compose(self, other: "Pose3") -> "Pose3":
        return Pose3(
            quat_mul(self.rotation, other.rotation),
            self.translation + quat_rotate(self.rotation, other.translation),
        )

    def inverse(self) -> "Pose3":
        q_inv = quat_conj(self.rotation)
        return Pose3(q_inv, -quat_rotate(q_inv, self.translation))

    @classmethod
    def of_canonical(cls, rotation: np.ndarray, translation: np.ndarray) -> "Pose3":
        """A pose that takes a canonical rotation as it is, without the
        renormalisation in __post_init__, which could move its last bit."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "rotation", rotation)
        object.__setattr__(pose, "translation", translation)
        return pose

    def as_matrix(self) -> np.ndarray:
        M = np.eye(4)
        M[:3, :3] = quat_to_matrix(self.rotation)
        M[:3, 3] = self.translation
        return M

    def to_list(self) -> list[float]:
        """Serialize as [px, py, pz, qw, qx, qy, qz]."""
        t, q = self.translation, self.rotation
        return [t[0], t[1], t[2], q[0], q[1], q[2], q[3]]

    @staticmethod
    def from_list(values) -> "Pose3":
        v = finite_rows([values], 7, "pose")[0]
        return Pose3(v[3:7], v[0:3])


@dataclass(frozen=True)
class Pose2:
    """Planar pose record: position [m] and heading wrapped to (-pi, pi].
    Planar poses compose through compose_floats and relative_floats."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @classmethod
    def of_wrapped(cls, x: float, y: float, theta: float) -> "Pose2":
        """A pose that takes a heading already wrapped to (-pi, pi] as it is:
        wrapping it again in __post_init__ can move its last bit."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "x", x)
        object.__setattr__(pose, "y", y)
        object.__setattr__(pose, "theta", theta)
        return pose

    def lift(self, z: float = 0.0) -> Pose3:
        """Embed in SE(3) as a level pose at height z."""
        return Pose3(rot_z(self.theta), np.array([self.x, self.y, z]))


def relative_floats(x, y, theta, rx, ry, rtheta) -> tuple[float, float, float]:
    """The planar pose (x, y, theta) expressed in the frame of the reference
    pose (rx, ry, rtheta): the reference's inverse composed with the pose.
    Both headings come in wrapped to (-pi, pi]; the inverse's heading -rtheta
    and the composed heading sum are each wrapped again. Returns (x, y, theta)."""
    c, s = math.cos(rtheta), math.sin(rtheta)
    ix, iy, ith = -(c * rx + s * ry), -(-s * rx + c * ry), wrap_angle(-rtheta)
    c, s = math.cos(ith), math.sin(ith)
    return ix + c * x - s * y, iy + s * x + c * y, wrap_angle(ith + theta)


def compose_floats(x, y, theta, ox, oy, otheta) -> tuple[float, float, float]:
    """The planar pose (ox, oy, otheta), given in the frame of the pose
    (x, y, theta), expressed in that pose's parent frame: the offset rotated
    by theta and added to (x, y), and the heading sum wrapped to (-pi, pi].
    Both headings come in wrapped. Returns (x, y, theta)."""
    c, s = math.cos(theta), math.sin(theta)
    return x + c * ox - s * oy, y + s * ox + c * oy, wrap_angle(theta + otheta)


def dist_se2(a, b) -> float:
    """Planar distance with the heading error folded in as an arc length at
    FOLD_RADIUS.

    a and b are (x, y, theta, ...) sequences; entries after theta are not
    read, so a state can be passed as it is.
    """
    dth = wrap_angle(b[2] - a[2])
    return math.sqrt((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2 + (FOLD_RADIUS * dth) ** 2)


def yaw_project_rows(pos: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Project level-ish SE(3) poses, given as (N, 3) positions and (N, 4)
    canonical rotations, to the ground plane; returns (N, 3) rows of
    (x, y, theta) with theta wrapped to (-pi, pi].

    Yaw is the heading of each pose's forward (+x) axis projected onto the
    ground plane. Raises DegeneratePitchError when a forward axis is within
    1 degree of vertical (pitch beyond +-89 deg), where heading is undefined.
    """
    fwd = quat_rotate_rows(rot, np.array([1.0, 0.0, 0.0])).tolist()
    min_horiz = math.cos(math.radians(89.0))
    if any(math.hypot(fx, fy) < min_horiz for fx, fy, _ in fwd):
        raise DegeneratePitchError("forward axis is near-vertical; yaw undefined")
    pos = np.asarray(pos, dtype=float)
    theta = [wrap_angle(math.atan2(fy, fx)) for fx, fy, _ in fwd]
    return np.column_stack([pos[:, 0], pos[:, 1], theta])
