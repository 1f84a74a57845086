"""Unify independently initialized per-sensor world frames via a static board.

Each camera-IMU node runs odometry in its own world frame. A fiducial board,
seen by both nodes, anchors the two frames: every detection gives the board
pose in one node's world frame (trajectory sample * camera extrinsic *
board-in-camera), the detections are averaged, and the chest-to-hand world
transform is the product of the two anchors.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import Pose3, compose_rows, geodesic_of_dot, quat_canonical_rows, slerp_rows
from .geometry import slerp  # noqa: F401  benchmarks/spans.py counts calls to it under this name
from .jsonl import check_numbers, fields_of, finite_numbers, finite_rows, read_json, read_jsonl
from .jsonl import write_json, write_lines

CHEST = "chest"
HAND = "hand"


class TimestampError(ValueError):
    """A query time falls outside a trajectory's span."""


@dataclass
class VioTrajectory:
    """Timestamped pose stream of one node, in that node's own world frame.

    Arrays are parallel: t [s] strictly increasing, pos (N, 3) [m],
    quat (N, 4) as (w, x, y, z), cov_trace (N,) [m^2].
    """

    node_id: str
    t: np.ndarray
    pos: np.ndarray
    quat: np.ndarray
    cov_trace: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.pos = np.asarray(self.pos, dtype=float)
        self.quat = np.asarray(self.quat, dtype=float)
        self.cov_trace = np.asarray(self.cov_trace, dtype=float)
        if len(self.t) == 0:
            raise ValueError("trajectory must contain at least one sample")
        if self.pos.shape != (len(self.t), 3) or self.quat.shape != (len(self.t), 4):
            raise ValueError("trajectory poses must hold 3 position and 4 quaternion values")
        for what, values in (
            ("timestamp", self.t),
            ("position", self.pos),
            ("quaternion", self.quat),
            ("covariance trace", self.cov_trace),
        ):
            bad = values[~np.isfinite(values)]
            if len(bad):
                raise ValueError(f"non-finite trajectory {what} value {bad[0]}")
        # a finite quaternion can still have a norm that overflows or underflows
        with np.errstate(over="ignore", under="ignore"):
            norm = np.sqrt(np.vecdot(self.quat, self.quat))
        bad = ~(np.isfinite(norm) & (norm != 0.0))
        if bad.any():
            t = self.t[bad][0]
            raise ValueError(f"trajectory quaternion at t={t} has a zero or non-finite norm")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory timestamps must be strictly increasing")
        if np.any(self.cov_trace < 0.0):
            raise ValueError("covariance trace must be nonnegative")

    @property
    def t_start(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def sample_rows(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated poses at the given times, as (N, 3) position and
        canonical (N, 4) quaternion arrays: linear position, slerp rotation.

        Raises TimestampError unless every time lies in [t_start, t_end].
        """
        times = np.asarray(times, dtype=float)
        if not np.all((times >= self.t_start) & (times <= self.t_end)):
            raise TimestampError(
                f"query times outside trajectory span [{self.t_start}, {self.t_end}] "
                f"of {self.node_id}"
            )
        j = np.searchsorted(self.t, times, side="right")
        last = j >= len(self.t)
        inner = ~last
        pos = np.empty((len(times), 3))
        quat = np.empty((len(times), 4))
        pos[last] = self.pos[-1]
        quat[last] = self.quat[-1]
        j = j[inner]
        i = j - 1
        s = (times[inner] - self.t[i]) / (self.t[j] - self.t[i])
        pos[inner] = (1.0 - s)[:, None] * self.pos[i] + s[:, None] * self.pos[j]
        quat[inner] = slerp_rows(self.quat[i], self.quat[j], s)
        return pos, quat_canonical_rows(quat)


@dataclass(frozen=True)
class Extrinsic:
    """Fixed camera-to-IMU transform of one node (camera coords -> IMU frame)."""

    node_id: str
    T_imu_from_camera: Pose3


@dataclass(frozen=True)
class TagDetection:
    """One board sighting: board pose in the node's camera frame at time t."""

    node_id: str
    t: float
    T_cam_tag: Pose3


@dataclass
class AnchorResult:
    """Averaged board pose in one node's world frame, with residual stats."""

    node_id: str
    T_world_tag: Pose3
    detection_count: int
    position_rms: float
    rotation_rms: float
    ill_conditioned: bool = False
    rejected_count: int = 0


def anchor_node(
    traj: VioTrajectory,
    ext: Extrinsic,
    detections: list[TagDetection],
    cov_threshold: float = 0.01,
) -> AnchorResult:
    """Anchor one node: average the board pose over all valid detections.

    A detection is valid when its timestamp lies inside the trajectory span
    and the interpolated covariance trace at that time is not above
    cov_threshold. Each valid detection's board pose in the node's world
    frame is the trajectory sample at its time, composed with the camera
    extrinsic and the detected board-in-camera pose. The mean is the
    arithmetic mean translation and the chordal mean rotation: quaternions
    are hemisphere-aligned to the first one, summed in detection order and
    renormalized. It is exact for identical inputs and accurate for small
    spreads; a spread beyond 90 degrees sets ill_conditioned.
    """
    dets = [d for d in detections if d.node_id == traj.node_id]
    t = np.array([d.t for d in dets], dtype=float)
    cov = np.interp(t, traj.t, traj.cov_trace)
    valid = (t >= traj.t_start) & (t <= traj.t_end) & ~(cov > cov_threshold)
    if not valid.any():
        raise ValueError(f"no valid detections for node {traj.node_id}")
    seen = [d.T_cam_tag for d, ok in zip(dets, valid.tolist()) if ok]
    cam = ext.T_imu_from_camera
    pos, rot = compose_rows(*traj.sample_rows(t[valid]), cam.translation, cam.rotation)
    pos, rot = compose_rows(
        pos, rot, np.array([p.translation for p in seen]), np.array([p.rotation for p in seen])
    )
    # geodesic angles to the first rotation: a negative dot flips the row
    # before the sum, and the largest angle is the spread
    to_first = np.vecdot(rot[0], rot)
    acc = np.zeros(4)
    for q in np.where((to_first < 0.0)[:, None], -rot, rot):
        acc += q
    mean = Pose3(acc, np.mean(pos, axis=0))
    # np.sum of each row's squares, not np.vecdot, which rounds differently
    pos_sq = np.sum((pos - mean.translation) ** 2, axis=1).tolist()
    rot_sq = [geodesic_of_dot(d) ** 2 for d in np.vecdot(rot, mean.rotation).tolist()]
    return AnchorResult(
        node_id=traj.node_id,
        T_world_tag=mean,
        detection_count=len(seen),
        position_rms=math.sqrt(sum(pos_sq) / len(pos_sq)),
        rotation_rms=math.sqrt(sum(rot_sq) / len(rot_sq)),
        ill_conditioned=max(map(geodesic_of_dot, to_first.tolist())) > math.pi / 2.0,
        rejected_count=len(dets) - len(seen),
    )


def cross_node_transform(anchor_chest: Pose3, anchor_hand: Pose3) -> Pose3:
    """Transform mapping hand-world coordinates into the chest world frame."""
    return anchor_chest.compose(anchor_hand.inverse())


# ---------------------------------------------------------------------------
# File formats. Trajectory records: {"node", "t", "pose": [7], "cov_trace"};
# detection records: {"node", "t", "tag_pose": [7]}; extrinsics JSON:
# {node: [7], ...}. Poses are [px, py, pz, qw, qx, qy, qz] in SI units.
# ---------------------------------------------------------------------------


def _check_node(node) -> str:
    if not isinstance(node, str):
        raise ValueError(f"node must be a string, got {node!r}")
    return node


def load_trajectories(path) -> dict[str, VioTrajectory]:
    """Per-node trajectories of a file whose lines may come in any order.

    Each node's samples are ordered by a stable sort on their times, so tied
    times keep their file order. Its pos and quat are C-contiguous copies,
    not strided views, because the row kernels in geometry can round a
    strided operand differently.
    """
    columns: dict[str, tuple[list, list, list]] = {}
    out = {}
    with fields_of(path):
        for rec in read_jsonl(path):
            node = rec["node"]
            t, pose, cov = rec["t"], rec["pose"], rec.get("cov_trace", 0.0)
            if len(pose) != 7:
                raise ValueError(f"trajectory pose must have 7 values, got {len(pose)}")
            if node not in columns:
                columns[node] = ([], [], [])
            node_t, node_poses, node_cov = columns[node]
            node_t.append(t)
            node_poses.append(pose)
            node_cov.append(cov)
        for node, (t, poses, cov) in columns.items():
            _check_node(node)
            check_numbers(t, "trajectory t")
            check_numbers(chain.from_iterable(poses), "trajectory pose")
            check_numbers(cov, "trajectory cov_trace")
            order = sorted(range(len(t)), key=t.__getitem__)
            # every pose holds 7 numbers: one pass builds the block
            rows = np.fromiter(chain.from_iterable(poses), float, count=7 * len(poses))
            rows = rows.reshape(-1, 7)[order]
            out[node] = VioTrajectory(
                node_id=node,
                t=np.array(t, dtype=float)[order],
                pos=rows[:, 0:3].copy(),
                quat=rows[:, 3:7].copy(),
                cov_trace=np.array(cov, dtype=float)[order],
            )
    return out


# one line of each capture stream, for write_lines: a node id is %s, json-encoded
_TRAJECTORY_LINE = '{"cov_trace": %r, "node": %s, "pose": [%r, %r, %r, %r, %r, %r, %r], "t": %r}\n'
_DETECTION_LINE = '{"node": %s, "t": %r, "tag_pose": [%r, %r, %r, %r, %r, %r, %r]}\n'


def save_trajectories(path, trajs: dict[str, VioTrajectory]) -> None:
    """One line per sample, in a stable sort on (t, node)."""
    blocks, samples = [], []
    for traj in trajs.values():
        block = np.column_stack([traj.cov_trace, traj.pos, quat_canonical_rows(traj.quat), traj.t])
        node = json.dumps(traj.node_id)
        blocks.append(block)
        samples += [(row[8], traj.node_id, (row[0], node, *row[1:])) for row in block.tolist()]
    samples.sort(key=lambda s: s[:2])
    values = list(chain.from_iterable(fields for _, _, fields in samples))
    write_lines(path, _TRAJECTORY_LINE, values, blocks, "trajectory")


def load_detections(path) -> list[TagDetection]:
    nodes, t, poses = [], [], []
    with fields_of(path):
        for rec in read_jsonl(path):
            nodes.append(_check_node(rec["node"]))
            t.append(rec["t"])
            poses.append(rec["tag_pose"])
        t = finite_numbers(t, "detection t").tolist()
        rows = finite_rows(poses, 7, "detection tag_pose")
        # a contiguous copy: the norms of a strided view can round differently
        quat = quat_canonical_rows(rows[:, 3:7].copy())
    return list(map(TagDetection, nodes, t, map(Pose3.of_canonical, quat, rows[:, 0:3])))


def save_detections(path, detections: list[TagDetection]) -> None:
    rows = np.array([[d.t, *d.T_cam_tag.to_list()] for d in detections], dtype=float).reshape(-1, 8)
    values = [v for d, row in zip(detections, rows.tolist()) for v in (json.dumps(d.node_id), *row)]
    write_lines(path, _DETECTION_LINE, values, [rows], "detection")


def load_extrinsics(path) -> dict[str, Extrinsic]:
    doc = read_json(path)
    with fields_of(path):
        return {node: Extrinsic(node, Pose3.from_list(vals)) for node, vals in doc.items()}


def save_extrinsics(path, extrinsics: dict[str, Extrinsic]) -> None:
    write_json(path, {e.node_id: e.T_imu_from_camera.to_list() for e in extrinsics.values()})


def anchor_result_to_dict(res: AnchorResult) -> dict:
    return {
        "node": res.node_id,
        "T_world_tag": res.T_world_tag.to_list(),
        "detection_count": res.detection_count,
        "rejected_count": res.rejected_count,
        "position_rms_m": res.position_rms,
        "rotation_rms_rad": res.rotation_rms,
    }
