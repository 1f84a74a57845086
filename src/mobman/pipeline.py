"""Raw multi-rate capture streams -> decoupled 10 Hz demonstration dataset.

The chain: quality filter, map the hand trajectory into the chest world frame,
resample everything onto a uniform grid (linear position, slerp rotation),
optionally smooth, decouple the hand pose against the chest pose,
project the chest onto the ground plane, and map fingertip marker distance to
a normalized gripper aperture.

Each stage is a whole-array numpy pass over the session's samples, built on
geometry's *_rows helpers. The passes write the bytes that a chain of scalar
Pose3 operations per sample would write, under the bit rules listed at the
top of geometry.py.

A dataset is times t (n,) and states (n, 11) in the executor's state layout
(x, y, theta, px, py, pz, qw, qx, qy, qz, grip); action labels are row passes
over them. Pose objects appear only in the capture stages, at file input and
in the DemoDataset.steps view.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .anchoring import VioTrajectory
from .executor import advance_floats
from .geometry import (
    Pose2,
    Pose3,
    compose_rows,
    quat_canonical_rows,
    quat_conj_rows,
    quat_mul_rows,
    quat_rotate_rows,
    relative_floats,
    wrap_angle,
    yaw_project_rows,
)
from .jsonl import fields_of, finite_numbers, finite_rows, read_jsonl

RATE_HZ = 10.0  # dataset grid rate
SAVGOL_WINDOW = 9
SAVGOL_ORDER = 2
COV_THRESHOLD = 0.01  # m^2, largest accepted covariance trace
WORKSPACE_BOUND = 5.0  # m, axis-aligned displacement box half-size
# the domain of a dataset row: a base within DATASET_WORKSPACE on each axis of
# the chest world's origin, where the chest tracker started (quality_filter
# keeps the chest within WORKSPACE_BOUND of its first sample), and a hand
# within DATASET_HAND_RANGE of the chest (an arm's reach, sim.ARM_REACH =
# 0.75 m, with room for tracker offsets and anchoring error)
DATASET_WORKSPACE = 100.0  # m
DATASET_HAND_RANGE = 2.0  # m


class PipelineError(ValueError):
    """Raised when a session cannot be assembled into a dataset."""


@dataclass(frozen=True)
class GripperCalib:
    """One-time open/close calibration of the fingertip marker distance [m]."""

    d_closed: float
    d_open: float

    def __post_init__(self):
        if not (math.isfinite(self.d_closed) and math.isfinite(self.d_open)):
            raise ValueError(f"d_closed {self.d_closed} and d_open {self.d_open} must be finite")
        if not self.d_open > self.d_closed:
            raise ValueError("d_open must exceed d_closed")


@dataclass
class RawSession:
    """Unprocessed capture streams of one demonstration."""

    session_id: str
    chest: VioTrajectory
    hand: VioTrajectory
    cross_node: Pose3 | None  # maps hand-world coords into the chest world
    marker_t: np.ndarray  # fingertip distance stream timestamps [s]
    marker_d: np.ndarray  # fingertip distances [m]

    def __post_init__(self):
        self.marker_t = np.asarray(self.marker_t, dtype=float)
        self.marker_d = np.asarray(self.marker_d, dtype=float)


@dataclass
class PipelineConfig:
    smoothing: bool = True


@dataclass
class DemoStep:
    """One 10 Hz record: planar base pose, chest-relative hand pose, aperture."""

    t: float
    base: Pose2
    hand_rel: Pose3
    grip: float


@dataclass(frozen=True)
class DemoDataset:
    """Times t (n,) and states (n, 11) of a demo, in the module docstring's layout."""

    t: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def steps(self) -> list[DemoStep]:
        """The rows as DemoStep records, built afresh on every read."""
        return [
            DemoStep(
                t,
                Pose2.of_wrapped(*s[:3]),
                Pose3.of_canonical(np.array(s[6:10]), np.array(s[3:6])),
                s[10],
            )
            for t, s in zip(self.t.tolist(), self.states.tolist())
        ]


@dataclass
class ResampledSession:
    """All streams aligned to one uniform grid, hand already in chest world."""

    t: np.ndarray
    chest_pos: np.ndarray  # (N, 3)
    chest_quat: np.ndarray  # (N, 4)
    hand_pos: np.ndarray
    hand_quat: np.ndarray
    marker_d: np.ndarray


def map_hand_into_chest_world(hand: VioTrajectory, cross_node: Pose3) -> VioTrajectory:
    """Re-express every hand sample through the inter-node transform."""
    pos, quat = compose_rows(
        cross_node.translation, cross_node.rotation, hand.pos, quat_canonical_rows(hand.quat)
    )
    return VioTrajectory(hand.node_id, hand.t.copy(), pos, quat, hand.cov_trace.copy())


def resample_to_grid(session: RawSession) -> ResampledSession:
    """Align all streams on the RATE_HZ grid covering the streams' overlap.

    The grid starts at the latest stream start and ends at the earliest stream
    end; positions use linear interpolation, rotations slerp. The hand
    trajectory must already be mapped into the chest world (see
    map_hand_into_chest_world). An overlap of fewer than two grid steps, which
    cannot form an action label, is a PipelineError.
    """
    if len(session.marker_t) == 0:
        raise PipelineError("marker stream is empty")
    t0 = max(session.chest.t_start, session.hand.t_start, float(session.marker_t[0]))
    t1 = min(session.chest.t_end, session.hand.t_end, float(session.marker_t[-1]))
    dt = 1.0 / RATE_HZ
    n = int(math.floor((t1 - t0) / dt + 1e-9)) + 1
    if t1 < t0 or n < 2:
        raise PipelineError(f"streams overlap for fewer than two {RATE_HZ:g} Hz steps")
    # the last point can drift past t1 by float error; clamp into the overlap
    grid = np.minimum(t0 + dt * np.arange(n), t1)
    chest_pos, chest_quat = session.chest.sample_rows(grid)
    hand_pos, hand_quat = session.hand.sample_rows(grid)
    marker = np.interp(grid, session.marker_t, session.marker_d)
    return ResampledSession(
        t=grid,
        chest_pos=chest_pos,
        chest_quat=chest_quat,
        hand_pos=hand_pos,
        hand_quat=hand_quat,
        marker_d=marker,
    )


def savgol_smooth(
    series: np.ndarray, window: int = SAVGOL_WINDOW, order: int = SAVGOL_ORDER
) -> np.ndarray:
    """Savitzky-Golay smoothing of a uniformly sampled series.

    Fits a local least-squares polynomial of the given order in a centered
    window and evaluates it at the center. Edges shrink to the largest
    symmetric window that fits. Reproduces polynomials up to `order` exactly.
    """
    series = np.asarray(series, dtype=float)
    n = len(series)
    if window % 2 == 0:
        raise ValueError("window must be odd")
    if window < 5:
        raise ValueError("window must be >= 5")
    if window > n:
        raise ValueError(f"window {window} exceeds series length {n}")
    half = window // 2
    out = np.empty(n)
    # each window keeps the series' memory stride, so np.vecdot rounds every
    # full window as `weights @ series[i - half : i + half + 1]` would
    out[half : n - half] = np.vecdot(
        _savgol_weights(half, order), sliding_window_view(series, window)
    )
    for i in (*range(half), *range(n - half, n)):
        h = min(i, n - 1 - i)
        out[i] = _savgol_weights(h, order) @ series[i - h : i + h + 1]
    return out


@functools.cache
def _savgol_weights(h: int, order: int) -> np.ndarray:
    """Center-evaluation weights of the savgol fit over 2h + 1 samples."""
    x = np.arange(-h, h + 1, dtype=float)
    deg = min(order, 2 * h)
    A = np.vander(x, deg + 1, increasing=True)
    # value of the LS fit at x=0 is the first row of (A^T A)^-1 A^T
    weights = np.linalg.solve(A.T @ A, A.T)[0]
    weights.flags.writeable = False
    return weights


def smooth_pose_arrays(pos: np.ndarray, quat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component-wise SAVGOL_WINDOW / SAVGOL_ORDER smoothing; quaternions
    renormalized afterwards.

    Component-wise filtering of quaternions is valid for the small
    inter-sample rotations of a 10 Hz stream; samples are hemisphere-aligned
    to their predecessor first so no sign flips corrupt the fit.
    """
    sp = np.column_stack([savgol_smooth(pos[:, k], SAVGOL_WINDOW, SAVGOL_ORDER) for k in range(3)])
    # contiguous rows, so that each dot rounds as on a copy of the array; sample
    # i flips when its dot with the (possibly flipped) sample i - 1 is
    # negative, and flipping i - 1 negates that dot exactly
    quat = np.ascontiguousarray(quat)
    flip = [False]
    for d in np.vecdot(quat[:-1], quat[1:]).tolist():
        flip.append(d > 0.0 if flip[-1] else d < 0.0)
    aligned = np.where(np.array(flip)[:, None], -quat, quat)
    sq = np.column_stack([savgol_smooth(aligned[:, k], SAVGOL_WINDOW, SAVGOL_ORDER) for k in range(4)])
    return sp, quat_canonical_rows(sq)


def quality_filter(session: RawSession) -> list[str]:
    """The reasons to reject a session, empty when it is accepted; rejection
    is a value, never an exception."""
    reasons = []
    for traj in (session.chest, session.hand):
        if np.any(traj.cov_trace > COV_THRESHOLD):
            reasons.append(f"covariance: {traj.node_id} trace exceeds {COV_THRESHOLD} m^2")
    for traj in (session.chest, session.hand):
        disp = np.max(np.abs(traj.pos - traj.pos[0]), axis=0)
        if np.any(disp > WORKSPACE_BOUND):
            reasons.append(
                f"workspace: {traj.node_id} displacement {disp.max():.2f} m exceeds "
                f"{WORKSPACE_BOUND} m bound"
            )
    return reasons


def decouple_rows(
    chest_pos: np.ndarray, chest_rot: np.ndarray, hand_pos: np.ndarray, hand_rot: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hand poses relative to the chest; cancels shared locomotion.

    Row i of the result is chest_i.inverse().compose(hand_i) as (position,
    canonical quaternion) arrays. Both poses must be expressed in the chest
    world frame, with canonical rotations; the hand may be a single (3,)
    position and (4,) quaternion (sim.scripted_expert's board in a camera).
    """
    inv_raw = quat_conj_rows(chest_rot)
    inv_pos = -quat_rotate_rows(inv_raw, chest_pos)
    return compose_rows(inv_pos, quat_canonical_rows(inv_raw), hand_pos, hand_rot)


def project_nonholonomic(poses: list[Pose2], dt: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """project_nonholonomic_floats of the planar poses' (x, y, theta)."""
    return project_nonholonomic_floats([(p.x, p.y, p.theta) for p in poses], dt)


def project_nonholonomic_floats(bases, dt: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Project a free planar trajectory, given as (x, y, theta) rows with
    wrapped headings, onto differential-drive commands.

    Finite differences at the grid rate give (xdot, ydot, thetadot); the
    feasible command is v = xdot*cos(theta) + ydot*sin(theta), omega = thetadot
    (wrapped differencing). Returns the commands as (n - 1, 2) rows of
    (v [m/s], omega [rad/s]), and the discarded lateral component
    v_perp = -xdot*sin(theta) + ydot*cos(theta) for diagnostics.
    """
    if len(bases) < 2:
        raise ValueError("need at least two poses")
    commands, residuals = [], []
    for (ax, ay, ath), (bx, by, bth) in zip(bases, bases[1:]):
        xd = (bx - ax) / dt
        yd = (by - ay) / dt
        thd = wrap_angle(bth - ath) / dt
        c, s = math.cos(ath), math.sin(ath)
        commands.append((xd * c + yd * s, thd))
        residuals.append(-xd * s + yd * c)
    return np.array(commands), np.array(residuals)


def lateral_quantile(residuals: np.ndarray, q: float = 0.99) -> float:
    """Nearest-rank empirical quantile of the absolute lateral residuals."""
    residuals = np.abs(np.asarray(residuals, dtype=float))
    if len(residuals) == 0:
        raise ValueError("empty residual series")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    ordered = np.sort(residuals)
    rank = max(1, int(math.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def grip_from_markers(d: float, calib: GripperCalib) -> float:
    """Linear map of marker distance to aperture in [0, 1], clamped."""
    g = (d - calib.d_closed) / (calib.d_open - calib.d_closed)
    return min(max(g, 0.0), 1.0)


def assemble_dataset(
    session: RawSession,
    calib: GripperCalib,
    config: PipelineConfig | None = None,
) -> DemoDataset:
    """Run the full chain on one session and emit the 10 Hz dataset.

    Raises PipelineError when the session fails the quality filter or the
    streams do not overlap. Timestamps are rebased to start at 0.
    """
    config = config or PipelineConfig()
    reasons = quality_filter(session)
    if reasons:
        raise PipelineError("session rejected: " + "; ".join(reasons))
    if session.cross_node is None:
        raise PipelineError("cross-node transform missing; run anchoring first")

    hand_in_wc = map_hand_into_chest_world(session.hand, session.cross_node)
    aligned = resample_to_grid(replace(session, hand=hand_in_wc))

    chest_pos, chest_quat = aligned.chest_pos, aligned.chest_quat
    hand_pos, hand_quat = aligned.hand_pos, aligned.hand_quat
    if config.smoothing and len(aligned.t) >= SAVGOL_WINDOW:
        chest_pos, chest_quat = smooth_pose_arrays(chest_pos, chest_quat)
        hand_pos, hand_quat = smooth_pose_arrays(hand_pos, hand_quat)

    # as a Pose3 built per step did, renormalise the stored quaternions once more
    chest_rot = quat_canonical_rows(chest_quat)
    rel_pos, rel_rot = decouple_rows(
        chest_pos, chest_rot, hand_pos, quat_canonical_rows(hand_quat)
    )
    # Python's round and grip_from_markers per value: numpy's rounding and
    # clipping can differ from them in the last bit or the sign of a zero
    t = np.array([round(t, 9) for t in (aligned.t - aligned.t[0]).tolist()])
    grip = [grip_from_markers(d, calib) for d in aligned.marker_d.tolist()]
    states = np.column_stack([yaw_project_rows(chest_pos, chest_rot), rel_pos, rel_rot, grip])
    return DemoDataset(t, states)


def make_action_labels(dataset: DemoDataset) -> np.ndarray:
    """Per-step 11-D action labels.

    Layout: base increments (dx, dy, dtheta) expressed in the step-t base
    frame; hand translation increment (3) in the chest frame; hand rotation
    increment as a canonical unit quaternion (4, w >= 0); absolute gripper
    aperture (1). Row t moves the state from step t to step t+1.
    """
    if len(dataset) < 2:
        raise ValueError("need at least two steps to form labels")
    a, b = dataset.states[:-1], dataset.states[1:]
    base = [relative_floats(*sb, *sa) for sa, sb in zip(a[:, :3].tolist(), b[:, :3].tolist())]
    dq = quat_canonical_rows(quat_mul_rows(b[:, 6:10], quat_conj_rows(a[:, 6:10])))
    return np.column_stack([base, b[:, 3:6] - a[:, 3:6], dq, b[:, 10]])


def integrate_labels(
    base0: Pose2, hand0: Pose3, grip0: float, labels: np.ndarray
) -> list[DemoStep]:
    """Chain action labels from an initial state; inverse of make_action_labels."""
    s = (base0.x, base0.y, base0.theta, *hand0.translation.tolist(), *hand0.rotation.tolist())
    states = [(*s, grip0)]
    for row in np.asarray(labels, dtype=float).tolist():
        s = advance_floats(*s, row)
        states.append((*s, row[10]))
    states = np.array(states)
    # each stored quaternion is canonicalised again, as the Pose3 constructor did
    states[1:, 6:10] = quat_canonical_rows(states[1:, 6:10])
    return DemoDataset(0.1 * np.arange(len(states)), states).steps


# ---------------------------------------------------------------------------
# Dataset file format: JSONL, one step per line:
#   {"t", "base": [x, y, theta], "hand_rel": [7], "grip"}
# ---------------------------------------------------------------------------


# a dataset line: json.dumps of the record with sorted keys, whose C encoder
# writes a finite float as float.__repr__ does
_DATASET_LINE = (
    '{"base": [%r, %r, %r], "grip": %r, "hand_rel": [%r, %r, %r, %r, %r, %r, %r], "t": %r}\n'
)
# the state columns in _DATASET_LINE's order: base, grip, hand_rel
_DATASET_LINE_COLUMNS = [0, 1, 2, 10, 3, 4, 5, 6, 7, 8, 9]


def save_dataset(path, dataset: DemoDataset) -> None:
    """Write the dataset, one line per step with write_jsonl's bytes; a
    ValueError from check_dataset_domains, before the file is opened, unless
    every value is finite and inside its column's domain."""
    states = dataset.states
    check_dataset_domains(dataset.t, states[:, :3], states[:, 3:10], states[:, 10])
    values = np.column_stack([states[:, _DATASET_LINE_COLUMNS], dataset.t]).ravel().tolist()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(_DATASET_LINE * len(dataset) % tuple(values), encoding="utf-8")


def load_dataset(path) -> DemoDataset:
    """A save_dataset file, read a column at a time, its headings wrapped and
    quaternions canonicalised as the Pose2 and Pose3 constructors do.

    Every column is bounded by what process can write, and a value outside
    its domain is a MalformedInputError that names it: grip in [0, 1], the
    range process clamps it to; base x and y in [-DATASET_WORKSPACE,
    DATASET_WORKSPACE] = [-100, 100] m; the heading base[2] in [-pi, pi],
    where process wraps it; the hand_rel position at most DATASET_HAND_RANGE
    = 2 m from the chest.
    """
    t, base, hand, grip = [], [], [], []
    with fields_of(path):
        for rec in read_jsonl(path):
            t.append(rec["t"])
            base.append(rec["base"])
            hand.append(rec["hand_rel"])
            grip.append(rec["grip"])
        t, grip = finite_numbers(t, "dataset t"), finite_numbers(grip, "dataset grip")
        base, hand = finite_rows(base, 3, "dataset base"), finite_rows(hand, 7, "dataset hand_rel")
        check_dataset_domains(t, base, hand, grip)
        # a contiguous copy: the norms of a strided view can round differently
        quat = quat_canonical_rows(hand[:, 3:].copy())
    theta = [wrap_angle(th) for th in base[:, 2].tolist()]
    return DemoDataset(t, np.column_stack([base[:, :2], theta, hand[:, :3], quat, grip]))


def check_dataset_domains(t: np.ndarray, base: np.ndarray, hand: np.ndarray, grip: np.ndarray) -> None:
    """ValueError naming the first value of a dataset column that is outside
    its domain, NaN outside every one: t and the hand_rel quaternion in
    (-inf, inf); grip in [0, 1]; base x and y in [-DATASET_WORKSPACE,
    DATASET_WORKSPACE]; base[2] in [-pi, pi]; the hand_rel position at most
    DATASET_HAND_RANGE from the chest. The columns are t (n,), base (n, 3),
    hand (n, 7) and grip (n,)."""
    _check_domain(t, ~np.isfinite(t), "t value", "(-inf, inf)")
    _check_domain(hand[:, 3:], ~np.isfinite(hand[:, 3:]), "hand_rel quaternion value", "(-inf, inf)")
    _check_domain(grip, ~((grip >= 0.0) & (grip <= 1.0)), "grip value", "[0, 1]")
    workspace = f"the workspace [-{DATASET_WORKSPACE:g}, {DATASET_WORKSPACE:g}] m"
    for i in (0, 1):
        xy = base[:, i]
        _check_domain(xy, ~(np.abs(xy) <= DATASET_WORKSPACE), f"base[{i}] value", workspace)
    _check_domain(base[:, 2], ~(np.abs(base[:, 2]) <= math.pi), "base[2] value", "[-pi, pi]")
    with np.errstate(over="ignore"):  # a reach that overflows is outside the range
        reach = np.sqrt(np.vecdot(hand[:, :3], hand[:, :3]))
    _check_domain(
        reach,
        ~(reach <= DATASET_HAND_RANGE),
        "hand_rel distance from the chest",
        f"[0, {DATASET_HAND_RANGE:g}] m",
    )


def _check_domain(values: np.ndarray, outside: np.ndarray, what: str, domain: str) -> None:
    """ValueError naming the first of values where outside is true."""
    if outside.any():
        raise ValueError(f"dataset {what} {values[outside][0]} is outside {domain}")
