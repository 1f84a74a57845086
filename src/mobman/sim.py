"""Deterministic plant, scripted experts, scenarios and episode metrics.

The plant is a differential-drive base with first-order motor lag plus a
pose-tracked arm, stepped at 100 Hz under 10 Hz control. Expert scripts give
the 10 Hz reference trajectories that replay policies follow, and scripted
experts turn them into capture sessions for the processing pipeline
(chest/hand pose streams, fiducial detections, fingertip markers), so every
claim about the toolkit can be checked end to end at desk scale. All
randomness flows from explicit seeds.
"""
from __future__ import annotations

import bisect
import functools
import math
import struct
from pathlib import Path
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .anchoring import (
    CHEST,
    HAND,
    Extrinsic,
    TagDetection,
    VioTrajectory,
    save_detections,
    save_extrinsics,
    save_trajectories,
)
from .executor import (
    CONTROL_DT,
    EpisodeLog,
    ExecutorConfig,
    LatencyConfig,
    PlantCommand,
    advance_floats,
    hand_increment_floats,
    run_executor,
)
from .diffusion import ActionChunkTensor, DEFAULT_HORIZON
from .geometry import (
    Pose3,
    compose_floats,
    compose_rows,
    dot4_floats,
    geodesic_of_dot,
    norm3_floats,
    quat_canonical_floats,
    quat_canonical_rows,
    quat_from_axis_angle,
    quat_from_axis_angle_rows,
    quat_mul,
    quat_mul_floats,
    quat_mul_rows,
    relative_floats,
    slerp,  # noqa: F401  benchmarks/spans.py counts calls to it under this name
    slerp_floats,
    slerp_rows,
    wrap_angle,
)
from .jsonl import write_jsonl
from .pipeline import DemoDataset, GripperCalib, RawSession, decouple_rows
from .report import aggregate_rows

CHEST_HEIGHT = 0.9  # m, chest frame above the ground plane
ARM_REACH = 0.75  # m, hand position clamp radius around the chest origin
# a float sum of squares of the hand position at or below this puts its BLAS
# norm (norm3_floats) below ARM_REACH whatever the rounding of either, so the
# clamp is off
_REACH_PREFILTER = ARM_REACH * ARM_REACH * (1.0 - 1e-9)
# the bytes of four floats: equal bytes are equal bits, -0.0 and 0.0 differ
_PACK4 = struct.Struct("4d").pack

DEFAULT_CALIB = GripperCalib(d_closed=0.01, d_open=0.09)

# a plant's default initial state: base at the origin, hand at the chest
# origin with the identity rotation, gripper open
REST_STATE = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
# the task frame (x, y, theta) of a task that is not shifted
ORIGIN = (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Plant
# ---------------------------------------------------------------------------


@dataclass
class PlantConfig:
    """Plant constants; only the kinematic switch is settable."""

    tau_base: ClassVar[float] = 0.15  # s, motor response of v and omega
    tau_arm: ClassVar[float] = 0.08  # s, pose-tracking lag of the arm
    lateral_clip: ClassVar[float] = 0.05  # m/s, saturation of the lateral channel
    lateral_tau: ClassVar[float] = 0.2  # s, low-pass after the clip
    grip_rate: ClassVar[float] = 2.0  # 1/s, aperture slew limit
    v_max: ClassVar[float] = 0.8
    omega_max: ClassVar[float] = 1.5
    dt_sub: ClassVar[float] = 0.01
    # per-substep decay factors of the three first-order lags
    decay_base: ClassVar[float] = math.exp(-dt_sub / tau_base)
    decay_lateral: ClassVar[float] = math.exp(-dt_sub / lateral_tau)
    arm_gain: ClassVar[float] = 1.0 - math.exp(-dt_sub / tau_arm)
    kinematic: bool = False  # tau -> 0 limit: velocities equal commands


class Plant:
    """100 Hz plant with a command queue honoring dispatch latency.

    Commands are applied at the first substep boundary at or after their
    effect time (virtual-clock quantization). The history holds one state
    (executor's 11-float layout) per substep, from the initial state given,
    and backs state_at() for aged observations; its last entry is `current`.
    A command is taken apart into floats once, when it takes effect.

    The substep runs on plain floats and keeps the bits of the Pose2/Pose3
    code it replaced (see executor): element-wise + - * / give the bits of
    their array forms; a clamp to [lo, hi] is the two comparisons that
    min(max(x, lo), hi) makes, m = lo if lo > x else x, then hi if hi < m
    else m, which give np.clip's result, signed zeros and NaN included; the
    slerp input dot and every norm are geometry's buffer dots (dot4_floats,
    norm3_floats), which give the bits of ndarray.dot on new arrays without
    building one; the slerp result is canonicalised a second time, as the
    Pose3 constructor did; the reach clamp takes its norm only when a float
    sum of squares with a margin says the hand may be beyond ARM_REACH. The
    rotation update reads only the rotation and its target, so once it
    returns its input bit for bit it is skipped, and the fixed point is
    carried across a new command whose target rotation has the same bytes.
    """

    def __init__(self, config: PlantConfig, state: tuple = REST_STATE):
        self.config = config
        state = tuple(map(float, state))
        self.v = 0.0
        self.omega = 0.0
        self.v_lat = 0.0
        self.t = 0.0
        self._k = 0  # substeps taken; t is k / (substeps per second)
        self._rot_fixed = False  # set once the rotation update returns its input
        self._rot_target = b""  # the bytes of the active target rotation
        # the initial command holds the initial hand and grip
        self._take(PlantCommand(0.0, 0.0, 0.0, state[3:10], state[10]))
        self._queue: list[tuple[float, PlantCommand]] = []
        self._next_due = math.inf  # earliest effect time in _queue
        self._times = [0.0]  # snapshot times, kept beside _states
        self._states = [state]

    @property
    def current(self) -> tuple:
        """The current state, the history's own last entry."""
        return self._states[-1]

    def issue_command(self, cmd: PlantCommand, t_effect: float) -> None:
        self._queue.append((t_effect, cmd))
        if t_effect < self._next_due:
            self._next_due = t_effect

    def state_at(self, t: float) -> tuple:
        """State at a past time, interpolated between substep snapshots."""
        times, states = self._times, self._states
        if t <= times[0]:
            return states[0]
        if t >= times[-1]:
            return states[-1]
        j = bisect.bisect_right(times, t)
        x0, y0, th0, px0, py0, pz0, *q0, g0 = states[j - 1]
        x1, y1, th1, px1, py1, pz1, *q1, g1 = states[j]
        a = (t - times[j - 1]) / (times[j] - times[j - 1])
        b = 1 - a
        # slerp's dot, as ndarray.dot takes it
        dot = dot4_floats(*q0, *q1)
        return (
            b * x0 + a * x1,
            b * y0 + a * y1,
            wrap_angle(th0 + a * wrap_angle(th1 - th0)),
            b * px0 + a * px1,
            b * py0 + a * py1,
            b * pz0 + a * pz1,
            *slerp_floats(q0, q1, a, dot),
            b * g0 + a * g1,
        )

    def _take(self, cmd: PlantCommand) -> None:
        """Make cmd the active command, taken apart into the floats a substep reads."""
        cfg = self.config
        v_max, w_max, lat_max = cfg.v_max, cfg.omega_max, cfg.lateral_clip
        v, omega, v_lat = float(cmd.v), float(cmd.omega), float(cmd.v_lat)
        # min(max(x, -m), m) as the two comparisons it makes (see the class)
        v = -v_max if -v_max > v else v
        omega = -w_max if -w_max > omega else omega
        v_lat = -lat_max if -lat_max > v_lat else v_lat
        tx, ty, tz, *q1 = map(float, cmd.hand_target)
        self._cmd = (
            v_max if v_max < v else v,
            w_max if w_max < omega else omega,
            lat_max if lat_max < v_lat else v_lat,
            tx,
            ty,
            tz,
            q1,
            float(cmd.grip_target),
        )
        # the update reads only the rotation and its target, so a fixed point
        # stays one under a target rotation with the same bytes
        target = _PACK4(*q1)
        self._rot_fixed = self._rot_fixed and target == self._rot_target
        self._rot_target = target

    def _take_due(self, now: float) -> None:
        """Activate the last issued of the commands due at now; drop them all."""
        due = [c for c in self._queue if c[0] <= now + 1e-9]
        self._take(due[-1][1])
        self._queue = [c for c in self._queue if c[0] > now + 1e-9]
        self._next_due = math.inf
        for t_effect, _ in self._queue:
            if t_effect < self._next_due:
                self._next_due = t_effect

    def step_to(self, t: float) -> None:
        cfg = self.config
        dt = cfg.dt_sub
        kinematic = cfg.kinematic
        decay_base, decay_lateral = cfg.decay_base, cfg.decay_lateral
        a = 1.0 if kinematic else cfg.arm_gain
        rate = cfg.grip_rate * dt
        neg_rate = -rate
        # k / per_s is the time that round(t + dt, 9) chained from 0 reaches
        per_s = round(1.0 / dt)
        times, states = self._times, self._states
        x, y, th, px, py, pz, qw, qx, qy, qz, grip = states[-1]
        v, omega, v_lat = self.v, self.omega, self.v_lat
        v_cmd, w_cmd, lat_cmd, tx, ty, tz, q1, g_cmd = self._cmd
        q1w, q1x, q1y, q1z = q1
        now, k = self.t, self._k
        rot_fixed = self._rot_fixed
        while now < t - 1e-9:
            if self._next_due <= now + 1e-9:
                self._rot_fixed = rot_fixed
                self._take_due(now)
                v_cmd, w_cmd, lat_cmd, tx, ty, tz, q1, g_cmd = self._cmd
                q1w, q1x, q1y, q1z = q1
                rot_fixed = self._rot_fixed
            if kinematic:
                v, omega, v_lat = v_cmd, w_cmd, lat_cmd
            else:
                v = v_cmd + (v - v_cmd) * decay_base
                omega = w_cmd + (omega - w_cmd) * decay_base
                v_lat = lat_cmd + (v_lat - lat_cmd) * decay_lateral
            c, s = math.cos(th), math.sin(th)
            x = x + (v * c - v_lat * s) * dt
            y = y + (v * s + v_lat * c) * dt
            th = wrap_angle(th + omega * dt)
            # arm: first-order pose tracking toward the commanded target
            px = px + a * (tx - px)
            py = py + a * (ty - py)
            pz = pz + a * (tz - pz)
            if px * px + py * py + pz * pz > _REACH_PREFILTER:
                r = norm3_floats(px, py, pz)
                if r > ARM_REACH:
                    f = ARM_REACH / r
                    px, py, pz = px * f, py * f, pz * f
            # slerp normalises, then quat_canonical normalises again as the
            # Pose3 constructor did; without the second pass the last bits of
            # every episode state change
            if not rot_fixed:
                rot = (qw, qx, qy, qz)
                dot = dot4_floats(qw, qx, qy, qz, q1w, q1x, q1y, q1z)
                q = quat_canonical_floats(*slerp_floats(rot, q1, a, dot))
                # == alone would take a flipped signed zero for a fixed point
                rot_fixed = q == rot and _PACK4(*q) == _PACK4(*rot)
                if not rot_fixed:
                    qw, qx, qy, qz = q
            dg = g_cmd - grip
            dg = neg_rate if neg_rate > dg else dg
            grip = grip + (rate if rate < dg else dg)
            grip = 0.0 if 0.0 > grip else grip
            grip = 1.0 if 1.0 < grip else grip
            k += 1
            now = k / per_s
            times.append(now)
            states.append((x, y, th, px, py, pz, qw, qx, qy, qz, grip))
        self.v, self.omega, self.v_lat = v, omega, v_lat
        self.t, self._k = now, k
        self._rot_fixed = rot_fixed


# ---------------------------------------------------------------------------
# Scripted expert: piecewise-linear reference motion
# ---------------------------------------------------------------------------

# speed steps of drive's deceleration ramp, before its slow tail
RAMP_STEPS = 10
DRIVE_SPEED = 0.3  # m/s, drive's cruise speed


class ExpertScript:
    """Reference motion built from constant-rate primitives.

    A script is a value: a knot table, where knot j is a read-only state in the
    executor's 11-float layout, with theta unwrapped, at time _times[j]. pause,
    turn, move_hand and set_grip each return a new script with one more knot,
    drive one more per speed step; the receiver stays as it was, and scripts
    share their common prefix of knots. Between consecutive knots the state is
    linear in time (the hand rotation by slerp). Durations are multiples of the
    control period, so sampling at any rate whose grid contains the knots is
    exact. Times outside [0, duration] sample the first or last knot.
    """

    def __init__(self, hand_home: Pose3, grip0: float = 1.0):
        knot = np.array([0.0, 0.0, 0.0, *hand_home.to_list(), grip0])
        knot.flags.writeable = False
        self._knots = (knot,)
        self._times = (0.0,)

    @staticmethod
    def _round_duration(d: float) -> float:
        return max(CONTROL_DT, round(round(d / CONTROL_DT) * CONTROL_DT, 9))

    def _push(self, duration, b1=None, h1=None, g1=None) -> ExpertScript:
        """This script with one knot appended, duration after its last."""
        knot = self._knots[-1].copy()
        if b1 is not None:
            knot[:3] = b1
        if h1 is not None:
            knot[3:10] = h1.to_list()
        if g1 is not None:
            knot[10] = g1
        knot.flags.writeable = False
        script = object.__new__(type(self))
        script._knots = (*self._knots, knot)
        script._times = (*self._times, round(self._times[-1] + self._round_duration(duration), 9))
        return script

    def pause(self, duration: float) -> ExpertScript:
        return self._push(duration)

    def drive(self, distance: float) -> ExpertScript:
        """Straight drive at DRIVE_SPEED ending in a stepped deceleration ramp.

        The ramp sheds DRIVE_SPEED/RAMP_STEPS every 0.3 s so a first-order plant
        can brake without overshooting the stop point.
        """
        th = self._knots[-1][2]
        sgn = 1.0 if distance >= 0 else -1.0
        heading = np.array([math.cos(th), math.sin(th), 0.0])
        ramp = [DRIVE_SPEED * k / RAMP_STEPS for k in range(RAMP_STEPS - 1, 0, -1)]
        ramp += [DRIVE_SPEED * f for f in (1.0 / 15, 1.0 / 25, 1.0 / 50, 1.0 / 150)]
        # (duration, distance) of each constant-speed step: the cruise, then the ramp
        steps = [(0.3, v * 0.3) for v in ramp]
        cruise_dist = max(abs(distance) - sum(d for _, d in steps), 0.0)
        if cruise_dist > 0:
            steps.insert(0, (cruise_dist / DRIVE_SPEED, cruise_dist))
        script = self
        for duration, dist in steps:
            script = script._push(duration, b1=script._knots[-1][:3] + sgn * dist * heading)
        return script

    def turn(self, dangle: float, duration: float) -> ExpertScript:
        return self._push(duration, b1=self._knots[-1][:3] + np.array([0.0, 0.0, dangle]))

    def move_hand(self, target: Pose3, duration: float) -> ExpertScript:
        return self._push(duration, h1=target)

    def set_grip(self, value: float, duration: float) -> ExpertScript:
        return self._push(duration, g1=value)

    @property
    def duration(self) -> float:
        return self._times[-1]

    def states_at(self, times) -> np.ndarray:
        """The states at an array of times, as (n, 11) rows with theta wrapped."""
        if len(self._times) < 2:
            raise ValueError("empty script")
        knot_t, knots = np.array(self._times), np.array(self._knots)
        t = np.asarray(times, dtype=float)
        # np.maximum would turn -0.0 into 0.0; max(t, 0.0) keeps it
        t = np.minimum(np.where(t < 0.0, 0.0, t), self.duration)
        # segment j runs from knot j to knot j + 1 and holds t <= knot_t[j + 1] + 1e-12
        j = np.searchsorted(knot_t[1:] + 1e-12, t, side="left")
        t0, t1 = knot_t[j], knot_t[j + 1]
        a = (np.minimum(t, t1) - t0) / (t1 - t0)
        k0, k1 = knots[j], knots[j + 1]
        states = (1 - a[:, None]) * k0 + a[:, None] * k1
        # slerp, then quat_canonical again, as the Pose3 constructor did
        states[:, 6:10] = quat_canonical_rows(slerp_rows(k0[:, 6:10], k1[:, 6:10], a))
        states[:, 2] = [wrap_angle(th) for th in states[:, 2].tolist()]
        return states

    def grid(self, rate: int) -> np.ndarray:
        """The times k / rate from 0 to the script's duration, rounded to 1e-9:
        the 10 Hz control grid and the capture streams' grids."""
        return np.round(np.arange(int(round(self.duration * rate)) + 1) / rate, 9)

    @functools.cached_property
    def reference(self) -> DemoDataset:
        """The script on the 10 Hz control grid, computed once per script, so
        its arrays cannot be written."""
        ref_t = self.grid(10)
        states = self.states_at(ref_t)
        ref_t.flags.writeable = False
        states.flags.writeable = False
        return DemoDataset(ref_t, states)

    @functools.cached_property
    def world_hand(self) -> tuple[tuple[float, ...], ...]:
        """hand_world_pose of the reference's states at every 10 Hz step, as
        (px, py, pz, qw, qx, qy, qz), computed once per script."""
        return tuple(map(tuple, np.hstack(_hand_world_rows(self.reference.states)).tolist()))


HAND_HOME = Pose3(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.30, 0.0, -0.20]))
GRASP_POSE = Pose3(
    quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.6), np.array([0.50, 0.10, -0.30])
)
PLACE_POSE = Pose3(
    quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.4), np.array([0.45, -0.10, -0.25])
)


# ---------------------------------------------------------------------------
# Scenarios: staged geometric goals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoalStage:
    """One ordered goal; the episode succeeds when all stages held in order."""

    label: str
    base: tuple | None = None  # (x, y, theta, pos_tol, ang_tol)
    hand: tuple | None = None  # (pos 3-vector, tol)
    grip: tuple | None = None  # (op '<=' or '>=', threshold)
    hold_s: float = 0.3

    def base_in(self, frame: tuple) -> tuple[float, float, float] | None:
        """The base goal placed in the task frame (x, y, theta), as (x, y, theta)."""
        if self.base is None:
            return None
        x, y, th = self.base[:3]
        return compose_floats(*frame, x, y, wrap_angle(th))

    def satisfied(self, s: tuple, base_goal: tuple[float, float, float] | None) -> bool:
        """Whether state s meets this stage; base_goal is base_in(task frame)."""
        if self.base is not None:
            gx, gy, gth = base_goal
            pos_tol, ang_tol = self.base[3:]
            if math.hypot(s[0] - gx, s[1] - gy) > pos_tol:
                return False
            if abs(wrap_angle(s[2] - gth)) > ang_tol:
                return False
        if self.hand is not None:
            pos, tol = self.hand
            if norm3_floats(s[3] - pos[0], s[4] - pos[1], s[5] - pos[2]) > tol:
                return False
        if self.grip is not None:
            op, thr = self.grip
            if op == "<=" and not s[10] <= thr:
                return False
            if op == ">=" and not s[10] >= thr:
                return False
        return True


@dataclass(frozen=True)
class SimScenario:
    name: str
    script: ExpertScript
    goals: tuple[GoalStage, ...]
    time_limit: float = 120.0

    def __post_init__(self):
        if self.script.duration >= self.time_limit:
            raise ValueError("goals not reachable within the time limit")


def _nav_reach_script() -> ExpertScript:
    return (
        ExpertScript(HAND_HOME)
        .pause(0.5)
        .drive(1.5)
        .pause(0.4)
        .move_hand(GRASP_POSE, 1.5)
        .set_grip(0.1, 0.6)
        .pause(0.6)
    )


def _nav_turn_place_script() -> ExpertScript:
    return (
        ExpertScript(HAND_HOME, grip0=0.1)
        .pause(0.5)
        .drive(1.0)
        .turn(math.pi / 2.0, 2.5)
        .drive(0.8)
        .pause(0.4)
        .move_hand(PLACE_POSE, 1.5)
        .set_grip(1.0, 0.6)
        .pause(0.6)
    )


def _long_horizon_script() -> ExpertScript:
    return (
        ExpertScript(HAND_HOME)
        .pause(0.5)
        .drive(1.2)
        .turn(-math.pi / 2.0, 2.5)
        .drive(1.0)
        .pause(0.4)
        .move_hand(GRASP_POSE, 1.5)
        .set_grip(0.1, 0.6)
        .pause(0.4)
        .move_hand(HAND_HOME, 1.5)
        .turn(math.pi, 5.0)
        .drive(0.8)
        .pause(0.4)
        .set_grip(1.0, 0.6)
        .pause(0.6)
    )


def _cruise_script() -> ExpertScript:
    return ExpertScript(HAND_HOME).drive(3.0)


_GRIP_CLOSED = ("<=", 0.15)
_GRIP_OPEN = (">=", 0.8)


# name -> (script builder, goal stages, time limit in s)
_SCENARIOS = {
    "nav_reach": (
        _nav_reach_script,
        (
            GoalStage("arrive", base=(1.5, 0.0, 0.0, 0.06, 0.15), hold_s=0.5),
            GoalStage("reach", hand=(GRASP_POSE.translation, 0.05), hold_s=0.3),
            GoalStage("grasp", grip=_GRIP_CLOSED, hold_s=0.3),
        ),
        12.0,
    ),
    "nav_turn_place": (
        _nav_turn_place_script,
        (
            GoalStage("arrive", base=(1.0, 0.8, math.pi / 2.0, 0.06, 0.15), hold_s=0.5),
            GoalStage("place", hand=(PLACE_POSE.translation, 0.05), hold_s=0.3),
            GoalStage("release", grip=_GRIP_OPEN, hold_s=0.3),
        ),
        40.0,
    ),
    "long_horizon": (
        _long_horizon_script,
        (
            GoalStage("arrive_pick", base=(1.2, -1.0, -math.pi / 2.0, 0.06, 0.15), hold_s=0.5),
            GoalStage("grasp", hand=(GRASP_POSE.translation, 0.05), grip=_GRIP_CLOSED),
            GoalStage("arrive_drop", base=(1.2, -0.2, math.pi / 2.0, 0.06, 0.15), hold_s=0.5),
            GoalStage("release", grip=_GRIP_OPEN, hold_s=0.3),
        ),
        60.0,
    ),
    "cruise": (
        _cruise_script,
        (GoalStage("arrive", base=(3.0, 0.0, 0.0, 0.08, 0.3), hold_s=0.3),),
        30.0,
    ),
}

SCENARIO_NAMES = tuple(_SCENARIOS)


# one scenario per name, built at import; a scenario and its script are values
_SCENARIO_VALUES = {
    name: SimScenario(name, build(), goals, time_limit)
    for name, (build, goals, time_limit) in _SCENARIOS.items()
}


def make_scenario(name: str) -> SimScenario:
    """The scenario of a name, the same value on every call."""
    if name not in _SCENARIO_VALUES:
        raise ValueError(f"unknown scenario {name!r}")
    return _SCENARIO_VALUES[name]


# ---------------------------------------------------------------------------
# Expert capture sessions for the anchoring + processing modules
# ---------------------------------------------------------------------------

BOARD_IN_WORLD = Pose3(
    quat_mul(
        quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), 1.2),
        quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.4),
    ),
    np.array([0.8, -0.4, 0.5]),
)
N_DETECTIONS = 15  # board sightings per camera over the initial window
_IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)

EXTRINSICS = {
    CHEST: Extrinsic(
        CHEST,
        Pose3(
            quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.3),
            np.array([0.05, 0.0, 0.10]),
        ),
    ),
    HAND: Extrinsic(
        HAND,
        Pose3(
            quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), -0.2),
            np.array([0.02, -0.01, 0.05]),
        ),
    ),
}


@dataclass
class ExpertSession:
    """Everything one synthetic demonstration produces."""

    session: RawSession  # cross_node left unset; anchoring recovers it
    detections: list[TagDetection]
    extrinsics: dict[str, Extrinsic]
    cross_node_true: Pose3  # ground truth T mapping hand-world into chest-world
    script: ExpertScript  # script.reference is the 10 Hz reference grid
    calib: GripperCalib = DEFAULT_CALIB


def _random_rigid(rng: np.random.Generator) -> Pose3:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    q = quat_from_axis_angle(axis, rng.uniform(-math.pi, math.pi))
    return Pose3(q, rng.uniform(-2.0, 2.0, size=3))


def hand_world_pose(s) -> tuple[float, ...]:
    """The hand pose in the world of one state s, as the seven floats (px, py,
    pz, qw, qx, qy, qz): the base lifted to CHEST_HEIGHT, composed with the
    chest-relative hand. They have the bits of the pose code
    Pose2.of_wrapped(*s[:3]).lift(CHEST_HEIGHT).compose(Pose3(s[6:10], s[3:6]))
    (_hand_world_rows gives them for arrays): rot_z's quaternion is
    canonicalised twice, as rot_z and the lifted Pose3 did, the hand's and the
    product's once each, as their Pose3 constructors did."""
    x, y, th, px, py, pz, hw, hx, hy, hz = s[:10]
    h = 0.5 * th
    sin_h = math.sin(h)
    # rot_z(th): sin(h) times the unit axis (0, 0, 1), then the two passes
    cw, cx, cy, cz = quat_canonical_floats(
        *quat_canonical_floats(math.cos(h), sin_h * 0.0, sin_h * 0.0, sin_h)
    )
    # quat_rotate: the hand position as (0, p), turned by c * (0, p) * conj(c)
    _, rx, ry, rz = quat_mul_floats(
        *quat_mul_floats(cw, cx, cy, cz, 0.0, px, py, pz), cw, -cx, -cy, -cz
    )
    hand_q = quat_canonical_floats(hw, hx, hy, hz)
    return (
        x + rx,
        y + ry,
        CHEST_HEIGHT + rz,
        *quat_canonical_floats(*quat_mul_floats(cw, cx, cy, cz, *hand_q)),
    )


def _chest_world_rows(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chest pose in the world of every row of an (n, 11) state array,
    the base lifted to CHEST_HEIGHT, as (position, canonical quaternion)
    arrays with the bits that Pose2.of_wrapped(...).lift gives."""
    n = len(states)
    # rot_z, then quat_canonical again, as the Pose3 that lift builds did
    rot = quat_from_axis_angle_rows(np.broadcast_to((0.0, 0.0, 1.0), (n, 3)), states[:, 2])
    return np.column_stack([states[:, :2], np.full(n, CHEST_HEIGHT)]), quat_canonical_rows(rot)


def _hand_world_rows(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hand_world_pose of every row of an (n, 11) state array, as (position,
    canonical quaternion) arrays with the bits it gives."""
    return compose_rows(
        *_chest_world_rows(states), states[:, 3:6], quat_canonical_rows(states[:, 6:10])
    )


def _noise_rows(pos, rot, rng, sigma_pos: float, sigma_rot: float):
    """Sensor noise on (n, 3) positions and (n, 4) canonical quaternions: an
    N(0, sigma_rot) turn about a random axis on the left, N(0, sigma_pos) per
    coordinate. One block of normals, pose by pose axis (3), angle (1) and
    position (3), or the position alone when sigma_rot is 0, each computed as
    loc + scale * z like Generator.normal, holds the bits of per-pose draws."""
    if sigma_pos == 0.0 and sigma_rot == 0.0:
        return pos, rot
    if sigma_rot > 0.0:
        scale = np.array([1.0, 1.0, 1.0, sigma_rot, sigma_pos, sigma_pos, sigma_pos])
        z = 0.0 + scale * rng.standard_normal((len(pos), 7))
        axis = z[:, :3]
        # normalised here and again in quat_from_axis_angle_rows, as the
        # per-pose draw normalised its axis before quat_from_axis_angle did
        axis = axis / np.sqrt(np.vecdot(axis, axis))[:, None]
        dq = quat_from_axis_angle_rows(axis, z[:, 3])
    else:
        z = 0.0 + sigma_pos * rng.standard_normal((len(pos), 3))
        # the identity turn still renormalises, as a Pose3 of the product did
        dq = _IDENTITY_Q
    return pos + z[:, -3:], quat_canonical_rows(quat_mul_rows(dq, rot))


def scripted_expert(
    scenario: SimScenario,
    seed: int = 0,
    sigma_pos: float = 0.0,
    sigma_rot: float = 0.0,
    session_id: str | None = None,
) -> ExpertSession:
    """Synthesize one demonstration obeying the collection protocol.

    Chest poses stream at 30 Hz, hand poses at 20 Hz and fingertip markers at
    50 Hz — all grids containing the 10 Hz corners of the script, so the
    noiseless session round-trips through the pipeline exactly. The hand
    stream lives in its own world frame, displaced from the chest world by a
    seed-random rigid transform that anchoring must recover from the shared
    board detections. sigma_pos [m] and sigma_rot [rad] are the standard
    deviations of the sensor noise, finite and >= 0.
    """
    for name, sigma in (("sigma_pos", sigma_pos), ("sigma_rot", sigma_rot)):
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"{name} must be a finite value >= 0, got {sigma}")
    rng = np.random.default_rng([seed, 0xE0])
    script = scenario.script
    g_true = _random_rigid(rng)
    g_inv = g_true.inverse()

    def hand_imu_rows(states):
        return compose_rows(g_inv.translation, g_inv.rotation, *_hand_world_rows(states))

    t_c, t_h, t_m = script.grid(30), script.grid(20), script.grid(50)

    chest = _noise_rows(*_chest_world_rows(script.states_at(t_c)), rng, sigma_pos, sigma_rot)
    hand = _noise_rows(*hand_imu_rows(script.states_at(t_h)), rng, sigma_pos, sigma_rot)
    calib = DEFAULT_CALIB
    marker_d = calib.d_closed + script.states_at(t_m)[:, 10] * (calib.d_open - calib.d_closed)
    if sigma_pos > 0.0:
        marker_d = marker_d + rng.normal(0.0, sigma_pos / 5.0, size=len(marker_d))

    def make_traj(node, t, pos, quat):
        return VioTrajectory(node, t, pos, quat, cov_trace=np.full(len(t), 1e-4))

    session = RawSession(
        session_id=session_id or f"{scenario.name}-{seed}",
        chest=make_traj(CHEST, t_c, *chest),
        hand=make_traj(HAND, t_h, *hand),
        cross_node=None,
        marker_t=t_m,
        marker_d=marker_d,
    )

    # board detections in both cameras over the initial window: camera pose
    # = IMU pose ∘ extrinsic, board in the camera = camera⁻¹ ∘ board
    det_t = np.round(np.linspace(0.0, min(1.4, script.duration), N_DETECTIONS), 9)
    det_states = script.states_at(det_t)
    board_hand_world = g_inv.compose(BOARD_IN_WORLD)
    seen = []
    for node, imu, board in (
        (CHEST, _chest_world_rows(det_states), BOARD_IN_WORLD),
        (HAND, hand_imu_rows(det_states), board_hand_world),
    ):
        cam = EXTRINSICS[node].T_imu_from_camera
        cam_pos, cam_rot = compose_rows(*imu, cam.translation, cam.rotation)
        seen.append(decouple_rows(cam_pos, cam_rot, board.translation, board.rotation))
    # the chest and hand sightings of each time alternate, and so do their draws
    pos, rot = (np.hstack(rows).reshape(2 * N_DETECTIONS, -1) for rows in zip(*seen))
    pos, rot = _noise_rows(pos, rot, rng, sigma_pos, sigma_rot)
    detections = [
        TagDetection(node, ti, Pose3.of_canonical(q, p))
        for node, ti, p, q in zip(
            (CHEST, HAND) * N_DETECTIONS, np.repeat(det_t, 2).tolist(), pos, rot
        )
    ]

    return ExpertSession(
        session=session,
        detections=detections,
        extrinsics=EXTRINSICS,
        cross_node_true=g_true,
        script=script,
        calib=calib,
    )


def save_expert_session(out_dir, expert: ExpertSession) -> None:
    """Write one capture session in the on-disk raw layout the CLI reads."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_trajectories(
        out / "trajectories.jsonl",
        {CHEST: expert.session.chest, HAND: expert.session.hand},
    )
    save_detections(out / "detections.jsonl", expert.detections)
    save_extrinsics(out / "extrinsics.json", expert.extrinsics)
    write_jsonl(
        out / "markers.jsonl",
        [
            {"t": float(t), "distance_m": float(d)}
            for t, d in zip(expert.session.marker_t, expert.session.marker_d)
        ],
    )


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

HOLD_ROW = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])


class CruisePolicy:
    """Constant forward motion: every row advances 3 cm straight ahead."""

    STEP = 0.03

    def __call__(self, obs: tuple, obs_t: float) -> ActionChunkTensor:
        rows = np.tile(HOLD_ROW, (DEFAULT_HORIZON, 1))
        rows[:, 0] = self.STEP
        rows[:, 10] = obs[10]
        return ActionChunkTensor(rows)


class ExpertReplayPolicy:
    """Chunked replay of a scripted reference with feedback correction.

    The observed state is matched against the 10 Hz reference (monotonic
    cursor), and each chunk row nudges the running predicted state toward the
    next reference step under the base's motion limits: bounded forward step,
    bounded steering that also bleeds off lateral error, millimeter-level
    lateral leakage, bounded hand steps.

    label_frame selects how the hand branch of the rows is expressed:
    'relative' uses chest-relative targets (invariant to where the base path
    actually ended up), 'global' replays the demonstration's world-frame hand
    motion, which entangles locomotion with manipulation — the row increments
    then contain the demo's base motion and point at the demo's absolute
    grasp location regardless of the executed path.

    The rows are computed on floats under Plant's bit rules, so they have
    the bits the Pose2/Pose3 operations give, and the running state is
    chained with executor.advance_floats. Each chunk carries that chain, from
    the observation itself, as its roll-out: forward_rollout of the chunk
    from the same observation gives those states bit for bit.
    """

    MAX_DX = 0.045
    MAX_DY = 0.004
    MAX_DTH = 0.12
    STEER_GAIN = 1.5
    MAX_STEER = 0.5
    MAX_HAND_STEP = 0.06
    # the _REACH_PREFILTER rule: a float sum of squares at or below this puts
    # the BLAS norm at or below MAX_HAND_STEP, so the step is not scaled
    _HAND_STEP_PREFILTER = MAX_HAND_STEP * MAX_HAND_STEP * (1.0 - 1e-9)
    MAX_HAND_ROT = 0.15
    MAX_DGRIP = 0.3

    def __init__(
        self,
        script: ExpertScript,
        task_frame: tuple = ORIGIN,
        label_frame: str = "relative",
    ):
        if label_frame not in ("relative", "global"):
            raise ValueError("label_frame must be 'relative' or 'global'")
        self.label_frame = label_frame
        ref = script.reference.states
        # every reference base pose placed in the task frame (x, y, theta)
        self.ref_base = [compose_floats(*task_frame, *b) for b in ref[:, :3].tolist()]
        self.ref_hand_pos = ref[:, 3:6]
        self.ref_grip = ref[:, 10].tolist()
        # hand targets as (px, py, pz, qw, qx, qy, qz): chest-relative, or the
        # demo-world hand poses as recorded (not shifted into the task frame)
        self.ref_hand = (
            script.world_hand if label_frame == "global" else ref[:, 3:10].tolist()
        )
        self._cursor = 0

    def _match_index(self, obs: tuple) -> int:
        lo = self._cursor
        hi = min(len(self.ref_base), lo + 30)
        # np.vecdot of contiguous rows rounds as ndarray.dot of each row does
        dp = self.ref_hand_pos[lo:hi] - np.array(obs[3:6])
        hand_d = np.sqrt(np.vecdot(dp, dp)).tolist()
        x, y, th, grip = obs[0], obs[1], obs[2], obs[10]
        best, best_j = None, lo
        for j, (bx, by, bth), dh, g in zip(
            range(lo, hi), self.ref_base[lo:hi], hand_d, self.ref_grip[lo:hi]
        ):
            d = math.hypot(bx - x, by - y)
            d += 0.5 * abs(wrap_angle(bth - th))
            d += dh
            d += 0.1 * abs(g - grip)
            # prefer the latest of equally close reference steps (idle phases)
            if best is None or d < best - 1e-9:
                best, best_j = d, j
            elif d < best + 1e-9:
                best_j = j
        self._cursor = best_j
        return best_j

    def _base_row(self, x, y, th, tx, ty, tth) -> tuple[float, float, float]:
        """The base increment toward (tx, ty, tth) from (x, y, th). Each bound
        is min(max(e, -m), m) as the two comparisons it makes (see Plant)."""
        ex, ey, eth = relative_floats(tx, ty, tth, x, y, th)
        m = self.MAX_DX
        dx = -m if -m > ex else ex
        dx = m if m < dx else dx
        m = self.MAX_DY
        dy = -m if -m > ey else ey
        dy = m if m < dy else dy
        m = self.MAX_STEER
        steer = self.STEER_GAIN * ey
        steer = -m if -m > steer else steer
        steer = m if m < steer else steer
        m = self.MAX_DTH
        dth = wrap_angle(eth) + steer
        dth = -m if -m > dth else dth
        return dx, dy, m if m < dth else dth

    def _hand_step(self, px, py, pz, qw, qx, qy, qz, target) -> tuple[float, ...]:
        """The bounded hand increment (dp, dq) toward target (px, ..., qz)."""
        tpx, tpy, tpz, tw, tx, ty, tz = target
        ex, ey, ez = tpx - px, tpy - py, tpz - pz
        if ex * ex + ey * ey + ez * ez > self._HAND_STEP_PREFILTER:
            n = norm3_floats(ex, ey, ez)
            if n > self.MAX_HAND_STEP:
                f = self.MAX_HAND_STEP / n
                ex, ey, ez = ex * f, ey * f, ez * f
        # q_err = canonical(target * conj(rot))
        q_err = quat_canonical_floats(*quat_mul_floats(tw, tx, ty, tz, qw, -qx, -qy, -qz))
        # geodesic_so3(identity, q_err) and slerp(identity, q_err, frac) take
        # identity . q_err, which every summation order gives exactly as w
        w = q_err[0]
        ang = geodesic_of_dot(w)
        frac = 1.0 if ang <= self.MAX_HAND_ROT else self.MAX_HAND_ROT / ang
        return ex, ey, ez, *slerp_floats(_IDENTITY_Q, q_err, frac, w)

    def __call__(self, obs: tuple, obs_t: float) -> ActionChunkTensor:
        j = self._match_index(obs)
        last = len(self.ref_base) - 1
        ref_base, ref_hand, ref_grip = self.ref_base, self.ref_hand, self.ref_grip
        state, grip = obs[:10], obs[10]
        dg_max = self.MAX_DGRIP
        relative = self.label_frame == "relative"
        if not relative:
            hand = hand_world_pose(obs)
        rows = []
        rollout = [obs]
        for r in range(DEFAULT_HORIZON):
            k = j + r + 1
            if k > last:
                k = last
            base_row = self._base_row(*state[:3], *ref_base[k])
            if relative:
                hand_row = self._hand_step(*state[3:], ref_hand[k])
            else:
                hand_row = self._hand_step(*hand, ref_hand[k])
                # the hand rule of executor.advance_floats, on the world-frame hand
                hand = hand_increment_floats(*hand, *hand_row)
            # the grip step is bounded as _base_row bounds its steps
            dg = ref_grip[k] - grip
            dg = -dg_max if -dg_max > dg else dg
            grip += dg_max if dg_max < dg else dg
            row = (*base_row, *hand_row, grip)
            rows.append(row)
            state = advance_floats(*state, row)
            rollout.append((*state, grip))
        return ActionChunkTensor(np.array(rows), rollout)


# ---------------------------------------------------------------------------
# Episodes and condition comparisons
# ---------------------------------------------------------------------------

START_RADIUS = 0.10  # m, initial position perturbation
START_HEADING = math.radians(15.0)  # rad, initial heading perturbation
TASK_RADIUS = 0.25  # m, task-frame shift under locomotion variation
TASK_HEADING = 0.35  # rad, task-frame rotation under locomotion variation


def _disk_pose(rng: np.random.Generator, radius: float, heading: float) -> tuple:
    """Uniform position in a radius disk and heading in [-heading, heading],
    as (x, y, theta) with theta wrapped."""
    r = radius * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * math.cos(phi), r * math.sin(phi), wrap_angle(rng.uniform(-heading, heading))


@dataclass
class EpisodeMetrics:
    success: bool
    completion_time: float  # s; time limit when failed
    rollback_count: int
    jitter_count: int
    i_star_mean: float
    i_star_std: float
    tracking_rms: float  # m, base distance from commanded targets
    stages_done: int
    reason: str = ""

    def to_row(self) -> dict:
        return {
            "success": int(self.success),
            "completion_time_s": round(self.completion_time, 3),
            "rollbacks": self.rollback_count,
            "jitter": self.jitter_count,
            "i_star_mean": round(self.i_star_mean, 4),
            "i_star_std": round(self.i_star_std, 4),
            "tracking_rms_m": round(self.tracking_rms, 6),
            "stages_done": self.stages_done,
            "reason": self.reason,
        }


class _StageTracker:
    def __init__(self, goals: list[GoalStage], frame: tuple, dt: float):
        self.goals = goals
        # each stage's base goal in the task frame, placed once per episode
        self.base_goals = [g.base_in(frame) for g in goals]
        self.dt = dt
        self.stage = 0
        self.held = 0.0
        self.done_time = None

    def update(self, t: float, s: tuple) -> bool:
        """Advance on the plant's state s at time t; True once every stage
        has been held."""
        goal = self.goals[self.stage]
        if goal.satisfied(s, self.base_goals[self.stage]):
            self.held += self.dt
            if self.held >= goal.hold_s - 1e-9:
                self.stage += 1
                self.held = 0.0
                if self.stage >= len(self.goals):
                    self.done_time = t
                    return True
        else:
            self.held = 0.0
        return False


def run_episode(
    policy,
    scenario: SimScenario,
    plant_cfg: PlantConfig,
    exec_cfg: ExecutorConfig,
    seed: int,
    task_frame: tuple = ORIGIN,
) -> tuple[EpisodeMetrics, EpisodeLog]:
    """One deterministic virtual-time episode.

    The scenario's start pose (origin of its script, shifted by the task
    frame (x, y, theta)) is perturbed inside a START_RADIUS disk and a
    +-START_HEADING range; hand and grip start as the script does. Goals are
    checked every control tick against the plant's true state and must be
    held for their dwell times in order.
    """
    rng = np.random.default_rng([seed, 0xEA])
    start = compose_floats(*task_frame, *_disk_pose(rng, START_RADIUS, START_HEADING))
    plant = Plant(plant_cfg, (*start, *scenario.script.states_at([0.0])[0, 3:].tolist()))
    exec_cfg = replace(
        exec_cfg, max_ticks=int(round(scenario.time_limit / exec_cfg.dt)), seed=seed
    )
    tracker = _StageTracker(scenario.goals, task_frame, exec_cfg.dt)

    def on_tick(tick, t, pl) -> bool:
        return tracker.update(t, pl.current)

    log = run_executor(policy, plant, exec_cfg, tick_callback=on_tick)

    i_stars = log.i_star_values()
    err_sq = [p["ex"] ** 2 + p["ey"] ** 2 for p in log.payloads("command") if "ex" in p]
    success = tracker.done_time is not None
    return (
        EpisodeMetrics(
            success=success,
            completion_time=tracker.done_time if success else scenario.time_limit,
            rollback_count=log.rollback_count,
            jitter_count=log.jitter_count,
            i_star_mean=float(np.mean(i_stars)) if i_stars else 0.0,
            i_star_std=float(np.std(i_stars)) if i_stars else 0.0,
            tracking_rms=math.sqrt(float(np.mean(err_sq))) if err_sq else 0.0,
            stages_done=tracker.stage,
            reason="" if success else f"timeout at stage {tracker.stage}",
        ),
        log,
    )


@dataclass(frozen=True)
class Condition:
    name: str
    matching: bool = True
    label_frame: str = "relative"
    latency_ms: float = 142.0
    jitter_ms: float = 0.0
    locomotion_variation: bool = False  # per-trial rigid shift of the whole task


def run_condition_trial(
    cond: Condition,
    scenario_name: str,
    trial_seed: int,
    plant_cfg: PlantConfig | None = None,
    make_policy=None,
) -> tuple[EpisodeMetrics, EpisodeLog]:
    """One seeded episode under a condition.

    make_policy(trial_seed) builds the policy; None replays the scenario's
    expert script in the condition's label frame.
    """
    plant_cfg = plant_cfg or PlantConfig()
    scenario = make_scenario(scenario_name)
    frame = ORIGIN
    if cond.locomotion_variation:
        frame = _disk_pose(np.random.default_rng([trial_seed, 0xF0]), TASK_RADIUS, TASK_HEADING)
    if make_policy is None:
        policy = ExpertReplayPolicy(scenario.script, task_frame=frame, label_frame=cond.label_frame)
    else:
        policy = make_policy(trial_seed)
    lat = LatencyConfig.scaled_to(cond.latency_ms / 1000.0)
    lat.jitter_std = cond.jitter_ms / 1000.0
    exec_cfg = ExecutorConfig(
        matching=cond.matching,
        latency=lat,
        plant_response_s=0.0 if plant_cfg.kinematic else plant_cfg.tau_base,
    )
    return run_episode(policy, scenario, plant_cfg, exec_cfg, trial_seed, task_frame=frame)


_ROUNDED_MEANS = ("mean_time_s", "mean_rollbacks", "mean_jitter", "i_star_mean")


def compare_conditions(
    conditions: list[Condition],
    scenario_name: str,
    n_trials: int,
    master_seed: int = 0,
    plant_cfg: PlantConfig | None = None,
    make_policy=None,
) -> tuple[list[dict], dict]:
    """Run the condition matrix; same trial seeds across conditions.

    Returns per-episode rows (CSV-ready) and an aggregate summary keyed by
    condition name: report.aggregate_rows of the rows, means rounded to
    3 decimals. make_policy is passed on to run_condition_trial. Condition
    names must be distinct: they key both the rows and the aggregate.
    """
    names = [c.name for c in conditions]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate condition names in {names}")
    rows = []
    for cond in conditions:
        for trial in range(n_trials):
            trial_seed = int(
                np.random.SeedSequence([master_seed, trial]).generate_state(1)[0]
            )
            m, _ = run_condition_trial(cond, scenario_name, trial_seed, plant_cfg, make_policy)
            row = {"condition": cond.name, "scenario": scenario_name, "trial": trial}
            row.update(m.to_row())
            rows.append(row)
    aggregate = {
        name: {k: round(v, 3) if k in _ROUNDED_MEANS else v for k, v in a.items()}
        for name, a in aggregate_rows(rows).items()
    }
    return rows, aggregate
