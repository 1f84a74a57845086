"""Asynchronous receding-horizon execution with spatial-temporal state matching.

A dispatcher ticks at 10 Hz, feeding waypoints of the active chunk to the
plant, while a planner produces the next chunk in the background conditioned
on a (latency-aged) observation. When a chunk arrives, its kinematic roll-out
from the observation-time state is matched against the robot's current state;
waypoints before the matched index are expired and discarded, so execution
resumes from the spatially aligned point instead of rolling back.

Everything here runs on a virtual clock: planner latency is simulated as a
delayed arrival, command dispatch latency as a delayed effect inside the
plant, so episodes are bit-identical per seed.

State layout: every robot state, from the plant's history and its current
state through observations to roll-out states and waypoint targets, is one
tuple of 11 floats (x, y, theta, px, py, pz, qw, qx, qy, qz, grip): base
pose in the world with theta wrapped to (-pi, pi], chest-relative hand
position and canonical hand quaternion, and gripper aperture. An action row
is a tuple of 11 floats in the same slots, holding increments (see
advance_floats); a chunk's rows run as such from the policy to dispatch.

The float code keeps the bits of the Pose2/Pose3 code it replaced: every
heading is wrapped where a Pose2 constructor wrapped it, and only there;
quaternion dots are geometry's buffer dots, which keep ndarray.dot's BLAS
rounding; transcendentals are math calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .diffusion import DEFAULT_HORIZON, ActionChunkTensor
from .geometry import (
    dist_se2,
    geodesic_so3,
    quat_canonical_floats,
    quat_mul_floats,
    relative_floats,
    wrap_angle,
)

CONTROL_DT = 0.1
EXEC_HORIZON = 8  # T_a: rows executed between plan activations
ROLLBACK_M = 0.005  # m behind the current pose, along heading, that counts as a rollback
JITTER_WINDOW_S = 0.5  # s after a splice in which forward-velocity sign flips count
# largest |entry| of an arriving chunk: sums of squared rows over an episode stay finite
CHUNK_BOUND = 1e100


@dataclass(frozen=True)
class MatchWeights:
    """Weights of the four discrepancy terms; defaults favor base + hand position."""

    w_b: float = 1.0
    w_t: float = 1.0
    w_r: float = 0.2
    w_g: float = 0.1

    def __post_init__(self):
        ws = (self.w_b, self.w_t, self.w_r, self.w_g)
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        if not any(w > 0 for w in ws):
            raise ValueError("at least one weight must be positive")

    def scaled(self, factor: float) -> "MatchWeights":
        return MatchWeights(self.w_b * factor, self.w_t * factor, self.w_r * factor, self.w_g * factor)


class SpliceReport(NamedTuple):
    """The matched index and its discrepancy terms; the splice event's
    payload is these fields, then t0_obs and tick."""

    i_star: int
    discrepancy: float
    term_base: float
    term_trans: float
    term_rot: float
    term_grip: float


class NonFiniteChunkError(ValueError):
    """A policy produced an action chunk with a NaN, infinite or out-of-range entry."""


def hand_increment_floats(
    px, py, pz, qw, qx, qy, qz, ex, ey, ez, dw, dqx, dqy, dqz
) -> tuple[float, ...]:
    """The hand rule of advance_floats: the position adds (ex, ey, ez), the
    quaternion is left-multiplied by (dw, dqx, dqy, dqz) and canonicalised.
    Returns (px, py, pz, qw, qx, qy, qz)."""
    return (
        px + ex,
        py + ey,
        pz + ez,
        *quat_canonical_floats(*quat_mul_floats(dw, dqx, dqy, dqz, qw, qx, qy, qz)),
    )


def advance_floats(x, y, th, px, py, pz, qw, qx, qy, qz, row) -> tuple[float, ...]:
    """Apply one action row (a sequence) to the first ten floats of a state;
    returns them, the only row integrator. The base increment composes in the
    current base frame, wrapping the row's heading increment and the composed
    heading as the Pose2 constructor did; the hand follows
    hand_increment_floats. The grip channel row[10] is absolute and left to
    the caller.
    """
    dx, dy, dth = row[0], row[1], row[2]
    c, s = math.cos(th), math.sin(th)
    return (
        x + c * dx - s * dy,
        y + s * dx + c * dy,
        wrap_angle(th + wrap_angle(dth)),
        *hand_increment_floats(px, py, pz, qw, qx, qy, qz, *row[3:10]),
    )


def forward_rollout(s0: tuple, chunk: ActionChunkTensor) -> list[tuple]:
    """Kinematic roll-out: geometric integration of the chunk, no dynamics.

    rollout[i] is the state after applying the first i action rows to s0, for
    i = 0..T_p, so the roll-out holds T_p + 1 states; rollout[0] is s0. A
    chunk that carries a roll-out from s0 itself (the same object) returns a
    copy of it, which has the bits the integration would give.
    """
    if chunk.rollout is not None and chunk.rollout[0] is s0:
        return list(chunk.rollout)
    s = s0
    states = [s]
    for row in chunk.rows:
        s = (*advance_floats(*s[:10], row), row[10])
        states.append(s)
    return states


def state_match(rollout: list[tuple], now: tuple, w: MatchWeights | None = None) -> SpliceReport:
    """Index of the roll-out state closest to the current physical state.

    The discrepancy of candidate s is w_b * dist_se2(s, now)^2
    + w_t * |hand position error|^2 + w_r * geodesic_so3(s, now)^2
    + w_g * (grip error)^2. Ties break toward the smaller index so less of
    the plan is discarded.
    """
    if not rollout:
        raise ValueError("empty rollout")
    w = w or MatchWeights()
    q_now = now[6:10]
    _, _, _, px, py, pz, _, _, _, _, grip = now
    best = None
    for i, s in enumerate(rollout):
        tb = w.w_b * dist_se2(s, now) ** 2
        # np.sum of three squares adds them left to right
        d0, d1, d2 = s[3] - px, s[4] - py, s[5] - pz
        tt = w.w_t * (d0 * d0 + d1 * d1 + d2 * d2)
        tr = w.w_r * geodesic_so3(s[6:10], q_now) ** 2
        tg = w.w_g * (s[10] - grip) ** 2
        total = tb + tt + tr + tg
        if best is None or total < best[1]:
            best = (i, total, tb, tt, tr, tg)
    return SpliceReport(*best)


class Waypoint(NamedTuple):
    """One dispatchable target: chunk row index, target state, chunk row (a
    tuple of 11 floats)."""

    index: int
    target: tuple
    row: tuple


def splice(
    chunk: ActionChunkTensor, rollout: list[tuple], i_star: int
) -> tuple[list[Waypoint], bool]:
    """Waypoints from i_star onward, row i targeting rollout[i + 1]; the flag
    requests an immediate replan when only the degenerate tail remains."""
    T_p = chunk.horizon
    if not 0 <= i_star < T_p:
        raise ValueError(f"i_star {i_star} out of range [0, {T_p})")
    waypoints = [Waypoint(i, rollout[i + 1], chunk.rows[i]) for i in range(i_star, T_p)]
    return waypoints, i_star == T_p - 1


@dataclass
class LatencyConfig:
    """End-to-end latency budget: observation age, planning, command dispatch [s].

    jitter_std (sigma) jitters two legs: each plan draws N(0, sigma / 3) for
    d_in and for d_net and clips each draw at 0, so jitter only adds latency,
    on average 2 sigma / (3 sqrt(2 pi)) ~ 0.266 sigma with standard deviation
    (sigma / 3) sqrt(1 - 1 / pi) ~ 0.275 sigma. d_exe gets no jitter.
    """

    d_in: float = 0.033
    d_net: float = 0.087
    d_exe: float = 0.022
    jitter_std: float = 0.0

    def __post_init__(self):
        if min(self.d_in, self.d_net, self.d_exe) < 0:
            raise ValueError("delays must be nonnegative")

    @property
    def total(self) -> float:
        return self.d_in + self.d_net + self.d_exe

    @staticmethod
    def scaled_to(total: float) -> "LatencyConfig":
        """Default 33/87/22 ms split rescaled to a new total latency."""
        base = LatencyConfig()
        f = total / base.total
        return LatencyConfig(base.d_in * f, base.d_net * f, base.d_exe * f)


@dataclass
class ExecutorConfig:
    matching: bool = True
    weights: MatchWeights = field(default_factory=MatchWeights)
    horizon: ClassVar[int] = DEFAULT_HORIZON  # T_p
    dt: ClassVar[float] = CONTROL_DT
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    max_ticks: int = 1200
    seed: int = 0
    # plant motor time constant as seen by the dispatcher; lowers the
    # position-correction gain to dt / (dt + tau) so the loop stays damped on
    # a lagged plant (0 = deadbeat, for kinematic plants)
    plant_response_s: float = 0.0


@dataclass
class PlantCommand:
    """One control-tick command: base twist plus hand and grip targets.

    hand_target is (px, py, pz, qw, qx, qy, qz) with a canonical quaternion.
    """

    v: float
    v_lat: float
    omega: float
    hand_target: tuple
    grip_target: float


@dataclass
class EpisodeLog:
    """The event stream of one episode, the only record the loop keeps.

    splices, rollback_count, jitter_count and i_star_values() are read-only
    views of the events.
    """

    events: list[dict] = field(default_factory=list)

    def add(self, tick: int, t: float, kind: str, payload: dict):
        self.events.append({"tick": tick, "t": round(t, 6), "kind": kind, "payload": payload})

    def payloads(self, kind: str) -> list[dict]:
        return [e["payload"] for e in self.events if e["kind"] == kind]

    @property
    def splices(self) -> list[dict]:
        """The payload of every splice event, in order: SpliceReport's
        fields, then t0_obs and tick."""
        return self.payloads("splice")

    @property
    def rollback_count(self) -> int:
        return len(self.payloads("rollback"))

    @property
    def jitter_count(self) -> int:
        return len(self.payloads("jitter"))

    def i_star_values(self) -> list[int]:
        return [s["i_star"] for s in self.splices]


def command_to_target(
    now: tuple, wp: Waypoint, dt: float, gain: float = 1.0
) -> tuple[PlantCommand, float, float]:
    """Command toward a waypoint: action-row feedforward plus error correction.

    now is the plant's current state. Returns the command and the target's
    position (ex, ey) in the current base frame, which the rollback check
    reads. gain = 1 is deadbeat (kinematic plants); on a lagged plant the
    caller lowers it to dt / (dt + tau) so the position loop stays damped
    while the feedforward keeps steady-state tracking exact.
    """
    target, row = wp.target, wp.row
    ex, ey, eth = relative_floats(*target[:3], now[0], now[1], now[2])
    cmd = PlantCommand(
        v=(row[0] + gain * (ex - row[0])) / dt,
        v_lat=(row[1] + gain * (ey - row[1])) / dt,
        omega=(row[2] + gain * (wrap_angle(eth) - row[2])) / dt,
        hand_target=_hand_target(target),
        grip_target=target[10],
    )
    return cmd, ex, ey


def _hand_target(s: tuple) -> tuple:
    """The hand of state s as a PlantCommand hand target; the quaternion is
    canonicalised again, as the Pose3 constructor of the hand target did."""
    return (*s[3:6], *quat_canonical_floats(*s[6:10]))


def _advance_by_latency(s: tuple, v: float, omega: float, d_exe: float) -> tuple:
    """State s with the base moved to where it will be when a command issued
    now takes effect."""
    x, y, th = s[:3]
    return (
        x + v * math.cos(th) * d_exe,
        y + v * math.sin(th) * d_exe,
        wrap_angle(th + omega * d_exe),
        *s[3:],
    )


def run_executor(policy, plant, config: ExecutorConfig, tick_callback=None) -> EpisodeLog:
    """Drive the plant with chunks from the policy on a virtual clock.

    policy(obs_state, obs_t) -> ActionChunkTensor of the configured horizon.
    plant must expose step_to(t), state_at(t) and current (states),
    issue_command(cmd, t_effect) and the floats v and omega.
    tick_callback(tick, t, plant) is called once per tick; a true result ends
    the episode.

    Exactly one plan may be pending. A new plan is activated (matched and
    spliced) at the first tick boundary at or after its arrival, and its
    plan_arrival event is logged at that tick. The next request is scheduled
    so the arrival lands T_a ticks after the previous activation. With
    matching disabled, execution restarts from row 0 of every arriving chunk.
    An arriving chunk with a NaN or infinite entry, or one beyond CHUNK_BOUND,
    raises NonFiniteChunkError before any of its rows is matched or dispatched.

    A tick builds no pose objects. Event payloads round the same values by
    the same rule as the pose-object code did and keep its key order.
    """
    lat = config.latency
    dt = config.dt
    gain = dt / (dt + config.plant_response_s)
    rng = np.random.default_rng(config.seed)
    log = EpisodeLog()

    pending = None  # (arrival_time, chunk, obs_state, obs_t)
    request_tick = 0
    waypoints: list[Waypoint] = []
    wp_cursor = 0
    last_splice_tick = None
    prev_v_sign = 0
    chunk_net_forward = 0.0

    def jitter():
        if lat.jitter_std <= 0:
            return 0.0
        # one draw per jittered leg (d_in, d_net); callers clip it at 0
        return float(rng.normal(0.0, lat.jitter_std / 3.0))

    for tick in range(config.max_ticks):
        t = tick * dt
        plant.step_to(t)

        # planner request (one in flight at a time); runs before arrival
        # handling so a zero-latency plan activates on the same tick
        if pending is None and tick >= request_tick:
            obs_t = max(t - (lat.d_in + max(0.0, jitter())), 0.0)
            obs_state = plant.state_at(obs_t)
            chunk = policy(obs_state, obs_t)
            if chunk.horizon != config.horizon:
                raise ValueError(
                    f"policy produced horizon {chunk.horizon}, expected {config.horizon}"
                )
            arrival = t + lat.d_net + max(0.0, jitter())
            pending = (arrival, chunk, obs_state, obs_t)
            log.add(tick, t, "plan_request", {"obs_t": round(obs_t, 6)})
            request_tick = config.max_ticks  # re-armed at next activation

        # plan arrival -> match + splice at this tick boundary
        if pending is not None and pending[0] <= t + 1e-9:
            arrival, chunk, obs_state, obs_t = pending
            pending = None
            if not all(-CHUNK_BOUND <= v <= CHUNK_BOUND for row in chunk.rows for v in row):  # false for NaN
                raise NonFiniteChunkError(
                    "policy chunk has a non-finite or out-of-range entry "
                    f"(trial seed {config.seed}, tick {tick})"
                )
            log.add(tick, t, "plan_arrival", {"t_arrival": round(arrival, 6)})
            rollout = forward_rollout(obs_state, chunk)
            now_eff = _advance_by_latency(plant.current, plant.v, plant.omega, lat.d_exe)
            # without matching, row 0 is the only candidate
            candidates = rollout[:-1] if config.matching else rollout[:1]
            report = state_match(candidates, now_eff, config.weights)
            waypoints, replan_now = splice(chunk, rollout, report.i_star)
            wp_cursor = 0
            chunk_net_forward = sum(row[0] for row in chunk.rows)
            log.add(tick, t, "splice", {**report._asdict(), "t0_obs": obs_t, "tick": tick})
            last_splice_tick = tick
            prev_v_sign = 0
            if replan_now:
                request_tick = tick
            else:
                request_tick = tick + max(0, EXEC_HORIZON - math.ceil(lat.d_net / dt - 1e-9))

        # startup grace: the plant is left alone until the first chunk arrives
        if last_splice_tick is not None:
            # dispatch; an empty queue means hold-in-place
            tracking = {}
            if wp_cursor < len(waypoints):
                wp = waypoints[wp_cursor]
                wp_cursor += 1
                cmd, ex, ey = command_to_target(plant.current, wp, dt, gain)
                # rollback: executed waypoint behind the current pose along heading
                tracking = {"ex": round(ex, 9), "ey": round(ey, 9), "row": wp.index}
                if ex < -ROLLBACK_M and chunk_net_forward > 1e-6:
                    log.add(tick, t, "rollback", {"behind_m": round(-ex, 6), "row": wp.index})
            else:
                s = plant.current
                cmd = PlantCommand(0.0, 0.0, 0.0, _hand_target(s), s[10])
            plant.issue_command(cmd, t + lat.d_exe)
            v, v_lat, omega = float(cmd.v), float(cmd.v_lat), float(cmd.omega)
            command = {"v": round(v, 9), "v_lat": round(v_lat, 9), "omega": round(omega, 9), **tracking}
            log.add(tick, t, "command", command)

            # splice jitter: forward-velocity sign reversals shortly after a splice
            sign = 0 if abs(v) < 0.02 else (1 if v > 0 else -1)
            if (tick - last_splice_tick) * dt <= JITTER_WINDOW_S + 1e-9:
                if sign != 0 and prev_v_sign != 0 and sign != prev_v_sign:
                    log.add(tick, t, "jitter", {"v": round(v, 6)})
            if sign != 0:
                prev_v_sign = sign

        if tick_callback is not None and tick_callback(tick, t, plant):
            break

    return log
