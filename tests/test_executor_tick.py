"""The float executor tick gives the bits of the pose-object code it replaced.

The reference functions below are copies of the executor's roll-out, match,
splice, dispatch and latency projection and of the goal check as they were
when they built state objects (_RefState here), Pose2 and Pose3 objects on
every tick. The tests compare them with the float code by float.hex and
tobytes, on the cases that episodes rarely reach: headings at and near +-pi,
a waypoint at the rollback threshold, exact ties in the match, antipodal and
w = 0 quaternions, grips on the goal thresholds, matching off and a match on
the last row.
"""
import dataclasses
import math
from typing import NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import mobman.executor as executor
from mobman.diffusion import ActionChunkTensor
from mobman.executor import (
    ROLLBACK_M,
    ExecutorConfig,
    LatencyConfig,
    MatchWeights,
    PlantCommand,
    Waypoint,
    _advance_by_latency,
    advance_floats,
    command_to_target,
    forward_rollout,
    splice,
    state_match,
)
from mobman.geometry import Pose2, Pose3, quat_canonical, relative_floats, wrap_angle
from mobman.sim import CruisePolicy, GoalStage, GRASP_POSE, Plant, PlantConfig

import se2_reference as se2

PI = math.pi
# headings at and next to the wrap point, and ordinary ones
EDGE_HEADINGS = [
    PI,
    -PI,
    math.nextafter(PI, 0.0),
    math.nextafter(-PI, 0.0),
    PI - 1e-12,
    -PI + 1e-12,
    0.0,
    -0.0,
    PI / 2,
    -PI / 2,
]


# ---------------------------------------------------------------------------
# Reference implementations: the pose-object executor tick and goal check
# ---------------------------------------------------------------------------


class _RefState(NamedTuple):
    """The state record of the reference code: a Pose2 base, the hand as
    position and quaternion arrays, and the grip."""

    base: Pose2
    hand_pos: np.ndarray
    hand_rot: np.ndarray
    grip: float


def _ref_floats(s):
    return (s.base.x, s.base.y, s.base.theta, *s.hand_pos.tolist(), *s.hand_rot.tolist())


def _ref_state(f, grip):
    base = Pose2.of_wrapped(f[0], f[1], f[2])
    return _RefState(base, np.array(f[3:6]), np.array(f[6:10]), grip)


def _ref_forward_rollout(s0, chunk):
    states = [s0]
    f = _ref_floats(s0)
    for row in chunk.rows:
        f = advance_floats(*f, row)
        states.append(_ref_state(f, row[10]))
    return states


def _ref_dist_se2(a, b):
    dth = wrap_angle(b.theta - a.theta)
    return math.sqrt((b.x - a.x) ** 2 + (b.y - a.y) ** 2 + (0.5 * dth) ** 2)


def _ref_geodesic_so3(r0, r1):
    dot = abs(float(np.dot(np.asarray(r0, dtype=float), np.asarray(r1, dtype=float))))
    dot = min(dot, 1.0)
    return 2.0 * math.acos(dot)


def _ref_state_discrepancy(a, b, w):
    tb = w.w_b * _ref_dist_se2(a.base, b.base) ** 2
    tt = w.w_t * float(np.sum((a.hand_pos - b.hand_pos) ** 2))
    tr = w.w_r * _ref_geodesic_so3(a.hand_rot, b.hand_rot) ** 2
    tg = w.w_g * (a.grip - b.grip) ** 2
    return tb + tt + tr + tg, tb, tt, tr, tg


def _ref_state_match(rollout, now, w):
    best = None
    for i, s in enumerate(rollout):
        total, tb, tt, tr, tg = _ref_state_discrepancy(s, now, w)
        if best is None or total < best[0]:
            best = (total, i, tb, tt, tr, tg)
    total, i_star, tb, tt, tr, tg = best
    return {
        "i_star": i_star,
        "discrepancy": total,
        "term_base": tb,
        "term_trans": tt,
        "term_rot": tr,
        "term_grip": tg,
    }


def _ref_splice(chunk, rollout, i_star):
    T_p, values = chunk.horizon, np.array(chunk.rows)
    return [(i, rollout[i + 1], values[i]) for i in range(i_star, T_p)], i_star == T_p - 1


def _ref_command_to_target(now, target, row, dt, gain=1.0):
    rel = se2.relative_to(target.base, now.base)
    cmd = PlantCommand(
        v=(row[0] + gain * (rel.x - row[0])) / dt,
        v_lat=(row[1] + gain * (rel.y - row[1])) / dt,
        omega=(row[2] + gain * (wrap_angle(rel.theta) - row[2])) / dt,
        hand_target=Pose3(target.hand_rot, target.hand_pos),
        grip_target=target.grip,
    )
    return cmd, rel


def _ref_advance_by_latency(state, v, omega, d_exe):
    th = state.base.theta
    return _RefState(
        base=Pose2(
            state.base.x + v * math.cos(th) * d_exe,
            state.base.y + v * math.sin(th) * d_exe,
            th + omega * d_exe,
        ),
        hand_pos=state.hand_pos,
        hand_rot=state.hand_rot,
        grip=state.grip,
    )


def _ref_satisfied(goal, state, frame):
    if goal.base is not None:
        x, y, th, pos_tol, ang_tol = goal.base
        g = se2.compose(frame, Pose2(x, y, th))
        if math.hypot(state.base.x - g.x, state.base.y - g.y) > pos_tol:
            return False
        if abs(wrap_angle(state.base.theta - g.theta)) > ang_tol:
            return False
    if goal.hand is not None:
        pos, tol = goal.hand
        if float(np.linalg.norm(state.hand_pos - np.asarray(pos))) > tol:
            return False
    if goal.grip is not None:
        op, thr = goal.grip
        if op == "<=" and not state.grip <= thr:
            return False
        if op == ">=" and not state.grip >= thr:
            return False
    return True


# ---------------------------------------------------------------------------
# Bits of both forms
# ---------------------------------------------------------------------------


def _hex(*xs) -> list[str]:
    return [float.hex(float(x)) for x in xs]


def _state_bits(s: _RefState) -> tuple:
    b = s.base
    return (*_hex(b.x, b.y, b.theta, s.grip), s.hand_pos.tobytes(), s.hand_rot.tobytes())


def _tuple_bits(s: tuple) -> tuple:
    return (*_hex(s[0], s[1], s[2], s[10]), np.array(s[3:6]).tobytes(), np.array(s[6:10]).tobytes())


def _tuple(s: _RefState) -> tuple:
    """The state (x, y, theta, px, py, pz, qw, qx, qy, qz, grip) of s."""
    b = s.base
    return (b.x, b.y, b.theta, *s.hand_pos.tolist(), *s.hand_rot.tolist(), s.grip)


def _payload_bits(d: dict) -> list:
    return [(k, float.hex(v) if isinstance(v, float) else v) for k, v in d.items()]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_heading = st.one_of(st.sampled_from(EDGE_HEADINGS), st.floats(-PI, PI))
_quat_kind = st.sampled_from(["random", "w0", "w0_axis", "identity"])


def _quat(rng, kind) -> np.ndarray:
    if kind == "identity":
        return np.array([1.0, 0.0, 0.0, 0.0])
    if kind == "w0_axis":
        return quat_canonical(np.array([0.0, 0.0, -1.0, 0.0]))
    q = rng.normal(size=4)
    if kind == "w0":
        q[0] = 0.0
    return quat_canonical(q)


def _state(rng, th, kind, grip=None) -> _RefState:
    """A plant-like state: wrapped heading, canonical quaternion array."""
    return _RefState(
        Pose2(*rng.normal(scale=0.5, size=2), th),
        rng.normal(scale=0.3, size=3),
        _quat(rng, kind),
        float(rng.uniform()) if grip is None else grip,
    )


def _chunk(rng, kind, horizon=16) -> ActionChunkTensor:
    rows = rng.normal(scale=0.05, size=(horizon, 11))
    rows[:, 6] += 1.0
    if kind == "still":
        # every row a hold: the states after the first are equal and tie
        rows[:] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.5]
    elif kind == "turn":
        rows[:, 2] = rng.choice(EDGE_HEADINGS, size=horizon)
    elif kind == "w0":
        rows[:, 6] = 0.0
    return ActionChunkTensor(tuple(map(tuple, rows.tolist())))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestTickMatchesPoseCode:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        _heading,
        _heading,
        _quat_kind,
        _quat_kind,
        st.sampled_from(["random", "still", "turn", "w0"]),
        st.booleans(),
        st.sampled_from(["random", "at_rollout", "antipodal"]),
    )
    def test_rollout_match_and_splice(self, seed, th_obs, th_now, q_obs, q_now, rows, matching, where):
        rng = np.random.default_rng(seed)
        obs = _state(rng, th_obs, q_obs)
        chunk = _chunk(rng, rows)
        ref_roll = _ref_forward_rollout(obs, chunk)
        roll = forward_rollout(_tuple(obs), chunk)
        assert [_tuple_bits(s) for s in roll] == [_state_bits(s) for s in ref_roll]

        now = _state(rng, th_now, q_now)
        if where != "random":
            # the robot exactly on a roll-out state (a tie with its duplicates
            # for a still chunk), or there with the quaternion's sign flipped
            k = int(rng.integers(len(ref_roll)))
            s = ref_roll[k]
            rot = -s.hand_rot if where == "antipodal" else s.hand_rot
            now = _RefState(s.base, s.hand_pos.copy(), rot.copy(), s.grip)
        v, omega, d_exe = rng.normal(scale=0.3), rng.normal(scale=0.5), rng.uniform(0.0, 0.05)
        ref_now = _ref_advance_by_latency(now, v, omega, d_exe)
        now_eff = _advance_by_latency(_tuple(now), v, omega, d_exe)
        assert _tuple_bits(now_eff) == _state_bits(ref_now)

        w = MatchWeights() if rng.uniform() < 0.5 else MatchWeights(*rng.uniform(0.0, 2.0, size=4))
        cut = slice(None, -1) if matching else slice(None, 1)
        ref = _ref_state_match(ref_roll[cut], ref_now, w)
        got = state_match(roll[cut], now_eff, w)._asdict()
        assert _payload_bits(got) == _payload_bits(ref)
        if not matching:
            assert got["i_star"] == 0

        for i_star in sorted({got["i_star"], chunk.horizon - 1}):
            ref_wps, ref_replan = _ref_splice(chunk, ref_roll, i_star)
            wps, replan = splice(chunk, roll, i_star)
            assert replan == ref_replan == (i_star == chunk.horizon - 1)
            assert [w.index for w in wps] == [i for i, _, _ in ref_wps]
            for wp, (_, target, row) in zip(wps, ref_wps):
                assert _tuple_bits(wp.target) == _state_bits(target)
                # the row as 11 Python floats, with the chunk row's bits
                assert type(wp.row) is tuple and all(type(x) is float for x in wp.row)
                assert np.array(wp.row).tobytes() == row.tobytes()

    def test_ties_pick_the_smaller_index(self):
        # hold rows: every state after the first row is the same, so each of
        # them ties with the robot standing on the fifth
        rng = np.random.default_rng(3)
        obs = _state(rng, 0.3, "random")
        chunk = _chunk(rng, "still")
        roll = forward_rollout(_tuple(obs), chunk)
        assert len(set(roll[1:])) == 1 and roll[0] != roll[1]
        report = state_match(roll, roll[5])
        assert report.i_star == 1 and report.discrepancy == 0.0
        ref_roll = _ref_forward_rollout(obs, chunk)
        assert _ref_state_match(ref_roll, ref_roll[5], MatchWeights())["i_star"] == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        _heading,
        _heading,
        _quat_kind,
        st.sampled_from(["random", "rollback", "origin_rollback"]),
        st.sampled_from([1.0, 0.4, 0.1 / (0.1 + 0.15)]),
    )
    def test_dispatch(self, seed, th_now, th_rel, q_kind, where, gain):
        rng = np.random.default_rng(seed)
        now = _state(rng, th_now, "random")
        ulp = math.ulp(ROLLBACK_M)
        if where == "random":
            rel = Pose2(*rng.normal(scale=0.1, size=2), th_rel)
        else:
            # a target at, or one or two ulps around, the rollback distance
            # behind the robot along its heading
            rel = Pose2(-ROLLBACK_M + int(rng.integers(-2, 3)) * ulp, rng.normal(scale=1e-3), th_rel)
        if where == "origin_rollback":
            # from the origin at heading 0 the relative pose is exact
            now = _RefState(Pose2(), now.hand_pos, now.hand_rot, now.grip)
        b = se2.compose(now.base, rel)
        target = _RefState(
            Pose2.of_wrapped(b.x, b.y, b.theta),
            rng.normal(scale=0.3, size=3),
            _quat(rng, q_kind),
            float(rng.uniform()),
        )
        row = np.concatenate([rng.normal(scale=0.05, size=10), [target.grip]])
        ref_cmd, ref_rel = _ref_command_to_target(now, target, row, 0.1, gain)
        wp = Waypoint(7, _tuple(target), row)
        cmd, ex, ey = command_to_target(_tuple(now), wp, 0.1, gain)
        assert _hex(cmd.v, cmd.v_lat, cmd.omega, cmd.grip_target) == _hex(
            ref_cmd.v, ref_cmd.v_lat, ref_cmd.omega, ref_cmd.grip_target
        )
        # numpy scalars, as the chunk row's entries made them: their round()
        # is numpy's, which can differ from Python's on a near-tie
        assert [type(x) for x in (cmd.v, cmd.v_lat, cmd.omega)] == [
            type(x) for x in (ref_cmd.v, ref_cmd.v_lat, ref_cmd.omega)
        ]
        assert np.array(cmd.hand_target[3:]).tobytes() == ref_cmd.hand_target.rotation.tobytes()
        assert np.array(cmd.hand_target[:3]).tobytes() == ref_cmd.hand_target.translation.tobytes()
        assert _hex(ex, ey) == _hex(ref_rel.x, ref_rel.y)
        assert (ex < -ROLLBACK_M) == (ref_rel.x < -ROLLBACK_M)
        # splice hands the row over as floats, and the plant's states are
        # floats: the same command bits, as Python floats
        float_now, float_target = (tuple(map(float, _tuple(x))) for x in (now, target))
        float_cmd, float_ex, float_ey = command_to_target(
            float_now, Waypoint(7, float_target, row.tolist()), 0.1, gain
        )
        fields = ("v", "v_lat", "omega", "grip_target")
        got = [getattr(float_cmd, f) for f in fields]
        assert all(type(x) is float for x in got)
        assert _hex(*got, float_ex, float_ey) == _hex(*(getattr(cmd, f) for f in fields), ex, ey)
        assert float_cmd.hand_target == cmd.hand_target
        assert np.array(float_cmd.hand_target).tobytes() == np.array(cmd.hand_target).tobytes()
        # the command event's payload: the same round() calls on the same values
        payload = {"v": round(cmd.v, 9), "v_lat": round(cmd.v_lat, 9), "omega": round(cmd.omega, 9),
                   "ex": round(ex, 9), "ey": round(ey, 9)}
        ref_payload = {"v": round(ref_cmd.v, 9), "v_lat": round(ref_cmd.v_lat, 9),
                       "omega": round(ref_cmd.omega, 9), "ex": round(ref_rel.x, 9), "ey": round(ref_rel.y, 9)}
        assert _payload_bits(payload) == _payload_bits(ref_payload)

    @settings(max_examples=300, deadline=None)
    @given(_heading, _heading, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_relative_floats_is_relative_to(self, th, rth, x, y, rx, ry):
        a, r = Pose2(x, y, th), Pose2(rx, ry, rth)
        want = se2.relative_to(a, r)
        assert _hex(*relative_floats(a.x, a.y, a.theta, r.x, r.y, r.theta)) == _hex(want.x, want.y, want.theta)


_GRIP_EDGES = [0.15, 0.8, math.nextafter(0.15, 0.0), math.nextafter(0.15, 1.0),
               math.nextafter(0.8, 0.0), math.nextafter(0.8, 1.0), 0.0, 1.0]


class TestGoalCheckMatchesPoseCode:
    GOALS = [
        GoalStage("arrive", base=(1.5, 0.0, 0.0, 0.06, 0.15)),
        GoalStage("turned", base=(1.0, 0.8, PI / 2.0, 0.06, 0.15)),
        GoalStage("back", base=(1.2, -1.0, -PI, 0.06, 0.15)),
        GoalStage("reach", hand=(GRASP_POSE.translation, 0.05)),
        GoalStage("grasp", hand=(GRASP_POSE.translation, 0.05), grip=("<=", 0.15)),
        GoalStage("release", grip=(">=", 0.8)),
    ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, len(GOALS) - 1),
        _heading,
        st.one_of(st.sampled_from(_GRIP_EDGES), st.floats(0.0, 1.0)),
        st.sampled_from(["near", "far", "edge"]),
        st.booleans(),
    )
    def test_satisfied(self, seed, gi, frame_th, grip, where, shifted):
        rng = np.random.default_rng(seed)
        goal = self.GOALS[gi]
        frame = Pose2(*rng.normal(scale=0.3, size=2), frame_th) if shifted else Pose2()
        x, y, th = goal.base[:3] if goal.base else (0.0, 0.0, 0.0)
        g = se2.compose(frame, Pose2(x, y, th))
        scale = {"near": 0.03, "far": 0.5, "edge": 0.06}[where]
        if where == "edge":
            # on the position tolerance circle, headings on the angle tolerance
            phi = rng.uniform(0.0, 2 * PI)
            bx, by = g.x + scale * math.cos(phi), g.y + scale * math.sin(phi)
            bth = g.theta + rng.choice([-0.15, 0.15, 0.0])
        else:
            bx, by = g.x + rng.normal(scale=scale), g.y + rng.normal(scale=scale)
            bth = g.theta + rng.normal(scale=0.1)
        hand = GRASP_POSE.translation + rng.normal(scale=scale, size=3)
        state = _RefState(Pose2(bx, by, bth), hand, _quat(rng, "random"), grip)
        want = _ref_satisfied(goal, state, frame)
        assert goal.satisfied(_tuple(state), goal.base_in((frame.x, frame.y, frame.theta))) == want


class TestCommandPayload:
    def test_velocities_round_as_python_floats(self, monkeypatch):
        # velocities one half unit past the 9th decimal, near-ties on which
        # numpy's round (multiply, rint, divide) and Python's correctly
        # rounded round() disagree; the event takes Python's, as it does for
        # its other floats
        ties = [np.float64((k + 0.5) / 1e9) for k in (12345, -678901, 2500001, 31, -4)]
        assert any(round(x, 9) != round(float(x), 9) for x in ties)
        command_to_target_ = executor.command_to_target
        sent = []

        def tie_command(now, wp, dt, gain=1.0):
            cmd, ex, ey = command_to_target_(now, wp, dt, gain)
            v = ties[len(sent) % len(ties)]
            sent.append(v)
            return dataclasses.replace(cmd, v=v, v_lat=-v, omega=v * 3), ex, ey

        monkeypatch.setattr(executor, "command_to_target", tie_command)
        cfg = ExecutorConfig(latency=LatencyConfig(0.0, 0.0, 0.0), max_ticks=12)
        log = executor.run_executor(CruisePolicy(), Plant(PlantConfig(kinematic=True)), cfg)
        payloads = [p for p in log.payloads("command") if "row" in p]
        assert len(payloads) == len(sent) > 0
        for p, v in zip(payloads, sent):
            assert _hex(p["v"], p["v_lat"], p["omega"]) == _hex(
                round(float(v), 9), round(float(-v), 9), round(float(v * 3), 9)
            )

    def test_jitter_velocity_rounds_as_python_float(self, monkeypatch):
        # forward velocities of alternating sign, each one half unit past the
        # 6th decimal, so that dispatches inside the jitter window log jitter
        # events; on these near-ties numpy's round and Python's disagree, and
        # the jitter event takes Python's, as the command event does
        ties = [
            np.float64(s * (k + 0.5) / 1e6)
            for s, k in ((1, 123456), (-1, 67890), (1, 250001), (-1, 31415))
        ]
        command_to_target_ = executor.command_to_target
        sent = []

        def tie_command(now, wp, dt, gain=1.0):
            cmd, ex, ey = command_to_target_(now, wp, dt, gain)
            sent.append(ties[len(sent) % len(ties)])
            return dataclasses.replace(cmd, v=sent[-1]), ex, ey

        monkeypatch.setattr(executor, "command_to_target", tie_command)
        cfg = ExecutorConfig(latency=LatencyConfig(0.0, 0.0, 0.0), max_ticks=12)
        log = executor.run_executor(CruisePolicy(), Plant(PlantConfig(kinematic=True)), cfg)
        ticks = [e["tick"] for e in log.events if e["kind"] == "command" and "row" in e["payload"]]
        v_at = dict(zip(ticks, sent, strict=True))
        jitters = [(v_at[e["tick"]], e["payload"]["v"]) for e in log.events if e["kind"] == "jitter"]
        assert any(round(v, 6) != round(float(v), 6) for v, _ in jitters)
        for v, logged in jitters:
            assert _hex(logged) == _hex(round(float(v), 6))


class TestSummationOrder:
    def test_sum_of_three_squares_is_left_to_right(self):
        # float(np.sum(d ** 2)) over three numbers, which the match's hand
        # position term replaces, adds the squares left to right
        rng = np.random.default_rng(0)
        other_order_differs = 0
        for d in rng.normal(scale=rng.choice([1e-3, 0.1, 1.0]), size=(20000, 3)):
            d0, d1, d2 = d.tolist()
            got = float(np.sum(d ** 2))
            assert got.hex() == (d0 * d0 + d1 * d1 + d2 * d2).hex()
            other_order_differs += got != d0 * d0 + (d1 * d1 + d2 * d2)
        # and the order matters: the right-to-left sum differs on some triples
        assert other_order_differs > 0

    def test_vector_norm_is_sqrt_of_dot(self):
        rng = np.random.default_rng(1)
        for e in rng.normal(scale=0.05, size=(5000, 3)):
            assert float(np.linalg.norm(e)).hex() == math.sqrt(e.dot(e)).hex()
