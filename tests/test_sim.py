import bisect
import dataclasses
import hashlib
import math
import struct
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobman.sim as sim
from mobman.diffusion import DEFAULT_HORIZON, ActionChunkTensor
from mobman.executor import (
    CONTROL_DT,
    ExecutorConfig,
    PlantCommand,
    advance_floats,
    forward_rollout,
    run_executor,
)
from mobman.geometry import (
    Pose2,
    Pose3,
    compose_floats,
    geodesic_of_dot,
    quat_canonical,
    quat_canonical_floats,
    quat_canonical_rows,
    quat_from_axis_angle,
    quat_mul_floats,
    slerp,
    slerp_floats,
    wrap_angle,
)
from mobman.sim import (
    ARM_REACH,
    Condition,
    ExpertReplayPolicy,
    GRASP_POSE,
    Plant,
    PlantConfig,
    REST_STATE,
    SCENARIO_NAMES,
    compare_conditions,
    hand_world_pose,
    make_scenario,
    run_condition_trial,
    run_episode,
    scripted_expert,
    save_expert_session,
)

import pose3_reference as pose3_ref
import se2_reference as se2

IDENT_Q = np.array([1.0, 0.0, 0.0, 0.0])

# compare_conditions rows of the 2x2 matching x label-frame matrix (18 ms
# jitter, locomotion variation, one trial, master seed 0), recorded before
# the plant and replay policy were rewritten for speed. Fixed-seed outputs
# must stay byte-identical, so these are compared exactly.
GOLDEN_MATRIX_ROWS = [
    {"condition": "match_on_label_relative", "scenario": "nav_reach", "trial": 0,
     "success": 1, "completion_time_s": 9.9, "rollbacks": 0, "jitter": 0,
     "i_star_mean": 1.2308, "i_star_std": 0.6966, "tracking_rms_m": 0.02631,
     "stages_done": 3, "reason": ""},
    {"condition": "match_on_label_global", "scenario": "nav_reach", "trial": 0,
     "success": 0, "completion_time_s": 12.0, "rollbacks": 23, "jitter": 0,
     "i_star_mean": 1.2667, "i_star_std": 3.0652, "tracking_rms_m": 0.02392,
     "stages_done": 1, "reason": "timeout at stage 1"},
    {"condition": "match_off_label_relative", "scenario": "nav_reach", "trial": 0,
     "success": 0, "completion_time_s": 12.0, "rollbacks": 23, "jitter": 0,
     "i_star_mean": 0.0, "i_star_std": 0.0, "tracking_rms_m": 0.02392,
     "stages_done": 2, "reason": "timeout at stage 2"},
    {"condition": "match_off_label_global", "scenario": "nav_reach", "trial": 0,
     "success": 0, "completion_time_s": 12.0, "rollbacks": 23, "jitter": 0,
     "i_star_mean": 0.0, "i_star_std": 0.0, "tracking_rms_m": 0.02392,
     "stages_done": 1, "reason": "timeout at stage 1"},
    {"condition": "match_on_label_relative", "scenario": "long_horizon", "trial": 0,
     "success": 1, "completion_time_s": 28.9, "rollbacks": 0, "jitter": 0,
     "i_star_mean": 1.2778, "i_star_std": 0.6503, "tracking_rms_m": 0.019928,
     "stages_done": 4, "reason": ""},
    {"condition": "match_on_label_global", "scenario": "long_horizon", "trial": 0,
     "success": 0, "completion_time_s": 60.0, "rollbacks": 47, "jitter": 0,
     "i_star_mean": 0.4667, "i_star_std": 0.4989, "tracking_rms_m": 0.014543,
     "stages_done": 1, "reason": "timeout at stage 1"},
    {"condition": "match_off_label_relative", "scenario": "long_horizon", "trial": 0,
     "success": 1, "completion_time_s": 37.7, "rollbacks": 50, "jitter": 0,
     "i_star_mean": 0.0, "i_star_std": 0.0, "tracking_rms_m": 0.017895,
     "stages_done": 4, "reason": ""},
    {"condition": "match_off_label_global", "scenario": "long_horizon", "trial": 0,
     "success": 0, "completion_time_s": 60.0, "rollbacks": 47, "jitter": 0,
     "i_star_mean": 0.0, "i_star_std": 0.0, "tracking_rms_m": 0.01455,
     "stages_done": 1, "reason": "timeout at stage 1"},
]


# SHA-256 of scripted_expert's streams per scenario over seeds 0 and 7, each
# noiseless and at 1 mm / 1e-3 rad noise, and of script.reference. Recorded
# before the scripts became knot tables; synthesis must stay byte-identical.
EXPERT_DIGESTS = {
    "nav_reach": "1b51178b5ea01be5f030e8cd87e1fa79460c6dee292021988b37452605f154ff",
    "nav_turn_place": "6c20f1a7b01c445bd032081f1f194bde35ef896cceae16ae09c3d754342262a5",
    "long_horizon": "8e06d8db8d8d4f1bcbcb0abd1e2821bceb5f6d048d0f68fe18c497be387b8b7f",
    "cruise": "e29c078e33df1a266d0bdd5ac2db71976ec90732a5ee3bb9f4f9428d32036fa7",
}
REFERENCE_DIGESTS = {
    "nav_reach": "412cb61d7d1bc4c7c91bc4710b5850339f7533701e639376e37e9226a018b057",
    "nav_turn_place": "dcd5121b3da5b5fd8081d2362944fc098d10bcf18e036ec081ac5375162cceae",
    "long_horizon": "7670d885c27592c13f52d8c644bc1c28b5a0ee11cc3f101f892628befda911c4",
    "cruise": "dbc122c46417b7e76c1fe47fd83b26a572c5f61fb4fea7ad329a7842819fe16a",
}


# SHA-256 of every closed-loop state of the episodes that state_fingerprint
# runs: each tick's plant state, each observation state_at returned and each
# chunk's rows, all at full precision. Recorded before the plant, the row
# integrator and the replay policy were rewritten as float code. The rounded
# pins above cannot see last-bit drift (dropping the plant's second quaternion
# canonicalisation moves state bits but not the rows), this can.
STATE_FINGERPRINT = "474e501fedacd48d9a457403aa95cfd70b4e06cbee93c828f53efca19aadc697"

FINGERPRINT_MATRIX = [
    Condition(
        f"match_{m}_label_{label}",
        matching=m == "on",
        label_frame=label,
        jitter_ms=18.0,
        locomotion_variation=True,
    )
    for m in ("on", "off")
    for label in ("relative", "global")
]


def state_fingerprint(monkeypatch) -> str:
    """Hash of the episodes of every scenario under the four matrix conditions
    on the lagged plant (trial seeds of master seed 0, trials 0 and 1), plus
    one kinematic-plant episode per scenario."""
    h = hashlib.sha256()

    def put(s, *scalars):
        head = (s[0], s[1], s[2], s[10], *scalars)
        h.update(" ".join(float.hex(float(x)) for x in head).encode())
        h.update(np.array(s[3:6]).tobytes())
        h.update(np.array(s[6:10]).tobytes())

    def recording_run_executor(policy, plant, config, tick_callback=None):
        def recording_policy(obs, obs_t):
            put(obs, obs_t)
            chunk = policy(obs, obs_t)
            h.update(np.array(chunk.rows).tobytes())
            return chunk

        def recording_tick(tick, t, pl):
            put(pl.current, pl.v, pl.omega)
            return tick_callback(tick, t, pl)

        return run_executor(recording_policy, plant, config, tick_callback=recording_tick)

    monkeypatch.setattr(sim, "run_executor", recording_run_executor)
    seeds = [int(np.random.SeedSequence([0, k]).generate_state(1)[0]) for k in (0, 1)]
    for name in SCENARIO_NAMES:
        for cond in FINGERPRINT_MATRIX:
            for seed in seeds:
                h.update(f"{name}/{cond.name}/{seed}".encode())
                run_condition_trial(cond, name, seed)
        h.update(f"{name}/kinematic".encode())
        run_condition_trial(FINGERPRINT_MATRIX[0], name, seeds[0], PlantConfig(kinematic=True))
    return h.hexdigest()


# SHA-256 of every event of the same episodes: tick, t, kind and payload, each
# float as float.hex, in key order. Recorded before the executor tick became
# float code. STATE_FINGERPRINT sees states and chunk rows but not the log;
# this sees splice discrepancy terms, t0_obs, rollback rows and command
# payloads at full precision, which the rounded CSV rows cannot.
EVENT_FINGERPRINT = "fd438287f97b84ebb32e7e20767504ead7b6b508d2b65f83844095a97e4a28a5"


def _event_line(e: dict) -> bytes:
    def text(v):
        return float.hex(v) if isinstance(v, float) else repr(v)

    payload = " ".join(f"{k}={text(v)}" for k, v in e["payload"].items())
    return f"{e['tick']} {float.hex(e['t'])} {e['kind']} {payload}\n".encode()


def event_fingerprint() -> str:
    """Hash of the event logs of the episodes that state_fingerprint runs."""
    h = hashlib.sha256()

    def run(label, *args):
        h.update(label.encode())
        _, log = run_condition_trial(*args)
        for e in log.events:
            h.update(_event_line(e))

    seeds = [int(np.random.SeedSequence([0, k]).generate_state(1)[0]) for k in (0, 1)]
    for name in SCENARIO_NAMES:
        for cond in FINGERPRINT_MATRIX:
            for seed in seeds:
                run(f"{name}/{cond.name}/{seed}", cond, name, seed)
        run(f"{name}/kinematic", FINGERPRINT_MATRIX[0], name, seeds[0], PlantConfig(kinematic=True))
    return h.hexdigest()


def expert_digest(name: str) -> str:
    h = hashlib.sha256()
    for seed in (0, 7):
        for sigma in (0.0, 1e-3):
            e = scripted_expert(make_scenario(name), seed=seed, sigma_pos=sigma, sigma_rot=sigma)
            s = e.session
            for a in (
                s.chest.t, s.chest.pos, s.chest.quat,
                s.hand.t, s.hand.pos, s.hand.quat,
                s.marker_t, s.marker_d,
            ):
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            for d in e.detections:
                h.update(d.node_id.encode())
                h.update(np.array([d.t, *d.T_cam_tag.rotation, *d.T_cam_tag.translation]).tobytes())
            g = e.cross_node_true
            h.update(np.concatenate([g.rotation, g.translation]).tobytes())
    return h.hexdigest()


def reference_digest(name: str) -> str:
    ref = make_scenario(name).script.reference
    h = hashlib.sha256()
    h.update(np.asarray(ref.t).tobytes())
    # base (x, y, theta), then each hand pose as rotation and translation, then grip
    h.update(np.ascontiguousarray(ref.states[:, 0:3]).tobytes())
    h.update(ref.states[:, [6, 7, 8, 9, 3, 4, 5]].tobytes())
    h.update(np.ascontiguousarray(ref.states[:, 10]).tobytes())
    return h.hexdigest()



def hold_cmd(v=0.0, hand=(0.3, 0.0, -0.2, *IDENT_Q.tolist()), grip=1.0):
    return PlantCommand(v, 0.0, 0.0, hand, grip)


class TestPlant:
    def test_kinematic_velocity_tracks_instantly(self):
        plant = Plant(PlantConfig(kinematic=True))
        plant.issue_command(hold_cmd(v=0.3), t_effect=0.0)
        plant.step_to(0.1)
        assert plant.v == pytest.approx(0.3)
        assert plant.current[0] == pytest.approx(0.3 * 0.1, abs=1e-9)

    def test_lagged_velocity_is_exact_exponential(self):
        cfg = PlantConfig()
        plant = Plant(cfg)
        plant.issue_command(hold_cmd(v=0.5), t_effect=0.0)
        plant.step_to(0.3)
        n = round(0.3 / cfg.dt_sub)  # the command applies from the first substep
        expected = 0.5 * (1.0 - math.exp(-n * cfg.dt_sub / cfg.tau_base))
        assert plant.v == pytest.approx(expected, abs=1e-12)

    def test_command_queue_respects_effect_time(self):
        plant = Plant(PlantConfig(kinematic=True))
        plant.issue_command(hold_cmd(v=0.4), t_effect=0.05)
        plant.step_to(0.049)
        assert plant.v == 0.0
        plant.step_to(0.10)
        assert plant.v == pytest.approx(0.4)

    def test_velocity_clamped(self):
        plant = Plant(PlantConfig(kinematic=True))
        plant.issue_command(hold_cmd(v=5.0), t_effect=0.0)
        plant.step_to(0.1)
        assert plant.v == pytest.approx(0.8)

    def test_grip_slew_limited(self):
        cfg = PlantConfig()
        plant = Plant(cfg, (*REST_STATE[:10], 1.0))
        plant.issue_command(hold_cmd(grip=0.0), t_effect=0.0)
        plant.step_to(0.2)
        assert plant.current[10] == pytest.approx(1.0 - cfg.grip_rate * 0.2, abs=1e-9)
        plant.step_to(1.0)
        assert plant.current[10] == 0.0

    def test_arm_reach_clamped(self):
        plant = Plant(PlantConfig(kinematic=True))
        far = (2.0, 0.0, 0.0, *IDENT_Q.tolist())
        plant.issue_command(PlantCommand(0, 0, 0, far, 1.0), t_effect=0.0)
        plant.step_to(0.5)
        assert np.linalg.norm(plant.current[3:6]) <= ARM_REACH + 1e-9

    def test_state_at_interpolates_history(self):
        plant = Plant(PlantConfig(kinematic=True))
        plant.issue_command(hold_cmd(v=0.2), t_effect=0.0)
        plant.step_to(1.0)
        s = plant.state_at(0.505)
        lo = plant.state_at(0.50)
        hi = plant.state_at(0.51)
        assert lo[0] <= s[0] <= hi[0]

    def test_state_at_clamps_to_history_ends(self):
        plant = Plant(PlantConfig(kinematic=True))
        plant.step_to(0.2)
        assert plant.state_at(-5.0)[0] == plant.state_at(0.0)[0]
        assert plant.state_at(99.0)[0] == plant.state_at(0.2)[0]

    def test_state_at_matches_recorded_snapshots(self):
        # a lagged plant turning, driving, moving its hand and closing its grip
        plant = Plant(PlantConfig())
        target = (0.5, 0.1, -0.3, *GRASP_POSE.rotation.tolist())
        plant.issue_command(PlantCommand(0.4, 0.02, 0.8, target, 0.2), t_effect=0.0)
        snaps = [(plant.t, plant.current)]
        for k in range(1, 61):
            plant.step_to(round(0.01 * k, 9))
            snaps.append((plant.t, plant.current))

        # at or beyond the ends of the history: the first or last snapshot
        for t in (-1.0, 0.0):
            assert plant.state_at(t) == snaps[0][1]
        for t in (0.6, 0.6 + 1e-12, 7.0):
            assert plant.state_at(t) == snaps[-1][1]
        for (t0, s0), (t1, s1) in zip(snaps[:-1], snaps[1:]):
            # exactly at an inner snapshot time: that snapshot, up to the
            # rounding of the zero-weight interpolation
            if t0 > 0.0:
                s = plant.state_at(t0)
                assert (s[0], s[1], s[10]) == (s0[0], s0[1], s0[10])
                assert s[3:6] == s0[3:6]
                assert s[2] == pytest.approx(s0[2], abs=1e-15)
                assert np.allclose(s[6:10], s0[6:10], rtol=0.0, atol=1e-15)
            # between snapshots: interpolated from the bracketing pair
            t = t0 + 0.3 * (t1 - t0)
            a = (t - t0) / (t1 - t0)
            s = plant.state_at(t)
            b = Pose2(
                (1 - a) * s0[0] + a * s1[0],
                (1 - a) * s0[1] + a * s1[1],
                s0[2] + a * wrap_angle(s1[2] - s0[2]),
            )
            assert s[:3] == (b.x, b.y, b.theta)
            p0, p1 = np.array(s0[3:6]), np.array(s1[3:6])
            assert np.array_equal(s[3:6], (1 - a) * p0 + a * p1)
            assert np.array_equal(s[6:10], slerp(np.array(s0[6:10]), np.array(s1[6:10]), a))
            assert s[10] == (1 - a) * s0[10] + a * s1[10]

    def test_lateral_channel_clipped(self):
        cfg = PlantConfig(kinematic=True)
        plant = Plant(cfg)
        plant.issue_command(PlantCommand(0.0, 1.0, 0.0, hold_cmd().hand_target, 1.0), t_effect=0.0)
        plant.step_to(1.0)
        assert abs(plant.v_lat) <= cfg.lateral_clip + 1e-12


# clamp inputs: signed zeros, NaN, infinities, subnormals, the bounds of the
# clamps on the episode path and their neighbours, and any float
_CLAMP_BOUNDS = [
    PlantConfig.v_max,
    PlantConfig.omega_max,
    PlantConfig.lateral_clip,
    ExpertReplayPolicy.MAX_DX,
    ExpertReplayPolicy.MAX_DY,
    ExpertReplayPolicy.MAX_STEER,
    ExpertReplayPolicy.MAX_DTH,
    ExpertReplayPolicy.MAX_DGRIP,
    0.02,  # the plant's grip slew per substep
    1.0,
]
_clamp_x = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072e-308]),
    st.sampled_from(_CLAMP_BOUNDS).flatmap(
        lambda b: st.sampled_from([b, -b, math.nextafter(b, 0.0), -math.nextafter(b, 9.0)])
    ),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def _float_bits(*xs) -> bytes:
    return struct.pack(f"{len(xs)}d", *xs)


class TestClampRule:
    """Each clamp on the episode path is m = lo if lo > x else x, then
    hi if hi < m else m: the comparisons min(max(x, lo), hi) makes, so the
    same bits, signed zeros and NaN included."""

    @settings(max_examples=500, deadline=None)
    @given(_clamp_x, _clamp_x, st.sampled_from(_CLAMP_BOUNDS))
    def test_two_comparisons_are_min_of_max(self, x, lo, hi):
        m = lo if lo > x else x
        assert _float_bits(hi if hi < m else m) == _float_bits(min(max(x, lo), hi))

    @settings(max_examples=300, deadline=None)
    @given(_clamp_x, _clamp_x, _clamp_x)
    def test_plant_command_limits(self, v, omega, v_lat):
        cfg = PlantConfig()
        plant = Plant(cfg)
        plant._take(PlantCommand(np.float64(v), v_lat, omega, REST_STATE[3:10], np.float64(0.5)))
        limits = ((v, cfg.v_max), (omega, cfg.omega_max), (v_lat, cfg.lateral_clip))
        assert _float_bits(*plant._cmd[:3]) == _float_bits(*(min(max(x, -m), m) for x, m in limits))
        assert all(type(x) is float for x in (*plant._cmd[:6], *plant._cmd[6], plant._cmd[7]))

    @settings(max_examples=300, deadline=None)
    @given(_clamp_x, _clamp_x, _clamp_x, st.sampled_from([(0.0, 0.0, 0.0), (0.3, -0.2, 2.0)]))
    def test_replay_base_row_bounds(self, tx, ty, tth, pose):
        # from the origin pose the errors are the target itself, so the
        # bounds see the drawn values
        policy = ExpertReplayPolicy(make_scenario("nav_reach").script)
        P = ExpertReplayPolicy
        ex, ey, eth = sim.relative_floats(tx, ty, tth, *pose)
        steer = min(max(P.STEER_GAIN * ey, -P.MAX_STEER), P.MAX_STEER)
        want = (
            min(max(ex, -P.MAX_DX), P.MAX_DX),
            min(max(ey, -P.MAX_DY), P.MAX_DY),
            min(max(wrap_angle(eth) + steer, -P.MAX_DTH), P.MAX_DTH),
        )
        assert _float_bits(*policy._base_row(*pose, tx, ty, tth)) == _float_bits(*want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), _clamp_x.filter(lambda g: abs(g) < 5.0))
    def test_replay_grip_steps(self, seed, grip):
        # the chunk's grip column steps toward the reference by at most
        # MAX_DGRIP per row, the row index capped at the reference's end
        script = make_scenario("nav_reach").script
        policy = ExpertReplayPolicy(script)
        obs = _observations(script, np.random.default_rng(seed), 1)[0]
        obs = (*obs[:10], grip)
        rows = policy(obs, 0.0).rows
        j, last = policy._cursor, len(policy.ref_grip) - 1
        want, g = [], grip
        for r in range(DEFAULT_HORIZON):
            d = policy.ref_grip[min(j + r + 1, last)] - g
            g += min(max(d, -policy.MAX_DGRIP), policy.MAX_DGRIP)
            want.append(g)
        assert _float_bits(*(row[10] for row in rows)) == _float_bits(*want)


class TestScenarios:
    def test_all_scenarios_build(self):
        for name in SCENARIO_NAMES:
            sc = make_scenario(name)
            assert sc.script.duration < sc.time_limit
            assert sc.goals

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            make_scenario("nope")


def _pose_noisy(pose: Pose3, rng, sigma_pos: float, sigma_rot: float) -> Pose3:
    """The per-pose sensor noise scripted_expert drew before its streams
    became row passes."""
    if sigma_pos == 0.0 and sigma_rot == 0.0:
        return pose
    dq = np.array([1.0, 0.0, 0.0, 0.0])
    if sigma_rot > 0.0:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        dq = quat_from_axis_angle(axis, rng.normal(0.0, sigma_rot))
    return Pose3(
        quat_mul_floats(*dq, *pose.rotation), pose.translation + rng.normal(0.0, sigma_pos, size=3)
    )


def _pose_chest_world(s) -> Pose3:
    """The chest pose in the world of the state s, as the pose code built it."""
    return pose3_ref.lift(Pose2.of_wrapped(*s[:3]), sim.CHEST_HEIGHT)


def _pose_scripted_expert(scenario, seed, sigma_pos, sigma_rot):
    """scripted_expert's synthesis as it was, one Pose3 per sample: its
    streams as (name, array) pairs, its detections as (node, t, pose) and
    the true cross-node transform."""
    rng = np.random.default_rng([seed, 0xE0])
    script = scenario.script
    g_true = sim._random_rigid(rng)
    t_c = np.round(np.arange(int(round(script.duration * 30)) + 1) / 30.0, 9)
    t_h = np.round(np.arange(int(round(script.duration * 20)) + 1) / 20.0, 9)
    t_m = np.round(np.arange(int(round(script.duration * 50)) + 1) / 50.0, 9)
    chest = [
        _pose_noisy(_pose_chest_world(s), rng, sigma_pos, sigma_rot)
        for s in script.states_at(t_c).tolist()
    ]
    g_inv = pose3_ref.inverse(g_true)
    hand = [
        _pose_noisy(pose3_ref.compose(g_inv, _pose_hand_world_of(s)), rng, sigma_pos, sigma_rot)
        for s in script.states_at(t_h).tolist()
    ]
    calib = sim.DEFAULT_CALIB
    marker_d = calib.d_closed + script.states_at(t_m)[:, 10] * (calib.d_open - calib.d_closed)
    if sigma_pos > 0.0:
        marker_d = marker_d + rng.normal(0.0, sigma_pos / 5.0, size=len(marker_d))
    streams = [
        ("chest.t", t_c),
        ("chest.pos", np.array([p.translation for p in chest])),
        ("chest.quat", np.array([p.rotation for p in chest])),
        ("hand.t", t_h),
        ("hand.pos", np.array([p.translation for p in hand])),
        ("hand.quat", np.array([p.rotation for p in hand])),
        ("marker_t", t_m),
        ("marker_d", marker_d),
    ]
    detections = []
    det_t = np.round(np.linspace(0.0, min(1.4, script.duration), sim.N_DETECTIONS), 9)
    compose, inverse = pose3_ref.compose, pose3_ref.inverse
    board_hand_world = compose(g_inv, sim.BOARD_IN_WORLD)
    for ti, s in zip(det_t.tolist(), script.states_at(det_t).tolist()):
        cam_c = compose(_pose_chest_world(s), sim.EXTRINSICS[sim.CHEST].T_imu_from_camera)
        board_c = compose(inverse(cam_c), sim.BOARD_IN_WORLD)
        detections.append((sim.CHEST, ti, _pose_noisy(board_c, rng, sigma_pos, sigma_rot)))
        hand_imu = compose(g_inv, _pose_hand_world_of(s))
        cam_h = compose(hand_imu, sim.EXTRINSICS[sim.HAND].T_imu_from_camera)
        board_h = compose(inverse(cam_h), board_hand_world)
        detections.append((sim.HAND, ti, _pose_noisy(board_h, rng, sigma_pos, sigma_rot)))
    return streams, detections, g_true


class TestScriptedExpert:
    def test_reference_grids_align(self):
        expert = scripted_expert(make_scenario("nav_reach"), seed=0)
        ref = expert.script.reference
        ref_t, ref_base = ref.t, ref.states[:, 0:3]
        assert len(ref_base) == len(ref_t)
        assert np.allclose(np.diff(ref_t), 0.1)

    def test_streams_cover_script(self):
        expert = scripted_expert(make_scenario("nav_reach"), seed=0)
        dur = expert.script.duration
        assert expert.session.chest.t_end == pytest.approx(dur)
        assert expert.session.hand.t_end == pytest.approx(dur)
        assert expert.session.marker_t[-1] == pytest.approx(dur)

    def test_hand_stream_in_displaced_world(self):
        expert = scripted_expert(make_scenario("nav_reach"), seed=4)
        # mapping the first hand sample back through the true transform must
        # land on chest-world hand pose
        hand0 = Pose3(expert.session.hand.quat[0], expert.session.hand.pos[0])
        world0 = expert.cross_node_true.compose(hand0)
        ref = hand_world_pose(expert.script.reference.states[0].tolist())
        ref = Pose3(np.array(ref[3:]), np.array(ref[:3]))
        assert np.max(np.abs(world0.as_matrix() - ref.as_matrix())) < 1e-9

    def test_deterministic_per_seed(self):
        a = scripted_expert(make_scenario("nav_reach"), seed=9)
        b = scripted_expert(make_scenario("nav_reach"), seed=9)
        assert np.array_equal(a.session.chest.pos, b.session.chest.pos)
        assert np.array_equal(a.session.marker_d, b.session.marker_d)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_synthesis_bytes_unchanged(self, name):
        assert expert_digest(name) == EXPERT_DIGESTS[name]

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_reference_bytes_unchanged(self, name):
        assert reference_digest(name) == REFERENCE_DIGESTS[name]

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_reference_shared_and_read_only(self, name):
        sc = make_scenario(name)
        assert make_scenario(name) is sc
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.goals = ()
        a = sc.script
        ref = a.reference
        assert a.reference is ref
        t, states = ref.t, ref.states
        for arr in (t, states[:, 10], states[0, 3:6], states[-1, 6:10], a._knots[-1]):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(ValueError):
            states[0, 0:3] = dataclasses.astuple(Pose2())
        with pytest.raises(dataclasses.FrozenInstanceError):
            ref.states = states.copy()
        world = a.world_hand
        assert a.world_hand is world and len(world) == len(t)
        # a knot added to a script gives a new script with its own, longer
        # reference; the receiver keeps its own
        longer = a.pause(1.0)
        assert len(longer.reference.t) == len(t) + 10
        assert longer.world_hand[: len(t)] == world and len(longer.world_hand) == len(t) + 10
        assert a.reference is ref and a.world_hand is world
        assert reference_digest(name) == REFERENCE_DIGESTS[name]

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_sampling_clamps_before_start(self, name):
        script = make_scenario(name).script
        before, start = script.states_at([-0.5, 0.0])
        assert before[:3].tolist() == start[:3].tolist()
        assert np.array_equal(before[6:10], start[6:10])
        assert np.array_equal(before[3:6], start[3:6])
        assert before[10] == start[10]

    # the noise levels EXPERT_DIGESTS pins, then position only, rotation only
    # and a large one
    NOISE_LEVELS = [(0.0, 0.0), (1e-3, 1e-3), (1e-3, 0.0), (0.0, 1e-3), (5e-3, 0.05)]

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_synthesis_matches_pose_code(self, name):
        scenario = make_scenario(name)
        for seed in (3, 12):
            for sigma_pos, sigma_rot in self.NOISE_LEVELS:
                want, want_dets, want_g = _pose_scripted_expert(
                    scenario, seed, sigma_pos, sigma_rot
                )
                e = scripted_expert(scenario, seed=seed, sigma_pos=sigma_pos, sigma_rot=sigma_rot)
                s = e.session
                got = [
                    s.chest.t, s.chest.pos, s.chest.quat,
                    s.hand.t, s.hand.pos, s.hand.quat,
                    s.marker_t, s.marker_d,
                ]
                for (what, w), g in zip(want, got):
                    case = (what, seed, sigma_pos, sigma_rot)
                    assert g.shape == w.shape and g.flags.c_contiguous, case
                    assert g.tobytes() == w.tobytes(), case
                assert [(d.node_id, d.t) for d in e.detections] == [d[:2] for d in want_dets]
                for d, (_, _, pose) in zip(e.detections, want_dets):
                    assert _pose_bits(d.T_cam_tag) == _pose_bits(pose), (seed, sigma_pos, sigma_rot)
                assert _pose_bits(e.cross_node_true) == _pose_bits(want_g)

    def test_pose_objects_do_not_grow_with_session_length(self, monkeypatch):
        # a per-sample pose loop would make the longer session build more
        built = {}
        post_init = Pose3.__post_init__
        for name in ("nav_reach", "long_horizon"):
            n = 0

            def counting(pose):
                nonlocal n
                n += 1
                post_init(pose)

            monkeypatch.setattr(Pose3, "__post_init__", counting)
            scripted_expert(make_scenario(name), seed=0, sigma_pos=1e-3, sigma_rot=1e-3)
            monkeypatch.setattr(Pose3, "__post_init__", post_init)
            built[name] = n
        durations = {name: make_scenario(name).script.duration for name in built}
        assert durations["long_horizon"] > 2 * durations["nav_reach"]
        assert 0 < built["nav_reach"] == built["long_horizon"]

    @pytest.mark.parametrize("arg", ["sigma_pos", "sigma_rot"])
    @pytest.mark.parametrize("value", [-1e-3, -math.inf, math.inf, math.nan])
    def test_bad_noise_level_raises_before_any_draw(self, arg, value, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=f"^{arg} must be"):
            scripted_expert(make_scenario("nav_reach"), seed=0, **{arg: value})

    def test_save_layout(self, tmp_path):
        expert = scripted_expert(make_scenario("nav_reach"), seed=1)
        save_expert_session(tmp_path, expert)
        for f in ("trajectories.jsonl", "detections.jsonl", "extrinsics.json", "markers.jsonl"):
            assert (tmp_path / f).exists()


class TestEpisodes:
    def test_nav_reach_succeeds_with_matching(self):
        m, log = run_condition_trial(
            Condition("c", matching=True, jitter_ms=18.0), "nav_reach", trial_seed=0
        )
        assert m.success
        assert m.rollback_count == 0
        assert m.stages_done == 3

    def test_episode_deterministic(self):
        a, _ = run_condition_trial(Condition("c", jitter_ms=18.0), "nav_reach", 3)
        b, _ = run_condition_trial(Condition("c", jitter_ms=18.0), "nav_reach", 3)
        assert a.to_row() == b.to_row()

    def test_start_pose_randomized_within_disk(self):
        sc = make_scenario("nav_reach")
        policy = ExpertReplayPolicy(sc.script)
        _, log = run_episode(
            policy, sc, PlantConfig(kinematic=True), ExecutorConfig(), seed=2
        )
        # metrics exist and the episode ran
        assert log.events

    def test_global_labels_fail_under_task_shift(self):
        cond_rel = Condition("rel", label_frame="relative", locomotion_variation=True)
        cond_glob = Condition("glob", label_frame="global", locomotion_variation=True)
        m_rel, _ = run_condition_trial(cond_rel, "nav_reach", 3)
        m_glob, _ = run_condition_trial(cond_glob, "nav_reach", 3)
        assert m_rel.success
        assert not m_glob.success

    def test_compare_conditions_pairs_seeds(self):
        conds = [Condition("a", matching=True), Condition("b", matching=True)]
        rows, agg = compare_conditions(conds, "nav_reach", n_trials=2)
        assert {r["condition"] for r in rows} == {"a", "b"}
        # identical conditions under paired seeds give identical metrics
        a_rows = sorted((r["trial"], r["completion_time_s"]) for r in rows if r["condition"] == "a")
        b_rows = sorted((r["trial"], r["completion_time_s"]) for r in rows if r["condition"] == "b")
        assert a_rows == b_rows
        assert agg["a"]["trials"] == 2

    def test_compare_conditions_rejects_duplicate_names(self):
        conds = [Condition("a"), Condition("a", matching=False)]
        with pytest.raises(ValueError, match="duplicate condition names"):
            compare_conditions(conds, "nav_reach", n_trials=1)

    def test_episode_states_unchanged(self, monkeypatch):
        assert state_fingerprint(monkeypatch) == STATE_FINGERPRINT

    def test_episode_events_unchanged(self):
        assert event_fingerprint() == EVENT_FINGERPRINT

    def test_condition_matrix_rows_unchanged(self):
        conds = [
            Condition(
                f"match_{m}_label_{label}",
                matching=m == "on",
                label_frame=label,
                jitter_ms=18.0,
                locomotion_variation=True,
            )
            for m in ("on", "off")
            for label in ("relative", "global")
        ]
        rows = []
        for name in ("nav_reach", "long_horizon"):
            rows += compare_conditions(conds, name, n_trials=1, master_seed=0)[0]
        assert rows == GOLDEN_MATRIX_ROWS


# ---------------------------------------------------------------------------
# Reference implementations: the plant, the row integrator and the quaternion
# helpers they call, as they were before they became float code. The float
# code must reproduce them bit for bit.
# ---------------------------------------------------------------------------


class _RefState(NamedTuple):
    """The state record of the reference code: a Pose2 base, the hand as
    position and quaternion arrays, and the grip."""

    base: Pose2
    hand_pos: np.ndarray
    hand_rot: np.ndarray
    grip: float


def _ref_quat_canonical(q):
    q = np.asarray(q, dtype=float)
    n = math.sqrt(q.dot(q))
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("cannot canonicalize a zero or non-finite quaternion")
    q = q / n
    if q[0] < 0.0:
        q = -q
    elif q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                if c < 0.0:
                    q = -q
                break
    return q


def _ref_quat_mul(a, b):
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


def _ref_slerp(q0, q1, s):
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    dot = float(q0.dot(q1))
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    if dot > 1.0 - 1e-12 or dot < 1e-6:
        out = (1.0 - s) * q0 + s * q1
        n = math.sqrt(out.dot(out))
        if n < 1e-12:
            return q0.copy()
        return out / n
    dot = min(dot, 1.0)
    omega = math.acos(dot)
    so = math.sin(omega)
    out = (math.sin((1.0 - s) * omega) / so) * q0 + (math.sin(s * omega) / so) * q1
    return out / math.sqrt(out.dot(out))


def _ref_advance_state(s, row):
    return _RefState(
        base=se2.compose(s.base, Pose2(row[0], row[1], row[2])),
        hand_pos=s.hand_pos + row[3:6],
        hand_rot=_ref_quat_canonical(_ref_quat_mul(row[6:10], s.hand_rot)),
        grip=float(row[10]),
    )


class _RefPlant:
    """Plant with Pose2 base, array hand and one _RefState per substep.

    Commands carry the hand target as (px, py, pz, qw, qx, qy, qz)."""

    def __init__(self, config, base=Pose2(), hand_rel=None, grip=1.0):
        self.config = config
        self.base = base
        hand_rel = hand_rel if hand_rel is not None else Pose3()
        self.hand_rot = hand_rel.rotation
        self.hand_pos = hand_rel.translation
        self.grip = float(grip)
        self.v = 0.0
        self.omega = 0.0
        self.v_lat = 0.0
        self.t = 0.0
        hand = (*hand_rel.translation.tolist(), *hand_rel.rotation.tolist())
        self.cmd = PlantCommand(0.0, 0.0, 0.0, hand, self.grip)
        self._queue = []
        self._times = []
        self._states = []
        self._snapshot()

    def _snapshot(self):
        self._times.append(self.t)
        self._states.append(self.read_state()[0])

    def issue_command(self, cmd, t_effect):
        self._queue.append((t_effect, cmd))

    def read_state(self):
        return _RefState(self.base, self.hand_pos, self.hand_rot, self.grip), self.v, self.omega

    def state_at(self, t):
        times, states = self._times, self._states
        if t <= times[0]:
            return states[0]
        if t >= times[-1]:
            return states[-1]
        j = bisect.bisect_right(times, t)
        s0, s1 = states[j - 1], states[j]
        a = (t - times[j - 1]) / (times[j] - times[j - 1])
        return _RefState(
            base=Pose2(
                (1 - a) * s0.base.x + a * s1.base.x,
                (1 - a) * s0.base.y + a * s1.base.y,
                s0.base.theta + a * wrap_angle(s1.base.theta - s0.base.theta),
            ),
            hand_pos=(1 - a) * s0.hand_pos + a * s1.hand_pos,
            hand_rot=_ref_slerp(s0.hand_rot, s1.hand_rot, a),
            grip=(1 - a) * s0.grip + a * s1.grip,
        )

    def step_to(self, t):
        cfg = self.config
        while self.t < t - 1e-9:
            due = [c for c in self._queue if c[0] <= self.t + 1e-9]
            if due:
                self.cmd = due[-1][1]
                self._queue = [c for c in self._queue if c[0] > self.t + 1e-9]
            self._substep()
            self.t = round(self.t + cfg.dt_sub, 9)
            self._snapshot()

    def _substep(self):
        cfg = self.config
        dt = cfg.dt_sub
        cmd = self.cmd
        v_cmd = float(min(max(cmd.v, -cfg.v_max), cfg.v_max))
        w_cmd = float(min(max(cmd.omega, -cfg.omega_max), cfg.omega_max))
        lat_cmd = float(min(max(cmd.v_lat, -cfg.lateral_clip), cfg.lateral_clip))
        if cfg.kinematic:
            self.v, self.omega, self.v_lat = v_cmd, w_cmd, lat_cmd
        else:
            self.v = v_cmd + (self.v - v_cmd) * cfg.decay_base
            self.omega = w_cmd + (self.omega - w_cmd) * cfg.decay_base
            self.v_lat = lat_cmd + (self.v_lat - lat_cmd) * cfg.decay_lateral
        c, s = math.cos(self.base.theta), math.sin(self.base.theta)
        self.base = Pose2(
            self.base.x + (self.v * c - self.v_lat * s) * dt,
            self.base.y + (self.v * s + self.v_lat * c) * dt,
            self.base.theta + self.omega * dt,
        )
        a = 1.0 if cfg.kinematic else cfg.arm_gain
        target_pos, target_rot = np.array(cmd.hand_target[:3]), np.array(cmd.hand_target[3:])
        pos = self.hand_pos + a * (target_pos - self.hand_pos)
        r = math.sqrt(pos.dot(pos))
        if r > ARM_REACH:
            pos = pos * (ARM_REACH / r)
        self.hand_rot = _ref_quat_canonical(_ref_slerp(self.hand_rot, target_rot, a))
        self.hand_pos = pos
        rate = cfg.grip_rate * dt
        dg = min(max(cmd.grip_target - self.grip, -rate), rate)
        self.grip = float(min(max(self.grip + dg, 0.0), 1.0))


def _bits(state) -> bytes:
    """Every bit of a _RefState; -0.0 and 0.0 differ."""
    b = state.base
    head = np.array([b.x, b.y, b.theta, state.grip], dtype=float).tobytes()
    return head + state.hand_pos.tobytes() + state.hand_rot.tobytes()


def _tuple_bits(s: tuple) -> bytes:
    """_bits of the _RefState that the state s stands for."""
    head = np.array([s[0], s[1], s[2], s[10]], dtype=float).tobytes()
    return head + np.array(s[3:6]).tobytes() + np.array(s[6:10]).tobytes()


def _as_tuple(s: _RefState) -> tuple:
    """The state (x, y, theta, px, py, pz, qw, qx, qy, qz, grip) of s."""
    b = s.base
    return (b.x, b.y, b.theta, *s.hand_pos.tolist(), *s.hand_rot.tolist(), s.grip)


def _unit(rng, n=4):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


# hand rotation targets relative to the plant's current rotation q
_ROTATION_KINDS = {
    "random": lambda rng, q: _unit(rng),
    "same": lambda rng, q: q.copy(),
    "near": lambda rng, q: q + 1e-9 * rng.normal(size=4),
    # conjugate: a negative dot for rotations beyond 90 degrees, slerp flips it
    "conjugate": lambda rng, q: q * np.array([1.0, -1.0, -1.0, -1.0]),
    # orthogonal: 180 degrees apart, slerp's linear branch with a zero dot
    "orthogonal": lambda rng, q: np.array([-q[1], q[0], -q[3], q[2]]),
    "w0": lambda rng, q: np.concatenate([[0.0], _unit(rng, 3)]),
    "w0_axis": lambda rng, q: np.array([0.0, 0.0, -1.0, 0.0]),
}

# hand position targets: inside, beyond and on the reach sphere
_TRANSLATION_KINDS = {
    "inside": lambda rng: rng.uniform(-0.4, 0.4, size=3),
    "beyond": lambda rng: _unit(rng, 3) * rng.uniform(0.8, 3.0),
    "on_reach": lambda rng: _unit(rng, 3) * ARM_REACH,
    "on_reach_axis": lambda rng: np.array([0.0, -ARM_REACH, 0.0]),
    "on_reach_sum": lambda rng: np.array([0.45, 0.6, 0.0]),
}

_twist = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 0.8, -0.8, 1.5, -1.5, 0.05, -0.05, 2.5, -2.5]),
)


@st.composite
def _plant_runs(draw):
    ticks = []
    for _ in range(draw(st.integers(1, 8))):
        commands = [
            (
                draw(_twist),
                draw(_twist),
                draw(_twist),
                draw(st.sampled_from(sorted(_TRANSLATION_KINDS))),
                draw(st.sampled_from(sorted(_ROTATION_KINDS))),
                draw(st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0]))),
                # several commands due on one substep: the last issued wins
                draw(st.sampled_from([0.0, 0.0, 0.004, 0.022, 0.1, 0.25])),
            )
            for _ in range(draw(st.integers(0, 3)))
        ]
        ticks.append((commands, draw(st.sampled_from([0.01, 0.03, 0.1, 0.1, 0.27]))))
    return draw(st.booleans()), draw(st.integers(0, 2**32 - 1)), ticks


class TestFloatCodeMatchesReference:
    """The float plant and row integrator give the bits of the Pose2/Pose3
    code they replaced (the reference implementations above)."""

    @settings(max_examples=150, deadline=None)
    @given(_plant_runs())
    def test_plant_snapshots_and_state_at(self, run):
        kinematic, seed, ticks = run
        rng = np.random.default_rng(seed)
        cfg = PlantConfig(kinematic=kinematic)
        base = Pose2(*rng.uniform(-2.0, 2.0, size=2), rng.uniform(-math.pi, math.pi))
        hand = Pose3(_unit(rng), rng.uniform(-0.4, 0.4, size=3))
        grip = rng.uniform()
        state = (base.x, base.y, base.theta, *hand.translation.tolist(), *hand.rotation.tolist(), grip)
        plant, ref = Plant(cfg, state), _RefPlant(cfg, base, hand, grip)
        t = 0.0
        for commands, step in ticks:
            for v, v_lat, omega, where, turn, grip_target, delay in commands:
                target = Pose3(
                    _ROTATION_KINDS[turn](rng, ref.hand_rot), _TRANSLATION_KINDS[where](rng)
                )
                hand = (*target.translation.tolist(), *target.rotation.tolist())
                cmd = PlantCommand(v, v_lat, omega, hand, grip_target)
                plant.issue_command(cmd, t + delay)
                ref.issue_command(cmd, t + delay)
            t = round(t + step, 9)
            plant.step_to(t)
            ref.step_to(t)
            assert plant.t == ref.t
            assert [x.hex() for x in (plant.v, plant.omega, plant.v_lat)] == [
                x.hex() for x in (ref.v, ref.omega, ref.v_lat)
            ]
            assert _tuple_bits(plant.current) == _bits(ref.read_state()[0])
            assert plant._times == ref._times
            assert [_tuple_bits(s) for s in plant._states] == [_bits(s) for s in ref._states]
            for q in np.concatenate([rng.uniform(-0.05, t + 0.05, size=4), [0.0, t, t / 3]]):
                assert _tuple_bits(plant.state_at(q)) == _bits(ref.state_at(q))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "w0", "turn", "near_pi"]))
    def test_advance_state_and_rollout(self, seed, kind):
        rng = np.random.default_rng(seed)
        rows = rng.normal(scale=0.3, size=(16, 11))
        if kind == "w0":
            rows[:, 6] = 0.0  # quaternion increments with w = 0
        elif kind == "turn":
            rows[:, 2] = rng.uniform(-7.0, 7.0, size=16)  # heading increments beyond pi
        elif kind == "near_pi":
            rows[:, 2] = math.pi * rng.choice([-1.0, 1.0], size=16) * (1 + 1e-16 * rng.normal(size=16))
        rot = _unit(rng)
        if kind == "w0":
            rot[0] = 0.0
        s0 = _RefState(
            Pose2(*rng.normal(size=2), rng.uniform(-math.pi, math.pi)), rng.normal(size=3), rot, 0.5
        )
        chunk = ActionChunkTensor(tuple(map(tuple, rows.tolist())))
        expected = [s0]
        for row, ref_row in zip(chunk.rows, rows):
            expected.append(_ref_advance_state(expected[-1], ref_row))
            stepped = advance_floats(*_as_tuple(expected[-2])[:10], row)
            assert _tuple_bits((*stepped, row[10])) == _bits(expected[-1])
        got = forward_rollout(_as_tuple(s0), chunk)
        assert [_tuple_bits(s) for s in got] == [_bits(s) for s in expected]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["random", "same", "near", "conjugate", "orthogonal", "w0", "opposite"]),
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5])),
    )
    def test_slerp_and_quaternion_helpers(self, seed, kind, s):
        rng = np.random.default_rng(seed)
        q0 = _unit(rng) * rng.uniform(0.5, 2.0)
        q1 = -q0 if kind == "opposite" else _ROTATION_KINDS.get(kind, _ROTATION_KINDS["random"])(rng, q0)
        assert slerp(q0, q1, s).tobytes() == _ref_slerp(q0, q1, s).tobytes()
        assert np.array(quat_mul_floats(*q0, *q1)).tobytes() == _ref_quat_mul(q0, q1).tobytes()
        assert np.array(quat_canonical_floats(*q1)).tobytes() == _ref_quat_canonical(q1).tobytes()
        # quat_canonical takes its norm on the array it is given, strided or not
        strided = np.stack([q1, q0], axis=1)[:, 0]
        for q in (q1, strided):
            assert quat_canonical(q).tobytes() == _ref_quat_canonical(q).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_identity_dot_is_w(self, seed, w0):
        # the replay policy reads identity . q as q's w, for canonical q
        q = _unit(np.random.default_rng(seed))
        if w0:
            q[0] = 0.0
        q = _ref_quat_canonical(q)
        ident = np.array([1.0, 0.0, 0.0, 0.0])
        d = float(ident.dot(q))
        # equal up to the sign of a zero w, and never negative, so slerp never flips
        assert abs(d) == abs(q[0]) and not d < 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    def test_row_dots_match_vector_dots(self, seed, m):
        # the replay policy's match takes the hand distances of a slice of
        # reference rows with one np.vecdot
        rng = np.random.default_rng(seed)
        ref = rng.normal(scale=0.5, size=(m + 5, 3))
        p = rng.normal(scale=0.5, size=3)
        rows = ref[2 : 2 + m] - p
        got = np.sqrt(np.vecdot(rows, rows)).tolist()
        for i, d in enumerate(got):
            dp = ref[2 + i] - p
            assert d.hex() == math.sqrt(dp.dot(dp)).hex()

    def test_substep_clock(self):
        # the plant counts substeps; k / (1 / dt_sub) is the time that
        # round(t + dt_sub, 9) chained from 0 reaches after k substeps
        dt = PlantConfig.dt_sub
        per_s = round(1.0 / dt)
        t = 0.0
        for k in range(1, 100_001):
            t = round(t + dt, 9)
            assert t == k / per_s


class _UnskippedPlant(Plant):
    """Plant with the step_to that ran the rotation update on every substep,
    before the update was skipped at a fixed point: the skip's reference."""

    def step_to(self, t: float) -> None:
        cfg = self.config
        dt = cfg.dt_sub
        kinematic = cfg.kinematic
        decay_base, decay_lateral = cfg.decay_base, cfg.decay_lateral
        a = 1.0 if kinematic else cfg.arm_gain
        rate = cfg.grip_rate * dt
        per_s = round(1.0 / dt)
        times, states = self._times, self._states
        x, y, th, px, py, pz, qw, qx, qy, qz, grip = states[-1]
        v, omega, v_lat = self.v, self.omega, self.v_lat
        v_cmd, w_cmd, lat_cmd, tx, ty, tz, q1f, g_cmd = self._cmd
        now, k = self.t, self._k
        while now < t - 1e-9:
            if self._next_due <= now + 1e-9:
                self._take_due(now)
                v_cmd, w_cmd, lat_cmd, tx, ty, tz, q1f, g_cmd = self._cmd
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
            px = px + a * (tx - px)
            py = py + a * (ty - py)
            pz = pz + a * (tz - pz)
            if px * px + py * py + pz * pz > sim._REACH_PREFILTER:
                pos = np.array((px, py, pz))
                r = math.sqrt(pos.dot(pos))
                if r > ARM_REACH:
                    f = ARM_REACH / r
                    px, py, pz = px * f, py * f, pz * f
            rot = np.array((qw, qx, qy, qz))
            q = slerp_floats((qw, qx, qy, qz), q1f, a, float(rot.dot(np.array(q1f))))
            qw, qx, qy, qz = quat_canonical_floats(*q)
            dg = min(max(g_cmd - grip, -rate), rate)
            grip = float(min(max(grip + dg, 0.0), 1.0))
            k += 1
            now = k / per_s
            times.append(now)
            states.append((x, y, th, px, py, pz, qw, qx, qy, qz, grip))
        self.v, self.omega, self.v_lat = v, omega, v_lat
        self.t, self._k = now, k


# hand rotations with exact signed zeros, as most hand targets have; the
# plant's update maps several of them to themselves up to a zero's sign
_SIGNED_ZERO_ROTATIONS = [
    quat_canonical_floats(*q)
    for q in (
        (1.0, 0.0, 0.0, 0.0),
        (1.0, -0.0, 0.0, -0.0),
        (0.8, -0.6, 0.0, -0.0),
        (0.8, -0.6, -0.0, 0.0),
        (0.6, 0.0, -0.0, 0.8),
        (0.0, -0.0, 0.6, -0.8),
        (0.0, 0.6, 0.8, 0.0),
    )
]


def _flip_zeros(q: tuple) -> tuple:
    """q with the sign of each of its zeros flipped: equal to q, not the same bits."""
    return tuple(-x if x == 0.0 else x for x in q)


# hand rotation targets relative to the plant's current rotation q and to
# the rotation of the command issued before, prev
_SKIP_TARGETS = {
    "same": lambda rng, q, prev: q,
    "same_flipped": lambda rng, q, prev: _flip_zeros(q),
    "zeros": lambda rng, q, prev: _SIGNED_ZERO_ROTATIONS[rng.integers(len(_SIGNED_ZERO_ROTATIONS))],
    "near": lambda rng, q, prev: quat_canonical_floats(*(np.array(q) + 1e-12 * rng.normal(size=4))),
    "random": lambda rng, q, prev: quat_canonical_floats(*_unit(rng)),
    # the same bits again: a fixed point of the update is carried across it
    "repeat": lambda rng, q, prev: prev,
}


@st.composite
def _skip_runs(draw):
    ticks = []
    for _ in range(draw(st.integers(1, 6))):
        commands = [
            (
                draw(st.sampled_from([0.0, -0.0, 0.3, -1.0])),
                draw(st.sampled_from([0.0, 0.02])),
                draw(st.sampled_from(sorted(_SKIP_TARGETS))),
                draw(st.booleans()),  # hand position target beyond reach
                draw(st.sampled_from([1.0, 0.0, -0.0, 0.4, 2.0, -1.0])),  # grip target
                # effect times inside a tick change the command mid-tick
                draw(st.sampled_from([0.0, 0.004, 0.022, 0.05, 0.1])),
            )
            for _ in range(draw(st.integers(0, 3)))
        ]
        ticks.append((commands, draw(st.sampled_from([0.01, 0.03, 0.1, 0.1, 0.27]))))
    return (
        draw(st.booleans()),
        draw(st.integers(0, len(_SIGNED_ZERO_ROTATIONS))),
        draw(st.integers(0, 2**32 - 1)),
        ticks,
    )




def _state_bits(states) -> bytes:
    """Every bit of a sequence of states; -0.0 and 0.0 differ."""
    return np.array(states, dtype=float).tobytes()


_PACK = struct.Struct("4d").pack


class TestPlantRotationSkip:
    """Skipping the rotation update at its fixed point leaves every bit of
    the plant's history as the update on every substep gave it."""

    @settings(max_examples=200, deadline=None)
    @given(_skip_runs())
    def test_history_matches_unskipped_plant(self, run):
        kinematic, rot_pick, seed, ticks = run
        rng = np.random.default_rng(seed)
        cfg = PlantConfig(kinematic=kinematic)
        rot = (
            quat_canonical_floats(*_unit(rng))
            if rot_pick == len(_SIGNED_ZERO_ROTATIONS)
            else _SIGNED_ZERO_ROTATIONS[rot_pick]
        )
        state = (*rng.uniform(-1.0, 1.0, size=2).tolist(), 0.3, 0.3, -0.0, 0.2, *rot, 0.5)
        plant, ref = Plant(cfg, state), _UnskippedPlant(cfg, state)
        t = 0.0
        prev = rot  # the initial command holds the initial hand
        for commands, step in ticks:
            for v, omega, turn, far, grip, delay in commands:
                target_rot = _SKIP_TARGETS[turn](rng, ref.current[6:10], prev)
                prev = target_rot
                pos = (0.9, -0.0, 0.2) if far else ref.current[3:6]
                cmd = PlantCommand(v, 0.0, omega, (*pos, *target_rot), grip)
                plant.issue_command(cmd, t + delay)
                ref.issue_command(cmd, t + delay)
            t = round(t + step, 9)
            plant.step_to(t)
            ref.step_to(t)
            assert _state_bits(plant._states) == _state_bits(ref._states)
            assert plant._times == ref._times
            assert [plant.v, plant.omega, plant.v_lat] == [ref.v, ref.omega, ref.v_lat]

    def test_skip_taken_and_cleared_by_a_command(self):
        # a target equal to the rotation up to zero signs: the first update
        # moves the zeros' signs, the second returns its input
        rot = _SIGNED_ZERO_ROTATIONS[2]
        plant = Plant(PlantConfig(), (0.0, 0.0, 0.0, 0.3, 0.0, 0.2, *rot, 1.0))
        plant.issue_command(PlantCommand(0.0, 0.0, 0.0, (0.3, 0.0, 0.2, *_flip_zeros(rot)), 1.0), 0.0)
        plant.step_to(0.01)
        assert not plant._rot_fixed
        moved = plant.current[6:10]
        assert moved == rot and np.array(moved).tobytes() != np.array(rot).tobytes()
        plant.step_to(0.02)
        assert plant._rot_fixed
        assert plant.current[6:10] == moved
        # a new command clears the skip, mid-tick too
        ident = _SIGNED_ZERO_ROTATIONS[0]
        plant.issue_command(PlantCommand(0.0, 0.0, 0.0, (0.3, 0.0, 0.2, *ident), 1.0), 0.025)
        plant.step_to(0.04)
        assert plant._states[-2][6:10] == moved and plant.current[6:10] != moved

    def test_fixed_point_carried_across_a_same_bytes_command(self, monkeypatch):
        rot = _SIGNED_ZERO_ROTATIONS[2]
        state = (0.0, 0.0, 0.0, 0.3, 0.0, 0.2, *rot, 1.0)
        plant, ref = Plant(PlantConfig(), state), _UnskippedPlant(PlantConfig(), state)
        updates = []
        slerp = sim.slerp_floats
        monkeypatch.setattr(sim, "slerp_floats", lambda *args: updates.append(args) or slerp(*args))
        t = 0.0

        def step(cmd=None):
            nonlocal t
            for p in (plant, ref):
                if cmd is not None:
                    p.issue_command(cmd, t)
                p.step_to(round(t + 0.01, 9))
            t = round(t + 0.01, 9)
            assert _state_bits(plant._states) == _state_bits(ref._states)

        for _ in range(20):
            if plant._rot_fixed:
                break
            step()
        assert plant._rot_fixed
        # another command, same target rotation bits: the update stays skipped
        n = len(updates)
        step(PlantCommand(0.2, 0.0, 0.1, (0.35, 0.05, 0.1, *rot), 0.5))
        step(PlantCommand(0.0, 0.01, 0.0, (0.3, 0.0, 0.2, *rot), 1.0))
        assert plant._rot_fixed and len(updates) == n
        # a rotation that differs only in the sign of a zero clears it
        flipped = (*rot[:3], -rot[3])
        assert rot[3] == 0.0 and flipped == rot and _PACK(*flipped) != _PACK(*rot)
        step(PlantCommand(0.0, 0.0, 0.0, (0.3, 0.0, 0.2, *flipped), 1.0))
        assert len(updates) == n + 1


def _observations(script, rng, n: int) -> list[tuple]:
    """n states near the script's reference: rows of it with the base and
    hand moved by a few cm, and the hand turned a little."""
    ref = script.reference.states
    obs = []
    for i in rng.integers(0, len(ref), size=n):
        s = ref[i].copy()
        s[:6] += rng.normal(scale=0.03, size=6)
        s[6:10] = quat_canonical_floats(*(s[6:10] + rng.normal(scale=0.05, size=4)))
        s[2] = wrap_angle(s[2])
        obs.append(tuple(s.tolist()))
    return obs


class TestCarriedRollout:
    """ExpertReplayPolicy's chunks carry the roll-out that forward_rollout
    computes, and forward_rollout uses it only for the very state it starts from."""

    @pytest.mark.parametrize("label", ["relative", "global"])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_carried_rollout_is_forward_rollout_of_a_copy(self, name, label):
        script = make_scenario(name).script
        rng = np.random.default_rng([SCENARIO_NAMES.index(name), label == "global"])
        policy = ExpertReplayPolicy(script, task_frame=(0.1, -0.05, 0.2), label_frame=label)
        for obs in _observations(script, rng, 6):
            chunk = policy(obs, 0.0)
            copy = (*obs,)
            assert copy is not obs and chunk.rollout[0] is obs
            assert _state_bits(chunk.rollout) == _state_bits(forward_rollout(copy, chunk))
            assert _state_bits(forward_rollout(obs, chunk)) == _state_bits(chunk.rollout)

    def test_rollout_from_another_state_is_integrated(self):
        script = make_scenario("nav_reach").script
        obs = _observations(script, np.random.default_rng(3), 1)[0]
        chunk = ExpertReplayPolicy(script)(obs, 0.0)
        expected = forward_rollout((*obs,), chunk)
        # a roll-out that is not this chunk's, carried from an equal state
        # that is another object, is integrated over, not returned
        stale = ActionChunkTensor(chunk.rows, ((*obs,),) + (REST_STATE,) * chunk.horizon)
        got = forward_rollout(obs, stale)
        assert _state_bits(got) == _state_bits(expected) and got[0] is obs
        assert _state_bits(forward_rollout(stale.rollout[0], stale)) == _state_bits(stale.rollout)

    def test_rebuilt_chunk_carries_no_rollout(self):
        script = make_scenario("long_horizon").script
        obs = _observations(script, np.random.default_rng(4), 1)[0]
        chunk = ExpertReplayPolicy(script)(obs, 0.0)
        assert ActionChunkTensor(chunk.rows).rollout is None
        # the chunk is a value: its fields cannot be rebound, nor its rows changed
        assert type(chunk.rows) is tuple and all(type(row) is tuple for row in chunk.rows)
        with pytest.raises(dataclasses.FrozenInstanceError):
            chunk.rows = ()

    @pytest.mark.parametrize("n", [0, 1, DEFAULT_HORIZON, DEFAULT_HORIZON + 2])
    def test_rollout_length_checked(self, n):
        with pytest.raises(ValueError, match="rollout must hold"):
            ActionChunkTensor(((0.0,) * 11,) * DEFAULT_HORIZON, (REST_STATE,) * n)


def _unfiltered_hand_step(self, px, py, pz, qw, qx, qy, qz, target):
    """ExpertReplayPolicy._hand_step as it was before the norm prefilter: it
    takes the BLAS norm of every position error."""
    tpx, tpy, tpz, tw, tx, ty, tz = target
    ex, ey, ez = tpx - px, tpy - py, tpz - pz
    e = np.array((ex, ey, ez))
    n = math.sqrt(e.dot(e))
    if n > self.MAX_HAND_STEP:
        f = self.MAX_HAND_STEP / n
        ex, ey, ez = ex * f, ey * f, ez * f
    q_err = quat_canonical_floats(*quat_mul_floats(tw, tx, ty, tz, qw, -qx, -qy, -qz))
    w = q_err[0]
    ang = geodesic_of_dot(w)
    frac = 1.0 if ang <= self.MAX_HAND_ROT else self.MAX_HAND_ROT / ang
    return ex, ey, ez, *slerp_floats((1.0, 0.0, 0.0, 0.0), q_err, frac, w)


def test_hand_step_prefilter_keeps_bits_at_the_step_bound():
    # errors whose norm is within a few ulps of MAX_HAND_STEP, or of the
    # prefilter's own threshold, from hands at the origin and elsewhere
    policy = ExpertReplayPolicy(make_scenario("nav_reach").script)
    rng = np.random.default_rng(25)
    bound = ExpertReplayPolicy.MAX_HAND_STEP
    radii = [bound, bound * math.sqrt(1.0 - 1e-9)]
    scaled = unscaled = 0
    for _ in range(300):
        d = _unit(rng, 3)
        hand = [0.0, 0.0, 0.0] if rng.uniform() < 0.5 else rng.uniform(-0.5, 0.5, size=3).tolist()
        rot = quat_canonical_floats(*_unit(rng))
        target_rot = quat_canonical_floats(*_unit(rng))
        for r in radii:
            for k in range(-6, 7):
                e = d * (r + k * math.ulp(r))
                target = (*(np.array(hand) + e).tolist(), *target_rot)
                got = policy._hand_step(*hand, *rot, target)
                want = _unfiltered_hand_step(policy, *hand, *rot, target)
                assert np.array(got).tobytes() == np.array(want).tobytes()
                ex, ey, ez = (t - h for t, h in zip(target, hand))
                if (ex, ey, ez) == got[:3]:
                    unscaled += 1
                else:
                    scaled += 1
    assert scaled > 0 and unscaled > 0


# ---------------------------------------------------------------------------
# Reference implementations: the pose-object script samplers, task-frame
# composition and world-hand constructions that the 11-float state layout
# replaced. The state-layout code must reproduce them bit for bit.
# ---------------------------------------------------------------------------


class _PoseScript:
    """ExpertScript as a knot table of (time, base array, Pose3 hand, grip),
    sampled by base_at, hand_at and grip_at."""

    def __init__(self, hand_home, grip0=1.0):
        self._knots = [(0.0, np.array([0.0, 0.0, 0.0]), hand_home, float(grip0))]
        self._ends = []

    @staticmethod
    def _round_duration(d):
        return max(CONTROL_DT, round(round(d / CONTROL_DT) * CONTROL_DT, 9))

    def _push(self, duration, b1=None, h1=None, g1=None):
        t0, b0, h0, g0 = self._knots[-1]
        t1 = round(t0 + self._round_duration(duration), 9)
        self._knots.append(
            (
                t1,
                b0 if b1 is None else np.asarray(b1, dtype=float),
                h0 if h1 is None else h1,
                g0 if g1 is None else float(g1),
            )
        )
        self._ends.append(t1 + 1e-12)
        return self

    def pause(self, duration):
        return self._push(duration)

    def drive(self, distance, speed=0.3, ramp_steps=10):
        th = self._knots[-1][1][2]
        sgn = 1.0 if distance >= 0 else -1.0
        heading = np.array([math.cos(th), math.sin(th), 0.0])
        ramp = [speed * k / ramp_steps for k in range(ramp_steps - 1, 0, -1)]
        ramp += [speed * f for f in (1.0 / 15, 1.0 / 25, 1.0 / 50, 1.0 / 150)]
        ramp_dist = sum(v * 0.3 for v in ramp)
        cruise_dist = max(abs(distance) - ramp_dist, 0.0)
        if cruise_dist > 0:
            self._push(cruise_dist / speed, b1=self._knots[-1][1] + sgn * cruise_dist * heading)
        for v in ramp:
            self._push(0.3, b1=self._knots[-1][1] + sgn * v * 0.3 * heading)
        return self

    def turn(self, dangle, duration):
        return self._push(duration, b1=self._knots[-1][1] + np.array([0.0, 0.0, dangle]))

    def move_hand(self, target, duration):
        return self._push(duration, h1=target)

    def set_grip(self, value, duration):
        return self._push(duration, g1=value)

    @property
    def duration(self):
        return self._knots[-1][0]

    def _locate(self, t):
        t = min(max(t, 0.0), self.duration)
        j = bisect.bisect_left(self._ends, t)
        t0, t1 = self._knots[j][0], self._knots[j + 1][0]
        return j, (min(t, t1) - t0) / (t1 - t0)

    def base_at(self, t):
        j, a = self._locate(t)
        b = (1 - a) * self._knots[j][1] + a * self._knots[j + 1][1]
        return Pose2(b[0], b[1], b[2])

    def hand_at(self, t):
        j, a = self._locate(t)
        h0, h1 = self._knots[j][2], self._knots[j + 1][2]
        return Pose3(
            slerp(h0.rotation, h1.rotation, a), (1 - a) * h0.translation + a * h1.translation
        )

    def grip_at(self, t):
        j, a = self._locate(t)
        return (1 - a) * self._knots[j][3] + a * self._knots[j + 1][3]

    def states_at(self, times):
        """The three samplers' values at each time, in the state layout."""
        return np.array(
            [
                [*dataclasses.astuple(self.base_at(t)), *self.hand_at(t).to_list(), self.grip_at(t)]
                for t in times
            ]
        )


def _pose_hand_world(base: Pose2, hand_rel: Pose3) -> Pose3:
    """hand_world_pose on a Pose2 base and a Pose3 chest-relative hand."""
    return pose3_ref.compose(pose3_ref.lift(base, sim.CHEST_HEIGHT), hand_rel)


def _pose_hand_world_of(s) -> Pose3:
    """hand_world_pose of the state s as the pose code computed it."""
    return _pose_hand_world(Pose2.of_wrapped(*s[:3]), Pose3(np.array(s[6:10]), np.array(s[3:6])))


def _pose_bits(p: Pose3) -> bytes:
    return p.rotation.tobytes() + p.translation.tobytes()


def _pose_float_bits(p: Pose3) -> bytes:
    """The bits of a pose as hand_world_pose's (px, py, pz, qw, qx, qy, qz)."""
    return p.translation.tobytes() + p.rotation.tobytes()


def _sample_times(script, extra):
    """Knot times and their neighbours, times before 0 and past the end, a
    10 ms grid and the extra times."""
    knots = [k[0] for k in script._knots]
    end = script.duration
    times = [*knots, *(t + 1e-13 for t in knots), *(t - 1e-13 for t in knots)]
    times += [-0.5, -1e-300, -0.0, 0.0, end, end + 1e-12, end + 0.5, *extra]
    return times + np.round(np.arange(-5, int(end * 100) + 6) / 100.0, 9).tolist()


_durations = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.5]), st.floats(0.0, 3.0))
_script_ops = st.lists(
    st.one_of(
        st.tuples(st.just("pause"), _durations),
        st.tuples(st.just("drive"), st.floats(-2.0, 2.0)),
        st.tuples(
            st.just("turn"),
            st.one_of(st.floats(-7.0, 7.0), st.sampled_from([math.pi, -math.pi, 3 * math.pi])),
            _durations,
        ),
        st.tuples(
            st.just("move_hand"),
            st.integers(0, 2**32 - 1),
            st.sampled_from(sorted(_ROTATION_KINDS)),
            _durations,
        ),
        st.tuples(st.just("set_grip"), st.floats(0.0, 1.0), _durations),
    ),
    min_size=1,
    max_size=6,
)
# wrapped headings, with the values at and next to the +-pi wrap
_wrapped = st.one_of(
    st.floats(-4.0, 4.0).map(wrap_angle),
    st.sampled_from(
        [math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0), 0.0, -0.0]
    ),
)
_coord = st.floats(-5.0, 5.0)


def _builder_args(op, args, rotation):
    """The arguments of a _script_ops builder call; move_hand's target is drawn
    from its seed, its rotation relative to the receiver's hand rotation."""
    if op != "move_hand":
        return args
    hand_rng = np.random.default_rng(args[0])
    rot = _ROTATION_KINDS[args[1]](hand_rng, rotation)
    return Pose3(rot, hand_rng.uniform(-0.5, 0.5, size=3)), args[2]


class TestScriptValues:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        _script_ops,
        st.lists(st.integers(0, 5), min_size=6, max_size=6),
    )
    def test_builders_leave_receivers_unchanged(self, seed, ops, picks):
        # each builder call extends a script picked from those built so far,
        # so receivers are called again after scripts have been built on them
        rng = np.random.default_rng(seed)
        scripts = [sim.ExpertScript(Pose3(_unit(rng), rng.uniform(-0.5, 0.5, size=3)))]

        def value(s):
            ref = (s.reference.t.tobytes(), s.reference.states.tobytes()) if s.duration else None
            return s.duration, [k.tobytes() for k in s._knots], ref

        values = [value(scripts[0])]
        for (op, *args), pick in zip(ops, picks):
            receiver = scripts[pick % len(scripts)]
            args = _builder_args(op, args, receiver._knots[-1][6:10])
            scripts.append(getattr(receiver, op)(*args))
            values.append(value(scripts[-1]))
        assert [value(s) for s in scripts] == values
        for s in scripts[1:]:
            assert s.reference.states.tobytes() == s.states_at(s.reference.t).tobytes()


class TestStateLayoutMatchesPoseCode:
    """states_at, compose_floats and hand_world_pose(s) give the bits of the
    pose-object code they replaced (the reference implementations above)."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        # a -0.0 grip tells a time of -0.0 from one clamped to 0.0
        st.one_of(st.floats(0.0, 1.0), st.just(-0.0)),
        _script_ops,
        st.lists(st.floats(-1.0, 40.0), max_size=20),
    )
    def test_states_at_matches_samplers(self, seed, grip0, ops, extra):
        rng = np.random.default_rng(seed)
        home = Pose3(_unit(rng), rng.uniform(-0.5, 0.5, size=3))
        pose_script, script = _PoseScript(home, grip0), sim.ExpertScript(home, grip0)
        for op, *args in ops:
            args = _builder_args(op, args, pose_script._knots[-1][2].rotation)
            getattr(pose_script, op)(*args)
            script = getattr(script, op)(*args)
        assert script.duration == pose_script.duration
        times = _sample_times(pose_script, extra)
        assert script.states_at(times).tobytes() == pose_script.states_at(times).tobytes()

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_states_at_matches_samplers_on_scenarios(self, name, monkeypatch):
        script = sim._SCENARIOS[name][0]()
        monkeypatch.setattr(sim, "ExpertScript", _PoseScript)
        pose_script = sim._SCENARIOS[name][0]()
        times = _sample_times(pose_script, np.random.default_rng(3).uniform(-1, 30, 2000))
        assert script.states_at(times).tobytes() == pose_script.states_at(times).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_coord, _coord, _wrapped, _coord, _coord, _wrapped, st.floats(-7.0, 7.0))
    def test_compose_floats(self, x, y, th, ox, oy, oth, goal_th):
        want = se2.compose(Pose2.of_wrapped(x, y, th), Pose2.of_wrapped(ox, oy, oth))
        got = compose_floats(x, y, th, ox, oy, oth)
        assert [v.hex() for v in got] == [float(v).hex() for v in dataclasses.astuple(want)]
        # the replay policy's inline composition of a reference base pose
        c, s = math.cos(th), math.sin(th)
        inline = (x + c * ox - s * oy, y + s * ox + c * oy, wrap_angle(th + oth))
        assert [v.hex() for v in got] == [v.hex() for v in inline]
        # a goal's heading need not be wrapped; Pose2 wrapped it
        goal = sim.GoalStage("g", base=(ox, oy, goal_th, 0.1, 0.1))
        want = se2.compose(Pose2.of_wrapped(x, y, th), Pose2(ox, oy, goal_th))
        got = goal.base_in((x, y, th))
        assert [v.hex() for v in got] == [float(v).hex() for v in dataclasses.astuple(want)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
    def test_disk_pose(self, seed, heading):
        want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        r = 0.3 * math.sqrt(want_rng.uniform())
        phi = want_rng.uniform(0.0, 2.0 * math.pi)
        want = Pose2(r * math.cos(phi), r * math.sin(phi), want_rng.uniform(-heading, heading))
        got = sim._disk_pose(rng, 0.3, heading)
        assert [v.hex() for v in got] == [float(v).hex() for v in dataclasses.astuple(want)]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(_wrapped, st.sampled_from([-math.pi, math.nextafter(math.pi, 4.0)])),
        st.sampled_from(["random", "w0", "w0_axis", "negative_w", "negative_w0"]),
    )
    def test_hand_world_pose_of_any_state(self, seed, th, kind):
        # the global-label replay branch built a Pose3 of the observed hand,
        # which canonicalises its quaternion again; the float form keeps the
        # bits at theta = +-pi and +-0, and for quaternions with w < 0 or
        # w = +-0
        rng = np.random.default_rng(seed)
        q = _ROTATION_KINDS.get(kind, _ROTATION_KINDS["random"])(rng, None)
        if kind == "negative_w":
            q = -np.abs(q)
        if kind == "negative_w0":
            q = np.array([-0.0, *-np.abs(_unit(rng, 3))])
        s = (*rng.uniform(-3.0, 3.0, size=2), th, *rng.uniform(-0.6, 0.6, size=3), *q, 0.5)
        s = tuple(map(float, s))
        got = hand_world_pose(s)
        assert type(got) is tuple and len(got) == 7 and all(type(v) is float for v in got)
        assert np.array(got).tobytes() == _pose_float_bits(_pose_hand_world_of(s))

    @pytest.mark.parametrize("th", [0.0, -0.0, 0.7, -2.5, math.pi, math.nextafter(-math.pi, 0.0)])
    def test_hand_world_pose_keeps_the_array_bits(self, th):
        # the float kernels against the array forms they replaced, on the
        # enumerated w = 0 ties, signed zeros and half-turns
        for q in pose3_ref.QUATS:
            for p in pose3_ref.VECTORS:
                s = (1.5, -0.0, th, *p, *q, 0.5)
                assert np.array(hand_world_pose(s)).tobytes() == _pose_float_bits(_pose_hand_world_of(s))

    @pytest.mark.parametrize("label", ["relative", "global"])
    def test_replay_episode_builds_no_pose3(self, label, monkeypatch):
        # a seeded replay episode runs on floats in either label frame
        built = []
        post_init = Pose3.__post_init__

        def counting(pose):
            built.append(pose)
            post_init(pose)

        monkeypatch.setattr(Pose3, "__post_init__", counting)
        cond = Condition("c", label_frame=label, jitter_ms=18.0, locomotion_variation=True)
        _, log = run_condition_trial(cond, "nav_reach", 11)
        assert log.payloads("splice")
        assert built == []

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_world_hand_is_hand_world_pose_of_each_reference_row(self, name):
        # world_hand runs on the row kernel; the one-state form must agree
        script = make_scenario(name).script
        want = [hand_world_pose(s) for s in script.reference.states.tolist()]
        assert len(script.world_hand) == len(want)
        assert np.array(script.world_hand).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_world_hand_and_synthesis_quaternions(self, name):
        # world_hand built its poses from the steps view, whose hand quaternion
        # is not canonicalised again; hand_world_pose(s) canonicalises it, which
        # leaves the bits alone because every quaternion the script gives is
        # already canonical, at the reference and at every synthesis time
        script = make_scenario(name).script
        want = tuple(
            (*p.translation.tolist(), *p.rotation.tolist())
            for p in (_pose_hand_world(st_.base, st_.hand_rel) for st_ in script.reference.steps)
        )
        assert script.world_hand == want
        d = script.duration
        for hz in (10, 20, 30, 50):
            q = script.states_at(np.round(np.arange(int(round(d * hz)) + 1) / hz, 9))[:, 6:10]
            assert quat_canonical_rows(q).tobytes() == q.tobytes()
        det_t = np.round(np.linspace(0.0, min(1.4, d), sim.N_DETECTIONS), 9)
        q = script.states_at(det_t)[:, 6:10]
        assert quat_canonical_rows(q).tobytes() == q.tobytes()
