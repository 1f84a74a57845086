import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobman.anchoring import (
    CHEST,
    HAND,
    AnchorResult,
    Extrinsic,
    TagDetection,
    TimestampError,
    VioTrajectory,
    anchor_node,
    cross_node_transform,
    load_detections,
    load_extrinsics,
    load_trajectories,
    save_detections,
    save_extrinsics,
    save_trajectories,
)
from mobman.geometry import Pose3, geodesic_so3, quat_canonical, quat_from_axis_angle, quat_mul, slerp
from mobman.jsonl import write_jsonl


def random_pose(rng, span=2.0):
    return Pose3(quat_canonical(rng.normal(size=4)), rng.uniform(-span, span, size=3))


def make_traj(node, poses, t=None, cov=1e-4):
    t = np.arange(len(poses), dtype=float) if t is None else np.asarray(t, float)
    return VioTrajectory(
        node_id=node,
        t=t,
        pos=np.array([p.translation for p in poses]),
        quat=np.array([p.rotation for p in poses]),
        cov_trace=np.full(len(poses), cov),
    )


class TestVioTrajectory:
    def test_rejects_empty_and_nonmonotonic(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        with pytest.raises(ValueError):
            make_traj("n", [])
        with pytest.raises(ValueError):
            make_traj("n", [p, p], t=[0.0, 0.0])

    @pytest.mark.parametrize(
        "q", [(0.0, 0.0, 0.0, 0.0), (1e308, 0.0, 0.0, 0.0), (0.0, -1e200, 1e200, 0.0), (1e-170, 0.0, 0.0, 0.0)]
    )
    def test_rejects_zero_or_non_finite_quaternion_norm(self, q):
        # every component is finite; the norm is zero, overflows or underflows
        quat = np.array([[1.0, 0.0, 0.0, 0.0], q, [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"at t=1\.0 has a zero or non-finite norm"):
            VioTrajectory("n", [0.0, 1.0, 2.0], np.zeros((3, 3)), quat, np.zeros(3))

    def test_sample_interpolates(self):
        a = Pose3(np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 0]))
        b = Pose3(np.array([1.0, 0, 0, 0]), np.array([2.0, 0, 0]))
        traj = make_traj("n", [a, b], t=[0.0, 1.0])
        pos, _ = traj.sample_rows(np.array([0.25]))
        assert np.allclose(pos, [[0.5, 0, 0]])

    def test_sample_slerps_rotation(self):
        a = Pose3(np.array([1.0, 0, 0, 0]), np.zeros(3))
        b = Pose3(quat_from_axis_angle(np.array([0, 0, 1.0]), 1.0), np.zeros(3))
        traj = make_traj("n", [a, b], t=[0.0, 1.0])
        _, quat = traj.sample_rows(np.array([0.5]))
        assert geodesic_so3(quat[0], quat_from_axis_angle(np.array([0, 0, 1.0]), 0.5)) < 1e-9

    @pytest.mark.parametrize("times", [[-0.1], [1.1], [0.5, 1.1], [math.nan], [0.5, math.nan]])
    def test_out_of_span_raises(self, times):
        rng = np.random.default_rng(1)
        traj = make_traj("n", [random_pose(rng), random_pose(rng)])
        with pytest.raises(TimestampError, match=r"outside trajectory span \[0\.0, 1\.0\] of n"):
            traj.sample_rows(np.array(times))


def board_on(poses, t=0.5):
    """A still node at the world origin with an identity camera extrinsic, and
    one detection at time t per pose: each board pose in the node's world
    frame is the detected pose itself."""
    traj = make_traj("n", [Pose3(), Pose3()], t=[0.0, 1.0])
    return traj, Extrinsic("n", Pose3()), [TagDetection("n", t, p) for p in poses]


class TestBoardPose:
    def test_matches_matrix_chain(self):
        rng = np.random.default_rng(2)
        world_imu = random_pose(rng)
        ext = Extrinsic("n", random_pose(rng))
        det_pose = random_pose(rng)
        traj = make_traj("n", [world_imu, world_imu], t=[0.0, 1.0])
        got = anchor_node(traj, ext, [TagDetection("n", 0.5, det_pose)]).T_world_tag
        ref = (
            world_imu.as_matrix()
            @ ext.T_imu_from_camera.as_matrix()
            @ det_pose.as_matrix()
        )
        assert np.max(np.abs(got.as_matrix() - ref)) < 1e-10


class TestAveraging:
    def test_identical_poses_exact(self):
        rng = np.random.default_rng(3)
        p = random_pose(rng)
        res = anchor_node(*board_on([p] * 7))
        assert np.allclose(res.T_world_tag.translation, p.translation, atol=1e-12)
        assert np.allclose(res.T_world_tag.rotation, p.rotation, rtol=0.0, atol=1e-15)
        # one ulp below a unit dot is an angle of 3e-8
        assert res.position_rms < 1e-12 and res.rotation_rms < 1e-7

    def test_hemisphere_alignment(self):
        # canonical rotations 0.01 rad either side of a half turn lie in
        # opposite hemispheres; unaligned, their sum is the identity
        z = np.array([0.0, 0.0, 1.0])
        near = [quat_from_axis_angle(z, math.pi + d) for d in (-0.01, 0.01, -0.01)]
        assert float(np.dot(near[0], near[1])) < 0.0
        res = anchor_node(*board_on([Pose3(q, np.zeros(3)) for q in near]))
        assert geodesic_so3(res.T_world_tag.rotation, quat_from_axis_angle(z, math.pi - 1e-2 / 3)) < 1e-6
        assert not res.ill_conditioned

    def test_small_spread_recovers_center(self):
        rng = np.random.default_rng(5)
        center = random_pose(rng)
        poses = []
        for _ in range(500):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            dq = quat_from_axis_angle(axis, rng.normal(0.0, 0.01))
            poses.append(
                Pose3(
                    quat_mul(dq, center.rotation),
                    center.translation + rng.normal(0.0, 0.005, size=3),
                )
            )
        mean = anchor_node(*board_on(poses)).T_world_tag
        assert np.linalg.norm(mean.translation - center.translation) < 1e-3
        assert geodesic_so3(mean.rotation, center.rotation) < 2e-3

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no valid detections for node n"):
            anchor_node(*board_on([]))

    def test_rotation_spread(self):
        z = np.array([0, 0, 1.0])
        res = anchor_node(*board_on([Pose3(), Pose3(quat_from_axis_angle(z, 0.4), np.zeros(3))]))
        # the chordal mean of two rotations is the one halfway between them
        assert res.rotation_rms == pytest.approx(0.2, abs=1e-9)
        assert not res.ill_conditioned
        for angle, wide in ((1.5, False), (1.6, True), (3.0, True)):
            far = Pose3(quat_from_axis_angle(z, angle), np.zeros(3))
            assert anchor_node(*board_on([Pose3(), far, Pose3()])).ill_conditioned is wide


def synthetic_setup(rng, n_det=20, sigma_pos=0.0, sigma_rot=0.0):
    """Static trajectories for both nodes, one shared board, perfect geometry."""
    board = random_pose(rng)
    world_from_hand_world = random_pose(rng)
    trajs, exts, dets = {}, {}, []
    for node, world_offset in ((CHEST, Pose3()), (HAND, world_from_hand_world.inverse())):
        imu_pose = world_offset.compose(random_pose(rng))
        ext = Extrinsic(node, random_pose(rng, span=0.2))
        board_in_node_world = world_offset.compose(board)
        cam = imu_pose.compose(ext.T_imu_from_camera)
        t = np.linspace(0.0, 2.0, 40)
        trajs[node] = make_traj(node, [imu_pose] * len(t), t=t)
        exts[node] = ext
        for ti in np.linspace(0.1, 1.9, n_det):
            seen = cam.inverse().compose(board_in_node_world)
            if sigma_pos > 0 or sigma_rot > 0:
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                dq = quat_from_axis_angle(axis, rng.normal(0.0, sigma_rot))
                seen = Pose3(
                    np.array(seen.rotation), seen.translation + rng.normal(0, sigma_pos, 3)
                ).compose(Pose3(dq, np.zeros(3)))
            dets.append(TagDetection(node, float(ti), seen))
    return trajs, exts, dets, world_from_hand_world


class TestAnchorNode:
    def test_noiseless_zero_residual(self):
        rng = np.random.default_rng(6)
        trajs, exts, dets, _ = synthetic_setup(rng)
        res = anchor_node(trajs[CHEST], exts[CHEST], dets)
        assert res.detection_count == 20
        assert res.position_rms < 1e-10
        assert res.rotation_rms < 1e-8
        assert not res.ill_conditioned

    def test_covariance_gate(self):
        rng = np.random.default_rng(7)
        trajs, exts, dets, _ = synthetic_setup(rng)
        traj = trajs[CHEST]
        traj.cov_trace[:] = 0.02  # above the 0.01 default
        with pytest.raises(ValueError):
            anchor_node(traj, exts[CHEST], dets)

    def test_out_of_span_detections_counted(self):
        rng = np.random.default_rng(8)
        trajs, exts, dets, _ = synthetic_setup(rng)
        dets.append(TagDetection(CHEST, 99.0, Pose3()))
        res = anchor_node(trajs[CHEST], exts[CHEST], dets)
        assert res.rejected_count == 1
        assert res.detection_count == 20

    def test_nan_time_detection_rejected(self):
        # a NaN time lies in no span: it is counted as rejected, not sampled
        rng = np.random.default_rng(8)
        trajs, exts, dets, _ = synthetic_setup(rng)
        dets.append(TagDetection(CHEST, math.nan, Pose3()))
        res = anchor_node(trajs[CHEST], exts[CHEST], dets)
        assert res.rejected_count == 1
        assert res.detection_count == 20

    def test_other_node_detections_ignored(self):
        rng = np.random.default_rng(9)
        trajs, exts, dets, _ = synthetic_setup(rng)
        chest_only = [d for d in dets if d.node_id == CHEST]
        res_all = anchor_node(trajs[CHEST], exts[CHEST], dets)
        res_some = anchor_node(trajs[CHEST], exts[CHEST], chest_only)
        assert res_all.detection_count == res_some.detection_count


class TestCrossNode:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(10)
        trajs, exts, dets, truth = synthetic_setup(rng)
        a_c = anchor_node(trajs[CHEST], exts[CHEST], dets).T_world_tag
        a_h = anchor_node(trajs[HAND], exts[HAND], dets).T_world_tag
        got = cross_node_transform(a_c, a_h)
        assert np.max(np.abs(got.as_matrix() - truth.as_matrix())) < 1e-9

    def test_noisy_recovery_statistical(self):
        # 5 mm / 0.3 deg detection noise, 50 detections per node
        rng = np.random.default_rng(11)
        trajs, exts, dets, truth = synthetic_setup(
            rng, n_det=50, sigma_pos=0.005, sigma_rot=math.radians(0.3)
        )
        a_c = anchor_node(trajs[CHEST], exts[CHEST], dets).T_world_tag
        a_h = anchor_node(trajs[HAND], exts[HAND], dets).T_world_tag
        got = cross_node_transform(a_c, a_h)
        assert np.linalg.norm(got.translation - truth.translation) < 0.003
        assert geodesic_so3(got.rotation, truth.rotation) < math.radians(0.2)


class TestIO:
    def test_round_trips(self, tmp_path):
        rng = np.random.default_rng(12)
        trajs, exts, dets, _ = synthetic_setup(rng, n_det=5)
        save_trajectories(tmp_path / "t.jsonl", trajs)
        save_detections(tmp_path / "d.jsonl", dets)
        save_extrinsics(tmp_path / "e.json", exts)
        trajs2 = load_trajectories(tmp_path / "t.jsonl")
        dets2 = load_detections(tmp_path / "d.jsonl")
        exts2 = load_extrinsics(tmp_path / "e.json")
        assert set(trajs2) == {CHEST, HAND}
        assert np.allclose(trajs2[CHEST].t, trajs[CHEST].t)
        assert np.allclose(trajs2[CHEST].pos, trajs[CHEST].pos)
        assert len(dets2) == len(dets)
        assert np.max(np.abs(
            exts2[HAND].T_imu_from_camera.as_matrix()
            - exts[HAND].T_imu_from_camera.as_matrix()
        )) < 1e-12


# ---------------------------------------------------------------------------
# anchor_node and save_trajectories against the per-detection and per-sample
# Pose3 code they replaced, kept here as references: the outputs must be the
# same bytes, so that anchors.json and trajectories.jsonl do not change.
# ---------------------------------------------------------------------------


def _sample_at(traj, t):
    j = int(np.searchsorted(traj.t, t, side="right"))
    if j >= len(traj.t):
        return Pose3(traj.quat[-1], traj.pos[-1])
    i = j - 1
    s = (t - traj.t[i]) / (traj.t[j] - traj.t[i])
    return Pose3(slerp(traj.quat[i], traj.quat[j], s), (1.0 - s) * traj.pos[i] + s * traj.pos[j])


def _average_poses(poses):
    trans = np.mean([p.translation for p in poses], axis=0)
    q0 = poses[0].rotation
    acc = np.zeros(4)
    for p in poses:
        q = p.rotation
        if float(np.dot(q0, q)) < 0.0:
            q = -q
        acc += q
    return Pose3(acc, trans)


def _anchor_node_loop(traj, ext, detections, cov_threshold=0.01):
    board_poses = []
    rejected = 0
    for det in detections:
        if det.node_id != traj.node_id:
            continue
        cov = float(np.interp(det.t, traj.t, traj.cov_trace))
        if det.t < traj.t_start or det.t > traj.t_end or cov > cov_threshold:
            rejected += 1
            continue
        T_world_imu = _sample_at(traj, det.t)
        board_poses.append(T_world_imu.compose(ext.T_imu_from_camera).compose(det.T_cam_tag))
    if not board_poses:
        raise ValueError(f"no valid detections for node {traj.node_id}")
    mean = _average_poses(board_poses)
    pos_sq = [float(np.sum((p.translation - mean.translation) ** 2)) for p in board_poses]
    rot_sq = [geodesic_so3(p.rotation, mean.rotation) ** 2 for p in board_poses]
    spread = max(geodesic_so3(board_poses[0].rotation, p.rotation) for p in board_poses)
    return AnchorResult(
        node_id=traj.node_id,
        T_world_tag=mean,
        detection_count=len(board_poses),
        position_rms=math.sqrt(sum(pos_sq) / len(pos_sq)),
        rotation_rms=math.sqrt(sum(rot_sq) / len(rot_sq)),
        ill_conditioned=spread > math.pi / 2.0,
        rejected_count=rejected,
    )


_seeds = st.integers(0, 2**32 - 1)
_DETECTION_KINDS = ["inside", "sample", "start", "end", "before", "after", "other node"]


@st.composite
def _anchor_cases(draw):
    """A trajectory, extrinsic and detections that reach every branch of
    anchor_node: detections at and outside the span ends, on sample times,
    over the covariance threshold and on another node; with flip, board
    rotations that straddle the hemispheres."""
    rng = np.random.default_rng(draw(_seeds))
    n = draw(st.integers(1, 12))
    flip = draw(st.booleans())
    t = np.cumsum(rng.uniform(0.01, 0.3, n)) - rng.uniform(0.0, 1.0)
    pos = np.cumsum(rng.normal(0.0, 0.05, size=(n, 3)), axis=0)
    axis = rng.normal(size=3)
    if flip:  # small turns about one axis, so the board is near a half turn
        quat = np.array([quat_from_axis_angle(axis, rng.normal(0.0, 0.02)) for _ in range(n)])
        ext_rot = quat_from_axis_angle(axis, 0.01)
    else:  # raw quaternions of any norm and sign, as in a trajectory file
        quat = rng.normal(size=(n, 4)) * rng.choice([-1.0, 1.0, 2.0], size=(n, 1))
        ext_rot = rng.normal(size=4)
    cov = rng.choice([0.0, 0.005, 0.01, 0.02], size=n)
    traj = VioTrajectory("n", t, pos, quat, cov)
    ext = Extrinsic("n", Pose3(ext_rot, rng.uniform(-0.2, 0.2, size=3)))
    dets = []
    for kind in draw(st.lists(st.sampled_from(_DETECTION_KINDS), max_size=16)):
        ti = {
            "inside": traj.t_start + rng.uniform() * (traj.t_end - traj.t_start),
            "sample": float(rng.choice(t)),
            "start": traj.t_start,
            "end": traj.t_end,
            "before": traj.t_start - rng.uniform(1e-9, 1.0),
            "after": traj.t_end + rng.uniform(1e-9, 1.0),
            "other node": float(rng.choice(t)),
        }[kind]
        # canonical forms of rotations near a half turn fall in either hemisphere
        rot = quat_from_axis_angle(axis, math.pi + rng.normal(0.0, 0.05)) if flip else rng.normal(size=4)
        node = "other" if kind == "other node" else "n"
        dets.append(TagDetection(node, ti, Pose3(rot, rng.normal(size=3))))
    return traj, ext, dets, draw(st.sampled_from([0.01, 0.005, 1.0]))


def _result_fields(res):
    return (
        res.node_id,
        res.T_world_tag.translation.tobytes(),
        res.T_world_tag.rotation.tobytes(),
        res.detection_count,
        res.rejected_count,
        struct.pack("<dd", res.position_rms, res.rotation_rms),
        res.ill_conditioned,
    )


class TestRowPassMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(_anchor_cases())
    def test_anchor_node(self, case):
        traj, ext, dets, threshold = case
        try:
            expected = _anchor_node_loop(traj, ext, dets, threshold)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                anchor_node(traj, ext, dets, threshold)
            return
        assert _result_fields(anchor_node(traj, ext, dets, threshold)) == _result_fields(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_seeds,
        sizes=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        ties=st.booleans(),
    )
    def test_save_trajectories(self, tmp_path_factory, seed, sizes, ties):
        # raw quaternions of any norm and sign, with w == 0 rows, and times
        # that nodes may share, so that the sort's ties are kept
        rng = np.random.default_rng(seed)
        trajs = {}
        for k, n in enumerate(sizes):
            t = np.arange(n) * 0.1 if ties else np.cumsum(rng.uniform(0.01, 0.2, n))
            quat = rng.normal(size=(n, 4)) * rng.choice([-1.0, 1.0, 1e-3, 1e3], size=(n, 1))
            quat[rng.random(n) < 0.3, 0] = 0.0
            cov = rng.uniform(0.0, 0.02, n)
            trajs[f"node{k}"] = VioTrajectory(f"node{k}", t, rng.normal(size=(n, 3)), quat, cov)
        root = tmp_path_factory.mktemp("trajectories")
        save_trajectories(root / "rows.jsonl", trajs)
        _save_trajectories_loop(root / "loop.jsonl", trajs)
        assert (root / "rows.jsonl").read_bytes() == (root / "loop.jsonl").read_bytes()


def _save_trajectories_loop(path, trajs):
    records = []
    for traj in trajs.values():
        for i in range(len(traj.t)):
            records.append(
                {
                    "node": traj.node_id,
                    "t": float(traj.t[i]),
                    "pose": Pose3(traj.quat[i], traj.pos[i]).to_list(),
                    "cov_trace": float(traj.cov_trace[i]),
                }
            )
    records.sort(key=lambda r: (r["t"], r["node"]))
    write_jsonl(path, records)
