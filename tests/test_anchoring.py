import math

import numpy as np
import pytest

from mobman.anchoring import (
    CHEST,
    HAND,
    Extrinsic,
    TagDetection,
    TimestampError,
    VioTrajectory,
    anchor_node,
    average_poses,
    board_pose_in_world,
    cross_node_transform,
    load_detections,
    load_extrinsics,
    load_trajectories,
    rotation_spread,
    save_detections,
    save_extrinsics,
    save_trajectories,
)
from mobman.geometry import Pose3, geodesic_so3, quat_canonical, quat_from_axis_angle, quat_mul


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
        mid = traj.sample_at(0.25)
        assert np.allclose(mid.translation, [0.5, 0, 0])

    def test_sample_slerps_rotation(self):
        a = Pose3(np.array([1.0, 0, 0, 0]), np.zeros(3))
        b = Pose3(quat_from_axis_angle(np.array([0, 0, 1.0]), 1.0), np.zeros(3))
        traj = make_traj("n", [a, b], t=[0.0, 1.0])
        q = traj.sample_at(0.5).rotation
        assert geodesic_so3(q, quat_from_axis_angle(np.array([0, 0, 1.0]), 0.5)) < 1e-9

    def test_out_of_span_raises(self):
        rng = np.random.default_rng(1)
        traj = make_traj("n", [random_pose(rng), random_pose(rng)])
        with pytest.raises(TimestampError):
            traj.sample_at(-0.1)
        with pytest.raises(TimestampError):
            traj.cov_at(1.1)


class TestBoardPose:
    def test_matches_matrix_chain(self):
        rng = np.random.default_rng(2)
        world_imu = random_pose(rng)
        ext = Extrinsic("n", random_pose(rng))
        det_pose = random_pose(rng)
        traj = make_traj("n", [world_imu, world_imu], t=[0.0, 1.0])
        got = board_pose_in_world(traj, ext, TagDetection("n", 0.5, det_pose))
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
        mean = average_poses([p] * 7)
        assert np.allclose(mean.translation, p.translation, atol=1e-12)
        assert geodesic_so3(mean.rotation, p.rotation) < 1e-12

    def test_hemisphere_alignment(self):
        p = random_pose(np.random.default_rng(4))
        flipped = Pose3(-p.rotation, p.translation)
        mean = average_poses([p, flipped, p])
        assert geodesic_so3(mean.rotation, p.rotation) < 1e-12

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
        mean = average_poses(poses)
        assert np.linalg.norm(mean.translation - center.translation) < 1e-3
        assert geodesic_so3(mean.rotation, center.rotation) < 2e-3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_poses([])

    def test_rotation_spread(self):
        q0 = Pose3()
        q1 = Pose3(quat_from_axis_angle(np.array([0, 0, 1.0]), 0.4), np.zeros(3))
        assert rotation_spread([q0, q1]) == pytest.approx(0.4, abs=1e-9)
        assert rotation_spread([]) == 0.0


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
