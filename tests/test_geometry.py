import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation, Slerp

from mobman.geometry import (
    DegeneratePitchError,
    Pose2,
    Pose3,
    dist_se2,
    geodesic_so3,
    quat_canonical,
    quat_conj,
    quat_from_axis_angle,
    quat_mul,
    quat_rotate,
    quat_to_matrix,
    rot_z,
    slerp,
    wrap_angle,
    yaw_project,
)


def random_quat(rng):
    return quat_canonical(rng.normal(size=4))


def random_pose3(rng):
    return Pose3(random_quat(rng), rng.uniform(-3, 3, size=3))


# wxyz <-> scipy's xyzw
def to_scipy(q):
    return Rotation.from_quat([q[1], q[2], q[3], q[0]])


class TestQuaternions:
    def test_canonical_unit_norm_and_hemisphere(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = quat_canonical(rng.normal(size=4))
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12
            assert q[0] >= 0.0
            # idempotent
            assert np.allclose(quat_canonical(q), q)

    def test_canonical_w_zero_tiebreak(self):
        q = quat_canonical(np.array([0.0, -1.0, 0.0, 0.0]))
        assert q[1] > 0.0
        assert np.allclose(quat_canonical(-q), q)

    def test_canonical_rejects_zero(self):
        with pytest.raises(ValueError):
            quat_canonical(np.zeros(4))

    def test_mul_matches_rotation_composition(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_quat(rng), random_quat(rng)
            R = quat_to_matrix(quat_mul(a, b))
            R_ref = quat_to_matrix(a) @ quat_to_matrix(b)
            assert np.max(np.abs(R - R_ref)) < 1e-12

    def test_rotate_matches_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = random_quat(rng)
            v = rng.normal(size=3)
            assert np.max(np.abs(quat_rotate(q, v) - quat_to_matrix(q) @ v)) < 1e-12

    def test_conj_is_inverse(self):
        rng = np.random.default_rng(5)
        q = random_quat(rng)
        assert np.allclose(quat_mul(q, quat_conj(q)), [1, 0, 0, 0], atol=1e-12)


class TestSlerp:
    def test_endpoints(self):
        rng = np.random.default_rng(6)
        q0, q1 = random_quat(rng), random_quat(rng)
        assert np.allclose(slerp(q0, q1, 0.0), q0, atol=1e-12)
        d = 1.0 if np.dot(q0, q1) >= 0 else -1.0
        assert np.allclose(slerp(q0, q1, 1.0), d * q1, atol=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            q0, q1 = random_quat(rng), random_quat(rng)
            s = rng.uniform()
            ours = slerp(q0, q1, s)
            ref = Slerp(
                [0.0, 1.0], Rotation.concatenate([to_scipy(q0), to_scipy(q1)])
            )(s)
            x, y, z, w = ref.as_quat()
            assert geodesic_so3(ours, np.array([w, x, y, z])) < 1e-9

    def test_hemisphere_invariance(self):
        rng = np.random.default_rng(8)
        q0, q1 = random_quat(rng), random_quat(rng)
        a = slerp(q0, q1, 0.3)
        b = slerp(q0, -q1, 0.3)
        assert geodesic_so3(a, b) < 1e-12

    def test_antipodal_fallback_finite(self):
        q0 = np.array([1.0, 0.0, 0.0, 0.0])
        q1 = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), math.pi)
        out = slerp(q0, q1, 0.5)
        assert np.all(np.isfinite(out))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_identical_inputs(self):
        q = quat_from_axis_angle(np.array([1.0, 1.0, 0.0]), 0.7)
        assert np.allclose(slerp(q, q, 0.42), q, atol=1e-12)


class TestGeodesic:
    def test_known_angle(self):
        q0 = np.array([1.0, 0.0, 0.0, 0.0])
        for ang in (0.0, 0.3, 1.5, math.pi - 0.01):
            q1 = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), ang)
            assert abs(geodesic_so3(q0, q1) - ang) < 1e-9

    def test_sign_invariance(self):
        rng = np.random.default_rng(9)
        q0, q1 = random_quat(rng), random_quat(rng)
        assert abs(geodesic_so3(q0, q1) - geodesic_so3(q0, -q1)) < 1e-12


class TestWrapAngle:
    def test_range_and_ties(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0
        rng = np.random.default_rng(10)
        for th in rng.uniform(-20, 20, size=200):
            w = wrap_angle(th)
            assert -math.pi < w <= math.pi
            assert abs(math.sin(w) - math.sin(th)) < 1e-12
            assert abs(math.cos(w) - math.cos(th)) < 1e-12


class TestPose3:
    def test_compose_matches_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = random_pose3(rng), random_pose3(rng)
            M = a.compose(b).as_matrix()
            assert np.max(np.abs(M - a.as_matrix() @ b.as_matrix())) < 1e-10

    def test_inverse_matches_matrix_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = random_pose3(rng)
            M = a.inverse().as_matrix()
            assert np.max(np.abs(M - np.linalg.inv(a.as_matrix()))) < 1e-10

    def test_identity_neutral(self):
        rng = np.random.default_rng(14)
        a = random_pose3(rng)
        assert np.max(np.abs(a.compose(Pose3()).as_matrix() - a.as_matrix())) < 1e-12
        assert np.max(np.abs(Pose3().compose(a).as_matrix() - a.as_matrix())) < 1e-12

    def test_list_round_trip(self):
        rng = np.random.default_rng(15)
        a = random_pose3(rng)
        b = Pose3.from_list(a.to_list())
        assert np.allclose(a.translation, b.translation)
        assert np.allclose(a.rotation, b.rotation)
        with pytest.raises(ValueError):
            Pose3.from_list([0.0] * 6)


_unit = st.floats(-1.0, 1.0, allow_nan=False)
# quaternion components before normalisation; w = 0 exactly is drawn on
# purpose, since canonicalisation breaks that tie by the vector part's sign
_quats = st.tuples(st.one_of(st.just(0.0), _unit), _unit, _unit, _unit).filter(
    lambda q: sum(c * c for c in q) > 1e-6
)
_poses = st.builds(
    lambda q, t: Pose3(np.array(q), np.array(t)),
    _quats,
    st.tuples(*[st.floats(-10.0, 10.0, allow_nan=False)] * 3),
)


def _assert_same_pose(a: Pose3, b: Pose3, tol: float) -> None:
    # q and -q are one rotation: where rounding moves w across 0, the
    # canonical forms of one rotation differ in sign
    dq = min(np.max(np.abs(a.rotation - b.rotation)), np.max(np.abs(a.rotation + b.rotation)))
    assert dq < tol
    assert np.max(np.abs(a.translation - b.translation)) < tol


class TestPose3Properties:
    @given(_poses, _poses, _poses)
    def test_compose_associative(self, a, b, c):
        _assert_same_pose(a.compose(b).compose(c), a.compose(b.compose(c)), 1e-9)

    @given(_poses)
    def test_inverse_composes_to_identity(self, a):
        _assert_same_pose(a.compose(a.inverse()), Pose3(), 1e-9)
        _assert_same_pose(a.inverse().compose(a), Pose3(), 1e-9)

    @given(_poses)
    def test_list_round_trip(self, a):
        b = Pose3.from_list(a.to_list())
        # an exact w = 0 survives the trip, so the sign must too
        assert np.max(np.abs(b.rotation - a.rotation)) < 1e-15
        assert np.array_equal(b.translation, a.translation)


class TestPose2:
    def test_group_identities(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
            b = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
            ab_inv = a.compose(a.inverse())
            assert abs(ab_inv.x) < 1e-12 and abs(ab_inv.y) < 1e-12
            assert abs(wrap_angle(ab_inv.theta)) < 1e-12
            rel = b.relative_to(a)
            back = a.compose(rel)
            assert abs(back.x - b.x) < 1e-12 and abs(back.y - b.y) < 1e-12
            assert abs(wrap_angle(back.theta - b.theta)) < 1e-12

    def test_matches_lifted_se3(self):
        rng = np.random.default_rng(18)
        a = Pose2(0.5, -1.0, 0.8)
        b = Pose2(1.0, 0.2, -2.4)
        lifted = a.lift().compose(b.lift())
        flat = a.compose(b)
        assert np.allclose(lifted.translation[:2], [flat.x, flat.y], atol=1e-12)
        assert abs(wrap_angle(yaw_project(lifted).theta - flat.theta)) < 1e-12

    def test_theta_wrapped_on_construction(self):
        p = Pose2(0, 0, 3 * math.pi)
        assert p.theta == pytest.approx(math.pi)


class TestDistSe2:
    def test_translation_only(self):
        assert dist_se2(Pose2(0, 0, 0), Pose2(3, 4, 0)) == pytest.approx(5.0)

    def test_heading_fold(self):
        d = dist_se2(Pose2(0, 0, 0), Pose2(0, 0, 1.0), fold_radius=0.5)
        assert d == pytest.approx(0.5)

    def test_wraps_heading(self):
        d = dist_se2(Pose2(0, 0, -math.pi + 0.05), Pose2(0, 0, math.pi - 0.05))
        assert d == pytest.approx(0.5 * 0.1, abs=1e-9)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            dist_se2(Pose2(), Pose2(), fold_radius=0.0)


class TestYawProject:
    def test_level_pose(self):
        p = Pose2(1.0, 2.0, 0.7).lift(0.9)
        flat = yaw_project(p)
        assert flat.x == pytest.approx(1.0)
        assert flat.y == pytest.approx(2.0)
        assert flat.theta == pytest.approx(0.7)

    def test_small_pitch_keeps_heading(self):
        tilt = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.2)
        q = quat_mul(rot_z(0.7), tilt)
        assert yaw_project(Pose3(q, np.zeros(3))).theta == pytest.approx(0.7, abs=1e-9)

    def test_near_vertical_raises(self):
        q = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), math.pi / 2 - 0.001)
        with pytest.raises(DegeneratePitchError):
            yaw_project(Pose3(q, np.zeros(3)))
