import math
import re
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation, Slerp

from mobman import geometry
from mobman.geometry import (
    DegeneratePitchError,
    Pose2,
    Pose3,
    compose_floats,
    compose_rows,
    dist_se2,
    dot4_floats,
    geodesic_of_dot,
    geodesic_so3,
    norm3_floats,
    norm4_floats,
    quat_canonical,
    quat_canonical_floats,
    quat_canonical_rows,
    quat_conj_rows,
    quat_from_axis_angle,
    quat_from_axis_angle_rows,
    quat_mul_floats,
    quat_mul_rows,
    quat_rotate_floats,
    quat_rotate_rows,
    quat_to_matrix,
    relative_floats,
    rot_z,
    slerp,
    slerp_floats,
    slerp_rows,
    wrap_angle,
    yaw_project_rows,
)

import pose3_reference as ref


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
            R = quat_to_matrix(np.array(quat_mul_floats(*a, *b)))
            R_ref = quat_to_matrix(a) @ quat_to_matrix(b)
            assert np.max(np.abs(R - R_ref)) < 1e-12

    def test_rotate_matches_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = random_quat(rng)
            v = rng.normal(size=3)
            assert np.max(np.abs(np.array(quat_rotate_floats(*q, *v)) - quat_to_matrix(q) @ v)) < 1e-12

    def test_conj_is_inverse(self):
        rng = np.random.default_rng(5)
        q = random_quat(rng)
        assert np.allclose(quat_mul_floats(*q, *quat_conj_rows(q)), [1, 0, 0, 0], atol=1e-12)


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
    """The Pose2 record, and compose_floats and relative_floats as its group."""

    def test_group_identities(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = astuple(Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi)))
            b = astuple(Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi)))
            # the identity relative to a is a's inverse
            x, y, th = compose_floats(*a, *relative_floats(0.0, 0.0, 0.0, *a))
            assert abs(x) < 1e-12 and abs(y) < 1e-12
            assert abs(wrap_angle(th)) < 1e-12
            x, y, th = compose_floats(*a, *relative_floats(*b, *a))
            assert abs(x - b[0]) < 1e-12 and abs(y - b[1]) < 1e-12
            assert abs(wrap_angle(th - b[2])) < 1e-12

    def test_matches_lifted_se3(self):
        a = Pose2(0.5, -1.0, 0.8)
        b = Pose2(1.0, 0.2, -2.4)
        lifted = a.lift().compose(b.lift())
        x, y, th = compose_floats(*astuple(a), *astuple(b))
        assert np.allclose(lifted.translation[:2], [x, y], atol=1e-12)
        assert abs(wrap_angle(_yaw(lifted).theta - th)) < 1e-12

    def test_theta_wrapped_on_construction(self):
        p = Pose2(0, 0, 3 * math.pi)
        assert p.theta == pytest.approx(math.pi)


class TestDistSe2:
    def test_translation_only(self):
        assert dist_se2((0, 0, 0), (3, 4, 0)) == pytest.approx(5.0)

    def test_heading_fold(self):
        d = dist_se2((0, 0, 0), (0, 0, 1.0))
        assert d == pytest.approx(0.5)

    def test_wraps_heading(self):
        a, b = Pose2(0, 0, -math.pi + 0.05), Pose2(0, 0, math.pi - 0.05)
        d = dist_se2(astuple(a), astuple(b))
        assert d == pytest.approx(0.5 * 0.1, abs=1e-9)


def _yaw(p: Pose3) -> Pose2:
    return Pose2.of_wrapped(*yaw_project_rows(p.translation[None], p.rotation[None])[0].tolist())


class TestYawProject:
    def test_level_pose(self):
        p = Pose2(1.0, 2.0, 0.7).lift(0.9)
        flat = _yaw(p)
        assert flat.x == pytest.approx(1.0)
        assert flat.y == pytest.approx(2.0)
        assert flat.theta == pytest.approx(0.7)

    def test_small_pitch_keeps_heading(self):
        tilt = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.2)
        q = quat_mul_floats(*rot_z(0.7), *tilt)
        assert _yaw(Pose3(q, np.zeros(3))).theta == pytest.approx(0.7, abs=1e-9)

    def test_near_vertical_raises(self):
        q = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), math.pi / 2 - 0.001)
        with pytest.raises(DegeneratePitchError):
            _yaw(Pose3(q, np.zeros(3)))


# ---------------------------------------------------------------------------
# Row-batch helpers: each must return the bytes of its scalar counterpart,
# row for row, so tobytes comparisons also catch a flipped signed zero.
# ---------------------------------------------------------------------------


def _yaw_project(p: Pose3) -> Pose2:
    """The scalar ground-plane projection that yaw_project_rows batches."""
    fwd = ref.quat_rotate(p.rotation, np.array([1.0, 0.0, 0.0]))
    horiz = math.hypot(fwd[0], fwd[1])
    if horiz < math.cos(math.radians(89.0)):
        raise DegeneratePitchError("forward axis is near-vertical; yaw undefined")
    return Pose2(p.translation[0], p.translation[1], math.atan2(fwd[1], fwd[0]))


# half-angles of yaw rotations whose heading lies at or next to the +-pi wrap
_NEAR_HALF_PI = [
    math.pi / 2,
    math.nextafter(math.pi / 2, 0.0),
    math.nextafter(math.pi / 2, 4.0),
    math.pi / 2 - 1e-9,
    math.pi / 2 + 1e-9,
    -math.pi / 2,
]


def _assert_rows_match(rows_call, scalar_call, n):
    """rows_call() equals scalar_call(i) stacked over i < n, or both raise alike."""
    try:
        expected = np.stack([np.asarray(scalar_call(i), dtype=float) for i in range(n)])
    except ValueError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            rows_call()
        return
    got = np.asarray(rows_call(), dtype=float)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# components with signed zeros, w < 0 and w == 0 drawn on purpose
_component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
_quat_rows = st.lists(st.tuples(*[_component] * 4), min_size=1, max_size=12)
_vec_rows = st.lists(st.tuples(*[_component] * 3), min_size=1, max_size=12)


def _matching_rows(rows, n):
    """n rows, repeating the drawn ones as needed, as a C-ordered array."""
    return np.array([rows[i % len(rows)] for i in range(n)], dtype=float)


@st.composite
def _slerp_cases(draw):
    """(q0, q1, s) rows that reach every branch of slerp."""
    cases = []
    for _ in range(draw(st.integers(1, 10))):
        q0 = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)))
        if not np.dot(q0, q0) > 1e-6:
            q0 = np.array([1.0, 0.0, 0.0, 0.0])
        q0 = quat_canonical(q0) * draw(st.sampled_from([1.0, 1.0, 2.5, 1e-13]))
        w, x, y, z = q0
        kind = draw(st.sampled_from(["same", "opposite", "orthogonal", "general"]))
        if kind == "same":  # dot > 1 - 1e-12: normalised lerp
            q1 = q0.copy()
        elif kind == "opposite":  # aligned to q0 first
            q1 = -q0
        elif kind == "orthogonal":  # dot < 1e-6: normalised lerp near 180 degrees
            q1 = np.array([-x, w, -z, y])
        else:
            q1 = quat_canonical(np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4))) + 1e-3)
        s = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        cases.append((q0, q1, s))
    return cases


class TestRowHelpers:
    @given(_quat_rows)
    @example([(0.0, -0.0, 0.0, -2.0), (-0.0, 0.0, -3.0, 1.0), (0.0, 0.0, 0.0, 1e-3)])
    @example([(-1.0, 0.5, -0.0, 0.0)])
    @example([(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
    def test_canonical_rows(self, rows):
        q = np.array(rows, dtype=float)
        _assert_rows_match(lambda: quat_canonical_rows(q), lambda i: quat_canonical(q[i]), len(q))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_canonical_rows_non_finite_raises_alike(self, bad):
        q = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, bad, 0.1, 0.0]])
        _assert_rows_match(lambda: quat_canonical_rows(q), lambda i: quat_canonical(q[i]), len(q))
        with pytest.raises(ValueError, match="zero or non-finite"):
            quat_canonical_rows(q)

    @given(_quat_rows, _quat_rows)
    def test_mul_and_conj_rows(self, rows, other):
        a = np.array(rows, dtype=float)
        b = _matching_rows(other, len(a))
        _assert_rows_match(lambda: quat_mul_rows(a, b), lambda i: quat_mul_floats(*a[i], *b[i]), len(a))
        # one quaternion against every row, as map_hand_into_chest_world uses it
        _assert_rows_match(lambda: quat_mul_rows(a[0], b), lambda i: quat_mul_floats(*a[0], *b[i]), len(a))
        _assert_rows_match(lambda: quat_conj_rows(a), lambda i: ref.quat_conj(a[i]), len(a))

    @given(_quat_rows, _vec_rows)
    def test_rotate_rows(self, rows, vecs):
        q = np.array(rows, dtype=float)
        v = _matching_rows(vecs, len(q))
        _assert_rows_match(lambda: quat_rotate_rows(q, v), lambda i: quat_rotate_floats(*q[i], *v[i]), len(q))
        _assert_rows_match(lambda: quat_rotate_rows(q[0], v), lambda i: quat_rotate_floats(*q[0], *v[i]), len(q))
        _assert_rows_match(lambda: quat_rotate_rows(q, v[0]), lambda i: quat_rotate_floats(*q[i], *v[0]), len(q))

    @given(_quat_rows, _vec_rows, _quat_rows, _vec_rows)
    @example([(0.0, -0.0, 0.0, -2.0)], [(1.0, -0.0, 0.0)], [(-1.0, 0.5, -0.0, 0.0)], [(0.0, 2.0, -3.0)])
    def test_compose_rows(self, qa_rows, pa_rows, qb_rows, pb_rows):
        # canonical rotations, as Pose3 stores them; a zero row becomes the identity
        n = len(qa_rows)

        def canonical(rows):
            q = _matching_rows(rows, n)
            q[~(np.vecdot(q, q) > 0.0)] = (1.0, 0.0, 0.0, 0.0)
            return quat_canonical_rows(q)

        qa, qb = canonical(qa_rows), canonical(qb_rows)
        pa, pb = _matching_rows(pa_rows, n), _matching_rows(pb_rows, n)

        def scalar(ia, ib):
            pose = Pose3.of_canonical(qa[ia], pa[ia]).compose(Pose3.of_canonical(qb[ib], pb[ib]))
            return np.concatenate([pose.translation, pose.rotation])

        for rows_call, scalar_call in (
            (lambda: compose_rows(pa, qa, pb, qb), lambda i: scalar(i, i)),
            (lambda: compose_rows(pa[0], qa[0], pb, qb), lambda i: scalar(0, i)),
            (lambda: compose_rows(pa, qa, pb[0], qb[0]), lambda i: scalar(i, 0)),
        ):
            _assert_rows_match(lambda: np.column_stack(rows_call()), scalar_call, n)

    @settings(derandomize=True, max_examples=200)
    @given(
        _vec_rows,
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi]),
                st.floats(-10.0, 10.0),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 4),
    )
    def test_from_axis_angle_rows(self, axes, angles, first_col):
        # non-unit axes; a zero axis becomes the x axis
        axis = _matching_rows(axes, len(angles))
        axis[~(np.vecdot(axis, axis) > 0.0)] = (1.0, 0.0, 0.0)
        angle = np.array(angles)
        _assert_rows_match(
            lambda: quat_from_axis_angle_rows(axis, angle),
            lambda i: quat_from_axis_angle(axis[i], angle[i]),
            len(angle),
        )
        # a strided axis view of an (n, 7) block, as sim's noise rows take it
        block = np.zeros((len(angle), 7))
        block[:, first_col : first_col + 3] = axis
        view = block[:, first_col : first_col + 3]
        _assert_rows_match(
            lambda: quat_from_axis_angle_rows(view, angle),
            lambda i: quat_from_axis_angle(view[i].copy(), angle[i]),
            len(angle),
        )

    @given(_slerp_cases())
    def test_slerp_rows(self, cases):
        q0 = np.array([c[0] for c in cases])
        q1 = np.array([c[1] for c in cases])
        s = np.array([c[2] for c in cases])
        _assert_rows_match(lambda: slerp_rows(q0, q1, s), lambda i: slerp(q0[i], q1[i], s[i]), len(s))

    def test_slerp_rows_takes_every_branch(self):
        q0 = np.array([[1.0, 0.0, 0.0, 0.0]] * 4)
        q1 = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],  # dot > 1 - 1e-12
                [0.0, 1.0, 0.0, 0.0],  # dot < 1e-6
                quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.5),  # general
                [-0.6, 0.8, 0.0, 0.0],  # aligned to q0, then general
            ]
        )
        for s in (0.0, 1.0, 0.3):
            sv = np.full(4, s)
            _assert_rows_match(lambda: slerp_rows(q0, q1, sv), lambda i: slerp(q0[i], q1[i], s), 4)
        tiny = q0 * 1e-13  # lerp norm below 1e-12 returns q0
        _assert_rows_match(
            lambda: slerp_rows(tiny, tiny, np.full(4, 0.5)), lambda i: slerp(tiny[i], tiny[i], 0.5), 4
        )

    @given(_quat_rows, _vec_rows)
    @example([(math.sqrt(0.5), 0.0, -math.sqrt(0.5), 0.0)], [(1.0, 2.0, 3.0)])
    @example([(0.0, 0.0, 0.0, 1.0)], [(1.0, 2.0, 3.0)])
    @example([(math.cos(h), 0.0, 0.0, math.sin(h)) for h in _NEAR_HALF_PI], [(0.5, -0.0, 1.0)])
    def test_yaw_project_rows(self, rows, vecs):
        q = np.array([r if any(r) else (1.0, 0.0, 0.0, 0.0) for r in rows], dtype=float)
        try:
            rot = quat_canonical_rows(q)
        except ValueError:
            return
        pos = _matching_rows(vecs, len(q))

        def as_row(b: Pose2) -> list[float]:
            return [b.x, b.y, b.theta]

        _assert_rows_match(
            lambda: yaw_project_rows(pos, rot),
            lambda i: as_row(_yaw_project(Pose3.of_canonical(rot[i], pos[i]))),
            len(q),
        )


# ---------------------------------------------------------------------------
# The float kernels against the array forms they replaced (pose3_reference):
# the vector turn and the SE(3) composition keep the bits of quat_rotate and
# of Pose3's compose, inverse and lift, signed zeros included.
# ---------------------------------------------------------------------------


def _pose_bits(p: Pose3) -> bytes:
    return p.rotation.tobytes() + p.translation.tobytes()


class TestFloatKernelsKeepArrayBits:
    POSES = [Pose3(q, v) for q in ref.QUATS for v in ref.VECTORS]

    def test_compose_and_inverse(self):
        for a in self.POSES:
            assert _pose_bits(a.inverse()) == _pose_bits(ref.inverse(a))
            for b in self.POSES:
                assert _pose_bits(a.compose(b)) == _pose_bits(ref.compose(a, b))

    @settings(derandomize=True, max_examples=300)
    @given(*[st.tuples(*[_component] * n) for n in (4, 3, 4, 3)])
    def test_compose_and_inverse_drawn(self, qa, pa, qb, pb):
        try:
            a, b = Pose3(qa, pa), Pose3(qb, pb)
        except ValueError:  # a quaternion whose norm is zero
            return
        assert _pose_bits(a.inverse()) == _pose_bits(ref.inverse(a))
        assert _pose_bits(a.compose(b)) == _pose_bits(ref.compose(a, b))

    @pytest.mark.parametrize(
        "angle", [0.0, -0.0, 0.7, -2.5, math.pi, -math.pi, math.nextafter(math.pi, 4.0), 2.0 * math.pi, 1e-300]
    )
    def test_rot_z_and_lift(self, angle):
        assert struct.pack("4d", *rot_z(angle)) == ref.rot_z(angle).tobytes()
        base = Pose2.of_wrapped(1.5, -0.0, wrap_angle(angle))
        assert _pose_bits(base.lift(0.9)) == _pose_bits(ref.lift(base, 0.9))

    def test_rotate_rows_single_and_broadcast(self):
        quats, vecs = np.array(ref.QUATS), np.array(ref.VECTORS)
        # a strided view, as a state array's slots 6:10 give it
        block = np.zeros((len(quats), 11))
        block[:, 6:10] = quats
        for q in (quats, block[:, 6:10]):
            for v in vecs:
                want = np.array([ref.quat_rotate(qi, v) for qi in q])
                assert quat_rotate_rows(q, v).tobytes() == want.tobytes()
                for qi, w in zip(q, want):
                    assert quat_rotate_rows(qi, v).tobytes() == w.tobytes()
            for qi in q:
                want = np.array([ref.quat_rotate(qi, v) for v in vecs])
                assert quat_rotate_rows(qi, vecs).tobytes() == want.tobytes()
            rows = np.repeat(vecs, len(q) // len(vecs) + 1, axis=0)[: len(q)]
            want = np.array([ref.quat_rotate(qi, v) for qi, v in zip(q, rows)])
            assert quat_rotate_rows(q, rows).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Buffer dots: dot4_floats, norm4_floats and norm3_floats take ndarray.dot on
# views of one preallocated buffer; each must give the bits of ndarray.dot on
# new arrays of the same floats, which the float code had used before.
# ---------------------------------------------------------------------------

# finite floats with signed zeros, subnormals and magnitudes up to 1e150
# drawn on purpose; a sum of four squares stays below the largest float
_dot_float = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, -1e150]),
    st.floats(-1e-300, 1e-300),
    st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
)
_dot_quat = st.tuples(*[_dot_float] * 4)
_dot_vec = st.tuples(*[_dot_float] * 3)


def _new_array_dot(a, b) -> float:
    """The dot product the helpers replace: ndarray.dot of two new arrays."""
    return float(np.array(a, dtype=float).dot(np.array(b, dtype=float)))


def _bits(x) -> str:
    # float.hex tells -0.0 from 0.0
    return float(x).hex()


class TestBufferDots:
    def test_buffer_view_dot_is_new_array_dot(self):
        # the premise: ddot on unit-stride views of a reused buffer rounds as
        # on a new array, at every offset the helpers use
        buf = np.empty(8)
        rng = np.random.default_rng(31)
        for _ in range(2000):
            v = (rng.normal(size=8) * 10.0 ** rng.integers(-5, 6, size=8)).tolist()
            buf[:] = v
            assert _bits(buf[:4].dot(buf[4:])) == _bits(_new_array_dot(v[:4], v[4:]))
            assert _bits(buf[:4].dot(buf[:4])) == _bits(_new_array_dot(v[:4], v[:4]))
            assert _bits(buf[:3].dot(buf[:3])) == _bits(_new_array_dot(v[:3], v[:3]))

    def test_views_have_unit_stride(self):
        for view, n in ((geometry._DOT_A, 4), (geometry._DOT_B, 4), (geometry._DOT_V3, 3)):
            assert view.shape == (n,) and view.strides == (8,) and view.flags.c_contiguous
            assert np.shares_memory(view, geometry._DOT_BUF)

    @given(_dot_quat, _dot_quat)
    @example((-0.0, -0.0, -0.0, -0.0), (0.0, 0.0, 0.0, 0.0))
    @example((5e-324, -5e-324, 1e-300, 0.0), (1e150, 1e150, -1e150, 5e-324))
    def test_dot4_floats(self, a, b):
        assert _bits(dot4_floats(*a, *b)) == _bits(_new_array_dot(a, b))

    @given(_dot_quat)
    @example((-0.0, 0.0, -0.0, 0.0))
    @example((5e-324, 5e-324, 0.0, 0.0))
    def test_norm4_floats(self, q):
        assert _bits(norm4_floats(*q)) == _bits(math.sqrt(_new_array_dot(q, q)))

    @given(_dot_vec)
    @example((-0.0, -0.0, -0.0))
    @example((1e150, -1e150, 1e150))
    def test_norm3_floats(self, v):
        assert _bits(norm3_floats(*v)) == _bits(math.sqrt(_new_array_dot(v, v)))

    @given(_dot_quat, _dot_quat, _dot_vec)
    def test_nested_calls(self, a, b, v):
        # an argument that is another helper's result is computed before the
        # outer helper packs the buffer
        n4, n3 = math.sqrt(_new_array_dot(a, a)), math.sqrt(_new_array_dot(v, v))
        got = dot4_floats(norm4_floats(*a), norm3_floats(*v), *a[2:], *b)
        assert _bits(got) == _bits(_new_array_dot((n4, n3, *a[2:]), b))
        got = norm3_floats(norm4_floats(*a), norm4_floats(*b), v[2])
        want = (n4, math.sqrt(_new_array_dot(b, b)), v[2])
        assert _bits(got) == _bits(math.sqrt(_new_array_dot(want, want)))

    @given(_quat_rows)
    def test_quat_canonical_floats(self, rows):
        for q in rows:
            try:
                want = quat_canonical(np.array(q))
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    quat_canonical_floats(*q)
                continue
            assert np.array(quat_canonical_floats(*q)).tobytes() == want.tobytes()

    @given(_slerp_cases())
    def test_slerp_floats_chained(self, cases):
        # slerp_floats on dot4_floats' dot gives slerp's bits, and its result
        # fed to quat_canonical_floats, as the plant's substep chains them
        for q0, q1, s in cases:
            a, b = q0.tolist(), q1.tolist()
            got = slerp_floats(a, b, s, dot4_floats(*a, *b))
            want = slerp(q0, q1, s)
            assert np.array(got).tobytes() == want.tobytes()
            assert (
                np.array(quat_canonical_floats(*got)).tobytes() == quat_canonical(want).tobytes()
            )

    @given(_quat_rows, _quat_rows)
    def test_geodesic_so3_of_tuples_and_arrays(self, rows, other):
        # tuples, as state_match passes state slots, and (4,) arrays, as the
        # benchmark passes Pose3 rotations, give the dot of new arrays
        for a, b in zip(rows, other):
            want = _bits(geodesic_of_dot(_new_array_dot(a, b)))
            assert _bits(geodesic_so3(a, b)) == want
            assert _bits(geodesic_so3(np.array(a), np.array(b))) == want
