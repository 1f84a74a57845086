import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import savgol_filter

from mobman import cli, pipeline
from mobman.anchoring import VioTrajectory
from mobman.executor import advance_floats
from mobman.jsonl import read_jsonl, write_jsonl
from mobman.geometry import (
    Pose2,
    Pose3,
    geodesic_so3,
    quat_canonical,
    quat_canonical_rows,
    quat_conj,
    quat_from_axis_angle,
    quat_mul,
    rot_z,
    slerp,
    wrap_angle,
)
from mobman.pipeline import (
    DemoDataset,
    DemoStep,
    GripperCalib,
    PipelineConfig,
    PipelineError,
    RawSession,
    assemble_dataset,
    decouple_rows,
    grip_from_markers,
    integrate_labels,
    lateral_quantile,
    load_dataset,
    make_action_labels,
    map_hand_into_chest_world,
    project_nonholonomic,
    quality_filter,
    resample_to_grid,
    save_dataset,
    savgol_smooth,
    smooth_pose_arrays,
)
from mobman.sim import SCENARIO_NAMES, make_scenario, scripted_expert

import se2_reference as se2

CALIB = GripperCalib(d_closed=0.01, d_open=0.09)


def make_traj(node, t, poses, cov=1e-4):
    return VioTrajectory(
        node_id=node,
        t=np.asarray(t, float),
        pos=np.array([p.translation for p in poses]),
        quat=np.array([p.rotation for p in poses]),
        cov_trace=np.full(len(t), cov),
    )


class TestSavgol:
    def test_matches_scipy_interior(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=60)
        ours = savgol_smooth(y, window=9, order=2)
        ref = savgol_filter(y, 9, 2)
        # scipy handles edges by polynomial extrapolation; interiors agree
        assert np.max(np.abs(ours[4:-4] - ref[4:-4])) < 1e-10

    def test_reproduces_polynomials(self):
        x = np.arange(40, dtype=float)
        for coeffs in ([3.0], [1.0, -0.5], [0.2, 1.0, 0.03]):
            y = np.polyval(coeffs[::-1], x)
            assert np.max(np.abs(savgol_smooth(y, 9, 2) - y)) < 1e-8

    def test_validates_window(self):
        y = np.zeros(20)
        with pytest.raises(ValueError):
            savgol_smooth(y, window=8)
        with pytest.raises(ValueError):
            savgol_smooth(y, window=3)
        with pytest.raises(ValueError):
            savgol_smooth(np.zeros(5), window=9)


class TestResample:
    def test_exact_at_sample_points(self):
        t = np.arange(0, 21) * 0.05  # 20 Hz for 1 s
        poses = [Pose2(0.1 * ti, 0.0, 0.0).lift(0.9) for ti in t]
        chest = make_traj("chest", t, poses)
        hand = make_traj("hand", t, poses)
        session = RawSession("s", chest, hand, Pose3(), t, np.full(len(t), 0.05))
        out = resample_to_grid(session)
        assert np.allclose(out.t, np.arange(11) * 0.1, atol=1e-9)
        assert np.allclose(out.chest_pos[:, 0], 0.1 * out.t, atol=1e-12)

    def test_overlap_window(self):
        t_a = np.arange(0, 11) * 0.1
        t_b = np.arange(0, 11) * 0.1 + 0.35
        poses_a = [Pose3(np.array([1.0, 0, 0, 0]), np.array([ti, 0, 0])) for ti in t_a]
        poses_b = [Pose3(np.array([1.0, 0, 0, 0]), np.array([ti, 0, 0])) for ti in t_b]
        session = RawSession(
            "s",
            make_traj("chest", t_a, poses_a),
            make_traj("hand", t_b, poses_b),
            Pose3(),
            t_a,
            np.full(len(t_a), 0.05),
        )
        out = resample_to_grid(session)
        assert out.t[0] >= 0.35 - 1e-9
        assert out.t[-1] <= 1.0 + 1e-9

    def test_no_overlap_raises(self):
        t_a = np.arange(0, 5) * 0.1
        t_b = t_a + 10.0
        mk = lambda t: [Pose3(np.array([1.0, 0, 0, 0]), np.array([ti, 0, 0])) for ti in t]
        session = RawSession(
            "s",
            make_traj("chest", t_a, mk(t_a)),
            make_traj("hand", t_b, mk(t_b)),
            Pose3(),
            t_a,
            np.full(len(t_a), 0.05),
        )
        with pytest.raises(PipelineError):
            resample_to_grid(session)


def decouple_step(chest_world: Pose3, hand_world: Pose3) -> Pose3:
    """decouple_rows on one pair of poses."""
    pos, rot = decouple_rows(
        chest_world.translation[None],
        chest_world.rotation[None],
        hand_world.translation[None],
        hand_world.rotation[None],
    )
    return Pose3.of_canonical(rot[0], pos[0])


class TestDecoupling:
    def test_relative_pose(self):
        rng = np.random.default_rng(1)
        chest = Pose3(
            quat_from_axis_angle(rng.normal(size=3), 0.7), rng.uniform(-1, 1, 3)
        )
        hand = Pose3(
            quat_from_axis_angle(rng.normal(size=3), -0.4), rng.uniform(-1, 1, 3)
        )
        rel = decouple_step(chest, hand)
        assert np.max(np.abs(chest.compose(rel).as_matrix() - hand.as_matrix())) < 1e-10

    def test_invariant_to_shared_locomotion(self):
        # moving both frames by any rigid transform leaves the relative pose fixed
        rng = np.random.default_rng(2)
        for _ in range(20):
            chest = Pose3(
                quat_from_axis_angle(rng.normal(size=3), rng.uniform(-2, 2)),
                rng.uniform(-1, 1, 3),
            )
            hand = Pose3(
                quat_from_axis_angle(rng.normal(size=3), rng.uniform(-2, 2)),
                rng.uniform(-1, 1, 3),
            )
            g = Pose3(
                quat_from_axis_angle(rng.normal(size=3), rng.uniform(-2, 2)),
                rng.uniform(-5, 5, 3),
            )
            rel0 = decouple_step(chest, hand)
            rel1 = decouple_step(g.compose(chest), g.compose(hand))
            assert np.max(np.abs(rel0.as_matrix() - rel1.as_matrix())) < 1e-10

    def test_cross_node_mapping(self):
        rng = np.random.default_rng(3)
        g = Pose3(quat_from_axis_angle(rng.normal(size=3), 1.1), rng.uniform(-2, 2, 3))
        t = np.array([0.0, 1.0])
        hand_world = [
            Pose3(quat_from_axis_angle(rng.normal(size=3), 0.3), rng.uniform(-1, 1, 3))
            for _ in t
        ]
        hand_own = [g.inverse().compose(p) for p in hand_world]
        mapped = map_hand_into_chest_world(make_traj("hand", t, hand_own), g)
        for i in range(len(t)):
            assert np.allclose(mapped.pos[i], hand_world[i].translation, atol=1e-12)


class TestNonholonomicProjection:
    def test_straight_line(self):
        poses = [Pose2(0.03 * i, 0.0, 0.0) for i in range(10)]
        cmds, residual = project_nonholonomic(poses, dt=0.1)
        assert cmds.shape == (9, 2)
        assert np.max(np.abs(cmds[:, 0] - 0.3)) < 1e-12
        assert np.max(np.abs(cmds[:, 1])) < 1e-12
        assert np.max(np.abs(residual)) < 1e-12

    def test_pure_lateral_is_residual(self):
        poses = [Pose2(0.0, 0.01 * i, 0.0) for i in range(5)]
        cmds, residual = project_nonholonomic(poses, dt=0.1)
        assert np.max(np.abs(cmds[:, 0])) < 1e-12
        assert np.allclose(residual, 0.1)

    def test_heading_rotates_decomposition(self):
        th = 0.6
        step = 0.05
        poses = [
            Pose2(step * i * math.cos(th), step * i * math.sin(th), th) for i in range(4)
        ]
        cmds, residual = project_nonholonomic(poses, dt=0.1)
        assert np.max(np.abs(cmds[:, 0] - step / 0.1)) < 1e-12
        assert np.max(np.abs(residual)) < 1e-12

    def test_omega_wraps(self):
        poses = [Pose2(0, 0, math.pi - 0.05), Pose2(0, 0, -math.pi + 0.05)]
        cmds, _ = project_nonholonomic(poses, dt=0.1)
        assert cmds[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_needs_two_poses(self):
        with pytest.raises(ValueError):
            project_nonholonomic([Pose2()])


class TestLateralQuantile:
    def test_nearest_rank(self):
        r = np.array([0.01, -0.02, 0.03, -0.04])
        assert lateral_quantile(r, q=0.5) == pytest.approx(0.02)
        assert lateral_quantile(r, q=1.0) == pytest.approx(0.04)

    def test_validates(self):
        with pytest.raises(ValueError):
            lateral_quantile(np.array([]))
        with pytest.raises(ValueError):
            lateral_quantile(np.array([0.1]), q=0.0)


class TestGrip:
    def test_linear_map_and_clamp(self):
        assert grip_from_markers(0.01, CALIB) == 0.0
        assert grip_from_markers(0.09, CALIB) == 1.0
        assert grip_from_markers(0.05, CALIB) == pytest.approx(0.5)
        assert grip_from_markers(0.0, CALIB) == 0.0
        assert grip_from_markers(0.2, CALIB) == 1.0

    def test_calib_validation(self):
        with pytest.raises(ValueError):
            GripperCalib(d_closed=0.09, d_open=0.01)


class TestQualityFilter:
    def _session(self, cov=1e-4, drift=0.0):
        t = np.arange(0, 11) * 0.1
        poses = [
            Pose3(np.array([1.0, 0, 0, 0]), np.array([0.1 * i + drift * i, 0, 0]))
            for i in range(len(t))
        ]
        chest = make_traj("chest", t, poses, cov=cov)
        hand = make_traj("hand", t, poses)
        return RawSession("s", chest, hand, Pose3(), t, np.full(len(t), 0.05))

    def test_accepts_clean(self):
        assert quality_filter(self._session()) == []

    def test_rejects_covariance_spike(self):
        reasons = quality_filter(self._session(cov=0.5))
        assert reasons and all("covariance" in r for r in reasons)

    def test_rejects_workspace_escape(self):
        reasons = quality_filter(self._session(drift=1.0))
        assert reasons and all("workspace" in r for r in reasons)

    def test_assemble_raises_on_reject(self):
        with pytest.raises(PipelineError, match="covariance"):
            assemble_dataset(self._session(cov=0.5), CALIB)

    def test_assemble_requires_cross_node(self):
        s = self._session()
        s.cross_node = None
        with pytest.raises(PipelineError, match="cross-node"):
            assemble_dataset(s, CALIB)


def _dataset_of(steps) -> DemoDataset:
    """The dataset whose steps view gives these steps."""
    return DemoDataset(
        np.array([s.t for s in steps]),
        np.array([(*dataclasses.astuple(s.base), *s.hand_rel.to_list(), s.grip) for s in steps]),
    )


class TestActionLabels:
    def _dataset(self, seed=0, n=30):
        rng = np.random.default_rng(seed)
        steps = []
        base = Pose2()
        hand = Pose3(
            quat_from_axis_angle(np.array([0, 1.0, 0]), 0.3), np.array([0.3, 0.0, -0.2])
        )
        grip = 1.0
        for i in range(n):
            steps.append(DemoStep(t=0.1 * i, base=base, hand_rel=hand, grip=grip))
            base = se2.compose(
                base,
                Pose2(rng.uniform(0, 0.04), rng.uniform(-0.002, 0.002), rng.uniform(-0.05, 0.05)),
            )
            dq = quat_from_axis_angle(rng.normal(size=3), rng.uniform(-0.05, 0.05))
            hand = Pose3(quat_mul(dq, hand.rotation), hand.translation + rng.uniform(-0.02, 0.02, 3))
            grip = float(np.clip(grip + rng.uniform(-0.2, 0.2), 0, 1))
        return _dataset_of(steps)

    def test_round_trip(self):
        ds = self._dataset()
        labels = make_action_labels(ds)
        assert labels.shape == (len(ds) - 1, 11)
        rebuilt = integrate_labels(
            ds.steps[0].base, ds.steps[0].hand_rel, ds.steps[0].grip, labels
        )
        for a, b in zip(ds.steps, rebuilt):
            assert abs(a.base.x - b.base.x) < 1e-9
            assert abs(a.base.y - b.base.y) < 1e-9
            assert abs(a.base.theta - b.base.theta) < 1e-9
            assert np.max(np.abs(a.hand_rel.translation - b.hand_rel.translation)) < 1e-9
            assert geodesic_so3(a.hand_rel.rotation, b.hand_rel.rotation) < 1e-9
            assert abs(a.grip - b.grip) < 1e-9

    def test_quaternion_increments_canonical(self):
        labels = make_action_labels(self._dataset(seed=3))
        for row in labels:
            assert row[6] >= 0.0
            assert abs(np.linalg.norm(row[6:10]) - 1.0) < 1e-9

    def test_needs_two_steps(self):
        ds = self._dataset()
        ds = DemoDataset(ds.t[:1], ds.states[:1])
        with pytest.raises(ValueError):
            make_action_labels(ds)


_unit = st.floats(-1.0, 1.0)
_axis = st.tuples(_unit, _unit, _unit).filter(lambda v: math.hypot(*v) > 0.1)
_increment = st.tuples(
    st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2), st.floats(-1.0, 1.0)),
    st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
    _axis,
    st.floats(-0.5, 0.5),
    st.floats(0.0, 1.0),
)


class TestLabelRoundTripProperty:
    """integrate_labels(make_action_labels(ds)) reproduces any step sequence."""

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.tuples(_axis, st.floats(-3.0, 3.0), st.floats(0.0, 1.0)),
        increments=st.lists(_increment, min_size=1, max_size=40),
    )
    def test_round_trip(self, start, increments):
        axis0, angle0, grip = start
        base = Pose2()
        hand = Pose3(quat_from_axis_angle(np.array(axis0), angle0), np.array([0.3, 0.0, -0.2]))
        steps = [DemoStep(t=0.0, base=base, hand_rel=hand, grip=grip)]
        for i, (db, dp, axis, angle, grip) in enumerate(increments, start=1):
            base = se2.compose(base, Pose2(*db))
            dq = quat_from_axis_angle(np.array(axis), angle)
            hand = Pose3(quat_mul(dq, hand.rotation), hand.translation + np.array(dp))
            steps.append(DemoStep(t=0.1 * i, base=base, hand_rel=hand, grip=grip))
        ds = _dataset_of(steps)

        s0 = ds.steps[0]
        rebuilt = integrate_labels(s0.base, s0.hand_rel, s0.grip, make_action_labels(ds))
        assert len(rebuilt) == len(ds)
        for a, b in zip(ds.steps, rebuilt):
            assert abs(a.base.x - b.base.x) < 1e-9
            assert abs(a.base.y - b.base.y) < 1e-9
            assert abs(wrap_angle(a.base.theta - b.base.theta)) < 1e-9
            assert np.max(np.abs(a.hand_rel.translation - b.hand_rel.translation)) < 1e-9
            qa, qb = a.hand_rel.rotation, b.hand_rel.rotation
            # both canonical; near w = 0 the hemisphere may still differ
            assert min(np.max(np.abs(qa - qb)), np.max(np.abs(qa + qb))) < 1e-9
            assert abs(a.grip - b.grip) < 1e-9


class TestEndToEnd:
    def test_noiseless_round_trip_matches_reference(self):
        # full chain on a synthetic capture: anchoring-free (truth transform),
        # smoothing off; 10 Hz output must equal the generating script
        expert = scripted_expert(make_scenario("nav_reach"), seed=0)
        session = expert.session
        session.cross_node = expert.cross_node_true
        ds = assemble_dataset(
            session, expert.calib, PipelineConfig(smoothing=False)
        )
        ref = expert.script.reference
        assert len(ds) == len(ref.t)
        for step, r in zip(ds.steps, ref.steps):
            base, hand, grip = r.base, r.hand_rel, r.grip
            assert abs(step.base.x - base.x) < 1e-6
            assert abs(step.base.y - base.y) < 1e-6
            assert abs(step.base.theta - base.theta) < 1e-6
            assert np.max(np.abs(step.hand_rel.translation - hand.translation)) < 1e-6
            assert geodesic_so3(step.hand_rel.rotation, hand.rotation) < 1e-6
            assert abs(step.grip - grip) < 1e-6

    def test_lateral_compliance_of_expert(self):
        expert = scripted_expert(make_scenario("nav_turn_place"), seed=1)
        session = expert.session
        session.cross_node = expert.cross_node_true
        ds = assemble_dataset(session, expert.calib, PipelineConfig(smoothing=False))
        _, residuals = project_nonholonomic([s.base for s in ds.steps], dt=0.1)
        assert lateral_quantile(residuals, q=0.99) < 0.03

    def test_save_load_round_trip(self, tmp_path):
        expert = scripted_expert(make_scenario("nav_reach"), seed=2)
        session = expert.session
        session.cross_node = expert.cross_node_true
        ds = assemble_dataset(session, expert.calib, PipelineConfig(smoothing=False))
        save_dataset(tmp_path / "d.jsonl", ds)
        ds2 = load_dataset(tmp_path / "d.jsonl")
        assert len(ds2) == len(ds)
        for a, b in zip(ds.steps, ds2.steps):
            assert a.t == b.t
            assert abs(a.base.x - b.base.x) < 1e-12
            assert np.max(np.abs(a.hand_rel.translation - b.hand_rel.translation)) < 1e-12
            assert a.grip == b.grip

    def test_smoothing_preserves_linear_motion(self):
        # constant-velocity segments are second-order polynomials' subset, so
        # the smoother must be exact on them away from segment corners
        expert = scripted_expert(make_scenario("cruise"), seed=3)
        session = expert.session
        session.cross_node = expert.cross_node_true
        smooth = assemble_dataset(session, expert.calib, PipelineConfig(smoothing=True))
        raw = assemble_dataset(session, expert.calib, PipelineConfig(smoothing=False))
        mid = len(smooth.steps) // 4  # inside the constant-speed cruise phase
        assert abs(smooth.steps[mid].base.x - raw.steps[mid].base.x) < 1e-9


def _line_floats() -> list[float]:
    """Floats whose repr takes each of its forms: the shortest repr at every
    third decimal exponent, subnormals included; the signed zeros; the
    points where repr switches between fixed and exponent notation, and their
    neighbours; and values that need all 17 significant digits."""
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    for e in range(-324, 309, 3):
        for mantissa in ("1", "4.9", "1.2345678901234567"):
            v = float(f"{mantissa}e{e}")
            if v != 0.0 and math.isfinite(v):
                values += [v, -v]
    for switch in (1e-4, 1e-5, 1e16):
        values += [switch, np.nextafter(switch, 0.0).item(), np.nextafter(switch, math.inf).item()]
    values += [0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0 * 1e-7, math.pi, 2.0**53 + 2.0, 123456789012345.67]
    return values


class TestDatasetLineTemplate:
    """save_dataset formats each line with one %r template. It writes what
    write_jsonl writes, json.dumps(sort_keys=True) of the record, only because
    json writes a finite float as float.__repr__ does: a CPython change to
    either breaks these tests by name."""

    def test_line_of_each_float(self):
        differ = []
        for v in _line_floats():
            rec = {"t": v, "base": [v, -v, v], "hand_rel": [v, -v, v, -v, v, -v, v], "grip": v}
            line = pipeline._DATASET_LINE % (v, -v, v, v, v, -v, v, -v, v, -v, v, v)
            if line != json.dumps(rec, sort_keys=True) + "\n":
                differ.append(v)
        assert differ == []

    @pytest.mark.parametrize("noise", [(0.0, 0.0), (1e-3, 1e-3)], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_expert_dataset_has_write_jsonl_bytes(self, name, noise, tmp_path):
        expert = scripted_expert(make_scenario(name), 7, *noise)
        session = expert.session
        session.cross_node = expert.cross_node_true
        ds = assemble_dataset(session, expert.calib)
        save_dataset(tmp_path / "template.jsonl", ds)
        write_jsonl(
            tmp_path / "json.jsonl",
            [
                {"t": t, "base": s[:3], "hand_rel": s[3:10], "grip": s[10]}
                for t, s in zip(ds.t.tolist(), ds.states.tolist())
            ],
        )
        assert (tmp_path / "template.jsonl").read_bytes() == (tmp_path / "json.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, 1.7e308, "dataset base[0] value 1.7e+308 is outside the workspace [-100, 100] m"),
            (1, math.nan, "dataset base[1] value nan is outside the workspace [-100, 100] m"),
            (2, -4.0, "dataset base[2] value -4.0 is outside [-pi, pi]"),
            (3, math.inf, "dataset hand_rel distance from the chest inf is outside [0, 2] m"),
            (3, 1e200, "dataset hand_rel distance from the chest inf is outside [0, 2] m"),
            (7, math.nan, "dataset hand_rel quaternion value nan is outside (-inf, inf)"),
            (10, math.nan, "dataset grip value nan is outside [0, 1]"),
            ("t", math.inf, "dataset t value inf is outside (-inf, inf)"),
        ],
    )
    def test_value_outside_its_domain_refused_before_writing(self, column, value, message, tmp_path):
        ds = _noisy_demo("nav_reach", seed=1)
        t, states = ds.t.copy(), ds.states.copy()
        if column == "t":
            t[5] = value
        else:
            states[5, column] = value
        path = tmp_path / "out" / "dataset.jsonl"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_dataset(path, DemoDataset(t, states))
        assert not path.parent.exists()


class TestAnchorErrorOracle:
    """The closed-form effect of an anchor error on the hand labels.

    An error E left-composed with cross_node moves every hand sample in the
    chest world by E, and leaves the chest alone. A turn of angle delta about
    the chest-world vertical then moves the label of step i by
    2 |sin(delta / 2)| r_i, where r_i is the hand's horizontal distance from
    the chest-world origin, and turns it by |delta|; a translation t moves
    every label by |t|. The base and the grip do not move. This is the
    one-shot anchor of UMI (Chi et al. 2024, arXiv 2402.10329).
    """

    @pytest.fixture(scope="class", params=["nav_reach", "nav_turn_place", "long_horizon"])
    def demo(self, request):
        expert = scripted_expert(make_scenario(request.param), seed=0)
        session = dataclasses.replace(expert.session, cross_node=expert.cross_node_true)
        hand = map_hand_into_chest_world(session.hand, session.cross_node)
        r = np.hypot(*resample_to_grid(dataclasses.replace(session, hand=hand)).hand_pos[:, :2].T)
        return session, expert.calib, self._labels(session, expert.calib), r

    @staticmethod
    def _labels(session, calib, error=Pose3()):
        anchored = dataclasses.replace(session, cross_node=error.compose(session.cross_node))
        return assemble_dataset(anchored, calib, PipelineConfig(smoothing=False))

    @staticmethod
    def _assert_base_and_grip_kept(ds, clean):
        assert ds.t.tobytes() == clean.t.tobytes()
        assert ds.states[:, [0, 1, 2, 10]].tobytes() == clean.states[:, [0, 1, 2, 10]].tobytes()

    @pytest.mark.parametrize("delta_deg", [0.3, 1.0, -3.0, 20.0])
    def test_yaw_error(self, demo, delta_deg):
        session, calib, clean, r = demo
        delta = math.radians(delta_deg)
        ds = self._labels(session, calib, Pose3(rot_z(delta), np.zeros(3)))
        self._assert_base_and_grip_kept(ds, clean)
        moved = np.linalg.norm(ds.states[:, 3:6] - clean.states[:, 3:6], axis=1)
        assert np.max(np.abs(moved - 2.0 * abs(math.sin(delta / 2.0)) * r)) < 1e-12
        turned = [geodesic_so3(a, b) for a, b in zip(ds.states[:, 6:10], clean.states[:, 6:10])]
        assert np.max(np.abs(np.array(turned) - abs(delta))) < 1e-9

    def test_translation_error(self, demo):
        session, calib, clean, _ = demo
        t = np.array([0.01, -0.02, 0.005])
        ds = self._labels(session, calib, Pose3(translation=t))
        self._assert_base_and_grip_kept(ds, clean)
        moved = np.linalg.norm(ds.states[:, 3:6] - clean.states[:, 3:6], axis=1)
        assert np.max(np.abs(moved - np.linalg.norm(t))) < 1e-12
        assert np.max(np.abs(ds.states[:, 6:10] - clean.states[:, 6:10])) < 1e-12


# ---------------------------------------------------------------------------
# The array passes against the per-sample loops they replaced, kept here as
# references: the outputs must be the same bytes, so that dataset files do
# not change.
# ---------------------------------------------------------------------------


def _savgol_loop(series, window, order):
    series = np.asarray(series, dtype=float)
    n = len(series)
    half = window // 2
    weights = {}
    for h in set(min(half, i, n - 1 - i) for i in range(n)):
        x = np.arange(-h, h + 1, dtype=float)
        deg = min(order, 2 * h)
        A = np.vander(x, deg + 1, increasing=True)
        weights[h] = np.linalg.solve(A.T @ A, A.T)[0]
    out = np.empty(n)
    for i in range(n):
        h = min(half, i, n - 1 - i)
        out[i] = weights[h] @ series[i - h : i + h + 1]
    return out


def _smooth_loop(pos, quat, window, order):
    sp = np.column_stack([_savgol_loop(pos[:, k], window, order) for k in range(3)])
    aligned = quat.copy()
    for i in range(1, len(aligned)):
        if float(np.dot(aligned[i - 1], aligned[i])) < 0.0:
            aligned[i] = -aligned[i]
    sq = np.column_stack([_savgol_loop(aligned[:, k], window, order) for k in range(4)])
    return sp, np.stack([quat_canonical(q) for q in sq])


def _map_hand_loop(hand, cross_node):
    pos = np.empty_like(hand.pos)
    quat = np.empty_like(hand.quat)
    for i in range(len(hand.t)):
        mapped = cross_node.compose(Pose3(hand.quat[i], hand.pos[i]))
        pos[i] = mapped.translation
        quat[i] = mapped.rotation
    return pos, quat


def _sample_at(traj, t):
    """The pose at time t inside the span, as VioTrajectory.sample_at gave it
    before sample_rows replaced it: linear position, slerp rotation."""
    j = int(np.searchsorted(traj.t, t, side="right"))
    if j >= len(traj.t):
        return Pose3(traj.quat[-1], traj.pos[-1])
    i = j - 1
    s = (t - traj.t[i]) / (traj.t[j] - traj.t[i])
    return Pose3(slerp(traj.quat[i], traj.quat[j], s), (1.0 - s) * traj.pos[i] + s * traj.pos[j])


def _resample_loop(traj, grid):
    pos = np.empty((len(grid), 3))
    quat = np.empty((len(grid), 4))
    for i, t in enumerate(grid):
        p = _sample_at(traj, float(t))
        pos[i] = p.translation
        quat[i] = p.rotation
    return pos, quat


def _random_traj(rng, node, n, regular=False):
    """n samples at irregular times, or every 50 ms from 0 if regular, so that
    grid points fall on the last sample; raw quaternions of any norm and sign."""
    t = np.round(np.arange(n) * 0.05, 9) if regular else np.cumsum(rng.uniform(0.01, 0.08, n)) - 0.05
    quat = rng.normal(size=(n, 4)) * 0.05 + np.array([1.0, 0.2, -0.1, 0.3])
    quat = np.cumsum(quat, axis=0) * rng.choice([-1.0, 1.0, 2.0], size=(n, 1))
    pos = np.cumsum(rng.normal(0.0, 0.02, size=(n, 3)), axis=0)
    return VioTrajectory(node, t, pos, quat, np.full(n, 1e-4))


def _same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _load_dataset_loop(path) -> np.ndarray:
    """The states of a dataset file as load_dataset read them, one record at
    a time through the Pose2 and Pose3 constructors."""
    states = []
    for rec in read_jsonl(path):
        base = Pose2(*rec["base"])
        hand = Pose3(np.array(rec["hand_rel"][3:7]), np.array(rec["hand_rel"][0:3]))
        states.append((base.x, base.y, base.theta, *hand.to_list(), rec["grip"]))
    return np.array(states).reshape(-1, 11)


_seeds = st.integers(0, 2**32 - 1)


class TestArrayPassesMatchLoops:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=_seeds,
        n=st.integers(11, 40),
        window=st.sampled_from([5, 7, 9, 11]),
        order=st.integers(1, 3),
        width=st.integers(1, 4),
    )
    def test_savgol_on_strided_columns(self, seed, n, window, order, width):
        # a column of a wider array is a strided view, as smooth_pose_arrays passes
        cols = np.random.default_rng(seed).normal(size=(n, width)).cumsum(axis=0)
        for k in range(width):
            assert _same_bytes(savgol_smooth(cols[:, k], window, order), _savgol_loop(cols[:, k], window, order))

    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, n=st.integers(9, 40))
    def test_smooth_pose_arrays(self, seed, n):
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=(n, 3)).cumsum(axis=0)
        traj = _random_traj(rng, "chest", n)
        quat = np.stack([quat_canonical(q) for q in traj.quat])
        quat *= rng.choice([-1.0, 1.0], size=(n, 1))  # hemisphere flips to undo
        if n % 3 == 0:
            quat[rng.integers(n)] = 0.0  # zero dots: the next sample is never flipped
        try:
            expected = _smooth_loop(pos, quat, 9, 2)
        except ValueError:  # a zero row smoothed at an edge stays zero
            with pytest.raises(ValueError, match="zero or non-finite"):
                smooth_pose_arrays(pos, quat)
            return
        got = smooth_pose_arrays(pos, quat)
        assert _same_bytes(got[0], expected[0]) and _same_bytes(got[1], expected[1])

    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, n=st.integers(1, 40))
    def test_map_hand_into_chest_world(self, seed, n):
        rng = np.random.default_rng(seed)
        hand = _random_traj(rng, "hand", n)
        cross = Pose3(rng.normal(size=4), rng.normal(size=3))
        mapped = map_hand_into_chest_world(hand, cross)
        pos, quat = _map_hand_loop(hand, cross)
        assert _same_bytes(mapped.pos, pos) and _same_bytes(mapped.quat, quat)
        assert _same_bytes(mapped.t, hand.t) and _same_bytes(mapped.cov_trace, hand.cov_trace)

    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, n=st.integers(2, 60), regular=st.booleans())
    def test_resample_to_grid(self, seed, n, regular):
        rng = np.random.default_rng(seed)
        chest = _random_traj(rng, "chest", n, regular)
        hand = _random_traj(rng, "hand", n + 3, regular)
        markers = np.linspace(-0.1, chest.t_end + rng.uniform(0.0, 0.2), 7)
        session = RawSession("s", chest, hand, Pose3(), markers, np.full(7, 0.05))
        try:
            out = resample_to_grid(session)
        except PipelineError:
            return
        for traj, pos, quat in ((chest, out.chest_pos, out.chest_quat), (hand, out.hand_pos, out.hand_quat)):
            ref_pos, ref_quat = _resample_loop(traj, out.t)
            assert _same_bytes(pos, ref_pos) and _same_bytes(quat, ref_quat)

    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, n=st.integers(1, 20))
    def test_decouple_rows(self, seed, n):
        rng = np.random.default_rng(seed)
        chest = [Pose3(rng.normal(size=4), rng.normal(size=3)) for _ in range(n)]
        hand = [Pose3(rng.normal(size=4), rng.normal(size=3)) for _ in range(n)]
        pos, rot = decouple_rows(
            np.array([p.translation for p in chest]),
            np.array([p.rotation for p in chest]),
            np.array([p.translation for p in hand]),
            np.array([p.rotation for p in hand]),
        )
        rel = [c.inverse().compose(h) for c, h in zip(chest, hand)]
        assert _same_bytes(pos, [p.translation for p in rel])
        assert _same_bytes(rot, [p.rotation for p in rel])


# ---------------------------------------------------------------------------
# The dataset's row passes against the per-step loops they replaced, which
# read DemoStep records; kept here as references.
# ---------------------------------------------------------------------------


def _make_action_labels_loop(dataset):
    steps = dataset.steps
    labels = np.empty((len(steps) - 1, 11))
    for i in range(len(steps) - 1):
        a, b = steps[i], steps[i + 1]
        d = se2.relative_to(b.base, a.base)
        dq = quat_canonical(quat_mul(b.hand_rel.rotation, quat_conj(a.hand_rel.rotation)))
        labels[i, 0:3] = [d.x, d.y, d.theta]
        labels[i, 3:6] = b.hand_rel.translation - a.hand_rel.translation
        labels[i, 6:10] = dq
        labels[i, 10] = b.grip
    return labels


def _dataset_to_pairs_loop(dataset):
    """The training pairs, each condition built from pose objects."""
    labels = _make_action_labels_loop(dataset)
    conds = []
    prev = np.zeros(11)
    for s, label in zip(dataset.steps, labels):
        b, h = s.base, s.hand_rel
        conds.append(np.concatenate([[b.x, b.y, b.theta], h.translation, h.rotation, [s.grip], prev]))
        prev = label
    return np.array(conds), labels


def _integrate_labels_loop(base0, hand0, grip0, labels):
    s = (base0.x, base0.y, base0.theta, *hand0.translation.tolist(), *hand0.rotation.tolist())
    steps = [DemoStep(t=0.0, base=base0, hand_rel=hand0, grip=grip0)]
    for i, row in enumerate(np.asarray(labels, dtype=float).tolist()):
        s = advance_floats(*s, row)
        hand = Pose3(np.array(s[6:10]), np.array(s[3:6]))
        steps.append(DemoStep(t=0.1 * (i + 1), base=Pose2.of_wrapped(*s[:3]), hand_rel=hand, grip=row[10]))
    return steps


def _step_columns(steps):
    return [
        np.array([s.t for s in steps]),
        np.array([dataclasses.astuple(s.base) for s in steps]),
        np.array([s.hand_rel.to_list() for s in steps]),
        np.array([s.grip for s in steps]),
    ]


# wrapped headings, at and next to the +-pi wrap included
_heading = st.one_of(
    st.sampled_from(
        [math.pi, math.nextafter(math.pi, 0.0), -math.nextafter(math.pi, 0.0), 0.0, -0.0, 1e-300]
    ),
    st.floats(-math.pi, math.pi, exclude_min=True),
)
# quaternion w components at and near 0 included; rows are canonicalised
_w = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-17, 1e-9]), st.floats(-1.0, 1.0))
_c = st.floats(-1.0, 1.0)
_state_rows = st.lists(
    st.tuples(
        st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), _heading,
        _c, _c, _c, _w, _c, _c, _c, st.floats(0.0, 1.0),
    ),
    min_size=2,
    max_size=25,
)


def _dataset_of_rows(rows) -> DemoDataset:
    states = np.array(rows, dtype=float)
    q = states[:, 6:10]
    q[np.sqrt(np.vecdot(q, q)) < 1e-150] = (1.0, 0.0, 0.0, 0.0)
    states[:, 6:10] = quat_canonical_rows(q)
    return DemoDataset(0.1 * np.arange(len(states)), states)


def _noisy_demo(name, seed):
    expert = scripted_expert(make_scenario(name), seed=seed, sigma_pos=1e-3, sigma_rot=1e-3)
    session = expert.session
    session.cross_node = expert.cross_node_true
    return assemble_dataset(session, expert.calib)


class TestRowPassesMatchStepLoops:
    @settings(max_examples=80, deadline=None)
    @given(rows=_state_rows)
    def test_make_action_labels(self, rows):
        ds = _dataset_of_rows(rows)
        assert _same_bytes(make_action_labels(ds), _make_action_labels_loop(ds))

    @settings(max_examples=60, deadline=None)
    @given(rows=_state_rows)
    def test_training_conditions(self, rows):
        ds = _dataset_of_rows(rows)
        conds, labels = cli._dataset_to_pairs(ds)
        ref_conds, ref_labels = _dataset_to_pairs_loop(ds)
        assert _same_bytes(conds, ref_conds) and _same_bytes(labels, ref_labels)

    @settings(max_examples=60, deadline=None)
    @given(rows=_state_rows)
    def test_integrate_labels(self, rows):
        ds = _dataset_of_rows(rows)
        s0 = ds.steps[0]
        labels = make_action_labels(ds)
        got = integrate_labels(s0.base, s0.hand_rel, s0.grip, labels)
        expected = _integrate_labels_loop(s0.base, s0.hand_rel, s0.grip, labels)
        for a, b in zip(_step_columns(got), _step_columns(expected), strict=True):
            assert _same_bytes(a, b)

    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, n=st.integers(0, 30))
    def test_load_dataset(self, seed, n, tmp_path_factory):
        # quaternions of any norm and sign; every other column inside the
        # domain load_dataset accepts: headings in [-pi, pi] (the loader wraps
        # them again, -pi to pi), hands within 2 m of the chest, grips in [0, 1]
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, 12)) * rng.choice([1e-3, 1.0, 10.0], size=(n, 12))
        edge = rng.choice([-math.pi, math.pi], size=n)
        rows[:, 3] = np.where(rng.random(n) < 0.25, edge, rng.uniform(-math.pi, math.pi, size=n))
        rows[:, 4:7] = rng.uniform(-1.1, 1.1, size=(n, 3)) * rng.choice([1e-3, 1.0], size=(n, 1))
        rows[:, 11] = rng.random(n)
        path = tmp_path_factory.mktemp("dataset") / "dataset.jsonl"
        write_jsonl(
            path,
            [{"t": r[0], "base": r[1:4], "hand_rel": r[4:11], "grip": r[11]} for r in rows.tolist()],
        )
        ds = load_dataset(path)
        assert _same_bytes(ds.t, rows[:, 0]) and _same_bytes(ds.states, _load_dataset_loop(path))

    @pytest.mark.parametrize("name", ["nav_turn_place", "long_horizon"])
    def test_on_a_noisy_demo(self, name):
        ds = _noisy_demo(name, seed=4)
        assert _same_bytes(make_action_labels(ds), _make_action_labels_loop(ds))
        conds, labels = cli._dataset_to_pairs(ds)
        ref_conds, ref_labels = _dataset_to_pairs_loop(ds)
        assert _same_bytes(conds, ref_conds) and _same_bytes(labels, ref_labels)

    def test_steps_view(self):
        ds = _noisy_demo("nav_reach", seed=2)
        steps = ds.steps
        assert len(steps) == len(ds) and steps is not ds.steps
        for s, t, row in zip(steps, ds.t.tolist(), ds.states.tolist()):
            assert s.t == t and s.grip == row[10]
            assert [s.base.x, s.base.y, s.base.theta] == row[0:3]
            assert s.hand_rel.to_list() == row[3:10]
