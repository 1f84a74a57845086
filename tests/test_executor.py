import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobman.cli import DiffusionReplayPolicy
from mobman.diffusion import (
    ACTION_DIM,
    COND_DIM,
    DEFAULT_HORIZON,
    ActionChunkTensor,
    ToyDenoiser,
    cosine_schedule,
    load_checkpoint,
    save_checkpoint,
)
from mobman.executor import (
    CHUNK_BOUND,
    ExecutorConfig,
    LatencyConfig,
    MatchWeights,
    NonFiniteChunkError,
    Waypoint,
    advance_floats,
    command_to_target,
    forward_rollout,
    run_executor,
    splice,
    state_match,
)
from mobman.geometry import Pose2, quat_canonical, quat_canonical_floats
from mobman.sim import (
    Condition,
    CruisePolicy,
    ExpertReplayPolicy,
    Plant,
    PlantConfig,
    make_scenario,
    run_condition_trial,
)

IDENT_Q = np.array([1.0, 0.0, 0.0, 0.0])


def tup(x=0.0, y=0.0, th=0.0, hand=(0.3, 0.0, -0.2), grip=1.0):
    """The state (x, y, theta, px, py, pz, qw, qx, qy, qz, grip), theta wrapped."""
    return (x, y, Pose2(x, y, th).theta, *map(float, hand), *IDENT_Q.tolist(), grip)


def cruise_chunk(step=0.03, horizon=16, grip=1.0):
    return ActionChunkTensor(((step, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, grip),) * horizon)


def chunk_of(rows: np.ndarray) -> ActionChunkTensor:
    """The chunk of the rows of a (T_p, 11) array, as float tuples."""
    return ActionChunkTensor(tuple(map(tuple, rows.tolist())))


class TestRollout:
    def test_starts_at_s0_and_has_horizon_length(self):
        s0 = tup()
        roll = forward_rollout(s0, cruise_chunk())
        assert len(roll) == 17  # s0 and the state after each of the 16 rows
        assert roll[0] == tup()

    def test_straight_line_integration(self):
        roll = forward_rollout(tup(), cruise_chunk(step=0.03))
        for i, s in enumerate(roll):
            assert s[0] == pytest.approx(0.03 * i, abs=1e-12)
            assert s[1] == 0.0

    def test_base_increments_compose_in_body_frame(self):
        rows = np.zeros((3, 11))
        rows[:, 6] = 1.0
        rows[0] = [0.1, 0, math.pi / 2, 0, 0, 0, 1, 0, 0, 0, 1]
        rows[1] = [0.1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1]
        roll = forward_rollout(tup(), chunk_of(rows))
        assert roll[2][0] == pytest.approx(0.1, abs=1e-12)
        assert roll[2][1] == pytest.approx(0.1, abs=1e-12)

    def test_advance_state_matches_rollout(self):
        chunk = cruise_chunk()
        roll = forward_rollout(tup(), chunk)
        stepped = advance_floats(*roll[4][:10], chunk.rows[4])
        assert stepped[0] == pytest.approx(roll[5][0], abs=1e-12)


class TestMatchWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatchWeights(w_b=-1.0)
        with pytest.raises(ValueError):
            MatchWeights(0.0, 0.0, 0.0, 0.0)

    def test_scaled(self):
        w = MatchWeights().scaled(3.0)
        assert w.w_b == 3.0 and w.w_r == pytest.approx(0.6)


class TestStateMatch:
    def test_picks_nearest(self):
        roll = forward_rollout(tup(), cruise_chunk(step=0.03))
        rep = state_match(roll, tup(x=0.0852))  # between indices 2 and 3
        assert rep.i_star == 3

    def test_tie_breaks_to_smaller_index(self):
        roll = forward_rollout(tup(), cruise_chunk(step=0.03))
        rep = state_match(roll, tup(x=0.045))  # exactly between 1 and 2
        assert rep.i_star == 1

    def test_empty_rollout_raises(self):
        with pytest.raises(ValueError):
            state_match([], tup())

    def test_weight_scaling_leaves_argmin(self):
        rng = np.random.default_rng(0)
        roll = forward_rollout(tup(), cruise_chunk())
        for _ in range(50):
            probe = tup(
                x=rng.uniform(0, 0.5),
                y=rng.uniform(-0.05, 0.05),
                th=rng.uniform(-0.2, 0.2),
                grip=rng.uniform(0, 1),
            )
            base = state_match(roll, probe).i_star
            for f in (0.1, 0.5, 2.0, 10.0):
                assert state_match(roll, probe, MatchWeights().scaled(f)).i_star == base

    def test_discrepancy_terms_sum(self):
        # with one candidate, state_match reports that candidate's terms
        a, b = tup(), tup(x=0.1, grip=0.5)
        _, total, tb, tt, tr, tg = state_match([a], b, MatchWeights())
        assert total == pytest.approx(tb + tt + tr + tg)
        assert tt == 0.0 and tr == 0.0
        assert tg == pytest.approx(0.1 * 0.25)


class TestSplice:
    def _splice(self, i_star):
        chunk = cruise_chunk()
        return splice(chunk, forward_rollout(tup(), chunk), i_star)

    def test_keeps_tail(self):
        wps, replan = self._splice(3)
        assert [w.index for w in wps] == list(range(3, 16))
        assert not replan
        # each waypoint target is one row ahead of its rollout state
        assert wps[0].target[0] == pytest.approx(0.03 * 4, abs=1e-12)

    def test_replan_when_only_last_row_remains(self):
        _, replan = self._splice(15)
        assert replan

    def test_range_checked(self):
        with pytest.raises(ValueError):
            self._splice(16)
        with pytest.raises(ValueError):
            self._splice(-1)


_row = st.lists(st.floats(-1.0, 1.0), min_size=11, max_size=11).filter(
    lambda r: math.hypot(*r[6:10]) > 0.1
)


class TestSpliceProperty:
    """For any chunk and every i_star in [0, T_p), splice keeps rows
    i_star..T_p-1, each targeting the roll-out state one row ahead."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(_row, min_size=1, max_size=20), off=st.integers(1, 1000))
    def test_indexing(self, rows, off):
        chunk = ActionChunkTensor(tuple(map(tuple, rows)))
        T_p = chunk.horizon
        rollout = forward_rollout(tup(), chunk)
        assert len(rollout) == T_p + 1
        for i_star in range(T_p):
            wps, replan = splice(chunk, rollout, i_star)
            assert [w.index for w in wps] == list(range(i_star, T_p))
            assert replan == (i_star == T_p - 1)
            for w in wps:
                row = chunk.rows[w.index]
                want = advance_floats(*rollout[w.index][:10], row)
                assert w.row is row
                assert w.target == (*want, row[10])
        for bad in (-off, T_p - 1 + off):
            with pytest.raises(ValueError):
                splice(chunk, rollout, bad)


class TestLatencyConfig:
    def test_defaults_total(self):
        lat = LatencyConfig()
        assert lat.total == pytest.approx(0.142)

    def test_scaled_to(self):
        lat = LatencyConfig.scaled_to(0.284)
        assert lat.d_in == pytest.approx(0.066)
        assert lat.d_net == pytest.approx(0.174)
        assert lat.d_exe == pytest.approx(0.044)

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            LatencyConfig(d_in=-0.001)


class TestCommandToTarget:
    def test_deadbeat_on_track(self):
        # waypoint exactly one row ahead: command equals the feedforward row
        roll = forward_rollout(tup(), cruise_chunk(step=0.03))
        wp = Waypoint(0, roll[1], cruise_chunk().rows[0])
        cmd, _, _ = command_to_target(roll[0], wp, dt=0.1)
        assert cmd.v == pytest.approx(0.3)
        assert cmd.omega == 0.0

    def test_deadbeat_corrects_error(self):
        wp = Waypoint(0, tup(x=0.05), (0.03, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        cmd, _, _ = command_to_target(tup(x=0.0), wp, dt=0.1)
        assert cmd.v == pytest.approx(0.5)

    def test_damped_gain_blends(self):
        wp = Waypoint(0, tup(x=0.05), (0.03, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        cmd, _, _ = command_to_target(tup(x=0.0), wp, dt=0.1, gain=0.4)
        assert cmd.v == pytest.approx((0.03 + 0.4 * (0.05 - 0.03)) / 0.1)


def run_cruise(matching=True, latency=None, kinematic=True, ticks=80, jitter=0.0, seed=0):
    lat = latency if latency is not None else LatencyConfig()
    lat.jitter_std = jitter
    plant = Plant(PlantConfig(kinematic=kinematic))
    cfg = ExecutorConfig(
        matching=matching,
        latency=lat,
        max_ticks=ticks,
        seed=seed,
        plant_response_s=0.0 if kinematic else PlantConfig().tau_base,
    )
    return run_executor(CruisePolicy(), plant, cfg), plant


class TestLatencyJitter:
    """The latency that jitter_std = sigma adds to a plan, recovered from the
    logged obs_t of each plan_request and t_arrival of its plan_arrival."""

    SIGMA = 0.06

    def _added_legs(self) -> np.ndarray:
        """(added d_in, added d_net) of every plan of four seeded episodes."""
        lat = LatencyConfig()
        legs = []
        for seed in range(4):
            log, _ = run_cruise(jitter=self.SIGMA, seed=seed, ticks=1200)
            for e in log.events:
                if e["kind"] == "plan_request":
                    t, obs_t = e["t"], e["payload"]["obs_t"]
                elif e["kind"] == "plan_arrival" and obs_t > 0.0:  # obs_t is clipped at 0
                    legs.append((t - obs_t - lat.d_in, e["payload"]["t_arrival"] - t - lat.d_net))
        return np.array(legs)

    def test_added_latency_mean_and_std(self):
        legs = self._added_legs()
        n = len(legs)
        assert n >= 500
        # logged times are rounded to 1 us; no draw takes latency away
        assert legs.min() > -1e-6
        s = self.SIGMA / 3
        mean, std = 2 * s / math.sqrt(2 * math.pi), s * math.sqrt(1 - 1 / math.pi)
        assert mean == pytest.approx(0.266 * self.SIGMA, abs=1e-3 * self.SIGMA)
        assert std == pytest.approx(0.275 * self.SIGMA, abs=1e-3 * self.SIGMA)
        added = legs.sum(axis=1)
        # 4 standard errors: std / sqrt(n) for the mean, and for the sample std
        # about 0.9 std / sqrt(n), as the sum of two clipped normals has kurtosis 4.2
        assert abs(added.mean() - mean) < 4 * std / math.sqrt(n)
        assert abs(added.std() - std) < 4 * std / math.sqrt(n)
        # each leg is left as it is in half of the plans (4 binomial standard errors)
        for leg in legs.T:
            assert abs(np.mean(leg < 1e-6) - 0.5) < 4 * 0.5 / math.sqrt(n)


class TestExecutorLoop:
    def test_zero_latency_matching_is_identity(self):
        log_on, _ = run_cruise(matching=True, latency=LatencyConfig(0.0, 0.0, 0.0))
        log_off, _ = run_cruise(matching=False, latency=LatencyConfig(0.0, 0.0, 0.0))
        assert log_on.payloads("command") == log_off.payloads("command")
        assert all(s["i_star"] == 0 for s in log_on.splices[1:])
        assert log_on.rollback_count == 0

    def test_kinematic_cruise_splice_offset_is_two(self):
        # 142 ms budget at 0.3 m/s: the robot advances 4.26 cm between the
        # observation and the first effective command, against 3 cm rows
        log, _ = run_cruise(matching=True)
        steady = log.i_star_values()[1:]
        assert steady, "no steady-state splices logged"
        assert all(i == 2 for i in steady)

    def test_splice_offset_monotone_in_latency(self):
        means = []
        for total in (0.0, 0.05, 0.10, 0.142, 0.20):
            log, _ = run_cruise(matching=True, latency=LatencyConfig.scaled_to(total))
            means.append(np.mean(log.i_star_values()[1:]))
        assert all(b >= a for a, b in zip(means, means[1:]))
        assert means[0] == 0.0

    def test_matching_off_rolls_back_every_splice(self):
        log, _ = run_cruise(matching=False)
        n_splices = len(log.splices)
        assert n_splices >= 3
        # every post-startup splice re-executes from row 0 behind the robot
        assert log.rollback_count >= n_splices - 1

    def test_matching_on_no_rollbacks(self):
        log, _ = run_cruise(matching=True)
        assert log.rollback_count == 0

    def test_lagged_plant_splice_offset_in_band(self):
        log, _ = run_cruise(matching=True, kinematic=False, ticks=150)
        mean = float(np.mean(log.i_star_values()[1:]))
        assert 2.0 <= mean <= 5.0

    def test_deterministic_per_seed(self):
        a, _ = run_cruise(jitter=0.018, seed=5)
        b, _ = run_cruise(jitter=0.018, seed=5)
        assert a.events == b.events

    def test_plan_arrival_logged_at_activation_tick(self):
        log, _ = run_cruise(jitter=0.018, seed=3, ticks=150)
        events = log.events
        arrivals = [i for i, e in enumerate(events) if e["kind"] == "plan_arrival"]
        assert len(arrivals) >= 3
        for i in arrivals:
            e = events[i]
            assert e["t"] >= e["payload"]["t_arrival"] - 1e-9
            assert e["t"] < e["payload"]["t_arrival"] + 0.1 + 1e-9
            assert events[i + 1]["kind"] == "splice"
            assert events[i + 1]["tick"] == e["tick"]

    def test_policy_horizon_checked(self):
        plant = Plant(PlantConfig(kinematic=True))
        with pytest.raises(ValueError, match="horizon"):
            run_executor(
                lambda obs, obs_t: cruise_chunk(horizon=4), plant, ExecutorConfig(max_ticks=10)
            )

    def test_tick_callback_stops_episode(self):
        plant = Plant(PlantConfig(kinematic=True))
        seen = []

        def cb(tick, t, pl):
            seen.append(tick)
            return tick >= 7

        run_executor(CruisePolicy(), plant, ExecutorConfig(max_ticks=100), tick_callback=cb)
        assert seen[-1] == 7

    def test_splice_report_serializes(self):
        log, _ = run_cruise()
        d = log.splices[1]
        assert {"i_star", "discrepancy", "term_base", "tick"} <= set(d)
        assert json.loads(json.dumps(log.events)) == log.events


class _ProtocolPlant:
    """Only what run_executor may use of a plant, around a state that never
    moves; it records each issued command with its tick time."""

    __slots__ = ("current", "v", "omega", "t", "issued")

    def __init__(self, state):
        self.current = state
        self.v = self.omega = self.t = 0.0
        self.issued = []

    def step_to(self, t):
        self.t = t

    def state_at(self, t):
        return self.current

    def issue_command(self, cmd, t_effect):
        self.issued.append((round(self.t, 9), cmd))


class TestPlantProtocol:
    def test_grace_splice_and_hold_on_the_narrow_protocol(self):
        q = quat_canonical(np.array([0.9, -0.1, 0.3, 0.2])).tolist()
        plant = _ProtocolPlant((0.4, -0.2, 2.5, 0.3, 0.05, -0.2, *q, 0.7))
        # a 2 s planning leg: the first chunk lands at tick 20, its 16 rows run
        # out at tick 36, and the next chunk (requested at tick 21) at tick 41
        lat = LatencyConfig(d_in=0.0, d_net=2.0, d_exe=0.0)
        log = run_executor(CruisePolicy(), plant, ExecutorConfig(latency=lat, max_ticks=45))
        assert [e["tick"] for e in log.events if e["kind"] == "splice"] == [20, 41]
        # startup grace: nothing is issued before the first chunk arrives
        assert [round(t * 10) for t, _ in plant.issued] == list(range(20, 45))
        commands = log.payloads("command")
        held = [p for p in commands if "row" not in p]
        assert len(held) == 5 and all(p == {"v": 0.0, "v_lat": 0.0, "omega": 0.0} for p in held)
        hold = (*plant.current[3:6], *quat_canonical_floats(*plant.current[6:10]))
        for t, cmd in plant.issued:
            if 3.6 <= t < 4.1:
                assert (cmd.v, cmd.v_lat, cmd.omega) == (0.0, 0.0, 0.0)
                assert cmd.hand_target == hold and cmd.grip_target == 0.7
            else:
                assert cmd.v != 0.0


class _NanThirdChunk(CruisePolicy):
    """CruisePolicy whose third chunk holds one NaN, in column 0 of row 0."""

    def __init__(self):
        self.calls = 0

    def __call__(self, obs, obs_t):
        chunk = super().__call__(obs, obs_t)
        self.calls += 1
        if self.calls == 3:
            row, *rest = chunk.rows
            chunk = ActionChunkTensor(((math.nan, *row[1:]), *rest))
        return chunk


def _checkpoint_with_huge_output_weights(path):
    """A checkpoint whose finite EMA output-layer weights are all 1e300."""
    model = ToyDenoiser(ACTION_DIM, COND_DIM, hidden=8, kemb_dim=8, temb_dim=8)
    model.init_params(np.random.default_rng(0))
    model.ema["W3"][:] = 1e300
    save_checkpoint(path, model, cosine_schedule())
    return path


class TestNonFiniteChunks:
    def test_nan_chunk_rejected_before_dispatch(self, monkeypatch):
        # before the guard this episode finished with tracking_rms_m nan
        issued = []
        issue = Plant.issue_command

        def recording_issue(self, cmd, t_effect):
            issued.append((cmd.v, cmd.v_lat, cmd.omega))
            issue(self, cmd, t_effect)

        monkeypatch.setattr(Plant, "issue_command", recording_issue)
        policy = _NanThirdChunk()
        with pytest.raises(NonFiniteChunkError, match="trial seed 11"):
            run_condition_trial(Condition("c"), "nav_reach", 11, make_policy=lambda s: policy)
        assert policy.calls == 3
        assert issued and all(math.isfinite(x) for cmd in issued for x in cmd)

    def test_checkpoint_policy_overflow_rejected(self, tmp_path):
        # before the guard canonicalising the sampled rows raised a bare
        # "cannot canonicalize a zero or non-finite quaternion"
        model, sched = load_checkpoint(_checkpoint_with_huge_output_weights(tmp_path / "m.json"))
        policy = DiffusionReplayPolicy(model, sched, seed=5)
        plant = Plant(PlantConfig(kinematic=True))
        with pytest.raises(NonFiniteChunkError, match="trial seed 5"):
            run_executor(policy, plant, ExecutorConfig(max_ticks=10))


class TestChunkRows:
    """A chunk's rows are float tuples from the policy to the plant."""

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, CHUNK_BOUND, -CHUNK_BOUND, math.nextafter(CHUNK_BOUND, math.inf), -0.0, 5e-324],
    )
    def test_bound_check_gives_the_array_rule(self, value):
        row, *rest = CruisePolicy()(tup(), 0.0).rows
        rows = ((value, *row[1:]), *rest)
        chunk = ActionChunkTensor(rows)
        plant = Plant(PlantConfig(kinematic=True))
        try:
            log = run_executor(lambda obs, obs_t: chunk, plant, ExecutorConfig(max_ticks=3))
        except NonFiniteChunkError:
            accepted = False
        else:
            accepted = True
            assert len(log.splices) == 1
        # the rule on the chunk as one array: every |entry| <= CHUNK_BOUND, false for NaN
        assert accepted == bool((np.abs(np.array(rows)) <= CHUNK_BOUND).all())

    def test_every_policy_returns_float_rows(self, tmp_path):
        script = make_scenario("nav_reach").script
        model = ToyDenoiser(ACTION_DIM, COND_DIM, hidden=8, kemb_dim=8, temb_dim=8)
        model.init_params(np.random.default_rng(0))
        save_checkpoint(tmp_path / "m.json", model, cosine_schedule())
        model, sched = load_checkpoint(tmp_path / "m.json")
        policies = {
            "cruise": CruisePolicy(),
            "replay relative": ExpertReplayPolicy(script, label_frame="relative"),
            "replay global": ExpertReplayPolicy(script, label_frame="global"),
            "checkpoint": DiffusionReplayPolicy(model, sched, seed=5),
        }
        for name, policy in policies.items():
            for t in (0.0, 1.0, 2.5):
                obs = tuple(script.states_at([t])[0].tolist())
                rows = policy(obs, t).rows
                assert type(rows) is tuple and len(rows) == DEFAULT_HORIZON, name
                assert all(type(row) is tuple and len(row) == ACTION_DIM for row in rows), name
                assert all(type(v) is float for row in rows for v in row), name
