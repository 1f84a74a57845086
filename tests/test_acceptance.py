"""End-to-end acceptance gate, one test per criterion.

Each test prints a single summary line with the measured quantities so the
gate's status is readable straight off the pytest report. Criteria are
checked at the stated tolerances; nothing here is tuned to pass.
"""
import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mobman.anchoring import (
    CHEST,
    HAND,
    Extrinsic,
    TagDetection,
    VioTrajectory,
    anchor_node,
    cross_node_transform,
)
from mobman.cli import EXIT_OK, main as cli_main
from mobman.diffusion import (
    TrainConfig,
    cosine_schedule,
    ddim_sample,
    forward_noise,
    model_eps_fn,
    train_regression,
    train_toy,
)
from mobman.executor import (
    ExecutorConfig,
    LatencyConfig,
    MatchWeights,
    run_executor,
)
from mobman.geometry import (
    Pose2,
    Pose3,
    geodesic_so3,
    quat_canonical,
    quat_from_axis_angle,
)
from mobman.manifest import file_sha256
from mobman.pipeline import (
    PipelineConfig,
    assemble_dataset,
    lateral_quantile,
    make_action_labels,
    project_nonholonomic,
)
from mobman.sim import (
    Condition,
    CruisePolicy,
    ExpertReplayPolicy,
    Plant,
    PlantConfig,
    compare_conditions,
    make_scenario,
    run_episode,
    scripted_expert,
)


def report(n, label, ok, detail):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}")


# ---------------------------------------------------------------------------
# 1. pose algebra vs homogeneous-matrix oracle
# ---------------------------------------------------------------------------


def test_criterion_1_pose_algebra_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        a = Pose3(quat_canonical(rng.normal(size=4)), rng.uniform(-3, 3, 3))
        b = Pose3(quat_canonical(rng.normal(size=4)), rng.uniform(-3, 3, 3))
        Ma, Mb = a.as_matrix(), b.as_matrix()
        worst = max(worst, float(np.max(np.abs(a.compose(b).as_matrix() - Ma @ Mb))))
        worst = max(worst, float(np.max(np.abs(a.inverse().as_matrix() - np.linalg.inv(Ma)))))
        # chest-relative decoupling: chest^-1 * hand
        rel = a.inverse().compose(b)
        worst = max(worst, float(np.max(np.abs(rel.as_matrix() - np.linalg.inv(Ma) @ Mb))))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    report(1, "pose algebra oracle", ok, f"max error {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. anchoring recovery, noiseless and under calibrated noise
# ---------------------------------------------------------------------------


def _anchoring_setup(rng, n_det, sigma_pos=0.0, sigma_rot=0.0):
    """Two static nodes watching one shared board; detection noise only."""

    def random_pose(span=2.0):
        return Pose3(quat_canonical(rng.normal(size=4)), rng.uniform(-span, span, 3))

    board = random_pose()
    truth = random_pose()  # chest-world from hand-world
    trajs, exts, dets = {}, {}, []
    for node, offset in ((CHEST, Pose3()), (HAND, truth.inverse())):
        imu = offset.compose(random_pose())
        ext = Extrinsic(node, random_pose(span=0.2))
        cam = imu.compose(ext.T_imu_from_camera)
        t = np.linspace(0.0, 2.0, 40)
        trajs[node] = VioTrajectory(
            node_id=node,
            t=t,
            pos=np.repeat(imu.translation[None], len(t), axis=0),
            quat=np.repeat(imu.rotation[None], len(t), axis=0),
            cov_trace=np.full(len(t), 1e-4),
        )
        exts[node] = ext
        for ti in np.linspace(0.1, 1.9, n_det):
            seen = cam.inverse().compose(offset.compose(board))
            if sigma_pos > 0 or sigma_rot > 0:
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                dq = quat_from_axis_angle(axis, rng.normal(0.0, sigma_rot))
                seen = Pose3(
                    seen.rotation, seen.translation + rng.normal(0, sigma_pos, 3)
                ).compose(Pose3(dq, np.zeros(3)))
            dets.append(TagDetection(node, float(ti), seen))
    return trajs, exts, dets, truth


def _recover_cross_node(trajs, exts, dets):
    a_c = anchor_node(trajs[CHEST], exts[CHEST], dets).T_world_tag
    a_h = anchor_node(trajs[HAND], exts[HAND], dets).T_world_tag
    return cross_node_transform(a_c, a_h)


def test_criterion_2_anchoring_recovery():
    t0 = time.time()
    rng = np.random.default_rng(2)

    trajs, exts, dets, truth = _anchoring_setup(rng, n_det=20)
    got = _recover_cross_node(trajs, exts, dets)
    err0 = float(np.max(np.abs(got.as_matrix() - truth.as_matrix())))

    # statistical bound: median over independent replications
    pos_errs, rot_errs = [], []
    for _ in range(9):
        trajs, exts, dets, truth = _anchoring_setup(
            rng, n_det=50, sigma_pos=0.005, sigma_rot=math.radians(0.3)
        )
        noisy = _recover_cross_node(trajs, exts, dets)
        pos_errs.append(float(np.linalg.norm(noisy.translation - truth.translation)))
        rot_errs.append(geodesic_so3(noisy.rotation, truth.rotation))
    pos_err = float(np.median(pos_errs))
    rot_err = float(np.median(rot_errs))
    elapsed = time.time() - t0

    ok = err0 < 1e-9 and pos_err < 0.003 and rot_err < math.radians(0.2) and elapsed < 5
    report(
        2,
        "anchoring recovery",
        ok,
        f"noiseless {err0:.2e}, noisy {pos_err * 1e3:.2f} mm / "
        f"{math.degrees(rot_err):.3f} deg, {elapsed:.2f}s",
    )
    assert err0 < 1e-9
    assert pos_err < 0.003
    assert rot_err < math.radians(0.2)
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. decoupling cancels shared locomotion exactly
# ---------------------------------------------------------------------------


def test_criterion_3_decoupling_invariance():
    expert = scripted_expert(make_scenario("nav_reach"), seed=21)
    session = expert.session
    session.cross_node = expert.cross_node_true
    cfg = PipelineConfig(smoothing=False)
    base_ds = assemble_dataset(session, expert.calib, cfg)

    rng = np.random.default_rng(22)
    g = Pose2(*rng.uniform(-2, 2, 2), rng.uniform(-math.pi, math.pi)).lift(
        rng.uniform(-0.5, 0.5)
    )

    def shift(traj):
        pos = np.empty_like(traj.pos)
        quat = np.empty_like(traj.quat)
        for i in range(len(traj.t)):
            p = g.compose(Pose3(traj.quat[i], traj.pos[i]))
            pos[i], quat[i] = p.translation, p.rotation
        from mobman.anchoring import VioTrajectory

        return VioTrajectory(traj.node_id, traj.t.copy(), pos, quat, traj.cov_trace.copy())

    from mobman.pipeline import RawSession, map_hand_into_chest_world

    # inject g into both world trajectories; the hand stream lives in its own
    # world frame, so the injection happens after mapping into the chest world
    hand_in_wc = map_hand_into_chest_world(session.hand, session.cross_node)
    shifted = RawSession(
        session_id="shifted",
        chest=shift(session.chest),
        hand=shift(hand_in_wc),
        cross_node=Pose3(),
        marker_t=session.marker_t,
        marker_d=session.marker_d,
    )
    moved_ds = assemble_dataset(shifted, expert.calib, cfg)

    hand_err = max(
        float(np.max(np.abs(a.hand_rel.as_matrix() - b.hand_rel.as_matrix())))
        for a, b in zip(base_ds.steps, moved_ds.steps)
    )
    grip_err = max(abs(a.grip - b.grip) for a, b in zip(base_ds.steps, moved_ds.steps))
    label_err = float(
        np.max(np.abs(make_action_labels(base_ds) - make_action_labels(moved_ds)))
    )

    # meanwhile the world-frame hand trajectory shifts by exactly g
    world_err = 0.0
    for i in range(0, len(hand_in_wc.t), 7):
        moved = Pose3(shifted.hand.quat[i], shifted.hand.pos[i])
        ref = g.compose(Pose3(hand_in_wc.quat[i], hand_in_wc.pos[i]))
        world_err = max(world_err, float(np.max(np.abs(moved.as_matrix() - ref.as_matrix()))))

    ok = hand_err < 1e-9 and grip_err == 0.0 and label_err < 1e-9 and world_err < 1e-9
    report(
        3,
        "decoupling invariance",
        ok,
        f"hand-rel drift {hand_err:.2e}, label drift {label_err:.2e}, "
        f"world shift error {world_err:.2e}",
    )
    assert hand_err < 1e-9
    assert grip_err == 0.0
    assert label_err < 1e-9
    assert world_err < 1e-9


# ---------------------------------------------------------------------------
# 4. demonstration protocol: lateral slip stays under 3 cm/s
# ---------------------------------------------------------------------------


def test_criterion_4_protocol_compliance():
    worst = 0.0
    for name in ("nav_reach", "nav_turn_place", "long_horizon"):
        for seed in range(3):
            expert = scripted_expert(make_scenario(name), seed=seed)
            session = expert.session
            session.cross_node = expert.cross_node_true
            ds = assemble_dataset(session, expert.calib, PipelineConfig(smoothing=False))
            _, residuals = project_nonholonomic([s.base for s in ds.steps], dt=0.1)
            worst = max(worst, lateral_quantile(residuals, q=0.99))
    ok = worst < 0.03
    report(4, "protocol compliance", ok, f"worst lateral q0.99 = {worst:.4f} m/s")
    assert worst < 0.03


# ---------------------------------------------------------------------------
# 5. diffusion correctness
# ---------------------------------------------------------------------------


def _gaussian_eps_fn(mu, sigma, sched):
    def fn(x, k, cond):
        ab = sched.alpha_bar[int(k)]
        var = ab * sigma**2 + (1.0 - ab)
        return (x - math.sqrt(ab) * mu) * math.sqrt(1.0 - ab) / var

    return fn


def test_criterion_5a_forward_marginals():
    sched = cosine_schedule(100)
    rng = np.random.default_rng(51)
    a0 = np.full((10000, 1), 1.3)
    worst_mean, worst_var = 0.0, 0.0
    for k in (5, 25, 50, 75, 95):
        eps = rng.standard_normal(a0.shape)
        ak = forward_noise(a0, k, eps, sched)
        ab = sched.alpha_bar[k]
        stderr = math.sqrt(1.0 - ab) / math.sqrt(len(a0))
        mean_err = abs(float(np.mean(ak)) - 1.3 * math.sqrt(ab))
        var_err = abs(float(np.var(ak)) - (1.0 - ab)) / max(1.0 - ab, 1e-3)
        assert mean_err < 3.0 * stderr
        assert var_err < 0.05
        worst_mean = max(worst_mean, mean_err / stderr)
        worst_var = max(worst_var, var_err)
    report(
        5,
        "a: forward marginals",
        True,
        f"worst mean err {worst_mean:.2f} stderr, worst var err {worst_var:.1%}",
    )


def test_criterion_5b_ddim_step_reduction():
    # eta = 0 sampling with the exact score of a Gaussian target: 10 uniform
    # sub-steps against the full 100-step reference over 10k samples
    sched = cosine_schedule(100)
    fn = _gaussian_eps_fn(0.7, 1.0, sched)
    x10 = ddim_sample(fn, np.zeros((10000, 1)), sched, n_steps=10, seed=1, sample_dim=1)
    x100 = ddim_sample(fn, np.zeros((10000, 1)), sched, n_steps=100, seed=2, sample_dim=1)
    ks = float(ks_2samp(x10.ravel(), x100.ravel()).statistic)
    ok = ks < 0.02
    report(
        5,
        "b: 10-step DDIM vs 100-step oracle",
        ok,
        f"KS {ks:.4f} (10-step std {x10.std():.3f} vs {x100.std():.3f}): "
        "deterministic sub-sampling contracts the variance",
    )
    assert ks < 0.02


def test_criterion_5c_analytic_gradients():
    rng = np.random.default_rng(53)
    from mobman.diffusion import ToyDenoiser

    m = ToyDenoiser(input_dim=4, cond_dim=3, hidden=10, kemb_dim=8, temb_dim=8)
    m.init_params(rng)
    m.params["Wf"] = rng.normal(0.0, 0.1, size=m.params["Wf"].shape)
    m.params["bf"] = rng.normal(0.0, 0.1, size=m.params["bf"].shape)
    x = rng.normal(size=(6, 4))
    k = rng.integers(1, 100, size=6)
    cond = rng.normal(size=(6, 3))
    target = rng.normal(size=(6, 4))
    _, grads = m.loss_and_grads(x, k, cond, target)
    h = 1e-6
    worst = 0.0
    for name, grad in grads.items():
        p = m.params[name]
        for _ in range(6):
            d = rng.normal(size=p.shape)
            d /= np.linalg.norm(d)
            p += h * d
            lp, _ = m.loss_and_grads(x, k, cond, target)
            p -= 2 * h * d
            lm, _ = m.loss_and_grads(x, k, cond, target)
            p += h * d
            fd = (lp - lm) / (2 * h)
            ad = float(np.sum(grad * d))
            worst = max(worst, abs(ad - fd) / max(abs(fd), abs(ad), 1e-8))
    ok = worst < 1e-4
    report(5, "c: analytic gradients", ok, f"worst relative error {worst:.2e}")
    assert worst < 1e-4


def test_criterion_5d_mode_preservation():
    t0 = time.time()
    rng = np.random.default_rng(54)
    n = 512
    modes = rng.choice([-1.0, 1.0], size=n)
    a0 = (modes + rng.normal(0.0, 0.1, n)).reshape(-1, 1)
    conds = np.zeros((n, 1))

    model, sched, _ = train_toy(conds, a0, TrainConfig(steps=3000, seed=0))
    samples = ddim_sample(
        model_eps_fn(model), np.zeros((2000, 1)), sched, n_steps=10, seed=3, sample_dim=1
    ).ravel()
    pos_share = float(np.mean(samples > 0.0))
    diff_dead = float(np.mean(np.abs(samples) < 0.5))

    reg, _ = train_regression(conds, a0, TrainConfig(steps=1500, seed=0))
    preds = reg.forward(
        np.zeros((2000, 1)), np.zeros(2000, dtype=int), np.zeros((2000, 1)), use_ema=True
    ).ravel()
    reg_dead = float(np.mean(np.abs(preds) < 0.5))
    elapsed = time.time() - t0

    ok = 0.35 <= pos_share <= 0.65 and reg_dead > 0.5 and elapsed < 120
    report(
        5,
        "d: mode preservation",
        ok,
        f"diffusion mode share {pos_share:.2f} (dead zone {diff_dead:.1%}), "
        f"regression dead zone {reg_dead:.1%}, {elapsed:.1f}s",
    )
    assert 0.35 <= pos_share <= 0.65
    assert reg_dead > 0.5
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 6. latency compensation geometry
# ---------------------------------------------------------------------------


def _cruise_log(matching, kinematic=True, seed=0, ticks=80, jitter=0.0):
    lat = LatencyConfig()
    lat.jitter_std = jitter
    plant = Plant(PlantConfig(kinematic=kinematic))
    cfg = ExecutorConfig(
        matching=matching,
        latency=lat,
        max_ticks=ticks,
        seed=seed,
        plant_response_s=0.0 if kinematic else PlantConfig().tau_base,
    )
    return run_executor(CruisePolicy(), plant, cfg)


def test_criterion_6_latency_compensation():
    t0 = time.time()
    # (a) rollbacks over 100 seeded episodes per arm. The startup splice is
    # excluded: its observation age is clamped at t=0 so no offset can accrue.
    on_rollbacks, off_short = 0, 0
    for seed in range(100):
        log_on = _cruise_log(True, seed=seed, jitter=0.018)
        on_rollbacks += log_on.rollback_count
        log_off = _cruise_log(False, seed=seed, jitter=0.018)
        if log_off.rollback_count < len(log_off.splices) - 1:
            off_short += 1
    a_ok = on_rollbacks == 0 and off_short == 0

    # (b) kinematic plant: observation-to-effect span 155 ms at 0.3 m/s is
    # 4.65 cm against 3 cm rows -> offset exactly 2 on every steady splice
    log_b = _cruise_log(True)
    steady = log_b.i_star_values()[1:]
    b_ok = bool(steady) and all(i == 2 for i in steady)

    # (c) lagged plant: mean offset within the reported band
    log_c = _cruise_log(True, kinematic=False, ticks=150)
    mean_c = float(np.mean(log_c.i_star_values()[1:]))
    c_ok = 2.0 <= mean_c <= 5.0

    # (d) splice-jitter proxy: sign reversals after splices under deadbeat
    # dispatch, where a stale target landing behind the robot flips the sign
    jit_on = sum(_cruise_log(True, seed=s, ticks=150).jitter_count for s in range(10))
    jit_off = sum(_cruise_log(False, seed=s, ticks=150).jitter_count for s in range(10))
    d_ok = jit_off > 0 and jit_on <= 0.2 * jit_off

    elapsed = time.time() - t0
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 180
    report(
        6,
        "latency compensation",
        ok,
        f"a: on-rollbacks {on_rollbacks}, off-deficit {off_short}; "
        f"b: offsets {sorted(set(steady))}; c: lagged mean {mean_c:.2f}; "
        f"d: jitter {jit_on} vs {jit_off}; {elapsed:.1f}s",
    )
    assert a_ok, f"matching-on rollbacks {on_rollbacks}, off episodes short {off_short}"
    assert b_ok, f"kinematic offsets {sorted(set(steady))}"
    assert c_ok, f"lagged mean offset {mean_c}"
    assert d_ok, f"jitter counts on {jit_on} vs off {jit_off}"
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# 7. ablation direction, 100 paired trials per condition
# ---------------------------------------------------------------------------


def test_criterion_7_ablation_direction():
    t0 = time.time()
    conds = [
        Condition("match_on", matching=True, jitter_ms=18.0, locomotion_variation=True),
        Condition("match_off", matching=False, jitter_ms=18.0, locomotion_variation=True),
        Condition(
            "label_global",
            matching=True,
            label_frame="global",
            jitter_ms=18.0,
            locomotion_variation=True,
        ),
    ]
    _, agg = compare_conditions(conds, "nav_reach", n_trials=100, master_seed=0)
    s_on = agg["match_on"]["success_rate"]
    s_off = agg["match_off"]["success_rate"]
    s_glob = agg["label_global"]["success_rate"]
    elapsed = time.time() - t0
    ok = s_on - s_off >= 0.10 and s_on - s_glob >= 0.10
    report(
        7,
        "ablation direction",
        ok,
        f"matching {s_on:.0%} vs {s_off:.0%}, labels {s_on:.0%} vs {s_glob:.0%}, "
        f"{elapsed:.1f}s",
    )
    assert s_on > s_off and s_on - s_off >= 0.10
    assert s_on > s_glob and s_on - s_glob >= 0.10


# ---------------------------------------------------------------------------
# 8. match-weight robustness
# ---------------------------------------------------------------------------


def _episode_success_rate(weights, n_trials=20):
    wins = 0
    scenario = make_scenario("nav_reach")
    for trial in range(n_trials):
        seed = int(np.random.SeedSequence([99, trial]).generate_state(1)[0])
        policy = ExpertReplayPolicy(scenario.script)
        lat = LatencyConfig()
        lat.jitter_std = 0.018
        cfg = ExecutorConfig(
            matching=True,
            weights=weights,
            latency=lat,
            plant_response_s=PlantConfig().tau_base,
        )
        m, _ = run_episode(policy, scenario, PlantConfig(), cfg, seed)
        wins += m.success
    return wins / n_trials


def test_criterion_8_weight_robustness():
    t0 = time.time()
    # exact argmin invariance under common scaling, on logged executor runs
    base_i = _cruise_log(True, kinematic=False, ticks=150).i_star_values()
    scale_ok = True
    for f in (0.25, 4.0):
        lat = LatencyConfig()
        plant = Plant(PlantConfig())
        cfg = ExecutorConfig(
            matching=True,
            weights=MatchWeights().scaled(f),
            latency=lat,
            max_ticks=150,
            plant_response_s=PlantConfig().tau_base,
        )
        log = run_executor(CruisePolicy(), plant, cfg)
        scale_ok = scale_ok and log.i_star_values() == base_i

    # independent per-weight sweep over [0.5x, 2x]
    base_rate = _episode_success_rate(MatchWeights())
    max_shift = 0.0
    for name in ("w_b", "w_t", "w_r", "w_g"):
        for f in (0.5, 2.0):
            kw = {"w_b": 1.0, "w_t": 1.0, "w_r": 0.2, "w_g": 0.1}
            kw[name] *= f
            rate = _episode_success_rate(MatchWeights(**kw))
            max_shift = max(max_shift, abs(rate - base_rate))
    elapsed = time.time() - t0
    ok = scale_ok and max_shift <= 0.05
    report(
        8,
        "weight robustness",
        ok,
        f"common-scale argmin invariant: {scale_ok}, max completion-rate shift "
        f"{max_shift:.0%}, {elapsed:.1f}s",
    )
    assert scale_ok
    assert max_shift <= 0.05


# ---------------------------------------------------------------------------
# 9. determinism of CLI reruns
# ---------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(
            [
                "simulate",
                "--scenario", "nav_reach",
                "--trials", "3",
                "--seed", "11",
                "--jitter-ms", "18",
                "--output", str(out),
            ]
        )
        assert rc == EXIT_OK
        hashes.append(
            (file_sha256(out / "metrics.csv"), file_sha256(out / "aggregate.json"))
        )
    sim_ok = hashes[0] == hashes[1]

    rep_hashes = []
    for name in ("ra", "rb"):
        rep = tmp_path / name
        rc = cli_main(
            ["report", "--metrics", str(tmp_path / "a" / "metrics.csv"), "--output", str(rep)]
        )
        assert rc == EXIT_OK
        rep_hashes.append(
            tuple(file_sha256(rep / f) for f in ("report.md", "i_star_hist.svg", "event_counts.svg"))
        )
    rep_ok = rep_hashes[0] == rep_hashes[1]

    replay_rc = cli_main(["replay", "--manifest", str(tmp_path / "a" / "manifest.json")])
    ok = sim_ok and rep_ok and replay_rc == EXIT_OK
    report(
        9,
        "determinism",
        ok,
        f"simulate bytes identical: {sim_ok}, report bytes identical: {rep_ok}, "
        f"manifest replay exit {replay_rc}",
    )
    assert sim_ok
    assert rep_ok
    assert replay_rc == EXIT_OK
