import base64
import copy
import dataclasses
import functools
import json
import math
import pickle
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mobman.diffusion as diffusion
from mobman.diffusion import (
    ACTION_DIM,
    CHECKPOINT_DIMS,
    CHECKPOINT_VERSION,
    COND_DIM,
    DEFAULT_EMA_DECAY,
    DEFAULT_K,
    TRAIN_BATCH_SIZE,
    TRAIN_LR,
    ActionChunkTensor,
    Adam,
    NoiseSchedule,
    ToyDenoiser,
    TrainConfig,
    TrainingDivergedError,
    cosine_schedule,
    ddim_sample,
    ema_update,
    forward_noise,
    load_checkpoint,
    model_eps_fn,
    obs_to_condition,
    save_checkpoint,
    sinusoidal_embedding,
    train_regression,
    train_toy,
)
from mobman.geometry import Pose2, Pose3, quat_canonical

import diffusion_reference


class TestSchedule:
    def test_shape_and_endpoints(self):
        sched = cosine_schedule(100)
        assert sched.K == 100
        assert len(sched.alpha_bar) == 101
        assert sched.alpha_bar[0] == pytest.approx(1.0)
        assert sched.alpha_bar[-1] >= 1e-5

    def test_formula(self):
        K, s = 100, 0.008
        sched = cosine_schedule(K, offset=s)
        for k in (1, 17, 50, 99):
            f = math.cos(((k / K + s) / (1 + s)) * math.pi / 2) ** 2
            f0 = math.cos((s / (1 + s)) * math.pi / 2) ** 2
            assert sched.alpha_bar[k] == pytest.approx(max(f / f0, 1e-5), rel=1e-12)

    def test_monotone_decreasing(self):
        ab = cosine_schedule(100).alpha_bar
        assert np.all(np.diff(ab) <= 1e-12)

    def test_validates(self):
        with pytest.raises(ValueError):
            cosine_schedule(0)


class TestForwardProcess:
    def test_marginal_statistics(self):
        sched = cosine_schedule(100)
        rng = np.random.default_rng(0)
        a0 = np.full((10000, 1), 2.0)
        for k in (10, 50, 90):
            eps = rng.standard_normal(a0.shape)
            ak = forward_noise(a0, k, eps, sched)
            ab = sched.alpha_bar[k]
            stderr = math.sqrt(1.0 - ab) / math.sqrt(len(a0))
            assert abs(np.mean(ak) - 2.0 * math.sqrt(ab)) < 3.5 * stderr
            assert abs(np.var(ak) - (1.0 - ab)) < 0.05 * max(1.0 - ab, 0.05)

    def test_per_sample_steps(self):
        sched = cosine_schedule(100)
        a0 = np.ones((4, 3))
        eps = np.zeros((4, 3))
        k = np.array([0, 10, 50, 100])
        ak = forward_noise(a0, k, eps, sched)
        for i, ki in enumerate(k):
            assert np.allclose(ak[i], math.sqrt(sched.alpha_bar[ki]))

    def test_step_bounds(self):
        sched = cosine_schedule(100)
        with pytest.raises(ValueError):
            forward_noise(np.ones(3), 101, np.zeros(3), sched)


class TestDenoiser:
    def _model(self, rng, input_dim=3, cond_dim=2, hidden=8):
        m = ToyDenoiser(input_dim=input_dim, cond_dim=cond_dim, hidden=hidden, kemb_dim=8, temb_dim=8)
        m.init_params(rng)
        # non-trivial FiLM path so its gradients are exercised
        m.params["Wf"] = rng.normal(0.0, 0.1, size=m.params["Wf"].shape)
        m.params["bf"] = rng.normal(0.0, 0.1, size=m.params["bf"].shape)
        return m

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        m = self._model(rng)
        x = rng.normal(size=(5, 3))
        k = np.array([3, 17, 40, 80, 99])
        cond = rng.normal(size=(5, 2))
        target = rng.normal(size=(5, 3))
        _, grads = m.loss_and_grads(x, k, cond, target)
        # directional central differences: robust against the roundoff floor
        # that dominates single near-zero entries
        h = 1e-6
        worst = 0.0
        for name, g in grads.items():
            p = m.params[name]
            for _ in range(8):
                d = rng.normal(size=p.shape)
                d /= np.linalg.norm(d)
                p += h * d
                lp, _ = m.loss_and_grads(x, k, cond, target)
                p -= 2 * h * d
                lm, _ = m.loss_and_grads(x, k, cond, target)
                p += h * d
                fd = (lp - lm) / (2 * h)
                ad = float(np.sum(g * d))
                worst = max(worst, abs(ad - fd) / max(abs(fd), abs(ad), 1e-8))
        assert worst < 1e-4

    def test_forward_deterministic(self):
        rng = np.random.default_rng(2)
        m = self._model(rng)
        x = rng.normal(size=(2, 3))
        cond = rng.normal(size=(2, 2))
        a = m.forward(x, np.array([5, 5]), cond)
        b = m.forward(x, np.array([5, 5]), cond)
        assert np.array_equal(a, b)

    def test_rejects_nonfinite_params(self):
        rng = np.random.default_rng(3)
        m = self._model(rng)
        m.params["W1"][0, 0] = np.nan
        with pytest.raises(ValueError):
            m.forward(np.zeros((1, 3)), np.array([1]), np.zeros((1, 2)))

    @pytest.mark.parametrize("make", [
        lambda shape: np.empty(shape, order="F"), lambda shape: np.empty(shape, dtype=np.float32)
    ], ids=["fortran_order", "float32"])
    def test_grads_out_must_be_c_contiguous_float64(self, make):
        # the gradients are written by np.dot(..., out=), which takes no other array
        m = self._model(np.random.default_rng(3))
        grads = {n: make(shape) for n, shape in m.param_shapes().items()}
        with pytest.raises(ValueError, match="output array is not acceptable"):
            m.loss_and_grads(np.zeros((2, 3)), np.array([1, 2]), np.zeros((2, 2)), np.zeros((2, 3)), grads)

    def test_param_shapes_match_init(self):
        m = self._model(np.random.default_rng(3))
        assert {n: v.shape for n, v in m.params.items()} == m.param_shapes()

    def test_sinusoidal_embedding_shape(self):
        e = sinusoidal_embedding(np.array([0, 5, 99]), dim=16)
        assert e.shape == (3, 16)
        assert np.all(np.abs(e) <= 1.0 + 1e-12)


class TestEmaAndAdam:
    def test_ema_update_math(self):
        shadow = np.ones(3)
        ema_update(shadow, np.zeros(3))
        assert np.allclose(shadow, DEFAULT_EMA_DECAY)

    def test_ema_validates(self):
        with pytest.raises(ValueError):
            ema_update(np.ones(2), np.ones(3))

    def test_adam_descends_quadratic(self):
        weights = np.array([0.5, -0.3])
        opt = Adam(weights)
        for _ in range(1000):
            opt.step(weights, 2.0 * weights)
        assert np.max(np.abs(weights)) < 1e-2


def gaussian_eps_fn(mu, sigma, sched):
    """Exact conditional-expected noise for a scalar Gaussian N(mu, sigma^2)."""

    def fn(x, k, cond):
        ab = sched.alpha_bar[int(k)]
        var = ab * sigma**2 + (1.0 - ab)
        # E[eps | x_k] from the joint Gaussian of (a0, eps, x_k)
        return (x - math.sqrt(ab) * mu) * math.sqrt(1.0 - ab) / var

    return fn


class TestDdim:
    def test_deterministic_given_seed(self):
        sched = cosine_schedule(100)
        fn = gaussian_eps_fn(0.0, 1.0, sched)
        a = ddim_sample(fn, np.zeros((64, 1)), sched, seed=5, sample_dim=1)
        b = ddim_sample(fn, np.zeros((64, 1)), sched, seed=5, sample_dim=1)
        assert np.array_equal(a, b)

    def test_full_schedule_recovers_gaussian(self):
        # analytic score, all 100 steps: output distribution close to target
        sched = cosine_schedule(100)
        mu, sigma = 1.5, 0.7
        fn = gaussian_eps_fn(mu, sigma, sched)
        x = ddim_sample(fn, np.zeros((20000, 1)), sched, n_steps=100, seed=0, sample_dim=1)
        assert abs(np.mean(x) - mu) < 0.02
        assert abs(np.std(x) - sigma) < 0.03

    def test_validates_steps(self):
        sched = cosine_schedule(100)
        fn = gaussian_eps_fn(0.0, 1.0, sched)
        with pytest.raises(ValueError):
            ddim_sample(fn, np.zeros((1, 1)), sched, n_steps=101, sample_dim=1)
        with pytest.raises(ValueError):
            ddim_sample(fn, np.zeros((1, 1)), sched, n_steps=0, sample_dim=1)
        with pytest.raises(TypeError):
            ddim_sample(fn, np.zeros((1, 1)), sched)


def reference_ddim_sample(eps_fn, cond, sched, n_steps, seed, sample_dim):
    """ddim_sample as a loop that reads alpha_bar and takes square roots at every step."""
    rng = np.random.default_rng(seed)
    cond = np.atleast_2d(np.asarray(cond, dtype=float))
    taus = np.unique(np.round(np.linspace(0, sched.K, n_steps + 1)).astype(int))
    x = rng.standard_normal((cond.shape[0], sample_dim))
    for i in range(len(taus) - 1, 0, -1):
        k_hi, k_lo = int(taus[i]), int(taus[i - 1])
        ab_hi = sched.alpha_bar[k_hi]
        ab_lo = sched.alpha_bar[k_lo]
        eps_hat = eps_fn(x, k_hi, cond)
        x0 = (x - math.sqrt(1.0 - ab_hi) * eps_hat) / math.sqrt(ab_hi)
        x = math.sqrt(ab_lo) * x0 + math.sqrt(1.0 - ab_lo) * eps_hat
    return x


class TestDdimTable:
    """ddim_sample reads its coefficients from a table memoised on the schedule."""

    @pytest.mark.parametrize("K, n_steps", [(100, 10), (100, 100), (100, 7), (20, 5)])
    def test_bit_identical_to_per_step_loop(self, K, n_steps):
        sched = cosine_schedule(K)
        fn = gaussian_eps_fn(0.7, 1.0, sched)
        cond = np.zeros((64, 1))
        for _ in range(2):  # the second call reads the memoised table
            got = ddim_sample(fn, cond, sched, n_steps=n_steps, seed=3, sample_dim=1)
            want = reference_ddim_sample(fn, cond, sched, n_steps, seed=3, sample_dim=1)
            assert np.array_equal(got, want)

    def test_rows_hold_an_int_step_and_read_only_0d_coefficients(self):
        sched = cosine_schedule(100)
        ab, k_lo = sched.alpha_bar, 0
        for k_hi, *coefs in reversed(diffusion._ddim_table(sched, 7)):
            assert type(k_hi) is int
            assert all(c.shape == () and c.dtype == np.float64 and not c.flags.writeable for c in coefs)
            want = [math.sqrt(1.0 - ab[k_hi]), math.sqrt(ab[k_hi]), math.sqrt(ab[k_lo]), math.sqrt(1.0 - ab[k_lo])]
            assert [float(c) for c in coefs] == want
            k_lo = k_hi

    def test_schedule_is_read_only(self):
        ab = cosine_schedule(100).alpha_bar.copy()
        sched = NoiseSchedule(K=100, alpha_bar=ab)
        with pytest.raises(ValueError):
            sched.alpha_bar[5] = 0.5
        # the schedule holds a copy, so editing the caller's array cannot
        # make a memoised table stale
        ddim_sample(gaussian_eps_fn(0.0, 1.0, sched), np.zeros((1, 1)), sched, seed=0, sample_dim=1)
        ab[50] = 0.5
        assert sched.alpha_bar[50] != 0.5


class TestFrozenEma:
    """model_eps_fn's adapter: EMA weights checked once, step embeddings memoised."""

    def _model(self, seed=10):
        rng = np.random.default_rng(seed)
        m = TestDenoiser()._model(rng, input_dim=ACTION_DIM, cond_dim=5, hidden=16)
        m.ema = {n: v + rng.normal(0.0, 0.05, size=v.shape) for n, v in m.params.items()}
        return m, rng

    @staticmethod
    def _sub_schedule_steps(K, n_steps):
        # the steps ddim_sample evaluates its eps_fn at
        return np.unique(np.round(np.linspace(0, K, n_steps + 1)).astype(int))[1:]

    @pytest.mark.parametrize("batch", [1, 3, 7])
    def test_bit_identical_to_unmemoised_forward(self, batch):
        m, rng = self._model()
        eps_fn = model_eps_fn(m)
        x = rng.normal(size=(batch, ACTION_DIM))
        cond = rng.normal(size=(batch, 5))
        steps = tuple(int(k) for k in self._sub_schedule_steps(100, 10))
        # the second prepare is served from the memo
        for blocks in (eps_fn.prepare(cond, steps), eps_fn.prepare(cond, steps)):
            assert list(blocks) == list(steps)
            for k in steps:
                want = m.forward(x, np.full(batch, k), cond, use_ema=True)
                assert eps_fn(x, k, blocks).tobytes() == want.tobytes()

    def test_sampling_bit_identical_to_unmemoised_forward(self):
        m, _ = self._model()
        sched = cosine_schedule(100)

        def unmemoised(x, k, cond):
            return m.forward(x, np.full(len(x), k), cond, use_ema=True)

        cond = np.zeros((3, 5))
        a = ddim_sample(model_eps_fn(m), cond, sched, seed=4, sample_dim=ACTION_DIM)
        b = ddim_sample(unmemoised, cond, sched, seed=4, sample_dim=ACTION_DIM)
        assert np.array_equal(a, b)

    def test_nonfinite_ema_rejected_when_built(self):
        m, _ = self._model()
        m.ema["Wk2"][1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite parameters"):
            model_eps_fn(m)

    def test_memo_cannot_go_stale(self):
        m, rng = self._model()
        built_on = dataclasses.replace(m, ema={n: v.copy() for n, v in m.ema.items()})
        eps_fn = model_eps_fn(m)
        x = rng.normal(size=(1, ACTION_DIM))
        cond = rng.normal(size=(1, 5))
        eps_fn.prepare(cond, (50,))  # memoises step 50
        m.ema["Wk1"] += 0.5  # in place
        m.ema["Wk2"] = m.ema["Wk2"] * 2.0  # rebound
        m.ema["W2"] += 0.5
        for k in (50, 60):  # memoised before the change, and not
            want = built_on.forward(x, np.full(1, k), cond, use_ema=True)
            assert np.array_equal(eps_fn(x, k, eps_fn.prepare(cond, (k,))), want)
        # an adapter built after the change reads the new weights
        fresh_fn = model_eps_fn(m)
        fresh = fresh_fn(x, 50, fresh_fn.prepare(cond, (50,)))
        assert np.array_equal(fresh, m.forward(x, np.full(1, 50), cond, use_ema=True))
        assert not np.array_equal(fresh, eps_fn(x, 50, eps_fn.prepare(cond, (50,))))

    def test_one_forward_call_per_evaluation(self, monkeypatch):
        m, _ = self._model()
        forward = ToyDenoiser.forward
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(args[1])
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(ToyDenoiser, "forward", counted)
        sched = cosine_schedule(100)
        ddim_sample(model_eps_fn(m), np.zeros((1, 5)), sched, seed=0, sample_dim=ACTION_DIM)
        assert calls == list(self._sub_schedule_steps(100, 10))[::-1]

    def test_training_path_still_checks_every_call(self):
        m, _ = self._model()
        model_eps_fn(m)
        x, k, cond = np.zeros((1, ACTION_DIM)), np.array([3]), np.zeros((1, 5))
        m.params["W1"][0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite parameters"):
            m.loss_and_grads(x, k, cond, np.zeros((1, ACTION_DIM)))
        m.ema["W1"][0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite parameters"):
            m.forward(x, k, cond, use_ema=True)


class TestPreparedSampler:
    """ddim_sample hands model_eps_fn's adapter its condition and steps once;
    the stacked FiLM product keeps every bit of a per-step forward."""

    @pytest.mark.parametrize("n_steps", [1, 2, 10, 100])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("hidden", [16, 64])
    def test_bit_identical_to_per_step_forward(self, hidden, batch, n_steps):
        rng = np.random.default_rng(40 + hidden)
        m = TestDenoiser()._model(rng, input_dim=ACTION_DIM, cond_dim=COND_DIM, hidden=hidden)
        m.ema = {n: v + rng.normal(0.0, 0.05, size=v.shape) for n, v in m.params.items()}
        sched = cosine_schedule(100)

        def per_step(x, k, cond):
            return m.forward(x, np.full(len(x), k), cond, use_ema=True)

        cond = rng.normal(size=(batch, COND_DIM))
        eps_fn = model_eps_fn(m)
        for seed in (0, 1):  # the second sample reads the memoised embeddings
            got = ddim_sample(eps_fn, cond, sched, n_steps=n_steps, seed=seed, sample_dim=ACTION_DIM)
            want = reference_ddim_sample(per_step, cond, sched, n_steps, seed, ACTION_DIM)
            assert got.tobytes() == want.tobytes()

    def test_prepare_after_sampling_reads_its_own_cond(self):
        # the adapter keeps no sample's FiLM blocks, so the next prepare of
        # the caller's cond, edited in place after sampling, reads the edit
        m, rng = TestFrozenEma()._model()
        eps_fn = model_eps_fn(m)
        cond = rng.normal(size=(1, 5))
        ddim_sample(eps_fn, cond, cosine_schedule(100), seed=0, sample_dim=ACTION_DIM)
        cond += 1.0
        x = rng.normal(size=(1, ACTION_DIM))
        steps = tuple(int(k) for k in TestFrozenEma._sub_schedule_steps(100, 10))[::-1]
        blocks = eps_fn.prepare(cond, steps)
        for k in steps:
            want = m.forward(x, np.full(1, k), cond, use_ema=True)
            assert eps_fn(x, k, blocks).tobytes() == want.tobytes()

    def test_empty_batch(self):
        m, _ = TestFrozenEma()._model()
        out = m.forward(np.zeros((0, ACTION_DIM)), np.zeros(0, dtype=int), np.zeros((0, 5)))
        assert out.shape == (0, ACTION_DIM)
        x = ddim_sample(model_eps_fn(m), np.zeros((0, 5)), cosine_schedule(100), seed=0, sample_dim=ACTION_DIM)
        assert x.shape == (0, ACTION_DIM)

    @pytest.mark.parametrize("dim", [8, 16])
    def test_step_feature_rows_match_any_batch(self, dim):
        table = sinusoidal_embedding(np.arange(1001), dim)
        for k in range(1001):
            assert table[k].tobytes() == sinusoidal_embedding(np.array([k]), dim)[0].tobytes(), k
        m = ToyDenoiser(input_dim=1, cond_dim=1, kemb_dim=dim)
        rng = np.random.default_rng(dim)
        for _ in range(200):
            ks = rng.integers(0, 1001, size=rng.integers(1, 130))
            assert m._step_features(ks).tobytes() == sinusoidal_embedding(ks, dim).tobytes()


class TestDispatchPremise:
    """The premise of the denoiser's cheaper numpy dispatch, at its own shapes:
    ndarray.dot and np.dot(out=) give the bits of @ and np.matmul, the stacked
    FiLM product gives the bits of a .dot per stack entry, a (1, n) bias row
    adds like an (n,) vector, and a 0-d coefficient acts like a Python float.
    A numpy or BLAS that breaks one of these fails here by name."""

    @staticmethod
    def _products(rng, batch, input_dim, cond_dim, hidden, kemb_dim=16, temb_dim=32):
        """(A, B) pairs of every 2-D product of a forward and a backward pass."""
        B, D, C, H, E, T = batch, input_dim, cond_dim, hidden, kemb_dim, temb_dim
        W = ToyDenoiser(input_dim=D, cond_dim=C, hidden=H, kemb_dim=E, temb_dim=T).param_shapes()
        w = {n: rng.normal(size=shape) for n, shape in W.items() if len(shape) == 2}
        act = {n: rng.normal(size=(B, width)) for n, width in dict(x=D, h=H, c=C + T, k=E, t=T, f=4 * H).items()}
        return [
            (act["x"], w["W1"]), (act["h"], w["W2"]), (act["h"], w["W3"]), (act["c"], w["Wf"]),
            (act["k"], w["Wk1"]), (act["t"], w["Wk2"]),
            (act["h"].T, act["x"]), (act["x"], w["W3"].T), (act["h"].T, act["h"]), (act["h"], w["W2"].T),
            (act["x"].T, act["h"]), (act["c"].T, act["f"]), (act["f"], w["Wf"][C:].T),
            (act["t"].T, act["t"]), (act["t"], w["Wk2"].T), (act["k"].T, act["t"]),
        ]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        hidden=st.integers(4, 64),
        cond_dim=st.integers(1, 22),
        input_dim=st.integers(1, ACTION_DIM),
        batch=st.sampled_from([1, 3, 64]),
        n_steps=st.sampled_from([1, 2, 10]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cheaper_dispatch_keeps_bits(self, hidden, cond_dim, input_dim, batch, n_steps, seed):
        rng = np.random.default_rng(seed)
        for a, b in self._products(rng, batch, input_dim, cond_dim, hidden):
            want = (a @ b).tobytes()
            assert a.dot(b).tobytes() == want, (a.shape, b.shape)
            # into a view of a flat buffer, as _fit's gradients are
            out = np.empty(a.shape[0] * b.shape[1] + 5)[5:].reshape(a.shape[0], b.shape[1])
            np.dot(a, b, out=out)
            assert out.tobytes() == np.matmul(a, b).tobytes(), (a.shape, b.shape)

        wf = rng.normal(size=(cond_dim + 32, 4 * hidden))
        stack = rng.normal(size=(n_steps, batch, cond_dim + 32))
        stacked = stack @ wf
        for entry, row in zip(stack, stacked):
            assert entry.dot(wf).tobytes() == row.tobytes()

        for n in (hidden, input_dim):
            z, bias = rng.normal(size=(batch, n)), rng.normal(size=n)
            want = z + bias
            z += bias.reshape(1, n)
            assert z.tobytes() == want.tobytes()

        coefs = rng.uniform(1e-3, 1.0, size=4).tolist()
        for rows in (1, 3, 2000):
            x, eps = rng.normal(size=(2, rows, input_dim))
            got, tmp = x.copy(), np.empty_like(x)
            for c in coefs:  # ddim_sample's update, with a Python float and a 0-d array
                np.multiply(c, eps, out=tmp)
                x -= tmp
                x /= c
                x *= c
                c0 = np.array(c)
                np.multiply(c0, eps, out=tmp)
                got -= tmp
                got /= c0
                got *= c0
            assert got.tobytes() == x.tobytes(), rows


class TestTraining:
    def test_loss_decreases(self):
        rng = np.random.default_rng(4)
        conds = rng.normal(size=(256, 2))
        a0s = conds @ np.array([[1.0, 0.0], [0.0, -1.0]])
        _, _, curve = train_toy(conds, a0s, TrainConfig(steps=300, seed=0))
        assert np.mean(curve[-30:]) < np.mean(curve[:30])

    def test_deterministic_per_seed(self, tmp_path):
        rng = np.random.default_rng(5)
        conds = rng.normal(size=(64, 2))
        a0s = rng.normal(size=(64, 3))
        cfg = TrainConfig(steps=50, seed=7)
        m1, s1, _ = train_toy(conds, a0s, cfg)
        m2, s2, _ = train_toy(conds, a0s, cfg)
        save_checkpoint(tmp_path / "a.json", m1, s1)
        save_checkpoint(tmp_path / "b.json", m2, s2)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_toy(np.zeros((0, 2)), np.zeros((0, 3)))

    @pytest.mark.parametrize("trainer", [train_toy, train_regression])
    @pytest.mark.parametrize("n_conds, n_labels", [(10, 5), (5, 10)])
    def test_count_mismatch_rejected(self, trainer, n_conds, n_labels):
        with pytest.raises(ValueError, match="count mismatch"):
            trainer(np.zeros((n_conds, 2)), np.zeros((n_labels, 3)), TrainConfig(steps=1))

    def test_divergence_reports_step(self, monkeypatch):
        rng = np.random.default_rng(6)
        conds = rng.normal(size=(32, 2))
        a0s = rng.normal(size=(32, 3))
        loss_and_grads = ToyDenoiser.loss_and_grads
        calls = []

        def nan_at_step_3(self, *args):
            loss, grads = loss_and_grads(self, *args)
            calls.append(loss)
            return (math.nan if len(calls) == 4 else loss), grads

        monkeypatch.setattr(ToyDenoiser, "loss_and_grads", nan_at_step_3)
        with pytest.raises(TrainingDivergedError) as err:
            train_toy(conds, a0s, TrainConfig(steps=50, seed=0))
        assert err.value.step == 3

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        conds = rng.normal(size=(32, 2))
        a0s = rng.normal(size=(32, 3))
        m, sched, _ = train_toy(conds, a0s, TrainConfig(steps=20, seed=1))
        save_checkpoint(tmp_path / "m.json", m, sched)
        m2, sched2 = load_checkpoint(tmp_path / "m.json")
        assert sched2.K == sched.K
        assert np.array_equal(sched2.alpha_bar, sched.alpha_bar)
        assert list(m2.ema) == list(m.ema) and m2.params == {}
        for name, w in m.ema.items():
            assert np.array_equal(m2.ema[name], w), name
        x = rng.normal(size=(4, 3))
        cond = rng.normal(size=(4, 2))
        assert np.allclose(
            m.forward(x, np.array([5] * 4), cond, use_ema=True),
            m2.forward(x, np.array([5] * 4), cond, use_ema=True),
        )

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path):
        rng = np.random.default_rng(8)
        m, sched, _ = train_toy(rng.normal(size=(16, 2)), rng.normal(size=(16, 3)), TrainConfig(steps=3))
        path = tmp_path / "m.json"
        save_checkpoint(path, m, sched)
        before = path.read_bytes()
        # this EMA weight cannot become float64, so the save fails
        m.ema["b3"] = np.array(["x"] * 3, dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(path, m, sched)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def reference_train_toy(conds, a0s, steps, seed):
    """train_toy as a loop in which Adam and the EMA update each weight array on its own."""
    sched = cosine_schedule(DEFAULT_K)
    rng = np.random.default_rng(seed)
    model = ToyDenoiser(input_dim=a0s.shape[1], cond_dim=conds.shape[1])
    model.init_params(rng)
    m = {n: np.zeros_like(v) for n, v in model.params.items()}
    v = {n: np.zeros_like(p) for n, p in model.params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    curve = []
    for t in range(1, steps + 1):
        idx = rng.integers(0, len(a0s), size=TRAIN_BATCH_SIZE)
        a0 = a0s[idx]
        k = rng.integers(1, DEFAULT_K + 1, size=len(a0))
        noise = rng.standard_normal(a0.shape)
        loss, grads = model.loss_and_grads(forward_noise(a0, k, noise, sched), k, conds[idx], noise)
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for n, g in grads.items():
            m[n] = beta1 * m[n] + (1.0 - beta1) * g
            v[n] = beta2 * v[n] + (1.0 - beta2) * g * g
            model.params[n] -= TRAIN_LR * (m[n] / bc1) / (np.sqrt(v[n] / bc2) + eps)
        for n, p in model.params.items():
            model.ema[n] *= DEFAULT_EMA_DECAY
            model.ema[n] += (1.0 - DEFAULT_EMA_DECAY) * p
        curve.append(loss)
    return model, curve


class TestSameBytes:
    """The flat-buffer trainer changes no bit; the checkpoint keeps every bit of the EMA weights."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_train_toy_matches_per_array_loop(self, seed):
        rng = np.random.default_rng(20 + seed)
        conds = rng.normal(size=(48, 22))
        a0s = 0.05 * rng.normal(size=(48, ACTION_DIM))
        model, _, curve = train_toy(conds, a0s, TrainConfig(steps=50, seed=seed))
        want, want_curve = reference_train_toy(conds, a0s, 50, seed)
        assert curve == want_curve
        for group in ("params", "ema"):
            got, ref = getattr(model, group), getattr(want, group)
            assert list(got) == list(ref)
            for name in ref:
                assert np.array_equal(got[name], ref[name]), (group, name)

    def test_checkpoint_bytes_equal_json_dump(self, tmp_path):
        rng = np.random.default_rng(21)
        model, sched, _ = train_toy(rng.normal(size=(16, 4)), rng.normal(size=(16, 3)), TrainConfig(steps=5))
        save_checkpoint(tmp_path / "m.json", model, sched)
        # each EMA array as base64 of its little-endian float64 bytes in C order
        ema = {
            n: base64.b64encode(v.astype("<f8").tobytes()).decode("ascii") for n, v in model.ema.items()
        }
        doc = {
            "version": CHECKPOINT_VERSION,
            **{n: getattr(model, n) for n in CHECKPOINT_DIMS},
            "K": sched.K,
            "alpha_bar": sched.alpha_bar.tolist(),
            "ema": ema,
        }
        assert (tmp_path / "m.json").read_bytes() == json.dumps(doc, sort_keys=True).encode("utf-8")

    # weights with every kind of finite float64: signed zeros, subnormals,
    # the smallest normal and the largest magnitudes
    SPECIAL = [
        0.0, -0.0, 5e-324, -2.5e-310, sys.float_info.min, sys.float_info.max, -sys.float_info.max
    ]
    SHAPES = ToyDenoiser(input_dim=2, cond_dim=1, hidden=2, kemb_dim=2, temb_dim=2).param_shapes()
    N_WEIGHTS = sum(math.prod(shape) for shape in SHAPES.values())

    @settings(max_examples=40, deadline=None)
    @example(values=(SPECIAL * N_WEIGHTS)[:N_WEIGHTS])
    @given(
        st.lists(
            st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=N_WEIGHTS,
            max_size=N_WEIGHTS,
        )
    )
    def test_checkpoint_weights_round_trip_bit_for_bit(self, values):
        model = ToyDenoiser(input_dim=2, cond_dim=1, hidden=2, kemb_dim=2, temb_dim=2)
        flat, at = np.array(values), 0
        for name, shape in self.SHAPES.items():
            n = math.prod(shape)
            model.ema[name] = flat[at:at + n].reshape(shape)
            at += n
        with tempfile.TemporaryDirectory() as d:
            save_checkpoint(Path(d) / "m.json", model, cosine_schedule())
            loaded, _ = load_checkpoint(Path(d) / "m.json")
        assert list(loaded.ema) == list(model.ema)
        for name, w in model.ema.items():
            assert loaded.ema[name].tobytes() == w.tobytes(), name

    def _rebound(arrays, name):
        arrays[name] = np.full_like(arrays[name], np.nan)

    def _edited(arrays, name):
        arrays[name].flat[1] = np.nan

    @pytest.mark.parametrize("edit", [_rebound, _edited], ids=["rebound", "nan_in_place"])
    @pytest.mark.parametrize("name", ["W1", "bf", "Wk2"])
    def test_trained_weights_still_checked(self, edit, name):
        rng = np.random.default_rng(22)
        conds, a0s = rng.normal(size=(16, 4)), rng.normal(size=(16, 3))
        x, k, cond = np.zeros((1, 3)), np.array([3]), np.zeros((1, 4))
        model, _, _ = train_toy(conds, a0s, TrainConfig(steps=5))
        edit(model.params, name)
        with pytest.raises(ValueError, match="non-finite parameters"):
            model.loss_and_grads(x, k, cond, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="non-finite parameters"):
            model.forward(x, k, cond)
        model, _, _ = train_toy(conds, a0s, TrainConfig(steps=5))
        edit(model.ema, name)
        with pytest.raises(ValueError, match="non-finite parameters"):
            model.forward(x, k, cond, use_ema=True)
        with pytest.raises(ValueError, match="non-finite parameters"):
            model_eps_fn(model)


class TestOnePassFiniteCheck:
    """While model.params holds _fit's views of its weight buffer, each
    training step checks the buffer in one pass; any other params dict is
    checked array by array."""

    def _trained(self):
        rng = np.random.default_rng(23)
        model, _, _ = train_toy(rng.normal(size=(16, 4)), rng.normal(size=(16, 3)), TrainConfig(steps=3))
        return model, (np.zeros((1, 3)), np.array([3]), np.zeros((1, 4)), np.zeros((1, 3)))

    @pytest.mark.parametrize("name", list(ToyDenoiser(input_dim=3, cond_dim=4).param_shapes()))
    def test_nan_in_any_view_or_rebound_is_caught(self, name):
        model, args = self._trained()
        model.loss_and_grads(*args)
        model.params[name].flat[-1] = np.nan  # in place, into the buffer
        with pytest.raises(ValueError, match="non-finite parameters"):
            model.loss_and_grads(*args)
        model, args = self._trained()
        model.params[name] = np.full_like(model.params[name], np.nan)
        with pytest.raises(ValueError, match="non-finite parameters"):
            model.loss_and_grads(*args)

    def test_params_fit_did_not_build_are_checked_per_array(self):
        model, args = self._trained()
        buffer = model._flat
        model.params = {n: v.copy() for n, v in model.params.items()}
        buffer[0] = np.nan  # no longer the weights in use
        model.loss_and_grads(*args)
        model.params["bk2"][0] = np.inf
        with pytest.raises(ValueError, match="non-finite parameters"):
            model.loss_and_grads(*args)
        model, args = self._trained()
        model.params["extra"] = np.array([np.nan])
        with pytest.raises(ValueError, match="non-finite parameters"):
            model.loss_and_grads(*args)

    def test_buffer_checked_in_one_pass_only_while_params_are_its_views(self):
        buffer = np.arange(7.0)
        views = {"a": buffer[:3], "b": buffer[3:6].reshape(3, 1)}
        buffer[6] = np.nan  # outside every view: only the one pass sees it
        with pytest.raises(ValueError, match="non-finite parameters"):
            diffusion._check_finite(views, buffer)
        with pytest.raises(ValueError, match="non-finite parameters"):
            diffusion._check_finite({"a": views["a"], "b": buffer[3:6, None]}, buffer)  # new views, same memory
        diffusion._check_finite({**views, "b": views["b"].copy()}, buffer)
        diffusion._check_finite(views, np.arange(7.0))  # another buffer: per array

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_copied_model_checks_its_own_weights(self, clone):
        model, args = self._trained()
        twin = clone(model)
        twin.params["W2"].flat[0] = np.nan  # the copied views no longer share the copied buffer
        with pytest.raises(ValueError, match="non-finite parameters"):
            twin.loss_and_grads(*args)
        model.loss_and_grads(*args)

    def test_sampling_weights_read_only_and_checked(self, monkeypatch):
        model, _ = self._trained()
        model.ema["W2"].flat[0] = np.nan
        with pytest.raises(ValueError, match="non-finite parameters"):
            model_eps_fn(model)
        model, _ = self._trained()
        frozen = []
        forward = ToyDenoiser.forward

        def recorded(self, *args, **kwargs):
            frozen.append(kwargs["frozen"][0])
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(ToyDenoiser, "forward", recorded)
        ddim_sample(model_eps_fn(model), np.zeros((1, 4)), cosine_schedule(100), seed=0, sample_dim=3)
        weights = frozen[0]
        assert all(w is weights for w in frozen)
        for name, w in weights.items():
            assert not w.flags.writeable, name
            want = model.ema[name].reshape(1, -1) if name in ("b1", "b2", "b3") else model.ema[name]
            assert w.shape == want.shape and w.tobytes() == want.tobytes(), name


class TestTrainingStepOracle:
    """Five steps of each trainer give the bits of the step kept in
    tests/diffusion_reference.py: allocating Adam and EMA, one concatenated
    flat gradient, the full df @ Wf.T product and per-batch step features."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        input_dim=st.integers(1, 11),
        cond_dim=st.integers(1, 22),
        hidden=st.integers(4, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trainers_match_reference_step(self, input_dim, cond_dim, hidden, seed):
        rng = np.random.default_rng(seed)
        conds = rng.normal(size=(40, cond_dim))
        a0s = 0.5 * rng.normal(size=(40, input_dim))
        cfg = TrainConfig(steps=5, seed=seed)
        # the trainers build a default-width model; this one is hidden wide
        with mock.patch.object(diffusion, "ToyDenoiser", functools.partial(ToyDenoiser, hidden=hidden)):
            toy, _, toy_curve = train_toy(conds, a0s, cfg)
            reg, reg_curve = train_regression(conds, a0s, cfg)
        for model, curve, reference in (
            (toy, toy_curve, diffusion_reference.train_toy),
            (reg, reg_curve, diffusion_reference.train_regression),
        ):
            params, ema, want_curve = reference(conds, a0s, 5, seed, hidden)
            assert curve == want_curve
            assert list(model.ema) == list(ema)
            for name in ema:
                assert model.params[name].tobytes() == params[name].tobytes(), name
                assert model.ema[name].tobytes() == ema[name].tobytes(), name


class TestActionChunks:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ActionChunkTensor(np.zeros((4, 10)))

    def test_canonicalized_quaternions(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(6, ACTION_DIM))
        chunk = ActionChunkTensor(vals).canonicalized()
        for row in chunk.values:
            assert row[6] >= 0.0
            assert abs(np.linalg.norm(row[6:10]) - 1.0) < 1e-12

    def test_canonicalized_matches_per_row_loop(self):
        rng = np.random.default_rng(31)
        vals = rng.normal(size=(9, ACTION_DIM))
        vals[1, 6:10] = (0.0, -0.3, 0.4, 0.0)  # w == 0: the first nonzero component decides
        vals[2, 6:10] = (-0.0, 0.0, 0.0, 2.0)
        vals[3, 6:10] = (0.0, 0.0, -0.0, -1e-3)
        vals[4, 6:10] = (-1e-150, 5e-151, 0.0, 0.0)
        vals[5, 6:10] = (1e150, -1e150, 3e149, 0.0)
        # the loop canonicalized ran before it became one row call
        expected = vals.copy()
        for i in range(len(expected)):
            expected[i, 6:10] = quat_canonical(expected[i, 6:10])
        got = ActionChunkTensor(vals).canonicalized().values
        assert got.tobytes() == expected.tobytes()
        assert got[1, 7] > 0.0 and got[3, 9] > 0.0

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_canonicalized_rejects_a_degenerate_block(self, bad):
        vals = np.tile([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], (4, 1))
        vals[2, 6:10] = (bad, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="^cannot canonicalize a zero or non-finite quaternion$"):
            ActionChunkTensor(vals).canonicalized()

    def test_obs_to_condition_layout(self):
        base = Pose2(1.0, 2.0, 0.3)
        hand = Pose3(np.array([1.0, 0, 0, 0]), np.array([0.3, 0.0, -0.2]))
        prev = np.arange(ACTION_DIM, dtype=float)
        state = (*dataclasses.astuple(base), *hand.to_list(), 0.5)
        cond = obs_to_condition(state, prev, np.array([9.0]))
        assert cond.shape == (3 + 3 + 4 + 1 + ACTION_DIM + 1,)
        assert np.allclose(cond[:3], [1.0, 2.0, 0.3])
        assert cond[10] == 0.5
        assert cond[-1] == 9.0
        with pytest.raises(ValueError):
            obs_to_condition(state, np.zeros(5), np.zeros(0))

    def test_previous_action_offset(self):
        base = Pose2(1.0, 2.0, 0.3)
        hand = Pose3(np.array([1.0, 0, 0, 0]), np.array([0.3, 0.0, -0.2]))
        prev = np.arange(ACTION_DIM, dtype=float) + 1.0
        cond = obs_to_condition((*dataclasses.astuple(base), *hand.to_list(), 0.5), prev, np.array([9.0, 8.0]))
        # the previous action fills the second half of the COND_DIM floats
        assert np.array_equal(cond[COND_DIM - ACTION_DIM : COND_DIM], prev)
        assert cond[COND_DIM - ACTION_DIM - 1] == 0.5
        assert cond.shape == (COND_DIM + 2,)

    @pytest.mark.parametrize("features", [(), (9.0, 8.0)])
    def test_stacked_rows_match_row_by_row(self, features):
        rng = np.random.default_rng(33)
        states, prevs = rng.normal(size=(5, ACTION_DIM)), rng.normal(size=(5, ACTION_DIM))
        stacked = obs_to_condition(states, prevs, features)
        rows = [obs_to_condition(s, p, features) for s, p in zip(states, prevs)]
        assert stacked.tobytes() == np.array(rows).tobytes()
        assert stacked.shape == (5, COND_DIM + len(features))
        with pytest.raises(ValueError):
            obs_to_condition(states, prevs[:, :5], features)
