"""Desk-scale diffusion machinery for action-chunk generation.

Noise schedule, forward process, training loss, EMA, deterministic DDIM
sampling, and a small FiLM-conditioned MLP denoiser whose gradients are
derived by hand (verified against finite differences in the tests). The
network is a low-dimensional stand-in for an image-conditioned temporal
U-Net; the schedule, loss, conditioning mechanism, EMA, sampler, and horizon
semantics are the ones that matter here.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .jsonl import MalformedInputError, fields_of, finite_float64, finite_numbers, float64_text, read_json

DEFAULT_K = 100
DEFAULT_DDIM_STEPS = 10
DEFAULT_EMA_DECAY = 0.9999
ACTION_DIM = 11
DEFAULT_HORIZON = 16
TRAIN_BATCH_SIZE = 64
TRAIN_LR = 2e-3
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, reason: str = "loss became non-finite at"):
        super().__init__(f"{reason} step {step}")
        self.step = step


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal fractions alpha_bar[0..K] of the forward process."""

    K: int
    alpha_bar: np.ndarray
    # n_steps -> ddim_sample's coefficient table (see _ddim_table); alpha_bar is
    # a read-only copy, so a table cannot go stale
    _ddim_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        ab = np.array(self.alpha_bar, dtype=float)
        if ab.shape != (self.K + 1,):
            raise ValueError(f"alpha_bar must have K+1 = {self.K + 1} entries, not {ab.shape}")
        if not np.all((ab > 0.0) & (ab <= 1.0)):
            raise ValueError("alpha_bar must lie in (0, 1]")
        if ab[0] < 0.999:
            raise ValueError("alpha_bar[0] must be ~1")
        if np.any(np.diff(ab) > 0.0):
            raise ValueError("alpha_bar must not increase with k")
        ab.flags.writeable = False
        object.__setattr__(self, "alpha_bar", ab)


def cosine_schedule(K: int = DEFAULT_K, offset: float = 0.008) -> NoiseSchedule:
    """Squared-cosine schedule with the usual small offset, clipped away from 0."""
    if K < 1:
        raise ValueError("K must be >= 1")
    k = np.arange(K + 1, dtype=float)
    f = np.cos(((k / K + offset) / (1.0 + offset)) * (math.pi / 2.0)) ** 2
    ab = np.clip(f / f[0], 1e-5, 1.0)
    return NoiseSchedule(K=K, alpha_bar=ab)


def forward_noise(a0: np.ndarray, k: np.ndarray | int, eps: np.ndarray, sched: NoiseSchedule):
    """Noisy sample a^k = sqrt(ab_k) a^0 + sqrt(1 - ab_k) eps."""
    a0 = np.asarray(a0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    k_arr = np.asarray(k)
    if np.any(k_arr < 0) or np.any(k_arr > sched.K):
        raise ValueError(f"diffusion step out of range [0, {sched.K}]")
    ab = sched.alpha_bar[k_arr]
    if a0.ndim > 1 and ab.ndim == 1:
        ab = ab.reshape((-1,) + (1,) * (a0.ndim - 1))
    return np.sqrt(ab) * a0 + np.sqrt(1.0 - ab) * eps


def sinusoidal_embedding(k: np.ndarray, dim: int = 16) -> np.ndarray:
    """Sin/cos positional features of the diffusion step index."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = k[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _check_finite(params: dict, buffer: np.ndarray | None = None) -> None:
    """ValueError unless every array of params is finite.

    buffer is _fit's weight buffer: while every array of params is a view of
    its memory, one pass over the buffer checks every weight.
    """
    arrays = params.values()
    if buffer is not None and all(v.base is buffer for v in arrays):
        arrays = (buffer,)
    for v in arrays:
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite parameters")


@dataclass
class ToyDenoiser:
    """Two-hidden-layer MLP with FiLM conditioning on (condition, step).

    The diffusion step is embedded sinusoidally and passed through a two-layer
    MLP; the result is concatenated with the condition vector and linearly
    mapped to per-channel (gamma, beta) pairs applied after each hidden
    activation (gamma = 1 + raw so zero FiLM weights are the identity).
    Gradients are computed analytically in loss_and_grads.

    The products of _step_embedding, _trunk and all but one of
    loss_and_grads go through ndarray.dot or np.dot(..., out=), which give
    the bits of @ and np.matmul at less numpy dispatch per call; _film's
    product, which may be stacked, and the Wf gradient stay on matmul.
    """

    input_dim: int
    cond_dim: int
    hidden: int = 64
    kemb_dim: int = 16
    temb_dim: int = 32
    params: dict = field(default_factory=dict)
    ema: dict = field(default_factory=dict)
    # sinusoidal_embedding(arange(DEFAULT_K + 1), kemb_dim), built on first use
    # (see _step_features)
    _kfeat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # _fit's weight buffer, whose views it put in params, for _check_finite
    _flat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def init_params(self, rng: np.random.Generator) -> None:
        """Zero biases and FiLM weights; normal weights of scale 1/sqrt(fan-in),
        scaled down to 1e-2/sqrt(hidden) for the output layer W3."""
        self.params = {}
        for name, shape in self.param_shapes().items():
            if len(shape) == 1 or name == "Wf":
                self.params[name] = np.zeros(shape)
            else:
                scale = (1e-2 if name == "W3" else 1.0) / math.sqrt(shape[0])
                self.params[name] = rng.normal(0.0, scale, size=shape)
        self.ema = {name: v.copy() for name, v in self.params.items()}

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """The shape of every weight array, by name."""
        H, D, C, E, T = self.hidden, self.input_dim, self.cond_dim, self.kemb_dim, self.temb_dim
        return {
            "W1": (D, H),
            "b1": (H,),
            "W2": (H, H),
            "b2": (H,),
            "W3": (H, D),
            "b3": (D,),
            "Wf": (C + T, 4 * H),
            "bf": (4 * H,),
            "Wk1": (E, T),
            "bk1": (T,),
            "Wk2": (T, T),
            "bk2": (T,),
        }

    # -- forward ------------------------------------------------------------

    def _step_features(self, k):
        """sinusoidal_embedding(k, kemb_dim), bit for bit.

        Steps 0..DEFAULT_K are rows of a table memoised on the model: row k of
        one call over all of them has the bits of row k of any batch's call.
        Other steps are embedded directly.
        """
        k = np.atleast_1d(np.asarray(k))
        if self._kfeat is None:
            self._kfeat = sinusoidal_embedding(np.arange(DEFAULT_K + 1), self.kemb_dim)
        if k.dtype.kind in "iu" and np.all((k >= 0) & (k <= DEFAULT_K)):
            return self._kfeat[k]
        return sinusoidal_embedding(k, self.kemb_dim)

    def _step_embedding(self, params, k):
        """(kfeat, t1, temb): sinusoidal features, hidden layer and embedding of steps k."""
        kfeat = self._step_features(k)
        t1 = np.tanh(kfeat.dot(params["Wk1"]) + params["bk1"])
        return kfeat, t1, t1.dot(params["Wk2"]) + params["bk2"]

    def _forward(self, params, x, k, cond):
        """Output for batch x at steps k under cond, and its cache.

        Converts x and cond to 2-D float arrays, checks params for finiteness
        and embeds k.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cond = np.atleast_2d(np.asarray(cond, dtype=float))
        _check_finite(params, self._flat)
        kfeat, t1, temb = self._step_embedding(params, k)
        c, f = self._film(params, cond, temb)
        out, cache = self._trunk(params, x, f)
        return out, (x, kfeat, t1, c, f) + cache

    def _film(self, params, cond, temb):
        """(c, f): the FiLM input [cond, temb] and its (gamma1, beta1, gamma2,
        beta2) blocks, each hidden wide, with gamma = 1 + raw.

        temb may carry leading axes that cond lacks, such as a stack of steps;
        cond is then the same in every stack entry. numpy multiplies each
        stack entry by Wf with its own BLAS call, so every entry has the bits
        of a call on that entry alone.
        """
        H, C = self.hidden, cond.shape[-1]
        c = np.empty((*temb.shape[:-1], C + temb.shape[-1]))
        c[..., :C] = cond
        c[..., C:] = temb
        f = c @ params["Wf"]
        f += params["bf"]
        f.reshape(*f.shape[:-1], 2, 2 * H)[..., :H] += 1.0
        return c, f

    def _trunk(self, params, x, f):
        """Output for the 2-D float batch x under the FiLM blocks f of _film,
        and (h1, a1, h2, a2)."""
        H = self.hidden
        h1 = x.dot(params["W1"])
        h1 += params["b1"]
        np.tanh(h1, out=h1)
        a1 = f[:, :H] * h1
        a1 += f[:, H : 2 * H]
        h2 = a1.dot(params["W2"])
        h2 += params["b2"]
        np.tanh(h2, out=h2)
        a2 = f[:, 2 * H : 3 * H] * h2
        a2 += f[:, 3 * H :]
        out = a2.dot(params["W3"])
        out += params["b3"]
        return out, (h1, a1, h2, a2)

    def forward(self, x, k, cond, use_ema: bool = False, frozen: tuple | None = None) -> np.ndarray:
        """Predicted noise for batch x at steps k (one per row) under cond.

        Reads the EMA weights if use_ema, else the training weights, and checks
        them for finiteness on every call. model_eps_fn passes `frozen`, a pair
        of weights it has checked and the FiLM blocks (see _film) of a cond at
        a step under them; k, cond and use_ema are then not read, and x is the
        2-D float array that ddim_sample passes.
        """
        if frozen is not None:
            weights, f = frozen
            return self._trunk(weights, x, f)[0]
        out, _ = self._forward(self.ema if use_ema else self.params, x, k, cond)
        return out

    # -- backward -----------------------------------------------------------

    def loss_and_grads(self, x, k, cond, eps_target, grads_out: dict | None = None):
        """MSE loss against eps_target and its exact gradients w.r.t. params.

        The gradients are written into grads_out, a dict of C-contiguous
        float64 arrays of the params' shapes by name, when it is given (and
        into new arrays when not); the dict is returned.
        """
        p = self.params
        out, cache = self._forward(p, x, k, cond)
        eps_target = np.atleast_2d(np.asarray(eps_target, dtype=float))
        if out.shape != eps_target.shape:
            raise ValueError(f"shape mismatch: {out.shape} vs {eps_target.shape}")
        x2, kfeat, t1, c, f, h1, a1, h2, a2 = cache
        H = self.hidden
        if grads_out is None:
            grads_out = {name: np.empty(shape) for name, shape in self.param_shapes().items()}
        g = grads_out
        n = out.size
        dout = out
        dout -= eps_target
        loss = float(np.sum(dout**2) / n)

        dout *= 2.0
        dout /= n
        np.dot(a2.T, dout, out=g["W3"])
        dout.sum(axis=0, out=g["b3"])
        da2 = dout.dot(p["W3"].T)
        df = np.empty((out.shape[0], 4 * H))
        np.multiply(da2, h2, out=df[:, 2 * H : 3 * H])
        df[:, 3 * H :] = da2
        dh2 = da2 * f[:, 2 * H : 3 * H]
        dz2 = dh2 * (1.0 - h2 * h2)
        np.dot(a1.T, dz2, out=g["W2"])
        dz2.sum(axis=0, out=g["b2"])
        da1 = dz2.dot(p["W2"].T)
        np.multiply(da1, h1, out=df[:, :H])
        df[:, H : 2 * H] = da1
        dh1 = da1 * f[:, :H]
        dz1 = dh1 * (1.0 - h1 * h1)
        np.dot(x2.T, dz1, out=g["W1"])
        dz1.sum(axis=0, out=g["b1"])
        np.matmul(c.T, df, out=g["Wf"])
        df.sum(axis=0, out=g["bf"])
        # only the step embedding's rows of Wf reach a parameter
        dtemb = df.dot(p["Wf"][self.cond_dim :].T)
        np.dot(t1.T, dtemb, out=g["Wk2"])
        dtemb.sum(axis=0, out=g["bk2"])
        dt1 = dtemb.dot(p["Wk2"].T)
        dzk = dt1 * (1.0 - t1 * t1)
        np.dot(kfeat.T, dzk, out=g["Wk1"])
        dzk.sum(axis=0, out=g["bk1"])
        return loss, grads_out


def ema_update(shadow: np.ndarray, params: np.ndarray) -> None:
    """In-place shadow <- decay * shadow + (1 - decay) * params, decay = DEFAULT_EMA_DECAY."""
    if shadow.shape != params.shape:
        raise ValueError(f"shape mismatch: {shadow.shape} vs {params.shape}")
    shadow *= DEFAULT_EMA_DECAY
    shadow += (1.0 - DEFAULT_EMA_DECAY) * params


class Adam:
    """Adam with the fixed step size TRAIN_LR over one weight array."""

    def __init__(self, weights: np.ndarray):
        self.m = np.zeros_like(weights)
        self.v = np.zeros_like(weights)
        self.t = 0

    def step(self, weights: np.ndarray, grad: np.ndarray) -> None:
        """One update of weights, and of the moments, in place.

        Each element goes through the IEEE operations of
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        w -= lr (m / bc1) / (sqrt(v / bc2) + eps), in that order, so the
        result does not depend on how the weights are split into arrays.
        """
        self.t += 1
        beta1, beta2 = ADAM_BETAS
        bc1 = 1.0 - beta1**self.t
        bc2 = 1.0 - beta2**self.t
        m, v = self.m, self.v
        m *= beta1
        m += (1.0 - beta1) * grad
        tmp = (1.0 - beta2) * grad
        tmp *= grad
        v *= beta2
        v += tmp
        step = m / bc1
        step *= TRAIN_LR
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step /= tmp
        weights -= step


@dataclass
class TrainConfig:
    steps: int = 3000
    seed: int = 0


def _flat_views(arrays: dict) -> tuple[np.ndarray, dict]:
    """One contiguous float64 copy of arrays, and a dict of views into it by name."""
    flat = np.concatenate([v.ravel() for v in arrays.values()])
    views, start = {}, 0
    for name, v in arrays.items():
        views[name] = flat[start : start + v.size].reshape(v.shape)
        start += v.size
    return flat, views


def _fit(conds, a0s, config: TrainConfig | None, batch) -> tuple[ToyDenoiser, list[float]]:
    """The training loop both trainers share.

    batch(rng, a0s[idx]) returns the (input, step, target) triple of one
    mini-batch. Each step draws the batch indices first and then whatever
    batch draws, so the random stream is fixed by the seed. The EMA shadow is
    updated every step. Returns the model and the per-step loss curve.

    The weights, their EMA shadow, their gradient and both Adam moments each
    live in one contiguous buffer, and model.params and model.ema are dicts
    of views into the first two. loss_and_grads writes into views of the
    gradient buffer, and Adam and the EMA then run once per step over every
    weight, not once per array: their updates are element-wise, so the bits
    are those of per-array updates. loss_and_grads checks the weight buffer
    in one pass while every array of model.params is still its view, and
    each array otherwise, so a weight rebound or edited to NaN after training
    is caught.

    A non-finite loss raises TrainingDivergedError at its step. So does an
    Adam second moment that overflowed while the loss stayed finite (its
    weights then stop moving): a non-finite moment stays non-finite, so one
    check after the last step finds it, and the Adam update runs with
    numpy's overflow warnings off.
    """
    config = config or TrainConfig()
    conds = np.atleast_2d(np.asarray(conds, dtype=float))
    a0s = np.atleast_2d(np.asarray(a0s, dtype=float))
    if len(conds) == 0:
        raise ValueError("empty dataset")
    if len(conds) != len(a0s):
        raise ValueError("condition/action count mismatch")
    rng = np.random.default_rng(config.seed)
    model = ToyDenoiser(input_dim=a0s.shape[1], cond_dim=conds.shape[1])
    model.init_params(rng)
    weights, model.params = _flat_views(model.params)
    model._flat = weights
    shadow, model.ema = _flat_views(model.ema)
    grad, grads = _flat_views(model.params)
    opt = Adam(weights)
    curve = []
    for step in range(config.steps):
        idx = rng.integers(0, len(a0s), size=TRAIN_BATCH_SIZE)
        x, k, target = batch(rng, a0s[idx])
        # grads_out goes positionally: wrappers of loss_and_grads pass *args on
        loss, _ = model.loss_and_grads(x, k, conds[idx], target, grads)
        if not math.isfinite(loss):
            raise TrainingDivergedError(step)
        # an overflow here is the moment check's verdict after the loop, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            opt.step(weights, grad)
        ema_update(shadow, weights)
        curve.append(loss)
    if not np.isfinite(opt.v).all():
        raise TrainingDivergedError(config.steps - 1, "Adam's second moment overflowed by")
    return model, curve


def train_toy(
    conds: np.ndarray, a0s: np.ndarray, config: TrainConfig | None = None
) -> tuple[ToyDenoiser, NoiseSchedule, list[float]]:
    """Train a noise-prediction network on (condition, clean action) pairs.

    Mini-batch descent with per-sample uniform step k in [1, K]. Fully
    deterministic for a fixed seed. Returns the model, the schedule it was
    trained under, and the per-step loss curve.
    """
    sched = cosine_schedule(DEFAULT_K)

    def noised(rng, a0):
        k = rng.integers(1, DEFAULT_K + 1, size=len(a0))
        eps = rng.standard_normal(a0.shape)
        return forward_noise(a0, k, eps, sched), k, eps

    model, curve = _fit(conds, a0s, config, noised)
    return model, sched, curve


def train_regression(
    conds: np.ndarray, a0s: np.ndarray, config: TrainConfig | None = None
) -> tuple[ToyDenoiser, list[float]]:
    """Mean-regression control: the same network trained to output a0 directly.

    The denoiser input is zeroed and k pinned to 0, so the network can only
    map the condition to a point estimate; sampling is its plain forward pass.
    """

    def zeroed(rng, a0):
        return np.zeros_like(a0), np.zeros(len(a0), dtype=int), a0

    return _fit(conds, a0s, config, zeroed)


def _ddim_table(sched: NoiseSchedule, n_steps: int) -> tuple[tuple, ...]:
    """The coefficients of DDIM's updates on the uniform-stride sub-schedule.

    The sub-schedule is 0 = tau_0 < ... < tau_n = K. Its update from
    k_hi = tau_i to k_lo = tau_(i-1) reads the row (k_hi, sqrt(1 - ab_hi),
    sqrt(ab_hi), sqrt(ab_lo), sqrt(1 - ab_lo)); the rows run from the top
    step down. k_hi is an int and each coefficient a read-only 0-d float64
    array: a ufunc takes one with less dispatch than a Python float, and the
    same value, so the same bits. The table is memoised on the schedule per
    n_steps.
    """
    table = sched._ddim_tables.get(n_steps)
    if table is None:
        taus = np.unique(np.round(np.linspace(0, sched.K, n_steps + 1)).astype(int))
        rows = []
        for i in range(len(taus) - 1, 0, -1):
            k_hi, k_lo = int(taus[i]), int(taus[i - 1])
            ab_hi = sched.alpha_bar[k_hi]
            ab_lo = sched.alpha_bar[k_lo]
            coefs = [np.array(math.sqrt(v)) for v in (1.0 - ab_hi, ab_hi, ab_lo, 1.0 - ab_lo)]
            for c in coefs:
                c.flags.writeable = False
            rows.append((k_hi, *coefs))
        table = sched._ddim_tables[n_steps] = tuple(rows)
    return table


def ddim_sample(
    eps_fn,
    cond: np.ndarray,
    sched: NoiseSchedule,
    n_steps: int = DEFAULT_DDIM_STEPS,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    *,
    sample_dim: int,
) -> np.ndarray:
    """Deterministic (eta = 0) DDIM sampling on a uniform-stride sub-schedule.

    eps_fn(x, k, cond) predicts the noise for a batch x at scalar step k, as
    an array of x's shape that is not a view of x: the update runs in place
    on x. When eps_fn has a prepare(cond, steps) method, as model_eps_fn's
    does, the sampler calls it once, before its loop, with the steps it will
    ask for, and passes what it returns to every eps_fn call in place of
    cond. Starting from unit Gaussian noise keyed by the rng/seed,
    sample_dim values per condition row, each update moves the estimated
    clean sample to the previous sub-schedule step. The randomness is only
    in the initial noise; the iteration itself is a pure function of it.
    """
    if n_steps > sched.K:
        raise ValueError(f"n_steps {n_steps} exceeds schedule K {sched.K}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    cond = np.atleast_2d(np.asarray(cond, dtype=float))
    table = _ddim_table(sched, n_steps)
    prepare = getattr(eps_fn, "prepare", None)
    given = cond if prepare is None else prepare(cond, tuple(row[0] for row in table))
    x = rng.standard_normal((cond.shape[0], sample_dim))
    tmp = np.empty_like(x)
    for k_hi, noise_hi, signal_hi, signal_lo, noise_lo in table:
        eps_hat = eps_fn(x, k_hi, given)
        # x0 = (x - noise_hi * eps_hat) / signal_hi, then
        # x = signal_lo * x0 + noise_lo * eps_hat, one IEEE operation at a time
        np.multiply(noise_hi, eps_hat, out=tmp)
        x -= tmp
        x /= signal_hi
        x *= signal_lo
        np.multiply(noise_lo, eps_hat, out=tmp)
        x += tmp
    return x


def model_eps_fn(model: ToyDenoiser) -> Callable[[np.ndarray, int, dict], np.ndarray]:
    """eps_fn for ddim_sample that samples from the EMA weights, which gate deployment.

    Sampling never changes the weights, so they are copied, made read-only and
    checked for finiteness once, here (a ValueError if they are not), instead
    of in every forward. The copies of the trunk's biases b1, b2 and b3 are
    (1, n) rows: added to a (batch, n) product, a row gives the bits of an
    (n,) vector at half its numpy dispatch cost at batch 1. The step
    embedding depends only on the weights, the batch size and the step, and
    the sampler only ever asks for its sub-schedule's steps, so the stacked
    embeddings are memoised per (batch size, steps). Memo and forward both
    read the copy, so a later change to model.ema cannot make them disagree.

    The FiLM blocks do not depend on x: eps_fn.prepare(cond, steps), which
    ddim_sample calls once per sample, computes them for every step in one
    stacked product and returns them as {step: blocks}. eps_fn(x, k, blocks)
    takes that dict and runs the trunk on step k's blocks. The dict holds
    n_steps x batch x 4 hidden floats for as long as the sample runs (20 KB
    for a batch-1 row of 10 steps at width 64, 41 MB for 2000 rows), where a
    per-step product held one step's.
    """
    weights = {
        name: np.array(v, dtype=float, ndmin=2 if name in ("b1", "b2", "b3") else 0)
        for name, v in model.ema.items()
    }
    for v in weights.values():
        v.flags.writeable = False
    _check_finite(weights)
    memo = {}  # (batch size, steps) -> stacked step embeddings

    def prepare(cond, steps):
        """{step: FiLM blocks} of the 2-D batch cond at every step of the tuple steps."""
        temb = memo.get((len(cond), steps))
        if temb is None:
            temb = np.stack([model._step_embedding(weights, np.full(len(cond), k))[2] for k in steps])
            memo[len(cond), steps] = temb
        return dict(zip(steps, model._film(weights, cond, temb)[1]))

    def eps_fn(x, k, blocks):
        """The noise predicted for the 2-D batch x at the scalar step k, from
        the {step: FiLM blocks} that prepare returned."""
        return model.forward(x, k, None, frozen=(weights, blocks[k]))

    eps_fn.prepare = prepare
    return eps_fn


# ---------------------------------------------------------------------------
# Action-chunk layer on top of the generic sampler.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActionChunkTensor:
    """A horizon of action rows, each a tuple of ACTION_DIM floats, and
    optionally their roll-out.

    rollout, when given, holds the T_p + 1 states that
    executor.forward_rollout(rollout[0], chunk) would compute, bit for bit:
    a policy that chains them while it builds the rows hands them over so the
    executor does not integrate the rows again.
    """

    rows: tuple  # T_p tuples of ACTION_DIM floats
    rollout: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if any(len(row) != ACTION_DIM for row in self.rows):
            raise ValueError(f"every chunk row must hold {ACTION_DIM} floats")
        if self.rollout is not None and len(self.rollout) != self.horizon + 1:
            raise ValueError(f"rollout must hold T_p + 1 = {self.horizon + 1} states, not {len(self.rollout)}")

    @property
    def horizon(self) -> int:
        return len(self.rows)


# obs_to_condition's width without scenario features: the state, then the previous action
COND_DIM = 2 * ACTION_DIM


def obs_to_condition(state, prev_action, scenario_features) -> np.ndarray:
    """Flatten one observation, or matching rows of them, into the documented
    condition layout, concatenated on the last axis.

    Order: the state's 11 floats as the executor lays them out, base
    [x, y, theta] (3), hand position (3), hand quaternion (4), grip (1); the
    previous 11-D action (11); scenario features (variable), the same for
    every row. The scenario features stand in for image embeddings.
    """
    prev_action = np.asarray(prev_action, dtype=float)
    if prev_action.shape[-1:] != (ACTION_DIM,):
        raise ValueError(f"previous action must be ({ACTION_DIM},) per row")
    parts = [np.asarray(state, dtype=float), prev_action]
    if len(scenario_features):
        parts.append(np.broadcast_to(scenario_features, (*prev_action.shape[:-1], len(scenario_features))))
    return np.concatenate(parts, axis=-1)


# ---------------------------------------------------------------------------
# Checkpoint format: JSON with the dims, the schedule and the EMA weights.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 3
CHECKPOINT_DIMS = ("input_dim", "cond_dim", "hidden", "kemb_dim", "temb_dim")


def save_checkpoint(path, model: ToyDenoiser, sched: NoiseSchedule):
    """Write the checkpoint: the bytes of json.dumps(doc, sort_keys=True).

    The doc holds what sampling reads: the dims and the schedule as JSON
    numbers, and each array of model.ema (see model_eps_fn) as jsonl's
    float64_text, its exact float64 bytes. The training weights are not kept.
    The text goes to a temporary file beside path that then replaces it: a
    failed save leaves an earlier checkpoint at path as it was.
    """
    doc = {
        "version": CHECKPOINT_VERSION,
        **{n: getattr(model, n) for n in CHECKPOINT_DIMS},
        "K": sched.K,
        "alpha_bar": sched.alpha_bar.tolist(),
        "ema": {name: float64_text(w) for name, w in model.ema.items()},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[ToyDenoiser, NoiseSchedule]:
    """Model and schedule of a checkpoint file. The model's ema holds the
    weights and its params is empty: it samples, but does not train.

    A file that is not a version-3 checkpoint of finite numbers, each weight
    array holding the values its dimensions say, is a MalformedInputError
    naming the path.
    """
    doc = read_json(path)
    with fields_of(path):
        version = doc.get("version")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise MalformedInputError(path, f"unsupported checkpoint version {version!r}")
        dims = {n: doc[n] for n in CHECKPOINT_DIMS}
        for name, v in {**dims, "K": doc["K"]}.items():
            if type(v) is not int or v < 1:
                raise MalformedInputError(path, f"{name} must be a positive integer, got {v!r}")
        model = ToyDenoiser(**dims)
        shapes = model.param_shapes()
        ema = doc["ema"]
        if set(ema) != set(shapes):
            raise MalformedInputError(path, f"ema holds {sorted(ema)}, expected {sorted(shapes)}")
        for name, shape in shapes.items():
            model.ema[name] = finite_float64(ema[name], shape, f"ema.{name}")
        sched = NoiseSchedule(K=doc["K"], alpha_bar=finite_numbers(doc["alpha_bar"], "alpha_bar"))
        return model, sched
