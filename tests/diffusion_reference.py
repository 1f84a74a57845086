"""The denoiser training step as it ran before its buffers were preallocated,
kept as the tests' oracle.

Each step here embeds its batch's diffusion steps with one
sinusoidal_embedding call, forms the FiLM input gradient with the full
df @ Wf.T product, returns fresh gradient arrays that are concatenated into
one flat gradient, and runs Adam and the EMA with freshly allocated
temporaries. The trainers in mobman.diffusion must give the same bits: the
same loss curve, and the same training and EMA weights.
"""
import math

import numpy as np

from mobman.diffusion import (
    ADAM_BETAS,
    ADAM_EPS,
    DEFAULT_EMA_DECAY,
    DEFAULT_K,
    TRAIN_BATCH_SIZE,
    TRAIN_LR,
    ToyDenoiser,
    cosine_schedule,
    forward_noise,
    sinusoidal_embedding,
)


def forward(model: ToyDenoiser, params: dict, x, k, cond):
    """Output for batch x at steps k under cond, and its cache."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    cond = np.atleast_2d(np.asarray(cond, dtype=float))
    kfeat = sinusoidal_embedding(k, model.kemb_dim)
    t1 = np.tanh(kfeat @ params["Wk1"] + params["bk1"])
    temb = t1 @ params["Wk2"] + params["bk2"]
    H = model.hidden
    c = np.concatenate([cond, temb], axis=1)
    f = c @ params["Wf"] + params["bf"]
    g1, be1, g2, be2 = (
        1.0 + f[:, :H],
        f[:, H : 2 * H],
        1.0 + f[:, 2 * H : 3 * H],
        f[:, 3 * H :],
    )
    h1 = np.tanh(x @ params["W1"] + params["b1"])
    a1 = g1 * h1 + be1
    h2 = np.tanh(a1 @ params["W2"] + params["b2"])
    a2 = g2 * h2 + be2
    out = a2 @ params["W3"] + params["b3"]
    return out, (x, cond, kfeat, t1, c, g1, g2, h1, a1, h2, a2)


def loss_and_grads(model: ToyDenoiser, params: dict, x, k, cond, eps_target):
    """MSE loss against eps_target and a fresh dict of its gradients."""
    p = params
    out, cache = forward(model, p, x, k, cond)
    eps_target = np.atleast_2d(np.asarray(eps_target, dtype=float))
    x2, cond2, kfeat, t1, c, g1, g2, h1, a1, h2, a2 = cache
    H = model.hidden
    n = out.size
    loss = float(np.sum((out - eps_target) ** 2) / n)

    dout = 2.0 * (out - eps_target) / n
    grads = {}
    grads["W3"] = a2.T @ dout
    grads["b3"] = dout.sum(axis=0)
    da2 = dout @ p["W3"].T
    df = np.empty((out.shape[0], 4 * H))
    df[:, 2 * H : 3 * H] = da2 * h2
    df[:, 3 * H :] = da2
    dh2 = da2 * g2
    dz2 = dh2 * (1.0 - h2 * h2)
    grads["W2"] = a1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    da1 = dz2 @ p["W2"].T
    df[:, :H] = da1 * h1
    df[:, H : 2 * H] = da1
    dh1 = da1 * g1
    dz1 = dh1 * (1.0 - h1 * h1)
    grads["W1"] = x2.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    grads["Wf"] = c.T @ df
    grads["bf"] = df.sum(axis=0)
    dc = df @ p["Wf"].T
    dtemb = dc[:, cond2.shape[1] :]
    grads["Wk2"] = t1.T @ dtemb
    grads["bk2"] = dtemb.sum(axis=0)
    dt1 = dtemb @ p["Wk2"].T
    dzk = dt1 * (1.0 - t1 * t1)
    grads["Wk1"] = kfeat.T @ dzk
    grads["bk1"] = dzk.sum(axis=0)
    return loss, grads


def adam_step(m, v, t, weights, grad) -> None:
    """Step t (from 1) of Adam over the flat weights, with allocated temporaries."""
    beta1, beta2 = ADAM_BETAS
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
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


def fit(conds, a0s, steps: int, seed: int, hidden: int, batch):
    """The shared training loop of a width-hidden model: (training weights,
    EMA weights, loss curve)."""
    conds = np.atleast_2d(np.asarray(conds, dtype=float))
    a0s = np.atleast_2d(np.asarray(a0s, dtype=float))
    rng = np.random.default_rng(seed)
    model = ToyDenoiser(input_dim=a0s.shape[1], cond_dim=conds.shape[1], hidden=hidden)
    model.init_params(rng)
    names = list(model.params)
    weights = np.concatenate([model.params[n].ravel() for n in names])
    shadow = np.concatenate([model.ema[n].ravel() for n in names])
    m, v = np.zeros_like(weights), np.zeros_like(weights)

    def views(flat):
        out, start = {}, 0
        for n in names:
            size = model.params[n].size
            out[n] = flat[start : start + size].reshape(model.params[n].shape)
            start += size
        return out

    params = views(weights)
    curve = []
    for t in range(1, steps + 1):
        idx = rng.integers(0, len(a0s), size=TRAIN_BATCH_SIZE)
        x, k, target = batch(rng, a0s[idx])
        loss, grads = loss_and_grads(model, params, x, k, conds[idx], target)
        if not math.isfinite(loss):
            raise ArithmeticError(f"loss became non-finite at step {t - 1}")
        grad = np.concatenate([grads[n].ravel() for n in names])
        adam_step(m, v, t, weights, grad)
        shadow *= DEFAULT_EMA_DECAY
        shadow += (1.0 - DEFAULT_EMA_DECAY) * weights
        curve.append(loss)
    return params, views(shadow), curve


def train_toy(conds, a0s, steps: int, seed: int, hidden: int = 64):
    """diffusion.train_toy's noise-prediction batches through fit."""
    sched = cosine_schedule(DEFAULT_K)

    def noised(rng, a0):
        k = rng.integers(1, DEFAULT_K + 1, size=len(a0))
        eps = rng.standard_normal(a0.shape)
        return forward_noise(a0, k, eps, sched), k, eps

    return fit(conds, a0s, steps, seed, hidden, noised)


def train_regression(conds, a0s, steps: int, seed: int, hidden: int = 64):
    """diffusion.train_regression's zeroed-input batches through fit."""

    def zeroed(rng, a0):
        return np.zeros_like(a0), np.zeros(len(a0), dtype=int), a0

    return fit(conds, a0s, steps, seed, hidden, zeroed)
