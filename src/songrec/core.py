"""Dense numerical kernels with hand-written backward passes.

Forward functions return ``(output, cache)``; the matching ``*_backward``
takes the upstream gradient plus the cache and returns gradients for
every input. Inputs may be single vectors or carry leading batch axes
where noted. Everything is plain numpy; correctness of each backward
pass is established against central finite differences (`grad_check`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-12  # probabilities are clamped here before log
_BLOCK = 16384  # elements per block of the dense Adagrad update


def glorot_init(
    fan_in: int, fan_out: int, rng: np.random.Generator, shape=None
) -> np.ndarray:
    """Uniform init on [-L, L], L = sqrt(6 / (fan_in + fan_out)).

    ``shape`` defaults to (fan_out, fan_in), the layout of a weight
    applied as y = W x; pass an explicit shape for embedding tables or
    filter banks (the bound depends only on the fans).
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_out, fan_in)
    return rng.uniform(-limit, limit, size=shape)


def embed_lookup(indices, table: np.ndarray) -> np.ndarray:
    """Rows of ``table`` at ``indices`` (a copy).

    Equivalent to onehot(index) @ table. The gradient is a scatter-add of
    the upstream gradient into the looked-up rows; training code applies
    it sparsely via :func:`adagrad_step_rows`.
    """
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"embedding index out of range [0, {table.shape[0]}): "
            f"[{idx.min()}, {idx.max()}]"
        )
    return table[idx].copy() if idx.ndim else table[int(idx)].copy()


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """y = x W^T + b, with x shaped (..., in) and w shaped (out, in)."""
    if x.shape[-1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ValueError(
            f"affine shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}"
        )
    y = x @ w.T
    y += b
    return y, (x, w)


def affine_backward(g: np.ndarray, cache):
    x, w = cache
    dx = g @ w
    g2 = g.reshape(-1, w.shape[0])
    x2 = x.reshape(-1, w.shape[1])
    dw = g2.T @ x2
    db = g2.sum(axis=0)
    return dx, dw, db


def relu(x: np.ndarray):
    """max(x, 0); the subgradient at 0 is taken as 0."""
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def relu_backward(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return g * mask


def conv1d(s: np.ndarray, filters: np.ndarray, bias: np.ndarray, stride: int = 1):
    """Valid 1-D convolution over stacked rows, with per-filter bias and ReLU.

    ``s`` is (j, d) or (B, j, d): one row per sequence position, filters
    span the full depth d. ``filters`` is (m, w, d), ``bias`` (m,). The
    output has shape (..., p, m) with p = (j - w) // stride + 1 and

        out[t, f] = relu(bias[f] + sum_{a, b} s[t * stride + a, b] * filters[f, a, b])
    """
    m, w, d = filters.shape
    j = s.shape[-2]
    if s.shape[-1] != d:
        raise ValueError(f"depth mismatch: input {s.shape[-1]}, filters {d}")
    if w > j:
        raise ValueError(f"filter width {w} exceeds sequence length {j}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if bias.shape != (m,):
        raise ValueError(f"bias shape {bias.shape} != ({m},)")
    p = (j - w) // stride + 1
    windows = np.stack([s[..., t * stride : t * stride + w, :] for t in range(p)], axis=-3)
    pre = np.einsum("...pwd,mwd->...pm", windows, filters) + bias
    mask = pre > 0
    out = np.where(mask, pre, 0.0)
    return out, (windows, filters, mask, s.shape, stride)


def conv1d_backward(g: np.ndarray, cache):
    windows, filters, mask, s_shape, stride = cache
    m, w, d = filters.shape
    p = windows.shape[-3]
    gpre = g * mask
    db = gpre.reshape(-1, m).sum(axis=0)
    # collapse any batch axes so the reduction over them is explicit
    df = np.einsum(
        "bpm,bpwd->mwd", gpre.reshape(-1, p, m), windows.reshape(-1, p, w, d)
    )
    ds = np.zeros(s_shape, dtype=g.dtype)
    for t in range(p):
        ds[..., t * stride : t * stride + w, :] += np.einsum(
            "...m,mwd->...wd", gpre[..., t, :], filters
        )
    return ds, df, db


def concat(parts):
    """Concatenate along the last axis; cache records the split offsets."""
    if not parts:
        raise ValueError("concat needs at least one input")
    widths = [p.shape[-1] for p in parts]
    return np.concatenate(parts, axis=-1), widths


def concat_backward(g: np.ndarray, widths):
    splits = np.cumsum(widths[:-1])
    return np.split(g, splits, axis=-1)


def dropout(x: np.ndarray, p: float, rng: np.random.Generator, train: bool):
    """Inverted dropout: each entry zeroed with probability ``p`` during
    training, survivors scaled by 1/(1-p); identity at inference.

    ``p`` is the drop probability.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"drop probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x, None
    keep = 1.0 - p
    mask = rng.random(x.shape) >= p
    return x * mask / keep, (mask, keep)


def dropout_backward(g: np.ndarray, cache) -> np.ndarray:
    if cache is None:
        return g
    mask, keep = cache
    return g * mask / keep


def softmax_inplace(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in ``x`` itself (returned).

    Stable via max-subtraction: x - max, then exp, then divide by the sum.
    """
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def softmax_xent(logits: np.ndarray, target):
    """Softmax probabilities and cross-entropy loss of the target class.

    The probabilities come from :func:`softmax_inplace` on a copy of
    ``logits``; the target probability is clamped at PROB_FLOOR before
    the log. ``logits`` may be (N,) or (B, N) with ``target`` scalar or
    (B,); the loss follows (scalar or (B,)). The gradient w.r.t. logits
    is probs - onehot(target); see :func:`softmax_xent_backward`.
    """
    logits = np.asarray(logits)
    probs = softmax_inplace(np.array(logits, dtype=np.result_type(logits, 0.0)))
    if logits.ndim == 1:
        t = int(target)
        if not 0 <= t < logits.shape[0]:
            raise ValueError(f"target {t} out of range for {logits.shape[0]} classes")
        loss = -np.log(max(probs[t], PROB_FLOOR))
    else:
        t = np.asarray(target)
        picked = probs[np.arange(probs.shape[0]), t]
        loss = -np.log(np.maximum(picked, PROB_FLOOR))
    return probs, loss


def softmax_xent_backward(probs: np.ndarray, target) -> np.ndarray:
    g = probs.copy()
    if probs.ndim == 1:
        g[int(target)] -= 1.0
    else:
        g[np.arange(probs.shape[0]), np.asarray(target)] -= 1.0
    return g


@dataclass
class AdagradState:
    """Per-parameter squared-gradient accumulator.

    The accumulator starts at zero and is coordinatewise non-decreasing
    over steps, so effective learning rates only shrink.
    """

    acc: np.ndarray
    lr: float = 0.01
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float = 0.01, eps: float = 1e-8):
        return cls(np.zeros_like(param), lr, eps)


def adagrad_step(param: np.ndarray, grad: np.ndarray, state: AdagradState) -> np.ndarray:
    """In-place update: acc += g^2; param -= (lr * g) / (sqrt(acc) + eps).

    Runs over contiguous blocks of ``_BLOCK`` elements with one small
    scratch buffer, so no full-size temporary is made. Every element sees
    the same operations in the same order as the whole-array expression,
    so the result is bitwise identical to it. ``grad`` is not modified.
    """
    if param.shape != grad.shape or param.shape != state.acc.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, acc {state.acc.shape}"
        )
    if not (param.flags.c_contiguous and state.acc.flags.c_contiguous):
        raise ValueError("adagrad_step needs C-contiguous param and accumulator")
    p = param.reshape(-1)
    acc = state.acc.reshape(-1)
    g = grad.reshape(-1)
    n = p.shape[0]
    scratch = np.empty((2, min(n, _BLOCK)), dtype=np.result_type(grad, state.acc))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        gb, ab = g[start:stop], acc[start:stop]
        step, den = scratch[:, : stop - start]
        np.multiply(gb, gb, out=step)
        ab += step
        np.sqrt(ab, out=den)
        den += state.eps
        np.multiply(state.lr, gb, out=step)
        step /= den
        p[start:stop] -= step
    return param


def adagrad_step_rows(
    param: np.ndarray, rows: np.ndarray, row_grads: np.ndarray, state: AdagradState
) -> np.ndarray:
    """Sparse variant touching only the given rows (embedding gradients).

    Duplicate row indices are aggregated before the update, so the result
    matches a dense step on the summed gradient.
    """
    rows = np.asarray(rows)
    if row_grads.shape != (rows.shape[0],) + param.shape[1:]:
        raise ValueError(
            f"row grads shape {row_grads.shape} mismatches rows {rows.shape} "
            f"and param {param.shape}"
        )
    uniq, inv = np.unique(rows, return_inverse=True)
    agg = np.zeros((uniq.shape[0],) + param.shape[1:], dtype=param.dtype)
    np.add.at(agg, inv, row_grads)
    state.acc[uniq] += agg * agg
    param[uniq] -= state.lr * agg / (np.sqrt(state.acc[uniq]) + state.eps)
    return param


def grad_check(f, params, eps: float = 1e-5, max_coords: int | None = None, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(params) -> (loss, grads)`` must be a deterministic scalar-valued
    function of the list of parameter arrays, returning analytic
    gradients of the same shapes. Checks every coordinate unless
    ``max_coords`` caps the sample per tensor. Relative error is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    _, grads = f(params)
    worst = 0.0
    for t, param in enumerate(params):
        flat = param.reshape(-1)
        n = flat.shape[0]
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        gflat = grads[t].reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            lp, _ = f(params)
            flat[c] = orig - eps
            lm, _ = f(params)
            flat[c] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = gflat[c]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
