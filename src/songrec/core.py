"""Dense numerical kernels with hand-written backward passes.

Forward functions return ``(output, cache)``; the matching ``*_backward``
takes the upstream gradient plus the cache and returns gradients for
every input. Inputs may be single vectors or carry leading batch axes
where noted. Everything is plain numpy; correctness of each backward
pass is established against central finite differences (`grad_check`).

Where the process may run on a second CPU, the weight-gradient products
of :func:`affine_backward` and the blocks of :func:`adagrad_step` are
shared with one helper thread. Only work whose result cannot depend on
the thread that does it is shared, and BLAS stays single-threaded, so
the bits are the same with the helper on or off.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

PROB_FLOOR = 1e-12  # probabilities are clamped here before log
_BLOCK_BYTES = 128 * 1024  # bytes per block of the dense Adagrad update
ADAGRAD_EPS = 1e-8  # added to sqrt(acc) in every Adagrad step

# below these sizes handing work to the helper costs more than it saves
# (tens of microseconds per hand-off, measured on 2 cores)
_SHARE_MIN_MACS = 1 << 21  # multiply-adds of affine_backward's dW product
_SHARE_MIN_BYTES = 1 << 20  # bytes of an adagrad_step tensor

_UNSTARTED = object()
# the one-thread executor on the second CPU; None when the process has
# one CPU (or a test turns it off); made on first use
_HELPER = _UNSTARTED


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper():
    global _HELPER
    if _HELPER is _UNSTARTED:
        _HELPER = None
        if _cpus() > 1:  # the executor starts its thread on the first submit
            _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="songrec-core")
    return _HELPER


def _forget_helper() -> None:
    # a forked child has no helper thread: submitting to the inherited
    # executor would queue work that no thread runs
    global _HELPER
    _HELPER = _UNSTARTED


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def kernel_threads() -> int:
    """Threads the kernels may run on: 2 with the helper, 1 without.
    Says which without starting it."""
    if _HELPER is _UNSTARTED:
        return 2 if _cpus() > 1 else 1
    return 1 if _HELPER is None else 2


def _both(first, second, share: bool):
    """Run the no-argument callables ``first`` and ``second``, which write
    disjoint memory, and return what ``second`` returns once both are
    done: with ``share`` set, ``first`` on the helper while ``second`` runs
    here. A helper that has not started ``first`` by then is not waited
    for; ``first`` runs here instead."""
    helper = _helper() if share else None
    if helper is None:
        first()
        return second()
    pending = helper.submit(first)
    try:
        out = second()
    except BaseException:
        if not pending.cancel():
            pending.exception()  # wait: the helper writes the caller's arrays
        raise
    if pending.cancel():
        first()
    else:
        pending.result()
    return out


def glorot_init(fan_in: int, fan_out: int, rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform init of ``shape`` on [-L, L], L = sqrt(6 / (fan_in + fan_out)).

    A dense weight is drawn and checkpointed (fan_out, fan_in);
    :func:`affine` takes its transpose, (fan_in, fan_out). Embedding
    tables and filter banks take their own shapes (the bound depends
    only on the fans).
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
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
    return table[idx].copy()


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """y = x W + b, with x shaped (..., in) and w shaped (in, out).

    At the output layer's shape (300 x 10k) both the forward product and
    the weight gradient x^T g run faster on W held (in, out) than on W
    held (out, in).
    """
    if x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ValueError(
            f"affine shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}"
        )
    y = x @ w
    y += b
    return y, (x, w)


def affine_backward(g: np.ndarray, cache):
    """(dx, dW, db) = (g W^T, x^T g, sum of g); for a large enough dW
    product, dW is computed on the helper while dx is computed here."""
    x, w = cache
    g2 = g.reshape(-1, w.shape[1])
    x2 = x.reshape(-1, w.shape[0])
    # allocated here, not on the helper, so the freed gradient goes back
    # to this thread's malloc arena instead of being cached in another
    dw = np.empty((x2.shape[1], g2.shape[1]), dtype=np.result_type(x2, g2))
    dx = _both(lambda: np.matmul(x2.T, g2, out=dw), lambda: g @ w.T,
               x2.shape[0] * dw.size >= _SHARE_MIN_MACS)
    db = g2.sum(axis=0)
    return dx, dw, db


def relu(x: np.ndarray):
    """max(x, 0); the subgradient at 0 is taken as 0."""
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def relu_backward(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return g * mask


def conv1d(s: np.ndarray, filters: np.ndarray, bias: np.ndarray, stride: int):
    """Valid 1-D convolution over stacked rows, with per-filter bias and ReLU.

    ``s`` is (j, d) or (B, j, d): one row per sequence position, filters
    span the full depth d. ``filters`` is (m, w, d), ``bias`` (m,). The
    output has shape (..., p, m) with p = (j - w) // stride + 1 and

        out[t, f] = relu(bias[f] + sum_{a, b} s[t * stride + a, b] * filters[f, a, b])

    computed as one (B p, w d) @ (w d, m) product over the stacked windows.
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
    pre = windows.reshape(-1, w * d) @ filters.reshape(m, w * d).T
    pre += bias
    out, mask = relu(pre.reshape(s.shape[:-2] + (p, m)))
    return out, (windows, filters, mask, s.shape, stride)


def conv1d_backward(g: np.ndarray, cache):
    windows, filters, mask, s_shape, stride = cache
    m, w, d = filters.shape
    p = windows.shape[-3]
    gpre = relu_backward(g, mask).reshape(-1, m)  # (B p, m)
    db = gpre.sum(axis=0)
    df = (gpre.T @ windows.reshape(-1, w * d)).reshape(m, w, d)
    dwin = (gpre @ filters.reshape(m, w * d)).reshape(windows.shape)
    # tap a of position t reads row t * stride + a: one strided slice per tap
    ds = np.zeros(s_shape, dtype=g.dtype)
    span = (p - 1) * stride + 1
    for a in range(w):
        ds[..., a : a + span : stride, :] += dwin[..., a, :]
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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), the formula of ``scipy.special.expit``: exactly 0
    and 1 at the ends, where exp(-x) overflows without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def softmax_inplace(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in ``x`` itself (returned).

    Stable via max-subtraction: x - max, then exp, then divide by the sum.
    """
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def softmax_xent_from_probs(probs: np.ndarray, targets) -> np.ndarray:
    """Cross-entropy of each row's target under (B, N) ``probs``: the
    target probability clamped at PROB_FLOOR, then -log. Returns (B,)."""
    picked = probs[np.arange(probs.shape[0]), np.asarray(targets)]
    return -np.log(np.maximum(picked, PROB_FLOOR))


def softmax_xent_backward(probs: np.ndarray, targets) -> np.ndarray:
    """Gradient of each row's cross-entropy w.r.t. the logits behind the
    (B, N) ``probs``: probs - onehot(target)."""
    g = probs.copy()
    g[np.arange(probs.shape[0]), np.asarray(targets)] -= 1.0
    return g


def adagrad_step(param: np.ndarray, grad: np.ndarray, acc: np.ndarray, lr: float) -> np.ndarray:
    """In-place update: acc += g^2; param -= (lr * g) / (sqrt(acc) + ADAGRAD_EPS).

    ``acc`` starts at zero and only grows, so step sizes only shrink. Runs
    over contiguous blocks of ``_BLOCK_BYTES`` with one small scratch
    buffer per thread, so no full-size temporary is made. The caller and,
    for a large enough tensor, the helper take blocks from one shared
    counter. Every element sees the same operations in the same order as
    the whole-array expression, so the result is bitwise identical to it.
    ``grad`` is not modified.
    """
    if param.shape != grad.shape or param.shape != acc.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, acc {acc.shape}"
        )
    if not (param.flags.c_contiguous and acc.flags.c_contiguous):
        raise ValueError("adagrad_step needs C-contiguous param and accumulator")
    p = param.reshape(-1)
    a = acc.reshape(-1)
    g = grad.reshape(-1)
    n = p.shape[0]
    dtype = np.result_type(grad, acc)
    block = _BLOCK_BYTES // dtype.itemsize
    share = param.nbytes >= _SHARE_MIN_BYTES
    # one (step, den) pair per thread, allocated here for the reason
    # affine_backward allocates dW here
    scratch = np.empty((2 if share else 1, 2, min(n, block)), dtype=dtype)
    starts = itertools.count(0, block)  # next() on it is atomic under the GIL

    def update(step_den):
        for start in starts:
            if start >= n:
                return
            stop = min(start + block, n)
            gb, ab = g[start:stop], a[start:stop]
            step, den = step_den[:, : stop - start]
            np.multiply(gb, gb, out=step)
            ab += step
            np.sqrt(ab, out=den)
            den += ADAGRAD_EPS
            np.multiply(lr, gb, out=step)
            step /= den
            p[start:stop] -= step

    _both(lambda: update(scratch[-1]), lambda: update(scratch[0]), share)
    return param


def scatter_add_rows(param: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """Add ``updates`` (one (d,) row per entry of ``rows``) to those rows of
    the C-contiguous ``param`` in place; a repeated row gets the sum."""
    d = param.shape[1]
    flat = param.reshape(-1, copy=False)
    np.add.at(flat, (rows[:, None] * d + np.arange(d)).ravel(), updates.ravel())


def adagrad_step_rows(
    param: np.ndarray, rows: np.ndarray, row_grads: np.ndarray, acc: np.ndarray, lr: float
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
    scatter_add_rows(agg, inv, row_grads)
    acc[uniq] += agg * agg
    param[uniq] -= lr * agg / (np.sqrt(acc[uniq]) + ADAGRAD_EPS)
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
