import multiprocessing
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import expit

from conftest import HELPER_MODES
from songrec import core, models
from songrec.core import (
    _BLOCK_BYTES,
    PROB_FLOOR,
    adagrad_step,
    adagrad_step_rows,
    affine,
    affine_backward,
    concat,
    concat_backward,
    conv1d,
    conv1d_backward,
    dropout,
    dropout_backward,
    embed_lookup,
    glorot_init,
    grad_check,
    relu,
    relu_backward,
    sigmoid,
    softmax_inplace,
    softmax_xent_backward,
    softmax_xent_from_probs,
)
from songrec.util import make_rng


class TestGlorot:
    def test_unit_limit_case(self):
        # fan_in = fan_out = 3 gives L = sqrt(6/6) = 1
        w = glorot_init(3, 3, make_rng(0), (3, 3))
        assert w.shape == (3, 3)
        assert np.abs(w).max() <= 1.0

    def test_monte_carlo_bound_and_mean(self):
        # 10000 samples, fans summing to 100: L = sqrt(0.06)
        limit = np.sqrt(6 / 100)
        w = glorot_init(40, 60, make_rng(1), (100, 100))
        assert np.abs(w).max() <= limit
        sigma_mean = limit / np.sqrt(3 * w.size)
        assert abs(w.mean()) <= 3 * sigma_mean

    def test_same_seed_identical(self):
        a = glorot_init(5, 7, make_rng(9), (7, 5))
        b = glorot_init(5, 7, make_rng(9), (7, 5))
        assert np.array_equal(a, b)

    def test_zero_fan_error(self):
        with pytest.raises(ValueError):
            glorot_init(0, 3, make_rng(0), (3, 0))


class TestEmbedLookup:
    def test_identity_row(self):
        e = np.eye(3)
        assert embed_lookup(1, e).tolist() == [0.0, 1.0, 0.0]

    def test_equals_onehot_matmul(self):
        rng = make_rng(3)
        e = rng.standard_normal((6, 4))
        for idx in range(6):
            onehot = np.zeros(6)
            onehot[idx] = 1.0
            assert np.array_equal(embed_lookup(idx, e), onehot @ e)

    def test_returns_copy(self):
        e = np.eye(2)
        row = embed_lookup(0, e)
        row[0] = 99.0
        assert e[0, 0] == 1.0

    def test_out_of_range_error(self):
        with pytest.raises(IndexError):
            embed_lookup(3, np.eye(3))

    def test_scatter_add_gradient(self, monkeypatch):
        # upstream gradient lands exactly on the looked-up row
        monkeypatch.setattr(core, "ADAGRAD_EPS", 0.0)
        e = np.zeros((4, 3))
        acc = np.zeros(e.shape)
        g = np.array([[1.0, 2.0, 3.0]])
        adagrad_step_rows(e, np.array([2]), g, acc, 1.0)
        assert np.array_equal(acc[2], g[0] ** 2)
        assert np.count_nonzero(e[[0, 1, 3]]) == 0
        assert np.count_nonzero(e[2]) == 3


class TestAffine:
    def test_identity(self):
        x = np.array([1.0, -2.0])
        y, _ = affine(x, np.eye(2), np.zeros(2))
        assert np.array_equal(y, x)

    def test_hand_case(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])  # (out, in)
        y, _ = affine(np.array([1.0, 1.0]), w.T, np.array([0.0, 1.0]))
        assert y.tolist() == [3.0, 8.0]

    def test_shape_mismatch_error(self):
        with pytest.raises(ValueError):
            affine(np.zeros(3), np.zeros((2, 2)), np.zeros(2))

    def test_gradient_vs_central_differences(self):
        rng = make_rng(11)
        # (in, out), contiguous so grad_check perturbs it in place
        w0 = np.ascontiguousarray(rng.standard_normal((3, 4)).T)
        x0 = rng.standard_normal(4)
        b0 = rng.standard_normal(3)
        probe = rng.standard_normal(3)

        def f(params):
            x, w, b = params
            y, cache = affine(x, w, b)
            dx, dw, db = affine_backward(probe, cache)
            return float(y @ probe), [dx, dw, db]

        assert grad_check(f, [x0, w0, b0]) <= 1e-6


class TestRelu:
    def test_examples(self):
        y, _ = relu(np.array([-1.0, 0.0, 2.0]))
        assert y.tolist() == [0.0, 0.0, 2.0]

    def test_nonnegative_identity(self):
        x = np.array([0.5, 3.0, 0.0])
        y, _ = relu(x)
        assert np.array_equal(y, x)

    def test_gradient_away_from_zero(self):
        rng = make_rng(2)
        x0 = rng.standard_normal(20)
        x0[np.abs(x0) < 1e-3] = 0.5  # keep clear of the kink
        probe = rng.standard_normal(20)

        def f(params):
            y, mask = relu(params[0])
            return float(y @ probe), [relu_backward(probe, mask)]

        assert grad_check(f, [x0]) <= 1e-6


def conv_reference(s, filters, bias, stride):
    """Brute-force triple-loop reference."""
    m, w, d = filters.shape
    p = (s.shape[0] - w) // stride + 1
    out = np.zeros((p, m))
    for t in range(p):
        for f in range(m):
            acc = bias[f]
            for a in range(w):
                for b in range(d):
                    acc += s[t * stride + a, b] * filters[f, a, b]
            out[t, f] = max(acc, 0.0)
    return out


def conv_einsum(s, filters, bias, stride):
    """The einsum form of conv1d and conv1d_backward, kept as an oracle for
    the matrix-product kernels: the output and a function from the
    upstream gradient to (ds, dfilters, dbias)."""
    m, w, d = filters.shape
    p = (s.shape[-2] - w) // stride + 1
    windows = np.stack([s[..., t * stride : t * stride + w, :] for t in range(p)], axis=-3)
    pre = np.einsum("...pwd,mwd->...pm", windows, filters) + bias

    def backward(g):
        gpre = g * (pre > 0)
        df = np.einsum("bpm,bpwd->mwd", gpre.reshape(-1, p, m), windows.reshape(-1, p, w, d))
        ds = np.zeros(s.shape)
        for t in range(p):
            ds[..., t * stride : t * stride + w, :] += np.einsum(
                "...m,mwd->...wd", gpre[..., t, :], filters)
        return ds, df, gpre.reshape(-1, m).sum(axis=0)

    return np.maximum(pre, 0.0), backward


def assert_relative_close(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


class TestConv1d:
    def test_default_dims_4x325(self):
        rng = make_rng(0)
        s = rng.standard_normal((5, 60))
        filters = rng.standard_normal((325, 2, 60))
        out, _ = conv1d(s, filters, np.zeros(325), 1)
        assert out.shape == (4, 325)

    def test_all_ones_filter_window_sums(self):
        s = np.eye(5)
        filters = np.ones((1, 2, 5))
        out, _ = conv1d(s, filters, np.zeros(1), 1)
        # every 2-row window of the identity sums to 2
        assert np.array_equal(out, np.full((4, 1), 2.0))

    def test_matches_reference_exactly(self):
        # integer-valued inputs make every sum exact, so any summation
        # order must agree bitwise
        rng = make_rng(21)
        for _ in range(25):
            j = int(rng.integers(2, 9))
            d = int(rng.integers(1, 9))
            m = int(rng.integers(1, 5))
            w = int(rng.integers(1, j + 1))
            stride = int(rng.integers(1, 3))
            s = rng.integers(-4, 5, size=(j, d)).astype(float)
            filters = rng.integers(-4, 5, size=(m, w, d)).astype(float)
            bias = rng.integers(-4, 5, size=m).astype(float)
            out, _ = conv1d(s, filters, bias, stride)
            assert np.array_equal(out, conv_reference(s, filters, bias, stride))

    def test_float_inputs_close_to_reference(self):
        rng = make_rng(22)
        s = rng.standard_normal((6, 5))
        filters = rng.standard_normal((3, 2, 5))
        bias = rng.standard_normal(3)
        out, _ = conv1d(s, filters, bias, 2)
        assert np.allclose(out, conv_reference(s, filters, bias, 2), rtol=1e-12)

    @pytest.mark.parametrize("case", range(36))
    def test_matches_einsum_oracle_forward_and_backward(self, case):
        # every (width, stride, batched) combination twice; the width is
        # random, the whole context or a single row
        rng = make_rng(1000 + case)
        j = int(rng.integers(1, 9))
        w = [int(rng.integers(1, j + 1)), j, 1][case % 3]
        stride = 1 + case // 3 % 3
        batch = (int(rng.integers(1, 5)),) if case // 9 % 2 else ()
        d, m = int(rng.integers(1, 8)), int(rng.integers(1, 7))
        s = rng.standard_normal(batch + (j, d))
        filters = rng.standard_normal((m, w, d))
        bias = rng.standard_normal(m)
        out, cache = conv1d(s, filters, bias, stride)
        want, backward = conv_einsum(s, filters, bias, stride)
        assert_relative_close(out, want)
        g = rng.standard_normal(out.shape)
        for got, expected in zip(conv1d_backward(g, cache), backward(g)):
            assert_relative_close(got, expected)

    def test_width_exceeds_length_error(self):
        with pytest.raises(ValueError):
            conv1d(np.zeros((2, 3)), np.zeros((1, 3, 3)), np.zeros(1), 1)

    def test_gradient_vs_central_differences(self):
        rng = make_rng(5)
        s0 = rng.standard_normal((4, 3))
        f0 = rng.standard_normal((2, 2, 3))
        b0 = rng.standard_normal(2)
        probe = rng.standard_normal((3, 2))

        def f(params):
            s, filters, bias = params
            out, cache = conv1d(s, filters, bias, 1)
            ds, df, db = conv1d_backward(probe, cache)
            return float(np.sum(out * probe)), [ds, df, db]

        assert grad_check(f, [s0, f0, b0]) <= 1e-5


class TestConcat:
    def test_example(self):
        y, widths = concat([np.array([1.0, 2.0]), np.array([3.0])])
        assert y.tolist() == [1.0, 2.0, 3.0] and widths == [2, 1]

    def test_single_input_identity(self):
        x = np.array([4.0, 5.0])
        y, _ = concat([x])
        assert np.array_equal(y, x)

    def test_backward_splits_at_offsets(self):
        _, widths = concat([np.zeros(2), np.zeros(3), np.zeros(1)])
        parts = concat_backward(np.arange(6.0), widths)
        assert [p.tolist() for p in parts] == [[0.0, 1.0], [2.0, 3.0, 4.0], [5.0]]

    def test_empty_error(self):
        with pytest.raises(ValueError):
            concat([])


class TestDropout:
    def test_p_zero_identity_both_modes(self):
        x = np.arange(5.0)
        for train in (True, False):
            y, _ = dropout(x, 0.0, make_rng(0), train)
            assert np.array_equal(y, x)

    def test_inference_identity_any_p(self):
        x = np.arange(5.0)
        y, _ = dropout(x, 0.9, make_rng(0), train=False)
        assert np.array_equal(y, x)

    def test_monte_carlo_expectation(self):
        # inverted scaling keeps E[y] = x; 1e5 trials, 3 sigma bound
        x = np.array([1.0, -2.0, 0.5, 3.0])
        p, n = 0.7, 100_000
        rng = make_rng(8)
        acc = np.zeros_like(x)
        for _ in range(n):
            y, _ = dropout(x, p, rng, train=True)
            acc += y
        mean = acc / n
        sigma = np.abs(x) * np.sqrt(p / ((1 - p) * n))
        assert (np.abs(mean - x) <= 3 * sigma).all()

    def test_invalid_p_error(self):
        for p in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                dropout(np.zeros(3), p, make_rng(0), train=True)

    def test_backward_uses_same_mask(self):
        x = np.ones(1000)
        y, cache = dropout(x, 0.5, make_rng(3), train=True)
        g = dropout_backward(np.ones(1000), cache)
        assert np.array_equal(g, y)  # identical mask and scaling on ones


class TestSoftmaxXent:
    """The three kernels train_step runs, on (B, N) logits: softmax_inplace,
    softmax_xent_from_probs and softmax_xent_backward."""

    @staticmethod
    def _probs_and_losses(logits, targets):
        probs = softmax_inplace(logits.copy())
        return probs, softmax_xent_from_probs(probs, targets)

    def test_uniform_logits_loss_is_log_n(self):
        for n in (2, 10, 1000):
            probs, losses = self._probs_and_losses(np.zeros((3, n)), [0, n - 1, n // 2])
            assert np.allclose(probs, 1.0 / n)
            assert np.allclose(losses, np.log(n))

    def test_hand_case(self):
        probs, losses = self._probs_and_losses(np.array([[0.0, np.log(3.0)]]), [1])
        assert np.allclose(probs, [[0.25, 0.75]])
        assert np.isclose(losses[0], np.log(4.0 / 3.0))

    def test_shift_invariance(self):
        rng = make_rng(4)
        logits = rng.uniform(-50, 50, size=(4, 30))
        p1, _ = self._probs_and_losses(logits, [3, 0, 29, 3])
        p2, _ = self._probs_and_losses(logits + 123.456, [3, 0, 29, 3])
        assert np.allclose(p1, p2, atol=1e-14)

    def test_sum_to_one_random_logits(self):
        rng = make_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 64))
            logits = rng.uniform(-50, 50, size=(int(rng.integers(1, 5)), n))
            probs, losses = self._probs_and_losses(logits, np.zeros(len(logits), dtype=int))
            assert (probs >= 0).all()
            assert (np.abs(probs.sum(axis=1) - 1.0) <= 1e-12).all()
            assert (losses >= 0).all()

    def test_extreme_logits_stable(self):
        probs, losses = self._probs_and_losses(np.array([[1e4, -1e4], [-1e4, 1e4]]), [1, 0])
        assert np.isfinite(losses).all() and np.isfinite(probs).all()

    def test_gradient_is_probs_minus_onehot(self):
        assert models.softmax_xent_backward is softmax_xent_backward
        probs, _ = self._probs_and_losses(np.array([[0.2, -1.0, 3.0], [1.0, 0.5, -2.0]]),
                                          [2, 0])
        g = softmax_xent_backward(probs, [2, 0])
        want = probs.copy()
        want[0, 2] -= 1
        want[1, 0] -= 1
        assert np.array_equal(g, want)

    def test_batched_matches_per_row(self):
        rng = make_rng(7)
        logits = rng.standard_normal((4, 6))
        targets = np.array([0, 5, 2, 2])
        probs, losses = self._probs_and_losses(logits, targets)
        grads = softmax_xent_backward(probs, targets)
        for i in range(4):
            pi, li = self._probs_and_losses(logits[i : i + 1], targets[i : i + 1])
            assert np.array_equal(probs[i], pi[0]) and losses[i] == li[0]
            assert np.array_equal(grads[i], softmax_xent_backward(pi, targets[i : i + 1])[0])

    def test_kernel_works_in_place_and_matches_reference(self):
        logits = make_rng(8).standard_normal((5, 40))
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        want = e / e.sum(axis=-1, keepdims=True)
        buf = logits.copy()
        assert models.softmax_inplace is softmax_inplace
        assert softmax_inplace(buf) is buf
        assert np.array_equal(buf, want)

    def test_float32_stays_float32(self):
        probs = softmax_inplace(np.zeros((2, 4), dtype=np.float32))
        assert probs.dtype == np.float32
        assert softmax_xent_from_probs(probs, [0, 3]).dtype == np.float32
        assert softmax_xent_backward(probs, [0, 3]).dtype == np.float32

    def test_loss_from_probs_clamps_at_floor(self):
        # the training step's loss is this kernel, imported under the same name
        assert models.softmax_xent_from_probs is softmax_xent_from_probs
        probs = np.array([[0.25, 0.75, 0.0], [0.0, 0.0, 1.0]])
        losses = softmax_xent_from_probs(probs, [1, 0])
        assert np.array_equal(losses, [-np.log(0.75), -np.log(PROB_FLOOR)])


class TestSigmoid:
    def test_matches_expit_and_is_exact_at_the_ends(self):
        # expit evaluates the same 1 / (1 + exp(-x)) with libm's exp, which
        # differs from numpy's by 1 ulp on a few percent of inputs; the sum
        # and the division may then round apart, and the two results differ
        # by up to 2 ulps on this grid and 4 near x = -37
        x = np.concatenate((np.linspace(-800.0, 800.0, 400_001),
                            make_rng(0).uniform(-40.0, 40.0, 400_000)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(x)
        want = expit(x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.maximum(got, want)))
        assert got[0] == 0.0 and got[400_000] == 1.0


class TestAdagrad:
    def test_zero_grad_no_change(self):
        p = np.array([1.0, 2.0])
        acc = np.zeros(2)
        adagrad_step(p, np.zeros(2), acc, 0.01)
        assert p.tolist() == [1.0, 2.0]
        assert acc.tolist() == [0.0, 0.0]

    def test_first_step_moves_by_lr_sign(self, monkeypatch):
        # with acc = g^2 the step is lr * g / (|g| + eps) ~ lr * sign(g)
        monkeypatch.setattr(core, "ADAGRAD_EPS", 1e-12)
        p = np.zeros(3)
        g = np.array([2.0, -0.5, 1e3])
        adagrad_step(p, g, np.zeros(3), 0.01)
        assert np.allclose(p, -0.01 * np.sign(g), rtol=1e-9)

    def test_second_identical_step_smaller(self):
        p = np.zeros(1)
        g = np.array([3.0])
        acc = np.zeros(1)
        adagrad_step(p, g, acc, 0.1)
        first = abs(p[0])
        before = p[0]
        adagrad_step(p, g, acc, 0.1)
        second = abs(p[0] - before)
        assert second < first

    def test_accumulator_monotone_nonnegative(self):
        rng = make_rng(10)
        p = rng.standard_normal(8)
        acc = np.zeros(8)
        prev = acc.copy()
        for _ in range(20):
            adagrad_step(p, rng.standard_normal(8), acc, 0.01)
            assert (acc >= prev).all() and (acc >= 0).all()
            prev = acc.copy()

    def test_shape_mismatch_error(self):
        with pytest.raises(ValueError):
            adagrad_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.01)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        # one float64 block and one past it, then the same for float32
        "shape", [(1,), (325,), (_BLOCK_BYTES // 8,), (_BLOCK_BYTES // 8 + 1,),
                  (_BLOCK_BYTES // 4,), (_BLOCK_BYTES // 4 + 1,), (10000, 300)], ids=str
    )
    def test_blocked_update_equals_reference_bitwise(self, shape, dtype):
        rng = make_rng(12)
        p = rng.standard_normal(shape).astype(dtype)
        acc0 = rng.random(shape).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        g_before = g.copy()
        acc = acc0.copy()
        want_acc = acc0 + g * g
        want_p = p - 0.01 * g / (np.sqrt(want_acc) + core.ADAGRAD_EPS)
        out = adagrad_step(p, g, acc, 0.01)
        assert out is p
        assert p.dtype == dtype and acc.dtype == dtype
        assert np.array_equal(acc, want_acc)
        assert np.array_equal(p, want_p)
        assert np.array_equal(g, g_before)

    def test_non_contiguous_param_error(self):
        p = np.zeros((4, 6))[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            adagrad_step(p, np.ones(p.shape), np.zeros(p.shape), 0.01)

    def test_non_contiguous_accumulator_error(self):
        p = np.zeros((3, 4))
        with pytest.raises(ValueError, match="contiguous"):
            adagrad_step(p, np.ones(p.shape), np.zeros((4, 3)).T, 0.1)

    def test_sparse_rows_aggregate_duplicates(self):
        p_sparse = np.ones((4, 2))
        p_dense = np.ones((4, 2))
        rows = np.array([1, 3, 1])
        grads = np.array([[1.0, 0.0], [0.5, 0.5], [2.0, -1.0]])
        adagrad_step_rows(p_sparse, rows, grads, np.zeros(p_sparse.shape), 0.01)
        dense = np.zeros((4, 2))
        np.add.at(dense, rows, grads)
        adagrad_step(p_dense, dense, np.zeros(p_dense.shape), 0.01)
        assert np.allclose(p_sparse, p_dense)

    def test_sparse_rows_match_the_row_form_aggregate_bitwise(self):
        # the row-form np.add.at over unique-row positions that the
        # flattened scatter-add replaced: each element is summed in the
        # same order, so the step is bitwise the same
        rng = make_rng(12)
        rows = rng.integers(0, 30, size=250)
        grads = rng.standard_normal((250, 60))
        param, acc = rng.standard_normal((30, 60)), rng.random((30, 60))
        want_param, want_acc = param.copy(), acc.copy()
        uniq, inv = np.unique(rows, return_inverse=True)
        agg = np.zeros((len(uniq), 60))
        np.add.at(agg, inv, grads)
        want_acc[uniq] += agg * agg
        want_param[uniq] -= 0.05 * agg / (np.sqrt(want_acc[uniq]) + core.ADAGRAD_EPS)
        adagrad_step_rows(param, rows, grads, acc, 0.05)
        assert np.array_equal(param, want_param) and np.array_equal(acc, want_acc)


def _adagrad_reference(p, g, acc, lr):
    """The whole-array Adagrad expression that adagrad_step blocks."""
    acc = acc + g * g
    return p - lr * g / (np.sqrt(acc) + core.ADAGRAD_EPS), acc


def _adagrad_in_child(conn, p, g, acc, inherited):
    core.adagrad_step(p, g, acc, 0.01)
    conn.send((p, acc, core._HELPER is not inherited))
    conn.close()


class TestHelper:
    """The kernels that share work with core's helper thread give the same
    bits with it on, off, or late."""

    @pytest.mark.parametrize("mode", HELPER_MODES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("blocks", [1, 2, 7.5, "(300, 10000)"], ids=str)
    def test_adagrad_step_bitwise(self, blocks, dtype, mode, core_helper):
        per_block = _BLOCK_BYTES // np.dtype(dtype).itemsize
        shape = (300, 10000) if isinstance(blocks, str) else (int(blocks * per_block),)
        rng = make_rng(13)
        p = rng.standard_normal(shape).astype(dtype)
        acc = rng.random(shape).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        want_p, want_acc = _adagrad_reference(p, g, acc, 0.01)
        core_helper(mode)
        core.adagrad_step(p, g, acc, 0.01)
        assert np.array_equal(p, want_p) and np.array_equal(acc, want_acc)

    def test_adagrad_step_shares_blocks_under_fast_switching(self, monkeypatch, core_helper):
        # 125 blocks of 8 elements drawn by two threads that switch every
        # microsecond: a block run twice or skipped changes acc
        monkeypatch.setattr(core, "_BLOCK_BYTES", 64)
        rng = make_rng(14)
        p, acc, g = rng.standard_normal(1000), rng.random(1000), rng.standard_normal(1000)
        core_helper("on")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                want_p, want_acc = _adagrad_reference(p, g, acc, 0.01)
                core.adagrad_step(p, g, acc, 0.01)
                assert np.array_equal(p, want_p) and np.array_equal(acc, want_acc)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("mode", HELPER_MODES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("x_shape, n_out", [((50, 300), 10000), ((4, 3, 20), 7), ((1, 30), 40)],
                             ids=str)
    def test_affine_backward_bitwise(self, x_shape, n_out, dtype, mode, core_helper):
        rng = make_rng(15)
        x = rng.standard_normal(x_shape).astype(dtype)
        w = rng.standard_normal((x_shape[-1], n_out)).astype(dtype)
        g = rng.standard_normal(x_shape[:-1] + (n_out,)).astype(dtype)
        core_helper(mode)
        dx, dw, db = affine_backward(g, (x, w))
        x2, g2 = x.reshape(-1, x_shape[-1]), g.reshape(-1, n_out)
        assert dw.dtype == dx.dtype == dtype
        assert np.array_equal(dx, g @ w.T)
        assert np.array_equal(dw, x2.T @ g2)
        assert np.array_equal(db, g2.sum(axis=0))

    def test_both_runs_first_here_when_the_helper_is_busy(self, core_helper):
        core_helper("on")
        release = threading.Event()
        core._HELPER.submit(release.wait, 30)
        ran = []
        try:
            out = core._both(lambda: ran.append(("first", threading.get_ident())),
                             lambda: ran.append(("second", threading.get_ident())) or 7, True)
        finally:
            release.set()
        here = threading.get_ident()
        assert out == 7 and ran == [("second", here), ("first", here)]

    def test_both_raises_what_the_helper_raised(self, core_helper):
        core_helper("on")

        def fail():
            raise ArithmeticError("in the helper")

        started = threading.Event()
        with pytest.raises(ArithmeticError, match="in the helper"):
            # second waits until the helper has taken first, so it cannot be cancelled
            core._both(lambda: started.set() or fail(), lambda: started.wait(30), True)
        assert started.is_set()

    def test_both_waits_for_a_started_helper_when_the_caller_raises(self, core_helper):
        core_helper("on")
        started, done = threading.Event(), threading.Event()

        def first():
            started.set()
            time.sleep(0.05)
            done.set()

        def second():
            started.wait(30)
            raise ArithmeticError("here")

        with pytest.raises(ArithmeticError, match="here"):
            core._both(first, second, True)
        assert done.is_set()

    def test_small_work_stays_on_the_caller(self, monkeypatch):
        pool = ThreadPoolExecutor(max_workers=1)
        submitted = []
        submit = pool.submit
        monkeypatch.setattr(pool, "submit", lambda fn: submitted.append(fn) or submit(fn))
        monkeypatch.setattr(core, "_HELPER", pool)
        try:
            for n, shared in [(core._SHARE_MIN_BYTES // 8 - 1, False),
                              (core._SHARE_MIN_BYTES // 8, True)]:
                submitted.clear()
                core.adagrad_step(np.zeros(n), np.ones(n), np.zeros(n), 0.01)
                assert len(submitted) == shared
            # rows * in * out multiply-adds in the dW product
            assert 8 * 512 * 512 == core._SHARE_MIN_MACS
            for n_out, shared in [(511, False), (512, True)]:
                submitted.clear()
                affine_backward(np.ones((8, n_out)), (np.ones((8, 512)), np.ones((512, n_out))))
                assert len(submitted) == shared
        finally:
            pool.shutdown()

    def test_helper_starts_lazily_and_only_with_a_second_cpu(self, monkeypatch):
        monkeypatch.setattr(core, "_HELPER", core._UNSTARTED)
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert core.kernel_threads() == 1 and core._helper() is None
        assert core.kernel_threads() == 1
        monkeypatch.setattr(core, "_HELPER", core._UNSTARTED)
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert core.kernel_threads() == 2 and core._HELPER is core._UNSTARTED
        helper = core._helper()
        try:
            assert isinstance(helper, ThreadPoolExecutor) and core._helper() is helper
            assert core.kernel_threads() == 2
        finally:
            helper.shutdown()

    def test_forked_child_makes_its_own_helper(self, core_helper):
        core_helper("on")
        inherited = core._HELPER
        n = 3 * _BLOCK_BYTES // 8
        rng = make_rng(16)
        p, acc, g = rng.standard_normal(n), rng.random(n), rng.standard_normal(n)
        want_p, want_acc = p.copy(), acc.copy()
        core.adagrad_step(want_p, g, want_acc, 0.01)  # the parent's helper thread now runs
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_adagrad_in_child, args=(send, p, g, acc, inherited))
        child.start()
        try:
            assert recv.poll(60), "the forked child's adagrad_step did not finish"
            got_p, got_acc, fresh = recv.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
        assert not child.is_alive() and child.exitcode == 0
        assert fresh and np.array_equal(got_p, want_p) and np.array_equal(got_acc, want_acc)


class TestGradCheck:
    def test_linear_function_near_exact(self):
        a = np.array([1.5, -2.0, 0.25])

        def f(params):
            (x,) = params
            return float(a @ x), [a.copy()]

        assert grad_check(f, [np.array([1.0, 2.0, 3.0])]) <= 1e-9
