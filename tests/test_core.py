import numpy as np
import pytest

from songrec.core import (
    _BLOCK,
    AdagradState,
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
    softmax_inplace,
    softmax_xent,
    softmax_xent_backward,
)
from songrec.util import make_rng


class TestGlorot:
    def test_unit_limit_case(self):
        # fan_in = fan_out = 3 gives L = sqrt(6/6) = 1
        w = glorot_init(3, 3, make_rng(0))
        assert w.shape == (3, 3)
        assert np.abs(w).max() <= 1.0

    def test_monte_carlo_bound_and_mean(self):
        # 10000 samples, fans summing to 100: L = sqrt(0.06)
        limit = np.sqrt(6 / 100)
        w = glorot_init(40, 60, make_rng(1), shape=(100, 100))
        assert np.abs(w).max() <= limit
        sigma_mean = limit / np.sqrt(3 * w.size)
        assert abs(w.mean()) <= 3 * sigma_mean

    def test_same_seed_identical(self):
        a = glorot_init(5, 7, make_rng(9))
        b = glorot_init(5, 7, make_rng(9))
        assert np.array_equal(a, b)

    def test_zero_fan_error(self):
        with pytest.raises(ValueError):
            glorot_init(0, 3, make_rng(0))


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

    def test_scatter_add_gradient(self):
        # upstream gradient lands exactly on the looked-up row
        e = np.zeros((4, 3))
        state = AdagradState.for_param(e, lr=1.0, eps=0.0)
        g = np.array([[1.0, 2.0, 3.0]])
        adagrad_step_rows(e, np.array([2]), g, state)
        assert np.array_equal(state.acc[2], g[0] ** 2)
        assert np.count_nonzero(e[[0, 1, 3]]) == 0
        assert np.count_nonzero(e[2]) == 3


class TestAffine:
    def test_identity(self):
        x = np.array([1.0, -2.0])
        y, _ = affine(x, np.eye(2), np.zeros(2))
        assert np.array_equal(y, x)

    def test_hand_case(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        y, _ = affine(np.array([1.0, 1.0]), w, np.array([0.0, 1.0]))
        assert y.tolist() == [3.0, 8.0]

    def test_shape_mismatch_error(self):
        with pytest.raises(ValueError):
            affine(np.zeros(3), np.zeros((2, 2)), np.zeros(2))

    def test_gradient_vs_central_differences(self):
        rng = make_rng(11)
        w0 = rng.standard_normal((3, 4))
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
    def test_uniform_logits_loss_is_log_n(self):
        for n in (2, 10, 1000):
            probs, loss = softmax_xent(np.zeros(n), 0)
            assert np.allclose(probs, 1.0 / n)
            assert np.isclose(loss, np.log(n))

    def test_hand_case(self):
        probs, loss = softmax_xent(np.array([0.0, np.log(3.0)]), 1)
        assert np.allclose(probs, [0.25, 0.75])
        assert np.isclose(loss, np.log(4.0 / 3.0))

    def test_shift_invariance(self):
        rng = make_rng(4)
        logits = rng.uniform(-50, 50, size=30)
        p1, _ = softmax_xent(logits, 3)
        p2, _ = softmax_xent(logits + 123.456, 3)
        assert np.allclose(p1, p2, atol=1e-14)

    def test_sum_to_one_random_logits(self):
        rng = make_rng(6)
        for _ in range(200):
            logits = rng.uniform(-50, 50, size=int(rng.integers(2, 64)))
            probs, loss = softmax_xent(logits, 0)
            assert (probs >= 0).all()
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert loss >= 0

    def test_extreme_logits_stable(self):
        probs, loss = softmax_xent(np.array([1e4, -1e4]), 1)
        assert np.isfinite(loss) and np.isfinite(probs).all()

    def test_gradient_is_probs_minus_onehot(self):
        logits = np.array([0.2, -1.0, 3.0])
        probs, _ = softmax_xent(logits, 2)
        g = softmax_xent_backward(probs, 2)
        want = probs.copy()
        want[2] -= 1
        assert np.array_equal(g, want)

    def test_batched_matches_per_row(self):
        rng = make_rng(7)
        logits = rng.standard_normal((4, 6))
        targets = np.array([0, 5, 2, 2])
        probs, losses = softmax_xent(logits, targets)
        for i in range(4):
            pi, li = softmax_xent(logits[i], targets[i])
            assert np.allclose(probs[i], pi) and np.isclose(losses[i], li)


    def test_kernel_works_in_place_and_matches_reference(self):
        logits = make_rng(8).standard_normal((5, 40))
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        want = e / e.sum(axis=-1, keepdims=True)
        buf = logits.copy()
        assert softmax_inplace(buf) is buf
        assert np.array_equal(buf, want)
        probs, _ = softmax_xent(logits, np.zeros(5, dtype=int))
        assert np.array_equal(probs, want)

    def test_float32_stays_float32(self):
        probs, _ = softmax_xent(np.zeros(4, dtype=np.float32), 0)
        assert probs.dtype == np.float32


class TestAdagrad:
    def test_zero_grad_no_change(self):
        p = np.array([1.0, 2.0])
        state = AdagradState.for_param(p)
        adagrad_step(p, np.zeros(2), state)
        assert p.tolist() == [1.0, 2.0]
        assert state.acc.tolist() == [0.0, 0.0]

    def test_first_step_moves_by_lr_sign(self):
        # with acc = g^2 the step is lr * g / (|g| + eps) ~ lr * sign(g)
        p = np.zeros(3)
        g = np.array([2.0, -0.5, 1e3])
        state = AdagradState.for_param(p, lr=0.01, eps=1e-12)
        adagrad_step(p, g, state)
        assert np.allclose(p, -0.01 * np.sign(g), rtol=1e-9)

    def test_second_identical_step_smaller(self):
        p = np.zeros(1)
        g = np.array([3.0])
        state = AdagradState.for_param(p, lr=0.1)
        adagrad_step(p, g, state)
        first = abs(p[0])
        before = p[0]
        adagrad_step(p, g, state)
        second = abs(p[0] - before)
        assert second < first

    def test_accumulator_monotone_nonnegative(self):
        rng = make_rng(10)
        p = rng.standard_normal(8)
        state = AdagradState.for_param(p)
        prev = state.acc.copy()
        for _ in range(20):
            adagrad_step(p, rng.standard_normal(8), state)
            assert (state.acc >= prev).all() and (state.acc >= 0).all()
            prev = state.acc.copy()

    def test_shape_mismatch_error(self):
        with pytest.raises(ValueError):
            adagrad_step(np.zeros(2), np.zeros(3), AdagradState.for_param(np.zeros(2)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "shape", [(1,), (325,), (_BLOCK,), (_BLOCK + 1,), (10000, 300)], ids=str
    )
    def test_blocked_update_equals_reference_bitwise(self, shape, dtype):
        rng = make_rng(12)
        p = rng.standard_normal(shape).astype(dtype)
        acc0 = rng.random(shape).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        g_before = g.copy()
        state = AdagradState(acc0.copy(), lr=0.01, eps=1e-8)
        want_acc = acc0 + g * g
        want_p = p - state.lr * g / (np.sqrt(want_acc) + state.eps)
        out = adagrad_step(p, g, state)
        assert out is p
        assert p.dtype == dtype and state.acc.dtype == dtype
        assert np.array_equal(state.acc, want_acc)
        assert np.array_equal(p, want_p)
        assert np.array_equal(g, g_before)

    def test_non_contiguous_param_error(self):
        p = np.zeros((4, 6))[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            adagrad_step(p, np.ones(p.shape), AdagradState.for_param(np.zeros(p.shape)))

    def test_non_contiguous_accumulator_error(self):
        p = np.zeros((3, 4))
        state = AdagradState(np.zeros((4, 3)).T, lr=0.1)
        with pytest.raises(ValueError, match="contiguous"):
            adagrad_step(p, np.ones(p.shape), state)

    def test_sparse_rows_aggregate_duplicates(self):
        p_sparse = np.ones((4, 2))
        p_dense = np.ones((4, 2))
        rows = np.array([1, 3, 1])
        grads = np.array([[1.0, 0.0], [0.5, 0.5], [2.0, -1.0]])
        adagrad_step_rows(p_sparse, rows, grads, AdagradState.for_param(p_sparse))
        dense = np.zeros((4, 2))
        np.add.at(dense, rows, grads)
        adagrad_step(p_dense, dense, AdagradState.for_param(p_dense))
        assert np.allclose(p_sparse, p_dense)


class TestGradCheck:
    def test_linear_function_near_exact(self):
        a = np.array([1.5, -2.0, 0.25])

        def f(params):
            (x,) = params
            return float(a @ x), [a.copy()]

        assert grad_check(f, [np.array([1.0, 2.0, 3.0])]) <= 1e-9
