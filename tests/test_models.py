import logging

import numpy as np
import pytest

from songrec.core import grad_check
from songrec.models import (
    CnnRecParams,
    Hyperparams,
    SATURATED_LOSS,
    NnRecParams,
    train,
    train_step,
)
from songrec.util import make_rng, top_k_indices

TINY = Hyperparams(d=4, j=3, h=5, m=3, w=2, epochs=2, batch=2, dropout_p=0.0)


def tiny_batch():
    users = np.array([0, 2])
    contexts = np.array([[1, 3, 5], [2, 0, 6]])
    targets = np.array([4, 1])
    return users, contexts, targets


class TestHyperparams:
    def test_defaults_match_reference_setup(self):
        hy = Hyperparams()
        assert (hy.d, hy.j, hy.h, hy.m, hy.w, hy.stride) == (60, 5, 300, 325, 2, 1)
        assert (hy.epochs, hy.batch, hy.lr, hy.dropout_p) == (25, 50, 0.01, 0.7)
        assert hy.conv_positions == 4

    def test_width_exceeding_order_rejected(self):
        with pytest.raises(ValueError):
            Hyperparams(j=1, w=2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Hyperparams(d=0)
        with pytest.raises(ValueError):
            Hyperparams(dropout_p=1.0)


class TestArchitectureDims:
    def test_conv_feature_and_hidden_input_1360(self):
        hy = Hyperparams()
        params = CnnRecParams(50, 4, hy, rng=make_rng(0))
        assert params.filters.shape == (325, 2, 60)
        assert hy.conv_positions * hy.m == 1300
        assert params.w1.shape == (300, 1360)  # 4*325 conv output + 60 user dims

    def test_plain_hidden_input_360(self):
        params = NnRecParams(50, 4, Hyperparams(), rng=make_rng(0))
        assert params.w1.shape == (300, 360)  # 5*60 song dims + 60 user dims

    def test_output_layer_covers_catalog(self):
        params = CnnRecParams(50, 4, Hyperparams(), rng=make_rng(0))
        assert params.w2.shape == (50, 300) and params.b2.shape == (50,)


class TestForward:
    @pytest.mark.parametrize("cls", [CnnRecParams, NnRecParams])
    def test_valid_distribution(self, cls):
        params = cls(7, 3, TINY, rng=make_rng(1))
        probs = params.score_catalog(1, [0, 1, 2])
        assert probs.shape == (7,)
        assert (probs >= 0).all()
        assert abs(probs.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("cls", [CnnRecParams, NnRecParams])
    def test_valid_distribution_arbitrary_params(self, cls):
        # any finite parameters must still give a distribution
        params = cls(7, 3, TINY, rng=make_rng(1))
        rng = make_rng(2)
        for t in params.tensors().values():
            t[...] = 10.0 * rng.standard_normal(t.shape)
        probs = params.score_catalog(0, [6, 6, 6])
        assert (probs >= 0).all() and abs(probs.sum() - 1.0) <= 1e-12

    def test_single_precision_normalization(self):
        params = CnnRecParams(40, 3, TINY, rng=make_rng(3), dtype=np.float32)
        probs = params.score_catalog(2, [5, 1, 9])
        assert abs(float(probs.sum()) - 1.0) <= 1e-6

    def test_wrong_context_length_error(self):
        params = NnRecParams(7, 3, TINY, rng=make_rng(0))
        with pytest.raises(ValueError):
            params.score_catalog(0, [1, 2])

    def test_unknown_user_error(self):
        params = NnRecParams(7, 3, TINY, rng=make_rng(0))
        with pytest.raises(IndexError):
            params.score_catalog(5, [1, 2, 3])

    def test_train_mode_needs_rng(self):
        hy = Hyperparams(d=4, j=3, h=5, m=3, w=2, dropout_p=0.5)
        params = NnRecParams(7, 3, hy, rng=make_rng(0))
        with pytest.raises(ValueError):
            params.forward_batch([0], [[1, 2, 3]], train=True)

    @pytest.mark.parametrize("cls", [CnnRecParams, NnRecParams])
    def test_batched_equals_single(self, cls):
        params = cls(7, 3, TINY, rng=make_rng(5))
        users, contexts, _ = tiny_batch()
        probs, _ = params.forward_batch(users, contexts)
        for i in range(len(users)):
            assert np.allclose(probs[i], params.score_catalog(users[i], contexts[i]), atol=1e-15)


class TestGradients:
    @pytest.mark.parametrize("cls", [CnnRecParams, NnRecParams])
    def test_full_model_gradient(self, cls):
        params = cls(6, 3, Hyperparams(d=3, j=2, h=4, m=2, w=2, dropout_p=0.0), rng=make_rng(7))
        users = np.array([0, 1])
        contexts = np.array([[1, 3], [2, 0]])
        targets = np.array([4, 1])
        names = params.tensor_names()

        def f(arrs):
            loss, grads = params.loss_and_grads(users, contexts, targets)
            return loss, [grads[n] for n in names]

        err = grad_check(f, [params.tensors()[n] for n in names], eps=1e-5)
        assert err <= 1e-4


class TestTrainStep:
    def test_duplicate_example_same_mean_loss(self):
        params = NnRecParams(7, 3, TINY, rng=make_rng(8))
        single = (np.array([0]), np.array([[1, 2, 3]]), np.array([4]))
        loss1 = params.loss_and_grads(*single)[0]
        doubled = (np.array([0, 0]), np.array([[1, 2, 3], [1, 2, 3]]), np.array([4, 4]))
        loss2 = params.loss_and_grads(*doubled)[0]
        assert np.isclose(loss1, loss2, rtol=1e-12)

    def test_fresh_model_loss_near_log_n(self):
        n = 50
        params = CnnRecParams(n, 3, TINY, rng=make_rng(9))
        users = np.array([0, 1, 2])
        contexts = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        targets = np.array([10, 20, 30])
        loss = train_step((users, contexts, targets), params, make_rng(0))
        assert abs(loss - np.log(n)) <= 0.2 * np.log(n)

    def test_fifty_steps_reduce_loss(self):
        params = CnnRecParams(10, 2, TINY, rng=make_rng(10))
        batch = (
            np.array([0, 1, 0, 1, 0]),
            np.array([[1, 2, 3], [4, 5, 6], [2, 3, 4], [5, 6, 7], [3, 4, 5]]),
            np.array([4, 7, 5, 8, 6]),
        )
        rng = make_rng(11)
        first = train_step(batch, params, rng)
        for _ in range(49):
            last = train_step(batch, params, rng)
        assert last < first

    def test_empty_batch_error(self):
        params = NnRecParams(7, 3, TINY, rng=make_rng(0))
        with pytest.raises(ValueError):
            train_step((np.array([]), np.zeros((0, 3)), np.array([])), params, make_rng(0))

    @pytest.mark.parametrize("cls", [CnnRecParams, NnRecParams])
    def test_single_pattern_overfits_in_300_steps(self, cls):
        hy = Hyperparams(d=8, j=5, h=16, m=8, w=2, epochs=1, batch=1, lr=0.01, dropout_p=0.0)
        params = cls(10, 2, hy, rng=make_rng(40))
        batch = (np.array([0]), np.array([[1, 2, 3, 4, 5]]), np.array([6]))
        rng = make_rng(41)
        for _ in range(300):
            train_step(batch, params, rng)
        assert params.score_catalog(0, [1, 2, 3, 4, 5])[6] > 0.9


class TestTrainLoop:
    def test_zero_epochs_no_change(self):
        hy = Hyperparams(d=4, j=3, h=5, m=3, w=2, epochs=0, batch=2, dropout_p=0.0)
        params = CnnRecParams(7, 3, hy, rng=make_rng(12))
        before = {k: v.copy() for k, v in params.tensors().items()}
        history = train([_example(0, (1, 2, 3), 4)], params, make_rng(0))
        assert history == []
        for k, v in params.tensors().items():
            assert np.array_equal(v, before[k])

    def test_seeded_training_bitwise_deterministic(self):
        hy = Hyperparams(d=4, j=3, h=5, m=3, w=2, epochs=3, batch=2, dropout_p=0.5)
        runs = []
        for _ in range(2):
            params = NnRecParams(7, 3, hy, rng=make_rng(13))
            examples = [
                _example(0, (1, 2, 3), 4),
                _example(1, (2, 3, 4), 5),
                _example(2, (3, 4, 5), 6),
            ]
            train(examples, params, make_rng(14))
            runs.append({k: v.copy() for k, v in params.tensors().items()})
        for k in runs[0]:
            assert np.array_equal(runs[0][k], runs[1][k]), k

    def test_history_length_and_callback(self):
        hy = Hyperparams(d=4, j=3, h=5, m=3, w=2, epochs=4, batch=2, dropout_p=0.0)
        params = NnRecParams(7, 3, hy, rng=make_rng(15))
        seen = []
        history = train(
            [_example(0, (1, 2, 3), 4)],
            params,
            make_rng(16),
            callbacks=[lambda epoch, p, loss: seen.append((epoch, loss))],
        )
        assert len(history) == 4
        assert [e for e, _ in seen] == [0, 1, 2, 3]
        assert [l for _, l in seen] == history

    def test_non_finite_tensor_stops_training(self):
        hy = Hyperparams(d=4, j=3, h=5, m=3, w=2, epochs=3, batch=2, dropout_p=0.0)
        params = CnnRecParams(7, 3, hy, rng=make_rng(17))
        params.w2[2, 1] = np.nan
        seen = []
        with pytest.raises(ValueError, match=r"epoch 1: .*non-finite tensors: .*w2"):
            train([_example(0, (1, 2, 3), 4)], params, make_rng(18),
                  callbacks=[lambda *args: seen.append(args)])
        assert seen == []  # stopped before reporting the epoch

    def test_saturated_loss_warns(self, caplog):
        hy = Hyperparams(d=4, j=3, h=5, m=3, w=2, epochs=1, batch=2, dropout_p=0.0)
        params = NnRecParams(7, 3, hy, rng=make_rng(19))
        params.b2[4] = -1e4  # the target's probability underflows to the floor
        with caplog.at_level(logging.WARNING, logger="songrec"):
            history = train([_example(0, (1, 2, 3), 4)], params, make_rng(20))
        assert history == [pytest.approx(SATURATED_LOSS)]
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "epoch 1 loss" in warnings[0].getMessage()

    def test_healthy_training_logs_no_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="songrec"):
            train([_example(0, (1, 2, 3), 4)], NnRecParams(7, 3, TINY, rng=make_rng(21)),
                  make_rng(22))
        assert caplog.records == []


def _example(user, context, target):
    from songrec.data import TrainingExample

    return TrainingExample(user, context, target)


class TestPredictTopk:
    def _rigged(self, biases):
        # zero hidden-to-output weights: probabilities follow b2 alone
        params = NnRecParams(len(biases), 2, TINY, rng=make_rng(17))
        params.w2[...] = 0.0
        params.b2[...] = np.asarray(biases, dtype=float)
        return params

    def test_known_ordering(self):
        params = self._rigged([0.1, 2.0, -1.0, 0.5, 1.0, 0.0, -2.0])
        assert top_k_indices(params.score_catalog(0, [1, 2, 3]), 3).tolist() == [1, 4, 3]

    def test_k_equals_n_is_permutation(self):
        params = self._rigged([0.1, 2.0, -1.0, 0.5, 1.0, 0.0, -2.0])
        top = top_k_indices(params.score_catalog(0, [1, 2, 3]), 7)
        assert sorted(top.tolist()) == list(range(7))

    def test_tie_prefers_lower_index(self):
        params = self._rigged([1.0, 5.0, 5.0, 1.0, 1.0, 0.0, 0.0])
        assert top_k_indices(params.score_catalog(0, [1, 2, 3]), 2).tolist() == [1, 2]

    def test_matches_brute_force_sort(self):
        rng = make_rng(18)
        params = NnRecParams(9, 3, TINY, rng=rng)
        probs = params.score_catalog(1, [4, 5, 6])
        want = sorted(range(9), key=lambda i: (-probs[i], i))
        assert top_k_indices(params.score_catalog(1, [4, 5, 6]), 9).tolist() == want

    def test_unknown_user_error(self):
        params = NnRecParams(7, 3, TINY, rng=make_rng(19))
        with pytest.raises(IndexError):
            top_k_indices(params.score_catalog(9, [1, 2, 3]), 3)


class TestStructuralEquivalence:
    def test_permutation_filters_reduce_conv_to_plain_concat(self):
        # with m*p = j*d, width-1 filters forming a permutation basis, and
        # non-negative embeddings (ReLU transparent), the convolutional
        # model computes exactly the plain model's hidden input
        hy = Hyperparams(d=3, j=2, h=4, m=3, w=1, epochs=1, batch=1, dropout_p=0.0)
        nn = NnRecParams(6, 2, hy, rng=make_rng(20))
        nn.e_song[...] = np.abs(nn.e_song)
        cnn = CnnRecParams(6, 2, hy, rng=make_rng(21))
        for name in ("e_song", "e_user", "w1", "b1", "w2", "b2"):
            cnn.tensors()[name][...] = nn.tensors()[name]
        cnn.filters[...] = 0.0
        for f in range(3):
            cnn.filters[f, 0, f] = 1.0  # filter f copies embedding column f
        cnn.conv_b[...] = 0.0
        for u in (0, 1):
            for ctx in ([0, 1], [2, 5], [4, 4]):
                assert np.array_equal(cnn.score_catalog(u, ctx), nn.score_catalog(u, ctx))
