import logging

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from conftest import progress_lines, session_table, table_rows, time_limit, top_k
from songrec import baselines
from songrec.baselines import (
    FpmcFactors,
    ItemEmbeddings,
    WmfFactors,
    _pair_count,
    _sgns_losses,
    fpmc_init,
    fpmc_sbpr_update,
    fpmc_train,
    play_count_matrix,
    w2v_train,
    wmf_objective,
    wmf_train,
)
from songrec.data import extract_examples
from songrec.util import make_rng


def recommend(model, u, context, k):
    """Top-k songs of one (user, context) under the repository tie rule."""
    return top_k(model.score_catalog(u, context), k)


def margin(factors, u, prev, pos, neg):
    scores = factors.score_catalog(u, [prev])
    return scores[pos] - scores[neg]


class TestSgnsLoss:
    @staticmethod
    def pair_loss(v_center, v_pos, v_negs):
        """-log sigma(c.p) - sum_n log sigma(-c.n) of one (center, context)
        pair, by the loss ``w2v_train`` sums."""
        return float(_sgns_losses(np.concatenate(([v_center @ v_pos], v_negs @ v_center))))

    def test_zero_vectors_give_ln2_per_term(self):
        # every sigmoid term is exactly 1/2
        for negatives in (1, 5, 12):
            loss = self.pair_loss(np.zeros(8), np.zeros(8), np.zeros((negatives, 8)))
            assert np.isclose(loss, (1 + negatives) * np.log(2.0))

    def test_aligned_pair_lowers_loss(self):
        v = np.ones(4)
        aligned = self.pair_loss(v, v, np.zeros((3, 4)))
        opposed = self.pair_loss(v, -v, np.zeros((3, 4)))
        assert aligned < opposed


class TestW2vTrain:
    def test_zero_epochs_returns_initialization(self):
        sessions = session_table([(0, [0, 1, 2])])
        kw = dict(d=4, window=5, negatives=5, lr=0.025, epochs=0)
        a, history = w2v_train(sessions, 5, **kw, rng=make_rng(3))
        b, _ = w2v_train(sessions, 5, **kw, rng=make_rng(3))
        assert history == []
        assert np.array_equal(a.v_in, b.v_in)
        assert np.array_equal(a.v_out, np.zeros((5, 4)))
        assert np.abs(a.v_in).max() <= 0.5 / 4

    def test_empty_sessions_error(self):
        with pytest.raises(ValueError):
            w2v_train(session_table([]), 5, d=4, window=5, negatives=5, lr=0.025, epochs=5,
                      rng=make_rng(0))

    def test_sessions_without_a_pair_are_refused(self):
        # sessions of one song each: nothing to train, and a loss of 0
        # would read as better than chance
        with pytest.raises(ValueError, match=r"^w2v: .* no \(center, context\) pair "
                                             r"within window 2$"):
            w2v_train(session_table([(0, [1]), (1, [2])]), 3, d=4, window=2, negatives=2,
                      lr=0.025, epochs=2, rng=make_rng(0))

    def test_always_adjacent_songs_become_similar(self):
        # songs 0 and 1 only ever appear as a repeated adjacent block
        # (repeat listening) inside otherwise random sessions, so they
        # share contexts including each other; their center vectors must
        # end up more similar than 0 is to the background songs. A single
        # isolated insertion would not do: center-vector similarity needs
        # overlapping context distributions, not mere co-occurrence.
        rng = make_rng(30)
        sessions = []
        for _ in range(1000):
            items = [int(x) for x in rng.integers(2, 20, size=8)]
            if rng.random() < 0.35:
                pos = int(rng.integers(len(items) + 1))
                pair = [0, 1] if rng.random() < 0.5 else [1, 0]
                items = items[:pos] + pair * 2 + items[pos:]
            sessions.append((0, items))
        emb, _ = w2v_train(session_table(sessions), 20, d=8, window=2, negatives=5, lr=0.05,
                           epochs=5, rng=make_rng(31))
        unit = emb.v_in / np.linalg.norm(emb.v_in, axis=1, keepdims=True)
        cos_pair = float(unit[0] @ unit[1])
        cos_rest = float(np.mean(unit[2:] @ unit[0]))
        assert cos_pair > cos_rest

    def test_loss_history_decreases(self):
        sessions = session_table((0, [0, 1, 2, 0, 1, 2, 0, 1]) for _ in range(50))
        _, history = w2v_train(sessions, 3, d=6, window=2, negatives=5, lr=0.025, epochs=4,
                               rng=make_rng(32))
        assert history[-1] < history[0]

    def test_deterministic_given_seed(self):
        sessions = session_table([(0, [0, 1, 2, 3])])
        kw = dict(d=4, window=5, negatives=5, lr=0.025, epochs=2)
        a, _ = w2v_train(sessions, 4, **kw, rng=make_rng(33))
        b, _ = w2v_train(sessions, 4, **kw, rng=make_rng(33))
        assert np.array_equal(a.v_in, b.v_in) and np.array_equal(a.v_out, b.v_out)


def reference_w2v(sessions, n_songs, *, d, window, negatives, lr, epochs, rng):
    """The per-pair SGNS loop w2v_train replaced: one draw, one learning
    rate and one loss per pair. Returns (v_in, v_out, loss_history)."""
    items_lists = [items for _, items in table_rows(sessions)]
    v_in = rng.uniform(-0.5 / d, 0.5 / d, size=(n_songs, d))
    v_out = np.zeros((n_songs, d))
    counts = np.zeros(n_songs)
    for items in items_lists:
        np.add.at(counts, items, 1.0)
    weights = counts**0.75
    cum = np.cumsum(weights / weights.sum())
    total_pairs = epochs * sum(_pair_count(len(x), window) for x in items_lists)
    min_lr = lr * 1e-4
    done = 0
    history = []
    for _ in range(epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for items in items_lists:
            length = len(items)
            for c in range(length):
                center = items[c]
                lo = max(c - window, 0)
                hi = min(c + window, length - 1)
                for o_pos in range(lo, hi + 1):
                    if o_pos == c:
                        continue
                    step_lr = max(lr * (1.0 - done / total_pairs), min_lr)
                    done += 1
                    target = items[o_pos]
                    negs = np.searchsorted(cum, rng.random(negatives))
                    np.clip(negs, 0, len(cum) - 1, out=negs)
                    rows = np.concatenate(([target], negs))
                    vc = v_in[center]
                    scores = v_out[rows] @ vc
                    epoch_loss += float(np.logaddexp(0.0, -scores[0])
                                        + np.logaddexp(0.0, scores[1:]).sum())
                    epoch_pairs += 1
                    coef = expit(scores)
                    coef[0] -= 1.0
                    dvc = coef @ v_out[rows]
                    np.add.at(v_out, rows, -step_lr * np.outer(coef, vc))
                    v_in[center] -= step_lr * dvc
        history.append(epoch_loss / max(epoch_pairs, 1))
    return v_in, v_out, history


class TestW2vBlocks:
    @pytest.mark.parametrize("n_songs,window,negatives,block", [(3, 2, 5, 7), (5, 3, 2, 4),
                                                                (4, 1, 5, 1 << 14)])
    def test_minibatch_of_one_matches_the_per_pair_loop(self, monkeypatch, n_songs, window,
                                                        negatives, block):
        # a catalog of 3-5 songs makes most pairs draw a repeated row; a
        # small block makes the pairs, draws and learning rates cross many
        # block boundaries
        gen = make_rng(40)
        sessions = session_table(
            (0, gen.integers(0, n_songs, size=int(gen.integers(0, 9))).tolist()) for _ in range(40))
        kw = dict(d=5, window=window, negatives=negatives, lr=0.05, epochs=3)
        ref_rng, rng = make_rng(41), make_rng(41)
        v_in, v_out, want_history = reference_w2v(sessions, n_songs, **kw, rng=ref_rng)
        monkeypatch.setattr(baselines, "PAIR_BLOCK", block)
        monkeypatch.setattr(baselines, "SGNS_BATCH", 1)
        emb, history = w2v_train(sessions, n_songs, **kw, rng=rng)
        assert np.allclose(history, want_history, rtol=0, atol=1e-12)
        assert np.allclose(emb.v_in, v_in, rtol=0, atol=1e-12)
        assert np.allclose(emb.v_out, v_out, rtol=0, atol=1e-12)
        assert rng.random() == ref_rng.random()

    def test_minibatch_sums_the_updates_of_a_repeated_row(self):
        # one session [0, 1] at window 1 gives two pairs, (0, 1) and (1, 0),
        # and a catalog of two songs makes their rows repeat; both pairs
        # are one minibatch. With v_out at zero every score is 0, so a
        # pair's positive row gains lr/2 * v_in[center], each negative row
        # loses it, and v_in does not move.
        lr = 0.1
        rng = make_rng(43)
        emb, _ = w2v_train(session_table([(0, [0, 1])]), 2, d=3, window=1, negatives=2, lr=lr,
                           epochs=1, rng=rng)
        draws = make_rng(43)
        v_in = draws.uniform(-0.5 / 3, 0.5 / 3, size=(2, 3))
        negs = np.searchsorted([0.5, 1.0], draws.random(4)).reshape(2, 2)  # equal counts
        want = np.zeros((2, 3))
        for (center, context), pair_negs, pair_lr in zip([(0, 1), (1, 0)], negs, [lr, lr / 2]):
            want[context] += pair_lr / 2 * v_in[center]
            for neg in pair_negs:
                want[neg] -= pair_lr / 2 * v_in[center]
        assert baselines._sgns_batch(np.array([0, 1])) == 2
        assert np.array_equal(emb.v_in, v_in)
        assert np.allclose(emb.v_out, want, rtol=0, atol=1e-15)
        assert rng.random() == draws.random()

    def test_minibatch_is_no_wider_than_the_effective_catalog(self):
        assert baselines._sgns_batch(np.array([0, 1, 2] * 5)) == 3
        assert baselines._sgns_batch(np.array([7] * 9)) == 1
        assert baselines._sgns_batch(np.arange(10_000)) == baselines.SGNS_BATCH
        # one song in half of 10k plays: (10k)^2 / (5k^2 + 5k) = 3.9992
        assert baselines._sgns_batch(np.concatenate((np.zeros(5000, int),
                                                     np.arange(1, 5001)))) == 3

    def test_pair_count_matches_the_window_scan(self):
        for length in range(12):
            for window in range(1, 8):
                scan = sum(min(c + window, length - 1) - max(c - window, 0)
                           for c in range(length))
                assert _pair_count(length, window) == scan

    def test_progress_line_per_epoch_carries_its_loss(self, caplog):
        with caplog.at_level(logging.INFO, logger="songrec"):
            _, history = w2v_train(session_table([(0, [0, 1, 2, 1])]), 3, d=4, window=2,
                                   negatives=2, lr=0.025, epochs=3, rng=make_rng(42))
        assert progress_lines(caplog) == [f"w2v epoch {e + 1}/3: loss {loss:.4f}"
                                          for e, loss in enumerate(history)]


class TestW2vRecommend:
    def test_single_song_context_ranks_itself_first(self):
        rng = make_rng(34)
        v = rng.standard_normal((6, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        emb = ItemEmbeddings(v, np.zeros_like(v))
        for s in range(6):
            assert recommend(emb, 0, [s], 1)[0] == s

    def test_matches_brute_force_cosine_sort(self):
        rng = make_rng(35)
        v = rng.standard_normal((10, 5))
        emb = ItemEmbeddings(v, np.zeros_like(v))
        context = [3, 7, 1]
        query = v[context].mean(axis=0)
        cos = v @ query / (np.linalg.norm(v, axis=1) * np.linalg.norm(query))
        want = sorted(range(10), key=lambda i: (-cos[i], i))
        assert recommend(emb, 0, context, 10).tolist() == want

    def test_k_equals_catalog_is_permutation(self):
        v = make_rng(36).standard_normal((7, 3))
        emb = ItemEmbeddings(v, np.zeros_like(v))
        assert sorted(recommend(emb, 0, [2], 7).tolist()) == list(range(7))

    def test_empty_context_error(self):
        emb = ItemEmbeddings(np.eye(3), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            recommend(emb, 0, [], 1)


def random_counts(shape, density, max_count, rng):
    dense = np.where(
        rng.random(shape) < density, rng.integers(1, max_count + 1, size=shape), 0
    ).astype(float)
    return sp.csr_matrix(dense), dense


def dense_objective(dense, x, y, alpha, lam):
    pref = (dense > 0).astype(float)
    conf = 1.0 + alpha * dense
    shat = x @ y.T
    return float(np.sum(conf * (pref - shat) ** 2) + lam * (np.sum(x * x) + np.sum(y * y)))


class TestWmf:
    def test_objective_matches_dense_oracle(self):
        rng = make_rng(40)
        r, dense = random_counts((12, 17), 0.3, 5, rng)
        x = rng.standard_normal((12, 4))
        y = rng.standard_normal((17, 4))
        got = wmf_objective(r, x, y, alpha=40, lam=0.1)
        want = dense_objective(dense, x, y, 40, 0.1)
        assert np.isclose(got, want, rtol=1e-10)

    def test_alpha_zero_uniform_confidence(self):
        # all confidences collapse to 1: plain regularized binary MF
        rng = make_rng(41)
        r, dense = random_counts((8, 9), 0.4, 5, rng)
        x = rng.standard_normal((8, 3))
        y = rng.standard_normal((9, 3))
        got = wmf_objective(r, x, y, alpha=0.0, lam=0.2)
        pref = (dense > 0).astype(float)
        want = float(np.sum((pref - x @ y.T) ** 2) + 0.2 * (np.sum(x * x) + np.sum(y * y)))
        assert np.isclose(got, want, rtol=1e-10)

    def test_objective_monotone_over_half_sweeps(self):
        rng = make_rng(42)
        r, _ = random_counts((20, 30), 0.25, 5, rng)
        _, h = wmf_train(r, f=5, alpha=40, lam=0.1, iters=8, rng=make_rng(43))
        assert len(h) == 17  # init + 16 half-sweeps
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(h, h[1:]))

    def test_progress_line_per_iteration_carries_its_objective(self, caplog):
        r, _ = random_counts((6, 8), 0.4, 5, make_rng(45))
        with caplog.at_level(logging.INFO, logger="songrec"):
            _, h = wmf_train(r, f=2, alpha=40, lam=0.1, iters=3, rng=make_rng(46))
        assert len(h) == 1 + 2 * 3
        assert progress_lines(caplog) == [f"wmf epoch {i + 1}/3: loss {h[2 * i + 2]:.4f}"
                                          for i in range(3)]

    def test_rank_one_reconstruction(self):
        # every user played song 2: observed cells should reconstruct ~1
        dense = np.zeros((6, 5))
        dense[:, 2] = 1.0
        factors, _ = wmf_train(sp.csr_matrix(dense), f=2, alpha=40, lam=1e-3,
                               iters=10, rng=make_rng(44))
        recon = factors.x @ factors.y.T
        assert (recon[:, 2] > 0.9).all()

    def test_negative_counts_rejected(self):
        r = sp.csr_matrix(np.array([[1.0, -2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            wmf_train(r, f=2, alpha=40.0, lam=0.1, iters=15, rng=make_rng(0))

    def test_play_count_matrix(self):
        sessions = session_table([(0, [1, 1, 2]), (1, [2]), (0, [1])])
        r = play_count_matrix(sessions, 2, 4)
        assert r.shape == (2, 4)
        assert r.toarray().tolist() == [[0, 3, 1, 0], [0, 0, 1, 0]]


class TestWmfRecommend:
    def test_k_equals_catalog_is_permutation(self):
        rng = make_rng(45)
        factors = WmfFactors(rng.standard_normal((3, 2)), rng.standard_normal((6, 2)))
        assert sorted(recommend(factors, 1, [0], 6).tolist()) == list(range(6))

    def test_rigged_rank_one_ordering(self):
        x = np.array([[2.0]])
        y = np.array([[0.5], [3.0], [-1.0], [1.0]])
        factors = WmfFactors(x, y)
        # scores: 1, 6, -2, 2 -> order 1, 3, 0, 2
        assert recommend(factors, 0, [0], 4).tolist() == [1, 3, 0, 2]

    def test_equal_scores_prefer_lower_index(self):
        factors = WmfFactors(np.ones((1, 1)), np.ones((4, 1)))
        assert recommend(factors, 0, [0], 2).tolist() == [0, 1]

    def test_unknown_user_error(self):
        factors = WmfFactors(np.ones((2, 1)), np.ones((3, 1)))
        with pytest.raises(IndexError):
            recommend(factors, 5, [0], 1)


class TestFpmcScore:
    def _factors(self, f=1):
        z = lambda *shape: np.zeros(shape)
        return FpmcFactors(z(3, f), z(6, f), z(6, f), z(6, f))

    def test_all_zero_factors_score_zero(self):
        assert self._factors().score_catalog(0, [1])[2] == 0.0

    def test_hand_case(self):
        factors = self._factors()
        factors.v_ui[1, 0] = 2.0
        factors.v_iu[4, 0] = 3.0
        factors.v_il[4, 0] = 1.0
        factors.v_li[2, 0] = -4.0
        assert factors.score_catalog(1, [2])[4] == 2.0  # 2*3 + 1*(-4)

    def test_linear_in_item_preference_factor(self):
        rng = make_rng(50)
        factors = fpmc_init(3, 6, f=4, rng=rng)
        base = factors.score_catalog(1, [2])[4]
        factors.v_iu[4] *= 3.0
        tripled = factors.score_catalog(1, [2])[4]
        transition = float(factors.v_il[4] @ factors.v_li[2])
        assert np.isclose(tripled - transition, 3.0 * (base - transition))

    def test_out_of_range_error(self):
        with pytest.raises(IndexError):
            self._factors().score_catalog(0, [9])[2]


def reference_sbpr_step(factors, u, prev, pos, neg, lr, lam):
    """The per-triple S-BPR ascent step fpmc_sbpr_update replaced; returns
    -log sigma(score_pos - score_neg) before the step."""
    vu = factors.v_ui[u].copy()
    vip, vin = factors.v_iu[pos].copy(), factors.v_iu[neg].copy()
    tip, tin = factors.v_il[pos].copy(), factors.v_il[neg].copy()
    tl = factors.v_li[prev].copy()
    diff = vu @ (vip - vin) + (tip - tin) @ tl
    delta = expit(-diff)
    factors.v_ui[u] += lr * (delta * (vip - vin) - lam * vu)
    factors.v_iu[pos] += lr * (delta * vu - lam * vip)
    factors.v_iu[neg] += lr * (-delta * vu - lam * vin)
    factors.v_il[pos] += lr * (delta * tl - lam * tip)
    factors.v_il[neg] += lr * (-delta * tl - lam * tin)
    factors.v_li[prev] += lr * (delta * (tip - tin) - lam * tl)
    return float(np.logaddexp(0.0, -diff))


def reference_fpmc(examples, n_users, n_songs, *, f, lr, lam, epochs, rng):
    """The per-triple S-BPR loop fpmc_train replaced: one negative draw
    and one step per triple, in a fresh permutation each epoch. Returns
    (factors, loss history)."""
    factors = fpmc_init(n_users, n_songs, f=f, rng=rng)
    history = []
    users, prevs, nexts = (examples.user.tolist(), examples.context[:, 0].tolist(),
                           examples.target.tolist())
    for _ in range(epochs):
        total = 0.0
        for idx in rng.permutation(len(nexts)).tolist():
            neg = int(rng.integers(n_songs))
            while neg == nexts[idx]:
                neg = int(rng.integers(n_songs))
            total += reference_sbpr_step(factors, users[idx], prevs[idx], nexts[idx], neg, lr, lam)
        history.append(total / len(nexts))
    return factors, history


FPMC_BLOCKS = ("v_ui", "v_iu", "v_il", "v_li")


class TestFpmcTrain:
    def test_zero_epochs_returns_initialization(self, caplog):
        examples = extract_examples(session_table([(0, [1, 2, 3]), (1, [2, 3])]), 1)
        with caplog.at_level(logging.INFO, logger="songrec"):
            got, history = fpmc_train(examples, 2, 5, f=3, lr=0.05, lam=0.01, epochs=0,
                                      rng=make_rng(60))
        want = fpmc_init(2, 5, f=3, rng=make_rng(60))
        assert history == []
        for name in FPMC_BLOCKS:
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert progress_lines(caplog) == []

    def test_one_song_catalog_is_refused(self):
        # every competitor drawn from one song equals its positive, so
        # redrawing it could never end
        examples = extract_examples(session_table([(0, [0, 0, 0])]), 1)
        with time_limit(10), pytest.raises(ValueError, match="at least two songs"):
            fpmc_train(examples, 1, 1, f=2, lr=0.05, lam=0.01, epochs=1, rng=make_rng(0))

    def test_minibatch_of_one_matches_the_per_triple_loop(self, monkeypatch):
        # four songs make many negatives equal their positive and be drawn again
        gen = make_rng(56)
        sessions = session_table((int(gen.integers(3)), gen.integers(0, 4, size=6).tolist())
                                 for _ in range(30))
        examples = extract_examples(sessions, 1)
        kw = dict(f=5, lr=0.05, lam=0.01, epochs=3)
        ref_rng, rng = make_rng(57), make_rng(57)
        want, want_history = reference_fpmc(examples, 3, 4, **kw, rng=ref_rng)
        monkeypatch.setattr(baselines, "SBPR_BATCH", 1)
        got, history = fpmc_train(examples, 3, 4, **kw, rng=rng)
        assert np.allclose(history, want_history, rtol=0, atol=1e-12)
        for name in FPMC_BLOCKS:
            assert np.allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12)
        assert rng.random() == ref_rng.random()

    def test_minibatch_sums_the_updates_of_a_repeated_row(self):
        # both triples share the user, previous-song and positive rows;
        # each must move by the sum of the two single-triple steps, both
        # taken from the factors before the minibatch
        rng = make_rng(58)
        start = fpmc_init(2, 6, f=4, rng=rng)
        for name in FPMC_BLOCKS:
            getattr(start, name)[...] = rng.standard_normal(getattr(start, name).shape)
        want = {name: getattr(start, name).copy() for name in FPMC_BLOCKS}
        want_loss = 0.0
        for neg in (3, 5):
            alone = FpmcFactors(*(getattr(start, name).copy() for name in FPMC_BLOCKS))
            want_loss += reference_sbpr_step(alone, 1, 2, 4, neg, 0.1, 0.05)
            for name in FPMC_BLOCKS:
                want[name] += getattr(alone, name) - getattr(start, name)
        loss = fpmc_sbpr_update(start, np.array([1, 1]), np.array([2, 2]), np.array([4, 4]),
                                np.array([3, 5]), 0.1, 0.05)
        assert np.isclose(loss, want_loss, rtol=1e-12)
        for name in FPMC_BLOCKS:
            assert np.allclose(getattr(start, name), want[name], rtol=0, atol=1e-12)

    def test_progress_line_per_epoch_carries_its_loss(self, caplog):
        examples = extract_examples(session_table([(0, [1, 2, 3]), (1, [2, 3])]), 1)
        with caplog.at_level(logging.INFO, logger="songrec"):
            _, history = fpmc_train(examples, 2, 5, f=3, lr=0.05, lam=0.01, epochs=3,
                                    rng=make_rng(59))
        assert progress_lines(caplog) == [f"fpmc epoch {e + 1}/3: loss {loss:.4f}"
                                          for e, loss in enumerate(history)]

    def test_update_increases_score_difference(self):
        # exact ascent on the pairwise objective: for small lr and lam=0
        # the observed item's margin must grow
        rng = make_rng(51)
        for _ in range(100):
            factors = fpmc_init(4, 8, f=5, rng=rng)
            for t in (factors.v_ui, factors.v_iu, factors.v_il, factors.v_li):
                t[...] = rng.standard_normal(t.shape)
            u, prev = int(rng.integers(4)), int(rng.integers(8))
            pos = int(rng.integers(8))
            neg = (pos + 1 + int(rng.integers(7))) % 8
            before = margin(factors, u, prev, pos, neg)
            fpmc_sbpr_update(factors, *(np.array([x]) for x in (u, prev, pos, neg)), 1e-2, 0.0)
            after = margin(factors, u, prev, pos, neg)
            assert after > before

    def test_zero_lr_no_change(self):
        examples = extract_examples(session_table([(0, [1, 2]), (1, [2, 3])]), 1)
        factors, _ = fpmc_train(examples, 2, 5, f=3, lr=0.0, lam=0.0, epochs=3,
                                rng=make_rng(52))
        fresh = fpmc_init(2, 5, f=3, rng=make_rng(52))
        for a, b in zip(
            (factors.v_ui, factors.v_iu, factors.v_il, factors.v_li),
            (fresh.v_ui, fresh.v_iu, fresh.v_il, fresh.v_li),
        ):
            assert np.array_equal(a, b)

    def test_context_length_must_be_one(self):
        with pytest.raises(ValueError):
            fpmc_train(extract_examples(session_table([(0, [1, 2, 3])]), 2), 1, 5, f=32,
                       lr=0.05, lam=0.01, epochs=30, rng=make_rng(0))

    def test_empty_examples_error(self):
        with pytest.raises(ValueError):
            fpmc_train(extract_examples(session_table([]), 1), 1, 5, f=32, lr=0.05, lam=0.01,
                       epochs=30, rng=make_rng(0))


class TestFpmcRecommend:
    def test_k_equals_catalog_is_permutation(self):
        factors = fpmc_init(2, 7, f=3, rng=make_rng(53))
        assert sorted(recommend(factors, 0, [3], 7).tolist()) == list(range(7))

    def test_matches_brute_force_sort(self):
        rng = make_rng(54)
        factors = fpmc_init(3, 8, f=4, rng=rng)
        for t in (factors.v_ui, factors.v_iu, factors.v_il, factors.v_li):
            t[...] = rng.standard_normal(t.shape)
        scores = [float(factors.v_ui[1] @ factors.v_iu[i] + factors.v_il[i] @ factors.v_li[5])
                  for i in range(8)]
        want = sorted(range(8), key=lambda i: (-scores[i], i))
        assert recommend(factors, 1, [5], 8).tolist() == want

    def test_uniform_factors_give_index_order(self):
        factors = FpmcFactors(*(np.ones((n, 2)) for n in (2, 6, 6, 6)))
        assert recommend(factors, 0, [1], 6).tolist() == [0, 1, 2, 3, 4, 5]

    def test_inference_deterministic(self):
        factors = fpmc_init(2, 9, f=3, rng=make_rng(55))
        a = recommend(factors, 1, [4], 9)
        b = recommend(factors, 1, [4], 9)
        assert np.array_equal(a, b)
