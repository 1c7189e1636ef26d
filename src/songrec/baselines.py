"""The three non-neural-pipeline comparison recommenders.

* skip-gram item embeddings with negative sampling, trained on sessions
  as sentences (sequential signal only),
* weighted matrix factorization of play counts by alternating least
  squares (general-preference signal only),
* a factorized first-order Markov chain trained with sequential pairwise
  ranking (both signals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .core import embed_lookup, scatter_add_rows
from .util import Recommender, fit


def _session_items(sessions):
    # perfbench/spans.py counts the w2v pairs through this name
    return np.split(sessions.items, sessions.offsets[1:-1])


# ---------------------------------------------------------------------------
# Skip-gram with negative sampling
# ---------------------------------------------------------------------------


@dataclass
class ItemEmbeddings(Recommender):
    """Center (v_in) and context (v_out) vectors per song."""

    model_type = "w2v"
    TENSORS = {"v_in": ("n_songs", "d"), "v_out": ("n_songs", "d")}

    v_in: np.ndarray
    v_out: np.ndarray

    def score_batch(self, users, contexts) -> np.ndarray:
        """Cosine of every song's center vector to the mean context vector.

        The users are ignored: this model carries no per-user state.
        """
        contexts = np.asarray(contexts)
        if contexts.ndim != 2 or contexts.shape[1] == 0:
            raise ValueError(f"contexts must be (B, L) with L >= 1, got {contexts.shape}")
        query = embed_lookup(contexts, self.v_in).mean(axis=1)
        qn = np.linalg.norm(query, axis=1)
        norms = np.linalg.norm(self.v_in, axis=1)
        scores = query @ self.v_in.T
        # the same operations as (query @ v_in.T) / max(qn * norms, 1e-12),
        # holding two (B, N) arrays instead of four
        denom = np.multiply(qn[:, None], norms, out=np.empty_like(scores))
        np.maximum(denom, 1e-12, out=denom)
        scores /= denom
        return scores


def _sgns_losses(scores: np.ndarray) -> np.ndarray:
    """Negative-sampling loss of each score row (positive, negatives...)."""
    # -log sigmoid(x) == logaddexp(0, -x), stable for any x
    return np.logaddexp(0.0, -scores[..., 0]) + np.logaddexp(0.0, scores[..., 1:]).sum(axis=-1)


def _noise_cumdist(items: np.ndarray, n_songs: int) -> np.ndarray:
    counts = np.bincount(items, minlength=n_songs).astype(float)
    if len(counts) > n_songs:
        raise IndexError(f"song index {len(counts) - 1} is outside a catalog of {n_songs}")
    weights = counts**0.75
    total = weights.sum()
    if total <= 0:
        raise ValueError("empty sessions: nothing to sample negatives from")
    return np.cumsum(weights / total)


def _pair_count(lengths, window: int):
    """(center, context) pairs of sessions of ``lengths`` songs (an array or
    an int): each of the ``reach`` distances k in 1..min(window, length - 1)
    gives length - k pairs in each direction; reach -1 (no song) gives none."""
    reach = np.minimum(lengths - 1, window)
    return reach * (2 * lengths - reach - 1)


PAIR_BLOCK = 1 << 14  # (center, context) pairs per block in w2v_train
# most pairs per minibatch in w2v_train: larger minibatches run no faster
# per pair, and 1024 pairs on criterion 7's 50 songs leave almost no gap
SGNS_BATCH = 256


def _sgns_batch(items: np.ndarray) -> int:
    """Pairs per w2v minibatch: ``SGNS_BATCH``, or fewer when the plays
    ``items`` concentrate on few songs: at most their effective number of
    songs, (sum of counts)^2 / (sum of squared counts). A minibatch takes
    every gradient at the same vectors, so a song that many of its pairs
    touch moves by their summed step; on three songs, 256-pair minibatches
    diverge."""
    counts = np.bincount(items).astype(float)
    return max(1, min(SGNS_BATCH, int(counts.sum() ** 2 / (counts**2).sum())))


def _pair_blocks(items: np.ndarray, offsets: np.ndarray, window: int):
    """Yield (centers, contexts) song arrays of the sessions at ``offsets``
    in ``items``, in (session, position, offset) order, in blocks of at
    most max(PAIR_BLOCK, 2 * window) pairs."""
    starts, ends = offsets[:-1], offsets[1:]
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    step = max(PAIR_BLOCK // (2 * window), 1)
    for lo in range(0, len(items), step):
        pos = np.arange(lo, min(lo + step, len(items)))
        session = np.searchsorted(ends, pos, side="right")
        grid = pos[:, None] + offsets
        keep = (grid >= starts[session, None]) & (grid < ends[session, None])
        if keep.any():
            yield items[np.repeat(pos, keep.sum(axis=1))], items[grid[keep]]


def w2v_train(
    sessions,
    n_songs: int,
    *,
    d: int,
    window: int,
    negatives: int,
    lr: float,
    epochs: int,
    rng: np.random.Generator,
) -> tuple[ItemEmbeddings, list[float]]:
    """Skip-gram with negative sampling over sessions-as-sentences.

    For every (center, context) pair within the window the positive term
    log sigma(v_c . v'_o) and ``negatives`` noise terms log sigma(-v_c . v'_n)
    are ascended by SGD; negatives are drawn from the unigram^0.75
    distribution of the training sessions. The learning rate decays
    linearly over all scheduled pairs down to a floor of lr * 1e-4.
    Pairs, negatives, learning rates and losses are built in blocks of
    pairs in (session, position, offset) order; each block is then
    updated in minibatches of :func:`_sgns_batch` pairs, whose gradients
    are all taken at the vectors as they stood before that minibatch and
    added up where pairs share a row.

    Center vectors start uniform in [-0.5/d, 0.5/d), context vectors at
    zero; epochs=0 returns that initialization untouched. Chance is
    (1 + negatives) ln 2: every pair scores 0 at zero context vectors.
    ``ValueError`` if the sessions hold no pair within the window.
    Returns (embeddings, per-epoch mean pair loss).
    """
    items = sessions.items
    if not len(items):
        raise ValueError("empty sessions")

    v_in = rng.uniform(-0.5 / d, 0.5 / d, size=(n_songs, d))
    v_out = np.zeros((n_songs, d))
    emb = ItemEmbeddings(v_in, v_out)
    cum = _noise_cumdist(items, n_songs)
    batch_pairs = _sgns_batch(items)
    epoch_pairs = int(_pair_count(sessions.lengths, window).sum())
    if not epoch_pairs:
        raise ValueError(f"w2v: the sessions hold no (center, context) pair within window {window}")
    total_pairs = epochs * epoch_pairs
    min_lr = lr * 1e-4
    done = 0

    def epoch():
        nonlocal done
        epoch_loss = 0.0
        for centers, contexts in _pair_blocks(items, sessions.offsets, window):
            b = len(centers)
            negs = np.searchsorted(cum, rng.random(b * negatives)).reshape(b, negatives)
            np.clip(negs, 0, len(cum) - 1, out=negs)
            rows = np.column_stack((contexts, negs))
            step_lrs = np.maximum(lr * (1.0 - np.arange(done, done + b) / total_pairs), min_lr)
            done += b
            scores = np.empty(rows.shape)
            for lo in range(0, b, batch_pairs):
                batch = slice(lo, lo + batch_pairs)
                vc = v_in[centers[batch]]
                vecs = v_out[rows[batch]]
                batch_scores = np.einsum("bd,bkd->bk", vc, vecs, out=scores[batch])
                coef = expit(batch_scores)
                coef[:, 0] -= 1.0  # positive label
                coef *= -step_lrs[batch, None]
                scatter_add_rows(v_out, rows[batch].ravel(), coef[:, :, None] * vc[:, None, :])
                scatter_add_rows(v_in, centers[batch], np.einsum("bk,bkd->bd", coef, vecs))
            for loss in _sgns_losses(scores).tolist():  # summed in pair order
                epoch_loss += loss
        return [epoch_loss / epoch_pairs]

    return emb, fit(emb, epochs, epoch, epoch_pairs, "pairs",
                    chance=("(1 + negatives) ln 2", (1 + negatives) * math.log(2)))


# ---------------------------------------------------------------------------
# Weighted matrix factorization (implicit feedback, ALS)
# ---------------------------------------------------------------------------


@dataclass
class WmfFactors(Recommender):
    """User/item factors of the confidence-weighted binary factorization."""

    model_type = "wmf"
    TENSORS = {"x": ("n_users", "f"), "y": ("n_songs", "f")}

    x: np.ndarray
    y: np.ndarray

    def score_batch(self, users, contexts) -> np.ndarray:
        """Predicted preference of each user for every song; the sequence
        contexts are deliberately ignored."""
        return embed_lookup(users, self.x) @ self.y.T


def play_count_matrix(sessions, n_users: int, n_songs: int) -> sp.csr_matrix:
    """(user, song) play counts aggregated over the whole training split."""
    return sp.csr_matrix((np.ones(len(sessions.items)), (sessions.item_users(), sessions.items)),
                         shape=(n_users, n_songs))


OBJECTIVE_CHUNK = 4096  # observed cells per gather in wmf_objective


def wmf_objective(r: sp.spmatrix, x: np.ndarray, y: np.ndarray, alpha: float, lam: float) -> float:
    """Exact weighted objective over ALL user-item cells.

    sum_{u,i} c_ui (p_ui - x_u . y_i)^2 + lam (|X|^2 + |Y|^2), with
    p = 1 at observed cells, c = 1 + alpha * count. The all-cells term
    is tr((X^T X)(Y^T Y)) plus observed-cell corrections, so no dense
    U x N matrix is formed.
    """
    coo = sp.coo_matrix(r)
    # the (nnz, f) gathers go chunk by chunk, so the transient stays small
    shat = np.empty(coo.nnz, dtype=np.result_type(x, y))
    for lo in range(0, coo.nnz, OBJECTIVE_CHUNK):
        hi = lo + OBJECTIVE_CHUNK
        shat[lo:hi] = np.einsum("ij,ij->i", x[coo.row[lo:hi]], y[coo.col[lo:hi]])
    conf = 1.0 + alpha * coo.data
    full = np.trace((x.T @ x) @ (y.T @ y))
    corr = np.sum(conf * (1.0 - shat) ** 2 - shat**2)
    reg = lam * (np.sum(x * x) + np.sum(y * y))
    return float(full + corr + reg)


def _als_half_sweep(r_csr: sp.csr_matrix, this: np.ndarray, other: np.ndarray, alpha: float, lam: float):
    """Solve the exact f x f normal equations for every row of ``this``
    with ``other`` frozen."""
    f = other.shape[1]
    gram = other.T @ other + lam * np.eye(f)
    for i in range(this.shape[0]):
        lo, hi = r_csr.indptr[i], r_csr.indptr[i + 1]
        idx = r_csr.indices[lo:hi]
        if idx.size == 0:
            this[i] = 0.0  # unconstrained row: regularizer alone wins
            continue
        counts = r_csr.data[lo:hi]
        m = other[idx]
        a = gram + (m.T * (alpha * counts)) @ m
        rhs = m.T @ (1.0 + alpha * counts)
        try:
            this[i] = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"wmf: row {i}: {exc} at alpha = {alpha!r}, lam = {lam!r}") from None


def wmf_train(
    r: sp.spmatrix,
    *,
    f: int,
    alpha: float,
    lam: float,
    iters: int,
    rng: np.random.Generator,
) -> tuple[WmfFactors, list[float]]:
    """Alternating least squares on the confidence-weighted objective.

    Each half-sweep solves every user's (then every item's) regularized
    normal equations exactly, so the objective never increases. The
    exact objective is recorded at initialization and after every
    half-sweep; an iteration (both half-sweeps) is one epoch, whose loss
    is the objective after it. Returns (factors, the 1 + 2 * iters
    recorded objectives).
    """
    r_csr = sp.csr_matrix(r)
    if r_csr.nnz and r_csr.data.min() < 0:
        raise ValueError("count matrix must be non-negative")
    rt_csr = sp.csr_matrix(r.T)
    n_users, n_songs = r_csr.shape
    x = 0.01 * rng.standard_normal((n_users, f))
    y = 0.01 * rng.standard_normal((n_songs, f))
    factors = WmfFactors(x, y)
    initial = wmf_objective(r_csr, x, y, alpha, lam)

    def iteration():
        _als_half_sweep(r_csr, x, y, alpha, lam)
        after_users = wmf_objective(r_csr, x, y, alpha, lam)
        _als_half_sweep(rt_csr, y, x, alpha, lam)
        return [after_users, wmf_objective(r_csr, x, y, alpha, lam)]

    # an iteration solves every user's and every song's row once
    return factors, [initial, *fit(factors, iters, iteration, n_users + n_songs, "rows")]


# ---------------------------------------------------------------------------
# Factorized first-order Markov chain with pairwise ranking
# ---------------------------------------------------------------------------


@dataclass
class FpmcFactors(Recommender):
    """Four factor blocks: user<->item preference (v_ui, v_iu) and
    previous-item -> item transition (v_li, v_il); all share rank f."""

    model_type = "fpmc"
    order = 1
    TENSORS = {"v_ui": ("n_users", "f"), "v_iu": ("n_songs", "f"),
               "v_il": ("n_songs", "f"), "v_li": ("n_songs", "f")}

    v_ui: np.ndarray  # user side of user-item term
    v_iu: np.ndarray  # item side of user-item term
    v_il: np.ndarray  # item side of transition term
    v_li: np.ndarray  # previous-item side of transition term

    def score_batch(self, users, contexts) -> np.ndarray:
        """Scores for every candidate next song given the last played one."""
        prev = np.asarray(contexts)[:, -1]
        scores = embed_lookup(users, self.v_ui) @ self.v_iu.T
        scores += embed_lookup(prev, self.v_li) @ self.v_il.T
        return scores


def fpmc_init(n_users: int, n_songs: int, *, f: int, rng: np.random.Generator) -> FpmcFactors:
    """Every block drawn from N(0, 0.01^2), in declaration order."""
    dims = {"n_users": n_users, "n_songs": n_songs, "f": f}
    blocks = {name: 0.01 * rng.standard_normal(tuple(dims[key] for key in keys))
              for name, keys in FpmcFactors.TENSORS.items()}
    return FpmcFactors(**blocks)


SBPR_BATCH = 128  # (user, previous, next) triples per minibatch in fpmc_train


def fpmc_sbpr_update(factors: FpmcFactors, users: np.ndarray, prevs: np.ndarray,
                     pos: np.ndarray, neg: np.ndarray, lr: float, lam: float) -> float:
    """One pairwise-ranking ascent step, at learning rate ``lr`` and L2
    weight ``lam``, on each (pos over neg) triple of a minibatch. Every
    gradient is taken at the factors as they stood before the minibatch,
    and the steps of triples that share a row add up.

    Returns the summed -log sigma(score_pos - score_neg) before the update.
    """
    vu = factors.v_ui[users]
    vip, vin = factors.v_iu[pos], factors.v_iu[neg]
    tip, tin = factors.v_il[pos], factors.v_il[neg]
    tl = factors.v_li[prevs]
    dv, dt = vip - vin, tip - tin
    diff = np.einsum("bf,bf->b", vu, dv) + np.einsum("bf,bf->b", dt, tl)
    delta = expit(-diff)[:, None]  # 1 - sigma(diff)
    scatter_add_rows(factors.v_ui, users, lr * (delta * dv - lam * vu))
    scatter_add_rows(factors.v_iu, pos, lr * (delta * vu - lam * vip))
    scatter_add_rows(factors.v_iu, neg, lr * (-delta * vu - lam * vin))
    scatter_add_rows(factors.v_il, pos, lr * (delta * tl - lam * tip))
    scatter_add_rows(factors.v_il, neg, lr * (-delta * tl - lam * tin))
    scatter_add_rows(factors.v_li, prevs, lr * (delta * dt - lam * tl))
    return float(np.logaddexp(0.0, -diff).sum())


def fpmc_train(
    examples,
    n_users: int,
    n_songs: int,
    *,
    f: int,
    lr: float,
    lam: float,
    epochs: int,
    rng: np.random.Generator,
) -> tuple[FpmcFactors, list[float]]:
    """Sequential pairwise-ranking SGD over (user, previous song, next song)
    triples; the non-observed competitor is sampled uniformly per triple.

    Each epoch walks a fresh permutation of the triples in minibatches of
    ``SBPR_BATCH``, one :func:`fpmc_sbpr_update` each. ``examples`` is the
    record array of :func:`songrec.data.extract_examples` at context
    length exactly 1 (first-order model), over two songs or more. Chance
    is ln 2: every triple's loss when all scores are equal. Returns
    (factors, per-epoch mean triple loss).
    """
    if len(examples) == 0:
        raise ValueError("no training examples")
    if n_songs < 2:
        raise ValueError(f"fpmc needs at least two songs to draw a competitor, got {n_songs}")
    if examples.context.shape[1] != 1:
        raise ValueError("first-order model needs context length 1")
    users, prevs, nexts = examples.user, examples.context[:, 0], examples.target
    factors = fpmc_init(n_users, n_songs, f=f, rng=rng)
    n = len(nexts)

    def epoch():
        total = 0.0
        order = rng.permutation(n)
        for lo in range(0, n, SBPR_BATCH):
            batch = order[lo:lo + SBPR_BATCH]
            pos = nexts[batch]
            neg = rng.integers(n_songs, size=len(batch))
            while (same := np.flatnonzero(neg == pos)).size:
                neg[same] = rng.integers(n_songs, size=same.size)
            total += fpmc_sbpr_update(factors, users[batch], prevs[batch], pos, neg, lr, lam)
        return [total / n]

    return factors, fit(factors, epochs, epoch, n, "triples", chance=("ln 2", math.log(2)))
