"""The two neural next-song recommenders.

Both embed the user and the last j songs; the convolutional variant runs
width-w filters over the stacked song embeddings before the hidden
layer, the plain variant concatenates the embeddings directly. One ReLU
hidden layer (with dropout after it during training) feeds a softmax
over the whole song catalog. Trained with minibatch cross-entropy and
per-parameter Adagrad; batch gradients use mean (not sum) semantics so
the learning rate keeps its meaning across batch sizes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    PROB_FLOOR,
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
    relu,
    relu_backward,
    softmax_inplace,
    softmax_xent_backward,
)
from .util import Recommender, make_rng

logger = logging.getLogger(__name__)

# the mean loss when every target probability sits at PROB_FLOOR
SATURATED_LOSS = -math.log(PROB_FLOOR)


@dataclass(frozen=True)
class Hyperparams:
    """Architecture and training settings, default values used throughout."""

    d: int = 60  # embedding dimension (songs and users)
    j: int = 5  # context length (order of the Markov chain)
    h: int = 300  # hidden units
    m: int = 325  # convolution filters
    w: int = 2  # filter width
    stride: int = 1
    epochs: int = 25
    batch: int = 50
    lr: float = 0.01
    dropout_p: float = 0.7  # drop probability, inverted scaling

    def __post_init__(self):
        for name in ("d", "j", "h", "m", "w", "stride", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.w > self.j:
            raise ValueError(f"filter width {self.w} exceeds context length {self.j}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")

    @property
    def conv_positions(self) -> int:
        """Output positions p of the valid convolution."""
        return (self.j - self.w) // self.stride + 1

    def with_order(self, j: int) -> "Hyperparams":
        return replace(self, j=j)


class _NeuralParams(Recommender):
    """Shared plumbing for both architectures: embeddings, hidden layer,
    catalog softmax, Adagrad state, checkpoint tensors."""

    def __init__(self, n_songs, n_users, hyper: Hyperparams, rng=None, dtype=np.float64):
        if n_songs < 1 or n_users < 1:
            raise ValueError("need at least one song and one user")
        if rng is None:
            rng = make_rng(0)
        self.n_songs = int(n_songs)
        self.n_users = int(n_users)
        self.hyper = hyper
        self.dtype = np.dtype(dtype)
        self._init_tensors(rng)
        self.states = {
            name: AdagradState.for_param(t, lr=hyper.lr)
            for name, t in self.tensors().items()
        }

    # subclasses define _init_tensors, tensors, _feature_forward, _feature_backward

    @property
    def order(self) -> int:
        return self.hyper.j

    def _glorot(self, fan_in, fan_out, rng, shape=None):
        return glorot_init(fan_in, fan_out, rng, shape).astype(self.dtype)

    def _init_common(self, rng, feature_len):
        hy = self.hyper
        self.e_song = self._glorot(self.n_songs, hy.d, rng, (self.n_songs, hy.d))
        self.e_user = self._glorot(self.n_users, hy.d, rng, (self.n_users, hy.d))
        self._init_feature(rng)
        self.w1 = self._glorot(feature_len + hy.d, hy.h, rng)
        self.b1 = np.zeros(hy.h, dtype=self.dtype)
        self.w2 = self._glorot(hy.h, self.n_songs, rng)
        self.b2 = np.zeros(self.n_songs, dtype=self.dtype)

    def _init_feature(self, rng):
        pass

    def forward_batch(self, users, contexts, train: bool = False, rng=None):
        """Probabilities over the catalog for a batch; returns (probs, cache).

        ``contexts`` is (B, j) oldest first. Dropout draws from ``rng``
        when ``train`` is set.
        """
        hy = self.hyper
        users = np.asarray(users)
        contexts = np.asarray(contexts)
        if contexts.ndim != 2 or contexts.shape[1] != hy.j:
            raise ValueError(f"contexts must be (B, {hy.j}), got {contexts.shape}")
        if train and hy.dropout_p > 0 and rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        s = embed_lookup(contexts, self.e_song)  # (B, j, d)
        uvec = embed_lookup(users, self.e_user)  # (B, d)
        feat, feat_cache = self._feature_forward(s)
        z, widths = concat([feat, uvec])
        h_pre, aff1 = affine(z, self.w1, self.b1)
        a1, relu_mask = relu(h_pre)
        a1d, drop = dropout(a1, hy.dropout_p, rng, train)
        logits, aff2 = affine(a1d, self.w2, self.b2)
        probs = softmax_inplace(logits)
        cache = (users, contexts, feat_cache, widths, aff1, relu_mask, drop, aff2)
        return probs, cache

    def backward_batch(self, probs, targets, cache, dense_embed_grads=False):
        """Gradients of the batch-mean cross-entropy w.r.t. every tensor.

        Embedding gradients come back sparse as (rows, row_grads) pairs
        unless ``dense_embed_grads`` is set (used by gradient checking).
        """
        users, contexts, feat_cache, widths, aff1, relu_mask, drop, aff2 = cache
        b = probs.shape[0]
        dlogits = softmax_xent_backward(probs, targets)
        dlogits /= b
        da1d, dw2, db2 = affine_backward(dlogits, aff2)
        da1 = dropout_backward(da1d, drop)
        dh = relu_backward(da1, relu_mask)
        dz, dw1, db1 = affine_backward(dh, aff1)
        dfeat, duvec = concat_backward(dz, widths)
        ds, feat_grads = self._feature_backward(dfeat, feat_cache)

        grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, **feat_grads}
        song_rows = contexts.reshape(-1)
        song_grads = ds.reshape(-1, self.hyper.d)
        if dense_embed_grads:
            de_song = np.zeros_like(self.e_song)
            np.add.at(de_song, song_rows, song_grads)
            de_user = np.zeros_like(self.e_user)
            np.add.at(de_user, np.asarray(users), duvec)
            grads["e_song"] = de_song
            grads["e_user"] = de_user
        else:
            grads["e_song"] = (song_rows, song_grads)
            grads["e_user"] = (np.asarray(users), duvec)
        return grads

    def loss_and_grads(self, users, contexts, targets, dense_embed_grads=True):
        """Mean loss plus full gradients, dropout off (for gradient checks)."""
        probs, cache = self.forward_batch(users, contexts, train=False)
        _, losses = softmax_xent_from_probs(probs, targets)
        grads = self.backward_batch(probs, targets, cache, dense_embed_grads)
        return float(np.mean(losses)), grads

    def score_batch(self, users, contexts) -> np.ndarray:
        """Next-song probabilities, dropout off."""
        return self.forward_batch(users, contexts)[0]

    def tensor_names(self):
        return list(self.tensors())

    def to_checkpoint(self):
        meta = {
            "n_songs": self.n_songs,
            "n_users": self.n_users,
            "dtype": self.dtype.name,
            "hyper": self.hyper.__dict__.copy(),
        }
        return self.model_type, meta, self.tensors()

    @classmethod
    def from_checkpoint(cls, meta, tensors):
        hyper = Hyperparams(**meta["hyper"])
        obj = cls(meta["n_songs"], meta["n_users"], hyper, dtype=np.dtype(meta["dtype"]))
        for name, arr in tensors.items():
            own = obj.tensors()[name]
            if own.shape != arr.shape:
                raise ValueError(f"tensor {name}: shape {arr.shape} != {own.shape}")
            own[...] = arr
        return obj


def softmax_xent_from_probs(probs, targets):
    picked = probs[np.arange(probs.shape[0]), np.asarray(targets)]
    return probs, -np.log(np.maximum(picked, PROB_FLOOR))


class CnnRecParams(_NeuralParams):
    """Convolutional variant: width-w filters (with ReLU, no pooling) over
    the stacked song embeddings; the flattened feature map is
    concatenated with the user embedding.

    Flatten order is position-major, filter-minor: output row t of the
    feature map is laid out before row t+1. Any consistent order would
    do mathematically; this one is fixed so checkpoints stay portable.
    """

    model_type = "cnnrec"

    def _init_tensors(self, rng):
        hy = self.hyper
        self._init_common(rng, feature_len=hy.conv_positions * hy.m)

    def _init_feature(self, rng):
        hy = self.hyper
        self.filters = self._glorot(hy.w * hy.d, hy.m, rng, (hy.m, hy.w, hy.d))
        self.conv_b = np.zeros(hy.m, dtype=self.dtype)

    def tensors(self):
        return {
            "e_song": self.e_song,
            "e_user": self.e_user,
            "filters": self.filters,
            "conv_b": self.conv_b,
            "w1": self.w1,
            "b1": self.b1,
            "w2": self.w2,
            "b2": self.b2,
        }

    def _feature_forward(self, s):
        out, cache = conv1d(s, self.filters, self.conv_b, self.hyper.stride)
        b = s.shape[0]
        return out.reshape(b, -1), cache

    def _feature_backward(self, dfeat, cache):
        hy = self.hyper
        g = dfeat.reshape(dfeat.shape[0], hy.conv_positions, hy.m)
        ds, df, db = conv1d_backward(g, cache)
        return ds, {"filters": df, "conv_b": db}


class NnRecParams(_NeuralParams):
    """Plain variant: the j song embeddings are concatenated directly."""

    model_type = "nnrec"

    def _init_tensors(self, rng):
        hy = self.hyper
        self._init_common(rng, feature_len=hy.j * hy.d)

    def tensors(self):
        return {
            "e_song": self.e_song,
            "e_user": self.e_user,
            "w1": self.w1,
            "b1": self.b1,
            "w2": self.w2,
            "b2": self.b2,
        }

    def _feature_forward(self, s):
        b = s.shape[0]
        return s.reshape(b, -1), s.shape

    def _feature_backward(self, dfeat, s_shape):
        return dfeat.reshape(s_shape), {}


def train_step(batch, params: _NeuralParams, rng) -> float:
    """One minibatch update; returns the pre-update mean loss.

    ``batch`` is (users, contexts, targets) arrays. Dense layers get
    dense Adagrad steps; embedding tables are updated sparsely on the
    rows the batch touched.
    """
    users, contexts, targets = batch
    if len(targets) == 0:
        raise ValueError("empty batch")
    probs, cache = params.forward_batch(users, contexts, train=True, rng=rng)
    _, losses = softmax_xent_from_probs(probs, targets)
    grads = params.backward_batch(probs, targets, cache)
    tensors = params.tensors()
    for name, g in grads.items():
        if isinstance(g, tuple):
            rows, row_grads = g
            adagrad_step_rows(tensors[name], rows, row_grads, params.states[name])
        else:
            adagrad_step(tensors[name], g, params.states[name])
    return float(np.mean(losses))


def _check_epoch(params: _NeuralParams, epoch: int, loss: float) -> None:
    """Stop on a non-finite loss or tensor; warn on a saturated loss."""
    bad = [name for name, t in params.tensors().items() if not np.isfinite(t).all()]
    if bad or not math.isfinite(loss):
        raise ValueError(
            f"training diverged in epoch {epoch + 1}: loss {loss!r}, "
            f"non-finite tensors: {', '.join(bad) or 'none'}"
        )
    if abs(loss - SATURATED_LOSS) <= 0.01 * SATURATED_LOSS:
        logger.warning(
            "epoch %d loss %.4f is within 1%% of -log(PROB_FLOOR) = %.2f: target "
            "probabilities sit at the floor; is the learning rate too high?",
            epoch + 1, loss, SATURATED_LOSS,
        )


def train(examples, params: _NeuralParams, rng, callbacks=None) -> list[float]:
    """Epoch loop: reshuffle each epoch, minibatch steps, loss history.

    ``examples`` is a list of training examples or a premade
    (users, contexts, targets) array triple. Returns per-epoch mean loss,
    one entry per epoch. After each epoch a non-finite loss or tensor
    raises ``ValueError`` and a loss at -log(PROB_FLOOR) logs a warning;
    then optional callbacks run as callback(epoch, params, epoch_loss).
    """
    from .data import examples_to_arrays

    if isinstance(examples, tuple):
        users, contexts, targets = examples
    else:
        users, contexts, targets = examples_to_arrays(examples)
    hy = params.hyper
    n = len(targets)
    history: list[float] = []
    for epoch in range(hy.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hy.batch):
            sel = perm[start : start + hy.batch]
            loss = train_step((users[sel], contexts[sel], targets[sel]), params, rng)
            total += loss * len(sel)
        epoch_loss = total / n
        history.append(epoch_loss)
        _check_epoch(params, epoch, epoch_loss)
        for cb in callbacks or ():
            cb(epoch, params, epoch_loss)
    return history
