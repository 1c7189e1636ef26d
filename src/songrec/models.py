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

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import data
from .core import (
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
    relu,
    relu_backward,
    softmax_inplace,
    softmax_xent_backward,
    softmax_xent_from_probs,
)
from .util import Recommender, check_bounds, checked_tensors, dataclass_from_dict, fit

# the mean loss when every target probability sits at PROB_FLOOR
SATURATED_LOSS = -math.log(PROB_FLOOR)


@dataclass(frozen=True)
class Hyperparams:
    """Architecture and training settings of the neural families, with
    their reference values; ``config.ModelConfig`` extends it."""

    d: int = 60  # embedding dimension (songs and users)
    j: int = 5  # context length (order of the Markov chain)
    h: int = 300  # hidden units
    m: int = 325  # convolution filters
    w: int = 2  # filter width
    stride: int = 1
    epochs: int = 25
    batch: int = 50
    lr: float = 0.01
    dropout: float = 0.7  # drop probability, inverted scaling

    # (setting, comparison, bound): the one table of neural bounds
    BOUNDS: ClassVar = (("d", ">=", 1), ("j", ">=", 1), ("h", ">=", 1), ("m", ">=", 1),
                        ("w", ">=", 1), ("stride", ">=", 1), ("epochs", ">=", 0),
                        ("batch", ">=", 1), ("lr", ">", 0), ("dropout", ">=", 0),
                        ("dropout", "<", 1))

    def __post_init__(self):
        check_bounds(self, self.BOUNDS)
        if self.w > self.j:
            raise ValueError(f"filter width {self.w} exceeds context length {self.j}")

    @property
    def conv_positions(self) -> int:
        """Output positions p of the valid convolution."""
        return (self.j - self.w) // self.stride + 1


class _NeuralParams(Recommender):
    """Shared plumbing for both architectures: embeddings, hidden layer,
    catalog softmax, Adagrad accumulators, checkpoint tensors."""

    # set per model by __init__, in place of Recommender's TENSORS-derived sizes
    n_songs = n_users = None
    # dense weights held (in, out) for affine, drawn and checkpointed (out, in)
    HELD_TRANSPOSED = ("w1", "w2")

    def __init__(self, n_songs, n_users, hyper: Hyperparams, rng=None, dtype=np.float64,
                 tensors=None):
        """Glorot-initialised weights and zero biases, drawn from ``rng``
        in layout order; or, given ``tensors``, those arrays themselves,
        each checked against the layout's shape, and nothing drawn. The
        ``HELD_TRANSPOSED`` weights are then held as a transposed copy.
        ``acc`` holds each tensor's zero Adagrad accumulator by name."""
        if n_songs < 1 or n_users < 1:
            raise ValueError("need at least one song and one user")
        self.n_songs, self.n_users = int(n_songs), int(n_users)
        self.hyper, self.dtype = hyper, np.dtype(dtype)
        layout = self._layout()
        if tensors is None:
            tensors = {name: np.zeros(shape) if fans is None else glorot_init(*fans, rng, shape)
                       for name, (shape, fans) in layout.items()}
        else:
            tensors = checked_tensors(tensors, {name: shape for name, (shape, _) in layout.items()})
        for name, tensor in tensors.items():
            if name in self.HELD_TRANSPOSED:
                tensor = tensor.T
            setattr(self, name, np.ascontiguousarray(tensor, dtype=self.dtype))
        # np.zeros, unlike zeros_like, leaves the zeroing to the first touch
        self.acc = {name: np.zeros(t.shape, t.dtype) for name, t in self.tensors().items()}

    # subclasses define _feature_layout, _feature_forward, _feature_backward

    @property
    def order(self) -> int:
        return self.hyper.j

    def _layout(self) -> dict:
        """name -> (checkpoint shape, Glorot fans or None for a zero bias)
        of every tensor, in initialisation and checkpoint order."""
        hy, n = self.hyper, self.n_songs
        features, feature_len = self._feature_layout()
        return {
            "e_song": ((n, hy.d), (n, hy.d)),
            "e_user": ((self.n_users, hy.d), (self.n_users, hy.d)),
            **features,
            "w1": ((hy.h, feature_len + hy.d), (feature_len + hy.d, hy.h)),
            "b1": ((hy.h,), None),
            "w2": ((n, hy.h), (hy.h, n)),
            "b2": ((n,), None),
        }

    def tensors(self) -> dict:
        return {name: getattr(self, name) for name in self._layout()}

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
        if train and hy.dropout > 0 and rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        s = embed_lookup(contexts, self.e_song)  # (B, j, d)
        uvec = embed_lookup(users, self.e_user)  # (B, d)
        feat, feat_cache = self._feature_forward(s)
        z, widths = concat([feat, uvec])
        h_pre, aff1 = affine(z, self.w1, self.b1)
        a1, relu_mask = relu(h_pre)
        a1d, drop = dropout(a1, hy.dropout, rng, train)
        logits, aff2 = affine(a1d, self.w2, self.b2)
        probs = softmax_inplace(logits)
        cache = (users, contexts, feat_cache, widths, aff1, relu_mask, drop, aff2)
        return probs, cache

    def backward_batch(self, probs, targets, cache):
        """Gradients of the batch-mean cross-entropy w.r.t. every tensor.

        Embedding gradients come back sparse as (rows, row_grads) pairs.
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

        return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, **feat_grads,
                "e_song": (contexts.reshape(-1), ds.reshape(-1, self.hyper.d)),
                "e_user": (np.asarray(users), duvec)}

    def score_batch(self, users, contexts) -> np.ndarray:
        """Next-song probabilities, dropout off."""
        return self.forward_batch(users, contexts)[0]

    def to_checkpoint(self):
        """The ten settings, ``dropout`` under ``dropout_p`` and ``w`` as
        ``min(w, j)``: a config lets ``w`` exceed ``j`` for nnrec. The
        ``HELD_TRANSPOSED`` weights go out (out, in), as views."""
        hy = self.hyper
        hyper = {f.name: getattr(hy, f.name) for f in fields(Hyperparams)}
        hyper.update(dropout_p=hyper.pop("dropout"), w=min(hy.w, hy.j))
        meta = {"n_songs": self.n_songs, "n_users": self.n_users, "dtype": self.dtype.name,
                "hyper": hyper}
        tensors = {name: t.T if name in self.HELD_TRANSPOSED else t
                   for name, t in self.tensors().items()}
        return self.model_type, meta, tensors

    @classmethod
    def from_checkpoint(cls, meta, tensors):
        """``KeyError`` unless ``hyper`` holds exactly the ten settings, as no
        default may fill one in; a value of the wrong type is malformed."""
        stored = meta["hyper"]
        keys = {"dropout_p" if f.name == "dropout" else f.name: f.name for f in fields(Hyperparams)}
        if set(stored) != set(keys):
            raise KeyError(f"hyper keys {sorted(stored)} != {sorted(keys)}")
        hyper = dataclass_from_dict(Hyperparams, {name: stored[key] for key, name in keys.items()},
                                    "malformed checkpoint header: hyper")
        return cls(meta["n_songs"], meta["n_users"], hyper, dtype=meta["dtype"], tensors=tensors)


class CnnRecParams(_NeuralParams):
    """Convolutional variant: width-w filters (with ReLU, no pooling) over
    the stacked song embeddings; the flattened feature map is
    concatenated with the user embedding.

    Flatten order is position-major, filter-minor: output row t of the
    feature map is laid out before row t+1. Any consistent order would
    do mathematically; this one is fixed so checkpoints stay portable.
    """

    model_type = "cnnrec"

    def _feature_layout(self):
        hy = self.hyper
        filters = {"filters": ((hy.m, hy.w, hy.d), (hy.w * hy.d, hy.m)), "conv_b": ((hy.m,), None)}
        return filters, hy.conv_positions * hy.m

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

    def _feature_layout(self):
        return {}, self.hyper.j * self.hyper.d

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
    losses = softmax_xent_from_probs(probs, targets)
    grads = params.backward_batch(probs, targets, cache)
    tensors, lr = params.tensors(), params.hyper.lr
    for name, g in grads.items():
        if isinstance(g, tuple):
            rows, row_grads = g
            adagrad_step_rows(tensors[name], rows, row_grads, params.acc[name], lr)
        else:
            adagrad_step(tensors[name], g, params.acc[name], lr)
    return float(np.mean(losses))


def train(examples, params: _NeuralParams, rng) -> list[float]:
    """Reshuffle each epoch, take minibatch steps; returns per-epoch mean
    loss, one entry per epoch.

    ``examples`` is the record array of :func:`songrec.data.extract_examples`.
    Chance is log(n_songs), a uniform guess over the catalog, and
    training saturates at -log(PROB_FLOOR).
    """
    users, contexts, targets = data.examples_to_arrays(examples)
    hy = params.hyper
    n = len(targets)

    def epoch():
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hy.batch):
            sel = perm[start : start + hy.batch]
            loss = train_step((users[sel], contexts[sel], targets[sel]), params, rng)
            total += loss * len(sel)
        return [total / n]

    return fit(params, hy.epochs, epoch, n, "examples",
               chance=("log(n_songs)", math.log(params.n_songs)),
               ceiling=("-log(PROB_FLOOR)", SATURATED_LOSS))
