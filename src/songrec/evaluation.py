"""Top-N evaluation: recall@k / precision@k curves.

Each test case has exactly one relevant item (the actually-played next
song), so precision@k = recall@k / k by definition. Ranking uses the
repository-wide tie rule (score descending, index ascending), making
every rank total and reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .data import SessionTable, _user_song_keys, examples_to_arrays
from .util import atomic_write_text, check_bounds, config_hash, derive_seed, make_rng

DEFAULT_KS = (1, 5, 10, 20, 50, 100, 150, 200, 500)

PROTOCOLS = ("full", "sampled")

# most score cells (examples x catalog) one evaluation chunk holds: one
# float64 score matrix of 4 MiB (two while w2v or fpmc builds it), and
# only one chunk is alive at a time, whatever the test set or catalog size.
# Part of a report's identity: the chunk's row count picks the BLAS kernel,
# whose last bits can break a near-tie, so a change to this constant must
# show the golden reports and the benchmark reports unchanged
CHUNK_CELLS = 2**19


@dataclass(frozen=True)
class EvalConfig:
    """The ``eval`` config section: cutoff grid and candidate protocol,
    with their reference values, checked when it is built.

    ``full`` ranks the target against the entire catalog; ``sampled``
    ranks it against ``n_neg`` songs drawn uniformly from those the user
    never played in training. ``exclude_train_songs`` removes the user's
    training songs from the full-catalog candidates; the sampled protocol
    refuses it, since its candidates never include them.
    """

    ks: tuple = DEFAULT_KS
    protocol: str = "full"
    n_neg: int = 1000
    exclude_train_songs: bool = False

    def __post_init__(self):
        ks = tuple(self.ks)
        object.__setattr__(self, "ks", ks)
        whole = all(isinstance(k, int) and not isinstance(k, bool) for k in ks)
        if not ks or not whole or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"config.eval.ks must be strictly ascending positive ints, got {ks}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        check_bounds(self, (("n_neg", ">=", 1),), "config.eval.")
        if self.exclude_train_songs and self.protocol == "sampled":
            raise ValueError("config.eval.exclude_train_songs applies to the full protocol only: "
                             "sampled candidates never include training songs")


@dataclass
class EvalReport:
    """Per-cutoff hits, with the recall and precision they give, plus
    enough metadata to reproduce the run."""

    label: str
    ks: tuple
    hits: dict
    n_examples: int
    protocol: str
    config_hash: str
    recall: dict = field(init=False)
    precision: dict = field(init=False)

    def __post_init__(self):
        self.recall = {k: self.hits[k] / self.n_examples for k in self.ks}
        self.precision = {k: self.recall[k] / k for k in self.ks}
        prev = 0.0
        for k in self.ks:
            r = self.recall[k]
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"recall@{k}={r} outside [0, 1]")
            if r < prev:
                raise ValueError(f"recall not monotone at k={k}: {r} < {prev}")
            prev = r

    def to_dict(self):
        return {
            "label": self.label,
            "ks": list(self.ks),
            "hits": {str(k): self.hits[k] for k in self.ks},
            "recall": {str(k): self.recall[k] for k in self.ks},
            "precision": {str(k): self.precision[k] for k in self.ks},
            "n_examples": self.n_examples,
            "protocol": self.protocol,
            "config_hash": self.config_hash,
        }


def rank_of_target(
    scores: np.ndarray, targets: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """1-based rank of each row's target under the deterministic total
    order (score descending, index ascending).

    ``scores`` is (B, N) and ``targets`` (B,). The rank is 1 + the number
    of higher scores + the number of equal scores at a lower index,
    counting only the candidates where the (B, N) boolean ``mask`` is set
    (every song when it is None).
    """
    targets = np.asarray(targets)
    rows = np.arange(targets.shape[0])
    if mask is not None and not mask[rows, targets].all():
        raise ValueError("target not among candidates")
    st = scores[rows, targets][:, None]
    # at most two (B, N) boolean arrays at a time: the mask and one count
    higher = scores > st
    if mask is not None:
        higher &= mask
    ranks = 1 + np.count_nonzero(higher, axis=1)
    del higher
    tied = scores == st  # the target itself included
    if mask is not None:
        tied &= mask
    for i in np.flatnonzero(np.count_nonzero(tied, axis=1) > 1):
        ranks[i] += np.count_nonzero(tied[i, :targets[i]])
    return ranks


# perfbench/spans.py looks these two names up when it installs its
# wrappers; nothing in songrec calls them
_example_rank = rank_of_target
_full_catalog_rank = rank_of_target


def _candidate_mask(heard_keys: np.ndarray, users, targets, start: int, n_songs: int,
                    config: EvalConfig, seed: int) -> np.ndarray:
    """(B, N) boolean candidates of the examples at ``start`` onwards: the
    target plus every song the user did not hear in training or, under
    the sampled protocol, ``n_neg`` of those drawn without replacement.

    ``heard_keys`` holds the sorted ``user << 32 | song`` keys of the
    training plays, so a user's songs are the keys between ``u << 32`` and
    ``(u + 1) << 32``.
    """
    lo = np.searchsorted(heard_keys, users << 32)
    counts = np.searchsorted(heard_keys, (users + 1) << 32) - lo
    # row i's keys are heard_keys[lo[i]:lo[i] + counts[i]], gathered at once
    rows = np.repeat(np.arange(len(users)), counts)
    keys = heard_keys[np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    mask = np.ones((len(users), n_songs), dtype=bool)
    mask[rows, keys & 0xFFFFFFFF] = False
    every = np.arange(len(users))
    mask[every, targets] = False
    if config.protocol == "sampled":
        for i in np.flatnonzero(np.count_nonzero(mask, axis=1) > config.n_neg):
            # per-example subseed: results do not depend on evaluation order
            # or chunking, only on (seed, example position)
            rng = make_rng(derive_seed(seed, f"neg:{start + i}"))
            picked = rng.choice(np.flatnonzero(mask[i]), size=config.n_neg, replace=False)
            mask[i] = False
            mask[i, picked] = True
    mask[every, targets] = True
    return mask


def evaluate(
    model,
    examples,
    config: EvalConfig,
    *,
    seed: int,
    train: SessionTable | None = None,
    label: str | None = None,
) -> EvalReport:
    """Rank the true next song for every test example and report recall@k.

    ``model`` must expose ``score_batch(users, contexts) -> (B, N)`` and
    ``n_songs`` (see :class:`songrec.util.Recommender`). The sampled
    protocol (and the exclude-train-songs flag) needs ``train``, the
    training sessions, for the songs each user heard. ``seed`` draws the
    sampled negatives and goes into the report's config hash. Examples
    are scored in chunks of at most ``CHUNK_CELLS`` score cells, one
    chunk at a time; a non-finite score raises ``ValueError``.
    """
    users, contexts, targets = examples_to_arrays(examples)  # refuses an empty set
    n_songs = model.n_songs
    if config.ks[-1] > n_songs:
        raise ValueError(f"max cutoff {config.ks[-1]} exceeds catalog size {n_songs}")
    heard_keys = None
    if config.protocol == "sampled" or config.exclude_train_songs:
        if train is None:
            raise ValueError("this protocol needs the training sessions")
        heard_keys = np.unique(_user_song_keys(train))  # one per (user, song)

    ranks = np.empty(len(targets), dtype=np.int64)
    rows = max(1, CHUNK_CELLS // n_songs)
    for start in range(0, len(targets), rows):
        chunk = slice(start, start + rows)
        scores = model.score_batch(users[chunk], contexts[chunk])
        finite = np.isfinite(scores).all(axis=1)
        if not finite.all():
            position = start + int(np.argmin(finite))
            raise ValueError(f"non-finite scores for test example {position}")
        mask = None
        if heard_keys is not None:
            mask = _candidate_mask(heard_keys, users[chunk], targets[chunk], start, n_songs,
                                   config, seed)
        ranks[chunk] = rank_of_target(scores, targets[chunk], mask)
        # free this chunk's scores and mask before the next chunk is scored
        del scores, mask

    hits = {k: int(np.count_nonzero(ranks <= k)) for k in config.ks}
    return EvalReport(
        label=label or type(model).__name__,
        ks=config.ks,
        hits=hits,
        n_examples=len(examples),
        protocol=config.protocol if config.protocol == "full" else f"sampled({config.n_neg})",
        config_hash=config_hash({**dataclasses.asdict(config), "seed": seed}),
    )


def emit_curves(reports: list[EvalReport], path) -> None:
    """Write curve rows (label, k, recall, precision) as CSV.

    Comma separator, '.' decimal point, LF line ends, one header row;
    floats use repr so re-emitting identical reports is byte-identical
    and parsing back recovers the exact values.
    """
    if not reports:
        raise ValueError("need at least one report")
    lines = ["model,k,recall,precision"]
    for r in reports:
        for k in r.ks:
            lines.append(f"{r.label},{k},{r.recall[k]!r},{r.precision[k]!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
