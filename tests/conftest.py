"""Shared synthetic corpora and oracle helpers for the test suite."""

import contextlib
import logging
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import numpy as np
import pytest

from songrec import core
from songrec.core import softmax_xent_from_probs
from songrec.data import SessionTable, parse_events
from songrec.evaluation import rank_of_target
from songrec.util import make_rng

T0 = 1241395200  # 2009-05-04T00:00:00Z

# one sub-hour gap (3599 s) that must NOT split; groups are separated by
# exactly 3600 s, which must split
ALICE_GAPS = [60, 60, 60, 3599, 60, 60, 60, 60, 60]
BOB_GAPS = [120] * 9

# per group: 5 shared tracks (played in every group) and 5 group-unique
# ones, interleaved so overlap deletion splits the survivors into runs
# of lengths 1, 3, 1
_SLOT_PATTERN = ["s0", "u0", "s1", "s2", "u1", "u2", "u3", "s3", "u4", "s4"]


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail the running test when the block is still running after
    ``seconds`` (SIGALRM, so the main thread only). The failure is not an
    ``Exception``, so no ``except`` in the code under test can swallow it."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


HELPER_MODES = ("on", "off", "lagging")


@pytest.fixture
def core_helper(monkeypatch):
    """``use(mode)`` gives ``songrec.core`` a helper thread for the rest of
    the test, whatever the CPU count: "on" a fresh one, "off" none, and
    "lagging" one whose first job sleeps 5 ms, so the caller starts alone
    and the helper joins late or, for short work, not at all. The helper
    is offered work of every size, however small."""
    pools = []

    def use(mode):
        pool = None
        if mode != "off":
            pool = ThreadPoolExecutor(max_workers=1)
            pools.append(pool)
            if mode == "lagging":
                pool.submit(time.sleep, 0.005)
        monkeypatch.setattr(core, "_HELPER", pool)
        monkeypatch.setattr(core, "_SHARE_MIN_MACS", 0)
        monkeypatch.setattr(core, "_SHARE_MIN_BYTES", 0)

    yield use
    for pool in pools:
        pool.shutdown()


def format_timestamp(epoch: int) -> str:
    """Epoch seconds -> the canonical ``YYYY-MM-DDTHH:MM:SSZ`` form of the logs."""
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _user_lines(user, artist, gaps, group_offset, start0):
    lines = []
    group_span = sum(gaps)
    for g in range(10):
        ts = start0 + g * (group_span + group_offset)
        for slot, code in enumerate(_SLOT_PATTERN):
            if code.startswith("s"):
                track = f"shared-{code[1]}"
            else:
                track = f"only-{g}-{code[1]}"
            lines.append(f"{user}\t{format_timestamp(ts)}\t\t{artist}\t\t{track}")
            if slot < 9:
                ts += gaps[slot]
    return lines


def lastfm_fixture_lines():
    """200 hand-designed play-log lines: 2 users x 10 groups x 10 plays.

    Known outcomes: 20 sessions of length 10; the 3599 s gap keeps a
    session together while the exact 3600 s inter-group gaps split;
    every user's shared tracks appear in all their groups, so overlap
    deletion removes exactly 5 events from any val/test session and
    leaves survivor runs of lengths (1, 3, 1).
    """
    lines = _user_lines("alice", "Alpha Ensemble", ALICE_GAPS, 3600, T0)
    lines += _user_lines("bob", "Beta Crew", BOB_GAPS, 7200, T0 + 30)
    return lines


def lastfm_fixture_events():
    events, summary = parse_events(lastfm_fixture_lines())
    assert summary.parsed == 200 and summary.skipped == 0
    return events


@pytest.fixture
def fixture_events():
    return lastfm_fixture_events()


@pytest.fixture
def fixture_tsv(tmp_path):
    path = tmp_path / "plays.tsv"
    path.write_text("\n".join(lastfm_fixture_lines()) + "\n", encoding="utf-8")
    return path


def session_table(rows) -> SessionTable:
    """The SessionTable of (user, songs) rows, one session each, in order."""
    rows = list(rows)
    lengths = [len(items) for _, items in rows]
    return SessionTable(np.array([user for user, _ in rows], dtype=np.int64),
                        np.cumsum([0, *lengths], dtype=np.int64),
                        np.array([i for _, items in rows for i in items], dtype=np.int64))


def table_rows(sessions: SessionTable) -> list[tuple[int, list[int]]]:
    """The (user, songs) row of every session of ``sessions``; inverse of
    :func:`session_table`."""
    bounds = sessions.offsets.tolist()
    return [(user, sessions.items[a:b].tolist())
            for user, a, b in zip(sessions.users.tolist(), bounds, bounds[1:])]


def playlist_sessions(n_users=20, n_songs=50, cycle=10, repeats=3, seed=123):
    """Each user deterministically cycles a private playlist of ``cycle``
    songs drawn from the shared catalog."""
    rng = make_rng(seed)
    sessions = []
    for u in range(n_users):
        playlist = rng.choice(n_songs, size=cycle, replace=False)
        sessions.append((u, [int(i) for i in np.tile(playlist, repeats)]))
    return session_table(sessions)


def third_order_sessions(n_sessions, length=12, n_songs=30, perm_seed=77, seed=1, user=0):
    """The next song is a fixed permutation of the 3rd-previous one; the
    first three songs of each session are uniform."""
    perm = make_rng(perm_seed).permutation(n_songs)
    rng = make_rng(seed)
    sessions = []
    for _ in range(n_sessions):
        items = [int(x) for x in rng.integers(0, n_songs, size=3)]
        while len(items) < length:
            items.append(int(perm[items[-3]]))
        sessions.append((user, items))
    return session_table(sessions)


def digit_chain_sessions(n_sessions, length=12, seed=1, user=0):
    """27 songs, each three base-3 digits (hi, mid, lo). The next song's hi
    digit is the last song's lo digit, its mid digit the second-previous
    song's mid digit and its lo digit the third-previous song's hi digit,
    so each of orders 1, 2 and 3 sees one more digit of the target: a
    lookup table at order j gets about 1/9, 1/3 and all of it right. The
    first three songs of each session are uniform."""
    rng = make_rng(seed)
    sessions = []
    for _ in range(n_sessions):
        items = [int(x) for x in rng.integers(0, 27, size=3)]
        while len(items) < length:
            items.append(9 * (items[-1] % 3) + 3 * (items[-2] // 3 % 3) + items[-3] // 9)
        sessions.append((user, items))
    return session_table(sessions)


def markov_chain_sessions(n_songs=20, n_users=5, sessions_per_user=10,
                          session_len=40, succ_seed=11, start_seed=100):
    """First-order data: every song has one deterministic successor."""
    succ = make_rng(succ_seed).permutation(n_songs)
    sessions = []
    for u in range(n_users):
        rng = make_rng(start_seed + u)
        for _ in range(sessions_per_user):
            items = [int(rng.integers(n_songs))]
            for _ in range(session_len - 1):
                items.append(int(succ[items[-1]]))
            sessions.append((u, items))
    return session_table(sessions)


def two_pool_sessions(pool_size=25, sessions_per_pool=200, length=10, seed=55):
    """Sessions drawn entirely from one of two disjoint song pools."""
    rng = make_rng(seed)
    sessions = []
    for base in (0, pool_size):
        for _ in range(sessions_per_pool):
            items = [int(base + i) for i in rng.integers(0, pool_size, size=length)]
            sessions.append((0, items))
    return session_table(sessions)


class UniformScorer:
    """Stub model: independent uniform scores for every candidate."""

    def __init__(self, n_songs, seed=0):
        self.n_songs = n_songs
        self.rng = make_rng(seed)

    def score_batch(self, users, contexts):
        # one (B, N) draw is the same PCG64 stream as B draws of N
        return self.rng.random((len(users), self.n_songs))


class StatelessScorer:
    """Stub model whose scores are a pure function of (user, context)."""

    def __init__(self, n_songs, salt=0):
        self.n_songs = n_songs
        self.salt = salt

    def score_batch(self, users, contexts):
        from songrec.util import derive_seed

        rows = []
        for u, context in zip(users, contexts):
            key = f"{self.salt}:{u}:{','.join(str(c) for c in context)}"
            rows.append(make_rng(derive_seed(0, key)).random(self.n_songs))
        return np.stack(rows)


class PerfectScorer:
    """Stub model that ranks the true target first: it memorizes the
    (user, context) -> target mapping of the given examples."""

    def __init__(self, examples, n_songs):
        self.n_songs = n_songs
        keys = zip(examples.user.tolist(), map(tuple, examples.context.tolist()))
        self.lookup = dict(zip(keys, examples.target.tolist()))

    def score_batch(self, users, contexts):
        scores = np.zeros((len(users), self.n_songs))
        for i, (u, context) in enumerate(zip(users, contexts)):
            scores[i, self.lookup[(int(u), tuple(int(c) for c in context))]] = 1.0
        return scores


def progress_lines(caplog) -> list[str]:
    """The ``<family> epoch i/E: loss x`` head of each progress line that
    ``caplog`` holds, in order."""
    return [r.getMessage().split(",")[0] for r in caplog.records
            if r.levelno == logging.INFO and " epoch " in r.getMessage()]


def top_k(scores, k):
    """Indices of the k best of one score vector, best first, in the total
    order of :func:`songrec.evaluation.rank_of_target`."""
    n = len(scores)
    ranks = rank_of_target(np.broadcast_to(scores, (n, n)), np.arange(n))
    return np.argsort(ranks)[:k]


def loss_and_dense_grads(params, users, contexts, targets):
    """Mean loss and gradients of a neural model, dropout off, through the
    calls ``train_step`` makes; the sparse (rows, row_grads) embedding
    gradients are scattered into dense tables for gradient checking."""
    probs, cache = params.forward_batch(users, contexts)
    loss = float(np.mean(softmax_xent_from_probs(probs, targets)))
    grads = params.backward_batch(probs, targets, cache)
    for name, g in grads.items():
        if isinstance(g, tuple):
            rows, row_grads = g
            grads[name] = np.zeros_like(params.tensors()[name])
            np.add.at(grads[name], rows, row_grads)
    return loss, grads


def pairwise_auc(factors, examples, n_songs):
    """AUC by exhaustive enumeration of (observed, other) score pairs."""
    total = 0.0
    for e in examples:
        scores = factors.score_catalog(e.user, e.context)
        s_pos = scores[e.target]
        wins = np.count_nonzero(scores < s_pos)
        ties = np.count_nonzero(scores == s_pos) - 1
        total += (wins + 0.5 * ties) / (n_songs - 1)
    return total / len(examples)
