"""Listening-log preparation pipeline.

Raw play logs go through: parse -> vocabulary build -> filter ->
sessionize -> split -> train-overlap deletion -> context/target example
extraction. Every step is a pure function; the split is a pure function
of (sessions, ratios, seed). The settings are checked where the ``data``
config section loads (:class:`songrec.config.DataConfig`), not here.
"""

from __future__ import annotations

import gzip
import json
import logging
import os
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .util import atomic_write_json, atomic_write_text, make_rng

if TYPE_CHECKING:
    from .config import DataConfig

logger = logging.getLogger(__name__)

# Reserved separator joining artist name and track name into one song key.
SONG_KEY_SEP = ""

OVERLAP_MODES = ("drop-seen", "keep-only-seen", "none")
SHUFFLE_UNITS = ("session", "record")

_TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # 719163


@dataclass(frozen=True, slots=True)
class ListeningEvent:
    """One timestamped play: who, when (epoch seconds UTC), which song."""

    user_key: str
    timestamp: int
    song_key: str


@dataclass(slots=True)
class ParseSummary:
    parsed: int = 0
    skipped: int = 0


@dataclass(slots=True)
class Session:
    """A maximal run of one user's plays with every inter-event gap below the cutoff.

    ``timestamps`` is None for sessions read back from disk (the on-disk
    format keeps only item order).
    """

    user: int
    items: list[int]
    timestamps: list[int] | None = None

    def __len__(self) -> int:
        return len(self.items)


@dataclass(slots=True)
class SplitDataset:
    train: list[Session]
    val: list[Session]
    test: list[Session]

    def parts(self):
        return {"train": self.train, "val": self.val, "test": self.test}


class VocabMap:
    """Bijection between song keys and dense indices 0..N-1."""

    def __init__(self, keys: list[str]):
        if not keys:
            raise ValueError("empty vocabulary is unusable")
        self.reverse: list[str] = list(keys)
        self.forward: dict[str, int] = {k: i for i, k in enumerate(self.reverse)}
        if len(self.forward) != len(self.reverse):
            raise ValueError("duplicate song keys in vocabulary")

    @property
    def size(self) -> int:
        return len(self.reverse)

    def __contains__(self, key: str) -> bool:
        return key in self.forward


def _iter_lines(stream):
    for line in stream:
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        yield line.rstrip("\r\n")


def parse_timestamp(text: str) -> int:
    """ISO-8601 Z-suffixed timestamp -> integer epoch seconds (UTC)."""
    dt = datetime.strptime(text, _TS_FORMAT).replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_timestamp(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(_TS_FORMAT)


def _midnight_epoch(prefix: str) -> int | None:
    """``"YYYY-MM-DDT"`` in ASCII digits naming a valid date -> epoch
    seconds of that day's UTC midnight; None for anything else."""
    y, m, d = prefix[0:4], prefix[5:7], prefix[8:10]
    if not (
        prefix.isascii() and prefix[4] == prefix[7] == "-" and prefix[10] == "T"
        and y.isdigit() and m.isdigit() and d.isdigit()
    ):
        return None
    try:
        return (date(int(y), int(m), int(d)).toordinal() - _EPOCH_ORDINAL) * 86400
    except ValueError:  # month 13, Feb 30, year 0
        return None


def _timestamp_parser():
    """A :func:`parse_timestamp` with a fast path for the canonical form.

    ``YYYY-MM-DDTHH:MM:SSZ`` in ASCII digits, with a valid date and
    h < 24, m < 60, s < 60, is converted by integer arithmetic, the epoch
    of each date part coming from a cache. Every other string goes to
    :func:`parse_timestamp`, so strptime decides what else is accepted
    (lowercase t/z, one-digit fields, non-ASCII digits, ...) or rejected.
    """
    days: dict[str, int] = {}  # valid date parts only

    def to_epoch(text: str) -> int:
        if len(text) == 20 and text[13::3] == "::Z":  # ':' at 13 and 16, 'Z' at 19
            prefix = text[:11]
            day = days.get(prefix)
            if day is None:
                day = _midnight_epoch(prefix)
                if day is not None:
                    days[prefix] = day
            hms = text[11:13] + text[14:16] + text[17:19]
            if day is not None and hms.isascii() and hms.isdigit():
                n = int(hms)
                h, m, s = n // 10000, n // 100 % 100, n % 100
                if h < 24 and m < 60 and s < 60:
                    return day + h * 3600 + m * 60 + s
        return parse_timestamp(text)

    return to_epoch


def parse_events(stream) -> tuple[list[ListeningEvent], ParseSummary]:
    """Parse tab-separated play-log lines into events.

    Expected layout per line (UTF-8):
    user TAB iso-timestamp TAB artist-id TAB artist-name TAB track-id TAB track-name

    Songs are keyed by artist-name + separator + track-name; the id
    columns are often empty in the raw data so names are the usable
    identity. Lines with fewer than 6 fields, an unparseable timestamp,
    an empty user, or both name fields empty are counted and skipped.
    Timestamps are accepted exactly as :func:`parse_timestamp` accepts
    them. Equal user keys share one string object, and so do equal song
    keys.

    Returns the events in input order plus a parse summary.
    """
    events: list[ListeningEvent] = []
    summary = ParseSummary()
    to_epoch = _timestamp_parser()
    keys: dict[str, str] = {}  # interning table for user and song keys
    for line in _iter_lines(stream):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) < 6:
            summary.skipped += 1
            continue
        user_key, ts_text, _artist_id, artist_name, _track_id, track_name = fields[:6]
        if not user_key or (not artist_name and not track_name):
            summary.skipped += 1
            continue
        try:
            ts = to_epoch(ts_text)
        except ValueError:
            summary.skipped += 1
            continue
        user_key = keys.setdefault(user_key, user_key)
        song_key = artist_name + SONG_KEY_SEP + track_name
        events.append(ListeningEvent(user_key, ts, keys.setdefault(song_key, song_key)))
        summary.parsed += 1
    return events, summary


def open_event_stream(path):
    """Open a raw log file for parsing; .gz paths are decompressed on the fly."""
    path = os.fspath(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return open(path, "r", encoding="utf-8", errors="replace")


def build_vocab(events: list[ListeningEvent], cap: int) -> VocabMap:
    """Keep the ``cap`` most-played songs.

    Indices are assigned by descending play count; ties broken by first
    appearance in the stream.
    """
    if not events:
        raise ValueError("no events: empty vocabulary is unusable")
    # Counter keeps first-insertion order and most_common() sorts stably,
    # so equal counts stay in order of first appearance
    counts = Counter(ev.song_key for ev in events)
    return VocabMap([key for key, _ in counts.most_common(cap)])


def filter_to_vocab(
    events: list[ListeningEvent], vocab: VocabMap
) -> list[ListeningEvent]:
    """Subsequence of events whose song is in the vocabulary; order preserved."""
    return [ev for ev in events if ev.song_key in vocab]


def build_user_index(events: list[ListeningEvent]) -> dict[str, int]:
    """User key -> dense index, by first appearance in the stream."""
    index: dict[str, int] = {}
    for ev in events:
        if ev.user_key not in index:
            index[ev.user_key] = len(index)
    return index


def sessionize(
    events: list[ListeningEvent],
    vocab: VocabMap,
    user_index: dict[str, int],
    gap_seconds: int,
) -> list[Session]:
    """Group each user's plays into sessions split at gaps >= ``gap_seconds``.

    Events are grouped per user and stably sorted by timestamp first, so
    input interleaving does not matter. A gap of exactly ``gap_seconds``
    starts a new session (inside a session every gap is strictly
    smaller). Length-1 sessions are kept. Sessions come out ordered by
    user index, chronologically within each user.
    """
    per_user: dict[int, list[ListeningEvent]] = defaultdict(list)
    for ev in events:
        per_user[user_index[ev.user_key]].append(ev)

    sessions: list[Session] = []
    for user in sorted(per_user):
        stream = sorted(per_user[user], key=lambda ev: ev.timestamp)  # stable
        items: list[int] = []
        stamps: list[int] = []
        for ev in stream:
            if stamps and ev.timestamp - stamps[-1] >= gap_seconds:
                sessions.append(Session(user, items, stamps))
                items, stamps = [], []
            items.append(vocab.forward[ev.song_key])
            stamps.append(ev.timestamp)
        if items:
            sessions.append(Session(user, items, stamps))
    return sessions


def split_dataset(sessions: list[Session], ratios: Sequence[float], seed: int) -> SplitDataset:
    """Shuffle whole sessions and cut them into train/val/test with
    :func:`split_events`; within-session order is never disturbed."""
    return SplitDataset(*split_events(sessions, ratios, seed))


def split_events(items: list, ratios: Sequence[float], seed: int) -> tuple[list, list, list]:
    """The cut of both shuffle units: shuffle ``items`` (sessions, or
    single plays that each part then sessionizes on its own) by a seeded
    permutation and cut into train/val/test.

    ``ratios`` are three non-negative numbers summing to 1. Validation
    and test sizes are floors of their ratios; train takes the remainder.
    """
    n = len(items)
    if n < 3:
        raise ValueError(f"need at least 3 sessions or plays to split, got {n}")
    n_val = int(ratios[1] * n)
    n_test = int(ratios[2] * n)
    n_train = n - n_val - n_test
    shuffled = [items[i] for i in make_rng(seed).permutation(n)]
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )


def _train_song_sets(train: list[Session]) -> dict[int, set[int]]:
    seen: dict[int, set[int]] = defaultdict(set)
    for s in train:
        seen[s.user].update(s.items)
    return seen


def _clean_sessions(
    sessions: list[Session], train_songs: dict[int, set[int]], mode: str
) -> tuple[list[Session], int]:
    """Apply the overlap rule to one part; deletions split sessions apart."""
    out: list[Session] = []
    deleted = 0
    for s in sessions:
        seen = train_songs.get(s.user, set())
        if mode == "drop-seen":
            keep = [i not in seen for i in s.items]
        else:  # keep-only-seen
            keep = [i in seen for i in s.items]
        items: list[int] = []
        stamps: list[int] = []
        for pos, ok in enumerate(keep):
            if ok:
                items.append(s.items[pos])
                if s.timestamps is not None:
                    stamps.append(s.timestamps[pos])
            else:
                deleted += 1
                if items:
                    out.append(Session(s.user, items, stamps or None))
                    items, stamps = [], []
        if items:
            out.append(Session(s.user, items, stamps or None))
    return out, deleted


def delete_train_overlap(
    split: SplitDataset, mode: str
) -> tuple[SplitDataset, dict[str, int]]:
    """Remove val/test events by the (user, song)-seen-in-training rule.

    ``mode``, one of ``OVERLAP_MODES``:
      drop-seen       remove events whose song the same user already has in
                      their training sessions (the reference reading),
      keep-only-seen  the opposite reading: keep only such events,
      none            leave val/test untouched.

    A deletion splits the session at that point; emptied sessions vanish.
    Returns the cleaned split plus deleted-event counts per part.
    """
    if mode == "none":
        return split, {"val": 0, "test": 0}
    train_songs = _train_song_sets(split.train)
    val, n_val = _clean_sessions(split.val, train_songs, mode)
    test, n_test = _clean_sessions(split.test, train_songs, mode)
    cleaned = SplitDataset(split.train, val, test)
    return cleaned, {"val": n_val, "test": n_test}


def extract_examples(sessions: list[Session], j: int) -> np.recarray:
    """One example per in-session position with at least j predecessors,
    as an int64 record array with fields ``user``, ``context`` ((j,),
    oldest first) and ``target``.

    Contexts never cross session boundaries; a session of length <= j
    yields nothing. Output is ordered by (session order, position).
    """
    if j < 1:
        raise ValueError("context length j must be >= 1")
    lengths = np.fromiter(map(len, sessions), dtype=np.int64, count=len(sessions))
    users = np.fromiter((s.user for s in sessions), dtype=np.int64, count=len(sessions))
    items = np.fromiter(chain.from_iterable(s.items for s in sessions), dtype=np.int64,
                        count=int(lengths.sum()))
    pos = np.arange(len(items)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    at = np.flatnonzero(pos >= j)  # flat index of every target
    return np.rec.fromarrays(
        [np.repeat(users, lengths)[at], items[at[:, None] + np.arange(-j, 0)], items[at]],
        dtype=[("user", np.int64), ("context", np.int64, (j,)), ("target", np.int64)])


def examples_to_arrays(examples: np.recarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (users, contexts, targets) columns of ``examples`` as contiguous
    arrays; contexts is (T, j) oldest-first. An empty set raises."""
    if len(examples) == 0:
        raise ValueError("no examples")
    return tuple(np.ascontiguousarray(examples[name]) for name in ("user", "context", "target"))


def drop_unknown_users(
    sessions: list[Session], train_sessions: list[Session]
) -> list[Session]:
    """Drop sessions of users absent from training (their embedding would
    be untrained); warns when anything is dropped."""
    known = {s.user for s in train_sessions}
    kept = [s for s in sessions if s.user in known]
    dropped = len(sessions) - len(kept)
    if dropped:
        logger.warning("dropped %d sessions of users absent from training", dropped)
    return kept


# ---------------------------------------------------------------------------
# Prepared-dataset directory format
# ---------------------------------------------------------------------------
#
#   vocab.txt    one song key per line, line number = song index
#   users.txt    one user key per line, line number = user index
#   train.txt    one session per line: "<user_index> <i1>,<i2>,..."
#   val.txt, test.txt  same layout
#   stats.json   counts, split seed, pipeline settings


@dataclass(slots=True)
class PreparedDataset:
    vocab: VocabMap
    user_keys: list[str]
    split: SplitDataset
    stats: dict = field(default_factory=dict)

    @property
    def n_songs(self) -> int:
        return self.vocab.size

    @property
    def n_users(self) -> int:
        return len(self.user_keys)


def _session_lines(sessions: list[Session]) -> str:
    return "".join(
        f"{s.user} {','.join(str(i) for i in s.items)}\n" for s in sessions
    )


def _parse_session_lines(text: str, path) -> list[Session]:
    """Sessions of one session file; a malformed line raises ``ValueError``
    naming ``path`` and the line number."""
    sessions = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        user_text, _, items_text = line.partition(" ")
        tokens = items_text.split(",") if items_text else []
        try:
            user, items = int(user_text), [int(tok) for tok in tokens]
        except ValueError:
            for what, tok in [("user", user_text), *(("song", tok) for tok in tokens)]:
                try:
                    int(tok)
                except ValueError:
                    raise ValueError(f"{path} line {number}: bad {what} index {tok!r}") from None
        sessions.append(Session(user, items))
    return sessions


def write_prepared(out_dir, prepared: PreparedDataset) -> None:
    """Write the prepared-dataset directory (see module comment for layout)."""
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(
        os.path.join(out_dir, "vocab.txt"),
        "".join(k + "\n" for k in prepared.vocab.reverse),
    )
    atomic_write_text(
        os.path.join(out_dir, "users.txt"),
        "".join(k + "\n" for k in prepared.user_keys),
    )
    for name, sessions in prepared.split.parts().items():
        atomic_write_text(os.path.join(out_dir, f"{name}.txt"), _session_lines(sessions))
    atomic_write_json(os.path.join(out_dir, "stats.json"), prepared.stats)


def _check_indices(path, sessions: list[Session], n_users: int, n_songs: int) -> None:
    """Raise ``ValueError`` naming ``path`` unless every user index of
    ``sessions`` has a line in users.txt and every song index one in vocab.txt."""
    users = [s.user for s in sessions]
    songs = list(chain.from_iterable(s.items for s in sessions))
    for what, values, n, source in (("user", users, n_users, "users.txt"),
                                    ("song", songs, n_songs, "vocab.txt")):
        lo, hi = min(values, default=0), max(values, default=-1)
        if lo < 0 or hi >= n:
            bad = lo if lo < 0 else hi
            raise ValueError(f"{path}: {what} index {bad} is outside the {n} lines of {source}")


def read_prepared(out_dir) -> PreparedDataset:
    """Read back a prepared-dataset directory. Sessions lose timestamps.

    A user or song index without its line in users.txt or vocab.txt
    raises ``ValueError`` naming the session file it is in.
    """

    def read(name):
        with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
            return fh.read()

    vocab = VocabMap(read("vocab.txt").splitlines())
    user_keys = read("users.txt").splitlines()
    stats = json.loads(read("stats.json"))
    parts = {}
    for name in ("train", "val", "test"):
        path = os.path.join(out_dir, f"{name}.txt")
        parts[name] = _parse_session_lines(read(f"{name}.txt"), path)
        _check_indices(path, parts[name], len(user_keys), vocab.size)
    return PreparedDataset(vocab, user_keys, SplitDataset(**parts), stats)


def prepare(events: list[ListeningEvent], settings: DataConfig, seed: int) -> PreparedDataset:
    """Full pipeline: vocabulary, filter, sessionize, split, overlap deletion,
    under the ``data`` config section ``settings``; ``seed`` drives the split.

    ``settings.shuffle_unit`` picks what gets shuffled before the cut: whole
    sessions (the reference, preserves the sequences the models consume) or
    single records (each part is then sessionized on its own).
    """
    vocab = build_vocab(events, settings.vocab_cap)
    kept = filter_to_vocab(events, vocab)
    if not kept:
        raise ValueError("no events survive vocabulary filtering")
    user_index = build_user_index(kept)
    user_keys = sorted(user_index, key=user_index.get)

    if settings.shuffle_unit == "session":
        sessions = sessionize(kept, vocab, user_index, settings.gap_seconds)
        n_sessions_in = len(sessions)
        split = split_dataset(sessions, settings.ratios, seed)
    else:
        parts = split_events(kept, settings.ratios, seed)
        by_part = [sessionize(p, vocab, user_index, settings.gap_seconds) for p in parts]
        n_sessions_in = sum(len(p) for p in by_part)
        split = SplitDataset(*by_part)

    split, deleted = delete_train_overlap(split, settings.overlap_mode)

    stats = {
        "users": len(user_keys),
        "songs": vocab.size,
        "records": len(kept),
        "records_raw": len(events),
        "sessions_before_overlap": n_sessions_in,
        "sessions": {k: len(v) for k, v in split.parts().items()},
        "events": {k: sum(len(s) for s in v) for k, v in split.parts().items()},
        "deleted_overlap": deleted,
        "seed": seed,
        "ratios": list(settings.ratios),
        "vocab_cap": settings.vocab_cap,
        "gap_seconds": settings.gap_seconds,
        "overlap_mode": settings.overlap_mode,
        "shuffle_unit": settings.shuffle_unit,
    }
    return PreparedDataset(vocab, user_keys, split, stats)
