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
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from itertools import chain, compress, count, islice, repeat
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

# Lines read per block by parse_events. Each block's timestamps are
# converted and its keys coded at once; besides the keys and the integer
# columns, the parse holds the text of one block at a time.
PARSE_BLOCK = 1 << 12

# Column offsets of the canonical timestamp ``YYYY-MM-DDTHH:MM:SSZ``.
_TS_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_TS_SEPS = np.array([4, 7, 10, 13, 16, 19])
_TS_SEP_CHARS = np.array([ord(c) for c in "--T::Z"])
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


@dataclass(slots=True)
class EventColumns:
    """Plays as columns: row r is a play of user ``user_keys[user[r]]`` at
    ``ts[r]`` (epoch seconds UTC) of song ``song_keys[song[r]]``.

    :func:`parse_events` numbers users and songs by first appearance in
    the log; after :func:`filter_to_vocab` the song codes are vocabulary
    indices, and after :func:`build_user_index` the user codes are user
    indices.
    """

    user: np.ndarray  # int32 codes
    ts: np.ndarray  # int64
    song: np.ndarray  # int32 codes
    user_keys: list[str]
    song_keys: list[str]

    def __len__(self) -> int:
        return len(self.ts)

    def take(self, rows) -> EventColumns:
        """The plays at ``rows`` (indices or a mask), in that order."""
        return EventColumns(self.user[rows], self.ts[rows], self.song[rows],
                            self.user_keys, self.song_keys)


@dataclass(slots=True)
class ParseSummary:
    parsed: int = 0
    skipped: int = 0


@dataclass(slots=True)
class SessionTable:
    """Sessions as int64 columns: session r is user ``users[r]`` playing
    ``items[offsets[r]:offsets[r + 1]]``, a maximal run of plays with every
    gap below the cutoff, or what overlap deletion left of one. ``offsets``
    starts at 0 and has one entry more than ``users``; a session may be empty."""

    users: np.ndarray
    offsets: np.ndarray
    items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def n_examples(self, j: int) -> int:
        """``len(extract_examples(self, j))``, without building them."""
        return int(np.maximum(self.lengths - j, 0).sum())

    def item_users(self) -> np.ndarray:
        """The user of every play in ``items``."""
        return np.repeat(self.users, self.lengths)

    def take(self, rows) -> SessionTable:
        """The sessions at ``rows`` (indices or a mask), in that order."""
        lengths = self.lengths[rows]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        shift = np.repeat(self.offsets[:-1][rows] - offsets[:-1], lengths)
        return SessionTable(self.users[rows], offsets, self.items[np.arange(offsets[-1]) + shift])


@dataclass(slots=True)
class SplitDataset:
    train: SessionTable
    val: SessionTable
    test: SessionTable

    def parts(self):
        return {"train": self.train, "val": self.val, "test": self.test}


def _read_lines(stream, n: int) -> list[str]:
    """The next ``n`` lines of ``stream`` (str or UTF-8 bytes) without
    their line ends; fewer at its end."""
    return [(line.decode("utf-8", errors="replace") if isinstance(line, bytes) else line)
            .rstrip("\r\n") for line in islice(stream, n)]


def parse_timestamp(text: str) -> int:
    """ISO-8601 Z-suffixed timestamp -> integer epoch seconds (UTC)."""
    dt = datetime.strptime(text, _TS_FORMAT).replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _epochs(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of every timestamp in ``texts`` (int64) and whether
    it parsed (bool), as :func:`parse_timestamp` would.

    ``YYYY-MM-DDTHH:MM:SSZ`` in ASCII digits, with a valid date and
    h < 24, m < 60, s < 60, is converted by array arithmetic. Every other
    string goes to :func:`parse_timestamp`, so strptime decides what else
    is accepted (lowercase t/z, one-digit fields, non-ASCII digits, ...)
    or rejected.
    """
    n = len(texts)
    ts = np.zeros(n, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(np.fromiter(map(len, texts), dtype=np.int64, count=n) == 20)
    if len(rows):
        canonical = texts if len(rows) == n else [texts[i] for i in rows.tolist()]
        # non-ASCII characters become "?", which no digit or separator test passes
        codes = np.frombuffer("".join(canonical).encode("ascii", "replace"),
                              dtype=np.uint8).reshape(-1, 20)
        digits = codes[:, _TS_DIGITS] - ord("0")  # wraps around below "0"
        fast = (digits < 10).all(axis=1) & (codes[:, _TS_SEPS] == _TS_SEP_CHARS).all(axis=1)
        pairs = digits[:, 0::2].astype(np.int64) * 10 + digits[:, 1::2]
        year = pairs[:, 0] * 100 + pairs[:, 1]
        month, day, h, m, s = pairs[:, 2:].T
        leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
        month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + ((month == 2) & leap)
        fast &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
        fast &= (h < 24) & (m < 60) & (s < 60)
        months = ((year - 1970) * 12 + month - 1)[fast].astype("datetime64[M]")
        days = months.astype("datetime64[D]").astype(np.int64) + day[fast] - 1
        at = rows[fast]
        ts[at] = days * 86400 + h[fast] * 3600 + m[fast] * 60 + s[fast]
        ok[at] = True
    for i in np.flatnonzero(~ok).tolist():
        try:
            ts[i] = parse_timestamp(texts[i])
            ok[i] = True
        except ValueError:
            pass
    return ts, ok


def parse_events(stream) -> tuple[EventColumns, ParseSummary]:
    """Parse tab-separated play-log lines into event columns.

    Expected layout per line (UTF-8):
    user TAB iso-timestamp TAB artist-id TAB artist-name TAB track-id TAB track-name

    Songs are keyed by artist-name + separator + track-name; the id
    columns are often empty in the raw data so names are the usable
    identity. Lines with fewer than 6 fields, an unparseable timestamp,
    an empty user, or both name fields empty are counted and skipped.
    Timestamps are accepted exactly as :func:`parse_timestamp` accepts
    them. Users and songs are coded by first appearance among the
    parsed lines.

    Returns the plays in input order plus a parse summary.
    """
    summary = ParseSummary()
    user_codes = defaultdict(count().__next__)  # key -> code, assigned on first lookup
    song_codes = defaultdict(count().__next__)
    # one array per block, after an empty one for a log without plays
    users, songs = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)]
    stamps = [np.zeros(0, np.int64)]
    stream = iter(stream)
    while block := _read_lines(stream, PARSE_BLOCK):
        user_keys, ts_texts, song_keys = [], [], []
        for line in block:
            if not line:
                continue
            fields = line.split("\t", 6)
            if len(fields) < 6:
                summary.skipped += 1
                continue
            user_key, ts_text, _artist_id, artist_name, _track_id, track_name = fields[:6]
            if not user_key or (not artist_name and not track_name):
                summary.skipped += 1
                continue
            user_keys.append(user_key)
            ts_texts.append(ts_text)
            song_keys.append(artist_name + SONG_KEY_SEP + track_name)
        ts, ok = _epochs(ts_texts)
        if not ok.all():
            summary.skipped += len(ok) - int(np.count_nonzero(ok))
            keep = ok.tolist()
            user_keys, song_keys, ts = compress(user_keys, keep), compress(song_keys, keep), ts[ok]
        summary.parsed += len(ts)
        users.append(np.fromiter(map(user_codes.__getitem__, user_keys), np.int32, len(ts)))
        songs.append(np.fromiter(map(song_codes.__getitem__, song_keys), np.int32, len(ts)))
        stamps.append(ts)
    columns = EventColumns(np.concatenate(users), np.concatenate(stamps), np.concatenate(songs),
                           list(user_codes), list(song_codes))
    return columns, summary


def open_event_stream(path):
    r"""Open a raw log file for parsing; .gz paths are decompressed on the fly.

    Lines end at "\n" only, as in a binary stream: a lone "\r" inside a
    field stays part of it (``parse_events`` strips a trailing "\r\n").
    """
    path = os.fspath(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", errors="replace", newline="\n")
    return open(path, "r", encoding="utf-8", errors="replace", newline="\n")


def _first_rows(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """Row of each code's first appearance in ``codes``; ``len(codes)``
    for a code that never appears."""
    first = np.full(n_codes, len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    return first


def _renumber(codes: np.ndarray, kept: np.ndarray, keys: list[str]
              ) -> tuple[np.ndarray, list[str]]:
    """``codes`` with code ``kept[i]`` renumbered to i and every other code
    to -1, and the keys of the ``kept`` codes in that order."""
    lookup = np.full(len(keys), -1, dtype=np.int32)
    lookup[kept] = np.arange(len(kept), dtype=np.int32)
    return lookup[codes], [keys[c] for c in kept.tolist()]


def build_vocab(events: EventColumns, cap: int) -> np.ndarray:
    """The song codes of the ``cap`` most-played songs, most played first;
    ties broken by first appearance in the stream."""
    if not len(events):
        raise ValueError("no events: empty vocabulary is unusable")
    counts = np.bincount(events.song, minlength=len(events.song_keys))
    played = np.flatnonzero(counts)
    first = _first_rows(events.song, len(events.song_keys))[played]
    return played[np.lexsort((first, -counts[played]))[:cap]]


def filter_to_vocab(events: EventColumns, codes: np.ndarray) -> EventColumns:
    """The plays of the songs ``codes``, order preserved; song ``codes[i]``
    becomes vocabulary index i."""
    song, song_keys = _renumber(events.song, codes, events.song_keys)
    keep = song >= 0
    return EventColumns(events.user[keep], events.ts[keep], song[keep],
                        events.user_keys, song_keys)


def build_user_index(events: EventColumns) -> EventColumns:
    """``events`` with its users renumbered to dense indices by first
    appearance in the stream; users without a play are dropped."""
    first = _first_rows(events.user, len(events.user_keys))
    present = np.flatnonzero(first < len(events))
    user, user_keys = _renumber(events.user, present[np.argsort(first[present])],
                                events.user_keys)
    return EventColumns(user, events.ts, events.song, user_keys, events.song_keys)


def sessionize(events: EventColumns, gap_seconds: int) -> SessionTable:
    """Group each user's plays into sessions split at gaps >= ``gap_seconds``.

    Plays are stably sorted by (user, timestamp) first, so input
    interleaving does not matter and equal timestamps keep input order.
    A gap of exactly ``gap_seconds`` starts a new session (inside a
    session every gap is strictly smaller). Length-1 sessions are kept.
    Sessions come out ordered by user code, chronologically within each
    user; the table holds the user and song codes of ``events``.
    """
    order = np.lexsort((events.ts, events.user))
    users, ts = events.user[order], events.ts[order]
    breaks = (users[1:] != users[:-1]) | (np.diff(ts) >= gap_seconds)
    starts = np.flatnonzero(np.concatenate(([len(ts) > 0], breaks)))
    return SessionTable(users[starts].astype(np.int64), np.append(starts, len(ts)),
                        events.song[order].astype(np.int64))


def split_dataset(sessions: SessionTable, ratios: Sequence[float], seed: int) -> SplitDataset:
    """Shuffle whole sessions and cut them into train/val/test with
    :func:`_split_rows`; within-session order is never disturbed."""
    return SplitDataset(*map(sessions.take, _split_rows(len(sessions), ratios, seed)))


def split_events(events: EventColumns, ratios: Sequence[float], seed: int
                 ) -> tuple[EventColumns, EventColumns, EventColumns]:
    """Shuffle single plays and cut them into train/val/test with
    :func:`_split_rows`; each part is then sessionized on its own."""
    return tuple(events.take(rows) for rows in _split_rows(len(events), ratios, seed))


def _split_rows(n: int, ratios: Sequence[float], seed: int) -> tuple[np.ndarray, ...]:
    """The cut of both shuffle units: a seeded permutation of ``n``
    sessions or plays, cut into train/val/test index arrays.

    ``ratios`` are three non-negative numbers summing to 1. Validation
    and test sizes are floors of their ratios; train takes the remainder.
    """
    if n < 3:
        raise ValueError(f"need at least 3 sessions or plays to split, got {n}")
    n_val = int(ratios[1] * n)
    n_test = int(ratios[2] * n)
    n_train = n - n_val - n_test
    order = make_rng(seed).permutation(n)
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


def _user_song_keys(sessions: SessionTable) -> np.ndarray:
    """The (user, song) pair of every play as one int64 key, user << 32 | song."""
    return sessions.item_users() << 32 | sessions.items


def delete_train_overlap(split: SplitDataset, mode: str) -> tuple[SplitDataset, dict[str, int]]:
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
    seen = np.sort(_user_song_keys(split.train))
    keep_seen = mode == "keep-only-seen"  # else drop-seen
    parts, deleted = {}, {}
    for name in ("val", "test"):
        part = split.parts()[name]
        keys = _user_song_keys(part)
        # a key is in ``seen`` where its two insertion points differ
        keep = (np.searchsorted(seen, keys) != np.searchsorted(seen, keys, "right")) == keep_seen
        # a kept play starts a session where one started or a play was deleted
        starts = np.zeros(len(keep) + 1, dtype=bool)
        starts[part.offsets] = True
        starts[1:-1] |= ~keep[:-1]
        starts = np.flatnonzero(starts[:-1][keep])
        items = part.items[keep]
        users = part.item_users()[keep][starts]
        parts[name] = SessionTable(users, np.append(starts, len(items)), items)
        deleted[name] = len(keep) - len(items)
    return SplitDataset(split.train, **parts), deleted


def extract_examples(sessions: SessionTable, j: int) -> np.recarray:
    """One example per in-session position with at least j predecessors,
    as an int64 record array with fields ``user``, ``context`` ((j,),
    oldest first) and ``target``.

    Contexts never cross session boundaries; a session of length <= j
    yields nothing. Output is ordered by (session order, position).
    """
    if j < 1:
        raise ValueError("context length j must be >= 1")
    items = sessions.items
    pos = np.arange(len(items)) - np.repeat(sessions.offsets[:-1], sessions.lengths)
    at = np.flatnonzero(pos >= j)  # flat index of every target
    return np.rec.fromarrays(
        [sessions.item_users()[at], items[at[:, None] + np.arange(-j, 0)], items[at]],
        dtype=[("user", np.int64), ("context", np.int64, (j,)), ("target", np.int64)])


def examples_to_arrays(examples: np.recarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (users, contexts, targets) columns of ``examples`` as contiguous
    arrays; contexts is (T, j) oldest-first. An empty set raises."""
    if len(examples) == 0:
        raise ValueError("no examples")
    return tuple(np.ascontiguousarray(examples[name]) for name in ("user", "context", "target"))


def drop_unknown_users(sessions: SessionTable, train_sessions: SessionTable) -> SessionTable:
    """Drop sessions of users absent from training (their embedding would
    be untrained); warns when anything is dropped."""
    known = np.isin(sessions.users, train_sessions.users)
    dropped = len(sessions) - int(np.count_nonzero(known))
    if dropped:
        logger.warning("dropped %d sessions of users absent from training", dropped)
    return sessions.take(known)


# ---------------------------------------------------------------------------
# Prepared-dataset directory format
# ---------------------------------------------------------------------------
#
#   vocab.txt    one song key per line, line number = song index
#   users.txt    one user key per line, line number = user index
#   train.txt    one session per line: "<user_index> <i1>,<i2>,..."
#   val.txt, test.txt  same layout
#   stats.json   counts, split seed, pipeline settings
#
# Every line ends in "\n", and only "\n" ends a line: a key keeps every
# other character the parser let into it ("\r", "\x0c", "\u2028", ...).


@dataclass(slots=True)
class PreparedDataset:
    song_keys: list[str]
    user_keys: list[str]
    split: SplitDataset
    stats: dict = field(default_factory=dict)

    @property
    def n_songs(self) -> int:
        return len(self.song_keys)

    @property
    def n_users(self) -> int:
        return len(self.user_keys)


def _session_lines(sessions: SessionTable) -> str:
    """Session file text: one line "<user> <song>,<song>,..." per session."""
    distinct, at = np.unique(sessions.items, return_inverse=True)  # one string per song
    songs = np.array(list(map(str, distinct.tolist())), dtype=object)[at].tolist()
    bounds = sessions.offsets.tolist()
    return "".join(f"{u} {','.join(songs[a:b])}\n"
                   for u, a, b in zip(sessions.users.tolist(), bounds, bounds[1:]))


def _read_sessions(text: str, path, n_users: int, n_songs: int) -> SessionTable:
    """The sessions of session file ``path``: each non-empty line, cut at
    ``"\\n"`` only, split at its first space into a user index and
    comma-separated song indices, each read by ``int``. A token ``int``
    rejects, a user index without its line in users.txt and a song index
    without its line in vocab.txt raise ``ValueError`` naming ``path``."""
    # partition's tuples live one at a time; what stays is strings and ints
    parts = list(chain.from_iterable(map(str.partition, filter(None, text.split("\n")),
                                         repeat(" "))))
    heads, tails = parts[0::3], parts[2::3]
    songs = ",".join(filter(None, tails))
    try:  # an index past int64 makes an object array, and a range error below
        users = np.array(list(map(int, heads)))
        items = np.array(list(map(int, songs.split(",") if songs else [])))
    except ValueError:  # name the first token int() rejects, by the same rule
        for number, line in enumerate(text.split("\n"), 1):
            user_text, _, items_text = line.partition(" ")
            tokens = items_text.split(",") if items_text else []
            for what, tok in [("user", user_text), *(("song", t) for t in tokens)] if line else ():
                try:
                    int(tok)
                except ValueError:
                    raise ValueError(f"{path} line {number}: bad {what} index {tok!r}") from None
        raise
    for what, values, n, source in (("user", users, n_users, "users.txt"),
                                    ("song", items, n_songs, "vocab.txt")):
        lo, hi = (values.min(), values.max()) if len(values) else (0, -1)
        if lo < 0 or hi >= n:
            bad = lo if lo < 0 else hi
            raise ValueError(f"{path}: {what} index {bad} is outside the {n} lines of {source}")
    lengths = (np.fromiter(map(str.count, tails, repeat(",")), np.int64, len(tails))
               + np.fromiter(map(bool, tails), bool, len(tails)))  # commas + 1, or no song
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    return SessionTable(users.astype(np.int64), offsets, items.astype(np.int64))


def write_prepared(out_dir, prepared: PreparedDataset) -> None:
    """Write the prepared-dataset directory (see module comment for layout)."""
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(
        os.path.join(out_dir, "vocab.txt"),
        "".join(k + "\n" for k in prepared.song_keys),
    )
    atomic_write_text(
        os.path.join(out_dir, "users.txt"),
        "".join(k + "\n" for k in prepared.user_keys),
    )
    for name, sessions in prepared.split.parts().items():
        atomic_write_text(os.path.join(out_dir, f"{name}.txt"), _session_lines(sessions))
    atomic_write_json(os.path.join(out_dir, "stats.json"), prepared.stats)


def _read_keys(text: str) -> list[str]:
    """The keys of a key file: its lines, cut at ``"\\n"`` only as
    :func:`write_prepared` writes them; ``ValueError`` at a repeated key."""
    keys = text.split("\n")
    if not keys[-1]:  # after the last line end, or in an empty file
        keys.pop()
    if len(set(keys)) < len(keys):
        first = {}
        for number, key in enumerate(keys, 1):
            if first.setdefault(key, number) != number:
                raise ValueError(f"line {number} repeats the key {key!r} of line {first[key]}")
    return keys


def read_prepared(out_dir) -> PreparedDataset:
    """Read back a prepared-dataset directory.

    Every file is cut into lines at ``"\\n"`` only, the inverse of
    :func:`write_prepared`. A repeated key, an empty vocab.txt, a file
    that is not UTF-8, a stats.json that is not JSON, and a user or song
    index without its line in users.txt or vocab.txt raise ``ValueError``
    naming the file.
    """

    def path(name):
        return os.path.join(out_dir, name)

    def read(name, parse=str):
        """``parse`` of the text of file ``name``; a ``ValueError`` names the file."""
        try:
            with open(path(name), "r", encoding="utf-8", newline="") as fh:
                return parse(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path(name)}: {exc}") from None

    song_keys = read("vocab.txt", _read_keys)
    if not song_keys:
        raise ValueError(f"{path('vocab.txt')}: empty vocabulary is unusable")
    user_keys = read("users.txt", _read_keys)
    stats = read("stats.json", json.loads)
    parts = {name: _read_sessions(read(f"{name}.txt"), path(f"{name}.txt"),
                                  len(user_keys), len(song_keys))
             for name in ("train", "val", "test")}
    return PreparedDataset(song_keys, user_keys, SplitDataset(**parts), stats)


def prepare(events: EventColumns, settings: DataConfig, seed: int) -> PreparedDataset:
    """Full pipeline: vocabulary, filter, sessionize, split, overlap deletion,
    under the ``data`` config section ``settings``; ``seed`` drives the split.

    ``settings.shuffle_unit`` picks what gets shuffled before the cut: whole
    sessions (the reference, preserves the sequences the models consume) or
    single records (each part is then sessionized on its own).
    """
    kept = filter_to_vocab(events, build_vocab(events, settings.vocab_cap))
    if not kept:
        raise ValueError("no events survive vocabulary filtering")
    kept = build_user_index(kept)

    if settings.shuffle_unit == "session":
        split = split_dataset(sessionize(kept, settings.gap_seconds), settings.ratios, seed)
    else:
        parts = split_events(kept, settings.ratios, seed)
        split = SplitDataset(*(sessionize(p, settings.gap_seconds) for p in parts))
    n_sessions_in = sum(map(len, split.parts().values()))

    split, deleted = delete_train_overlap(split, settings.overlap_mode)

    stats = {
        "users": len(kept.user_keys),
        "songs": len(kept.song_keys),
        "records": len(kept),
        "records_raw": len(events),
        "sessions_before_overlap": n_sessions_in,
        "sessions": {k: len(v) for k, v in split.parts().items()},
        "events": {k: len(v.items) for k, v in split.parts().items()},
        "deleted_overlap": deleted,
        "seed": seed,
        # every data setting but where the files are
        **{k: v for k, v in asdict(settings).items() if k not in ("raw_path", "prepared_dir")},
    }
    return PreparedDataset(kept.song_keys, kept.user_keys, split, stats)
