"""Seeded, vectorised generator of last.fm-1k-shaped play logs.

Each line has the layout of the last.fm-1k dump:

    user TAB iso-timestamp TAB artist-mbid TAB artist-name TAB track-mbid TAB track-name

Lines are grouped by user, newest play first, as in the real file. The
shape of the log is set by :class:`LogShape`: user count and activity
skew, total lines, song universe and popularity skew, session lengths,
repeat-listening rate, album continuation inside sessions,
and the share of malformed lines. Every malformed line is one that the
parser must count as skipped (too few fields, a bad timestamp, an empty
user, or both name fields empty); none is blank, because blank lines are
ignored without being counted.

The same (shape, seed) always writes the same bytes. The counts written
go to a JSON sidecar next to the log, so the benchmark can check the
parser's summary against them.

    python3 perfbench/synthlog.py --lines 20000 --seed 3 out.tsv
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

# 2005-02-14 .. 2008-01-01, the span where last.fm-1k users start listening
_START_LO = 1108339200
_START_HI = 1199145600

MALFORMED_KINDS = ("few_fields", "bad_timestamp", "empty_user", "empty_names")
# unverified guesses at last.fm-1k's shape (see README.md, "Log shape")
ZIPF = 0.9  # popularity exponent over the song universe
USER_SKEW = 0.5  # lognormal sigma of per-user activity
CONTINUE_RATE = 0.2  # share of in-session plays that go on with the album
SESSION_GAP_MEAN_S = 43_200.0  # mean extra seconds between a user's sessions
LIBRARY = 60  # songs in each user's library, the pool replays come from
ALBUM = 12  # songs per album, the unit of in-session continuation


@dataclass(frozen=True)
class LogShape:
    users: int = 1000
    lines: int = 100_000  # total lines written, malformed ones included
    universe: int = 40_000  # distinct songs the generator can draw
    session_mean: float = 12.0  # mean session length in plays, uniform on [mean/2, 3 mean/2]
    repeat_rate: float = 0.3  # share of fresh picks replayed from the user's library
    malformed_share: float = 0.01

    def validate(self):
        if self.users < 1 or self.lines < 1 or self.universe < ALBUM:
            raise ValueError(f"bad log shape {self}")
        for name in ("repeat_rate", "malformed_share"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.lines - round(self.lines * self.malformed_share) < self.users:
            raise ValueError("need at least one well-formed play per user")
        if self.session_mean < 1.0:
            raise ValueError("session_mean must be >= 1")


def _uuid_strings(rng, n: int, empty_share: float) -> list[str]:
    """Random MusicBrainz-style ids; a share of them left empty."""
    halves = rng.integers(0, 2**63, size=(n, 2), dtype=np.int64).tolist()
    out = []
    for (a, b), empty in zip(halves, (rng.random(n) < empty_share).tolist()):
        if empty:
            out.append("")
            continue
        s = f"{a:016x}{b:016x}"
        out.append(f"{s[:8]}-{s[8:12]}-{s[12:16]}-{s[16:20]}-{s[20:]}")
    return out


def _song_columns(shape: LogShape, rng, songs: np.ndarray) -> list[str]:
    """The four tab-joined artist/track columns of each song in ``songs``
    (sorted, distinct); only the songs the log plays are materialised."""
    albums = -(-shape.universe // ALBUM)
    n_artists = max(1, albums // 3)
    artist_of_song = (songs // ALBUM) % n_artists
    artists, artist_pos = np.unique(artist_of_song, return_inverse=True)
    artist_ids = _uuid_strings(rng, artists.size, 0.05)
    track_ids = _uuid_strings(rng, songs.size, 0.12)
    accents = ("", "", "", "é", "ø", "ü")  # some non-ASCII names, as in the dump
    artist_names = [f"Artist {a:06d}{accents[a % len(accents)]}" for a in artists.tolist()]
    return [
        f"{artist_ids[a]}\t{artist_names[a]}\t{track_ids[i]}\tTrack {s:07d}"
        for i, (s, a) in enumerate(zip(songs.tolist(), artist_pos.tolist()))
    ]


def _draw_popular(rng, cum: np.ndarray, size: int) -> np.ndarray:
    idx = np.searchsorted(cum, rng.random(size), side="right")
    return np.minimum(idx, cum.shape[0] - 1)


def generate_lines(shape: LogShape, seed: int) -> tuple[list[str], dict]:
    """Return the log lines (no newlines) and the counts written."""
    shape.validate()
    rng = np.random.default_rng(seed)
    n_bad = round(shape.lines * shape.malformed_share)
    n_good = shape.lines - n_bad

    # per-user play counts: heavy-tailed activity, at least one play each
    weights = rng.lognormal(0.0, USER_SKEW, size=shape.users)
    counts = 1 + rng.multinomial(n_good - shape.users, weights / weights.sum())
    user = np.repeat(np.arange(shape.users), counts)
    first = np.zeros(n_good, dtype=bool)
    first[np.concatenate(([0], np.cumsum(counts)[:-1]))] = True

    # sessions: lengths uniform on [mean/2, 3 mean/2], restarted at each user
    # (the last session of a user is cut short); gaps >= 3601 s between
    # sessions, < 3600 s inside
    lo = max(1, int(np.ceil(shape.session_mean / 2)))
    hi = max(lo, int(np.floor(3 * shape.session_mean / 2)))
    new_session = np.zeros(n_good, dtype=bool)
    offset = 0
    for c in counts.tolist():
        ends = np.cumsum(rng.integers(lo, hi + 1, size=c // lo + 1))
        starts = np.concatenate(([0], ends[ends < c]))
        new_session[offset + starts] = True
        offset += c
    gaps = rng.integers(30, 600, size=n_good)
    between = new_session & ~first
    gaps[between] = 3601 + rng.exponential(SESSION_GAP_MEAN_S, size=int(between.sum())).astype(np.int64)
    gaps[first] = 0
    elapsed = np.cumsum(gaps)
    user_start = rng.integers(_START_LO, _START_HI, size=shape.users)
    ts = user_start[user] + elapsed - elapsed[first][user]

    # songs: popularity ranks are a random permutation of the universe
    pop = 1.0 / np.arange(1, shape.universe + 1) ** ZIPF
    song_at_rank = rng.permutation(shape.universe)
    cum = np.cumsum(pop / pop.sum())
    library = song_at_rank[_draw_popular(rng, cum, shape.users * LIBRARY)]
    library = library.reshape(shape.users, LIBRARY)
    fresh = song_at_rank[_draw_popular(rng, cum, n_good)]
    replay = rng.random(n_good) < shape.repeat_rate
    fresh[replay] = library[user[replay], rng.integers(0, LIBRARY, size=int(replay.sum()))]
    # album continuation: a play goes on from the last freshly picked one
    anchor = new_session | (rng.random(n_good) >= CONTINUE_RATE)
    idx = np.arange(n_good)
    last_anchor = np.maximum.accumulate(np.where(anchor, idx, 0))
    base = fresh[last_anchor]
    step = idx - last_anchor
    song = (base // ALBUM) * ALBUM + (base % ALBUM + step) % ALBUM
    song = np.where(song < shape.universe, song, base)

    played, song_pos = np.unique(song, return_inverse=True)
    columns = _song_columns(shape, rng, played)
    users = [f"user_{u + 1:06d}" for u in range(shape.users)]
    stamps = np.datetime_as_string(ts.astype("datetime64[s]"), unit="s").tolist()
    # newest play first within each user, users in order, as in the dump
    order = np.lexsort((-ts, user))
    u_l, s_l = user[order].tolist(), song_pos[order].tolist()
    good = [f"{users[u]}\t{stamps[i]}Z\t{columns[s]}" for u, s, i in zip(u_l, s_l, order.tolist())]

    lines: list[str] = []
    bad_at = set(rng.choice(shape.lines, size=n_bad, replace=False).tolist()) if n_bad else set()
    kinds = rng.integers(0, len(MALFORMED_KINDS), size=n_bad).tolist()
    templates = rng.integers(0, n_good, size=n_bad).tolist()
    kind_counts = dict.fromkeys(MALFORMED_KINDS, 0)
    g = b = 0
    for pos in range(shape.lines):
        if pos in bad_at:
            kind = MALFORMED_KINDS[kinds[b]]
            lines.append(_corrupt(good[templates[b]], kind))
            kind_counts[kind] += 1
            b += 1
        else:
            lines.append(good[g])
            g += 1
    written = {
        "lines": shape.lines,
        "malformed": n_bad,
        "plays": n_good,
        "malformed_kinds": kind_counts,
        "seed": seed,
        "shape": dataclasses.asdict(shape),
    }
    return lines, written


def _corrupt(line: str, kind: str) -> str:
    f = line.split("\t")
    if kind == "few_fields":
        return "\t".join(f[:4])
    if kind == "bad_timestamp":
        f[1] = f[1][:5] + "13" + f[1][7:]  # month 13
    elif kind == "empty_user":
        f[0] = ""
    else:  # empty_names
        f[3] = f[5] = ""
    return "\t".join(f)


def write_log(path: str, shape: LogShape, seed: int) -> dict:
    """Write the log to ``path`` and its counts to ``path + '.json'``."""
    lines, written = generate_lines(shape, seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(written, fh, indent=2, sort_keys=True)
    return written


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out")
    p.add_argument("--seed", type=int, default=0)
    for f in dataclasses.fields(LogShape):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    args = p.parse_args(argv)
    shape = LogShape(**{f.name: getattr(args, f.name) for f in dataclasses.fields(LogShape)})
    written = write_log(os.fspath(args.out), shape, args.seed)
    print(json.dumps({k: written[k] for k in ("lines", "malformed", "plays")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
