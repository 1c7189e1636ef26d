import gc
import gzip
import io
from collections import Counter, defaultdict
from datetime import datetime, timezone
from itertools import count

import numpy as np
import pytest

from conftest import (
    format_timestamp,
    lastfm_fixture_events,
    lastfm_fixture_lines,
    session_table,
    table_rows,
)
from songrec import data
from songrec.config import DataConfig
from songrec.data import (
    OVERLAP_MODES,
    PreparedDataset,
    SHUFFLE_UNITS,
    SONG_KEY_SEP,
    EventColumns,
    SplitDataset,
    build_user_index,
    build_vocab,
    delete_train_overlap,
    extract_examples,
    examples_to_arrays,
    filter_to_vocab,
    open_event_stream,
    parse_events,
    parse_timestamp,
    prepare,
    read_prepared,
    sessionize,
    split_dataset,
    split_events,
    write_prepared,
)
from songrec.util import make_rng


RATIOS = (0.7, 0.1, 0.2)


def events_from_rows(rows) -> EventColumns:
    """Event columns of (user_key, timestamp, song_key) rows, keys coded
    by first appearance as parse_events codes them."""
    users, songs = defaultdict(count().__next__), defaultdict(count().__next__)
    rows = list(rows)
    return EventColumns(
        np.array([users[u] for u, _, _ in rows], dtype=np.int32),
        np.array([ts for _, ts, _ in rows], dtype=np.int64),
        np.array([songs[s] for _, _, s in rows], dtype=np.int32),
        list(users), list(songs),
    )


def event_rows(events: EventColumns) -> list[tuple[str, int, str]]:
    """The (user_key, timestamp, song_key) row of every play, in order."""
    return [(events.user_keys[u], ts, events.song_keys[s])
            for u, ts, s in zip(events.user.tolist(), events.ts.tolist(), events.song.tolist())]


def plays(songs, user="u"):
    """Event columns of one user playing ``songs`` at t = 0, 1, 2, ..."""
    return events_from_rows((user, t, song) for t, song in enumerate(songs))


def song_codes(events, keys):
    """The codes ``events`` gives the songs ``keys``, in that order; keys
    it never saw are left out."""
    return np.array([events.song_keys.index(k) for k in keys if k in events.song_keys],
                    dtype=np.int64)


def vocab_keys(events, cap):
    """The song keys build_vocab keeps, in vocabulary index order."""
    return [events.song_keys[c] for c in build_vocab(events, cap).tolist()]


def sorted_plays(events, user_keys, song_keys):
    """(user index, timestamp, song index) of every play, the indices its
    keys have in ``user_keys`` and ``song_keys``, laid out as sessionize
    orders them: by user index, then time, ties in input order."""
    users = {key: i for i, key in enumerate(user_keys)}
    songs = {key: i for i, key in enumerate(song_keys)}
    rows = [(users[u], ts, songs[song]) for u, ts, song in event_rows(events)]
    return sorted(rows, key=lambda r: r[:2])


def session_stamps(sessions, rows):
    """Each session's timestamps, cut from the sorted plays ``rows`` (less
    any play overlap deletion removed) at the session lengths."""
    stamps, at = [], 0
    for user, items in table_rows(sessions):
        run = rows[at : at + len(items)]
        assert [(u, i) for u, _, i in run] == [(user, i) for i in items]
        stamps.append([ts for _, ts, _ in run])
        at += len(items)
    assert at == len(rows)
    return stamps


class TestParse:
    def test_single_line_epoch_oracle(self):
        # 1241478537 verified against an independent day-count calendar oracle
        events, summary = parse_events(["u1\t2009-05-04T23:08:57Z\t\tCher\t\tBelieve"])
        assert summary.parsed == 1 and summary.skipped == 0
        assert event_rows(events) == [("u1", 1241478537, "CherBelieve")]

    def test_empty_stream(self):
        events, summary = parse_events([])
        assert len(events) == 0 and summary.parsed == 0 and summary.skipped == 0

    def test_short_line_skipped(self):
        events, summary = parse_events(["a\tb\tc\td"])
        assert len(events) == 0 and summary.skipped == 1

    def test_bad_timestamp_skipped(self):
        events, summary = parse_events(["u\tnot-a-time\t\tA\t\tT"])
        assert len(events) == 0 and summary.skipped == 1

    def test_empty_user_or_names_skipped(self):
        lines = [
            "\t2009-05-04T23:08:57Z\t\tA\t\tT",
            "u\t2009-05-04T23:08:57Z\tmbid\t\tmbid\t",
        ]
        events, summary = parse_events(lines)
        assert len(events) == 0 and summary.skipped == 2

    def test_bytes_input_and_order(self):
        lines = [
            b"u1\t2009-05-04T23:08:57Z\t\tA\t\tx",
            b"u2\t2009-05-04T23:08:58Z\t\tA\t\ty",
        ]
        events, _ = parse_events(lines)
        assert [user for user, _, _ in event_rows(events)] == ["u1", "u2"]

    def test_timestamp_round_trip(self):
        for text in ["2005-02-14T00:00:00Z", "2009-05-04T23:08:57Z", "1970-01-01T00:00:01Z"]:
            assert format_timestamp(parse_timestamp(text)) == text

    def test_gzip_stream(self, tmp_path):
        path = tmp_path / "plays.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("u1\t2009-05-04T23:08:57Z\t\tCher\t\tBelieve\n")
        with open_event_stream(path) as stream:
            events, summary = parse_events(stream)
        assert summary.parsed == 1
        assert events.ts[0] == 1241478537

    @pytest.mark.parametrize("name", ["plays.tsv", "plays.tsv.gz"])
    def test_file_lines_end_where_binary_lines_end(self, tmp_path, name):
        # a lone "\r" inside a name is part of the key, as a binary stream
        # reads it; a "\r\n" line end is not
        raw = (b"u1\t2009-05-04T23:08:57Z\t\tCher\t\tBel\rieve\n"
               b"u1\t2009-05-04T23:09:57Z\t\tCher\t\tStrong\r\n"
               b"u2\t2009-05-04T23:10:57Z\t\tA\rB\t\tC\n")
        path = tmp_path / name
        with (gzip.open if name.endswith(".gz") else open)(path, "wb") as fh:
            fh.write(raw)
        with open_event_stream(path) as stream:
            text = parse_events(stream)
        binary = parse_events(io.BytesIO(raw))
        assert event_rows(text[0]) == event_rows(binary[0])
        assert text[1] == binary[1]
        assert [song for _, _, song in event_rows(text[0])] == [
            f"Cher{SONG_KEY_SEP}Bel\rieve", f"Cher{SONG_KEY_SEP}Strong", f"A\rB{SONG_KEY_SEP}C"]


# Timestamps the canonical-form fast path must either get exactly right
# or leave to strptime: leap days, impossible dates and times, case,
# one-digit and space-padded fields, non-ASCII digits, misplaced
# separators, and 19- and 21-character strings.
ADVERSARIAL_TIMESTAMPS = [
    "2009-05-04T23:08:57Z", "1970-01-01T00:00:00Z", "1969-12-31T23:59:59Z",
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "2005-06-26T00:00:00Z",
    "1900-02-29T00:00:00Z", "2000-02-29T00:00:00Z", "2004-02-29T12:00:00Z",
    "2100-02-29T00:00:00Z", "2005-02-29T00:00:00Z", "1900-02-28T23:59:59Z",
    "2005-02-30T00:00:00Z", "2005-06-31T00:00:00Z", "2005-13-01T00:00:00Z",
    "2005-00-10T00:00:00Z", "2005-06-00T00:00:00Z", "0000-01-01T00:00:00Z",
    "2005-06-26T24:00:00Z", "2005-06-26T23:60:00Z", "2005-06-26T23:59:60Z",
    "2005-06-26T23:59:61Z", "2005-06-26T99:99:99Z",
    "2005-06-26t06:25:44z", "2005-06-26t06:25:44Z", "2005-06-26T06:25:44z",
    "2005-6-26T6:5:4Z", "2005-06-2T06:25:44Z", "2005-06-26T06:25:4Z",
    "2005-06- 5T06:25:44Z", "2005-06-26T 6:25:44Z", "2005-06-26T06: 5:44Z",
    "2005-06-26T06:25: 4Z",
    "\u0662\u0660\u0660\u0665-06-26T06:25:44Z", "2005-06-26T06:25:4\u0664Z",
    "\uff12005-06-26T06:25:44Z", "2005-06-26T0\uff16:25:44Z", "2005-0\u0666-26T06:25:44Z",
    "2005-06-26T:6:25:44Z", "2005-06-26T06::5:44Z", "2005-06-26T06:25::4Z",
    "2005/06/26T06:25:44Z", "2005-06-26 06:25:44Z", "2005-06-26T06.25.44Z",
    "2005-06-26T06:25:44+", "+005-06-26T06:25:44Z", "2005-06-26T-6:25:44Z",
    "2005-06-26T06:25:+4Z", "2005-06-26T06:25:44",
    "2005-06-26T06:25:444Z", "2005-06-26T06:25:44Z ", " 2005-06-26T06:25:44Z",
    "12005-06-26T06:25:44Z", "", "not-a-time",
]


def strptime_epoch(text):
    """Epoch seconds the way strptime reads ``text``; None if it rejects it."""
    try:
        dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        return None
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


class TestParseTimestamps:
    @pytest.mark.parametrize("text", ADVERSARIAL_TIMESTAMPS)
    def test_accepts_and_rejects_as_strptime(self, text):
        events, summary = parse_events([f"u\t{text}\t\tA\t\tT"])
        want = strptime_epoch(text)
        if want is None:
            assert len(events) == 0 and (summary.parsed, summary.skipped) == (0, 1)
        else:
            assert events.ts.tolist() == [want] and summary.parsed == 1

    def test_one_stream_agrees_line_by_line(self):
        # one block converts every string, so the verdict on one line
        # must not change the verdict on another
        texts = ADVERSARIAL_TIMESTAMPS + ADVERSARIAL_TIMESTAMPS[::-1]
        lines = [f"u{i}\t{t}\t\tA\t\tT" for i, t in enumerate(texts)]
        events, summary = parse_events(lines)
        want = [(f"u{i}", strptime_epoch(t)) for i, t in enumerate(texts)]
        want = [w for w in want if w[1] is not None]
        assert [(user, ts) for user, ts, _ in event_rows(events)] == want
        assert summary.skipped == len(texts) - len(want)

    def test_verdicts_hold_across_block_boundaries(self, monkeypatch):
        # blocks of 3 lines cut the stream at every offset; users recur,
        # so a user first seen on a rejected line must get its code from
        # its first parsed line, in whichever block that is
        monkeypatch.setattr(data, "PARSE_BLOCK", 3)
        texts = ADVERSARIAL_TIMESTAMPS + ADVERSARIAL_TIMESTAMPS[::-1]
        lines = [f"u{i % 7}\t{t}\t\tA\t\tT{i % 5}" for i, t in enumerate(texts)]
        lines[10:10] = ["", "u9\t2009-05-04T23:08:57Z\t\tA", "u9\t2009-05-04T23:08:57Z\t\t\t\t"]
        events, summary = parse_events(lines)
        want = [(f"u{i % 7}", strptime_epoch(t), f"A{SONG_KEY_SEP}T{i % 5}")
                for i, t in enumerate(texts)]
        want = [w for w in want if w[1] is not None]
        assert event_rows(events) == want
        assert (summary.parsed, summary.skipped) == (len(want), len(texts) + 2 - len(want))
        assert events.user_keys == list(dict.fromkeys(user for user, _, _ in want))
        assert events.song_keys == list(dict.fromkeys(song for _, _, song in want))

    def test_equal_keys_share_one_object(self):
        lines = [f"user_{i % 2}\t2009-05-04T23:08:5{i}Z\t\tA\t\tT{i % 3}" for i in range(6)]
        events, _ = parse_events(lines)
        assert (len(events.user_keys), len(events.song_keys)) == (2, 3)
        rows = event_rows(events)
        for a_user, _, a_song in rows:
            for b_user, _, b_song in rows:
                assert (a_user is b_user) == (a_user == b_user)
                assert (a_song is b_song) == (a_song == b_song)


class TestVocab:
    def test_cap_keeps_most_played(self):
        events = plays("aaabbc")
        assert vocab_keys(events, cap=2) == ["a", "b"]

    def test_cap_above_distinct_keeps_all(self):
        events = plays("abc")
        assert len(build_vocab(events, cap=100)) == 3

    def test_tie_broken_by_first_appearance(self):
        events = plays("abab")
        assert vocab_keys(events, cap=1) == ["a"]

    def test_empty_events_error(self):
        with pytest.raises(ValueError):
            build_vocab(plays([]), cap=5)

    def test_forward_reverse_inverse(self):
        # song code -> vocabulary index -> key gives back the song's key
        events = plays("dcabacbdcd")
        kept = filter_to_vocab(events, build_vocab(events, cap=10))
        assert sorted(kept.song_keys) == sorted(events.song_keys)
        assert event_rows(kept) == event_rows(events)

    def test_brute_force_count_oracle(self):
        rng = np.random.default_rng(4)
        songs = [f"s{i}" for i in rng.integers(0, 12, size=200)]
        events = plays(songs)
        # oracle: count dict + stable sort by (-count, first pos)
        counts, first = {}, {}
        for i, s in enumerate(songs):
            counts[s] = counts.get(s, 0) + 1
            first.setdefault(s, i)
        want = sorted(counts, key=lambda s: (-counts[s], first[s]))[:5]
        assert vocab_keys(events, cap=5) == want


class TestFilter:
    def test_all_in_vocab_identity(self):
        events = plays("abc")
        assert event_rows(filter_to_vocab(events, build_vocab(events, 10))) == event_rows(events)

    def test_none_in_vocab_empty(self):
        events = plays("abc")
        assert len(filter_to_vocab(events, song_codes(events, ["z"]))) == 0

    def test_mixed_is_exact_subsequence(self):
        rng = np.random.default_rng(9)
        events = plays([f"s{x}" for x in rng.integers(0, 9, 100)])
        vocab = ["s1", "s3", "s5"]
        got = filter_to_vocab(events, song_codes(events, vocab))
        assert got.song_keys == vocab
        assert event_rows(got) == [e for e in event_rows(events) if e[2] in {"s1", "s3", "s5"}]
        assert got.song.tolist() == [vocab.index(e[2]) for e in event_rows(got)]


def session_rows(user, t0, songs, gaps):
    """(user, timestamp, song) rows of ``songs`` played ``gaps`` apart from t0."""
    ts = t0
    out = []
    for i, song in enumerate(songs):
        out.append((user, ts, song))
        if i < len(gaps):
            ts += gaps[i]
    return out


class TestSessionize:
    def _run(self, events, gap_seconds=3600):
        """The sessions of ``events`` under a vocabulary of every song, and
        the plays as prepare numbers them for sessionize."""
        kept = build_user_index(filter_to_vocab(events, build_vocab(events, 10000)))
        return sessionize(kept, gap_seconds), kept

    def test_small_gaps_one_session(self):
        rows = session_rows("u", 0, list("abcd"), [600, 600, 600])
        sessions, _ = self._run(events_from_rows(rows))
        assert sessions.lengths.tolist() == [4]

    def test_exact_hour_gap_splits(self):
        rows = session_rows("u", 0, list("ab"), [3600])
        sessions, _ = self._run(events_from_rows(rows))
        assert sessions.lengths.tolist() == [1, 1]

    def test_one_second_under_does_not_split(self):
        rows = session_rows("u", 0, list("ab"), [3599])
        sessions, _ = self._run(events_from_rows(rows))
        assert sessions.lengths.tolist() == [2]

    def test_interleaved_users_are_independent(self):
        a = session_rows("a", 0, list("xy"), [120])
        b = session_rows("b", 60, list("pq"), [120])
        merged = sorted(a + b, key=lambda e: e[1])
        sessions, kept = self._run(events_from_rows(merged))
        assert len(sessions) == 2
        by_user = dict(table_rows(sessions))
        songs = {key: [kept.song_keys[i] for i in by_user[u]]
                 for u, key in enumerate(kept.user_keys)}
        assert songs == {"a": ["x", "y"], "b": ["p", "q"]}

    def test_out_of_order_input_sorted(self):
        rows = session_rows("u", 0, list("abc"), [60, 60])
        sessions, kept = self._run(events_from_rows(reversed(rows)))
        assert [kept.song_keys[i] for i in table_rows(sessions)[0][1]] == ["a", "b", "c"]

    def test_gap_invariant_and_idempotence(self, fixture_events):
        sessions, kept = self._run(fixture_events)
        keys = kept.user_keys, kept.song_keys
        stamps = session_stamps(sessions, sorted_plays(kept, *keys))
        for (user, items), timestamps in zip(table_rows(sessions), stamps):
            gaps = np.diff(timestamps)
            assert (gaps >= 0).all() and (gaps < 3600).all()
            # re-sessionizing a session's own events returns it unchanged
            events = EventColumns(np.full(len(items), user, dtype=np.int32),
                                  np.array(timestamps, dtype=np.int64),
                                  np.array(items, dtype=np.int32), *keys)
            again = sessionize(events, 3600)
            assert len(again) == 1
            again_stamps = session_stamps(again, sorted_plays(events, *keys))
            assert table_rows(again)[0][1] == items and again_stamps[0] == timestamps

    def test_fixture_session_shape(self, fixture_events):
        sessions, _ = self._run(fixture_events)
        assert len(sessions) == 20
        assert (sessions.lengths == 10).all()


class TestSplit:
    def _sessions(self, n):
        return session_table((0, [i, i + 1]) for i in range(n))

    def test_sizes_7_1_2(self):
        split = split_dataset(self._sessions(10), RATIOS, seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (7, 1, 2)

    def test_deterministic(self):
        a = split_dataset(self._sessions(10), RATIOS, seed=42)
        b = split_dataset(self._sessions(10), RATIOS, seed=42)
        assert table_rows(a.train) == table_rows(b.train)
        assert table_rows(a.test) == table_rows(b.test)

    def test_seed_changes_permutation_not_sizes(self):
        a = split_dataset(self._sessions(40), RATIOS, seed=1)
        b = split_dataset(self._sessions(40), RATIOS, seed=2)
        assert len(a.train) == len(b.train)
        assert table_rows(a.train) != table_rows(b.train)

    def test_partition_no_loss_no_duplication(self):
        sessions = self._sessions(23)
        split = split_dataset(sessions, RATIOS, seed=3)
        got = [tuple(items) for part in (split.train, split.val, split.test)
               for _, items in table_rows(part)]
        assert sorted(got) == sorted(tuple(items) for _, items in table_rows(sessions))

    def test_take_keeps_each_session_whole(self):
        sessions = session_table([(0, [1, 2]), (1, []), (2, [3]), (3, [4, 5, 6])])
        rows = table_rows(sessions)
        assert table_rows(sessions.take(np.array([3, 1, 0]))) == [rows[3], rows[1], rows[0]]
        assert table_rows(sessions.take(np.array([False, True, True, False]))) == rows[1:3]

    def test_too_few_sessions_error(self):
        with pytest.raises(ValueError):
            split_dataset(self._sessions(2), RATIOS, seed=0)

    def test_record_level_split(self):
        events = events_from_rows(("u", i * 10, f"s{i}") for i in range(20))
        train, val, test = split_events(events, RATIOS, seed=0)
        assert (len(train), len(val), len(test)) == (14, 2, 4)
        assert sorted(e[2] for part in (train, val, test) for e in event_rows(part)) == sorted(
            e[2] for e in event_rows(events)
        )


class TestOverlapDeletion:
    def _split(self, train, val, test):
        return SplitDataset(session_table(train), session_table(val), session_table(test))

    def test_full_overlap_removes_session(self):
        train = [(0, [1, 2, 3])]
        test = [(0, [2, 3, 2])]
        cleaned, deleted = delete_train_overlap(self._split(train, [], test), "drop-seen")
        assert table_rows(cleaned.test) == [] and deleted == {"val": 0, "test": 3}

    def test_disjoint_unchanged(self):
        train = [(0, [1, 2])]
        test = [(0, [5, 6])]
        cleaned, deleted = delete_train_overlap(self._split(train, [], test), "drop-seen")
        assert table_rows(cleaned.test)[0][1] == [5, 6] and deleted["test"] == 0

    def test_three_of_five_overlap_splits_session(self):
        # survivors at positions 1 and 3 are separated by a deletion:
        # the session splits into two singletons
        train = [(0, [10, 11, 12])]
        test = [(0, [10, 4, 11, 5, 12])]  # played at t = 0..4
        cleaned, deleted = delete_train_overlap(self._split(train, [], test), "drop-seen")
        assert deleted["test"] == 3
        assert [items for _, items in table_rows(cleaned.test)] == [[4], [5]]
        survivors = [(0, t, i) for t, i in enumerate(test[0][1]) if i not in train[0][1]]
        assert session_stamps(cleaned.test, survivors) == [[1], [3]]

    def test_other_users_unaffected(self):
        train = [(0, [1, 2])]
        test = [(1, [1, 2])]  # same songs, different user
        cleaned, _ = delete_train_overlap(self._split(train, [], test), "drop-seen")
        assert table_rows(cleaned.test)[0][1] == [1, 2]

    def test_keep_only_seen_mode(self):
        train = [(0, [1, 2])]
        test = [(0, [1, 7, 2, 8])]
        cleaned, deleted = delete_train_overlap(
            self._split(train, [], test), mode="keep-only-seen"
        )
        assert deleted["test"] == 2
        assert [items for _, items in table_rows(cleaned.test)] == [[1], [2]]

    def test_none_mode_is_identity(self):
        split = self._split([(0, [1])], [], [(0, [1])])
        cleaned, deleted = delete_train_overlap(split, mode="none")
        assert table_rows(cleaned.test)[0][1] == [1] and deleted == {"val": 0, "test": 0}


def reference_examples(sessions, j):
    """The per-position loop extract_examples replaced: one
    (user, context, target) tuple per in-session position with j
    predecessors of the (user, songs) rows ``sessions``, in (session,
    position) order."""
    rows = []
    for user, items in sessions:
        for t in range(j, len(items)):
            rows.append((user, tuple(items[t - j : t]), items[t]))
    return rows


class TestExtractExamples:
    def test_length_six_order_five(self):
        assert len(extract_examples(session_table([(0, list(range(6)))]), 5)) == 1

    def test_short_session_yields_nothing(self):
        assert len(extract_examples(session_table([(0, [1, 2, 3])]), 3)) == 0

    def test_hand_enumeration(self):
        examples = extract_examples(session_table([(7, [3, 1, 4, 1, 5])]), 2)
        assert [(tuple(e.context), e.target) for e in examples] == [
            ((3, 1), 4),
            ((1, 4), 1),
            ((4, 1), 5),
        ]
        assert all(e.user == 7 for e in examples)

    def test_count_formula(self):
        rng = np.random.default_rng(0)
        sessions = [
            (0, list(rng.integers(0, 5, size=n))) for n in rng.integers(1, 12, size=30)
        ]
        for j in (1, 2, 5):
            want = sum(max(0, len(items) - j) for _, items in sessions)
            assert len(extract_examples(session_table(sessions), j)) == want
            assert session_table(sessions).n_examples(j) == want

    def test_bad_order_error(self):
        with pytest.raises(ValueError):
            extract_examples(session_table([]), 0)

    @pytest.mark.parametrize("j", range(1, 7))
    def test_matches_the_per_position_loop(self, j):
        rng = np.random.default_rng(100 + j)
        sessions = [(int(rng.integers(50)), [int(x) for x in rng.integers(0, 1000, n)])
                    for n in rng.integers(0, j + 4, size=200)]
        examples = extract_examples(session_table(sessions), j)
        want = reference_examples(sessions, j)
        assert len(examples) == len(want) > 0
        for name in ("user", "context", "target"):
            assert examples[name].dtype == np.int64
        assert examples.context.shape == (len(want), j)
        assert examples.user.tolist() == [u for u, _, _ in want]
        assert [tuple(c) for c in examples.context.tolist()] == [c for _, c, _ in want]
        assert examples.target.tolist() == [t for _, _, t in want]

    @pytest.mark.parametrize("j", [1, 3])
    def test_no_sessions_give_an_empty_array(self, j):
        examples = extract_examples(session_table([]), j)
        assert len(examples) == 0
        assert examples.context.shape == (0, j)
        assert examples.dtype["context"].base == np.int64

    def test_arrays_conversion(self):
        examples = extract_examples(session_table([(2, [3, 1, 4, 1, 5])]), 2)
        users, contexts, targets = examples_to_arrays(examples)
        assert users.tolist() == [2, 2, 2]
        assert contexts.tolist() == [[3, 1], [1, 4], [4, 1]]
        assert targets.tolist() == [4, 1, 5]
        assert all(a.flags.c_contiguous and a.dtype == np.int64
                   for a in (users, contexts, targets))

    def test_arrays_conversion_refuses_an_empty_set(self):
        with pytest.raises(ValueError, match="no examples"):
            examples_to_arrays(extract_examples(session_table([(0, [1])]), 1))


class TestPipeline:
    def test_event_counts_never_increase(self, fixture_events):
        prepared = prepare(fixture_events, DataConfig(vocab_cap=10000), seed=5)
        stats = prepared.stats
        assert stats["records"] <= stats["records_raw"]
        total_after = sum(stats["events"].values())
        assert total_after <= stats["records"]

    def test_session_partition_before_deletion(self, fixture_events):
        prepared = prepare(fixture_events, DataConfig(overlap_mode="none"), seed=5)
        assert sum(prepared.stats["sessions"].values()) == prepared.stats[
            "sessions_before_overlap"
        ]

    def test_fixture_hand_counts(self, fixture_events):
        # hand-derived from the fixture construction: any val/test session
        # loses its 5 shared tracks and splits into runs of 1, 3, 1
        prepared = prepare(fixture_events, DataConfig(), seed=5)
        stats = prepared.stats
        assert stats["users"] == 2
        assert stats["songs"] == 110
        assert stats["records"] == 200
        assert stats["sessions_before_overlap"] == 20
        assert stats["sessions"] == {"train": 14, "val": 6, "test": 12}
        assert stats["events"] == {"train": 140, "val": 10, "test": 20}
        assert stats["deleted_overlap"] == {"val": 10, "test": 20}

    def test_fixture_per_order_example_counts(self, fixture_events):
        prepared = prepare(fixture_events, DataConfig(), seed=5)
        split = prepared.split
        assert len(extract_examples(split.train, 5)) == 70
        assert len(extract_examples(split.train, 1)) == 126
        # survivors per val/test session are runs of lengths 1, 3, 1
        assert len(extract_examples(split.test, 1)) == 8
        assert len(extract_examples(split.test, 2)) == 4

    def test_record_shuffle_unit(self, fixture_events):
        settings = DataConfig(shuffle_unit="record")
        prepared = prepare(fixture_events, settings, seed=5)
        assert sum(prepared.stats["events"].values()) <= 200
        # each part's plays, sorted as sessionize lays them out, less the
        # plays drop-seen deletion removed, cut at the session lengths
        seen = {(user, i) for user, items in table_rows(prepared.split.train) for i in items}
        kept = filter_to_vocab(fixture_events, song_codes(fixture_events, prepared.song_keys))
        parts = split_events(kept, settings.ratios, seed=5)
        for (name, sessions), events in zip(prepared.split.parts().items(), parts):
            rows = sorted_plays(events, prepared.user_keys, prepared.song_keys)
            if name != "train":
                rows = [r for r in rows if (r[0], r[2]) not in seen]
            for timestamps in session_stamps(sessions, rows):
                gaps = np.diff(timestamps)
                assert (gaps < 3600).all()

    def test_prepared_round_trip(self, fixture_events, tmp_path):
        prepared = prepare(fixture_events, DataConfig(), seed=5)
        out = tmp_path / "prep"
        write_prepared(out, prepared)
        back = read_prepared(out)
        assert back.song_keys == prepared.song_keys
        assert back.user_keys == prepared.user_keys
        for name in ("train", "val", "test"):
            a = prepared.split.parts()[name]
            b = back.split.parts()[name]
            assert table_rows(a) == table_rows(b)
        assert back.stats == prepared.stats

    # str.splitlines breaks a line at each of these; only "\n" ends one in
    # the prepared files
    @pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_keys_with_line_breaking_characters_round_trip(self, tmp_path, char):
        lines = [line.replace("alice", f"ali{char}ce").replace("shared-", f"shared{char}")
                 for line in lastfm_fixture_lines()]
        prepared = prepare(parse_events(lines)[0], DataConfig(), seed=5)
        assert f"ali{char}ce" in prepared.user_keys
        assert sum(char in key for key in prepared.song_keys) == 10  # both users' shared songs
        write_prepared(tmp_path, prepared)
        back = read_prepared(tmp_path)
        assert back.song_keys == prepared.song_keys
        assert back.user_keys == prepared.user_keys
        assert table_rows(back.split.train) == table_rows(prepared.split.train)

    def test_read_back_holds_no_object_per_session(self, tmp_path):
        # objects that live on after the read are scanned by every later
        # full GC collection, in whichever stage it lands
        rng = np.random.default_rng(7)
        sessions = session_table((int(rng.integers(20)), rng.integers(0, 50, n).tolist())
                                 for n in rng.integers(0, 9, size=12_000))
        write_prepared(tmp_path, PreparedDataset([f"s{i}" for i in range(50)],
                                                 [f"u{i}" for i in range(20)],
                                                 SplitDataset(sessions, sessions, sessions)))
        gc.collect()
        before = len(gc.get_objects())
        back = read_prepared(tmp_path)
        grown = len(gc.get_objects()) - before
        assert table_rows(back.split.test) == table_rows(sessions)
        assert grown < 100

    @pytest.mark.parametrize("line, what, token", [
        ("x 0,1", "user", "x"),
        ("0 3,y", "song", "y"),
        ("1 4,,5", "song", ""),
    ])
    def test_malformed_line_names_the_file_and_line(self, fixture_events, tmp_path, line,
                                                    what, token):
        out = tmp_path / "prep"
        write_prepared(out, prepare(fixture_events, DataConfig(), seed=5))
        number = len((out / "val.txt").read_text(encoding="utf-8").splitlines()) + 1
        with open(out / "val.txt", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError) as err:
            read_prepared(out)
        assert str(err.value) == f"{out / 'val.txt'} line {number}: bad {what} index {token!r}"

    @pytest.mark.parametrize("line, what, bad, limit, source", [
        ("2 0,1", "user", 2, 2, "users.txt"),
        ("-1 0,1", "user", -1, 2, "users.txt"),
        ("0 3,110", "song", 110, 110, "vocab.txt"),
        ("1 4,-2", "song", -2, 110, "vocab.txt"),
        ("0 3,99999999999999999999", "song", 99999999999999999999, 110, "vocab.txt"),
    ])
    def test_out_of_range_index_names_the_file(self, fixture_events, tmp_path, line, what,
                                               bad, limit, source):
        out = tmp_path / "prep"
        write_prepared(out, prepare(fixture_events, DataConfig(), seed=5))
        with open(out / "val.txt", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError) as err:
            read_prepared(out)
        assert str(err.value) == (
            f"{out / 'val.txt'}: {what} index {bad} is outside the {limit} lines of {source}"
        )


def oracle_prepare(rows, settings, seed):
    """prepare on (user_key, timestamp, song_key) rows in plain Python, one
    play at a time: the vocabulary by count descending then first
    appearance, users by first appearance among kept plays, each user's
    plays stably sorted by time and broken at gaps >= gap_seconds, the
    seeded cut over sessions or over plays, and the overlap rule. Returns
    (vocab keys, user keys, {part: [(user, songs), ...]})."""
    counts = Counter(song for _, _, song in rows)  # most_common sorts stably
    vocab = [song for song, _ in counts.most_common(settings.vocab_cap)]
    index = {song: i for i, song in enumerate(vocab)}
    kept = [r for r in rows if r[2] in index]
    users = {}
    for user, _, _ in kept:
        users.setdefault(user, len(users))

    def sessions_of(part):
        per_user = defaultdict(list)
        for user, ts, song in part:
            per_user[users[user]].append((ts, index[song]))
        sessions = []
        for u in sorted(per_user):
            items, last = [], None
            for ts, song in sorted(per_user[u], key=lambda play: play[0]):
                if items and ts - last >= settings.gap_seconds:
                    sessions.append((u, items))
                    items = []
                items.append(song)
                last = ts
            sessions.append((u, items))
        return sessions

    def cut(items):
        n = len(items)
        n_val, n_test = int(settings.ratios[1] * n), int(settings.ratios[2] * n)
        n_train = n - n_val - n_test
        shuffled = [items[i] for i in make_rng(seed).permutation(n)]
        return shuffled[:n_train], shuffled[n_train : n_train + n_val], shuffled[n_train + n_val :]

    def clean(part, train):
        # a deleted play ends the run of kept ones; empty runs are no session
        seen = defaultdict(set)
        for u, items in train:
            seen[u].update(items)
        out = []
        for u, items in part:
            run = []
            for song in items:
                if (song in seen[u]) == (settings.overlap_mode == "keep-only-seen"):
                    run.append(song)
                elif run:
                    out.append((u, run))
                    run = []
            if run:
                out.append((u, run))
        return out

    if settings.shuffle_unit == "session":
        train, val, test = cut(sessions_of(kept))
    else:
        train, val, test = map(sessions_of, cut(kept))
    if settings.overlap_mode != "none":
        val, test = clean(val, train), clean(test, train)
    return vocab, list(users), {"train": train, "val": val, "test": test}


def random_log(rng, gap):
    """(user, timestamp, artist, track) plays of a few users, interleaved
    and now and then out of order, with equal timestamps, gaps of exactly
    ``gap`` and one second either side of it, and a small catalog whose
    songs often tie in count."""
    streams = []
    for u in range(int(rng.integers(1, 6))):
        ts = int(rng.integers(-10**6, 10**9))
        stream = []
        for _ in range(int(rng.integers(1, 80))):
            ts += int(rng.choice([0, 0, 1, 30, gap - 1, gap, gap, gap + 1, 10 * gap]))
            song = int(rng.integers(0, 14))
            stream.append((f"user-{u}", ts, f"artist-{song % 3}", f"track-{song}"))
        streams.append(stream)
    log = []
    while any(streams):
        stream = streams[int(rng.choice([i for i, s in enumerate(streams) if s]))]
        log.append(stream.pop(0))
    for i in rng.integers(0, len(log) - 1, size=len(log) // 10).tolist():
        log[i], log[i + 1] = log[i + 1], log[i]
    return log


class TestPrepareOracle:
    @pytest.mark.parametrize("unit", SHUFFLE_UNITS)
    @pytest.mark.parametrize("seed", range(6))
    def test_prepare_matches_the_python_oracle(self, monkeypatch, unit, seed):
        monkeypatch.setattr(data, "PARSE_BLOCK", 7)
        rng = np.random.default_rng(seed)
        gap = int(rng.choice([60, 1800, 3600]))
        log = random_log(rng, gap)
        settings = DataConfig(vocab_cap=int(rng.integers(3, 12)), gap_seconds=gap,
                              shuffle_unit=unit, overlap_mode=OVERLAP_MODES[seed % 3])
        lines = [f"{user}\t{format_timestamp(ts)}\t\t{artist}\t\t{track}"
                 for user, ts, artist, track in log]
        events, summary = parse_events(lines)
        assert summary.parsed == len(log)
        try:
            prepared = prepare(events, settings, seed)
        except ValueError as err:  # too few sessions or plays to split
            assert "need at least 3" in str(err)
            return
        rows = [(user, ts, artist + SONG_KEY_SEP + track) for user, ts, artist, track in log]
        vocab, users, split = oracle_prepare(rows, settings, seed)
        assert prepared.song_keys == vocab
        assert prepared.user_keys == users
        for name, sessions in split.items():
            assert table_rows(prepared.split.parts()[name]) == sessions
