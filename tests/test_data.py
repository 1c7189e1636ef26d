import gzip
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import lastfm_fixture_events, lastfm_fixture_lines
from songrec.config import DataConfig
from songrec.data import (
    ListeningEvent,
    Session,
    SplitDataset,
    VocabMap,
    build_user_index,
    build_vocab,
    delete_train_overlap,
    extract_examples,
    examples_to_arrays,
    filter_to_vocab,
    format_timestamp,
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


RATIOS = (0.7, 0.1, 0.2)


def ev(user, ts, song):
    return ListeningEvent(user, ts, song)


class TestParse:
    def test_single_line_epoch_oracle(self):
        # 1241478537 verified against an independent day-count calendar oracle
        events, summary = parse_events(["u1\t2009-05-04T23:08:57Z\t\tCher\t\tBelieve"])
        assert summary.parsed == 1 and summary.skipped == 0
        assert events == [ListeningEvent("u1", 1241478537, "CherBelieve")]

    def test_empty_stream(self):
        events, summary = parse_events([])
        assert events == [] and summary.parsed == 0 and summary.skipped == 0

    def test_short_line_skipped(self):
        events, summary = parse_events(["a\tb\tc\td"])
        assert events == [] and summary.skipped == 1

    def test_bad_timestamp_skipped(self):
        events, summary = parse_events(["u\tnot-a-time\t\tA\t\tT"])
        assert events == [] and summary.skipped == 1

    def test_empty_user_or_names_skipped(self):
        lines = [
            "\t2009-05-04T23:08:57Z\t\tA\t\tT",
            "u\t2009-05-04T23:08:57Z\tmbid\t\tmbid\t",
        ]
        events, summary = parse_events(lines)
        assert events == [] and summary.skipped == 2

    def test_bytes_input_and_order(self):
        lines = [
            b"u1\t2009-05-04T23:08:57Z\t\tA\t\tx",
            b"u2\t2009-05-04T23:08:58Z\t\tA\t\ty",
        ]
        events, _ = parse_events(lines)
        assert [e.user_key for e in events] == ["u1", "u2"]

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
        assert events[0].timestamp == 1241478537


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
            assert events == [] and (summary.parsed, summary.skipped) == (0, 1)
        else:
            assert [e.timestamp for e in events] == [want] and summary.parsed == 1

    def test_one_stream_agrees_line_by_line(self):
        # one parser sees every string, so a date cached from one line
        # must not change the verdict on another
        texts = ADVERSARIAL_TIMESTAMPS + ADVERSARIAL_TIMESTAMPS[::-1]
        lines = [f"u{i}\t{t}\t\tA\t\tT" for i, t in enumerate(texts)]
        events, summary = parse_events(lines)
        want = [(f"u{i}", strptime_epoch(t)) for i, t in enumerate(texts)]
        want = [w for w in want if w[1] is not None]
        assert [(e.user_key, e.timestamp) for e in events] == want
        assert summary.skipped == len(texts) - len(want)

    def test_equal_keys_share_one_object(self):
        lines = [f"user_{i % 2}\t2009-05-04T23:08:5{i}Z\t\tA\t\tT{i % 3}" for i in range(6)]
        events, _ = parse_events(lines)
        for a in events:
            for b in events:
                assert (a.user_key is b.user_key) == (a.user_key == b.user_key)
                assert (a.song_key is b.song_key) == (a.song_key == b.song_key)


class TestVocab:
    def test_cap_keeps_most_played(self):
        events = [ev("u", i, s) for i, s in enumerate("aaabbc")]
        vocab = build_vocab(events, cap=2)
        assert vocab.forward == {"a": 0, "b": 1}

    def test_cap_above_distinct_keeps_all(self):
        events = [ev("u", i, s) for i, s in enumerate("abc")]
        vocab = build_vocab(events, cap=100)
        assert vocab.size == 3

    def test_tie_broken_by_first_appearance(self):
        events = [ev("u", i, s) for i, s in enumerate("abab")]
        vocab = build_vocab(events, cap=1)
        assert vocab.forward == {"a": 0}

    def test_empty_events_error(self):
        with pytest.raises(ValueError):
            build_vocab([], cap=5)

    def test_forward_reverse_inverse(self):
        events = [ev("u", i, s) for i, s in enumerate("dcabacbdcd")]
        vocab = build_vocab(events, cap=10)
        for key, idx in vocab.forward.items():
            assert vocab.reverse[idx] == key
        for idx, key in enumerate(vocab.reverse):
            assert vocab.forward[key] == idx

    def test_brute_force_count_oracle(self):
        rng = np.random.default_rng(4)
        songs = [f"s{i}" for i in rng.integers(0, 12, size=200)]
        events = [ev("u", i, s) for i, s in enumerate(songs)]
        vocab = build_vocab(events, cap=5)
        # oracle: count dict + stable sort by (-count, first pos)
        counts, first = {}, {}
        for i, s in enumerate(songs):
            counts[s] = counts.get(s, 0) + 1
            first.setdefault(s, i)
        want = sorted(counts, key=lambda s: (-counts[s], first[s]))[:5]
        assert vocab.reverse == want


class TestFilter:
    def test_all_in_vocab_identity(self):
        events = [ev("u", i, s) for i, s in enumerate("abc")]
        vocab = build_vocab(events, 10)
        assert filter_to_vocab(events, vocab) == events

    def test_none_in_vocab_empty(self):
        events = [ev("u", i, s) for i, s in enumerate("abc")]
        vocab = VocabMap(["z"])
        assert filter_to_vocab(events, vocab) == []

    def test_mixed_is_exact_subsequence(self):
        rng = np.random.default_rng(9)
        events = [ev("u", i, f"s{x}") for i, x in enumerate(rng.integers(0, 9, 100))]
        vocab = VocabMap(["s1", "s3", "s5"])
        got = filter_to_vocab(events, vocab)
        assert got == [e for e in events if e.song_key in {"s1", "s3", "s5"}]


def _mk_session_events(user, t0, songs, gaps):
    events, ts = [], t0
    out = []
    for i, song in enumerate(songs):
        out.append(ev(user, ts, song))
        if i < len(gaps):
            ts += gaps[i]
    return out


class TestSessionize:
    def _run(self, events, gap_seconds=3600):
        vocab = build_vocab(events, 10000)
        users = build_user_index(events)
        return sessionize(events, vocab, users, gap_seconds), vocab, users

    def test_small_gaps_one_session(self):
        events = _mk_session_events("u", 0, list("abcd"), [600, 600, 600])
        sessions, _, _ = self._run(events)
        assert len(sessions) == 1 and len(sessions[0]) == 4

    def test_exact_hour_gap_splits(self):
        events = _mk_session_events("u", 0, list("ab"), [3600])
        sessions, _, _ = self._run(events)
        assert [len(s) for s in sessions] == [1, 1]

    def test_one_second_under_does_not_split(self):
        events = _mk_session_events("u", 0, list("ab"), [3599])
        sessions, _, _ = self._run(events)
        assert [len(s) for s in sessions] == [2]

    def test_interleaved_users_are_independent(self):
        a = _mk_session_events("a", 0, list("xy"), [120])
        b = _mk_session_events("b", 60, list("pq"), [120])
        merged = sorted(a + b, key=lambda e: e.timestamp)
        sessions, vocab, users = self._run(merged)
        assert len(sessions) == 2
        by_user = {s.user: s for s in sessions}
        assert [vocab.reverse[i] for i in by_user[users["a"]].items] == ["x", "y"]
        assert [vocab.reverse[i] for i in by_user[users["b"]].items] == ["p", "q"]

    def test_out_of_order_input_sorted(self):
        events = _mk_session_events("u", 0, list("abc"), [60, 60])
        sessions, vocab, _ = self._run(list(reversed(events)))
        assert [vocab.reverse[i] for i in sessions[0].items] == ["a", "b", "c"]

    def test_gap_invariant_and_idempotence(self, fixture_events):
        sessions, vocab, users = self._run(fixture_events)
        reverse_user = {v: k for k, v in users.items()}
        for s in sessions:
            gaps = np.diff(s.timestamps)
            assert (gaps >= 0).all() and (gaps < 3600).all()
            # re-sessionizing a session's own events returns it unchanged
            events = [
                ev(reverse_user[s.user], ts, vocab.reverse[i])
                for i, ts in zip(s.items, s.timestamps)
            ]
            again = sessionize(events, vocab, users, 3600)
            assert len(again) == 1
            assert again[0].items == s.items and again[0].timestamps == s.timestamps

    def test_fixture_session_shape(self, fixture_events):
        sessions, _, _ = self._run(fixture_events)
        assert len(sessions) == 20
        assert all(len(s) == 10 for s in sessions)


class TestSplit:
    def _sessions(self, n):
        return [Session(0, [i, i + 1]) for i in range(n)]

    def test_sizes_7_1_2(self):
        split = split_dataset(self._sessions(10), RATIOS, seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (7, 1, 2)

    def test_deterministic(self):
        a = split_dataset(self._sessions(10), RATIOS, seed=42)
        b = split_dataset(self._sessions(10), RATIOS, seed=42)
        assert [s.items for s in a.train] == [s.items for s in b.train]
        assert [s.items for s in a.test] == [s.items for s in b.test]

    def test_seed_changes_permutation_not_sizes(self):
        a = split_dataset(self._sessions(40), RATIOS, seed=1)
        b = split_dataset(self._sessions(40), RATIOS, seed=2)
        assert len(a.train) == len(b.train)
        assert [s.items for s in a.train] != [s.items for s in b.train]

    def test_partition_no_loss_no_duplication(self):
        sessions = self._sessions(23)
        split = split_dataset(sessions, RATIOS, seed=3)
        got = [tuple(s.items) for part in (split.train, split.val, split.test) for s in part]
        assert sorted(got) == sorted(tuple(s.items) for s in sessions)

    def test_too_few_sessions_error(self):
        with pytest.raises(ValueError):
            split_dataset(self._sessions(2), RATIOS, seed=0)

    def test_record_level_split(self):
        events = [ev("u", i * 10, f"s{i}") for i in range(20)]
        train, val, test = split_events(events, RATIOS, seed=0)
        assert (len(train), len(val), len(test)) == (14, 2, 4)
        assert sorted(e.song_key for e in train + val + test) == sorted(
            e.song_key for e in events
        )


class TestOverlapDeletion:
    def _split(self, train, val, test):
        return SplitDataset(train, val, test)

    def test_full_overlap_removes_session(self):
        train = [Session(0, [1, 2, 3])]
        test = [Session(0, [2, 3, 2])]
        cleaned, deleted = delete_train_overlap(self._split(train, [], test), "drop-seen")
        assert cleaned.test == [] and deleted == {"val": 0, "test": 3}

    def test_disjoint_unchanged(self):
        train = [Session(0, [1, 2])]
        test = [Session(0, [5, 6])]
        cleaned, deleted = delete_train_overlap(self._split(train, [], test), "drop-seen")
        assert cleaned.test[0].items == [5, 6] and deleted["test"] == 0

    def test_three_of_five_overlap_splits_session(self):
        # survivors at positions 1 and 3 are separated by a deletion:
        # the session splits into two singletons
        train = [Session(0, [10, 11, 12])]
        test = [Session(0, [10, 4, 11, 5, 12], [0, 1, 2, 3, 4])]
        cleaned, deleted = delete_train_overlap(self._split(train, [], test), "drop-seen")
        assert deleted["test"] == 3
        assert [s.items for s in cleaned.test] == [[4], [5]]
        assert [s.timestamps for s in cleaned.test] == [[1], [3]]

    def test_other_users_unaffected(self):
        train = [Session(0, [1, 2])]
        test = [Session(1, [1, 2])]  # same songs, different user
        cleaned, _ = delete_train_overlap(self._split(train, [], test), "drop-seen")
        assert cleaned.test[0].items == [1, 2]

    def test_keep_only_seen_mode(self):
        train = [Session(0, [1, 2])]
        test = [Session(0, [1, 7, 2, 8])]
        cleaned, deleted = delete_train_overlap(
            self._split(train, [], test), mode="keep-only-seen"
        )
        assert deleted["test"] == 2
        assert [s.items for s in cleaned.test] == [[1], [2]]

    def test_none_mode_is_identity(self):
        split = self._split([Session(0, [1])], [], [Session(0, [1])])
        cleaned, deleted = delete_train_overlap(split, mode="none")
        assert cleaned.test[0].items == [1] and deleted == {"val": 0, "test": 0}


def reference_examples(sessions, j):
    """The per-position loop extract_examples replaced: one
    (user, context, target) tuple per in-session position with j
    predecessors, in (session, position) order."""
    rows = []
    for s in sessions:
        for t in range(j, len(s.items)):
            rows.append((s.user, tuple(s.items[t - j : t]), s.items[t]))
    return rows


class TestExtractExamples:
    def test_length_six_order_five(self):
        assert len(extract_examples([Session(0, list(range(6)))], 5)) == 1

    def test_short_session_yields_nothing(self):
        assert len(extract_examples([Session(0, [1, 2, 3])], 3)) == 0

    def test_hand_enumeration(self):
        examples = extract_examples([Session(7, [3, 1, 4, 1, 5])], 2)
        assert [(tuple(e.context), e.target) for e in examples] == [
            ((3, 1), 4),
            ((1, 4), 1),
            ((4, 1), 5),
        ]
        assert all(e.user == 7 for e in examples)

    def test_count_formula(self):
        rng = np.random.default_rng(0)
        sessions = [
            Session(0, list(rng.integers(0, 5, size=n))) for n in rng.integers(1, 12, size=30)
        ]
        for j in (1, 2, 5):
            want = sum(max(0, len(s) - j) for s in sessions)
            assert len(extract_examples(sessions, j)) == want

    def test_bad_order_error(self):
        with pytest.raises(ValueError):
            extract_examples([], 0)

    @pytest.mark.parametrize("j", range(1, 7))
    def test_matches_the_per_position_loop(self, j):
        rng = np.random.default_rng(100 + j)
        sessions = [Session(int(rng.integers(50)), [int(x) for x in rng.integers(0, 1000, n)])
                    for n in rng.integers(0, j + 4, size=200)]
        examples = extract_examples(sessions, j)
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
        examples = extract_examples([], j)
        assert len(examples) == 0
        assert examples.context.shape == (0, j)
        assert examples.dtype["context"].base == np.int64

    def test_arrays_conversion(self):
        examples = extract_examples([Session(2, [3, 1, 4, 1, 5])], 2)
        users, contexts, targets = examples_to_arrays(examples)
        assert users.tolist() == [2, 2, 2]
        assert contexts.tolist() == [[3, 1], [1, 4], [4, 1]]
        assert targets.tolist() == [4, 1, 5]
        assert all(a.flags.c_contiguous and a.dtype == np.int64
                   for a in (users, contexts, targets))

    def test_arrays_conversion_refuses_an_empty_set(self):
        with pytest.raises(ValueError, match="no examples"):
            examples_to_arrays(extract_examples([Session(0, [1])], 1))


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
        prepared = prepare(fixture_events, DataConfig(shuffle_unit="record"), seed=5)
        assert sum(prepared.stats["events"].values()) <= 200
        for part in prepared.split.parts().values():
            for s in part:
                gaps = np.diff(s.timestamps)
                assert (gaps < 3600).all()

    def test_prepared_round_trip(self, fixture_events, tmp_path):
        prepared = prepare(fixture_events, DataConfig(), seed=5)
        out = tmp_path / "prep"
        write_prepared(out, prepared)
        back = read_prepared(out)
        assert back.vocab.reverse == prepared.vocab.reverse
        assert back.user_keys == prepared.user_keys
        for name in ("train", "val", "test"):
            a = prepared.split.parts()[name]
            b = back.split.parts()[name]
            assert [(s.user, s.items) for s in a] == [(s.user, s.items) for s in b]
        assert back.stats == prepared.stats

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
