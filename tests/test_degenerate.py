"""Every command, family and evaluation protocol on degenerate logs.

Each tiny log below is built in-process and prepared. On it, every
family is trained and evaluated under the full protocol, the sampled one
with more negatives than there are unheard songs, the full one with the
user's training songs excluded, and with a cutoff above the catalog;
cnnrec and nnrec also sweep two orders. Each command must return 0, or
return 1 after logging exactly one one-line error, and a case still
running after ``CASE_SECONDS`` fails instead of stalling the suite. On
the logs that keep test examples, every model that trains must also be
evaluated.
"""

import json
import logging

import pytest

from conftest import format_timestamp, time_limit
from songrec.cli import main
from songrec.util import make_rng

CASE_SECONDS = 10
FAMILIES = ("cnnrec", "nnrec", "w2v", "wmf", "fpmc")
PROTOCOLS = {
    "full": [],
    "sampled": ["eval.protocol=sampled", "eval.n_neg=1000"],
    "exclude_train_songs": ["eval.exclude_train_songs=true"],
    "ks-above-catalog": ["eval.ks=[1,50]"],
}
CONFIG = {
    "seed": 3,
    # keeps test plays heard in training, so that evaluate is reached
    "data": {"overlap_mode": "none"},
    "model": {
        "d": 4, "j": 2, "h": 4, "m": 2, "w": 1, "epochs": 1, "batch": 8, "dropout": 0.0,
        "w2v": {"epochs": 1, "window": 2},
        "wmf": {"f": 2, "iters": 1},
        "fpmc": {"f": 2, "epochs": 1},
    },
    "eval": {"ks": [1]},  # no more than the one-song catalog holds
}


def _sessions(n_users, n_sessions, length, n_songs, seed=0):
    """(user, songs) sessions of ``length`` songs drawn from ``n_songs``."""
    rng = make_rng(seed)
    return [(u, rng.integers(n_songs, size=length).tolist())
            for u in range(n_users) for _ in range(n_sessions)]


def _playlists(n_users, n_sessions, length):
    """Every session of a user replays the same private playlist."""
    return [(u, [u * length + i for i in range(length)])
            for u in range(n_users) for _ in range(n_sessions)]


# name -> (sessions, data settings besides CONFIG's, whether test examples remain)
LOGS = {
    "one-song": (_sessions(4, 6, 5, 1), {}, True),
    "one-user": (_sessions(1, 12, 6, 8), {}, True),
    "sessions-of-one": (_sessions(4, 10, 1, 8), {}, False),
    "two-songs": (_sessions(4, 6, 6, 2), {}, True),
    # drop-seen deletes every test play, so the test split ends up empty
    "test-heard-in-training": (_playlists(3, 10, 4), {"overlap_mode": "drop-seen"}, False),
    # one song leaves sessions too short for order 2
    "vocab-cap-1": (_sessions(4, 8, 6, 10), {"vocab_cap": 1}, False),
    "no-validation": (_sessions(4, 8, 6, 10), {"ratios": [0.8, 0.0, 0.2]}, True),
}


def _log_lines(sessions):
    """Plays 200 s apart, sessions 2 h apart."""
    ts, lines = 1_200_000_000, []
    for user, songs in sessions:
        for song in songs:
            lines.append(f"user_{user}\t{format_timestamp(ts)}\t\tartist\t\ttrack-{song}")
            ts += 200
        ts += 7200
    return lines


def run_clean(caplog, *args) -> int:
    """``main(args)``'s exit code, after checking that it is 0 with no
    error logged, or 1 with exactly one one-line error."""
    caplog.clear()
    code = main([str(a) for a in args])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert (code, len(errors)) in ((0, 0), (1, 1)), (args[0], code, errors)
    assert "\n" not in "".join(errors), errors
    return code


def _settings(pairs):
    return [arg for value in pairs for arg in ("--set", value)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("log", LOGS)
def test_every_command_ends_cleanly(tmp_path, caplog, log, family):
    sessions, data, evaluable = LOGS[log]
    (tmp_path / "plays.tsv").write_text("\n".join(_log_lines(sessions)) + "\n", encoding="utf-8")
    data = {**CONFIG["data"], **data, "raw_path": str(tmp_path / "plays.tsv"),
            "prepared_dir": str(tmp_path / "prepared")}
    (tmp_path / "config.json").write_text(json.dumps({**CONFIG, "data": data}), encoding="utf-8")
    common = ["--config", tmp_path / "config.json", *_settings([f"model.family={family}"])]
    out = tmp_path / family
    with time_limit(CASE_SECONDS):
        assert run_clean(caplog, "prepare", *common, "--out", tmp_path) == 0
        trained = run_clean(caplog, "train", *common, "--out", out) == 0
        assert trained == (out / "model.ckpt").exists()
        for protocol, settings in PROTOCOLS.items():
            code = run_clean(caplog, "evaluate", *common, *_settings(settings),
                             "--out", out / protocol, "--checkpoint", out / "model.ckpt")
            assert (code == 0) == (out / protocol / "report.json").exists()
            if evaluable and trained:
                assert code == (protocol == "ks-above-catalog"), protocol
        if family in ("cnnrec", "nnrec"):
            run_clean(caplog, "sweep", *common, "--orders", "1,2", "--out", out / "sweep")
