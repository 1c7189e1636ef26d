"""Training and evaluation artifacts pinned byte for byte.

Every family is trained through the CLI on one seeded synthetic log and
evaluated under each protocol. ``loss_history.csv``, the sha256 of
``model.ckpt`` (``checkpoints.sha256``) and ``report.json`` must match
the files kept under ``tests/golden/``. The reports were written by the
evaluation code that scored and ranked one example at a time, before
scoring was batched and chunked, so a change to scoring, ranking,
chunking or negative sampling that moves any rank shows here. The loss
histories and checkpoint hashes were written by the training code
before the blocked Adagrad update and the in-place softmax, so any
change in the bits training computes shows here. To rewrite them after
an intended change in results:

    PYTHONPATH=src:tests python3 tests/test_golden.py
"""

import hashlib
import json
import os

import pytest

from songrec.cli import main
from songrec.data import format_timestamp
from songrec.util import make_rng

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FAMILIES = ("cnnrec", "nnrec", "w2v", "wmf", "fpmc")
PROTOCOLS = {
    "full": [],
    "sampled": ['eval.protocol="sampled"', "eval.n_neg=12"],
    "exclude_train_songs": ["eval.exclude_train_songs=true"],
}
CONFIG = {
    "seed": 4,
    "data": {"overlap_mode": "none"},  # keeps heard targets, so exclusion matters
    "model": {
        "d": 8, "j": 2, "h": 8, "m": 4, "w": 2, "epochs": 3, "batch": 10, "dropout": 0.2,
        "w2v": {"epochs": 2, "window": 2},
        "wmf": {"f": 4, "iters": 2},
        "fpmc": {"f": 4, "epochs": 3},
    },
    "eval": {"ks": [1, 3, 5, 10, 20]},
}


def golden_log_lines(n_users=6, n_songs=40, sessions_per_user=12, seed=21):
    """Plays where each next song follows a fixed successor 60% of the time
    and is otherwise drawn from a skewed catalog; sessions are 2 h apart."""
    rng = make_rng(seed)
    successor = rng.permutation(n_songs)
    popularity = 1.0 / (1.0 + rng.permutation(n_songs))
    popularity /= popularity.sum()
    lines = []
    for u in range(n_users):
        ts = 1_200_000_000 + 1000 * u
        for _ in range(sessions_per_user):
            song = int(rng.choice(n_songs, p=popularity))
            for _ in range(int(rng.integers(5, 11))):
                stamp = format_timestamp(ts)
                lines.append(f"user_{u}\t{stamp}\t\tartist-{song % 7}\t\ttrack-{song}")
                ts += 200
                follow = rng.random() < 0.6
                song = int(successor[song]) if follow else int(rng.choice(n_songs, p=popularity))
            ts += 7200
    return lines


def build_artifacts(root):
    """{golden file name: bytes} for the fixture, via the CLI: one
    ``<family>-<protocol>.json`` report per protocol, one
    ``<family>-loss_history.csv`` per family, and ``checkpoints.sha256``."""
    root = os.fspath(root)
    log = os.path.join(root, "plays.tsv")
    with open(log, "w", encoding="utf-8") as fh:
        fh.write("\n".join(golden_log_lines()) + "\n")
    config = os.path.join(root, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh)
    prepared = os.path.join(root, "prepared")
    common = ["--config", config, "--set", f"data.prepared_dir={prepared}"]
    assert main(["prepare", *common, "--set", f"data.raw_path={log}", "--out", root]) == 0
    artifacts = {}
    hashes = []
    for family in FAMILIES:
        train_dir = os.path.join(root, family)
        fam = ["--set", f"model.family={family}"]
        assert main(["train", *common, *fam, "--out", train_dir]) == 0
        with open(os.path.join(train_dir, "loss_history.csv"), "rb") as fh:
            artifacts[f"{family}-loss_history.csv"] = fh.read()
        with open(os.path.join(train_dir, "model.ckpt"), "rb") as fh:
            hashes.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {family}/model.ckpt\n")
        for protocol, sets in PROTOCOLS.items():
            out = os.path.join(root, f"{family}-{protocol}")
            args = ["evaluate", *common, *fam, "--out", out,
                    "--checkpoint", os.path.join(train_dir, "model.ckpt")]
            for assignment in sets:
                args += ["--set", assignment]
            assert main(args) == 0
            with open(os.path.join(out, "report.json"), "rb") as fh:
                artifacts[f"{family}-{protocol}.json"] = fh.read()
    artifacts["checkpoints.sha256"] = "".join(hashes).encode("ascii")
    return artifacts


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return build_artifacts(tmp_path_factory.mktemp("golden"))


def golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
@pytest.mark.parametrize("family", FAMILIES)
def test_report_matches_golden(artifacts, family, protocol):
    name = f"{family}-{protocol}.json"
    assert artifacts[name] == golden(name)


@pytest.mark.parametrize("family", FAMILIES)
def test_loss_history_matches_golden(artifacts, family):
    name = f"{family}-loss_history.csv"
    assert artifacts[name] == golden(name)


@pytest.mark.parametrize("family", FAMILIES)
def test_checkpoint_sha256_matches_golden(artifacts, family):
    line = f"  {family}/model.ckpt"
    built = [x for x in artifacts["checkpoints.sha256"].decode().splitlines() if x.endswith(line)]
    kept = [x for x in golden("checkpoints.sha256").decode().splitlines() if x.endswith(line)]
    assert len(kept) == 1 and built == kept


def test_fixture_ranks_against_a_real_candidate_subset(artifacts):
    # the sampled protocol only differs from the full one when the
    # negatives are a strict subset of the unheard songs
    for family in FAMILIES:
        full = json.loads(artifacts[f"{family}-full.json"])
        sampled = json.loads(artifacts[f"{family}-sampled.json"])
        assert sampled["protocol"] == "sampled(12)"
        assert sampled["hits"] != full["hits"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        built = build_artifacts(tmp)
    os.makedirs(GOLDEN, exist_ok=True)
    for name, blob in built.items():
        with open(os.path.join(GOLDEN, name), "wb") as fh:
            fh.write(blob)
