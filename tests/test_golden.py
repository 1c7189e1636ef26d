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
change in the bits training computes shows here.

The order sweep is pinned the same way, for cnnrec and nnrec at two
orders each (nnrec down to j=1, below the configured filter width):
each order's ``loss_history.csv`` and ``report.json``, the sha256 of
its ``model.ckpt`` (``sweep-checkpoints.sha256``) and the sweep's
``comparison.csv``. These files were written by the sweep that ran its
own loop beside ``train`` and ``evaluate``.

``train-manifests.json`` pins each family's ``train_manifest.json``
``config``, ``config_hash`` and ``seeds``: the bytes a refactor of the
config must keep. The fixture runs in its temporary directory with
relative paths, so the temporary path does not enter the config.

``prepared.sha256`` pins the prepared directory built from the same log
with one line of every malformed kind mixed in and one more user whose
timestamps strptime accepts in non-canonical forms, under both shuffle
units and all three overlap modes. The hashes were written by the
parser that sent every timestamp through strptime, so a change in what
parsing accepts, rejects or returns shows here.

To rewrite the golden files of some families after an intended change
in their results, name them:

    PYTHONPATH=src:tests python3 tests/test_golden.py w2v fpmc

A golden file belongs to the first word of its name, with ``sweep-``
dropped (``w2v-full.json`` and ``sweep-cnnrec-comparison.csv`` to
``w2v`` and ``cnnrec``; ``prepared.sha256`` and ``train-manifests.json``
to ``prepared`` and ``train``); a line of ``checkpoints.sha256`` or
``sweep-checkpoints.sha256`` belongs to the first word of its path. The
script writes the named owners' files and lines. It writes nothing and
exits 1, naming each file, if a file or line of any other owner would
change.
"""

import hashlib
import json
import os
import re
import sys

import pytest

from conftest import format_timestamp
from songrec.cli import main
from songrec.data import OVERLAP_MODES, SHUFFLE_UNITS
from songrec.util import make_rng

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FAMILIES = ("cnnrec", "nnrec", "w2v", "wmf", "fpmc")
PROTOCOLS = {
    "full": [],
    "sampled": ['eval.protocol="sampled"', "eval.n_neg=12"],
    "exclude_train_songs": ["eval.exclude_train_songs=true"],
}
SWEEPS = {"cnnrec": (2, 3), "nnrec": (1, 2)}
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


PREPARED_FILES = ("vocab.txt", "users.txt", "train.txt", "val.txt", "test.txt", "stats.json")
PREPARE_VARIANTS = [f"{unit}-{mode}" for unit in SHUFFLE_UNITS for mode in OVERLAP_MODES]

# Lines the parser must count as skipped (blank lines are ignored, not
# counted): too few fields, a bad timestamp, an empty user, both names empty.
MALFORMED_LINES = [
    "user_1\t2007-01-01T00:00:00Z\t\tartist-1",
    "user_1\t2007-13-01T00:00:00Z\t\tartist-1\t\ttrack-1",
    "user_1\t2007-02-30T00:00:00Z\t\tartist-1\t\ttrack-1",
    "user_1\t1900-02-29T00:00:00Z\t\tartist-1\t\ttrack-1",
    "user_1\t0000-01-01T00:00:00Z\t\tartist-1\t\ttrack-1",
    "user_1\t2007-01-01T24:00:00Z\t\tartist-1\t\ttrack-1",
    "user_1\t2007-01-01T00:00:60Z\t\tartist-1\t\ttrack-1",
    "user_1\t2007-01-01T:0:00:00Z\t\tartist-1\t\ttrack-1",
    "user_1\t2007-01-01T00:00:000Z\t\tartist-1\t\ttrack-1",
    "user_1\t2007-01-01T00:00:00\t\tartist-1\t\ttrack-1",
    "user_1\tnot-a-time\t\tartist-1\t\ttrack-1",
    "\t2007-01-01T00:00:00Z\t\tartist-1\t\ttrack-1",
    "user_1\t2007-01-01T00:00:00Z\tmbid\t\tmbid\t",
    "",
]
# Timestamps strptime accepts although they are not in the canonical
# form, plus leap days and a date before 1970, in playing order; gaps of
# exactly and just under an hour decide where sessions break.
ODD_TIMESTAMPS = [
    "2000-02-29T00:00:00Z", "2000-02-29T00:59:59Z", "2000-02-29t01:59:59z",
    "2000-3-1T1:5:9Z", "2000-03- 1T01:10:00Z", "\u0662\u0660\u0660\u0660-03-01T01:15:00Z",
    "2000-03-01T01:20:0Z", "2004-02-29T12:00:00Z", "2004-02-29T12:05:00Z",
    "1969-12-31T23:00:00Z", "1969-12-31T23:59:59Z",
]


def prepare_log_lines():
    """The golden log with a malformed line after every 30th line, and
    one more user's plays under odd-but-valid timestamps."""
    lines = []
    for i, line in enumerate(golden_log_lines()):
        lines.append(line)
        if i % 30 == 29 and i // 30 < len(MALFORMED_LINES):
            lines.append(MALFORMED_LINES[i // 30])
    for k, stamp in enumerate(ODD_TIMESTAMPS):
        lines.append(f"user_odd\t{stamp}\t\tartist-{k % 7}\t\ttrack-{k}")
    return lines


def build_prepared_hashes(root):
    """``prepared.sha256``: the sha256 of each prepared file, per variant."""
    log = os.path.join(root, "prepare-plays.tsv")
    with open(log, "w", encoding="utf-8") as fh:
        fh.write("\n".join(prepare_log_lines()) + "\n")
    hashes = []
    for variant in PREPARE_VARIANTS:
        unit, mode = variant.split("-", 1)
        prepared = os.path.join(root, "prepared-" + variant)
        assert main(["prepare", "--out", root, "--set", f"seed={CONFIG['seed']}",
                     "--set", f"data.raw_path={log}", "--set", f"data.prepared_dir={prepared}",
                     "--set", f'data.shuffle_unit="{unit}"',
                     "--set", f'data.overlap_mode="{mode}"']) == 0
        for name in PREPARED_FILES:
            with open(os.path.join(prepared, name), "rb") as fh:
                hashes.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {variant}/{name}\n")
    return "".join(hashes).encode("ascii")


def build_artifacts(root):
    """{golden file name: bytes} for the fixture, via the CLI: one
    ``<family>-<protocol>.json`` report per protocol, one
    ``<family>-loss_history.csv`` per family, ``checkpoints.sha256``,
    ``train-manifests.json`` and ``prepared.sha256``. Runs with ``root``
    as the working directory."""
    root = os.fspath(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        return _build_artifacts(root)
    finally:
        os.chdir(cwd)


def _build_artifacts(root):
    log = os.path.join(root, "plays.tsv")
    with open(log, "w", encoding="utf-8") as fh:
        fh.write("\n".join(golden_log_lines()) + "\n")
    config = os.path.join(root, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh)
    common = ["--config", config, "--set", "data.prepared_dir=prepared"]
    assert main(["prepare", *common, "--set", f"data.raw_path={log}", "--out", root]) == 0
    artifacts = {}
    hashes = []
    manifests = {}
    for family in FAMILIES:
        train_dir = family
        fam = ["--set", f"model.family={family}"]
        assert main(["train", *common, *fam, "--out", train_dir]) == 0
        with open(os.path.join(train_dir, "train_manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifests[family] = {key: manifest[key] for key in ("config", "config_hash", "seeds")}
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
    artifacts["train-manifests.json"] = (
        json.dumps(manifests, indent=2, sort_keys=True) + "\n").encode("utf-8")
    artifacts["sweep-checkpoints.sha256"] = build_sweeps(root, common, artifacts)
    artifacts["prepared.sha256"] = build_prepared_hashes(root)
    return artifacts


def build_sweeps(root, common, artifacts):
    """Run each of ``SWEEPS`` through the CLI, add its per-order loss
    histories and reports and its ``comparison.csv`` to ``artifacts``, and
    return ``sweep-checkpoints.sha256``."""
    hashes = []
    for family, orders in SWEEPS.items():
        out = os.path.join(root, f"sweep-{family}")
        assert main(["sweep", *common, "--set", f"model.family={family}", "--out", out,
                     "--orders", ",".join(map(str, orders))]) == 0
        for j in orders:
            order_dir = os.path.join(out, f"order-{j}")
            with open(os.path.join(order_dir, "model.ckpt"), "rb") as fh:
                hashes.append(f"{hashlib.sha256(fh.read()).hexdigest()}  "
                              f"sweep-{family}/order-{j}/model.ckpt\n")
            for name, ext in (("loss_history", "csv"), ("report", "json")):
                with open(os.path.join(order_dir, f"{name}.{ext}"), "rb") as fh:
                    artifacts[f"sweep-{family}-order-{j}-{name}.{ext}"] = fh.read()
        with open(os.path.join(out, "comparison.csv"), "rb") as fh:
            artifacts[f"sweep-{family}-comparison.csv"] = fh.read()
    return "".join(hashes).encode("ascii")


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


@pytest.mark.parametrize("family", FAMILIES)
def test_train_manifest_config_matches_golden(artifacts, family):
    # serialised again so that an int turning into a float shows
    built = json.loads(artifacts["train-manifests.json"])[family]
    kept = json.loads(golden("train-manifests.json"))[family]
    assert json.dumps(built, sort_keys=True) == json.dumps(kept, sort_keys=True)


@pytest.mark.parametrize("family", list(SWEEPS))
def test_sweep_matches_golden(artifacts, family):
    names = [f"sweep-{family}-comparison.csv"] + [
        f"sweep-{family}-order-{j}-{name}"
        for j in SWEEPS[family] for name in ("loss_history.csv", "report.json")
    ]
    for name in names:
        assert artifacts[name] == golden(name), name
    prefix = f"  sweep-{family}/"
    built = [x for x in artifacts["sweep-checkpoints.sha256"].decode().splitlines() if prefix in x]
    kept = [x for x in golden("sweep-checkpoints.sha256").decode().splitlines() if prefix in x]
    assert len(kept) == len(SWEEPS[family]) and built == kept


@pytest.mark.parametrize("variant", PREPARE_VARIANTS)
def test_prepared_dir_matches_golden(artifacts, variant):
    built = [x for x in artifacts["prepared.sha256"].decode().splitlines()
             if x.split("  ")[1].startswith(variant + "/")]
    kept = [x for x in golden("prepared.sha256").decode().splitlines()
            if x.split("  ")[1].startswith(variant + "/")]
    assert len(kept) == len(PREPARED_FILES) and built == kept


def test_fixture_ranks_against_a_real_candidate_subset(artifacts):
    # the sampled protocol only differs from the full one when the
    # negatives are a strict subset of the unheard songs
    for family in FAMILIES:
        full = json.loads(artifacts[f"{family}-full.json"])
        sampled = json.loads(artifacts[f"{family}-sampled.json"])
        assert sampled["protocol"] == "sampled(12)"
        assert sampled["hits"] != full["hits"]


HASH_FILES = ("checkpoints.sha256", "sweep-checkpoints.sha256")


def owner(name):
    """The family (or ``prepared``, ``train``) a golden file name or a
    checkpoint path belongs to."""
    return re.split(r"[-/.]", name.removeprefix("sweep-"), maxsplit=1)[0]


def foreign_changes(built, kept, names):
    """The golden files of ``built`` ({name: bytes}) that differ from
    ``kept`` ({name: bytes}, missing files absent) in a file or, for
    ``HASH_FILES``, a line whose owner is not in ``names``."""
    changed = []
    for name, blob in built.items():
        if name in HASH_FILES:
            lines = [{line.split("  ", 1)[1]: line for line in b.decode().splitlines()}
                     for b in (blob, kept.get(name, b""))]
            paths = {path for path in lines[0].keys() | lines[1].keys()
                     if owner(path) not in names}
            if any(lines[0].get(path) != lines[1].get(path) for path in paths):
                changed.append(name)
        elif owner(name) not in names and blob != kept.get(name):
            changed.append(name)
    return changed


def test_regeneration_refuses_changes_outside_the_named_owners():
    kept = {
        "w2v-full.json": b"a",
        "sweep-cnnrec-comparison.csv": b"b",
        "checkpoints.sha256": b"1  w2v/model.ckpt\n2  wmf/model.ckpt\n",
    }
    assert foreign_changes(kept, kept, set()) == []
    w2v_only = {**kept, "w2v-full.json": b"A",
                "checkpoints.sha256": b"9  w2v/model.ckpt\n2  wmf/model.ckpt\n"}
    assert foreign_changes(w2v_only, kept, {"w2v"}) == []
    assert foreign_changes(w2v_only, kept, {"wmf", "cnnrec"}) == [
        "w2v-full.json", "checkpoints.sha256"]
    sweep = {**kept, "sweep-cnnrec-comparison.csv": b"B", "cnnrec-full.json": b"new"}
    assert foreign_changes(sweep, kept, {"cnnrec"}) == []
    assert foreign_changes(sweep, kept, {"nnrec"}) == ["sweep-cnnrec-comparison.csv",
                                                       "cnnrec-full.json"]
    lost_line = {**kept, "checkpoints.sha256": b"1  w2v/model.ckpt\n"}
    assert foreign_changes(lost_line, kept, {"w2v"}) == ["checkpoints.sha256"]
    assert [owner(name) for name in ("prepared.sha256", "train-manifests.json",
                                     "sweep-nnrec/order-1/model.ckpt")] == [
        "prepared", "train", "nnrec"]


def regenerate(names):
    """Rewrite the golden files of the owners in ``names``; returns the
    exit status."""
    import tempfile

    owners = {owner(name) for name in os.listdir(GOLDEN) if name not in HASH_FILES}
    unknown = set(names) - owners
    if not names or unknown:
        print(f"usage: test_golden.py OWNER...; unknown: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        built = build_artifacts(tmp)
    kept = {name: golden(name) for name in os.listdir(GOLDEN)}
    foreign = foreign_changes(built, kept, set(names))
    for name in foreign:
        print(f"golden file {name} would change outside {' '.join(names)}", file=sys.stderr)
    if foreign:
        return 1
    for name, blob in built.items():
        if blob != kept.get(name):
            with open(os.path.join(GOLDEN, name), "wb") as fh:
                fh.write(blob)
            print(f"rewrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
