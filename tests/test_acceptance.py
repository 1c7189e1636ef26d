"""Acceptance suite: one test per exit criterion.

Every test prints one machine-greppable pass/fail line with the measured
quantity and its bound. Criterion 11 needs the real listening-history
dataset and several hours; it runs only when SONGREC_LASTFM_PATH points
at the raw TSV (plain or gzipped).
"""

import os
import time

import numpy as np
import pytest

from conftest import (
    UniformScorer,
    lastfm_fixture_events,
    loss_and_dense_grads,
    markov_chain_sessions,
    pairwise_auc,
    playlist_sessions,
    session_table,
    third_order_sessions,
    two_pool_sessions,
)
from songrec import checkpoint
from songrec.baselines import (
    fpmc_init,
    fpmc_train,
    play_count_matrix,
    w2v_train,
    wmf_train,
)
from songrec.config import DataConfig
from songrec.core import grad_check
from songrec.data import (
    build_user_index,
    build_vocab,
    extract_examples,
    filter_to_vocab,
    prepare,
    read_prepared,
    sessionize,
    split_dataset,
    write_prepared,
)
from songrec.evaluation import DEFAULT_KS, EvalConfig, evaluate
from songrec.models import CnnRecParams, Hyperparams, NnRecParams, train
from songrec.util import make_rng


def check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _recall_at_1(model, examples):
    report = evaluate(model, examples, EvalConfig(ks=(1,)), seed=0)
    return report.recall[1]


def test_c01_gradient_fidelity():
    hy = Hyperparams(d=4, j=3, h=5, m=3, w=2, stride=1, epochs=1, batch=2, lr=0.01, dropout=0.0)
    users = np.array([0, 2])
    contexts = np.array([[1, 3, 5], [2, 0, 6]])
    targets = np.array([4, 1])
    worst = {}
    t0 = time.time()
    for cls in (CnnRecParams, NnRecParams):
        params = cls(7, 3, hy, rng=make_rng(7))
        names = list(params.tensors())

        def f(arrs):
            loss, grads = loss_and_dense_grads(params, users, contexts, targets)
            return loss, [grads[n] for n in names]

        worst[cls.model_type] = grad_check(
            f, [params.tensors()[n] for n in names], eps=1e-5
        )
    elapsed = time.time() - t0
    ok = max(worst.values()) <= 1e-4 and elapsed < 60
    check(
        "criterion 1 gradient fidelity",
        ok,
        f"max rel err cnnrec={worst['cnnrec']:.2e} nnrec={worst['nnrec']:.2e} "
        f"(bound 1e-4), {elapsed:.1f}s",
    )


def test_c02_architecture_dimensions():
    hy = Hyperparams()  # reference values
    cnn = CnnRecParams(50, 4, hy, rng=make_rng(0))
    nn = NnRecParams(50, 4, hy, rng=make_rng(0))
    probs, cache = cnn.forward_batch(np.array([1]), np.arange(5).reshape(1, 5))
    windows = cache[2][0]
    conv_shape = (windows.shape[1], hy.m)  # positions x filters
    hidden_cnn = cnn.w1.shape[0]  # w1 is held (in, out)
    hidden_nn = nn.w1.shape[0]
    ok = conv_shape == (4, 325) and hidden_cnn == 1360 and hidden_nn == 360
    check(
        "criterion 2 architecture dimensions",
        ok,
        f"conv output {conv_shape[0]}x{conv_shape[1]} (want 4x325), "
        f"hidden inputs {hidden_cnn}/{hidden_nn} (want 1360/360)",
    )


def test_c03_overfit_sanity():
    sessions = playlist_sessions(n_users=20, n_songs=50, cycle=10, repeats=3, seed=123)
    examples = extract_examples(sessions, 5)
    t0 = time.time()
    recalls = {}
    for cls in (CnnRecParams, NnRecParams):
        hy = Hyperparams(d=16, j=5, h=32, m=16, w=2, stride=1, epochs=200, batch=50, lr=0.01,
                         dropout=0.0)
        params = cls(50, 20, hy, rng=make_rng(5))
        train(examples, params, make_rng(6))
        recalls[cls.model_type] = _recall_at_1(params, examples)
    elapsed = time.time() - t0
    ok = min(recalls.values()) >= 0.9 and elapsed < 300
    check(
        "criterion 3 overfit sanity",
        ok,
        f"held-in recall@1 cnnrec={recalls['cnnrec']:.3f} "
        f"nnrec={recalls['nnrec']:.3f} (bound 0.9), {elapsed:.0f}s",
    )


def test_c04_order_effect_trend():
    train_sessions = third_order_sessions(150, seed=1)
    test_sessions = third_order_sessions(50, seed=2)
    t0 = time.time()
    recall = {}
    for j in (1, 3):
        hy = Hyperparams(d=16, j=j, h=32, m=16, w=min(2, j), stride=1, epochs=30, batch=50,
                         lr=0.01, dropout=0.0)
        params = NnRecParams(30, 1, hy, rng=make_rng(20))
        train(extract_examples(train_sessions, j), params, make_rng(21))
        recall[j] = _recall_at_1(params, extract_examples(test_sessions, j))
    elapsed = time.time() - t0
    ok = recall[3] >= 0.9 and recall[1] <= 0.3 and elapsed < 300
    check(
        "criterion 4 order-effect trend",
        ok,
        f"recall@1 j=3 {recall[3]:.3f} (>= 0.9), j=1 {recall[1]:.3f} (<= 0.3), "
        f"{elapsed:.0f}s",
    )


def test_c05_wmf_descent():
    rng = make_rng(99)
    dense = np.where(
        rng.random((50, 80)) < 0.2, rng.integers(1, 6, size=(50, 80)), 0
    ).astype(float)
    users, songs = np.nonzero(dense)
    t0 = time.time()
    _, h = wmf_train(
        (users, songs, dense[users, songs]), *dense.shape, f=10, alpha=40, lam=0.1, iters=15,
        rng=make_rng(7),
    )
    elapsed = time.time() - t0
    monotone = all(b <= a + 1e-9 * abs(a) for a, b in zip(h, h[1:]))
    drop = 1.0 - h[-1] / h[0]
    ok = monotone and len(h) == 31 and drop >= 0.5 and elapsed < 30
    check(
        "criterion 5 weighted-MF descent",
        ok,
        f"monotone over {len(h) - 1} half-sweeps: {monotone}, "
        f"objective drop {drop:.1%} (>= 50%), {elapsed:.1f}s",
    )


def test_c06_fpmc_learning():
    sessions = markov_chain_sessions(
        n_songs=20, n_users=5, sessions_per_user=10, session_len=40
    )
    n_events = len(sessions.items)
    examples = extract_examples(sessions, 1)
    # per-init AUC spreads ~0.04 (few distinct transitions, factors shared
    # across them), so chance level is averaged over fresh inits
    chance = np.mean(
        [
            pairwise_auc(fpmc_init(5, 20, f=32, rng=make_rng(1000 + i)),
                         examples, 20)
            for i in range(25)
        ]
    )
    t0 = time.time()
    trained, _ = fpmc_train(examples, 5, 20, f=32, lr=0.05, lam=0.01, epochs=30,
                            rng=make_rng(14))
    auc = pairwise_auc(trained, examples, 20)
    elapsed = time.time() - t0
    ok = auc >= 0.85 and abs(chance - 0.5) <= 0.02 and elapsed < 60
    check(
        "criterion 6 factorized-MC learning",
        ok,
        f"{n_events} events; trained AUC {auc:.3f} (>= 0.85), untrained "
        f"{chance:.3f} (0.50 +/- 0.02), {elapsed:.0f}s",
    )


def test_c07_skipgram_structure():
    sessions = two_pool_sessions(pool_size=25, sessions_per_pool=200, length=10, seed=55)
    t0 = time.time()
    emb, _ = w2v_train(
        sessions, 50, d=16, window=5, negatives=5, lr=0.025, epochs=10,
        rng=make_rng(56),
    )
    elapsed = time.time() - t0
    unit = emb.v_in / np.linalg.norm(emb.v_in, axis=1, keepdims=True)
    cos = unit @ unit.T

    def mean_offdiag(block):
        n = block.shape[0]
        return (block.sum() - np.trace(block)) / (n * (n - 1))

    intra = (mean_offdiag(cos[:25, :25]) + mean_offdiag(cos[25:, 25:])) / 2
    inter = cos[:25, 25:].mean()
    gap = float(intra - inter)
    ok = gap >= 0.2 and elapsed < 120
    check(
        "criterion 7 item-embedding structure",
        ok,
        f"intra-pool cosine {intra:.3f}, inter-pool {inter:.3f}, "
        f"gap {gap:.3f} (>= 0.2), {elapsed:.0f}s",
    )


def test_c08_metric_oracle():
    n_songs, n_examples = 1000, 2000
    rng = make_rng(61)
    examples = extract_examples(
        session_table((0, [int(rng.integers(n_songs)), int(rng.integers(n_songs))])
                      for _ in range(n_examples)), 1)
    report = evaluate(UniformScorer(n_songs, seed=62), examples, EvalConfig(ks=DEFAULT_KS),
                      seed=0)
    deviations = {}
    within = True
    for k in DEFAULT_KS:
        p = k / n_songs
        sigma = np.sqrt(p * (1 - p) / n_examples)
        deviations[k] = abs(report.recall[k] - p) / sigma
        within = within and deviations[k] <= 3.0
    recalls = [report.recall[k] for k in DEFAULT_KS]
    monotone = recalls == sorted(recalls)
    identity = all(report.precision[k] == report.recall[k] / k for k in DEFAULT_KS)
    ok = within and monotone and identity
    check(
        "criterion 8 metric oracle",
        ok,
        f"max |recall - k/N| = {max(deviations.values()):.2f} sigma (<= 3), "
        f"monotone={monotone}, precision identity={identity}",
    )


def test_c09_pipeline_fixture(tmp_path):
    events = lastfm_fixture_events()
    kept = build_user_index(filter_to_vocab(events, build_vocab(events, 10000)))
    sessions = sessionize(kept, 3600)
    # 3599 s gap held, every exact 3600 s (and larger) gap split
    session_shape = len(sessions) == 20 and bool((sessions.lengths == 10).all())
    sizes = tuple(map(len, split_dataset(sessions, (0.7, 0.1, 0.2), seed=5)))
    prepared = prepare(events, DataConfig(), seed=5)
    stats = prepared.stats
    survivors_ok = (
        stats["deleted_overlap"] == {"val": 10, "test": 20}
        and stats["sessions"] == {"train": 14, "val": 6, "test": 12}
        and stats["events"] == {"train": 140, "val": 10, "test": 20}
    )
    counts_ok = (
        len(extract_examples(prepared.split.train, 5)) == 70
        and len(extract_examples(prepared.split.train, 1)) == 126
        and len(extract_examples(prepared.split.test, 2)) == 4
    )
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        write_prepared(out, prepare(events, DataConfig(), seed=5))
        trees.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        )
    byte_identical = trees[0] == trees[1]
    ok = session_shape and sizes == (14, 2, 4) and survivors_ok and counts_ok and byte_identical
    check(
        "criterion 9 pipeline fixtures",
        ok,
        f"sessions 20x10={session_shape}, split {sizes} (want (14, 2, 4)), "
        f"survivors={survivors_ok}, example counts={counts_ok}, "
        f"rerun byte-identical={byte_identical}",
    )


def test_c10_checkpoint_round_trip(tmp_path):
    from test_checkpoint import small_models

    families_ok = {}
    for family, model in small_models().items():
        path = tmp_path / f"{family}.ckpt"
        checkpoint.save(path, *model.to_checkpoint())
        loaded = checkpoint.load_model(path)
        neural = family in ("cnnrec", "nnrec")
        examples = extract_examples(session_table([(0, [1, 2, 3, 4] if neural else [1, 4]),
                                                   (1, [5, 0, 2, 0] if neural else [5, 0])]),
                                    3 if neural else 1)
        cfg = EvalConfig(ks=(1, 3, 8))  # smallest stub catalog has 8 songs
        a = evaluate(model, examples, cfg, seed=0, label=family)
        b = evaluate(loaded, examples, cfg, seed=0, label=family)
        bitwise = all(
            np.array_equal(model.score_catalog(e.user, e.context),
                           loaded.score_catalog(e.user, e.context))
            for e in examples
        )
        families_ok[family] = bitwise and a.to_dict() == b.to_dict()
    ok = all(families_ok.values())
    check(
        "criterion 10 checkpoint round-trip",
        ok,
        "save->load->evaluate bitwise equal for " + ", ".join(
            f"{fam}={'yes' if good else 'NO'}" for fam, good in families_ok.items()
        ),
    )


FULL_DATASET = os.environ.get("SONGREC_LASTFM_PATH", "")


@pytest.mark.skipif(
    not FULL_DATASET,
    reason="full-scale optional run: set SONGREC_LASTFM_PATH to the raw "
    "listening-history TSV (takes hours)",
)
def test_c11_optional_full_scale(tmp_path):
    from songrec.cli import fit_model
    from songrec.config import ExperimentConfig
    from songrec.data import drop_unknown_users, open_event_stream, parse_events

    with open_event_stream(FULL_DATASET) as stream:
        events, summary = parse_events(stream)
    prepared = prepare(events, DataConfig(vocab_cap=10000, gap_seconds=3600), seed=11)
    users = prepared.stats["users"]
    records = prepared.stats["records"]
    users_ok = 980 <= users <= 992
    records_ok = abs(records - 4_086_781) <= 0.02 * 4_086_781
    check(
        "criterion 11a full-scale preprocessing",
        users_ok and records_ok,
        f"users {users} (want [980, 992]), records {records} "
        f"(want 4,086,781 +/- 2%)",
    )

    out = tmp_path / "prep"
    write_prepared(out, prepared)
    split = prepared.split
    kept = drop_unknown_users(split.test, split.train)
    targets = {"fpmc": 0.9686, "w2v": 0.843}
    measured = {}
    for family in ("fpmc", "w2v"):
        cfg = ExperimentConfig.from_dict(
            {"seed": 11, "model": {"family": family}, "out_dir": str(tmp_path)}
        )
        model, _ = fit_model(cfg, read_prepared(out))
        order = 1 if family == "fpmc" else 5
        examples = extract_examples(kept, order)
        report = evaluate(model, examples, EvalConfig(ks=(500,)), seed=0, label=family)
        measured[family] = report.recall[500]
    ok = all(abs(measured[f] - targets[f]) <= 0.05 for f in targets)
    check(
        "criterion 11b full-scale recall@500",
        ok,
        ", ".join(
            f"{f}: {measured[f]:.4f} (want {targets[f]} +/- 0.05)" for f in targets
        ),
    )
