import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    PerfectScorer,
    StatelessScorer,
    UniformScorer,
    playlist_sessions,
    session_table,
    table_rows,
)
from songrec import evaluation
from songrec.baselines import fpmc_train, play_count_matrix, w2v_train, wmf_train
from songrec.data import extract_examples
from songrec.evaluation import (
    EvalConfig,
    EvalReport,
    emit_curves,
    evaluate,
    rank_of_target,
)
from songrec.models import CnnRecParams, NnRecParams
from songrec.util import derive_seed, make_rng
from test_checkpoint import TINY


def make_examples(n, n_songs, j=2, seed=0, n_users=3):
    """n random examples, each from a session of its own."""
    rng = make_rng(seed)
    sessions = []
    for _ in range(n):
        ctx = [int(x) for x in rng.integers(0, n_songs, size=j)]
        sessions.append((int(rng.integers(n_users)), [*ctx, int(rng.integers(n_songs))]))
    return extract_examples(session_table(sessions), j)


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.ks == (1, 5, 10, 20, 50, 100, 150, 200, 500)
        assert cfg.protocol == "full"

    def test_non_ascending_ks_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(ks=(1, 5, 5))
        with pytest.raises(ValueError):
            EvalConfig(ks=(0, 5))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(protocol="leave-one-out")

    def test_exclude_train_songs_rejected_under_sampled(self):
        # sampled candidates never include training songs: the flag would
        # change the config hash and nothing else
        with pytest.raises(ValueError, match="^config.eval.exclude_train_songs [^\n]*$"):
            EvalConfig(protocol="sampled", exclude_train_songs=True)


def candidate_mask(n, candidates):
    mask = np.zeros((1, n), dtype=bool)
    mask[0, candidates] = True
    return mask


class TestRankOfTarget:
    def test_unique_max_is_rank_one(self):
        scores = np.array([[0.1, 0.9, 0.3]])
        assert rank_of_target(scores, [1]).tolist() == [1]

    def test_all_equal_smallest_index_first(self):
        scores = np.zeros((2, 5))
        assert rank_of_target(scores, [0, 3]).tolist() == [1, 4]

    def test_matches_brute_force_sort_position(self):
        # several rows at once, each with its own candidates and ties
        rng = make_rng(1)
        for _ in range(50):
            b, n = int(rng.integers(1, 6)), int(rng.integers(3, 30))
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=(b, n))  # force ties
            mask = np.zeros((b, n), dtype=bool)
            targets, want = [], []
            for row, keep in zip(scores, mask):
                candidates = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                keep[candidates] = True
                targets.append(int(rng.choice(candidates)))
                order = sorted(candidates.tolist(), key=lambda i: (-row[i], i))
                want.append(order.index(targets[-1]) + 1)
            assert rank_of_target(scores, targets, mask).tolist() == want

    def test_agrees_with_lexsort_order_on_ties(self):
        rng = make_rng(2)
        for _ in range(20):
            b, n = int(rng.integers(1, 8)), int(rng.integers(2, 40))
            scores = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(b, n))  # force ties
            targets = rng.integers(0, n, size=b)
            # lexsort's last key is primary: score descending, then index ascending
            want = [int(np.flatnonzero(np.lexsort((np.arange(n), -row)) == t)[0]) + 1
                    for row, t in zip(scores, targets)]
            assert rank_of_target(scores, targets).tolist() == want

    def test_target_absent_error(self):
        with pytest.raises(ValueError):
            rank_of_target(np.zeros((1, 4)), [2], candidate_mask(4, [0, 1]))


class TestEvaluate:
    def test_perfect_scorer_full_recall(self):
        examples = make_examples(40, 30, seed=2)
        model = PerfectScorer(examples, 30)
        report = evaluate(model, examples, EvalConfig(ks=(1, 5, 10)), seed=0)
        assert all(report.recall[k] == 1.0 for k in (1, 5, 10))
        assert report.precision[1] == 1.0

    def test_empty_test_set_error(self):
        with pytest.raises(ValueError):
            evaluate(UniformScorer(10), make_examples(0, 10), EvalConfig(ks=(1,)), seed=0)

    def test_cutoff_beyond_catalog_error(self):
        with pytest.raises(ValueError):
            evaluate(UniformScorer(10), make_examples(5, 10), EvalConfig(ks=(1, 50)), seed=0)

    def test_recall_monotone_and_precision_identity(self):
        examples = make_examples(300, 50, seed=3)
        report = evaluate(UniformScorer(50, seed=4), examples, EvalConfig(ks=(1, 3, 10, 25, 50)),
                          seed=0)
        values = [report.recall[k] for k in report.ks]
        assert values == sorted(values)
        for k in report.ks:
            assert report.precision[k] == report.recall[k] / k

    def test_uniform_scorer_matches_binomial_oracle(self):
        n_songs, n_examples = 200, 1500
        examples = make_examples(n_examples, n_songs, seed=5)
        report = evaluate(
            UniformScorer(n_songs, seed=6), examples, EvalConfig(ks=(1, 10, 50, 100)), seed=0
        )
        for k in report.ks:
            p = k / n_songs
            sigma = np.sqrt(p * (1 - p) / n_examples)
            assert abs(report.recall[k] - p) <= 3 * sigma

    def test_deterministic_given_config(self):
        examples = make_examples(60, 40, seed=7)
        model = StatelessScorer(40)
        cfg = EvalConfig(ks=(1, 5, 20), protocol="sampled", n_neg=10)
        train = session_table((u, [0, 1, 2]) for u in range(3))
        a = evaluate(model, examples, cfg, seed=9, train=train)
        b = evaluate(model, examples, cfg, seed=9, train=train)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("protocol,exclude",
                             [("full", False), ("full", True), ("sampled", False)])
    def test_chunking_does_not_change_result(self, monkeypatch, protocol, exclude):
        examples = make_examples(80, 40, seed=8)
        model = StatelessScorer(40)
        cfg = EvalConfig(ks=(1, 5, 20), protocol=protocol, n_neg=15, exclude_train_songs=exclude)
        train = session_table((u, list(range(5))) for u in range(3))
        whole = evaluate(model, examples, cfg, seed=9, train=train)
        monkeypatch.setattr(evaluation, "CHUNK_CELLS", 1)  # one example per chunk
        single = evaluate(model, examples, cfg, seed=9, train=train)
        assert whole.to_dict() == single.to_dict()

    @pytest.mark.parametrize("protocol", ["full", "sampled"])
    def test_non_finite_scores_raise(self, protocol):
        # every comparison with NaN is false, so unchecked NaN scores would
        # rank each target first and report recall 1.0
        examples = make_examples(30, 20, seed=12)
        key = (int(examples.user[7]), tuple(examples.context[7].tolist()))

        class NanAtOneContext(StatelessScorer):
            def score_batch(self, users, contexts):
                scores = super().score_batch(users, contexts)
                for i, (u, ctx) in enumerate(zip(users, contexts)):
                    if (u, tuple(ctx)) == key:
                        scores[i] = np.nan
                return scores

        first = next(i for i, e in enumerate(examples) if (e.user, tuple(e.context)) == key)
        cfg = EvalConfig(ks=(1, 5), protocol=protocol, n_neg=5)
        with pytest.raises(ValueError, match=f"non-finite scores for test example {first}$"):
            evaluate(NanAtOneContext(20), examples, cfg, seed=0, train=session_table([]))

    def test_sampled_equals_full_when_all_candidates(self):
        # n_neg = N-1 and no training listens: candidate sets coincide
        n_songs = 25
        examples = make_examples(50, n_songs, seed=10)
        model = StatelessScorer(n_songs)
        full = evaluate(model, examples, EvalConfig(ks=(1, 5, 10)), seed=0)
        sampled = evaluate(
            model,
            examples,
            EvalConfig(ks=(1, 5, 10), protocol="sampled", n_neg=n_songs - 1),
            seed=0,
            train=session_table([]),
        )
        assert sampled.recall == full.recall

    def test_sampled_needs_train_songs(self):
        with pytest.raises(ValueError):
            evaluate(
                UniformScorer(10),
                make_examples(5, 10),
                EvalConfig(ks=(1,), protocol="sampled"),
                seed=0,
            )

    def test_report_matches_hand_computed_rank_table(self):
        # fixed score vectors, ranks worked out by hand:
        #   example A: target 2 scored 0.9, beaten by song 0 (1.0) -> rank 2
        #   example B: target 1 has the unique max                  -> rank 1
        #   example C: target 3 ties song 0; lower index wins       -> rank 2
        table = {
            (0, (4,)): (np.array([1.0, 0.5, 0.9, 0.2, 0.0]), 2),
            (1, (3,)): (np.array([0.1, 2.0, 0.3, 0.4, 0.5]), 1),
            (2, (0,)): (np.array([0.7, 0.1, 0.2, 0.7, 0.3]), 3),
        }

        class Fixed:
            n_songs = 5

            def score_batch(self, users, contexts):
                return np.stack([table[(int(u), tuple(int(c) for c in ctx))][0]
                                 for u, ctx in zip(users, contexts)])

        examples = extract_examples(
            session_table((u, [*ctx, t]) for (u, ctx), (_, t) in table.items()), 1)
        report = evaluate(Fixed(), examples, EvalConfig(ks=(1, 2, 3)), seed=0)
        # hand ranks: 2, 1, 2 -> hits@1=1, hits@2=3, hits@3=3
        assert report.hits == {1: 1, 2: 3, 3: 3}
        assert report.recall == {1: 1 / 3, 2: 1.0, 3: 1.0}

    def test_exclude_train_songs_flag(self):
        # the model loves songs 0..3; they are exactly the user's training
        # songs, so excluding them must promote the target
        n_songs = 10

        class Biased:
            n_songs = 10

            def score_batch(self, users, contexts):
                scores = np.zeros((len(users), n_songs))
                scores[:, :4] = 5.0
                scores[np.arange(len(users)), np.asarray(contexts)[:, 0]] = 1.0  # middling target
                return scores

        examples = extract_examples(session_table([(0, [7, 7])]), 1)
        cfg_in = EvalConfig(ks=(1,))
        cfg_ex = EvalConfig(ks=(1,), exclude_train_songs=True)
        train = session_table([(0, [0, 1, 2, 3])])
        assert evaluate(Biased(), examples, cfg_in, seed=0).recall[1] == 0.0
        excluded = evaluate(Biased(), examples, cfg_ex, seed=0, train=train)
        assert excluded.recall[1] == 1.0


@pytest.mark.parametrize("protocol,exclude",
                         [("full", False), ("full", True), ("sampled", False)])
def test_one_chunk_alive_at_a_time(monkeypatch, protocol, exclude):
    # every earlier chunk's scores and candidate mask must be freed before
    # the next chunk is scored
    n_songs = 40
    refs = []
    build_mask = evaluation._candidate_mask

    def recording_mask(*args):
        mask = build_mask(*args)
        refs.append(weakref.ref(mask))
        return mask

    class RecordingScorer(StatelessScorer):
        def score_batch(self, users, contexts):
            assert all(ref() is None for ref in refs), "an earlier chunk is still alive"
            scores = super().score_batch(users, contexts)
            refs.append(weakref.ref(scores))
            return scores

    monkeypatch.setattr(evaluation, "_candidate_mask", recording_mask)
    monkeypatch.setattr(evaluation, "CHUNK_CELLS", 3 * n_songs)
    examples = make_examples(20, n_songs, seed=4)
    cfg = EvalConfig(ks=(1, 5), protocol=protocol, n_neg=10, exclude_train_songs=exclude)
    train = session_table((u, list(range(5))) for u in range(3))
    evaluate(RecordingScorer(n_songs), examples, cfg, seed=0, train=train)
    assert len(refs) == (14 if protocol == "sampled" or exclude else 7)


def test_full_protocol_peak_memory_is_one_score_chunk():
    # 200 examples over a 10k catalog are four chunks at the default
    # CHUNK_CELLS; a scorer that allocates exactly one (rows, N) array per
    # call then leaves evaluate's traced peak at 1.13 x one chunk's float64
    # scores (measured with numpy 2.4; the rest is the rank's boolean
    # counts). Two live chunks read about 2.0 x.
    n_songs = 10_000
    table = make_rng(5).random((16, n_songs))

    class OneArrayScorer:
        def __init__(self):
            self.n_songs = n_songs

        def score_batch(self, users, contexts):
            return table[np.asarray(contexts)[:, -1] % len(table)]

    examples = make_examples(200, n_songs, seed=6)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate(OneArrayScorer(), examples, EvalConfig(ks=(1, 10, 100)), seed=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * evaluation.CHUNK_CELLS


def real_family_models(n_songs, n_users):
    """One model of each family over an ``n_songs`` catalog, briefly
    trained (the baselines) or freshly initialised (the neural ones), and
    the training sessions."""
    sessions = playlist_sessions(n_users=n_users, n_songs=n_songs, cycle=60, repeats=2, seed=8)
    return {
        "cnnrec": CnnRecParams(n_songs, n_users, TINY, rng=make_rng(1)),
        "nnrec": NnRecParams(n_songs, n_users, TINY, rng=make_rng(2)),
        "w2v": w2v_train(sessions, n_songs, d=4, window=3, negatives=5, lr=0.025, epochs=1,
                         rng=make_rng(3))[0],
        "wmf": wmf_train(play_count_matrix(sessions, n_users, n_songs), n_users, n_songs, f=3,
                         alpha=40.0, lam=0.1, iters=2, rng=make_rng(4))[0],
        "fpmc": fpmc_train(extract_examples(sessions, 1), n_users, n_songs, f=3, lr=0.05,
                           lam=0.01, epochs=1, rng=make_rng(5))[0],
    }, sessions


@pytest.mark.parametrize("protocol,exclude",
                         [("full", False), ("full", True), ("sampled", False)])
def test_real_families_report_the_same_whatever_the_chunk_size(monkeypatch, protocol, exclude):
    # a 240-song catalog splits 60 test examples into 20 or 9 chunks, or
    # leaves them in one at the default size; reports, not score bits, are
    # compared, because BLAS may round a row differently at another row count
    n_songs, n_users = 240, 6
    models, train = real_family_models(n_songs, n_users)
    cfg = EvalConfig(ks=(1, 5, 20, 100), protocol=protocol, n_neg=50,
                     exclude_train_songs=exclude)
    for family, model in models.items():
        examples = make_examples(60, n_songs, j=model.order or 3, seed=9, n_users=n_users)
        reports = []
        for cells in (3 * n_songs, 7 * n_songs, evaluation.CHUNK_CELLS):
            monkeypatch.setattr(evaluation, "CHUNK_CELLS", cells)
            reports.append(evaluate(model, examples, cfg, seed=2, train=train).to_dict())
        monkeypatch.undo()
        assert reports[0] == reports[1] == reports[2], family


def oracle_candidates(train, users, targets, n_songs, config, seed):
    """Candidate rows of the examples, one at a time: a dict of the songs
    each user heard in training, then the target plus the unheard songs,
    of which the sampled protocol draws ``n_neg`` with the example's own
    subseed."""
    heard = {}
    for u, songs in table_rows(train):
        heard.setdefault(u, set()).update(songs)
    rows = []
    for position, (u, t) in enumerate(zip(users.tolist(), targets.tolist())):
        row = np.ones(n_songs, dtype=bool)
        row[list(heard.get(u, ()))] = False
        row[t] = False
        if config.protocol == "sampled" and np.count_nonzero(row) > config.n_neg:
            rng = make_rng(derive_seed(seed, f"neg:{position}"))
            picked = rng.choice(np.flatnonzero(row), size=config.n_neg, replace=False)
            row[:] = False
            row[picked] = True
        row[t] = True
        rows.append(row)
    return np.array(rows)


def test_candidate_masks_match_the_per_example_oracle(monkeypatch):
    rng = make_rng(31)
    masks = []

    def recording_rank(scores, targets, mask=None):
        masks.append(mask)
        return rank_of_target(scores, targets, mask)

    monkeypatch.setattr(evaluation, "rank_of_target", recording_rank)
    for case in range(60):
        n_songs, n_users = int(rng.integers(2, 30)), int(rng.integers(1, 6))
        # the last user has no training sessions; short sessions over a
        # small catalog put many targets among the heard songs
        train = session_table(
            (int(rng.integers(max(n_users - 1, 1))),
             rng.integers(0, n_songs, size=int(rng.integers(0, 8))).tolist())
            for _ in range(int(rng.integers(0, 8))))
        examples = extract_examples(session_table(
            (int(rng.integers(n_users)), rng.integers(0, n_songs, size=2).tolist())
            for _ in range(int(rng.integers(1, 25)))), 1)
        seed = int(rng.integers(1000))
        # a user absent from training has exactly n_songs - 1 unheard songs
        n_negs = {1, int(rng.integers(1, n_songs)), n_songs - 1, n_songs}
        configs = [EvalConfig(ks=(1,), exclude_train_songs=True), EvalConfig(ks=(1,))]
        configs += [EvalConfig(ks=(1,), protocol="sampled", n_neg=n) for n in sorted(n_negs)]
        for cells in (1, 3 * n_songs, evaluation.CHUNK_CELLS):
            monkeypatch.setattr(evaluation, "CHUNK_CELLS", cells)
            for config in configs:
                masks.clear()
                evaluate(StatelessScorer(n_songs), examples, config, seed=seed, train=train)
                if config.protocol == "full" and not config.exclude_train_songs:
                    assert all(mask is None for mask in masks)
                    continue
                want = oracle_candidates(train, examples.user, examples.target, n_songs,
                                         config, seed)
                assert np.array_equal(np.concatenate(masks), want), (case, cells, config)


class TestEvalReport:
    def _report(self):
        return EvalReport(
            label="stub",
            ks=(1, 5),
            hits={1: 3, 5: 7},
            n_examples=10,
            protocol="full",
            config_hash="abc",
        )

    def test_recall_precision_derived_from_hits(self):
        r = self._report()
        assert r.recall == {1: 0.3, 5: 0.7}
        assert r.precision == {1: 0.3, 5: 0.7 / 5}

    def test_non_monotone_recall_rejected(self):
        with pytest.raises(ValueError):
            EvalReport(
                label="bad",
                ks=(1, 5),
                hits={1: 7, 5: 3},
                n_examples=10,
                protocol="full",
                config_hash="x",
            )


class TestEmitCurves:
    def _reports(self):
        examples = make_examples(50, 40, seed=11)
        model = StatelessScorer(40)
        cfg = EvalConfig(ks=(1, 2, 3, 5, 8, 13, 21, 34, 40))
        return [evaluate(model, examples, cfg, seed=0, label="stub")]

    def test_row_count(self, tmp_path):
        path = tmp_path / "curves.csv"
        emit_curves(self._reports(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,k,recall,precision"
        assert len(lines) == 1 + 9

    def test_reemit_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        reports = self._reports()
        emit_curves(reports, a)
        emit_curves(reports, b)
        assert a.read_bytes() == b.read_bytes()

    def test_values_round_trip_through_csv_parser(self, tmp_path):
        import csv

        path = tmp_path / "curves.csv"
        reports = self._reports()
        emit_curves(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        report = reports[0]
        assert len(rows) == len(report.ks)
        for row in rows:
            k = int(row["k"])
            assert row["model"] == "stub"
            assert float(row["recall"]) == report.recall[k]
            assert float(row["precision"]) == report.precision[k]

    def test_no_reports_error(self, tmp_path):
        with pytest.raises(ValueError):
            emit_curves([], tmp_path / "x.csv")
