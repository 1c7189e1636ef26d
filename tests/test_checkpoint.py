import dataclasses
import re

import numpy as np
import pytest

from conftest import markov_chain_sessions, playlist_sessions
from songrec import checkpoint
from songrec.baselines import (
    FpmcFactors,
    ItemEmbeddings,
    WmfFactors,
    fpmc_train,
    play_count_matrix,
    w2v_train,
    wmf_train,
)
from songrec.core import conv1d, glorot_init
from songrec.data import extract_examples
from songrec.models import CnnRecParams, Hyperparams, NnRecParams
from songrec.util import make_rng

TINY = Hyperparams(d=4, j=3, h=5, m=3, w=2, stride=1, epochs=1, batch=2, lr=0.01, dropout=0.0)


def small_models():
    sessions = playlist_sessions(n_users=3, n_songs=12, cycle=4, repeats=2, seed=9)
    counts = play_count_matrix(sessions, 3, 12)
    fpmc_examples = extract_examples(markov_chain_sessions(n_songs=8, n_users=2,
                                                           sessions_per_user=2,
                                                           session_len=10), 1)
    return {
        "cnnrec": CnnRecParams(12, 3, TINY, rng=make_rng(1)),
        "nnrec": NnRecParams(12, 3, TINY, rng=make_rng(2)),
        "w2v": w2v_train(sessions, 12, d=4, window=5, negatives=5, lr=0.025, epochs=1,
                         rng=make_rng(3))[0],
        "wmf": wmf_train(counts, 3, 12, f=3, alpha=40.0, lam=0.1, iters=2, rng=make_rng(4))[0],
        "fpmc": fpmc_train(fpmc_examples, 2, 8, f=3, lr=0.05, lam=0.01, epochs=1,
                           rng=make_rng(5))[0],
    }


class TestContainer:
    def test_magic_and_layout(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint.save(path, "stub", {"a": 1}, {"t": np.arange(6.0).reshape(2, 3)})
        blob = path.read_bytes()
        assert blob[:8] == b"SNGREC01"
        model_type, meta, tensors = checkpoint.load(path)
        assert model_type == "stub" and meta == {"a": 1}
        assert np.array_equal(tensors["t"], np.arange(6.0).reshape(2, 3))

    def test_payload_is_little_endian_float64(self, tmp_path):
        path = tmp_path / "m.ckpt"
        arr = np.array([1.5, -2.0])
        checkpoint.save(path, "stub", {}, {"t": arr})
        blob = path.read_bytes()
        assert blob[-16:] == arr.astype("<f8").tobytes()

    def test_float32_round_trip(self, tmp_path):
        path = tmp_path / "m.ckpt"
        arr = np.array([[0.25, 1.5]], dtype=np.float32)
        checkpoint.save(path, "stub", {}, {"t": arr})
        _, _, tensors = checkpoint.load(path)
        assert tensors["t"].dtype == np.dtype("<f4")
        assert np.array_equal(tensors["t"], arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            checkpoint.load(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint.save(path, "stub", {}, {"t": np.arange(100.0)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="overruns"):
            checkpoint.load(path)

    @pytest.mark.parametrize("cut", ["length_field", "manifest", "payload"])
    def test_truncation_reported_at_every_cut_point(self, tmp_path, cut):
        path = tmp_path / "m.ckpt"
        checkpoint.save(path, "stub", {}, {"a": np.ones(3), "t": np.arange(100.0)})
        blob = path.read_bytes()
        header_end = 16 + int.from_bytes(blob[8:16], "little")
        keep = {"length_field": 12, "manifest": 20, "payload": header_end + 30}[cut]
        path.write_bytes(blob[:keep])
        with pytest.raises(ValueError, match="truncated"):
            checkpoint.load(path)

    def test_save_writes_the_tensor_bytes_unchanged(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tensors = {"f": np.arange(6.0).reshape(2, 3).T, "h": np.arange(4, dtype=">f4"),
                   "e": np.zeros((0, 2))}
        checkpoint.save(path, "stub", {}, tensors)
        blob = path.read_bytes()
        header_end = 16 + int.from_bytes(blob[8:16], "little")
        want = b"".join(np.ascontiguousarray(t).astype(t.dtype.newbyteorder("<")).tobytes()
                        for t in tensors.values())
        assert blob[header_end:] == want
        _, _, back = checkpoint.load(path)
        for name, t in tensors.items():
            assert back[name].dtype == t.dtype.newbyteorder("<")
            assert np.array_equal(back[name], t)

    def test_multiple_tensors_manifest_order(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tensors = {"a": np.ones(2), "b": np.zeros((3, 2)), "c": np.full(4, 7.0)}
        checkpoint.save(path, "stub", {}, tensors)
        _, _, back = checkpoint.load(path)
        assert list(back) == ["a", "b", "c"]
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])


class TestModelRoundTrip:
    @pytest.mark.parametrize("cls", [ItemEmbeddings, WmfFactors, FpmcFactors])
    def test_fields_are_the_declared_tensors_scalars_and_history(self, cls):
        # a field outside the declaration would be left out of checkpoints;
        # the model holds no scalars (the training settings stay in the
        # config) and no history (returned beside the model)
        fields = dataclasses.fields(cls)
        assert [f.name for f in fields] == list(cls.TENSORS)
        assert all(f.type == "np.ndarray" for f in fields)

    @pytest.mark.parametrize("family,dims", [("w2v", {"n_songs": 12, "d": 4}),
                                             ("wmf", {"n_users": 3, "n_songs": 12, "f": 3}),
                                             ("fpmc", {"n_users": 2, "n_songs": 8, "f": 3})])
    def test_baseline_meta_is_its_dims(self, tmp_path, family, dims):
        path = tmp_path / f"{family}.ckpt"
        checkpoint.save(path, *small_models()[family].to_checkpoint())
        assert checkpoint.load(path)[1] == dims

    @pytest.mark.parametrize("family,settings", [("wmf", {"alpha": 40.0, "lam": 0.1}),
                                                 ("fpmc", {"lr": 0.05, "lam": 0.01})])
    def test_checkpoint_with_training_settings_in_meta_still_loads(self, tmp_path, family,
                                                                    settings):
        # checkpoints written before the settings left the model carry
        # them in meta; loading reads the dims and ignores the rest
        model = small_models()[family]
        model_type, meta, tensors = model.to_checkpoint()
        path = tmp_path / f"{family}.ckpt"
        checkpoint.save(path, model_type, {**meta, **settings}, tensors)
        loaded = checkpoint.load_model(path)
        assert type(loaded) is type(model)
        for name, tensor in loaded.tensors().items():
            assert np.array_equal(tensor, tensors[name]), name
        users, contexts = np.array([0, 1, 1]), np.array([[2], [1], [3]])
        assert np.array_equal(loaded.score_batch(users, contexts),
                              model.score_batch(users, contexts))

    @pytest.mark.parametrize("family", ["cnnrec", "nnrec", "w2v", "wmf", "fpmc"])
    def test_bitwise_tensor_round_trip(self, tmp_path, family):
        model = small_models()[family]
        path = tmp_path / f"{family}.ckpt"
        checkpoint.save(path, *model.to_checkpoint())
        loaded = checkpoint.load_model(path)
        _, _, want = model.to_checkpoint()
        _, _, got = loaded.to_checkpoint()
        for name in want:
            assert np.array_equal(got[name], want[name]), (family, name)

    @pytest.mark.parametrize("family", ["cnnrec", "nnrec", "w2v", "wmf", "fpmc"])
    def test_reload_scores_bitwise_equal(self, tmp_path, family):
        model = small_models()[family]
        path = tmp_path / f"{family}.ckpt"
        checkpoint.save(path, *model.to_checkpoint())
        loaded = checkpoint.load_model(path)
        for u in (0, 1):
            context = [2, 1, 3]
            a = model.score_catalog(u, context)
            b = loaded.score_catalog(u, context)
            assert np.array_equal(a, b), family

    def test_shape_mismatch_rejected(self, tmp_path):
        model = small_models()["nnrec"]
        model_type, meta, tensors = model.to_checkpoint()
        meta = dict(meta, n_songs=99)  # header no longer matches payload
        path = tmp_path / "bad.ckpt"
        checkpoint.save(path, model_type, meta, tensors)
        with pytest.raises(ValueError, match="shape"):
            checkpoint.load_model(path)

    def test_out_of_bounds_hyperparameter_rejected(self, tmp_path):
        model_type, meta, tensors = small_models()["nnrec"].to_checkpoint()
        meta["hyper"]["h"] = 0
        path = tmp_path / "bad.ckpt"
        checkpoint.save(path, model_type, meta, tensors)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: h must be >= 1, got 0$"):
            checkpoint.load_model(path)

    @pytest.mark.parametrize("family", ["w2v", "wmf", "fpmc"])
    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_baseline_tensor_set_checked(self, tmp_path, family, change):
        model_type, meta, tensors = small_models()[family].to_checkpoint()
        if change == "missing":
            del tensors[next(iter(tensors))]
        else:
            tensors["stray"] = np.zeros(2)
        path = tmp_path / "bad.ckpt"
        checkpoint.save(path, model_type, meta, tensors)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tensors "):
            checkpoint.load_model(path)

    def test_unknown_model_type_rejected(self, tmp_path):
        path = tmp_path / "odd.ckpt"
        checkpoint.save(path, "mystery", {}, {"t": np.ones(1)})
        with pytest.raises(ValueError, match="unknown model type"):
            checkpoint.load_model(path)


def earlier_layout_tensors(family, n_songs=12, n_users=3):
    """Hand-made tensors at TINY, each dense weight (out, in), as every
    checkpoint stores them, including those written while the models
    held them that way in memory."""
    rng = make_rng(30)
    hy = TINY
    tensors = {"e_song": rng.standard_normal((n_songs, hy.d)),
               "e_user": rng.standard_normal((n_users, hy.d))}
    if family == "cnnrec":
        tensors["filters"] = rng.standard_normal((hy.m, hy.w, hy.d))
        tensors["conv_b"] = rng.standard_normal(hy.m)
        features = (hy.j - hy.w + 1) * hy.m
    else:
        features = hy.j * hy.d
    tensors["w1"] = rng.standard_normal((hy.h, features + hy.d))
    tensors["b1"] = rng.standard_normal(hy.h)
    tensors["w2"] = rng.standard_normal((n_songs, hy.h))
    tensors["b2"] = rng.standard_normal(n_songs)
    return tensors


def earlier_layout_scores(family, t, users, contexts):
    """softmax(x @ w.T + b) through both dense layers, in numpy, from the
    (out, in) tensors; the conv is the kernel's, as it has one layout."""
    s = t["e_song"][contexts]
    if family == "cnnrec":
        s = conv1d(s, t["filters"], t["conv_b"], TINY.stride)[0]
    z = np.concatenate([s.reshape(len(users), -1), t["e_user"][users]], axis=1)
    hidden = z @ t["w1"].T + t["b1"]
    hidden = np.where(hidden > 0, hidden, 0.0)
    logits = hidden @ t["w2"].T + t["b2"]
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    return probs / probs.sum(axis=1, keepdims=True)


class TestEarlierLayout:
    """Checkpoints keep each dense weight (out, in) while the models hold
    it (in, out)."""

    @pytest.mark.parametrize("family", ["cnnrec", "nnrec"])
    def test_loads_and_scores_bitwise_as_numpy(self, tmp_path, family):
        model_type, meta, _ = small_models()[family].to_checkpoint()
        tensors = earlier_layout_tensors(family)
        path = tmp_path / "earlier.ckpt"
        checkpoint.save(path, model_type, meta, tensors)
        model = checkpoint.load_model(path)
        assert model.w1.shape == tensors["w1"].T.shape
        # two rows and more run as GEMM on both sides; a one-row batch runs
        # as GEMV, which sums in another order and differs in the last bits
        for n in (2, 3, 7):
            users = np.arange(n) % 3
            contexts = (np.arange(n * TINY.j).reshape(n, TINY.j) * 5) % 12
            want = earlier_layout_scores(family, tensors, users, contexts)
            assert np.array_equal(model.score_batch(users, contexts), want), n

    @pytest.mark.parametrize("family", ["cnnrec", "nnrec"])
    def test_save_load_save_byte_identical(self, tmp_path, family):
        model_type, meta, _ = small_models()[family].to_checkpoint()
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        checkpoint.save(first, model_type, meta, earlier_layout_tensors(family))
        checkpoint.save(second, *checkpoint.load_model(first).to_checkpoint())
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("cls", [CnnRecParams, NnRecParams])
    def test_fresh_model_checkpoints_its_glorot_draws(self, cls):
        hy, draw = TINY, make_rng(6)
        features = (hy.j - hy.w + 1) * hy.m if cls is CnnRecParams else hy.j * hy.d
        want = {"e_song": glorot_init(12, hy.d, draw, (12, hy.d)),
                "e_user": glorot_init(3, hy.d, draw, (3, hy.d))}
        if cls is CnnRecParams:
            want["filters"] = glorot_init(hy.w * hy.d, hy.m, draw, (hy.m, hy.w, hy.d))
            want["conv_b"] = np.zeros(hy.m)
        # dense weights are drawn (out, in)
        want["w1"] = glorot_init(features + hy.d, hy.h, draw, (hy.h, features + hy.d))
        want["b1"] = np.zeros(hy.h)
        want["w2"] = glorot_init(hy.h, 12, draw, (12, hy.h))
        want["b2"] = np.zeros(12)
        _, _, tensors = cls(12, 3, hy, rng=make_rng(6)).to_checkpoint()
        assert list(tensors) == list(want)
        for name, tensor in tensors.items():
            assert np.array_equal(tensor, want[name]), name
