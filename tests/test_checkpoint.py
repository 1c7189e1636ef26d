import numpy as np
import pytest

from conftest import markov_chain_sessions, playlist_sessions
from songrec import checkpoint
from songrec.baselines import fpmc_train, play_count_matrix, w2v_train, wmf_train
from songrec.data import extract_examples
from songrec.models import CnnRecParams, Hyperparams, NnRecParams
from songrec.util import make_rng

TINY = Hyperparams(d=4, j=3, h=5, m=3, w=2, epochs=1, batch=2, dropout_p=0.0)


def small_models():
    sessions = playlist_sessions(n_users=3, n_songs=12, cycle=4, repeats=2, seed=9)
    counts = play_count_matrix(sessions, 3, 12)
    fpmc_examples = extract_examples(markov_chain_sessions(n_songs=8, n_users=2,
                                                           sessions_per_user=2,
                                                           session_len=10), 1)
    return {
        "cnnrec": CnnRecParams(12, 3, TINY, rng=make_rng(1)),
        "nnrec": NnRecParams(12, 3, TINY, rng=make_rng(2)),
        "w2v": w2v_train(sessions, 12, d=4, epochs=1, rng=make_rng(3)),
        "wmf": wmf_train(counts, f=3, iters=2, rng=make_rng(4)),
        "fpmc": fpmc_train(fpmc_examples, 2, 8, f=3, epochs=1, rng=make_rng(5)),
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

    def test_unknown_model_type_rejected(self, tmp_path):
        path = tmp_path / "odd.ckpt"
        checkpoint.save(path, "mystery", {}, {"t": np.ones(1)})
        with pytest.raises(ValueError, match="unknown model type"):
            checkpoint.load_model(path)
