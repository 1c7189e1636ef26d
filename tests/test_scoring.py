"""The one scoring interface every model family implements."""

import numpy as np
import pytest

import songrec
from songrec.config import MODEL_FAMILIES
from songrec.util import Recommender
from test_checkpoint import small_models

FAMILIES = ["cnnrec", "nnrec", "w2v", "wmf", "fpmc"]


def batch(model):
    users = np.array([0, 1, 1, 0])
    contexts = np.array([[2, 1, 3], [0, 0, 5], [7, 4, 1], [3, 3, 3]])
    if model.order is not None:
        contexts = contexts[:, -model.order:]
    return users, contexts


class TestScoreBatch:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_match_single_calls(self, family):
        # a batch runs as one matrix product, a single call as a vector
        # product; the two differ only in summation order
        model = small_models()[family]
        users, contexts = batch(model)
        scores = model.score_batch(users, contexts)
        assert scores.shape == (len(users), model.n_songs)
        for i in range(len(users)):
            assert np.allclose(scores[i], model.score_catalog(users[i], contexts[i]),
                               rtol=0, atol=1e-12)

    # w2v carries no per-user state and wmf ignores the context
    @pytest.mark.parametrize("family,bad", [(f, "user") for f in FAMILIES if f != "w2v"]
                             + [(f, "song") for f in FAMILIES if f != "wmf"])
    @pytest.mark.parametrize("index", [-1, 99])
    def test_out_of_range_index_raises(self, family, bad, index):
        model = small_models()[family]
        users, contexts = batch(model)
        if bad == "user":
            users[1] = index
        else:
            contexts[1, -1] = index
        with pytest.raises(IndexError):
            model.score_batch(users, contexts)

    def test_order_per_family(self):
        orders = {fam: model.order for fam, model in small_models().items()}
        assert orders == {"cnnrec": 3, "nnrec": 3, "w2v": None, "wmf": None, "fpmc": 1}

    def test_checkpoint_registry_covers_every_family(self):
        assert tuple(songrec.FAMILIES) == MODEL_FAMILIES == tuple(FAMILIES)
        for fam, model in small_models().items():
            assert songrec.FAMILIES[fam] is type(model)

    def test_family_table_names_every_recommender_subclass(self):
        # a new family class must be added to songrec.FAMILIES by hand
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        named = {cls.model_type: cls for cls in subclasses(Recommender) if cls.model_type}
        assert songrec.FAMILIES == named
        assert list(songrec.FAMILIES) == FAMILIES  # cnnrec, nnrec, w2v, wmf, fpmc
