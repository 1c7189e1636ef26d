"""Next-song recommendation toolkit.

Implements a convolutional sequence recommender and a feed-forward
recommender over song/user embeddings, three comparison systems
(skip-gram item embeddings, implicit-feedback weighted matrix
factorization, a factorized first-order Markov chain), and the
listening-log preparation plus top-N evaluation pipeline around them.
"""

from .baselines import FpmcFactors, ItemEmbeddings, WmfFactors
from .models import CnnRecParams, NnRecParams

__version__ = "0.1.0"

# model_type -> class of every model family, for configs and checkpoints
FAMILIES = {cls.model_type: cls for cls in (CnnRecParams, NnRecParams, ItemEmbeddings,
                                            WmfFactors, FpmcFactors)}
