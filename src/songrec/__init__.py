"""Next-song recommendation toolkit.

Implements a convolutional sequence recommender and a feed-forward
recommender over song/user embeddings, three comparison systems
(skip-gram item embeddings, implicit-feedback weighted matrix
factorization, a factorized first-order Markov chain), and the
listening-log preparation plus top-N evaluation pipeline around them.
"""

__version__ = "0.1.0"

# defines every model family, neural first: Recommender.families()
# lists them in this order
from . import models, baselines  # noqa: E402,F401  isort: skip
