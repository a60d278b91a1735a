"""Dependency-chain representations for event temporal status prediction.

The package covers the full pipeline: CoNLL-U parsing, two-stage dependency
chain extraction (with a local-window baseline), three from-scratch
classifiers (LSTM, CNN, child-sum tree-LSTM), an RMSProp training and
cross-validation harness, gradient saliency heatmaps, and a deterministic
synthetic corpus generator. The `depchain` command exposes everything.

Each module's ``__all__`` is the one list of its public names; the package
exports exactly those lists.
"""

__version__ = "0.1.0"

from . import chain, corpus, errors, harness, models, nncore, saliency
from .chain import *
from .corpus import *
from .errors import *
from .harness import *
from .models import *
from .nncore import *
from .saliency import *

__all__ = ["__version__", *chain.__all__, *corpus.__all__, *errors.__all__, *harness.__all__,
           *models.__all__, *nncore.__all__, *saliency.__all__]
