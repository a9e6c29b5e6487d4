"""splitread: a batch workbench for sentence-split readability analysis.

Computes syntactic, cohesion and surface readability predictors from
pre-parsed sentence-split data, fits a Bayesian logistic preference model
with Hamiltonian Monte Carlo, and ranks predictors with WAIC ablations.

The names below are the ones README's *Library use* documents, and the
error and warning types; every other function is imported from its
submodule (``splitread.cohesion.tree_kernel``, for example). The
inference and selection functions are exported lazily, through the module
``__getattr__`` (PEP 562), so that importing the package, and running
``extract`` or ``report``, does not load numpy.
"""

from importlib import import_module

from .cohesion import tree_edit_distance
from .complexity import frazier_score, yngve_score
from .config import ModelSpec, SamplerConfig
from .dataset import build_design_matrix, ingest
from .errors import (
    DegenerateInputWarning,
    FormatError,
    IntegrityError,
    ParseError,
    SplitreadError,
    StandardizationError,
    ValidationError,
)
from .trees import parse_ptb

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputWarning",
    "FormatError",
    "IntegrityError",
    "ModelSpec",
    "ParseError",
    "SamplerConfig",
    "SplitreadError",
    "StandardizationError",
    "ValidationError",
    "ablate",
    "build_design_matrix",
    "frazier_score",
    "ingest",
    "parse_ptb",
    "pointwise_loglik",
    "sample_posterior",
    "summarize",
    "tree_edit_distance",
    "waic",
    "yngve_score",
]

# The exports whose modules import numpy: name -> submodule.
_LAZY = {
    "sample_posterior": "inference",
    "summarize": "inference",
    "ablate": "selection",
    "pointwise_loglik": "selection",
    "waic": "selection",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
