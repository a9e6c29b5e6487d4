"""splitread: a batch workbench for sentence-split readability analysis.

Computes syntactic, cohesion and surface readability predictors from
pre-parsed sentence-split data, fits a Bayesian logistic preference model
with Hamiltonian Monte Carlo, and ranks predictors with WAIC ablations.

The names below are the ones README's *Library use* documents, and the
error and warning types; every other function is imported from its
submodule (``splitread.cohesion.tree_kernel``, for example).
"""

from .cohesion import tree_edit_distance
from .complexity import frazier_score, yngve_score
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
from .inference import ModelSpec, SamplerConfig, sample_posterior, summarize
from .selection import ablate, pointwise_loglik, waic
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
