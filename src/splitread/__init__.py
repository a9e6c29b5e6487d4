"""splitread: a batch workbench for sentence-split readability analysis.

Computes syntactic, cohesion and surface readability predictors from
pre-parsed sentence-split data, fits a Bayesian logistic preference model
with Hamiltonian Monte Carlo, and ranks predictors with WAIC ablations.
"""

from .cohesion import (
    kernel_similarity,
    overlap_coefficient,
    ted1,
    ted2,
    tree_edit_distance,
    tree_kernel,
)
from .complexity import (
    dep_distance,
    frazier_costs,
    frazier_score,
    tnodes,
    yngve_costs,
    yngve_score,
)
from .dataset import (
    PREDICTORS,
    DesignMatrix,
    FeatureConfig,
    JudgmentRecord,
    Triple,
    build_design_matrix,
    ingest,
    score_summary,
    tally,
)
from .errors import (
    DegenerateInputWarning,
    FormatError,
    IntegrityError,
    ParseError,
    SplitreadError,
    StandardizationError,
    ValidationError,
)
from .inference import (
    ModelSpec,
    PosteriorDraws,
    SamplerConfig,
    log_posterior,
    rhat,
    sample_posterior,
    summarize,
)
from .readability import (
    TextStats,
    count_syllables,
    dale_chall,
    fk_grade,
    flesch_reading_ease,
    load_easy_words,
    text_stats,
)
from .selection import (
    ComparisonTable,
    WaicResult,
    ablate,
    compare,
    pointwise_loglik,
    waic,
)
from .trees import (
    DepGraph,
    DepToken,
    ParseTree,
    parse_conllu,
    parse_ptb,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonTable",
    "DegenerateInputWarning",
    "DepGraph",
    "DepToken",
    "DesignMatrix",
    "FeatureConfig",
    "FormatError",
    "IntegrityError",
    "JudgmentRecord",
    "ModelSpec",
    "PREDICTORS",
    "ParseError",
    "ParseTree",
    "PosteriorDraws",
    "SamplerConfig",
    "SplitreadError",
    "StandardizationError",
    "TextStats",
    "Triple",
    "ValidationError",
    "WaicResult",
    "ablate",
    "build_design_matrix",
    "compare",
    "count_syllables",
    "dale_chall",
    "dep_distance",
    "fk_grade",
    "flesch_reading_ease",
    "frazier_costs",
    "frazier_score",
    "ingest",
    "kernel_similarity",
    "load_easy_words",
    "log_posterior",
    "overlap_coefficient",
    "parse_conllu",
    "parse_ptb",
    "pointwise_loglik",
    "rhat",
    "sample_posterior",
    "score_summary",
    "summarize",
    "tally",
    "ted1",
    "ted2",
    "text_stats",
    "tnodes",
    "tree_edit_distance",
    "tree_kernel",
    "waic",
    "yngve_costs",
    "yngve_score",
]
