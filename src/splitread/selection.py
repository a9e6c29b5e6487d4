"""WAIC model scoring and the leave-one-predictor-out ablation.

WAIC is reported on the log-score scale (higher is better):
sum_i log E[p(y_i | theta)] minus the effective-parameter penalty
sum_i V[log p(y_i | theta)], with V the sample variance over posterior
draws (S - 1 denominator). Standard errors follow the usual pointwise
estimators, sqrt(n var(elpd_i)) and, for model differences, the variance
of the per-row elpd gaps against the best model. A row whose
p_waic_i exceeds P_WAIC_LIMIT makes the estimate unreliable (Vehtari,
Gelman & Gabry 2017); such rows are counted, not dropped. The pointwise
terms are ``inference``'s -softplus(-v) on the sampler's signed design,
and the log-sum-exp is numpy's. This module computes, ranks and flags;
``cli`` lays out ``ablation.csv`` and ``ablation.txt``.

Memory: scoring a model holds one S x n float64 array, the pointwise
log-likelihood of S pooled draws on n rows (S·n·8 bytes: 96 MB at the
desk profile's 4000 draws on 2994 rows, 383 MB at the paper profile's
16000), plus temporaries of S x ROW_BLOCK floats. The array is built in
place and reduced ROW_BLOCK rows at a time; the results are bit for bit
those of whole-array arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .config import ModelSpec, SamplerConfig
from .dataset import DesignMatrix
from .errors import ValidationError
from .inference import (
    PosteriorDraws,
    _signed_design,
    _softplus,
    sample_posterior,
    summarize,
)


# Rows (columns of the (samples, rows) array) processed at a time.
ROW_BLOCK = 256
# Vehtari, Gelman & Gabry (2017): WAIC is unreliable where p_waic_i > 0.4.
P_WAIC_LIMIT = 0.4


def _row_blocks(n_rows: int) -> list[slice]:
    """ROW_BLOCK-wide column slices covering ``n_rows``. numpy reduces a
    one-column slice pairwise, not draw by draw as it does a wider one,
    which changes the bits of a sum, so a one-row tail joins the block
    before it."""
    stops = [*range(ROW_BLOCK, n_rows - 1, ROW_BLOCK), n_rows]
    return [slice(a, b) for a, b in zip([0, *stops[:-1]], stops)]


def _log_sum_exp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=0)), each column shifted by its maximum."""
    top = a.max(axis=0)
    return top + np.log(np.exp(a - top).sum(axis=0))


def pointwise_loglik(draws: PosteriorDraws, matrix: DesignMatrix) -> np.ndarray:
    """Log Bernoulli likelihood of every row under every pooled draw, shape
    (samples, rows): the -softplus(-v) that ``inference``'s density sums."""
    if not draws.names or draws.names[0] != "intercept":
        raise ValidationError("draws must carry an intercept as first coefficient")
    A = _signed_design(matrix.predictor_matrix(draws.names[1:]), matrix.y)
    beta = draws.pooled()
    if beta.shape[1] != A.shape[1]:
        raise ValidationError("draw dimension does not match the design matrix")
    # One GEMM for all rows: split into row blocks, OpenBLAS's edge
    # kernels would change the bits of the last columns.
    v = beta @ A.T  # (S, n) margins
    for rows in _row_blocks(v.shape[1]):
        block = v[:, rows]
        block[...] = -_softplus(-block)
    return v


@dataclass(frozen=True)
class WaicResult:
    waic: float
    p_waic: float
    se: float
    pointwise: np.ndarray  # per-row elpd contributions
    unreliable_rows: int = 0  # rows with p_waic_i > P_WAIC_LIMIT


def waic(loglik: np.ndarray) -> WaicResult:
    """Score a pointwise log-likelihood array of shape (samples, rows)."""
    loglik = np.asarray(loglik, dtype=float)
    if loglik.ndim != 2:
        raise ValidationError("loglik must be a (samples, rows) array")
    n_samples, n_rows = loglik.shape
    if n_samples < 2 or n_rows < 1:
        raise ValidationError("WAIC needs at least 2 posterior samples and 1 row")
    # Each row's terms reduce over draws alone, so a block of rows gives
    # them bit for bit as the whole array would.
    lppd_i = np.empty(n_rows)
    p_i = np.empty(n_rows)
    for rows in _row_blocks(n_rows):
        block = loglik[:, rows]
        lppd_i[rows] = _log_sum_exp(block)
        # Centering on the first draw keeps the variance of coincident
        # draws exactly zero (the mean of k identical floats can round).
        p_i[rows] = (block - block[0]).var(axis=0, ddof=1)
    lppd_i -= math.log(n_samples)
    elpd_i = lppd_i - p_i
    return WaicResult(
        waic=float(elpd_i.sum()),
        p_waic=float(p_i.sum()),
        se=math.sqrt(n_rows * float(elpd_i.var())),
        pointwise=elpd_i,
        unreliable_rows=int(np.count_nonzero(p_i > P_WAIC_LIMIT)),
    )


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    rank: int
    waic: float
    p_waic: float
    d_waic: float
    se: float
    dse: float
    converged: bool = True
    unreliable_rows: int = 0  # rows with p_waic_i > P_WAIC_LIMIT


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def row(self, name: str) -> ComparisonRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def compare(
    results: Mapping[str, WaicResult],
    converged: Mapping[str, bool] | None = None,
) -> ComparisonTable:
    """Rank models by WAIC (descending), with gaps and their standard
    errors against the top model (0.0 on its own row). All models must be
    scored on the same rows."""
    if len(results) < 2:
        raise ValidationError("compare needs at least 2 models")
    sizes = {len(r.pointwise) for r in results.values()}
    if len(sizes) != 1:
        raise ValidationError("models were evaluated on different row sets")
    n = sizes.pop()
    if n < 1:
        raise ValidationError("compare needs models scored on at least 1 row")
    order = sorted(results, key=lambda name: (-results[name].waic, name))
    top = results[order[0]]
    rows = []
    for rank, name in enumerate(order):
        res = results[name]
        rows.append(
            ComparisonRow(
                name=name,
                rank=rank,
                waic=res.waic,
                p_waic=res.p_waic,
                d_waic=top.waic - res.waic,
                se=res.se,
                dse=math.sqrt(n * float((top.pointwise - res.pointwise).var())),
                converged=True if converged is None else converged.get(name, True),
                unreliable_rows=res.unreliable_rows,
            )
        )
    return ComparisonTable(rows=tuple(rows))


def ablate(
    matrix: DesignMatrix,
    full_spec: ModelSpec,
    config: SamplerConfig,
    sample_fn: Callable[[DesignMatrix, ModelSpec, SamplerConfig], PosteriorDraws] = sample_posterior,
) -> ComparisonTable:
    """Fit the full model, row ``base``, plus one model per removed
    predictor, named after it, and rank them by WAIC on identical rows. A
    fit that fails the convergence gate (``PosteriorSummary.converged``) is
    flagged, not dropped."""
    if len(full_spec.predictors) < 2:
        raise ValidationError("ablation needs at least 2 predictors")
    if "base" in full_spec.predictors:
        raise ValidationError("no predictor may be named 'base', the full model's row")
    results: dict[str, WaicResult] = {}
    converged: dict[str, bool] = {}
    for name in ("base", *full_spec.predictors):
        kept = tuple(p for p in full_spec.predictors if p != name)
        draws = sample_fn(matrix, replace(full_spec, predictors=kept), config)
        converged[name] = summarize(draws).converged()
        results[name] = waic(pointwise_loglik(draws, matrix))
    return compare(results, converged)
