"""Bayesian logistic preference model fitted with Hamiltonian Monte Carlo.

The outcome of each design-matrix row is Bernoulli with
logit(lambda) = beta_0 + sum_i beta_i x_i, and every coefficient
(intercept included) carries an independent Normal(0, sd) prior. Sampling
uses plain HMC with leapfrog integration and dual-averaging step-size
adaptation during warmup (Hoffman & Gelman 2014, Algorithms 4-5);
convergence is checked with the Gelman-Rubin potential scale reduction
factor.

Leapfrog steps need only the gradient of the log density; its value is
computed only at trajectory endpoints, for the Metropolis test (Neal
2011). The draws are unchanged by this: an interior step whose density
alone is not finite needs A @ beta or beta @ beta to overflow the float
range, and such a trajectory ends non-finite or divergent, rejected
either way with the same random draws consumed.

The density is computed in margin form. Once per fit, before the chains
start, the intercept column and the outcome are folded into one
column-major signed design A = diag(s) [1, X], with s = 2y - 1. The
margin v = A @ beta is s * t for the logit t, so the log-likelihood
sum y*t - log(1 + e^t) is -sum log(1 + e^-v) and its gradient is
A^T sigmoid(-v), where sigmoid(-v) = 1 / (1 + e^v) is computed in v's own
buffer. A gradient is two matrix-vector products and three elementwise
passes, with no separate intercept and no y - lambda.

The sigmoid and softplus of the density are numpy's vectorized
``exp``/``log1p``, the package's only logistic kernels. ``selection``'s
WAIC terms are the density's -softplus(-v); ``synth`` draws with the sigmoid.

The chains run at the same time, striped over one process per CPU by
``pool.run``. Each chain owns its seed and random stream, so the draws
and every per-chain statistic are byte-reproducible on one machine and
the same for any number of lanes. Like the BLAS matrix-vector products
(OpenBLAS's GEMV) already, their last bits depend on the CPU's SIMD
dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import pool
from .dataset import DesignMatrix, ModelSpec, SamplerConfig, csv_line, write_artifact
from .errors import ValidationError

_LOG_2PI = math.log(2.0 * math.pi)
_DIVERGENCE_ENERGY = 1000.0

# Dual-averaging constants.
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75

# Convergence gate: a fit converges when every coefficient's R-hat is at
# most this.
RHAT_THRESHOLD = 1.05
# Summary settings: highest-density interval mass and histogram bins.
HDI_PROB = 0.94
HIST_BINS = 40


@dataclass
class PosteriorDraws:
    names: tuple[str, ...]
    draws: np.ndarray  # shape (chains, draws, coefficients)
    logp: np.ndarray  # shape (chains, draws)
    accept_rate: np.ndarray  # per chain, sampling phase
    divergences: int  # post-warmup count
    # Per chain, set by sample_posterior: the adapted step size and the
    # log-density/gradient calls. None for draws assembled elsewhere.
    step_size: np.ndarray | None = None
    grad_evals: np.ndarray | None = None

    def pooled(self) -> np.ndarray:
        return self.draws.reshape(-1, self.draws.shape[2])


def _expit_neg(v: np.ndarray) -> np.ndarray:
    """The logistic sigmoid of -v, 1 / (1 + e^v), computed in ``v``'s own
    buffer, which it returns. Above v = 709.78, e^v overflows to inf and
    the result is exactly 0."""
    with np.errstate(over="ignore"):
        np.exp(v, out=v)
    v += 1.0
    return np.divide(1.0, v, out=v)


def _expit(t: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + e^-t), on numpy's vectorized exp."""
    return _expit_neg(np.negative(t))


def _softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + e^t) as max(t, 0) + log1p(e^-|t|), which cannot overflow."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _signed_design(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The column-major signed design A = diag(2y - 1) [1, X], whose
    product with beta is every row's margin v = (2y - 1) * t."""
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValidationError("y must be binary")
    if not np.isfinite(X).all():
        raise ValidationError("design matrix has non-finite values")
    signs = 2.0 * y - 1.0
    A = np.empty((X.shape[0], X.shape[1] + 1), order="F")
    A[:, 0] = signs
    np.multiply(X, signs[:, None], out=A[:, 1:])
    return A


def _logpost_arrays(
    beta: np.ndarray,
    A: np.ndarray,
    prior_sd: np.ndarray,
    *,
    value: bool = True,
) -> tuple[float, np.ndarray]:
    """Log density and gradient on the signed design ``A``; with
    ``value=False`` only the gradient (bit-identical to the full call's)
    and NaN in place of the density."""
    v = A @ beta
    if value:
        # log lik = sum y*t - log(1 + e^t) = -sum log(1 + e^-v).
        loglik = -float(_softplus(np.negative(v)).sum())
    grad = A.T @ _expit_neg(v)
    grad -= beta / prior_sd**2
    if not value:
        return math.nan, grad
    z = beta / prior_sd
    logprior = float(
        -0.5 * (z @ z) - np.log(prior_sd).sum() - 0.5 * _LOG_2PI * beta.size
    )
    return loglik + logprior, grad


def log_posterior(
    beta: Sequence[float], matrix: DesignMatrix, spec: ModelSpec
) -> tuple[float, np.ndarray]:
    """Log joint density of the coefficients (up to no constant: the
    Normal and Bernoulli normalizers are included) and its gradient.

    ``beta`` holds the intercept followed by one coefficient per
    predictor of ``spec``, in order. The outcome must be 0/1.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (len(spec.predictors) + 1,):
        raise ValidationError(
            f"beta must have length {len(spec.predictors) + 1}, got {beta.shape}"
        )
    if not np.all(np.isfinite(beta)):
        raise ValidationError("beta contains non-finite values")
    A = _signed_design(matrix.predictor_matrix(spec.predictors), matrix.y)
    return _logpost_arrays(beta, A, np.full(A.shape[1], float(spec.prior_sd)))


def _leapfrog(
    q: np.ndarray,
    p: np.ndarray,
    grad: np.ndarray,
    eps: float,
    n_steps: int,
    logpost: Callable[..., tuple[float, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """``n_steps`` leapfrog steps from (q, p); interior steps compute only
    the gradient, the endpoint also the log density. A non-finite value
    stops the trajectory with density -inf, which the energy test rejects."""
    q = q.copy()
    p = p + 0.5 * eps * grad
    for _ in range(n_steps - 1):
        q += eps * p
        _, grad = logpost(q, value=False)
        if not np.isfinite(grad).all():
            return q, p, -math.inf, grad
        p += eps * grad
    q += eps * p
    lp, grad = logpost(q)
    if not np.isfinite(grad).all() or not math.isfinite(lp):
        return q, p, -math.inf, grad
    p += 0.5 * eps * grad
    return q, p, lp, grad


def _find_reasonable_epsilon(
    q: np.ndarray,
    lp: float,
    grad: np.ndarray,
    logpost: Callable,
    rng: np.random.Generator,
) -> float:
    eps = 1.0
    p = rng.standard_normal(q.size)
    h0 = -lp + 0.5 * float(p @ p)

    def accept_ratio(eps: float) -> float:
        _, p1, lp1, _ = _leapfrog(q, p, grad, eps, 1, logpost)
        h1 = -lp1 + 0.5 * float(p1 @ p1)
        return math.exp(min(0.0, h0 - h1))

    ratio = accept_ratio(eps)
    direction = 1.0 if ratio > 0.5 else -1.0
    for _ in range(50):
        if direction > 0 and ratio <= 0.5:
            break
        if direction < 0 and ratio >= 0.5:
            break
        eps *= 2.0**direction
        if not 1e-8 < eps < 1e4:
            break
        ratio = accept_ratio(eps)
    return eps


class _Chain(NamedTuple):
    """One chain's post-warmup draws and log densities, and its sampler
    statistics."""

    draws: np.ndarray  # (draws, coefficients)
    logp: np.ndarray  # (draws,)
    accept_rate: float
    divergences: int
    step_size: float  # the adapted step size, used for every kept draw
    grad_evals: int  # log-density/gradient calls, the epsilon search included


def _run_chain(
    chain: int,
    A: np.ndarray,
    prior_sd: np.ndarray,
    config: SamplerConfig,
) -> _Chain:
    """Run chain ``chain``, seeded with ``config.seed + chain``. A non-finite
    density or gradient already ends its trajectory as rejected, so numpy's
    floating-point warnings are silenced; no value changes."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dim = prior_sd.size
        grad_evals = 0

        def logpost(
            beta: np.ndarray, *, value: bool = True
        ) -> tuple[float, np.ndarray]:
            nonlocal grad_evals
            grad_evals += 1
            return _logpost_arrays(beta, A, prior_sd, value=value)

        draws = np.empty((config.draws, dim))
        logp = np.empty(config.draws)
        divergences = 0
        rng = np.random.default_rng(config.seed + chain)
        q = 0.1 * rng.standard_normal(dim)
        lp, grad = logpost(q)
        if not math.isfinite(lp):
            raise ValidationError("log posterior is not finite at initialization")
        eps = _find_reasonable_epsilon(q, lp, grad, logpost, rng)
        mu = math.log(10.0 * eps)
        h_bar = 0.0
        log_eps_bar = 0.0
        accepted_probs = []

        for it in range(config.warmup + config.draws):
            sampling = it >= config.warmup
            jitter = rng.uniform(0.8, 1.2)
            n_steps = round(config.num_steps * jitter)
            p0 = rng.standard_normal(dim)
            h0 = -lp + 0.5 * float(p0 @ p0)
            q1, p1, lp1, grad1 = _leapfrog(q, p0, grad, eps, n_steps, logpost)
            h1 = -lp1 + 0.5 * float(p1 @ p1)
            divergent = (h1 - h0) > _DIVERGENCE_ENERGY or not math.isfinite(h1)
            accept_prob = 0.0 if divergent else math.exp(min(0.0, h0 - h1))
            if rng.uniform() < accept_prob:
                q, lp, grad = q1, lp1, grad1
            if sampling:
                idx = it - config.warmup
                draws[idx] = q
                logp[idx] = lp
                accepted_probs.append(accept_prob)
                divergences += int(divergent)
            else:
                t = it + 1
                h_bar = (1.0 - 1.0 / (t + _DA_T0)) * h_bar + (
                    config.target_accept - accept_prob
                ) / (t + _DA_T0)
                log_eps = mu - math.sqrt(t) / _DA_GAMMA * h_bar
                eta = t**-_DA_KAPPA
                log_eps_bar = eta * log_eps + (1.0 - eta) * log_eps_bar
                eps = math.exp(log_eps)
                if it == config.warmup - 1:
                    eps = math.exp(log_eps_bar)
        return _Chain(
            draws, logp, float(np.mean(accepted_probs)), divergences, eps, grad_evals
        )


def sample_posterior(
    matrix: DesignMatrix, spec: ModelSpec, config: SamplerConfig
) -> PosteriorDraws:
    """Draw from the coefficient posterior with plain HMC.

    Chains run independently, each seeded with ``config.seed + chain``;
    results are deterministic for a fixed configuration. The chains run
    at the same time, striped over ``pool.lanes`` processes (lane k runs
    chains k, k + lanes, ...), and the result does not depend on the lane
    count. Warmup draws are discarded. Divergent transitions after warmup
    are counted and exposed on the result. A zero-variance predictor or
    an outcome that is not 0/1 raises ValidationError.
    """
    X = matrix.predictor_matrix(spec.predictors)
    for name, column in zip(spec.predictors, X.T):
        if np.ptp(column) == 0.0:
            raise ValidationError(f"predictor {name!r} has zero variance")
    A = _signed_design(X, matrix.y)
    del X  # the lanes need A alone
    chains = pool.run(
        _run_chain,
        config.chains,
        (A, np.full(A.shape[1], float(spec.prior_sd)), config),
        "sampler worker for chains",
    )
    return PosteriorDraws(
        names=spec.coefficient_names(),
        draws=np.stack([c.draws for c in chains]),
        logp=np.stack([c.logp for c in chains]),
        accept_rate=np.array([c.accept_rate for c in chains]),
        divergences=sum(c.divergences for c in chains),
        step_size=np.array([c.step_size for c in chains]),
        grad_evals=np.array([c.grad_evals for c in chains]),
    )


def rhat(chains: np.ndarray) -> float:
    """Gelman-Rubin potential scale reduction factor.

    ``chains`` is an (m, n) array of one scalar sequence per chain. With
    between-chain variance B and mean within-chain variance W the factor
    is sqrt(((n-1)/n W + B/n) / W). Returns NaN (a diagnostic flag, not a
    value) when every chain has zero within variance.
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise ValidationError("rhat needs >= 2 chains with >= 2 draws each")
    m, n = x.shape
    w = float(x.var(axis=1, ddof=1).mean())
    b = n * float(x.mean(axis=1).var(ddof=1))
    if w == 0.0:
        return math.nan
    return math.sqrt(((n - 1) / n * w + b / n) / w)


@dataclass(frozen=True)
class CoefficientSummary:
    name: str
    mean: float
    sd: float
    hdi_low: float
    hdi_high: float
    rhat: float


@dataclass(frozen=True)
class PosteriorSummary:
    rows: tuple[CoefficientSummary, ...]
    histograms: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (edges, counts)

    def converged(self) -> bool:
        # NaN R-hat (zero-variance chains) counts as a failure.
        return all(r.rhat <= RHAT_THRESHOLD for r in self.rows)


def _hdi(samples: np.ndarray, prob: float) -> tuple[float, float]:
    xs = np.sort(samples)
    n = len(xs)
    span = int(math.floor(prob * n))
    widths = xs[span:] - xs[: n - span]
    i = int(np.argmin(widths))
    return float(xs[i]), float(xs[i + span])


def summarize(draws: PosteriorDraws) -> PosteriorSummary:
    """Posterior mean, sd, HDI_PROB highest-density interval and R-hat
    per coefficient, plus HIST_BINS-bin histogram data for plotting."""
    rows = []
    histograms: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for j, name in enumerate(draws.names):
        pooled = draws.draws[:, :, j].reshape(-1)
        low, high = _hdi(pooled, HDI_PROB)
        counts, edges = np.histogram(pooled, bins=HIST_BINS)
        histograms[name] = (edges, counts)
        rows.append(
            CoefficientSummary(
                name=name,
                mean=float(pooled.mean()),
                sd=float(pooled.std(ddof=1)),
                hdi_low=low,
                hdi_high=high,
                rhat=rhat(draws.draws[:, :, j]),
            )
        )
    return PosteriorSummary(rows=tuple(rows), histograms=histograms)


def draws_to_csv(draws: PosteriorDraws, path: str | Path, header: str) -> None:
    """Write the draws artifact: the config ``header`` line, then CSV with
    columns (chain, draw, coefficients..., lp), in ``csv_line``'s cell rule."""
    columns = csv_line(["chain", "draw", *draws.names, "lp"])
    rows = (
        csv_line([c, d, *draws.draws[c, d].tolist(), draws.logp[c, d]])
        for c, d in np.ndindex(draws.logp.shape)
    )
    write_artifact(path, header, [columns, *rows])
