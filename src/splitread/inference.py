"""Bayesian logistic preference model fitted with Hamiltonian Monte Carlo.

The outcome of each design-matrix row is Bernoulli with
logit(lambda) = beta_0 + sum_i beta_i x_i, and every coefficient
(intercept included) carries an independent Normal(0, sd) prior. Sampling
uses plain HMC with leapfrog integration and dual-averaging step-size
adaptation during warmup (Hoffman & Gelman 2014, Algorithms 4-5);
convergence is checked with the Gelman-Rubin potential scale reduction
factor.

Leapfrog steps need only the gradient of the log density; its value is
computed only at a trajectory's last step, for the Metropolis test (Neal
2011). The draws are unchanged by this: an interior step whose density
alone is not finite needs A @ beta or beta @ beta to overflow the float
range, and such a trajectory ends non-finite or divergent, rejected
either way with the same random draws consumed.

Interior forces are float32, both ends float64. The forces of a
trajectory's interior steps are computed on a float32 copy of the signed
design A below, made once per fit; the trajectory's start and end keep
the float64 density and gradient, and every chain's last half-kick is
taken from its endpoint's float64 gradient. The leapfrog map is
reversible and volume-preserving for any force that depends on the
position alone, and the Metropolis test reads the float64 density at
both ends, so the target stays exact: a cruder interior force costs
accept rate, not accuracy (Neal 2011, section 5, on trajectories
computed from an approximate Hamiltonian).

The density is computed in margin form. Once per fit, before the chains
start, the intercept column and the outcome are folded into one
column-major signed design A = diag(s) [1, X], with s = 2y - 1. The
margin v = A @ beta is s * t for the logit t, so the log-likelihood
sum y*t - log(1 + e^t) is -sum log(1 + e^-v) and its gradient is
A^T sigmoid(-v), where sigmoid(-v) = 1 / (1 + e^v) is computed in v's own
buffer. A gradient is two matrix products and three elementwise passes,
with no separate intercept and no y - lambda.

The sigmoid and softplus of the density are numpy's vectorized
``exp``/``log1p``, the package's only logistic kernels. ``selection``'s
WAIC terms are the density's -softplus(-v); ``synth`` draws with the sigmoid.

The chains run in pairs: chains 2u and 2u + 1 are the two columns of
(k, 2) state arrays, so a leapfrog step of both is one n x k x 2 matrix
product A @ Q and one A^T sigmoid(-V), not two matrix-vector products
per chain, one chain after the other. The pairs run at the same time,
striped over one process per CPU by ``pool.run``. Each chain owns its
seed, random stream, step size and path length, so the draws and every
per-chain statistic are byte-reproducible on one machine and the same
for any number of lanes. A column's last bits depend on the width of the
product (widths 1, 2 and 4 round differently) but not on the other
column's values or its position, so the width is the constant ``PAIR``,
never a setting; like the BLAS products (OpenBLAS's GEMM) themselves,
they also depend on the CPU's SIMD dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import pool
from .config import ModelSpec, SamplerConfig
from .dataset import DesignMatrix, csv_line, write_artifact
from .errors import ValidationError

_LOG_2PI = math.log(2.0 * math.pi)
_DIVERGENCE_ENERGY = 1000.0
# Chains advanced together, one column of the state arrays each.
PAIR = 2

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
    buffer, which it returns. Above v = 709.78 (88.72 in float32), e^v
    overflows to inf and the result is exactly 0; the caller silences
    that overflow warning."""
    np.exp(v, out=v)
    v += 1.0
    return np.divide(1.0, v, out=v)


def _expit(t: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + e^-t), on numpy's vectorized exp."""
    with np.errstate(over="ignore"):
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
) -> tuple[float | np.ndarray, np.ndarray]:
    """Log density and gradient on the signed design ``A`` at ``beta``, a
    coefficient vector (k,) or one per column of a (k, W) array, whose
    densities are then a (W,) array; with ``value=False`` only the
    gradient (bit-identical to the full call's on the same ``A``) and NaN
    in place of the density. The likelihood term is computed in ``A``'s
    dtype: on a float32 copy of the design, the margins, the sigmoid and
    the A^T product are float32, and the gradient returns to float64
    before the prior term. The caller silences the overflow warnings of
    e^v and of a beta beyond float32 range."""
    if beta.ndim == 2:
        prior_sd = prior_sd[:, None]
    v = A @ beta.astype(A.dtype, copy=False)
    if value:
        # log lik = sum y*t - log(1 + e^t) = -sum log(1 + e^-v).
        loglik = -_softplus(np.negative(v)).sum(axis=0)
    grad = (A.T @ _expit_neg(v)).astype(float, copy=False)
    grad -= beta / prior_sd**2
    if not value:
        return math.nan, grad
    z = beta / prior_sd
    # A chain's start and epsilon search keep the bits of one dot product.
    zz = z @ z if z.ndim == 1 else (z * z).sum(axis=0)
    logprior = -0.5 * zz - np.log(prior_sd).sum() - 0.5 * _LOG_2PI * len(beta)
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
    with np.errstate(over="ignore"):
        lp, grad = _logpost_arrays(beta, A, np.full(A.shape[1], float(spec.prior_sd)))
    return float(lp), grad


def _leapfrog(
    q: np.ndarray,
    p: np.ndarray,
    grad: np.ndarray,
    eps: float | np.ndarray,
    n_steps: int | np.ndarray,
    logpost: Callable[..., tuple],
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray, np.ndarray]:
    """Leapfrog trajectories from (q, p): one for (k,) arrays, or one per
    column of (k, W) arrays, column j taking ``n_steps[j]`` steps of size
    ``eps[j]``. A column whose trajectory has ended steps with 0, which
    leaves its bits unchanged, until the longest one ends. Interior steps
    compute only the gradient, the last step also the log density, which
    for an ended column is that of its endpoint. ``logpost`` may compute
    the interior forces (``value=False``) less precisely than the last
    call; every column's last half-kick is therefore taken after that
    call, from its endpoint gradient, so each trajectory starts and ends
    with the same precision, and a column's trajectory is the same
    whichever step its partner ends at. A non-finite gradient makes p
    non-finite, and p then stays so; a column whose p or density is not
    finite at the end therefore ends with density -inf, which the energy
    test rejects."""
    eps = np.asarray(eps, dtype=float)
    n_steps = np.asarray(n_steps)
    # Row s - 1 holds each column's position and momentum step sizes at step s.
    step = np.arange(1, n_steps.max() + 1).reshape((-1,) + (1,) * n_steps.ndim)
    drift = np.where(step <= n_steps, eps, 0.0)
    kick = np.where(step < n_steps, eps, 0.0)
    q = q.copy()
    p = p + 0.5 * eps * grad
    for a, b in zip(drift[:-1], kick[:-1]):
        q += a * p
        _, grad = logpost(q, value=False)
        p += b * grad
    q += drift[-1] * p
    lp, grad = logpost(q)
    p += 0.5 * eps * grad
    failed = ~(np.isfinite(lp) & np.isfinite(p).all(axis=0))
    return q, p, np.where(failed, -math.inf, lp), grad


def _find_reasonable_epsilon(
    q: np.ndarray,
    lp: float,
    grad: np.ndarray,
    logpost: Callable,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """A starting step size and the log-density calls spent finding it."""
    eps = 1.0
    p = rng.standard_normal(q.size)
    h0 = -lp + 0.5 * float(p @ p)

    def accept_ratio(eps: float) -> float:
        _, p1, lp1, _ = _leapfrog(q, p, grad, eps, 1, logpost)
        h1 = -lp1 + 0.5 * float(p1 @ p1)
        return math.exp(min(0.0, h0 - h1)) if math.isfinite(h1) else 0.0

    ratio, calls = accept_ratio(eps), 1
    direction = 1.0 if ratio > 0.5 else -1.0
    for _ in range(50):
        if direction * (ratio - 0.5) <= 0:
            break
        eps *= 2.0**direction
        if not 1e-8 < eps < 1e4:
            break
        ratio, calls = accept_ratio(eps), calls + 1
    return eps, calls


class _ChainState:
    """One chain of a pair, sent back whole by its lane: its random stream,
    its step size ``eps`` (adapted by dual averaging during warmup, then
    fixed), its post-warmup ``draws`` and ``logp``, ``accepted_probs`` and
    ``divergences``, and ``grad_evals``, the log-density/gradient calls of
    its start, epsilon search and trajectory steps."""

    def __init__(self, chain: int, logpost: Callable, dim: int, config: SamplerConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed + chain)
        self.q = 0.1 * self.rng.standard_normal(dim)
        self.lp, self.grad = logpost(self.q)
        if not math.isfinite(self.lp):
            raise ValidationError("log posterior is not finite at initialization")
        self.eps, calls = _find_reasonable_epsilon(
            self.q, self.lp, self.grad, logpost, self.rng
        )
        self.grad_evals = 1 + calls
        self.mu = math.log(10.0 * self.eps)
        self.h_bar = 0.0
        self.log_eps_bar = 0.0
        self.accepted_probs: list[float] = []
        self.divergences = 0
        self.draws = np.empty((config.draws, dim))
        self.logp = np.empty(config.draws)

    def next_trajectory(self) -> tuple[int, np.ndarray]:
        """The next trajectory's jittered path length and momentum."""
        jitter = self.rng.uniform(0.8, 1.2)
        n_steps = round(self.config.num_steps * jitter)
        self.grad_evals += n_steps
        return n_steps, self.rng.standard_normal(self.q.size)

    def transition(self, it: int, h0: float, h1: float) -> bool:
        """The Metropolis test of iteration ``it``'s proposal, recorded in the
        statistics or the step size; True if it is accepted."""
        config = self.config
        divergent = (h1 - h0) > _DIVERGENCE_ENERGY or not math.isfinite(h1)
        accept_prob = 0.0 if divergent else math.exp(min(0.0, h0 - h1))
        accepted = self.rng.uniform() < accept_prob
        if it >= config.warmup:
            self.accepted_probs.append(accept_prob)
            self.divergences += int(divergent)
            return accepted
        t = it + 1
        self.h_bar = (1.0 - 1.0 / (t + _DA_T0)) * self.h_bar + (
            config.target_accept - accept_prob
        ) / (t + _DA_T0)
        log_eps = self.mu - math.sqrt(t) / _DA_GAMMA * self.h_bar
        eta = t**-_DA_KAPPA
        self.log_eps_bar = eta * log_eps + (1.0 - eta) * self.log_eps_bar
        self.eps = math.exp(log_eps if it < config.warmup - 1 else self.log_eps_bar)
        return accepted


def _pair_chains(pair: int, chains: int) -> range:
    """The chains of pair ``pair``: 2 * pair and 2 * pair + 1, or the first
    alone if it is the last of ``chains``."""
    return range(PAIR * pair, min(PAIR * (pair + 1), chains))


def _run_pair(
    pair: int,
    A: np.ndarray,
    prior_sd: np.ndarray,
    config: SamplerConfig,
) -> list[_ChainState]:
    """Run the chains of pair ``pair``, each seeded with ``config.seed +
    chain``, as the columns of (k, PAIR) arrays; a lone chain's partner
    column stays at 0 with step size 0. Each chain starts and searches its
    step size alone; then every iteration runs both trajectories in one
    ``_leapfrog``. Its interior forces (``value=False``) are computed on a
    float32 copy of ``A``, made once here; every call with the density,
    so both ends of every trajectory, on ``A`` itself. A non-finite
    density or gradient already ends its trajectory as rejected, so
    numpy's floating-point warnings are silenced; no value changes.
    Returns the chains' states, in order."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        A32 = A.astype(np.float32)

        def logpost(beta: np.ndarray, *, value: bool = True) -> tuple:
            return _logpost_arrays(beta, A if value else A32, prior_sd, value=value)

        dim = prior_sd.size
        members = _pair_chains(pair, config.chains)
        chains = [_ChainState(c, logpost, dim, config) for c in members]
        q = np.zeros((dim, PAIR))
        lp = np.zeros(PAIR)
        grad = np.zeros((dim, PAIR))
        eps = np.zeros(PAIR)
        n_steps = np.zeros(PAIR, dtype=int)
        p0 = np.zeros((dim, PAIR))
        h0 = [0.0] * len(chains)
        for j, c in enumerate(chains):
            q[:, j], lp[j], grad[:, j] = c.q, c.lp, c.grad

        for it in range(config.warmup + config.draws):
            for j, c in enumerate(chains):
                eps[j] = c.eps
                n_steps[j], p = c.next_trajectory()
                h0[j] = -lp[j] + 0.5 * float(p @ p)
                p0[:, j] = p
            q1, p1, lp1, grad1 = _leapfrog(q, p0, grad, eps, n_steps, logpost)
            for j, c in enumerate(chains):
                p = p1[:, j]
                if c.transition(it, h0[j], -lp1[j] + 0.5 * float(p @ p)):
                    q[:, j], lp[j], grad[:, j] = q1[:, j], lp1[j], grad1[:, j]
                if it >= config.warmup:
                    c.draws[it - config.warmup] = q[:, j]
                    c.logp[it - config.warmup] = lp[j]
        return chains


def sample_posterior(
    matrix: DesignMatrix, spec: ModelSpec, config: SamplerConfig
) -> PosteriorDraws:
    """Draw from the coefficient posterior with plain HMC.

    Chains run independently, each seeded with ``config.seed + chain``;
    results are deterministic for a fixed configuration. Chains 2u and
    2u + 1 advance in lockstep as one pair (``_run_pair``), and the pairs
    run at the same time, striped over ``pool.lanes`` processes (lane k
    runs pairs k, k + lanes, ...); the result depends neither on the lane
    count nor, for a chain, on how many chains there are. Warmup draws
    are discarded. Divergent transitions after warmup are counted and
    exposed on the result. A zero-variance predictor or an outcome that
    is not 0/1 raises ValidationError.
    """
    X = matrix.predictor_matrix(spec.predictors)
    # The finite check comes first: an all-inf column has min == max.
    A = _signed_design(X, matrix.y)
    for name, column in zip(spec.predictors, X.T):
        if column.min() == column.max():
            raise ValidationError(f"predictor {name!r} has zero variance")
    del X  # the lanes need A alone
    pairs = pool.run(
        _run_pair,
        -(-config.chains // PAIR),
        (A, np.full(A.shape[1], float(spec.prior_sd)), config),
        "sampler worker for chains",
        names=lambda pair: _pair_chains(pair, config.chains),
    )
    chains = [chain for pair in pairs for chain in pair]
    return PosteriorDraws(
        names=spec.coefficient_names(),
        draws=np.stack([c.draws for c in chains]),
        logp=np.stack([c.logp for c in chains]),
        accept_rate=np.array([np.mean(c.accepted_probs) for c in chains]),
        divergences=sum(c.divergences for c in chains),
        step_size=np.array([c.eps for c in chains]),
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
