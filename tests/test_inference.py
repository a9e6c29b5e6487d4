from __future__ import annotations

import dataclasses
import math
import os
import signal
import sys
import time
import warnings

import numpy as np
import pytest
from helpers import (
    naive_leapfrog,
    nan_density_in_children,
    pin_lanes,
    reference_logpost_arrays,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from splitread import cli, inference, pool, selection
from splitread.config import FeatureConfig
from splitread.dataset import (
    DesignMatrix,
    _located,
    build_design_matrix,
    ingest,
)
from splitread.errors import ParseError, SplitreadError, ValidationError
from splitread.inference import (
    ModelSpec,
    PosteriorDraws,
    SamplerConfig,
    draws_to_csv,
    log_posterior,
    rhat,
    sample_posterior,
    summarize,
)
from splitread.synth import make_demo_dataset, make_logit_matrix
from splitread.trees import parse_ptb


def _matrix_from(X, y, names=None):
    X = np.asarray(X, dtype=float)
    names = names or [f"x{j}" for j in range(1, X.shape[1] + 1)]
    return DesignMatrix.from_arrays(names, X, np.asarray(y, float))


def _tiny_matrix():
    """One row (y=1, x=1) without standardization side effects."""
    matrix = DesignMatrix.from_arrays(
        ["x1"], np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])
    )
    return matrix


class TestLogPosterior:
    def test_hand_value_single_row(self):
        # One row with y=1, x=1 under beta=(0, 1), prior sd 2.5:
        # log logistic(1) + log N(0|0,2.5) + log N(1|0,2.5).
        matrix = DesignMatrix(
            columns=("x1",),
            X=np.array([[1.0]]),
            y=np.array([1.0]),
            meta={},
        )
        spec = ModelSpec(predictors=("x1",))
        lp, _ = log_posterior([0.0, 1.0], matrix, spec)
        expected = (
            -math.log(1 + math.exp(-1))
            - math.log(2.5) - 0.5 * math.log(2 * math.pi)
            - math.log(2.5) - 0.5 * math.log(2 * math.pi) - 0.5 / 6.25
        )
        assert lp == pytest.approx(expected, abs=1e-12)
        assert lp == pytest.approx(-4.0641, abs=1e-3)

    def test_zero_beta_single_row_is_log_half_plus_prior_modes(self):
        matrix = DesignMatrix(
            columns=("x1",),
            X=np.array([[1.0]]),
            y=np.array([1.0]),
            meta={},
        )
        spec = ModelSpec(predictors=("x1",))
        lp, _ = log_posterior([0.0, 0.0], matrix, spec)
        prior_mode = 2 * (-math.log(2.5) - 0.5 * math.log(2 * math.pi))
        assert lp == pytest.approx(math.log(0.5) + prior_mode, abs=1e-12)

    def test_wrong_dimension_rejected(self):
        matrix = _tiny_matrix()
        with pytest.raises(ValidationError, match=r"beta must have length 2, got \(1,\)"):
            log_posterior([0.0], matrix, ModelSpec(predictors=("x1",)))

    def test_non_finite_beta_rejected(self):
        matrix = _tiny_matrix()
        with pytest.raises(ValidationError, match="beta contains non-finite values"):
            log_posterior([0.0, math.nan], matrix, ModelSpec(predictors=("x1",)))

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            n, k = 30, 4
            X = rng.standard_normal((n, k))
            X = (X - X.mean(axis=0)) / X.std(axis=0)
            y = (rng.uniform(size=n) < 0.5).astype(float)
            matrix = _matrix_from(X, y)
            spec = ModelSpec(predictors=matrix.columns)
            beta = rng.normal(scale=1.5, size=k + 1)
            _, grad = log_posterior(beta, matrix, spec)
            h = 1e-6
            for j in range(k + 1):
                up, down = beta.copy(), beta.copy()
                up[j] += h
                down[j] -= h
                fd = (
                    log_posterior(up, matrix, spec)[0]
                    - log_posterior(down, matrix, spec)[0]
                ) / (2 * h)
                assert abs(grad[j] - fd) / max(1.0, abs(grad[j])) < 1e-5

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=3,
        )
    )
    def test_margin_form_matches_reference_twin(self, beta):
        # Beyond |t| = 709.78 the margin form's e^v overflows to inf, a
        # warning its callers silence. The two forms add the same terms in
        # other orders and roundings, so each result may differ by a small
        # multiple of its summed size.
        matrix = make_logit_matrix(60, [0.3, 1.0, -0.5], seed=4)
        X = matrix.predictor_matrix(matrix.columns)
        A = inference._signed_design(X, matrix.y)
        beta = np.asarray(beta)
        prior_sd = np.full(3, 2.5)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            lp, grad = inference._logpost_arrays(beta, A, prior_sd)
        ref_lp, ref_grad = reference_logpost_arrays(beta, X, matrix.y, prior_sd)
        t = beta[0] + X @ beta[1:]
        z = beta / prior_sd
        assert abs(lp - ref_lp) <= 1e-12 * (1.0 + np.abs(t).sum() + z @ z)
        column_sums = np.abs(A).sum(axis=0)
        grad_tol = 1e-12 * (1.0 + column_sums + np.abs(beta) / prior_sd**2)
        assert np.all(np.abs(grad - ref_grad) <= grad_tol)

    @pytest.mark.parametrize("outcome", [0.5, 2.0, -1.0, math.nan])
    def test_non_binary_outcome_rejected(self, outcome):
        # A hand-built matrix skips from_arrays' check.
        matrix = DesignMatrix(
            columns=("x1",), X=np.array([[1.0], [-1.0]]), y=np.array([1.0, outcome])
        )
        with pytest.raises(ValidationError, match="y must be binary"):
            log_posterior([0.0, 1.0], matrix, ModelSpec(predictors=("x1",)))

    @pytest.mark.parametrize(
        "column",
        [
            [1.0, -1.0, math.nan],
            [1.0, -1.0, math.inf],
            [1.0, -1.0, -math.inf],
            [math.inf] * 3,  # no zero-variance error either
        ],
        ids=["nan", "inf", "-inf", "all-inf"],
    )
    def test_non_finite_design_rejected(self, column):
        # A hand-built matrix skips from_arrays' check. Unchecked, the
        # density and WAIC come out NaN and the sampler fails with a
        # misleading "not finite at initialization".
        matrix = DesignMatrix(
            columns=("x1",), X=np.array([column]).T, y=np.array([1.0, 0.0, 1.0])
        )
        spec = ModelSpec(predictors=("x1",))
        draws = PosteriorDraws(
            names=spec.coefficient_names(),
            draws=np.zeros((2, 3, 2)),
            logp=np.zeros((2, 3)),
            accept_rate=np.ones(2),
            divergences=0,
        )
        message = "design matrix has non-finite values"
        with pytest.raises(ValidationError, match=message):
            log_posterior([0.0, 1.0], matrix, spec)
        with pytest.raises(ValidationError, match=message):
            selection.waic(selection.pointwise_loglik(draws, matrix))
        with pytest.raises(ValidationError, match=message):
            sample_posterior(matrix, spec, SamplerConfig(seed=1))

    def test_overflowing_start_density_rejected(self):
        # A hand-built finite column passes every design check, but at
        # +-1e308 the margins overflow the density where the chains start.
        matrix = DesignMatrix(
            columns=("x1",),
            X=np.array([[1e308], [-1e308]] * 20),
            y=np.array([1.0, 0.0] * 20),
        )
        config = SamplerConfig(chains=2, seed=1)
        message = "^log posterior is not finite at initialization$"
        with pytest.raises(ValidationError, match=message):
            sample_posterior(matrix, ModelSpec(predictors=("x1",)), config)


class TestKernels:
    """The log density's sigmoid and softplus, on numpy's vectorized exp,
    against scipy's and numpy's own references."""

    GRID = np.linspace(-800.0, 800.0, 200001)

    def test_sigmoid_within_two_ulp_of_scipy(self):
        from scipy.special import expit

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inference._expit(self.GRID)
        np.testing.assert_array_max_ulp(got, expit(self.GRID), maxulp=2)

    def test_sigmoid_limits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inference._expit(np.array([math.inf, -math.inf, math.nan]))
        assert got[0] == 1.0
        assert got[1] == 0.0
        assert math.isnan(got[2])

    def test_sigmoid_bits_are_one_over_one_plus_exp(self):
        with np.errstate(over="ignore"):
            expected = 1.0 / (1.0 + np.exp(-self.GRID))
        assert np.array_equal(inference._expit(self.GRID), expected)

    def test_softplus_within_two_ulp_of_logaddexp(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inference._softplus(self.GRID)
        np.testing.assert_array_max_ulp(got, np.logaddexp(0.0, self.GRID), maxulp=2)


class TestRhat:
    def test_hand_value(self):
        assert rhat([[1, 2, 3, 4], [2, 3, 4, 5]]) == pytest.approx(
            math.sqrt(1.05), abs=1e-12
        )
        assert rhat([[1, 2, 3, 4], [2, 3, 4, 5]]) == pytest.approx(1.0247, abs=1e-4)

    def test_permuted_chains_near_one(self, rng):
        base = rng.standard_normal(400)
        chains = [base, rng.permutation(base), rng.permutation(base)]
        assert rhat(np.array(chains)) == pytest.approx(1.0, abs=5e-3)

    def test_separated_chains_far_above_threshold(self, rng):
        chains = np.array(
            [rng.standard_normal(200), 100 + rng.standard_normal(200)]
        )
        assert rhat(chains) > 1.1

    def test_zero_variance_flagged_as_nan(self):
        assert math.isnan(rhat([[1.0, 1.0], [1.0, 1.0]]))

    def test_shape_validation(self):
        with pytest.raises(
            ValidationError, match="rhat needs >= 2 chains with >= 2 draws each"
        ):
            rhat([[1.0, 2.0]])


@pytest.fixture(scope="module")
def small_fit():
    matrix = make_logit_matrix(400, [0.3, 1.0], seed=21)
    spec = ModelSpec(predictors=matrix.columns)
    config = SamplerConfig(chains=4, warmup=300, draws=300, seed=17, num_steps=16)
    return matrix, spec, config, sample_posterior(matrix, spec, config)


class TestSampler:
    def test_same_seed_bit_identical(self, small_fit):
        matrix, spec, config, draws = small_fit
        again = sample_posterior(matrix, spec, config)
        assert np.array_equal(draws.draws, again.draws)
        assert np.array_equal(draws.logp, again.logp)

    def test_different_seed_differs(self, small_fit):
        matrix, spec, config, draws = small_fit
        other = sample_posterior(
            matrix, spec, SamplerConfig(chains=4, warmup=300, draws=300, seed=18, num_steps=16)
        )
        assert not np.array_equal(draws.draws, other.draws)

    def test_intercept_only_balanced_outcome(self):
        y = np.array([0.0, 1.0] * 300)
        matrix = DesignMatrix(columns=(), X=np.empty((600, 0)), y=y, meta={})
        spec = ModelSpec(predictors=())
        config = SamplerConfig(chains=4, warmup=300, draws=300, seed=3, num_steps=8)
        draws = sample_posterior(matrix, spec, config)
        assert abs(draws.pooled()[:, 0].mean()) <= 0.05

    def test_zero_variance_predictor_rejected(self):
        matrix = DesignMatrix(
            columns=("x1",),
            X=np.zeros((10, 1)),
            y=np.array([0.0, 1.0] * 5),
            meta={},
        )
        with pytest.raises(ValidationError, match="predictor 'x1' has zero variance"):
            sample_posterior(
                matrix, ModelSpec(predictors=("x1",)), SamplerConfig(seed=1)
            )

    @pytest.mark.parametrize("outcome", [0.5, 2.0, -1.0, math.nan])
    def test_non_binary_outcome_rejected(self, outcome):
        # A hand-built matrix skips from_arrays' check.
        matrix = DesignMatrix(
            columns=("x1",),
            X=np.array([[1.0], [-1.0], [0.0]]),
            y=np.array([1.0, 0.0, outcome]),
        )
        with pytest.raises(ValidationError, match="y must be binary"):
            sample_posterior(
                matrix, ModelSpec(predictors=("x1",)), SamplerConfig(seed=1)
            )

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_no_floating_point_warning(self, monkeypatch, lanes):
        # On 1000 rows the epsilon search's first steps overflow e^v.
        matrix = make_logit_matrix(1000, [0.3, 1.0, -0.5], seed=1)
        spec = ModelSpec(predictors=matrix.columns)
        config = SamplerConfig(chains=2, warmup=20, draws=20, seed=1, num_steps=4)
        pin_lanes(monkeypatch, lanes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_posterior(matrix, spec, config)

    def test_posterior_mean_near_penalized_likelihood_optimum(self, small_fit):
        matrix, spec, config, draws = small_fit
        X, y = matrix.X, matrix.y
        sd = np.full(len(spec.predictors) + 1, spec.prior_sd)

        def neg_lp(beta):
            t = beta[0] + X @ beta[1:]
            loglik = y @ t - np.logaddexp(0.0, t).sum()
            return -(loglik - 0.5 * np.sum((beta / sd) ** 2))

        result = optimize.minimize(neg_lp, np.zeros(len(sd)), method="BFGS")
        posterior_mean = draws.pooled().mean(axis=0)
        assert np.allclose(posterior_mean, result.x, atol=0.05)

    def test_posterior_matches_grid_quadrature(self):
        # Independent oracle: numerically integrate the 2-coefficient
        # posterior on a dense grid and compare moments with HMC.
        matrix = make_logit_matrix(120, [0.4, 0.8], seed=33)
        spec = ModelSpec(predictors=matrix.columns)
        config = SamplerConfig(chains=4, warmup=500, draws=500, seed=12, num_steps=24)
        draws = sample_posterior(matrix, spec, config).pooled()

        x = matrix.X[:, 0]
        y = matrix.y
        sd = np.full(len(spec.predictors) + 1, spec.prior_sd)
        b0 = np.linspace(-2.0, 2.5, 301)
        b1 = np.linspace(-2.0, 3.0, 301)
        grid0, grid1 = np.meshgrid(b0, b1, indexing="ij")
        t = grid0[..., None] + grid1[..., None] * x  # (301, 301, n)
        loglik = (y * t - np.logaddexp(0.0, t)).sum(axis=-1)
        logprior = -0.5 * (grid0 / sd[0]) ** 2 - 0.5 * (grid1 / sd[1]) ** 2
        logpost = loglik + logprior
        weights = np.exp(logpost - logpost.max())
        weights /= weights.sum()
        grid_mean0 = float((weights * grid0).sum())
        grid_mean1 = float((weights * grid1).sum())
        grid_sd0 = float(np.sqrt((weights * (grid0 - grid_mean0) ** 2).sum()))
        grid_sd1 = float(np.sqrt((weights * (grid1 - grid_mean1) ** 2).sum()))

        assert abs(draws[:, 0].mean() - grid_mean0) < 0.03
        assert abs(draws[:, 1].mean() - grid_mean1) < 0.03
        assert abs(draws[:, 0].std() - grid_sd0) < 0.03
        assert abs(draws[:, 1].std() - grid_sd1) < 0.03

    @pytest.mark.parametrize("scale", [1.5, 0.6])
    def test_posterior_exact_under_wrong_interior_force(self, monkeypatch, scale):
        # Only a trajectory's ends enter the energy test, so any interior
        # force that depends on the position alone leaves the target exact:
        # a force off by a factor costs accept rate, not accuracy.
        real_logpost = inference._logpost_arrays
        forces = []

        def wrong_force(beta, *args, value=True):
            lp, grad = real_logpost(beta, *args, value=value)
            forces.append(not value)
            return lp, (grad if value else scale * grad)

        pin_lanes(monkeypatch, 1)
        monkeypatch.setattr(inference, "_logpost_arrays", wrong_force)
        self.test_posterior_matches_grid_quadrature()
        assert sum(forces) > len(forces) / 2

    def test_chain_permutation_invariance(self, small_fit):
        *_, draws = small_fit
        summary = summarize(draws)
        from dataclasses import replace

        permuted = replace(
            draws,
            draws=draws.draws[::-1].copy(),
            logp=draws.logp[::-1].copy(),
        )
        permuted_summary = summarize(permuted)
        for a, b in zip(summary.rows, permuted_summary.rows):
            assert a.mean == pytest.approx(b.mean, rel=1e-12)
            assert a.sd == pytest.approx(b.sd, rel=1e-12)
            assert (a.hdi_low, a.hdi_high) == (b.hdi_low, b.hdi_high)
            assert a.rhat == pytest.approx(b.rhat, rel=1e-12)

    def test_rescaling_raw_column_is_bit_identical(self, rng):
        X = rng.standard_normal((200, 2)) * np.array([3.0, 0.5]) + 1.0
        y = (rng.uniform(size=200) < 0.5).astype(float)
        scaled = X.copy()
        scaled[:, 1] *= 4.0  # power of two: exact in floating point
        m1 = _matrix_from(X, y)
        m2 = _matrix_from(scaled, y)
        assert np.array_equal(m1.X, m2.X)
        spec = ModelSpec(predictors=m1.columns)
        config = SamplerConfig(chains=2, warmup=50, draws=50, seed=9, num_steps=8)
        d1 = sample_posterior(m1, spec, config)
        d2 = sample_posterior(m2, spec, config)
        assert np.array_equal(d1.draws, d2.draws)


def _boxed(logpost, bound, column=None):
    """``logpost`` with a NaN gradient in each column whose coefficients
    leave the box max|beta| <= ``bound``: in every call, or, given
    ``column``, in that column of a pair's calls alone."""

    def boxed(beta, *args, value=True):
        lp, grad = logpost(beta, *args, value=value)
        outside = np.abs(beta).max(axis=0) > bound
        if column is not None:
            outside = beta.ndim == 2 and outside & (np.arange(beta.shape[1]) == column)
        return lp, np.where(outside, math.nan, grad)

    return boxed


class TestLeapfrog:
    """Interior leapfrog steps compute only the gradient; the log density
    is computed once per pair's trajectory, at a step where a chain of the
    pair ends."""

    @pytest.mark.parametrize("seed", [17, 18])
    def test_draws_equal_full_density_twin(self, small_fit, monkeypatch, seed):
        matrix, spec, config, _ = small_fit
        config = dataclasses.replace(config, seed=seed)
        fast = sample_posterior(matrix, spec, config)
        monkeypatch.setattr(inference, "_leapfrog", naive_leapfrog)
        naive = sample_posterior(matrix, spec, config)
        assert np.array_equal(fast.draws, naive.draws)
        assert np.array_equal(fast.logp, naive.logp)
        assert np.array_equal(fast.accept_rate, naive.accept_rate)
        assert fast.divergences == naive.divergences

    def test_density_computed_once_per_trajectory(self, small_fit, monkeypatch):
        matrix, spec, config, _ = small_fit
        config = dataclasses.replace(config, chains=3)  # one pair has a lone chain
        single = {True: 0, False: 0}
        trajectories = []  # (path lengths, value flag of each call) per pair
        real_logpost = inference._logpost_arrays
        real_leapfrog = inference._leapfrog

        def counting_logpost(beta, *args, value=True):
            if beta.ndim == 1:
                single[value] += 1
            return real_logpost(beta, *args, value=value)

        def recording_leapfrog(q, p, grad, eps, n_steps, logpost):
            flags = []

            def recording(beta, *, value=True):
                flags.append(value)
                return logpost(beta, value=value)

            if q.ndim == 2:
                trajectories.append((list(n_steps), flags))
            return real_leapfrog(q, p, grad, eps, n_steps, recording)

        # The counters live in this process, so every pair must run here.
        pin_lanes(monkeypatch, 1)
        monkeypatch.setattr(inference, "_logpost_arrays", counting_logpost)
        monkeypatch.setattr(inference, "_leapfrog", recording_leapfrog)
        sample_posterior(matrix, spec, config)
        pairs = -(-config.chains // inference.PAIR)
        assert len(trajectories) == pairs * (config.warmup + config.draws)
        for lengths, flags in trajectories:
            assert len(flags) == max(lengths)
            density_steps = {step for step, value in enumerate(flags, 1) if value}
            assert density_steps == {max(lengths)} <= set(lengths)
        # Starts and epsilon searches: single columns, each with its density.
        assert single[False] == 0 and single[True] > config.chains

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=6,
            max_size=6,
        )
    )
    def test_gradient_only_call_matches_full_call(self, beta):
        matrix = make_logit_matrix(60, [0.3, 1.0, -0.5], seed=4)
        A = inference._signed_design(matrix.predictor_matrix(matrix.columns), matrix.y)
        prior_sd = np.full(3, 2.5)
        for b in (np.asarray(beta[:3]), np.reshape(beta, (3, 2))):
            with np.errstate(over="ignore"):
                _, grad = inference._logpost_arrays(b, A, prior_sd)
                lp, grad_only = inference._logpost_arrays(b, A, prior_sd, value=False)
            assert math.isnan(lp)
            assert np.array_equal(grad_only, grad)

    def test_non_finite_interior_gradient_stops_trajectory(self):
        # Column 0's gradient is NaN from the second call on; column 1 runs
        # on with the bits it has in a NaN-free pair, the twin's bits.
        def logpost(q, *, value=True):
            calls.append(value)
            grad = np.cos(q) - 0.1 * q
            if poisoned and len(calls) >= 2:
                grad[:, 0] = math.nan
            return (-(q * q).sum(axis=0) if value else math.nan), grad

        start = (np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)))
        paths = (np.array([0.1, 0.2]), np.array([5, 7]))
        poisoned, calls = True, []
        q1, p1, lp1, _ = inference._leapfrog(*start, *paths, logpost)
        assert calls == [False] * 6 + [True]
        assert lp1[0] == -math.inf and math.isfinite(lp1[1])
        assert naive_leapfrog(*start, *paths, logpost)[2][0] == -math.inf
        poisoned, calls = False, []
        q2, p2, lp2, _ = inference._leapfrog(*start, *paths, logpost)
        assert np.array_equal(q1[:, 1], q2[:, 1])
        assert np.array_equal(p1[:, 1], p2[:, 1])
        assert lp1[1] == lp2[1]
        for got, want in zip((q2, p2, lp2), naive_leapfrog(*start, *paths, logpost)):
            assert np.array_equal(got, want)

    def test_last_half_kick_uses_endpoint_gradient(self):
        # The gradient-only force is 1% off the full call's gradient, so a
        # last half-kick taken from it would show in column 0's bits.
        def logpost(q, *, value=True):
            grad = np.cos(q) - 0.1 * q
            return (-(q * q).sum(axis=0), grad) if value else (math.nan, 1.01 * grad)

        start = (np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)))
        eps = np.array([0.1, 0.2])
        short = inference._leapfrog(*start, eps, np.array([5, 5]), logpost)
        beside_long = inference._leapfrog(*start, eps, np.array([5, 9]), logpost)
        for got, want in zip(beside_long, short):
            assert np.array_equal(got[..., 0], want[..., 0])

    def test_trajectory_reverses(self):
        # Leapfrog is reversible under any force that depends on position
        # alone, so a trajectory run back from its end with the momentum
        # negated returns to its start, whichever step each column ends at.
        # The gradient-only force is 1% off the full call's gradient: a
        # last half-kick taken from it would break the symmetry.
        matrix = make_logit_matrix(400, [0.3, 1.0, -0.5, 0.2], seed=5)
        A = inference._signed_design(matrix.predictor_matrix(matrix.columns), matrix.y)
        prior_sd = np.full(A.shape[1], 2.5)

        def logpost(q, *, value=True):
            lp, grad = inference._logpost_arrays(q, A, prior_sd)
            return (lp, grad) if value else (math.nan, 1.01 * grad)

        paths = (np.array([0.05, 0.07]), np.array([7, 11]))
        q0 = np.random.default_rng(5).normal(0.0, 0.5, (A.shape[1], 2))
        p0 = np.random.default_rng(6).standard_normal(q0.shape)
        q1, p1, _, grad1 = inference._leapfrog(q0, p0, logpost(q0)[1], *paths, logpost)
        q2, p2, _, _ = inference._leapfrog(q1, -p1, grad1, *paths, logpost)
        assert np.max(np.abs(q2 - q0)) <= 1e-12
        assert np.max(np.abs(-p2 - p0)) <= 1e-12

    def test_non_finite_single_column_rejected(self):
        def logpost(q, *, value=True):
            return (0.0 if value else math.nan), np.full(q.size, math.nan)

        start = (np.zeros(2), np.ones(2), np.ones(2))
        assert inference._leapfrog(*start, 0.1, 1, logpost)[2] == -math.inf

    def test_failed_trajectories_rejected_and_counted(self, monkeypatch):
        # The gradient is NaN outside the box max|beta| <= bound, so every
        # trajectory that leaves it fails; none may be accepted.
        bound = 0.6
        matrix = make_logit_matrix(400, [0.3, 0.5, -0.4], seed=5)
        spec = ModelSpec(predictors=matrix.columns)
        config = SamplerConfig(chains=2, warmup=200, draws=200, seed=7, num_steps=12)
        pin_lanes(monkeypatch, 1)
        boxed_logpost = _boxed(inference._logpost_arrays, bound)
        monkeypatch.setattr(inference, "_logpost_arrays", boxed_logpost)
        fast = sample_posterior(matrix, spec, config)
        assert fast.divergences > 0
        assert np.max(np.abs(fast.draws)) <= bound
        assert np.all(np.isfinite(fast.logp))
        monkeypatch.setattr(inference, "_leapfrog", naive_leapfrog)
        naive = sample_posterior(matrix, spec, config)
        assert np.array_equal(fast.draws, naive.draws)
        assert np.array_equal(fast.logp, naive.logp)
        assert np.array_equal(fast.accept_rate, naive.accept_rate)
        assert fast.divergences == naive.divergences


@pytest.fixture(scope="module")
def paper_matrix(tmp_path_factory):
    """The design matrix of the paper-scale demo study (221 triples x 7
    workers, data seed 3): 2994 rows, 18 predictors."""
    triples, judgments = make_demo_dataset(
        tmp_path_factory.mktemp("paper"), n_triples=221, n_workers=7, seed=3
    )
    return build_design_matrix(*ingest(judgments, triples))


class TestFloat32Forces:
    """Interior leapfrog forces are computed on a float32 copy of the
    signed design; the density and gradient at a trajectory's ends stay
    float64."""

    def test_interior_calls_on_float32_design(self, lane_matrix, monkeypatch):
        designs = set()  # (value flag, design dtype) of every call
        real_logpost = inference._logpost_arrays

        def recording(beta, A, *args, value=True):
            designs.add((value, A.dtype.name))
            return real_logpost(beta, A, *args, value=value)

        pin_lanes(monkeypatch, 1)
        monkeypatch.setattr(inference, "_logpost_arrays", recording)
        matrix, spec = lane_matrix
        config = SamplerConfig(chains=3, warmup=20, draws=20, seed=5, num_steps=6)
        sample_posterior(matrix, spec, config)
        assert designs == {(True, "float64"), (False, "float32")}

    def test_force_is_float64_near_the_float64_gradient(self, paper_matrix, rng):
        A = inference._signed_design(paper_matrix.X, paper_matrix.y)
        prior_sd = np.full(A.shape[1], 2.5)
        k = A.shape[1]
        for beta in (0.1 * rng.standard_normal(k), rng.standard_normal((k, 2))):
            with np.errstate(over="ignore"):
                _, grad = inference._logpost_arrays(beta, A, prior_sd, value=False)
                _, force = inference._logpost_arrays(
                    beta, A.astype(np.float32), prior_sd, value=False
                )
            assert force.dtype == np.float64 and force.shape == grad.shape
            assert np.linalg.norm(force - grad) <= 1e-5 * np.linalg.norm(grad)

    def test_position_beyond_float32_range_rejected(self, paper_matrix, monkeypatch):
        # Column 0 of the first pair trajectory starts at 1e39, past
        # float32's range though not float64's.
        ends = []
        real_leapfrog = inference._leapfrog

        def far_leapfrog(q, p, grad, eps, n_steps, logpost):
            if q.ndim == 2 and not ends:
                q = q.copy()
                q[:, 0] = 1e39
                ends.append(real_leapfrog(q, p, grad, eps, n_steps, logpost))
                return ends[0]
            return real_leapfrog(q, p, grad, eps, n_steps, logpost)

        pin_lanes(monkeypatch, 1)
        monkeypatch.setattr(inference, "_leapfrog", far_leapfrog)
        spec = ModelSpec(predictors=paper_matrix.columns)
        config = SamplerConfig(chains=2, warmup=2, draws=2, seed=5, num_steps=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_posterior(paper_matrix, spec, config)
        _, _, lp, _ = ends[0]
        assert lp[0] == -math.inf and math.isfinite(lp[1])
        assert np.abs(draws.draws).max() < 10.0


@pytest.fixture(scope="module")
def lane_matrix():
    matrix = make_logit_matrix(300, [0.3, 1.0, -0.5], seed=8)
    return matrix, ModelSpec(predictors=matrix.columns)


def _assert_same_draws(a, b):
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.logp, b.logp)
    assert np.array_equal(a.accept_rate, b.accept_rate)
    assert a.divergences == b.divergences
    assert np.array_equal(a.step_size, b.step_size)
    assert np.array_equal(a.grad_evals, b.grad_evals)


class TestLanes:
    """Chains striped over forked worker processes give exactly the draws
    and sampler statistics of one process running them in turn."""

    @pytest.mark.parametrize("chains, lanes", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
    def test_pool_matches_single_lane(self, lane_matrix, monkeypatch, chains, lanes):
        matrix, spec = lane_matrix
        config = SamplerConfig(chains=chains, warmup=100, draws=100, seed=5, num_steps=8)
        pin_lanes(monkeypatch, 1)
        serial = sample_posterior(matrix, spec, config)
        pin_lanes(monkeypatch, lanes)
        pooled = sample_posterior(matrix, spec, config)
        _assert_same_draws(pooled, serial)
        assert serial.step_size.shape == serial.grad_evals.shape == (chains,)

    def test_chains_striped_over_lanes(self, lane_matrix, monkeypatch, tmp_path):
        matrix, spec = lane_matrix
        real_run_pair = inference._run_pair

        def recording_run_pair(pair, *args):
            chains = real_run_pair(pair, *args)
            for c in inference._pair_chains(pair, config.chains):
                (tmp_path / f"{c}.pid").write_text(str(os.getpid()))
            return chains

        monkeypatch.setattr(inference, "_run_pair", recording_run_pair)
        pin_lanes(monkeypatch, 2)
        config = SamplerConfig(chains=5, warmup=20, draws=20, seed=5, num_steps=4)
        sample_posterior(matrix, spec, config)
        pids = [int((tmp_path / f"{c}.pid").read_text()) for c in range(5)]
        assert pids[0] == pids[1] == pids[4] == os.getpid()
        assert pids[2] == pids[3] != os.getpid()

    def test_ablation_table_matches_single_lane(self, lane_matrix, monkeypatch):
        matrix, spec = lane_matrix
        config = SamplerConfig(chains=3, warmup=60, draws=60, seed=2, num_steps=8)
        pin_lanes(monkeypatch, 1)
        serial = selection.ablate(matrix, spec, config)
        pin_lanes(monkeypatch, 2)
        pooled = selection.ablate(matrix, spec, config)
        for lines in (cli._ablation_csv_lines, cli._ablation_text_lines):
            assert lines(pooled) == lines(serial)

    @pytest.mark.parametrize(
        "cpus, chains, expected", [({0}, 4, 1), ({0, 1}, 4, 2), ({0, 1, 2, 3, 5}, 4, 4)]
    )
    def test_one_lane_per_usable_cpu(self, monkeypatch, cpus, chains, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert pool.lanes(chains) == expected

    def test_one_lane_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        assert pool.lanes(4) == 1

    def test_grad_evals_and_step_size_match_the_sampler(self, lane_matrix, monkeypatch):
        matrix, spec = lane_matrix
        config = SamplerConfig(chains=2, warmup=50, draws=40, seed=3, num_steps=6)
        single_calls = 0
        trajectories = []  # (step sizes, path lengths, calls) of each pair's
        real_logpost = inference._logpost_arrays
        real_leapfrog = inference._leapfrog

        def counting_logpost(beta, *args, value=True):
            nonlocal single_calls
            single_calls += beta.ndim == 1
            return real_logpost(beta, *args, value=value)

        def recording_leapfrog(q, p, grad, eps, n_steps, logpost):
            calls = []

            def counted(beta, *, value=True):
                calls.append(beta.shape)
                return logpost(beta, value=value)

            if q.ndim == 2:  # not the epsilon search's single steps
                trajectories.append((list(eps), list(n_steps), calls))
            return real_leapfrog(q, p, grad, eps, n_steps, counted)

        pin_lanes(monkeypatch, 1)
        monkeypatch.setattr(inference, "_logpost_arrays", counting_logpost)
        monkeypatch.setattr(inference, "_leapfrog", recording_leapfrog)
        draws = sample_posterior(matrix, spec, config)
        # A pair's call evaluates the columns of the chains still on their
        # path: a chain's own path length, summed over its trajectories.
        for _, lengths, calls in trajectories:
            assert calls == [(3, inference.PAIR)] * max(lengths)
        columns = sum(sum(lengths) for _, lengths, _ in trajectories)
        assert draws.grad_evals.sum() == single_calls + columns
        per_chain = config.warmup + config.draws
        assert len(trajectories) == per_chain
        for c in range(config.chains):
            kept = {eps[c] for eps, _, _ in trajectories[config.warmup :]}
            assert kept == {draws.step_size[c]}

class TestPairs:
    """Chains 2u and 2u + 1 run as the two columns of one pair. A column's
    bits depend on neither its partner nor on the other pairs, and each
    chain draws its random stream as one chain running alone did."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(-30, 30, allow_nan=False, allow_infinity=False),
            min_size=6,
            max_size=6,
        )
    )
    def test_column_bits_independent_of_partner_and_position(self, values):
        matrix = make_logit_matrix(300, [0.3, 1.0, -0.5], seed=4)
        A = inference._signed_design(matrix.predictor_matrix(matrix.columns), matrix.y)
        prior_sd = np.full(3, 2.5)
        beta, other = np.array(values[:3]), np.array(values[3:])
        with np.errstate(over="ignore"):
            lp, grad = inference._logpost_arrays(np.c_[beta, other], A, prior_sd)
            for pair, j in ((np.c_[beta, -other], 0), (np.c_[other, beta], 1)):
                lp_j, grad_j = inference._logpost_arrays(pair, A, prior_sd)
                assert lp_j[j] == lp[0]
                assert np.array_equal(grad_j[:, j], grad[:, 0])

    def test_chains_independent_of_chain_count(self, lane_matrix):
        matrix, spec = lane_matrix
        fits = {
            chains: sample_posterior(
                matrix,
                spec,
                SamplerConfig(chains=chains, warmup=80, draws=80, seed=13, num_steps=8),
            )
            for chains in (2, 3, 4)
        }
        for chains in (3, 4):
            for c in (0, 1):
                assert np.array_equal(fits[chains].draws[c], fits[2].draws[c])
                assert np.array_equal(fits[chains].logp[c], fits[2].logp[c])
            assert np.array_equal(fits[chains].step_size[:2], fits[2].step_size)
            assert np.array_equal(fits[chains].grad_evals[:2], fits[2].grad_evals)
        # Chain 2 alone (beside a padding column) and beside chain 3.
        assert np.array_equal(fits[3].draws[2], fits[4].draws[2])
        assert np.array_equal(fits[3].logp[2], fits[4].logp[2])

    def test_nan_trajectory_leaves_partner_bits(self, monkeypatch):
        # Chain 0's gradient is NaN outside a box, in its own column alone;
        # chain 1, its partner, must draw exactly as in a NaN-free run.
        matrix = make_logit_matrix(400, [0.3, 0.5, -0.4], seed=5)
        spec = ModelSpec(predictors=matrix.columns)
        config = SamplerConfig(chains=2, warmup=150, draws=150, seed=7, num_steps=12)
        clean = sample_posterior(matrix, spec, config)
        boxed = _boxed(inference._logpost_arrays, 0.6, column=0)
        monkeypatch.setattr(inference, "_logpost_arrays", boxed)
        poisoned = sample_posterior(matrix, spec, config)
        assert poisoned.divergences > 0
        assert not np.array_equal(poisoned.draws[0], clean.draws[0])
        assert np.array_equal(poisoned.draws[1], clean.draws[1])
        assert np.array_equal(poisoned.logp[1], clean.logp[1])
        assert poisoned.accept_rate[1] == clean.accept_rate[1]
        assert poisoned.step_size[1] == clean.step_size[1]

    @pytest.mark.parametrize(
        "config, grad_evals",
        [
            (SamplerConfig(chains=3, warmup=100, draws=100, seed=5, num_steps=8),
             [1602, 1604, 1597]),
            (SamplerConfig(chains=4, warmup=60, draws=60, seed=21, num_steps=16),
             [1919, 1890, 1937, 1912]),
        ],
    )
    def test_grad_evals_as_one_chain_alone(self, lane_matrix, config, grad_evals):
        # Recorded when each chain ran alone, one GEMV per gradient: the
        # path lengths and epsilon searches depend only on each chain's
        # random stream, drawn in the same order (jitter, momentum, accept).
        matrix, spec = lane_matrix
        draws = sample_posterior(matrix, spec, config)
        assert draws.grad_evals.tolist() == grad_evals


class TestWorkerFailures:
    # Four chains: pair 1, chains 2 and 3, runs in the forked lane.

    def test_chain_error_in_worker_raised_here(self, lane_matrix, monkeypatch):
        matrix, spec = lane_matrix
        nan_in_worker = nan_density_in_children(inference._logpost_arrays)
        monkeypatch.setattr(inference, "_logpost_arrays", nan_in_worker)
        pin_lanes(monkeypatch, 2)
        config = SamplerConfig(chains=4, warmup=20, draws=20, seed=5, num_steps=4)
        with pytest.raises(ValidationError, match="not finite at initialization"):
            sample_posterior(matrix, spec, config)

    def test_dead_worker_raises_and_is_reaped(self, lane_matrix, monkeypatch, tmp_path):
        matrix, spec = lane_matrix
        parent = os.getpid()
        real_run_pair = inference._run_pair

        def dying_run_pair(pair, *args):
            if os.getpid() != parent:
                (tmp_path / "worker.pid").write_text(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_pair(pair, *args)

        monkeypatch.setattr(inference, "_run_pair", dying_run_pair)
        pin_lanes(monkeypatch, 2)
        config = SamplerConfig(chains=4, warmup=20, draws=20, seed=5, num_steps=4)
        died = r"worker for chains 2, 3 died \(signal 9\)$"
        with pytest.raises(SplitreadError, match=died):
            sample_posterior(matrix, spec, config)
        with pytest.raises(ChildProcessError):
            os.waitpid(int((tmp_path / "worker.pid").read_text()), os.WNOHANG)

    def test_error_here_kills_running_workers(self, lane_matrix, monkeypatch, tmp_path):
        matrix, spec = lane_matrix
        parent = os.getpid()

        pid_file = tmp_path / "worker.pid"

        def stalled_or_failing(pair, *args):
            if os.getpid() != parent:
                written = tmp_path / "worker.tmp"
                written.write_text(str(os.getpid()))
                written.rename(pid_file)
                time.sleep(60)
            deadline = time.monotonic() + 20
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.01)  # until the worker is surely running
            raise ValidationError("failed in lane 0")

        monkeypatch.setattr(inference, "_run_pair", stalled_or_failing)
        pin_lanes(monkeypatch, 2)
        config = SamplerConfig(chains=4, warmup=20, draws=20, seed=5, num_steps=4)
        start = time.monotonic()
        with pytest.raises(ValidationError, match="failed in lane 0"):
            sample_posterior(matrix, spec, config)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(int(pid_file.read_text()), os.WNOHANG)


def _located_parse_error(item):
    if item == 1:
        with _located("triples.jsonl:2.a.ptb"):
            parse_ptb("(S x")
    return item


def _warn_by_parity(item):
    warnings.warn(f"item parity {item % 2}", UserWarning)
    return item


class TestPoolErrorsAndWarnings:
    def test_located_parse_error_crosses_a_lane(self, monkeypatch):
        # Item 1 runs in the forked lane, and its error comes back pickled.
        pin_lanes(monkeypatch, 2)
        with pytest.raises(ParseError) as err:
            pool.run(_located_parse_error, 3, (), "worker for items")
        assert str(err.value) == "triples.jsonl:2.a.ptb: unbalanced brackets (byte offset 4)"
        assert err.value.offset == 4

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_warnings_shown_in_item_order_through_one_registry(self, monkeypatch, lanes):
        # Every item warns from one line: the default action shows each
        # message once, as one process running the items in turn does.
        pin_lanes(monkeypatch, lanes)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert pool.run(_warn_by_parity, 5, (), "worker for items") == [0, 1, 2, 3, 4]
        assert [str(w.message) for w in caught] == ["item parity 0", "item parity 1"]

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_registry_lasts_one_run(self, monkeypatch, lanes):
        # Each lane's catch_warnings resets Python's warning registries, so
        # a second call shows its warnings again, with any number of lanes.
        pin_lanes(monkeypatch, lanes)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(2):
                pool.run(_warn_by_parity, 5, (), "worker for items")
        assert [str(w.message) for w in caught] == ["item parity 0", "item parity 1"] * 2


class TestSummarize:
    def test_constant_draws(self):
        from splitread.inference import PosteriorDraws

        draws = PosteriorDraws(
            names=("intercept",),
            draws=np.full((2, 10, 1), 3.25),
            logp=np.zeros((2, 10)),
            accept_rate=np.ones(2),
            divergences=0,
        )
        summary = summarize(draws)
        row = summary.rows[0]
        assert row.mean == 3.25
        assert row.sd == 0.0
        assert (row.hdi_low, row.hdi_high) == (3.25, 3.25)
        assert math.isnan(row.rhat)
        assert not summary.converged()

    def test_standard_normal_draws(self, rng):
        from splitread.inference import PosteriorDraws

        samples = rng.standard_normal((4, 2500, 1))
        draws = PosteriorDraws(
            names=("intercept",),
            draws=samples,
            logp=np.zeros((4, 2500)),
            accept_rate=np.ones(4),
            divergences=0,
        )
        row = summarize(draws).rows[0]
        assert abs(row.mean) < 0.05
        assert abs(row.sd - 1.0) < 0.05
        assert row.hdi_low < 0 < row.hdi_high

    def test_rhat_column_matches_rhat_function(self, small_fit):
        *_, draws = small_fit
        summary = summarize(draws)
        for j, row in enumerate(summary.rows):
            assert row.rhat == rhat(draws.draws[:, :, j])


class TestDrawsCsv:
    def test_round_trip_shape(self, small_fit, tmp_path):
        *_, draws = small_fit
        path = tmp_path / "draws.csv"
        draws_to_csv(draws, path, "# test")
        lines = path.read_text().splitlines()
        assert lines[0] == "# test"
        assert lines[1].split(",") == ["chain", "draw", "intercept", "x1", "lp"]
        assert len(lines) == 2 + draws.logp.size
        first = lines[2].split(",")
        assert float(first[2]) == draws.draws[0, 0, 0]

    def test_failed_write_keeps_earlier_file(self, small_fit, tmp_path, monkeypatch):
        *_, draws = small_fit
        path = tmp_path / "draws.csv"
        draws_to_csv(draws, path, "# first run")
        before = path.read_bytes()
        real_fdopen = os.fdopen

        class HalfWrite:
            """A file that writes half of the text, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError("no space left on device")

        monkeypatch.setattr(
            os, "fdopen", lambda *args, **kw: HalfWrite(real_fdopen(*args, **kw))
        )
        with pytest.raises(OSError, match="no space"):
            draws_to_csv(draws, path, "# second run")
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestConfigValidation:
    def test_single_chain_rejected(self):
        with pytest.raises(ValidationError, match="at least 2 chains are required for R-hat"):
            SamplerConfig(chains=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            SamplerConfig(seed=-3)

    def test_bad_target_accept_rejected(self):
        with pytest.raises(ValidationError, match=r"target_accept must lie in \(0, 1\)"):
            SamplerConfig(target_accept=1.0)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: SamplerConfig(warmup=True), "warmup"),
            (lambda: SamplerConfig(chains=2.5), "chains"),
            (lambda: SamplerConfig(draws=3.5), "draws"),
            (lambda: SamplerConfig(seed=1.5), "seed"),
            (lambda: SamplerConfig(num_steps=np.float64(8)), "num_steps"),
            (lambda: SamplerConfig(target_accept="0.8"), "target_accept"),
            (lambda: FeatureConfig(kernel_sigma=True), "kernel_sigma"),
            (lambda: FeatureConfig(kernel_sigma="x"), "kernel_sigma"),
        ],
        ids=["bool-warmup", "float-chains", "float-draws", "float-seed",
             "numpy-float-num_steps", "str-target_accept", "bool-kernel_sigma",
             "str-kernel_sigma"],
    )
    def test_setting_of_wrong_type_named_at_construction(self, make, field):
        # A field whose default is an int takes an integer, one whose
        # default is a float a real number; a bool is neither.
        with pytest.raises(ValidationError, match=f"^{field} must be "):
            make()

    def test_numpy_numbers_accepted(self):
        config = SamplerConfig(chains=np.int64(2), seed=np.uint32(5),
                               target_accept=np.float32(0.5))
        assert config.chains == 2 and config.seed == 5
        assert FeatureConfig(kernel_sigma=np.int8(2)).kernel_sigma == 2

    def test_nonpositive_prior_sd_rejected(self):
        # True would run as 1.0, and inf or 10**400 would fail only at
        # sampling.
        for prior_sd in (0.0, True, math.inf, math.nan, 10**400):
            with pytest.raises(
                ValidationError, match="prior_sd must be one positive finite number"
            ):
                ModelSpec(predictors=("x",), prior_sd=prior_sd)

    def test_prior_sd_square_must_be_normal(self):
        # The density divides by prior_sd**2: below sqrt(float min) the
        # square is subnormal or 0, above sqrt(float max) it is inf.
        low, high = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for prior_sd in (low, high, 1e-150, 1e150, np.float64(high), 10**154):
                ModelSpec(predictors=("x",), prior_sd=prior_sd)
            for prior_sd in (math.nextafter(low, 0.0), math.nextafter(high, math.inf),
                             1e-200, 1e200, np.float64(1e200), 10**155):
                with pytest.raises(ValidationError, match="^prior_sd must lie between"):
                    ModelSpec(predictors=("x",), prior_sd=prior_sd)

    def test_repeated_predictor_named(self):
        with pytest.raises(ValidationError, match=r"duplicate predictor names: \['x'\]"):
            ModelSpec(predictors=("x", "z", "x"))
