from __future__ import annotations

import dataclasses
import math
import os
import signal
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
from splitread.dataset import DesignMatrix, FeatureConfig, _located
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
from splitread.synth import make_logit_matrix
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
        with pytest.raises(ValidationError):
            log_posterior([0.0], matrix, ModelSpec(predictors=("x1",)))

    def test_non_finite_beta_rejected(self):
        matrix = _tiny_matrix()
        with pytest.raises(ValidationError):
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
        # Beyond |t| = 709.78 the margin form's e^v overflows to inf. The
        # two forms add the same terms in other orders and roundings, so
        # each result may differ by a small multiple of its summed size.
        matrix = make_logit_matrix(60, [0.3, 1.0, -0.5], seed=4)
        X = matrix.predictor_matrix(matrix.columns)
        A = inference._signed_design(X, matrix.y)
        beta = np.asarray(beta)
        prior_sd = np.full(3, 2.5)
        with warnings.catch_warnings():
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_design_rejected(self, value):
        # A hand-built matrix skips from_arrays' check. Unchecked, the
        # density and WAIC come out NaN and the sampler fails with a
        # misleading "not finite at initialization".
        matrix = DesignMatrix(
            columns=("x1",),
            X=np.array([[1.0], [-1.0], [value]]),
            y=np.array([1.0, 0.0, 1.0]),
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
        with pytest.raises(ValidationError):
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
        with pytest.raises(ValidationError):
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


class TestLeapfrog:
    """Interior leapfrog steps compute only the gradient; the log density
    is computed once per trajectory, at its endpoint."""

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
        calls = {True: 0, False: 0}
        search_calls = 0
        trajectory_steps = []
        in_search = False
        real_logpost = inference._logpost_arrays
        real_leapfrog = inference._leapfrog
        real_search = inference._find_reasonable_epsilon

        def counting_logpost(*args, value=True):
            calls[value] += 1
            return real_logpost(*args, value=value)

        def recording_leapfrog(q, p, grad, eps, n_steps, logpost):
            if not in_search:
                trajectory_steps.append(n_steps)
            return real_leapfrog(q, p, grad, eps, n_steps, logpost)

        def counting_search(*args):
            nonlocal in_search, search_calls
            before = calls[True] + calls[False]
            in_search = True
            try:
                return real_search(*args)
            finally:
                in_search = False
                search_calls += calls[True] + calls[False] - before

        # The counters live in this process, so every chain must run here.
        pin_lanes(monkeypatch, 1)
        monkeypatch.setattr(inference, "_logpost_arrays", counting_logpost)
        monkeypatch.setattr(inference, "_leapfrog", recording_leapfrog)
        monkeypatch.setattr(inference, "_find_reasonable_epsilon", counting_search)
        sample_posterior(matrix, spec, config)
        iterations = config.chains * (config.warmup + config.draws)
        assert len(trajectory_steps) == iterations
        assert search_calls > 0
        assert calls[True] == config.chains + search_calls + iterations
        assert calls[True] + calls[False] == (
            config.chains + search_calls + sum(trajectory_steps)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=3,
        )
    )
    def test_gradient_only_call_matches_full_call(self, beta):
        matrix = make_logit_matrix(60, [0.3, 1.0, -0.5], seed=4)
        A = inference._signed_design(matrix.predictor_matrix(matrix.columns), matrix.y)
        beta = np.asarray(beta)
        prior_sd = np.full(3, 2.5)
        _, grad = inference._logpost_arrays(beta, A, prior_sd)
        lp, grad_only = inference._logpost_arrays(beta, A, prior_sd, value=False)
        assert math.isnan(lp)
        assert np.array_equal(grad_only, grad)

    def test_non_finite_interior_gradient_stops_trajectory(self):
        calls = []

        def logpost(q, *, value=True):
            calls.append(value)
            grad = np.full(q.size, math.nan if len(calls) == 2 else 0.5)
            return (0.0 if value else math.nan), grad

        _, _, lp, _ = inference._leapfrog(
            np.zeros(2), np.ones(2), np.ones(2), 0.1, 5, logpost
        )
        assert lp == -math.inf
        assert calls == [False, False]

    def test_failed_trajectories_rejected_and_counted(self, monkeypatch):
        # The gradient is NaN outside the box max|beta| <= bound, so every
        # trajectory that leaves it fails; none may be accepted.
        bound = 0.6
        real_logpost = inference._logpost_arrays

        def boxed_logpost(beta, *args, value=True):
            lp, grad = real_logpost(beta, *args, value=value)
            if np.max(np.abs(beta)) > bound:
                grad = np.full_like(grad, math.nan)
            return lp, grad

        matrix = make_logit_matrix(400, [0.3, 0.5, -0.4], seed=5)
        spec = ModelSpec(predictors=matrix.columns)
        config = SamplerConfig(chains=2, warmup=200, draws=200, seed=7, num_steps=12)
        pin_lanes(monkeypatch, 1)
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
        real_run_chain = inference._run_chain

        def recording_run_chain(chain, *args):
            (tmp_path / f"{chain}.pid").write_text(str(os.getpid()))
            return real_run_chain(chain, *args)

        monkeypatch.setattr(inference, "_run_chain", recording_run_chain)
        pin_lanes(monkeypatch, 2)
        config = SamplerConfig(chains=3, warmup=20, draws=20, seed=5, num_steps=4)
        sample_posterior(matrix, spec, config)
        pids = [int((tmp_path / f"{c}.pid").read_text()) for c in range(3)]
        assert pids[0] == pids[2] == os.getpid()
        assert pids[1] != os.getpid()

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
        calls = 0
        trajectory_eps = []
        real_logpost = inference._logpost_arrays
        real_leapfrog = inference._leapfrog

        def counting_logpost(*args, value=True):
            nonlocal calls
            calls += 1
            return real_logpost(*args, value=value)

        def recording_leapfrog(q, p, grad, eps, n_steps, logpost):
            if n_steps > 1:  # not the epsilon search's single steps
                trajectory_eps.append(eps)
            return real_leapfrog(q, p, grad, eps, n_steps, logpost)

        pin_lanes(monkeypatch, 1)
        monkeypatch.setattr(inference, "_logpost_arrays", counting_logpost)
        monkeypatch.setattr(inference, "_leapfrog", recording_leapfrog)
        draws = sample_posterior(matrix, spec, config)
        assert draws.grad_evals.sum() == calls
        per_chain = config.warmup + config.draws
        assert len(trajectory_eps) == config.chains * per_chain
        for c in range(config.chains):
            kept = trajectory_eps[c * per_chain + config.warmup : (c + 1) * per_chain]
            assert set(kept) == {draws.step_size[c]}


class TestWorkerFailures:
    def test_chain_error_in_worker_raised_here(self, lane_matrix, monkeypatch):
        matrix, spec = lane_matrix
        nan_in_worker = nan_density_in_children(inference._logpost_arrays)
        monkeypatch.setattr(inference, "_logpost_arrays", nan_in_worker)
        pin_lanes(monkeypatch, 2)
        config = SamplerConfig(chains=2, warmup=20, draws=20, seed=5, num_steps=4)
        with pytest.raises(ValidationError, match="not finite at initialization"):
            sample_posterior(matrix, spec, config)

    def test_dead_worker_raises_and_is_reaped(self, lane_matrix, monkeypatch, tmp_path):
        matrix, spec = lane_matrix
        parent = os.getpid()
        real_run_chain = inference._run_chain

        def dying_run_chain(chain, *args):
            if os.getpid() != parent:
                (tmp_path / "worker.pid").write_text(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_chain(chain, *args)

        monkeypatch.setattr(inference, "_run_chain", dying_run_chain)
        pin_lanes(monkeypatch, 2)
        config = SamplerConfig(chains=4, warmup=20, draws=20, seed=5, num_steps=4)
        with pytest.raises(SplitreadError, match=r"worker for chains 1, 3 died \(signal 9\)"):
            sample_posterior(matrix, spec, config)
        with pytest.raises(ChildProcessError):
            os.waitpid(int((tmp_path / "worker.pid").read_text()), os.WNOHANG)

    def test_error_here_kills_running_workers(self, lane_matrix, monkeypatch, tmp_path):
        matrix, spec = lane_matrix
        parent = os.getpid()

        pid_file = tmp_path / "worker.pid"

        def stalled_or_failing(chain, *args):
            if os.getpid() != parent:
                written = tmp_path / "worker.tmp"
                written.write_text(str(os.getpid()))
                written.rename(pid_file)
                time.sleep(60)
            deadline = time.monotonic() + 20
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.01)  # until the worker is surely running
            raise ValidationError("failed in lane 0")

        monkeypatch.setattr(inference, "_run_chain", stalled_or_failing)
        pin_lanes(monkeypatch, 2)
        config = SamplerConfig(chains=2, warmup=20, draws=20, seed=5, num_steps=4)
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
        with pytest.raises(ValidationError):
            SamplerConfig(chains=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            SamplerConfig(seed=-3)

    def test_bad_target_accept_rejected(self):
        with pytest.raises(ValidationError):
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
            with pytest.raises(ValidationError):
                ModelSpec(predictors=("x",), prior_sd=prior_sd)

    def test_repeated_predictor_named(self):
        with pytest.raises(ValidationError, match=r"duplicate predictor names: \['x'\]"):
            ModelSpec(predictors=("x", "z", "x"))
