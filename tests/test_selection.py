from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from helpers import reference_pointwise_loglik, reference_waic
from scipy.special import logsumexp
from scipy.stats import norm

from splitread import cli
from splitread.dataset import DesignMatrix
from splitread.errors import ValidationError
from splitread.inference import ModelSpec, PosteriorDraws, SamplerConfig, sample_posterior
from splitread.selection import (
    P_WAIC_LIMIT,
    ROW_BLOCK,
    ComparisonTable,
    WaicResult,
    _log_sum_exp,
    ablate,
    compare,
    pointwise_loglik,
    waic,
)
from splitread.synth import make_logit_matrix


def _draws_from(beta_rows, names):
    beta = np.asarray(beta_rows, dtype=float)[None, :, :]  # one chain
    return PosteriorDraws(
        names=tuple(names),
        draws=np.concatenate([beta, beta]),  # two identical chains
        logp=np.zeros((2, beta.shape[1])),
        accept_rate=np.ones(2),
        divergences=0,
    )


class TestPointwiseLoglik:
    def test_zero_draw_gives_log_half(self):
        matrix = DesignMatrix(
            columns=("x1",),
            X=np.array([[1.0], [2.0], [-1.0]]),
            y=np.array([1.0, 0.0, 1.0]),
            meta={},
        )
        draws = _draws_from([[0.0, 0.0]], ["intercept", "x1"])
        ll = pointwise_loglik(draws, matrix)
        assert np.allclose(ll, math.log(0.5))

    def test_hand_value(self):
        matrix = DesignMatrix(
            columns=("x1",), X=np.array([[1.0]]), y=np.array([1.0]), meta={}
        )
        draws = _draws_from([[0.0, 1.0]], ["intercept", "x1"])
        ll = pointwise_loglik(draws, matrix)
        assert ll[0, 0] == pytest.approx(-0.3133, abs=1e-4)

    def test_entries_are_log_probabilities(self, rng):
        matrix = make_logit_matrix(50, [0.2, 0.5, -0.5], seed=2)
        beta = rng.standard_normal((10, 3))
        draws = _draws_from(beta, ["intercept", *matrix.columns])
        assert np.all(pointwise_loglik(draws, matrix) <= 0.0)

    def test_dimension_mismatch_rejected(self):
        matrix = DesignMatrix(
            columns=("x1",), X=np.array([[1.0]]), y=np.array([1.0]), meta={}
        )
        draws = _draws_from([[0.0, 1.0, 2.0]], ["intercept", "x1", "x2"])
        with pytest.raises(ValidationError, match="no such column 'x2'"):
            pointwise_loglik(draws, matrix)

    def test_non_binary_outcome_rejected(self):
        matrix = DesignMatrix(
            columns=("x1",), X=np.array([[1.0], [2.0]]), y=np.array([0.5, 1.0]), meta={}
        )
        draws = _draws_from([[0.0, 0.0]], ["intercept", "x1"])
        with pytest.raises(ValidationError, match="binary"):
            pointwise_loglik(draws, matrix)

    def test_rows_sum_to_sampler_log_density(self):
        # The sampler's logp of each draw is its log likelihood plus the
        # Normal log prior: WAIC's terms must be that likelihood, row by row.
        matrix = make_logit_matrix(200, [0.3, 1.0, -0.5], seed=6)
        spec = ModelSpec(predictors=matrix.columns)
        config = SamplerConfig(chains=2, warmup=100, draws=100, seed=9, num_steps=8)
        draws = sample_posterior(matrix, spec, config)
        beta = draws.pooled()
        loglik = pointwise_loglik(draws, matrix).sum(axis=1)
        logprior = norm.logpdf(beta, scale=spec.prior_sd).sum(axis=1)
        np.testing.assert_allclose(
            loglik + logprior, draws.logp.reshape(-1), rtol=1e-12, atol=0
        )


class TestWaic:
    def test_identical_draws_hand_value(self):
        loglik = np.log(np.array([[0.5], [0.5]]))
        result = waic(loglik)
        assert result.waic == pytest.approx(-0.6931, abs=1e-4)
        assert result.p_waic == 0.0

    def test_two_draw_hand_value(self):
        loglik = np.log(np.array([[0.5], [0.8]]))
        result = waic(loglik)
        lppd = math.log(0.65)
        p = np.var([math.log(0.5), math.log(0.8)], ddof=1)
        assert result.waic == pytest.approx(lppd - p, abs=1e-12)
        assert result.waic == pytest.approx(-0.5413, abs=1e-4)
        assert result.p_waic == pytest.approx(0.1105, abs=1e-4)

    def test_single_sample_rejected(self):
        with pytest.raises(
            ValidationError, match="WAIC needs at least 2 posterior samples and 1 row"
        ):
            waic(np.array([[math.log(0.5)]]))

    def test_no_rows_rejected(self):
        # Scored on nothing, a model would get waic 0 and tie in compare.
        with pytest.raises(
            ValidationError, match="WAIC needs at least 2 posterior samples and 1 row"
        ):
            waic(np.zeros((3, 0)))

    def test_p_waic_nonnegative_and_zero_iff_constant(self, rng):
        loglik = -rng.uniform(0.1, 2.0, size=(20, 30))
        assert waic(loglik).p_waic > 0.0
        constant = np.tile(loglik[0], (5, 1))
        assert waic(constant).p_waic == 0.0

    def test_unreliable_rows_counted(self):
        # Row 0 is constant; rows 1 and 2 have p_waic_i of about 2.65 and
        # 2.41, row 3 about 0.08.
        loglik = np.log(np.array([[0.5, 0.5, 0.9, 0.5], [0.5, 0.05, 0.1, 0.35]]))
        result = waic(loglik)
        assert result.unreliable_rows == 2
        table = compare({"a": result, "b": waic(loglik[:, ::-1])})
        assert [r.unreliable_rows for r in table.rows] == [2, 2]
        assert P_WAIC_LIMIT == 0.4

    def test_noise_degrades_waic(self, rng):
        matrix = make_logit_matrix(300, [0.0, 1.5], seed=8)
        spec = ModelSpec(predictors=matrix.columns)
        config = SamplerConfig(chains=2, warmup=200, draws=200, seed=4, num_steps=8)
        draws = sample_posterior(matrix, spec, config)
        ll = pointwise_loglik(draws, matrix)
        clean = waic(ll)
        noisy_ll = ll.copy()
        half = ll.shape[1] // 2
        noisy_ll[:, :half] += rng.normal(scale=2.0, size=(ll.shape[0], half))
        noisy_ll = np.minimum(noisy_ll, 0.0)
        assert waic(noisy_ll).waic < clean.waic


def _random_fit(rng, n_rows, n_samples, k=17):
    # 17 predictors and the intercept: the desk model's 18 coefficients,
    # a shape at which a GEMM split by rows changes bits.
    matrix = DesignMatrix(
        columns=tuple(f"x{j}" for j in range(k)),
        X=rng.standard_normal((n_rows, k)),
        y=(rng.random(n_rows) < 0.5).astype(float),
        meta={},
    )
    draws = PosteriorDraws(
        names=("intercept", *matrix.columns),
        draws=rng.standard_normal((1, n_samples, k + 1)),
        logp=np.zeros((1, n_samples)),
        accept_rate=np.ones(1),
        divergences=0,
    )
    return draws, matrix


def _one_row_loglik(beta, names):
    """pointwise_loglik of the one draw ``beta`` on a one-row matrix of
    column x1."""
    matrix = DesignMatrix(
        columns=("x1",), X=np.array([[1.0]]), y=np.array([1.0]), meta={}
    )
    return pointwise_loglik(_draws_from([beta], names), matrix)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: _one_row_loglik([0.0, 1.0], ["x1", "intercept"]),
            ValidationError,
            "draws must carry an intercept as first coefficient",
        ),
        (
            lambda: _one_row_loglik([0.0, 1.0, 2.0], ["intercept", "x1"]),
            ValidationError,
            "draw dimension does not match the design matrix",
        ),
        (
            lambda: waic(np.zeros(3)),
            ValidationError,
            "loglik must be a (samples, rows) array",
        ),
        # A KeyError's message is its key's repr.
        (lambda: ComparisonTable(rows=()).row("x1"), KeyError, "'x1'"),
    ],
    ids=["no-intercept", "draw-width", "waic-1d", "absent-row"],
)
def test_library_input_rejected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestRowBlocks:
    """The row-blocked code against the whole-array formulas it replaced:
    the same bits, at every block boundary and a one-row tail."""

    @pytest.mark.parametrize("n_samples", [2, 3, 120])
    @pytest.mark.parametrize(
        "n_rows",
        [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 2, 3 * ROW_BLOCK + 1],
    )
    def test_bit_identical_to_whole_array(self, rng, n_rows, n_samples):
        draws, matrix = _random_fit(rng, n_rows, n_samples)
        loglik = pointwise_loglik(draws, matrix)
        expected = reference_pointwise_loglik(draws, matrix)
        assert np.array_equal(loglik, expected)
        for order in ("C", "F"):
            # numpy sums a column of an F-ordered array pairwise, so each
            # layout has bits of its own.
            pointwise, total, p_waic, se = reference_waic(
                np.asarray(expected, order=order)
            )
            result = waic(np.asarray(loglik, order=order))
            assert np.array_equal(result.pointwise, pointwise)
            assert result.waic == total
            assert result.p_waic == p_waic
            assert result.se == se

    def test_peak_memory_within_two_arrays(self, rng):
        n_samples, n_rows = 400, 3000
        draws, matrix = _random_fit(rng, n_rows, n_samples)
        tracemalloc.start()
        try:
            waic(pointwise_loglik(draws, matrix))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n_samples * n_rows * 8


class TestOracles:
    """The numpy kernels against the np.logaddexp and scipy.special.logsumexp
    forms they replaced, to within rounding rather than to the bit."""

    def test_pointwise_matches_logaddexp(self, rng):
        draws, matrix = _random_fit(rng, 3 * ROW_BLOCK + 1, 120)
        beta = draws.pooled()
        t = beta[:, :1] + beta[:, 1:] @ matrix.X.T
        expected = matrix.y * t - np.logaddexp(0.0, t)
        got = pointwise_loglik(draws, matrix)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    def test_waic_matches_logsumexp_at_desk_size(self, rng):
        # 4000 draws on 2994 rows of 17 predictors, spread about the
        # coefficients that drew y as a fitted posterior's draws are. Each
        # p_waic_i is below 0.1 and |elpd_i| below 8, so elpd_i rounds at
        # far below 1e-13 and shows lppd_i's error.
        beta = rng.normal(scale=0.5, size=18)
        matrix = make_logit_matrix(2994, beta, seed=3)
        draws = PosteriorDraws(
            names=("intercept", *matrix.columns),
            draws=beta + 0.05 * rng.standard_normal((1, 4000, 18)),
            logp=np.zeros((1, 4000)),
            accept_rate=np.ones(1),
            divergences=0,
        )
        loglik = pointwise_loglik(draws, matrix)
        expected = []
        for start in range(0, loglik.shape[1], ROW_BLOCK):
            block = loglik[:, start : start + ROW_BLOCK]
            lppd = logsumexp(block, axis=0) - math.log(len(block))
            expected.append(lppd - (block - block[0]).var(axis=0, ddof=1))
        got = waic(loglik).pointwise
        np.testing.assert_allclose(got, np.concatenate(expected), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("low, high", [(-700.0, 0.0), (-1450.0, -750.0)])
    def test_log_sum_exp_matches_scipy(self, rng, low, high):
        # Below -745 every exp underflows to 0 unless shifted by the max.
        # Past 512 in magnitude one ulp exceeds 1e-13, hence the rtol.
        a = rng.uniform(low, high, size=(4000, ROW_BLOCK))
        expected = logsumexp(a, axis=0)
        np.testing.assert_allclose(_log_sum_exp(a), expected, rtol=1e-15, atol=1e-13)


class TestCompare:
    def _result(self, pointwise):
        pointwise = np.asarray(pointwise, dtype=float)
        return WaicResult(
            waic=float(pointwise.sum()),
            p_waic=0.5,
            se=math.sqrt(len(pointwise) * pointwise.var()),
            pointwise=pointwise,
        )

    def test_identical_models_tie_broken_by_name(self):
        a = self._result([-0.5, -0.6])
        b = self._result([-0.5, -0.6])
        table = compare({"m2": b, "m1": a})
        assert [r.name for r in table.rows] == ["m1", "m2"]
        assert all(r.d_waic == 0.0 for r in table.rows)

    def test_constant_offset_gap(self):
        base = np.array([-0.4] * 10)
        offset = 0.25
        table = compare(
            {"top": self._result(base), "worse": self._result(base - offset)}
        )
        worse = table.row("worse")
        assert worse.d_waic == pytest.approx(10 * offset)
        assert worse.dse == 0.0
        assert table.row("top").rank == 0

    def test_three_models_monotone(self):
        table = compare(
            {
                "a": self._result([-0.2, -0.2]),
                "b": self._result([-0.4, -0.4]),
                "c": self._result([-0.3, -0.3]),
            }
        )
        assert [r.rank for r in table.rows] == [0, 1, 2]
        waics = [r.waic for r in table.rows]
        assert waics == sorted(waics, reverse=True)
        assert all(r.d_waic >= 0 for r in table.rows)

    def test_input_order_invariance(self):
        results = {
            "a": self._result([-0.2, -0.7]),
            "b": self._result([-0.5, -0.1]),
            "c": self._result([-0.9, -0.9]),
        }
        t1 = compare(dict(results))
        t2 = compare(dict(reversed(list(results.items()))))
        assert t1 == t2

    def test_mismatched_rows_rejected(self):
        with pytest.raises(
            ValidationError, match="models were evaluated on different row sets"
        ):
            compare(
                {"a": self._result([-0.5]), "b": self._result([-0.5, -0.5])}
            )

    def test_single_model_rejected(self):
        with pytest.raises(ValidationError, match="compare needs at least 2 models"):
            compare({"a": self._result([-0.5])})

    def test_no_rows_rejected(self):
        # waic rejects such results; hand-built ones would rank with dse 0.
        empty = WaicResult(0.0, 0.0, 0.0, np.empty(0))
        with pytest.raises(ValidationError, match="at least 1 row"):
            compare({"a": empty, "b": empty})

    def test_one_row_dse_is_zero(self):
        table = compare({"a": self._result([-0.5]), "b": self._result([-0.7])})
        assert table.row("b").dse == 0.0


class TestAblate:
    def test_row_count_and_layout(self):
        matrix = make_logit_matrix(200, [0.0, 1.0, 0.0], seed=12)
        spec = ModelSpec(predictors=matrix.columns)
        config = SamplerConfig(chains=2, warmup=150, draws=150, seed=2, num_steps=8)
        table = ablate(matrix, spec, config)
        assert len(table.rows) == 3
        names = {r.name for r in table.rows}
        assert names == {"base", "x1", "x2"}
        assert [r.rank for r in sorted(table.rows, key=lambda r: r.rank)] == [0, 1, 2]

    def test_flagged_rows_marked_not_dropped(self):
        matrix = make_logit_matrix(100, [0.0, 0.5, 0.5], seed=13)
        spec = ModelSpec(predictors=matrix.columns)
        config = SamplerConfig(chains=2, warmup=50, draws=50, seed=2, num_steps=8)

        def stuck_sampler(matrix, spec, config):
            # One chain stuck at a constant: R-hat blows up.
            k = len(spec.predictors) + 1
            rng = np.random.default_rng(0)
            chain_a = rng.standard_normal((config.draws, k))
            chain_b = np.full((config.draws, k), 5.0)
            return PosteriorDraws(
                names=spec.coefficient_names(),
                draws=np.stack([chain_a, chain_b]),
                logp=np.zeros((2, config.draws)),
                accept_rate=np.ones(2),
                divergences=0,
            )

        table = ablate(matrix, spec, config, sample_fn=stuck_sampler)
        assert len(table.rows) == 3
        assert all(not r.converged for r in table.rows)
        assert any("*" in line for line in cli._ablation_text_lines(table))

    def test_single_predictor_spec_rejected(self):
        matrix = make_logit_matrix(50, [0.0, 1.0], seed=1)
        with pytest.raises(ValidationError, match="ablation needs at least 2 predictors"):
            ablate(
                matrix,
                ModelSpec(predictors=matrix.columns),
                SamplerConfig(chains=2, warmup=10, draws=10, seed=1),
            )

    def test_predictor_named_base_rejected_before_any_fit(self):
        # "base" is the full model's row: a predictor of that name would
        # take its key, and the full model would drop out of the table.
        matrix = make_logit_matrix(50, [0.0, 1.0, 0.0], seed=1)
        matrix = DesignMatrix.from_arrays(("base", "x"), matrix.X, matrix.y)

        def no_fit(matrix, spec, config):
            raise AssertionError("ablate fitted a model")

        with pytest.raises(ValidationError, match="'base'"):
            ablate(matrix, ModelSpec(predictors=matrix.columns), SamplerConfig(), no_fit)

    def test_pure_noise_ablation_within_two_dse(self):
        # y depends only on x1; removing the noise column x2 must not move
        # WAIC by more than twice the difference's standard error.
        matrix = make_logit_matrix(400, [0.0, 1.5, 0.0], seed=44)
        spec = ModelSpec(predictors=matrix.columns)
        config = SamplerConfig(chains=2, warmup=250, draws=250, seed=6, num_steps=12)
        table = ablate(matrix, spec, config)
        noise_row = table.row("x2")
        base_row = table.row("base")
        gap = abs(noise_row.waic - base_row.waic)
        dse = max(noise_row.dse, base_row.dse, 1e-9)
        assert gap <= 2.0 * dse


class TestTableOutput:
    def test_csv_and_text_lines(self):
        rows = {
            "base": WaicResult(-10.0, 1.0, 0.5, np.array([-5.0, -5.0])),
            "x1": WaicResult(-12.0, 1.1, 0.6, np.array([-6.0, -6.0])),
        }
        table = compare(rows)
        csv_lines = cli._ablation_csv_lines(table)
        assert csv_lines[0].startswith("predictor,rank,waic")
        assert csv_lines[1].startswith("base,0,")
        text = cli._ablation_text_lines(table)
        assert text[0].split()[0] == "predictor"
        assert "base" in text[1]
