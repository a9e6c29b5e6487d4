"""A known effect survives the whole CLI path.

Every definite A_vs_B choice of the paper-scale demo study is redrawn from
known effects of two side predictors and one score category
(``helpers.make_known_effect_study``); ``fit`` and ``ablate``, run through
``cli.main`` with two predictors that generate nothing, must recover each
effect's sign and rank the removal of each generator worst. Flipping y in
``build_design_matrix``, or giving a judgment's scores to its other side's
row, makes these tests fail.

The scale of the long-format coefficients is pinned on the unaltered demo
study: in the split-only model, side a's row is 1 when it was chosen and
side b's row is 1 when it was not, so at a flat prior the mode solves
sigmoid(b0 + b_split) = p and sigmoid(b0) = 1 - p, with p the share of
choices of side a. Then b_split = 2 logit(p), twice the choice log-odds,
and b0 = -logit(p). On known-effect studies the long-format mode is set
against the paired (conditional-logit) mode, which fits the choice itself:
the paired mode recovers each effect on the choice scale, and the long
format inflates ``split`` and attenuates the continuous effects by the
ratios of ROADMAP item 15's table. Emitting one row per judgment in
``build_design_matrix`` makes that test fail.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from helpers import make_known_effect_study

from splitread import cli
from splitread.config import FeatureConfig, ModelSpec
from splitread.dataset import build_design_matrix, ingest
from splitread.inference import log_posterior
from splitread.synth import make_demo_dataset

EFFECTS = {"yngve": 0.7, "samsa": -0.7, "fluency": 0.5}
NON_GENERATORS = ("meaning", "dale")
SAMPLER = {"chains": 2, "warmup": 150, "draws": 150, "num_steps": 16, "seed": 5}
CALIBRATION_SETTINGS = {
    "split": {"split": 0.4, "samsa": -0.7, "fluency": 0.5},
    "yngve": {"yngve": 0.7, "samsa": -0.7, "fluency": 0.5},
}
# Long-format mode over paired mode, averaged over the seeds. The bands were
# fixed from ROADMAP item 15's 10-seed table (1.78 for split, 0.76-0.86 for
# samsa and fluency) before the first run.
RATIO_BANDS = {"split": (1.5, 2.1), "samsa": (0.65, 0.95), "fluency": (0.65, 0.95)}


def _rows(path) -> dict[str, dict[str, str]]:
    """The CSV rows of an artifact by their first cell, '#' lines skipped."""
    lines = [line for line in path.read_text("utf-8").splitlines() if line[:1] != "#"]
    return {row[next(iter(row))]: row for row in csv.DictReader(lines)}


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("known_effect")
    triples, judgments = make_known_effect_study(tmp, EFFECTS, seed=11)
    config = tmp / "config.json"
    config.write_text(
        json.dumps(
            {
                "triples": str(triples),
                "judgments": str(judgments),
                "out": str(tmp / "out"),
                "predictors": [*EFFECTS, *NON_GENERATORS],
                "sampler": SAMPLER,
            }
        ),
        encoding="utf-8",
    )
    assert cli.main(["fit", "--config", str(config)]) == cli.EXIT_OK
    assert cli.main(["ablate", "--config", str(config)]) == cli.EXIT_OK
    return _rows(tmp / "out" / "summary.csv"), _rows(tmp / "out" / "ablation.csv")


def test_fit_recovers_each_effect(study):
    summary, _ = study
    for name, beta in EFFECTS.items():
        row = {k: float(v) for k, v in summary[name].items() if k != "coefficient"}
        sign = 1 if beta > 0 else -1
        assert sign * row["mean"] > 0, (name, row)
        assert sign * row["hdi_low"] > 0 and sign * row["hdi_high"] > 0, (name, row)


def test_ablate_ranks_every_generator_below_every_non_generator(study):
    _, ablation = study
    generators = [int(ablation[name]["rank"]) for name in EFFECTS]
    others = [int(ablation[name]["rank"]) for name in NON_GENERATORS]
    assert max(others) < min(generators), ablation


def _newton_map(A, gradient, prior_sd) -> np.ndarray:
    """The mode of a logistic log posterior on design ``A`` with a
    Normal(0, prior_sd) prior on every coefficient: Newton's method on
    ``gradient``, with the Hessian -A^T diag(w) A - I / sd^2 for
    w = lambda (1 - lambda)."""
    beta = np.zeros(A.shape[1])
    for _ in range(50):
        lam = 1.0 / (1.0 + np.exp(-(A @ beta)))
        hessian = -(A.T * (lam * (1.0 - lam))) @ A - np.eye(len(beta)) / prior_sd**2
        step = np.linalg.solve(hessian, gradient(beta))
        beta -= step
        if np.abs(step).max() < 1e-13:
            break
    return beta


def test_split_only_mode_is_twice_the_choice_log_odds(tmp_path):
    triples_path, judgments_path = make_demo_dataset(
        tmp_path, n_triples=221, n_workers=7, seed=3
    )
    triples, records = ingest(judgments_path, triples_path)
    choices = [
        r.choice for r in records if r.question == "A_vs_B" and r.choice != "not_sure"
    ]
    assert (choices.count("first"), len(choices)) == (877, 1497)
    logit = math.log(877 / (1497 - 877))
    matrix = build_design_matrix(triples, records, FeatureConfig(predictors=("split",)))
    spec = ModelSpec(predictors=("split",), prior_sd=1e4)
    A = np.column_stack([np.ones(matrix.n_rows), matrix.X])
    beta = _newton_map(A, lambda b: log_posterior(b, matrix, spec)[1], spec.prior_sd)
    assert beta[1] == pytest.approx(2.0 * logit, abs=1e-8)
    assert beta[0] == pytest.approx(-logit, abs=1e-8)


def _long_and_paired_modes(out_dir, effects, seed) -> np.ndarray:
    """The long-format mode (intercept dropped) and the paired mode of one
    known-effect study, shape (2, predictors), at prior sd 2.5."""
    triples_path, judgments_path = make_known_effect_study(out_dir, effects, seed=seed)
    triples, records = ingest(judgments_path, triples_path)
    spec = ModelSpec(predictors=(*effects, *NON_GENERATORS), prior_sd=2.5)
    matrix = build_design_matrix(triples, records, FeatureConfig(predictors=spec.predictors))
    # Judgment i is rows 2i (side a) and 2i + 1 (side b), y = 1 on the chosen side.
    decided = [r for r in records if r.question == "A_vs_B" and r.choice != "not_sure"]
    assert matrix.n_rows == 2 * len(decided)
    a, b = matrix.X[0::2], matrix.X[1::2]
    np.testing.assert_array_equal(matrix.y[0::2] + matrix.y[1::2], 1.0)
    if "split" in effects:
        split = spec.predictors.index("split")
        assert np.all(a[:, split] == 1.0) and np.all(b[:, split] == 0.0)
    A = np.column_stack([np.ones(matrix.n_rows), matrix.X])
    long = _newton_map(A, lambda beta: log_posterior(beta, matrix, spec)[1], spec.prior_sd)
    # The conditional logit of the choice: P(a) = sigmoid((x_a - x_b) beta),
    # no intercept, so split's difference of 1 carries its choice log-odds.
    D, chose_a = a - b, matrix.y[0::2]

    def paired_gradient(beta):
        return D.T @ (chose_a - 1.0 / (1.0 + np.exp(-(D @ beta)))) - beta / spec.prior_sd**2

    return np.stack([long[1:], _newton_map(D, paired_gradient, spec.prior_sd)])


@pytest.mark.parametrize("effects", CALIBRATION_SETTINGS.values(), ids=list(CALIBRATION_SETTINGS))
def test_long_format_calibration_against_paired_fit(tmp_path, effects):
    modes = [_long_and_paired_modes(tmp_path / str(seed), effects, seed) for seed in range(5)]
    long, paired = np.mean(modes, axis=0)
    for j, (name, beta) in enumerate(effects.items()):
        # split is 1 on side a and 0 on side b: z-scored over the sides the
        # generator gave it a difference of 2, so its choice log-odds is 2 beta.
        truth = 2.0 * beta if name == "split" else beta
        assert paired[j] == pytest.approx(truth, rel=0.15), (name, paired[j])
        if name in RATIO_BANDS:
            low, high = RATIO_BANDS[name]
            assert low <= long[j] / paired[j] <= high, (name, long[j], paired[j])
