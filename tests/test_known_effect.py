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
and b0 = -logit(p).
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from helpers import make_known_effect_study

from splitread import cli
from splitread.dataset import FeatureConfig, ModelSpec, build_design_matrix, ingest
from splitread.inference import log_posterior
from splitread.synth import make_demo_dataset

EFFECTS = {"yngve": 0.7, "samsa": -0.7, "fluency": 0.5}
NON_GENERATORS = ("meaning", "dale")
SAMPLER = {"chains": 2, "warmup": 150, "draws": 150, "num_steps": 16, "seed": 5}


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
    # Newton's method on the log posterior's gradient, with its Hessian
    # -A^T diag(w) A - I / sd^2 for A = [1, X] and w = lambda (1 - lambda).
    A = np.column_stack([np.ones(matrix.n_rows), matrix.X])
    beta = np.zeros(2)
    for _ in range(50):
        _, grad = log_posterior(beta, matrix, spec)
        lam = 1.0 / (1.0 + np.exp(-(A @ beta)))
        hessian = -(A.T * (lam * (1.0 - lam))) @ A - np.eye(2) / spec.prior_sd**2
        step = np.linalg.solve(hessian, grad)
        beta -= step
        if np.abs(step).max() < 1e-13:
            break
    assert beta[1] == pytest.approx(2.0 * logit, abs=1e-8)
    assert beta[0] == pytest.approx(-logit, abs=1e-8)
