"""A known effect survives the whole CLI path.

Every definite A_vs_B choice of the paper-scale demo study is redrawn from
known effects of two side predictors and one score category
(``helpers.make_known_effect_study``); ``fit`` and ``ablate``, run through
``cli.main`` with two predictors that generate nothing, must recover each
effect's sign and rank the removal of each generator worst. Flipping y in
``build_design_matrix``, or giving a judgment's scores to its other side's
row, makes these tests fail.
"""

from __future__ import annotations

import csv
import json

import pytest
from helpers import make_known_effect_study

from splitread import cli

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
