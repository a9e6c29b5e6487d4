"""Tests of the benchmark's own estimators and checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import checks
import traced
from ess import ess
from spans import Patches, Span, Tracer, inclusive_seconds, self_times
from splitread import cli, dataset, inference, trees
from splitread.inference import ModelSpec, PosteriorDraws, SamplerConfig, sample_posterior
from splitread.synth import make_demo_dataset, make_logit_matrix


def ar1(rng, rho: float, chains: int, n: int) -> np.ndarray:
    x = np.empty((chains, n))
    x[:, 0] = rng.standard_normal(chains) / math.sqrt(1.0 - rho**2)
    noise = rng.standard_normal((chains, n))
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("rho, rtol", [(0.0, 0.08), (0.5, 0.1), (0.9, 0.2), (-0.3, 0.1)])
def test_ess_matches_ar1_closed_form(rho, rtol):
    rng = np.random.default_rng(7)
    chains, n = 4, 4000
    want = chains * n * (1.0 - rho) / (1.0 + rho)
    got = [ess(ar1(rng, rho, chains, n)) for _ in range(3)]
    assert np.mean(got) == pytest.approx(want, rel=rtol)


def test_ess_iid_draws_and_between_chain_shift():
    rng = np.random.default_rng(11)
    draws = rng.standard_normal((4, 2000))
    assert ess(draws) == pytest.approx(8000, rel=0.08)
    # Chains stuck in different places share no information.
    shifted = draws + np.array([[0.0], [5.0], [10.0], [15.0]])
    assert ess(shifted) < 50
    assert math.isnan(ess(np.ones((2, 10))))


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, "cli.fit", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "b", 3.0, 6.0, 0, "r"),  # overlaps a: the union counts once
        Span(3, "a.child", 2.0, 3.0, 1, "r"),
        # Same ids in another run must not be mixed up with run "r".
        Span(0, "cli.report", 0.0, 2.0, None, "s"),
        Span(1, "b", 0.5, 1.0, 0, "s"),
    ]
    own = self_times(spans)
    assert own[("r", 0)] == pytest.approx(10.0 - 5.0)
    assert own[("r", 1)] == pytest.approx(3.0 - 1.0)
    assert own[("r", 2)] == pytest.approx(3.0)
    assert own[("r", 3)] == pytest.approx(1.0)
    assert own[("s", 0)] == pytest.approx(1.5)
    assert inclusive_seconds(spans, "b") == pytest.approx(3.5)


def test_tracer_links_parents_and_counts_recursion_once():
    tracer = Tracer("run")
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("inner"):
                pass
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    outer = by_name["outer"][0]
    assert outer.parent is None
    assert {s.parent for s in by_name["inner"]} == {outer.id, by_name["inner"][1].id}
    assert inclusive_seconds(tracer.spans, "inner") == pytest.approx(
        max(s.duration for s in by_name["inner"])
    )


def test_patches_restore_on_error():
    original = dataset.parse_ptb
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            patches.set(dataset, "parse_ptb", lambda *a, **k: None)
            assert dataset.parse_ptb is not original
            raise RuntimeError
    assert dataset.parse_ptb is original


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    make_demo_dataset(work, n_triples=8, n_workers=3, seed=5)
    return work


def _args(work, *extra):
    return [
        "--triples", str(work / "triples.jsonl"),
        "--judgments", str(work / "judgments.jsonl"),
        "--out", str(work / "out"),
        *extra,
    ]


def test_corrupted_features_csv_is_rejected(tiny):
    assert cli.main(["extract", *_args(tiny)]) == 0
    path = tiny / "out" / "features.csv"
    triples = dataset.load_triples(tiny / "triples.jsonl")
    sample = [(t.id, s) for t in triples for s in "ab"]
    assert checks.check_features(path, triples, sample) == []

    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    row = lines[2].split(",")
    j = header.index("ted1")
    row[j] = repr(float(row[j]) + 0.5)
    path.write_text("\n".join([*lines[:2], ",".join(row), *lines[3:]]) + "\n")
    assert any("ted1" in p for p in checks.check_features(path, triples, sample))

    row[j] = "nan"
    path.write_text("\n".join([*lines[:2], ",".join(row), *lines[3:]]) + "\n")
    assert checks.check_features(path, triples, sample)

    path.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_features(path, triples, sample)


def test_truncated_draws_csv_is_rejected(tmp_path):
    rng = np.random.default_rng(3)
    names = ("intercept", "x1")
    draws = PosteriorDraws(
        names=names,
        draws=rng.standard_normal((2, 10, 2)),
        logp=rng.standard_normal((2, 10)),
        accept_rate=np.array([0.8, 0.8]),
        divergences=0,
    )
    path = tmp_path / "draws.csv"
    inference.draws_to_csv(draws, path, "# header")
    got, problems = checks.read_draws(path, 2, 10, names)
    assert problems == [] and np.array_equal(got, draws.draws)

    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    assert checks.read_draws(path, 2, 10, names)[0] is None
    path.write_text("\n".join([*lines[:-1], lines[-1][: len(lines[-1]) // 2]]) + "\n")
    assert checks.read_draws(path, 2, 10, names)[0] is None
    path.unlink()
    assert checks.read_draws(path, 2, 10, names)[1]


def test_posterior_means_checked_against_newton_map():
    matrix = make_logit_matrix(400, [0.3, 1.0, -0.5], seed=2)
    spec = ModelSpec(predictors=matrix.columns)
    draws = sample_posterior(matrix, spec, SamplerConfig(chains=2, warmup=200, draws=200, seed=4))
    mode = checks.newton_map(matrix.X, matrix.y, 2.5)
    problems, ess_values = checks.check_against_map(draws.draws, draws.names, mode)
    assert problems == [] and ess_values.min() > 50
    shifted = draws.draws + np.array([0.0, 0.3, 0.0])
    problems, _ = checks.check_against_map(shifted, draws.names, mode)
    assert [p.split()[3] for p in problems] == ["x1"]


def test_traced_run_covers_every_layer_and_restores_wrappers(tiny, tmp_path):
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"sampler": {"warmup": 20, "draws": 20}}))
    for argv in (
        ["extract", *_args(tiny)],
        ["ablate", "--config", str(config), "--predictors", "grammar,split", *_args(tiny)],
    ):
        spans_path = tmp_path / "spans.json"
        assert traced.main([str(spans_path), *argv]) == 0
        record = json.loads(spans_path.read_text())
        assert record["missing"] == []
    assert dataset.parse_ptb is trees.parse_ptb
    assert inference.sample_posterior is sample_posterior
    assert record["counts"]["selection.fits"] == 3
    assert len(record["fits"]) == 3
    assert all(f["grad_evals"] > 0 for f in record["fits"])
