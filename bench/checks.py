"""Output checks for the benchmark. Each check returns a list of
problems; an empty list means the artifact passed.

What counts as a failed command: a nonzero exit, a missing artifact,
wrong row counts or non-finite values, artifact bytes that differ from
the first run of the same seed and config, feature values that disagree
with a recomputation through the public per-predictor functions, and
posterior means further than ``MAX_MAP_Z`` Monte-Carlo standard errors
from the Newton MAP of the same design matrix.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit

from splitread import cohesion, complexity, readability
from splitread.dataset import SIDE_PREDICTORS, Triple

from ess import ess_per_column

# The posterior of a logistic model with ~3000 rows is close to normal,
# so its mean and mode agree to well within Monte-Carlo error; 5 MCSE
# leaves room for the worst of 18 coefficients.
MAX_MAP_Z = 5.0
FEATURE_RTOL = 1e-9


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a splitread CSV artifact; '#' lines skipped."""
    lines = [
        ln for ln in path.read_text("utf-8").splitlines() if ln and not ln.startswith("#")
    ]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _floats(cells: Sequence[str]) -> list[float] | None:
    try:
        values = [float(c) for c in cells]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def missing(paths: Sequence[Path]) -> list[str]:
    return [f"missing artifact {p.name}" for p in paths if not p.is_file()]


def recompute_side(triple: Triple, side: str, easy_words: frozenset[str]) -> dict[str, float]:
    """Side predictors of one (triple, side), assembled independently of
    ``dataset.FeatureExtractor`` from the public per-predictor functions
    with the default feature settings."""
    simp = triple.side(side)
    trees = simp.trees
    teds = [cohesion.ted1(src, trees) for src in triple.source_trees]
    overlaps = [
        cohesion.overlap_coefficient(trees[i].tokens(), trees[i + 1].tokens())
        for i in range(len(trees) - 1)
    ]
    stats = readability.text_stats([t.tokens() for t in trees], easy_words)
    return {
        "bart": 1.0 if (side == "a" and simp.origin == "bart") else 0.0,
        "ted1": sum(teds) / len(teds),
        "ted2": cohesion.ted2(trees),
        "subset": cohesion.kernel_similarity(triple.source_trees, trees, "subset", 1.0),
        "subtree": cohesion.kernel_similarity(triple.source_trees, trees, "subtree", 1.0),
        "overlap": sum(overlaps) / len(overlaps),
        "frazier": float(np.mean([complexity.frazier_score(t) for t in trees])),
        "yngve": float(np.mean([complexity.yngve_score(t) for t in trees])),
        "dep_length": float(np.mean([complexity.dep_distance(g) for g in simp.graphs])),
        "tnodes": float(np.mean([complexity.tnodes(t) for t in trees])),
        "dale": readability.dale_chall(stats),
        "ease": readability.flesch_reading_ease(stats),
        "fk_grade": readability.fk_grade(stats),
        "split": 1.0 if side == "a" else 0.0,
        "samsa": float(simp.samsa),
    }


def check_features(
    path: Path, triples: Sequence[Triple], sample: Sequence[tuple[str, str]]
) -> list[str]:
    """Shape and finiteness of features.csv, plus the listed
    (triple id, side) rows against ``recompute_side``."""
    if not path.is_file():
        return [f"missing artifact {path.name}"]
    header, rows = read_csv(path)
    if header[:2] != ["triple_id", "side"] or sorted(header[2:]) != sorted(SIDE_PREDICTORS):
        return [f"features.csv header is {header}"]
    expected_keys = {(t.id, s) for t in triples for s in ("a", "b")}
    keys = [(r[0], r[1]) for r in rows]
    if len(rows) != len(expected_keys) or set(keys) != expected_keys:
        return [f"features.csv has {len(rows)} rows, expected {len(expected_keys)}"]
    table = {}
    for row in rows:
        values = _floats(row[2:]) if len(row) == len(header) else None
        if values is None:
            return [f"features.csv row {row[:2]} is short or non-finite"]
        table[(row[0], row[1])] = dict(zip(header[2:], values))
    by_id = {t.id: t for t in triples}
    easy_words = readability.load_easy_words(None)
    problems = []
    for triple_id, side in sample:
        want = recompute_side(by_id[triple_id], side, easy_words)
        got = table[(triple_id, side)]
        for name, value in want.items():
            if not math.isclose(got[name], value, rel_tol=FEATURE_RTOL, abs_tol=1e-12):
                problems.append(
                    f"features.csv {triple_id}/{side} {name}={got[name]!r}, "
                    f"recomputed {value!r}"
                )
    return problems


def read_draws(
    path: Path, chains: int, draws: int, names: Sequence[str]
) -> tuple[np.ndarray | None, list[str]]:
    """The (chains, draws, coefficients) array of draws.csv, or None with
    the reasons it is malformed."""
    if not path.is_file():
        return None, [f"missing artifact {path.name}"]
    header, rows = read_csv(path)
    if header != ["chain", "draw", *names, "lp"]:
        return None, [f"draws.csv header is {header}"]
    if len(rows) != chains * draws:
        return None, [f"draws.csv has {len(rows)} rows, expected {chains * draws}"]
    values = [_floats(r) if len(r) == len(header) else None for r in rows]
    if any(v is None for v in values):
        return None, ["draws.csv has short or non-finite rows"]
    table = np.array(values)
    index = table[:, 0] * draws + table[:, 1]
    if not np.array_equal(index, np.arange(chains * draws)):
        return None, ["draws.csv rows are not in (chain, draw) order"]
    return table[:, 2:-1].reshape(chains, draws, len(names)), []


def check_table(path: Path, first_cells: Sequence[str], n_numeric: int) -> list[str]:
    """A CSV whose first column holds exactly ``first_cells`` (in any
    order), each followed by ``n_numeric`` finite numbers."""
    if not path.is_file():
        return [f"missing artifact {path.name}"]
    header, rows = read_csv(path)
    if sorted(r[0] for r in rows) != sorted(first_cells):
        return [f"{path.name} has {len(rows)} rows, expected {len(first_cells)}"]
    for r in rows:
        if len(r) != len(header) or _floats(r[1 : 1 + n_numeric]) is None:
            return [f"{path.name} row {r[0]} is short or non-finite"]
    return []


def check_report(path: Path, sections: int) -> list[str]:
    if not path.is_file():
        return [f"missing artifact {path.name}"]
    text = path.read_text("utf-8")
    found = sum(1 for ln in text.splitlines() if ln.startswith("## "))
    if found != sections or "omitted" in text:
        return [f"report.txt has {found} sections, expected {sections} with data"]
    return []


def newton_map(X: np.ndarray, y: np.ndarray, prior_sd: float) -> np.ndarray:
    """Posterior mode of the Bernoulli-logit model with independent
    Normal(0, prior_sd) priors, intercept first."""
    A = np.column_stack([np.ones(len(y)), X])
    precision = np.full(A.shape[1], prior_sd**-2)
    beta = np.zeros(A.shape[1])
    for _ in range(100):
        p = expit(A @ beta)
        grad = A.T @ (y - p) - precision * beta
        hess = (A * (p * (1.0 - p))[:, None]).T @ A + np.diag(precision)
        step = np.linalg.solve(hess, grad)
        beta += step
        if np.max(np.abs(step)) < 1e-12:
            break
    return beta


def check_against_map(
    draws: np.ndarray, names: Sequence[str], mode: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Posterior means within ``MAX_MAP_Z`` Monte-Carlo standard errors
    (sd / sqrt(ESS)) of the mode. Returns problems and per-coefficient ESS."""
    ess = ess_per_column(draws)
    pooled = draws.reshape(-1, draws.shape[2])
    mcse = pooled.std(axis=0, ddof=1) / np.sqrt(ess)
    z = np.abs(pooled.mean(axis=0) - mode) / mcse
    problems = [
        f"posterior mean of {n} is {zj:.1f} MCSE from the MAP"
        for n, zj in zip(names, z)
        if not zj <= MAX_MAP_Z
    ]
    return problems, ess
