"""Judgment-study ingestion, descriptive tallies, featurization (over
``pool`` lanes), atomic artifact writing and the design matrix.

The inputs are two JSONL files: one triple record per source sentence
(with its two- and three-sentence simplifications and their parses), and
one judgment record per (triple, worker, question). The design matrix is
long format: every definite two-vs-three preference yields two rows, one
per simplification side, with a binary outcome marking the chosen side.

Everything up to the design matrix runs on the standard library, so
``extract`` and ``report`` never load numpy: it is imported inside
``DesignMatrix.from_arrays`` alone.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from . import cohesion, complexity, pool, readability
from .config import PREDICTORS, FeatureConfig, _is_number, check_unique_predictors
from .errors import (
    DegenerateInputWarning,
    FormatError,
    IntegrityError,
    SplitreadError,
    StandardizationError,
    ValidationError,
    read_text,
)
from .trees import DepGraph, ParseTree, parse_conllu, parse_ptb

if TYPE_CHECKING:
    import numpy as np

QUESTIONS = ("S_vs_A", "S_vs_B", "A_vs_B")
CHOICES = ("first", "second", "not_sure")
CATEGORIES = ("grammar", "meaning", "fluency")
ORIGINS = ("bart", "human")

CATEGORICAL_PREDICTORS = ("bart", "split")
# Predictors computed from the triple alone (everything but the per-worker
# perception scores).
SIDE_PREDICTORS = tuple(p for p in PREDICTORS if p not in CATEGORIES)
# Deepest parse tree that is featurized. `strip_token_leaves` and the Yngve
# and Frazier walks recurse once or more per level, so deeper trees would
# exhaust Python's default recursion limit of 1000. The limit also bounds
# the `subset` kernel, whose same-production node pairs grow with the
# square of a unary chain's depth: a chain's self-kernel takes 0.05 s at
# 200 levels and 0.94 s at 800 (2-core Xeon), and 5000 levels would hold
# about 25 million pairs.
MAX_TREE_DEPTH = 200


@dataclass(frozen=True)
class Simplification:
    trees: tuple[ParseTree, ...]
    origin: str
    graphs: tuple[DepGraph, ...] = ()
    samsa: float | None = None


@dataclass(frozen=True)
class Triple:
    """One source sentence: its id, its parse trees, and its two-sentence
    (``split_a``) and three-sentence (``split_b``) simplifications, each
    with its trees, origin, dependency graphs and SAMSA score. The
    records' ``text`` and the source's CoNLL-U are checked on reading but
    not kept: no predictor reads them."""

    id: str
    source_trees: tuple[ParseTree, ...]
    split_a: Simplification
    split_b: Simplification

    def side(self, which: str) -> Simplification:
        if which == "a":
            return self.split_a
        if which == "b":
            return self.split_b
        raise ValueError(f"unknown side {which!r}")


@dataclass(frozen=True)
class SideScores:
    grammar: int
    meaning: int
    fluency: int

    def __post_init__(self) -> None:
        for cat, value in zip(CATEGORIES, (self.grammar, self.meaning, self.fluency)):
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or not 1 <= value <= 5
            ):
                raise ValidationError(
                    f"{cat} score must be an integer in 1..5, got {value!r}"
                )


@dataclass(frozen=True)
class JudgmentRecord:
    triple_id: str
    worker_id: str
    question: str
    choice: str
    scores_a: SideScores
    scores_b: SideScores

    def __post_init__(self) -> None:
        if self.question not in QUESTIONS:
            raise ValidationError(f"unknown question {self.question!r}")
        if self.choice not in CHOICES:
            raise ValidationError(f"unknown choice {self.choice!r}")

    def scores(self, side: str) -> SideScores:
        if side == "a":
            return self.scores_a
        if side == "b":
            return self.scores_b
        raise ValueError(f"unknown side {side!r}")


def atomic_write(path: str | Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over
    ``path``: an interrupted write never leaves a truncated file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open(path, "w")
        # would. The umask can only be read by setting it.
        umask = os.umask(0o022)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_line(cells: Iterable) -> str:
    """A float cell, numpy's float64 included (a ``float`` subclass), is
    written as the shortest repr that reads back to the same bits; any
    other cell as its ``str``."""
    text = [repr(float(c)) if isinstance(c, float) else str(c) for c in cells]
    return ",".join(text)


def write_artifact(path: str | Path, header: str, lines: Iterable[str]) -> None:
    """Atomically write the run's config ``header`` line, then ``lines``."""
    atomic_write(path, "\n".join([header, *lines]) + "\n")


def _json_lines(path: str | Path) -> Iterable[tuple[int, dict]]:
    text = read_text(path)
    # Split on "\n" alone: JSON strings may hold a raw U+2028, U+2029 or
    # U+0085, which str.splitlines() would also break on. read_text has
    # already made every \r\n and lone \r a \n.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        # ValueError also covers an integer past Python's digit limit, and
        # RecursionError a line nested deeper than the decoder's stack.
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}:{lineno}: bad JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise FormatError(f"{path}:{lineno}: expected a JSON object")
        schema = obj.get("schema", 1)
        if type(schema) is not int or schema != 1:
            raise FormatError(
                f"{path}:{lineno}: unsupported schema {json.dumps(schema)}"
            )
        yield lineno, obj


@contextmanager
def _located(where: str):
    """Prefix a SplitreadError raised inside the block with ``where: ``;
    the error keeps its type and attributes (a ParseError its ``.offset``),
    and any other exception passes through."""
    try:
        yield
    except SplitreadError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValidationError(f"{where}: missing field {key!r}")
    return obj[key]


def _string(obj: dict, key: str, where: str) -> str:
    value = _require(obj, key, where)
    if type(value) is not str:
        raise ValidationError(
            f"{where}.{key}: expected a string, got {json.dumps(value)}"
        )
    return value


def _object(obj: dict, key: str, where: str, *, required: bool = True) -> dict:
    """The JSON object at ``obj[key]``; an optional one may be absent or null."""
    value = _require(obj, key, where) if required else obj.get(key)
    if value is None and not required:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{where}.{key}: expected a JSON object")
    return value


def _read_parses(
    obj: dict, name: str, where: str, conllu: dict, keep_punctuation: bool
) -> tuple[dict, tuple[ParseTree, ...], tuple[DepGraph, ...]]:
    """The record ``obj[name]`` (the source or a side), whose ``text`` is
    a string, the trees of its ``ptb`` strings and, when ``conllu[name]``
    is given, one dependency graph per tree."""
    record = _object(obj, name, where)
    _string(record, "text", f"{where}.{name}")
    ptb = _require(record, "ptb", f"{where}.{name}")
    if not isinstance(ptb, list) or not all(isinstance(s, str) for s in ptb):
        raise ValidationError(f"{where}.{name}: 'ptb' must be a list of strings")
    with _located(f"{where}.{name}.ptb"):
        trees = tuple(
            tree for s in ptb for tree in parse_ptb(s, keep_punctuation=keep_punctuation)
        )
    graphs: tuple[DepGraph, ...] = ()
    text = conllu.get(name)
    if text is not None and not isinstance(text, str):
        raise ValidationError(f"{where}.conllu.{name}: expected a string")
    if text:
        with _located(f"{where}.conllu.{name}"):
            graphs = tuple(parse_conllu(text))
        if len(graphs) != len(trees):
            raise ValidationError(
                f"{where}.{name}: {len(graphs)} dependency graphs for "
                f"{len(trees)} trees"
            )
    return record, trees, graphs


def load_triples(
    path: str | Path, *, keep_punctuation: bool = True
) -> list[Triple]:
    triples: list[Triple] = []
    seen: set[str] = set()
    for lineno, obj in _json_lines(path):
        where = f"{path}:{lineno}"
        # An id is written unquoted into a CSV cell, and a line that starts
        # with '#' reads as a header comment.
        triple_id = _require(obj, "id", where)
        if (
            type(triple_id) is not str
            or any(c in triple_id for c in ',"\n\r')
            or triple_id.startswith("#")
        ):
            raise ValidationError(
                f"{where}.id: expected a string without ',', '\"', '\\n' or "
                f"'\\r' that does not start with '#', got {json.dumps(triple_id)}"
            )
        if triple_id in seen:
            raise ValidationError(f"{where}: duplicate triple id {triple_id!r}")
        seen.add(triple_id)
        conllu = _object(obj, "conllu", where, required=False)
        precomputed = _object(obj, "precomputed", where, required=False)
        _, source_trees, _ = _read_parses(obj, "source", where, conllu, keep_punctuation)
        if not source_trees:
            raise ValidationError(f"{where}: source has no parse trees")
        sides = []
        for name, sentences in (("a", 2), ("b", 3)):
            record, trees, graphs = _read_parses(
                obj, name, where, conllu, keep_punctuation
            )
            at = f"{where}.{name}"
            if len(trees) != sentences:
                raise ValidationError(
                    f"{at}: expected {sentences} sentences, got {len(trees)}"
                )
            origin = _string(record, "origin", at) if name == "a" else "human"
            if origin not in ORIGINS:
                raise ValidationError(f"{at}: unknown origin {origin!r}")
            samsa = precomputed.get(f"samsa_{name}")
            if samsa is not None and not _is_number(samsa):
                raise ValidationError(
                    f"{where}.precomputed.samsa_{name}: expected a finite "
                    f"number or null, got {json.dumps(samsa)}"
                )
            sides.append(
                Simplification(
                    trees=trees,
                    origin=origin,
                    graphs=graphs,
                    samsa=None if samsa is None else float(samsa),
                )
            )
        triples.append(
            Triple(
                id=triple_id,
                source_trees=source_trees,
                split_a=sides[0],
                split_b=sides[1],
            )
        )
    return triples


# One SideScores for each valid (grammar, meaning, fluency), shared by
# every record that carries it.
_SIDE_SCORES = {
    key: SideScores(*key) for key in itertools.product(range(1, 6), repeat=3)
}


def _parse_scores(scores: dict, side: str, where: str) -> SideScores:
    """The shared SideScores of the score object ``scores[side]``; an
    invalid one raises its first error, located at ``where``."""
    obj = _object(scores, side, f"{where}.scores")
    key = (obj.get("grammar"), obj.get("meaning"), obj.get("fluency"))
    # True == 1 and 3.0 == 3, so only ints are looked up.
    if type(key[0]) is type(key[1]) is type(key[2]) is int and (
        found := _SIDE_SCORES.get(key)
    ):
        return found
    with _located(f"{where}.scores.{side}"):
        for cat in CATEGORIES:
            if cat not in obj:
                raise ValidationError(f"missing score {cat!r}")
        return SideScores(*key)


def load_judgments(
    path: str | Path, triple_ids: Collection[str]
) -> list[JudgmentRecord]:
    """The judgment records of ``path``, each naming one of ``triple_ids``.

    Each record is read once, field by field, in this order: the
    ``scores`` object, ``triple_id``, ``worker_id``, ``question`` and
    ``choice`` present, ``scores.a``, ``scores.b``, the question and
    choice values (checked by ``JudgmentRecord``), the triple. Each field
    goes through the helper that raises its located error, so the first
    error in that order is the one reported.

    A record that repeats an earlier one's (triple, worker, question) is
    kept and counted like any other; one DegenerateInputWarning per file,
    located at the first repeat, says how many there are."""
    records: list[JudgmentRecord] = []
    first_lines: dict[tuple[str, str, str], int] = {}
    repeats: list[tuple[int, int]] = []  # (line, the line it repeats)
    for lineno, obj in _json_lines(path):
        where = f"{path}:{lineno}"
        scores = _object(obj, "scores", where)
        triple_id = _string(obj, "triple_id", where)
        worker_id = _string(obj, "worker_id", where)
        question = _require(obj, "question", where)
        choice = _require(obj, "choice", where)
        a = _parse_scores(scores, "a", where)
        b = _parse_scores(scores, "b", where)
        with _located(where):  # an unknown question or choice
            judgment = JudgmentRecord(triple_id, worker_id, question, choice, a, b)
        if triple_id not in triple_ids:
            raise IntegrityError(f"{where}.triple_id: unknown triple {triple_id!r}")
        first = first_lines.setdefault((triple_id, worker_id, question), lineno)
        if first != lineno:
            repeats.append((lineno, first))
        records.append(judgment)
    if repeats:
        (lineno, first), n = repeats[0], len(repeats)
        warnings.warn(
            f"{path}:{lineno}: {n} repeated (triple, worker, question) "
            f"record{'s' if n > 1 else ''}, the first repeating line {first}; "
            "each is counted",
            DegenerateInputWarning,
            stacklevel=2,
        )
    return records


def ingest(
    judgments_path: str | Path,
    triples_path: str | Path,
    *,
    keep_punctuation: bool = True,
) -> tuple[list[Triple], list[JudgmentRecord]]:
    """Load both files; every judgment must name a loaded triple."""
    triples = load_triples(triples_path, keep_punctuation=keep_punctuation)
    return triples, load_judgments(judgments_path, {t.id for t in triples})


def tally(judgments: Sequence[JudgmentRecord], question: str) -> dict[str, int]:
    """Choice counts, in ``CHOICES`` order, for one comparison question."""
    if question not in QUESTIONS:
        raise ValidationError(f"unknown question {question!r}")
    counts = dict.fromkeys(CHOICES, 0)
    for j in judgments:
        if j.question == question:
            counts[j.choice] += 1
    return counts


@dataclass(frozen=True)
class GroupComparison:
    mean_a: float
    sd_a: float
    mean_b: float
    sd_b: float
    p_value: float


def quality_scores(
    judgments: Sequence[JudgmentRecord],
) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """Per-category score observations of side a and of side b.

    Each (triple, worker) pair contributes a single observation per
    category, from its first record in file order, no matter how many
    question records it produced.
    """
    first: dict[tuple[str, str], JudgmentRecord] = {}
    for j in judgments:
        first.setdefault((j.triple_id, j.worker_id), j)
    side_a, side_b = (
        {cat: [getattr(j.scores(side), cat) for j in first.values()]
         for cat in CATEGORIES}
        for side in ("a", "b")
    )
    return side_a, side_b


# B_2k / (2k (2k - 1)) for k = 1..6: the Stirling series of log Gamma,
# whose next term is below 1e-15 from a = 10 on.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a), for a > 0.

    From a = 10 on it is the difference of the two Stirling series, term by
    term, because lgamma(a + 1/2) - lgamma(a) cancels: it is off by 7e-13
    at a = 1000, and the p-value's exponent needs every bit of it.
    """
    if a < 10:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    series = sum(
        c * ((a + 0.5) ** (1 - 2 * k) - a ** (1 - 2 * k))
        for k, c in enumerate(_STIRLING, 1)
    )
    return 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + series


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """The r of I_x(a, b) = x^a y^b / B(a, b) * r, by its continued fraction.

    This is BFRAC of DiDonato & Morris (1992), ACM TOMS Algorithm 708:
    y = 1 - x and lam = (a + b) y - b >= 0 are passed in, not formed from x,
    so the fraction stays accurate to ~1e-15 where x is within 1e-7 of 1.
    It converges in under 200 terms for the Student t's a and b.
    """
    c = 1 + lam
    c0 = b / a
    c1 = 1 + 1 / a
    p = 1.0
    s = a + 1
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 1000):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * w * x
        e = (1 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * (1 + y))
        p = 1 + t
        s += 2
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= sys.float_info.epsilon * r:
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return r


def _t_pvalue(df: float, t: float) -> float:
    """Two-sided Student t p-value 2 P(T_df > |t|), from ``math`` alone.

    It is the regularized incomplete beta I_x(df/2, 1/2), x = df/(df + t^2).
    x and 1 - x are both formed from q = t^2/df, so neither is rounded from
    the other. As with scipy's stdtr, t = 0 gives 1, NaN gives NaN, and
    t = +-inf, or a t whose square overflows, gives 0.
    """
    q = t * t / df
    if not q > 0:
        return 1.0 if q == 0 else math.nan
    a = df / 2
    # x^a (1 - x)^(1/2) / B(a, 1/2), where
    # B(a, 1/2) = sqrt(pi) Gamma(a) / Gamma(a + 1/2).
    front = math.exp(
        _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
        - a * math.log1p(q) - 0.5 * math.log1p(1 / q)
    )
    x, y = 1 / (1 + q), 1 / (1 + 1 / q)
    lam = (a + 0.5) * y - 0.5
    if lam >= 0:
        return front * _beta_fraction(a, 0.5, x, y, lam)
    # I_x(a, b) = 1 - I_y(b, a), whose fraction converges here.
    return 1 - front * _beta_fraction(0.5, a, y, x, -lam)


def _mean_var(values: Sequence[float]) -> tuple[float, float]:
    """The mean and the ddof=1 variance of ``values``, each sum taken by
    ``math.fsum``: for integer scores the mean is exact, so it has the
    same bits as numpy's."""
    mean = math.fsum(values) / len(values)
    deviations = [x - mean for x in values]
    return mean, math.fsum(d * d for d in deviations) / (len(values) - 1)


def score_summary(
    group_a: Mapping[str, Sequence[float]],
    group_b: Mapping[str, Sequence[float]],
) -> dict[str, GroupComparison]:
    """Each score category's means and sds of both groups and the p-value
    of a two-sided Welch t-test; the t statistic itself is not kept.

    Welch (1947): t = (mean_a - mean_b) / sqrt(va/na + vb/nb) with ddof=1
    variances, Welch-Satterthwaite degrees of freedom, and p the two-sided
    Student t tail at df, computed by ``_t_pvalue``; everything is
    ``math``. For groups of finite numbers the values are scipy's
    ``ttest_ind(a, b, equal_var=False)``, p within 1e-12 relative.
    """
    out: dict[str, GroupComparison] = {}
    for cat in CATEGORIES:
        a, b = group_a[cat], group_b[cat]
        if len(a) < 2 or len(b) < 2:
            raise ValidationError(
                f"{cat}: need at least 2 observations per group for a t-test"
            )
        mean_a, var_a = _mean_var(a)
        mean_b, var_b = _mean_var(b)
        va, vb = var_a / len(a), var_b / len(b)
        diff = mean_a - mean_b
        if va + vb == 0:
            # Both groups constant: t = +-inf gives p = 0 and t = NaN gives
            # p = NaN whatever df is.
            t_stat = math.copysign(math.inf, diff) if diff else math.nan
            df = 1.0
        else:
            t_stat = diff / math.sqrt(va + vb)
            df = (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))
        out[cat] = GroupComparison(
            mean_a=mean_a,
            sd_a=math.sqrt(var_a),
            mean_b=mean_b,
            sd_b=math.sqrt(var_b),
            p_value=_t_pvalue(df, t_stat),
        )
    return out


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def side_features(
    triple: Triple, side: str, config: FeatureConfig, easy_words: frozenset[str]
) -> dict[str, float]:
    """The enabled side predictors of one (triple, side), with ``easy_words``
    the Dale-Chall easy-word list. They are computed in ``SIDE_PREDICTORS``
    order, the column order, so the first of them that fails gives the error."""
    simp = triple.side(side)
    src, trees = triple.source_trees, simp.trees
    with _located(f"triple {triple.id!r}, side {side}"):
        for where, group in (("source tree", src), ("tree", trees)):
            for i, tree in enumerate(group, 1):
                if (depth := tree.depth()) > MAX_TREE_DEPTH:
                    raise ValidationError(
                        f"{where} {i} is {depth} levels deep, "
                        f"over the limit of {MAX_TREE_DEPTH}"
                    )
        tokens = [t.tokens() for t in trees]
        # One text tally for the readability scores, made when the first needs it.
        stats = functools.cache(lambda: readability.text_stats(tokens, easy_words))

        def overlap() -> float:  # mean content-word overlap of adjacent sentences
            if len(tokens) < 2:
                msg = "overlap on a single sentence has no adjacent pairs; returning 0"
                warnings.warn(msg, DegenerateInputWarning, stacklevel=3)
                return 0.0
            return _mean(list(map(cohesion.overlap_coefficient, tokens, tokens[1:])))

        def dep_length() -> float:
            if not simp.graphs:
                raise ValidationError("dependency parses missing (dep_length enabled)")
            return _mean([complexity.dep_distance(g) for g in simp.graphs])

        def samsa() -> float:
            if simp.samsa is None:
                raise ValidationError("samsa value missing (samsa enabled)")
            return float(simp.samsa)

        sigma = config.kernel_sigma
        compute = {
            "bart": lambda: float(side == "a" and simp.origin == "bart"),
            "ted1": lambda: _mean([cohesion.ted1(s, trees) for s in src]),
            "ted2": lambda: cohesion.ted2(trees),
            "subset": lambda: cohesion.kernel_similarity(src, trees, "subset", sigma),
            "subtree": lambda: cohesion.kernel_similarity(src, trees, "subtree", sigma),
            "overlap": overlap,
            "frazier": lambda: _mean([complexity.frazier_score(t) for t in trees]),
            "yngve": lambda: _mean([complexity.yngve_score(t) for t in trees]),
            "dep_length": dep_length,
            "tnodes": lambda: _mean([complexity.tnodes(t) for t in trees]),
            "dale": lambda: readability.dale_chall(stats()),
            "ease": lambda: readability.flesch_reading_ease(stats()),
            "fk_grade": lambda: readability.fk_grade(stats()),
            "split": lambda: float(side == "a"),
            "samsa": samsa,
        }
        feats = {}  # a plain loop: this frame calls each entry, as stacklevel=3 needs
        for name in (p for p in SIDE_PREDICTORS if p in config.predictors):
            feats[name] = compute[name]()
        return feats


def _triple_sides(
    index: int, triples: Sequence[Triple], config: FeatureConfig, easy_words: frozenset
) -> list[dict[str, float]]:
    """The side a and side b features of ``triples[index]``."""
    # Both sides share the triple's tree preparations, released with it.
    with cohesion.preparation_scope():
        return [side_features(triples[index], s, config, easy_words) for s in ("a", "b")]


def extract_features(
    triples: Sequence[Triple], config: FeatureConfig | None = None
) -> tuple[list[str], list[list]]:
    """Per-(triple, side) feature table in a stable column order.

    The word list is read once, here. The triples, sorted by id, are then
    striped over ``pool.lanes`` processes with both sides of a triple in
    one lane, where they share the triple's tree preparations
    (``cohesion.preparation_scope``). The rows, and the error raised for
    the first failing triple and side, are those of one process
    featurizing the triples in turn.
    """
    config = config or FeatureConfig()
    easy_words = readability.load_easy_words(config.word_list)
    wanted = set(config.predictors)
    header = ["triple_id", "side", *(p for p in SIDE_PREDICTORS if p in wanted)]
    ordered = sorted(triples, key=lambda t: t.id)
    per_triple = pool.run(
        _triple_sides,
        len(ordered),
        (ordered, config, easy_words),
        "feature worker for sorted triples",
    )
    return header, [
        [triple.id, side, *feats.values()]
        for triple, sides in zip(ordered, per_triple)
        for side, feats in zip(("a", "b"), sides)
    ]


@dataclass
class DesignMatrix:
    columns: tuple[str, ...]
    X: np.ndarray  # standardized, shape (n, len(columns))
    y: np.ndarray  # binary outcome, shape (n,)
    meta: dict = field(default_factory=dict)  # unread; callers may pass meta={}

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def predictor_matrix(self, names: Sequence[str]) -> np.ndarray:
        idx = []
        for name in names:
            if name not in self.columns:
                raise ValidationError(f"no such column {name!r}")
            idx.append(self.columns.index(name))
        return self.X[:, idx]

    @classmethod
    def from_arrays(cls, columns: Sequence[str], X, y) -> "DesignMatrix":
        """Standardize every column to mean 0 and sd 1, except the 0/1
        columns named in CATEGORICAL_PREDICTORS, which stay as they are.
        ``X`` and ``y`` are anything ``np.asarray`` reads as floats."""
        import numpy as np

        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(columns):
            raise ValidationError("X shape does not match the column list")
        if y.shape != (X.shape[0],):
            raise ValidationError("y length does not match X")
        check_unique_predictors(columns)
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValidationError("y must be binary")
        if X.shape[0] == 0:
            raise ValidationError("X has no rows")
        Xs = X.copy()
        for j, name in enumerate(columns):
            col = X[:, j]
            if not np.all(np.isfinite(col)):
                raise ValidationError(f"column {name!r} has non-finite values")
            if name in CATEGORICAL_PREDICTORS:
                if not np.all(np.isin(col, (0.0, 1.0))):
                    raise ValidationError(
                        f"categorical column {name!r} must be 0/1 valued"
                    )
                continue
            # Finite values can still overflow the sum or the squares.
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(col.mean())
                sd = float(col.std())  # population standard deviation
            if not (math.isfinite(mean) and math.isfinite(sd)):
                raise StandardizationError(
                    f"column {name!r} is too large to standardize"
                )
            if col.min() == col.max():
                raise StandardizationError(
                    f"column {name!r} has zero variance and cannot be standardized"
                )
            if sd < math.sqrt(sys.float_info.min):  # the squares underflowed
                raise StandardizationError(
                    f"column {name!r} is too small to standardize"
                )
            Xs[:, j] = (col - mean) / sd
        return cls(columns=tuple(columns), X=Xs, y=y)


def build_design_matrix(
    triples: Sequence[Triple],
    judgments: Sequence[JudgmentRecord],
    config: FeatureConfig | None = None,
) -> DesignMatrix:
    """Assemble the standardized predictor matrix from the A-vs-B judgments.

    One row per (judgment, side): the side's features merged with that
    judgment's scores for it; the outcome is 1 on the chosen side's row
    and 0 on the other; 'split' marks the two-sentence side. "not_sure"
    responses are dropped.
    """
    config = config or FeatureConfig()
    # A stable sort: records of one (triple, worker) keep their file order.
    decided = sorted(
        (j for j in judgments if j.question == "A_vs_B" and j.choice != "not_sure"),
        key=lambda j: (j.triple_id, j.worker_id),
    )
    if not decided:
        raise ValidationError("no definite A_vs_B judgments to build a matrix from")

    by_id = {t.id: t for t in triples}
    referenced = {j.triple_id for j in decided}
    unknown = sorted(referenced - by_id.keys())
    if unknown:
        raise IntegrityError(f"judgment references unknown triple {unknown[0]!r}")
    # Only the referenced triples are featurized, each side once.
    header, rows = extract_features([by_id[i] for i in referenced], config)
    side_values = {(row[0], row[1]): dict(zip(header[2:], row[2:])) for row in rows}

    names = list(config.predictors)
    raw_rows: list[list[float]] = []
    outcomes: list[float] = []
    for j in decided:
        for side in ("a", "b"):
            feats = {**side_values[j.triple_id, side], **vars(j.scores(side))}
            raw_rows.append([feats[name] for name in names])
            outcomes.append(1.0 if (side == "a") == (j.choice == "first") else 0.0)

    return DesignMatrix.from_arrays(names, raw_rows, outcomes)
