from __future__ import annotations

import copy
import json
import math
import os
import random
import re
import signal
import sys
import warnings
from collections import Counter, defaultdict, deque
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from helpers import pin_lanes, reference_checked_judgment, reference_score_summary
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtr

from splitread import cohesion, complexity, dataset, readability
from splitread.dataset import (
    CATEGORICAL_PREDICTORS,
    CATEGORIES,
    MAX_TREE_DEPTH,
    PREDICTORS,
    SIDE_PREDICTORS,
    DesignMatrix,
    FeatureConfig,
    JudgmentRecord,
    SideScores,
    Simplification,
    Triple,
    atomic_write,
    build_design_matrix,
    extract_features,
    ingest,
    load_judgments,
    load_triples,
    quality_scores,
    score_summary,
    side_features,
    tally,
)
from splitread.errors import (
    DegenerateInputWarning,
    FormatError,
    IntegrityError,
    ParseError,
    SplitreadError,
    StandardizationError,
    ValidationError,
)
from splitread.synth import make_demo_dataset
from splitread.trees import ParseTree, parse_ptb

# The bundled Dale easy-word list, as extract_features reads it by default.
DALE = readability.load_easy_words()


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    triples_path, judgments_path = make_demo_dataset(
        out, n_triples=8, n_workers=3, seed=5
    )
    triples, judgments = ingest(judgments_path, triples_path)
    return triples, judgments, triples_path, judgments_path


# The warning of a judgments file that repeats a (triple, worker, question).
_REPEATED = r"repeated \(triple, worker, question\) record"


def _judgment_line(triple_id="t0000", question="A_vs_B", choice="first", score=4):
    return json.dumps(
        {
            "triple_id": triple_id,
            "worker_id": "w0",
            "question": question,
            "choice": choice,
            "scores": {
                "a": {"grammar": score, "meaning": score, "fluency": score},
                "b": {"grammar": score, "meaning": score, "fluency": score},
            },
        }
    )


class TestIngest:
    def test_counts_and_integrity(self, loaded):
        triples, judgments, *_ = loaded
        assert len(triples) == 8
        # 3 questions x 3 workers per triple
        assert len(judgments) == 8 * 3 * 3

    def test_sides_have_fixed_sentence_counts(self, loaded):
        triples, *_ = loaded
        for t in triples:
            assert len(t.split_a.trees) == 2
            assert len(t.split_b.trees) == 3

    def test_unknown_triple_rejected(self, loaded, tmp_path):
        *_, triples_path, _ = loaded[0], loaded[1], loaded[2], loaded[3]
        triples_path = loaded[2]
        bad = tmp_path / "judgments.jsonl"
        bad.write_text(_judgment_line(triple_id="missing") + "\n", encoding="utf-8")
        with pytest.raises(IntegrityError):
            ingest(bad, triples_path)

    def test_first_error_in_file_order_wins(self, loaded, tmp_path):
        # The reference is checked as each record is read, not after the
        # whole file, so an unknown triple on line 1 beats a bad line 2.
        bad = tmp_path / "judgments.jsonl"
        lines = [_judgment_line(triple_id="t9"), _judgment_line(choice="firts")]
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IntegrityError) as info:
            ingest(bad, loaded[2])
        assert str(info.value) == f"{bad}:1.triple_id: unknown triple 't9'"

    def test_repeated_records_warned_and_counted(self, loaded, tmp_path):
        # One triple's A_vs_B record twice, a second worker's once, and
        # another question of the first worker: two repeats of line 1.
        lines = [
            _judgment_line(),
            _judgment_line(question="S_vs_A"),
            _judgment_line(),
            _judgment_line().replace('"w0"', '"w1"'),
            _judgment_line(choice="second"),
        ]
        path = tmp_path / "judgments.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(DegenerateInputWarning) as caught:
            judgments = load_judgments(path, {"t0000"})
        assert [str(w.message) for w in caught] == [
            f"{path}:3: 2 repeated (triple, worker, question) records, the first "
            "repeating line 1; each is counted"
        ]
        assert tally(judgments, "A_vs_B") == {"first": 3, "second": 1, "not_sure": 0}

    def test_empty_judgments_file(self, loaded, tmp_path):
        triples_path = loaded[2]
        empty = tmp_path / "judgments.jsonl"
        empty.write_text("", encoding="utf-8")
        triples, judgments = ingest(empty, triples_path)
        assert judgments == []
        assert len(triples) == 8

    def test_record_walk_matches_reference_twin(self, tmp_path):
        # load_judgments reads each record in one walk: random edits of a
        # valid record give the record, or the first error, that the
        # reference twin's full check gives.
        rng = random.Random(11)
        values = [True, False, 0, 1, 3, 3.0, 5, 6, 2**70, "x", "t0000", "t9",
                  "S_vs_B", "not_sure", None, [], {}, {"grammar": 4}]
        fields = [("triple_id",), ("worker_id",), ("question",), ("choice",),
                  ("scores",), ("scores", "a"), ("scores", "b"),
                  *((("scores", side, cat) for side in "ab" for cat in CATEGORIES))]
        path = tmp_path / "judgments.jsonl"
        kinds = Counter()
        for _ in range(3000):
            obj = json.loads(_judgment_line(score=rng.randint(1, 5)))
            for _ in range(rng.choice((0, 1, 1, 2))):
                *parents, key = rng.choice(fields)
                record = obj
                for name in parents:
                    record = record.get(name) if isinstance(record, dict) else None
                if isinstance(record, dict):
                    if rng.random() < 0.2:
                        record.pop(key, None)
                    else:
                        record[key] = rng.choice(values)
            path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
            outcomes = []
            for read in (
                lambda: load_judgments(path, {"t0000"}),
                lambda: [reference_checked_judgment(obj, f"{path}:1", {"t0000"})],
            ):
                try:
                    outcomes.append(read())
                except (ValidationError, IntegrityError) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], obj
            kinds[type(outcomes[0])] += 1
        assert min(kinds[list], kinds[tuple]) > 500

    def test_paper_study_matches_reference_twin(self, tmp_path):
        # Every record of the paper-scale study reads as the twin reads
        # it, and carries the one shared SideScores of its scores.
        _, judgments_path = make_demo_dataset(
            tmp_path, n_triples=221, n_workers=7, seed=3
        )
        ids = {f"t{i:04d}" for i in range(221)}
        lines = judgments_path.read_text(encoding="utf-8").splitlines()
        expected = [
            reference_checked_judgment(json.loads(line), "", ids) for line in lines
        ]
        judgments = load_judgments(judgments_path, ids)
        assert len(judgments) == len(lines) == 4641
        assert judgments == expected
        for judgment in judgments:
            for side in (judgment.scores_a, judgment.scores_b):
                assert side is dataset._SIDE_SCORES[astuple(side)]

    def test_malformed_score_rejected(self, tmp_path, loaded):
        triples_path = loaded[2]
        bad = tmp_path / "judgments.jsonl"
        bad.write_text(_judgment_line(score=9) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_judgments(bad, {"t0000"})

    def test_bad_json_rejected(self, tmp_path):
        bad = tmp_path / "triples.jsonl"
        bad.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_triples(bad)
        # Nested deeper than the JSON decoder's recursion limit.
        deep = '{"id": "x", "n": ' + "[" * 100000 + "]" * 100000 + "}"
        bad.write_text(deep + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="triples.jsonl:1: bad JSON"):
            load_triples(bad)
        judgments = tmp_path / "judgments.jsonl"
        judgments.write_text(_judgment_line() + "\n" + deep + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="judgments.jsonl:2: bad JSON"):
            load_judgments(judgments, {"t0000"})

    def test_integer_past_digit_limit_rejected(self, tmp_path):
        bad = tmp_path / "triples.jsonl"
        bad.write_text('{"id": ' + "1" * 5000 + "}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="triples.jsonl:1: bad JSON"):
            load_triples(bad)

    def test_unicode_line_separators_inside_strings(self, tmp_path):
        # JSON allows U+2028, U+2029 and U+0085 raw inside strings; only
        # "\n" ends a record.
        record = {
            "id": "t\u2028\u00850",
            "source": {"text": "x\u2028y\u0085z", "ptb": ["(S (NN x))"]},
            "a": {"text": "x\u2029", "ptb": ["(S (NN x)) (S (NN y))"], "origin": "bart"},
            "b": {"text": "x", "ptb": ["(S (NN x)) (S (NN y)) (S (NN z))"]},
        }
        triples = tmp_path / "triples.jsonl"
        text = json.dumps(record, ensure_ascii=False) + "\n"
        assert "\u2028" in text and "\u0085" in text
        triples.write_text(text, encoding="utf-8")
        (triple,) = load_triples(triples)
        assert triple.id == "t\u2028\u00850"
        line = json.loads(_judgment_line(triple_id="t\u2028\u00850"))
        line["worker_id"] = "w\u0085\u2029"
        judgments = tmp_path / "judgments.jsonl"
        judgments.write_text(json.dumps(line, ensure_ascii=False) + "\n", encoding="utf-8")
        _, (judgment,) = ingest(judgments, triples)
        assert judgment.worker_id == "w\u0085\u2029"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_bad_later_line_keeps_its_number(self, tmp_path, newline):
        good = json.loads(_judgment_line())
        good["worker_id"] = "w\u2028\u0085"
        lines = [json.dumps(good, ensure_ascii=False)] * 2 + ["{not json}"]
        path = tmp_path / "judgments.jsonl"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        with pytest.raises(FormatError, match="judgments.jsonl:3: bad JSON"):
            load_judgments(path, {"t0000"})
        path.write_bytes((newline.join(lines[:2]) + newline).encode("utf-8"))
        # The second record repeats the first, and the warning names its line.
        with pytest.warns(DegenerateInputWarning, match=r"judgments.jsonl:2: 1 repeated"):
            judgments = load_judgments(path, {"t0000"})
        assert [j.worker_id for j in judgments] == ["w\u2028\u0085"] * 2

    def test_unknown_schema_rejected(self, tmp_path):
        # The schema is the JSON integer 1; true and 1.0 compare equal to
        # it in Python but are other JSON values.
        loaders = {
            "triples.jsonl": load_triples,
            "judgments.jsonl": lambda path: load_judgments(path, {"t0000"}),
        }
        for value in ("2", "true", "1.0", '"1"', "null"):
            for name, load in loaders.items():
                bad = tmp_path / name
                bad.write_text(f'{{"schema": {value}}}\n', encoding="utf-8")
                with pytest.raises(FormatError) as info:
                    load(bad)
                assert str(info.value) == f"{bad}:1: unsupported schema {value}"

    def test_unbalanced_side_tree_keeps_parse_error_and_offset(self, tmp_path):
        record = {
            "id": "t0",
            "source": {"text": "x", "ptb": ["(S (NN x))"]},
            "a": {"text": "x", "ptb": ["(S (NN x)) (S (NN y)"], "origin": "human"},
            "b": {"text": "x", "ptb": ["(S (NN x)) (S (NN y)) (S (NN z))"]},
        }
        path = tmp_path / "triples.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_triples(path)
        assert info.value.offset == 20
        assert str(info.value) == (
            f"{path}:1.a.ptb: unbalanced brackets (byte offset 20)"
        )

    def test_wrong_sentence_count_rejected(self, tmp_path):
        record = {
            "id": "t0",
            "source": {"text": "x", "ptb": ["(S (NN x))"]},
            "a": {"text": "x", "ptb": ["(S (NN x))"], "origin": "human"},
            "b": {"text": "x", "ptb": ["(S (NN x))"] * 3},
        }
        path = tmp_path / "triples.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_triples(path)

    def test_optional_fields_may_be_null_and_samsa_an_integer(self, tmp_path):
        record = {
            "id": "t0",
            "source": {"text": "x", "ptb": ["(S (NN x))"]},
            "a": {"text": "x", "ptb": ["(S (NN x)) (S (NN y))"], "origin": "bart"},
            "b": {"text": "x", "ptb": ["(S (NN x)) (S (NN y)) (S (NN z))"]},
            "conllu": None,
            "precomputed": {"samsa_a": 1, "samsa_b": None},
        }
        path = tmp_path / "triples.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        (triple,) = load_triples(path)
        assert triple.split_a.samsa == 1.0 and type(triple.split_a.samsa) is float
        assert triple.split_b.samsa is None
        assert triple.split_a.graphs == triple.split_b.graphs == ()
        record["precomputed"] = None
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        (triple,) = load_triples(path)
        assert triple.split_a.samsa is None

    def test_source_gets_one_graph_per_tree(self, loaded, tmp_path):
        # The source's graphs are not kept, but they are counted against
        # its trees.
        *_, triples_path, _ = loaded
        record = json.loads(triples_path.read_text("utf-8").splitlines()[0])
        block = record["conllu"]["source"]
        record["conllu"]["source"] = block + "\n" + block
        path = tmp_path / "triples.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_triples(path)
        assert str(info.value) == f"{path}:1.source: 2 dependency graphs for 1 trees"

    def test_scores_of_unknown_side_rejected(self, loaded):
        _, judgments, *_ = loaded
        judgment = judgments[0]
        assert judgment.scores("a") is judgment.scores_a
        assert judgment.scores("b") is judgment.scores_b
        for side in ("A", "B", "", "source"):
            with pytest.raises(ValueError, match=f"^unknown side {side!r}$"):
                judgment.scores(side)

    def test_full_scale_judgment_count(self, tmp_path):
        # 221 triples x 7 workers: 1,547 two-vs-three comparisons and one
        # feature row per (triple, side).
        triples_path, judgments_path = make_demo_dataset(
            tmp_path, n_triples=221, n_workers=7, seed=3, bart_fraction=113 / 221
        )
        judgments = load_judgments(
            judgments_path, {t.id for t in load_triples(triples_path)}
        )
        ab = [j for j in judgments if j.question == "A_vs_B"]
        assert len(ab) == 1547
        _, rows = extract_features(load_triples(triples_path))
        assert len(rows) == 442


class TestTally:
    def test_reproduces_published_row_shape(self):
        # Counts engineered to match the released-data tally layout.
        judgments = []
        for choice, count in (("first", 254), ("second", 527), ("not_sure", 10)):
            for i in range(count):
                judgments.append(
                    json.loads(_judgment_line(choice=choice))
                )
        records = [
            load_judgments_obj(obj) for obj in judgments
        ]
        counts = tally(records, "A_vs_B")
        assert counts == {"first": 254, "second": 527, "not_sure": 10}
        assert list(counts) == ["first", "second", "not_sure"]

    def test_single_choice(self):
        records = [load_judgments_obj(json.loads(_judgment_line())) for _ in range(5)]
        assert tally(records, "A_vs_B") == {"first": 5, "second": 0, "not_sure": 0}
        assert tally(records, "S_vs_A") == {"first": 0, "second": 0, "not_sure": 0}

    def test_counts_sum_to_question_records(self, loaded):
        _, judgments, *_ = loaded
        for question in ("S_vs_A", "S_vs_B", "A_vs_B"):
            counts = tally(judgments, question)
            assert sum(counts.values()) == sum(
                j.question == question for j in judgments
            )

    def test_no_judgments_give_zero_counts(self):
        assert tally([], "A_vs_B") == {"first": 0, "second": 0, "not_sure": 0}

    def test_unknown_question_rejected(self):
        with pytest.raises(ValidationError, match="unknown question"):
            tally([], "A_vs_C")


def load_judgments_obj(obj):
    from splitread.dataset import JudgmentRecord, SideScores

    return JudgmentRecord(
        triple_id=obj["triple_id"],
        worker_id=obj["worker_id"],
        question=obj["question"],
        choice=obj["choice"],
        scores_a=SideScores(**obj["scores"]["a"]),
        scores_b=SideScores(**obj["scores"]["b"]),
    )


def _all_categories(scores):
    return {cat: scores for cat in CATEGORIES}


class TestScoreSummary:
    def test_identical_groups(self):
        group = {"grammar": [3, 4, 5], "meaning": [3, 4, 5], "fluency": [3, 4, 5]}
        result = score_summary(group, group)
        for cat in result:
            assert result[cat].p_value == pytest.approx(1.0)

    def test_shifted_groups_hand_value(self):
        a = {"grammar": [1, 2, 3], "meaning": [1, 2, 3], "fluency": [1, 2, 3]}
        b = {"grammar": [2, 3, 4], "meaning": [2, 3, 4], "fluency": [2, 3, 4]}
        result = score_summary(a, b)
        c = result["fluency"]
        assert c.mean_b - c.mean_a == pytest.approx(1.0)
        assert 0.2 < c.p_value < 0.4

    def test_small_group_rejected(self):
        a = {"grammar": [1], "meaning": [1], "fluency": [1]}
        with pytest.raises(ValidationError):
            score_summary(a, a)

    def test_matches_scipy_welch_test(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            groups = [
                {cat: rng.integers(1, 6, size=rng.integers(2, 801)).tolist()
                 for cat in CATEGORIES}
                for _ in range(2)
            ]
            result = score_summary(*groups)
            for cat, c in result.items():
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    ref = stats.ttest_ind(
                        groups[0][cat], groups[1][cat], equal_var=False
                    )
                assert c.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0)

    def test_one_constant_group_matches_scipy(self):
        a, b = [3, 3, 3, 3], [4, 5, 5, 5]
        c = score_summary(_all_categories(a), _all_categories(b))["grammar"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = stats.ttest_ind(a, b, equal_var=False)
        assert c.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    @pytest.mark.parametrize(
        "a, b, p_value",
        [
            ([3, 3, 3], [3, 3], np.nan),
            ([3, 3, 3], [4, 4], 0.0),
            ([5, 5], [2, 2, 2], 0.0),
        ],
        ids=["equal-means", "below", "above"],
    )
    def test_both_groups_constant(self, a, b, p_value):
        # scipy's values: df is 0/0 here, yet p is still 0 for t = +-inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = score_summary(_all_categories(a), _all_categories(b))
        for c in result.values():
            np.testing.assert_equal(c.p_value, p_value)

    # Integer scores, and floats on a 1/1024 grid, whose sums are exact in
    # any order: the two versions differ only in summing the squared
    # deviations.
    _SCORES = st.one_of(
        st.lists(st.integers(1, 5), min_size=2, max_size=60),
        st.lists(
            st.integers(-(2**20), 2**20).map(lambda k: k / 1024),
            min_size=2,
            max_size=60,
        ),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SCORES, min_size=6, max_size=6))
    def test_matches_numpy_reference(self, groups):
        group_a = dict(zip(CATEGORIES, groups[:3]))
        group_b = dict(zip(CATEGORIES, groups[3:]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = reference_score_summary(group_a, group_b)
        got = score_summary(group_a, group_b)
        for cat in CATEGORIES:
            g, w = got[cat], want[cat]
            assert (g.mean_a, g.mean_b) == (w.mean_a, w.mean_b)
            for x, y in ((g.sd_a, w.sd_a), (g.sd_b, w.sd_b)):
                assert abs(x - y) <= 4 * math.ulp(y)
            if w.p_value == 0 or math.isnan(w.p_value):
                np.testing.assert_equal(g.p_value, w.p_value)
            else:
                # p amplifies t's last bits by up to df + 1.
                assert g.p_value == pytest.approx(w.p_value, rel=1e-12, abs=0)

    def test_quality_scores_dedupe_by_worker_and_triple(self, loaded):
        _, judgments, *_ = loaded
        side_a, side_b = quality_scores(judgments)
        # One observation per (triple, worker) even with 3 question records,
        # taken from the pair's first record in file order.
        first = {}
        for j in judgments:
            first.setdefault((j.triple_id, j.worker_id), j)
        assert len(first) == 8 * 3
        for cat in CATEGORIES:
            assert side_a[cat] == [getattr(j.scores_a, cat) for j in first.values()]
            assert side_b[cat] == [getattr(j.scores_b, cat) for j in first.values()]

    def test_quality_scores_keep_first_record(self):
        # Two records of one (triple, worker): only the first one's scores count.
        lines = [_judgment_line(score=2), _judgment_line(question="S_vs_A", score=5)]
        records = [load_judgments_obj(json.loads(line)) for line in lines]
        side_a, side_b = quality_scores(records)
        assert side_a == side_b == {cat: [2] for cat in CATEGORIES}


class TestTPValue:
    """The math-only Student t p-value against scipy.special.stdtr, and its
    log-gamma ratio against exact values."""

    def test_grid_matches_stdtr(self):
        # Below the smallest normal double both lose bits, and stdtr flushes
        # to 0 near 1e-310, so there p is compared within that double.
        for df in np.geomspace(1, 1e7, 64):
            for t in np.exp(np.linspace(-10, 4, 57)):
                ref = 2 * stdtr(df, -t)
                for signed in (t, -t):
                    assert dataset._t_pvalue(float(df), float(signed)) == pytest.approx(
                        ref, rel=1e-12, abs=sys.float_info.min
                    ), (df, signed)

    @pytest.mark.parametrize(
        "df, t",
        [(1.5, 1e140), (2.0, 1e101), (3.0, 1e70), (10.0, 1e21), (30.0, 3e7),
         (333.3, 100.0), (1000.0, 45.0), (1e4, 31.0)],
    )
    def test_far_tail_matches_stdtr(self, df, t):
        ref = 2 * stdtr(df, -t)
        assert sys.float_info.min < ref < 1e-200
        assert dataset._t_pvalue(df, t) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("df", [1.0, 2.5, 1e4])
    def test_exact_cases(self, df):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dataset._t_pvalue(df, 0.0) == 1.0
            assert dataset._t_pvalue(df, -0.0) == 1.0
            assert dataset._t_pvalue(df, math.inf) == 0.0
            assert dataset._t_pvalue(df, -math.inf) == 0.0
            assert math.isnan(dataset._t_pvalue(df, math.nan))

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 20, 100, 1000])
    def test_log_gamma_ratio_exact(self, n):
        # Gamma(n + 1/2) / Gamma(n) = sqrt(pi) (2n)! / (4^n n! (n - 1)!) and
        # Gamma(n + 1) / Gamma(n + 1/2) = 4^n n!^2 / (sqrt(pi) (2n)!), both
        # exact rationals times sqrt(pi). Below a = 10 the ratio is lgamma's
        # difference, good to two ulp of lgamma(10) ~ 12.8; from there on the
        # series is good to ~1e-15, where lgamma's is off by 7e-13 at 1000.
        f = math.factorial
        log_sqrt_pi = 0.5 * math.log(math.pi)
        whole = math.log(Fraction(f(2 * n), 4**n * f(n) * f(n - 1))) + log_sqrt_pi
        half = math.log(Fraction(4**n * f(n) ** 2, f(2 * n))) - log_sqrt_pi
        assert dataset._log_gamma_ratio(n) == pytest.approx(whole, rel=0, abs=4e-15)
        assert dataset._log_gamma_ratio(n + 0.5) == pytest.approx(
            half, rel=0, abs=4e-15
        )

    @pytest.mark.parametrize("a", [9.75, 9.999, 10.0, 10.001, 10.25, 12.7])
    def test_log_gamma_ratio_matches_lgamma_at_switch(self, a):
        # The Stirling series starts at a = 10; near there lgamma's
        # difference is good to a few ulp of lgamma(10.5) ~ 13.9.
        ref = math.lgamma(a + 0.5) - math.lgamma(a)
        assert dataset._log_gamma_ratio(a) == pytest.approx(ref, rel=0, abs=1e-14)


class TestAtomicWrite:
    def test_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "out" / "report.txt"
        old = os.umask(0o022)
        try:
            atomic_write(path, "first\n")
            assert path.stat().st_mode & 0o777 == 0o644
            atomic_write(path, "second\n")
        finally:
            os.umask(old)
        # The replacement is the renamed temp file, without its 0600.
        assert path.stat().st_mode & 0o777 == 0o644
        assert path.read_text() == "second\n"
        assert [p.name for p in path.parent.iterdir()] == ["report.txt"]


class TestLocated:
    def test_nested_blocks_prefix_outermost_first(self):
        with pytest.raises(ValidationError) as info:
            with dataset._located("path:3"):
                with dataset._located("a.ptb"):
                    raise ValidationError("bad label")
        assert str(info.value) == "path:3: a.ptb: bad label"

    def test_error_keeps_its_type_and_offset(self):
        err = ParseError("unbalanced brackets", 17)
        with pytest.raises(ParseError) as info:
            with dataset._located("path:3.a.ptb"):
                raise err
        assert info.value is err
        assert info.value.offset == 17
        assert str(err) == "path:3.a.ptb: unbalanced brackets (byte offset 17)"

    def test_other_errors_pass_through_unchanged(self):
        with pytest.raises(KeyError) as info:
            with dataset._located("path:3"):
                raise KeyError("grammar")
        assert info.value.args == ("grammar",)

    def test_clean_block_returns_normally(self):
        def inside() -> int:
            with dataset._located("path:3"):
                return 4

        assert inside() == 4


class TestDesignMatrix:
    def test_single_judgment_layout(self, loaded):
        triples, judgments, *_ = loaded
        one = next(
            j for j in judgments if j.question == "A_vs_B" and j.choice == "first"
        )
        matrix = build_design_matrix(triples, [one])
        assert matrix.n_rows == 2
        assert list(matrix.y) == [1.0, 0.0]
        assert list(matrix.X[:, matrix.columns.index("split")]) == [1.0, 0.0]

    @pytest.mark.parametrize("choices", [("second", "first"), ("first", "second")])
    def test_repeated_pair_keeps_file_order(self, loaded, tmp_path, choices):
        # Rows are sorted by (triple, worker) alone; records of one pair
        # keep the order of the file.
        triples, *_ = loaded
        path = tmp_path / "judgments.jsonl"
        lines = [_judgment_line(choice=choice) for choice in choices]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(DegenerateInputWarning, match=_REPEATED):
            judgments = load_judgments(path, {t.id for t in triples})
        matrix = build_design_matrix(triples, judgments, FeatureConfig(("split",)))
        expected = [1.0 if c == "first" else 0.0 for c in choices]
        assert list(matrix.y) == [y for e in expected for y in (e, 1.0 - e)]

    def test_not_sure_contributes_no_rows(self, loaded):
        triples, judgments, *_ = loaded
        decided = [
            j
            for j in judgments
            if j.question == "A_vs_B" and j.choice != "not_sure"
        ]
        one = decided[0]
        unsure = replace(one, choice="not_sure")
        config = FeatureConfig(predictors=("split", "samsa"))
        with_unsure = build_design_matrix(triples, [one, unsure], config)
        assert with_unsure.n_rows == 2
        # A matrix cannot be built from not_sure responses alone.
        with pytest.raises(ValidationError):
            build_design_matrix(triples, [unsure], config)

    def test_row_count_and_sums(self, loaded):
        triples, judgments, *_ = loaded
        matrix = build_design_matrix(triples, judgments)
        decided = [
            j
            for j in judgments
            if j.question == "A_vs_B" and j.choice != "not_sure"
        ]
        assert matrix.n_rows == 2 * len(decided)
        y = matrix.y.reshape(-1, 2)
        split = matrix.X[:, matrix.columns.index("split")].reshape(-1, 2)
        assert np.all(y.sum(axis=1) == 1.0)
        assert np.all(split.sum(axis=1) == 1.0)

    def test_exactly_18_predictors(self, loaded):
        triples, judgments, *_ = loaded
        matrix = build_design_matrix(triples, judgments)
        assert len(matrix.columns) == 18
        assert matrix.columns == PREDICTORS

    def test_standardized_columns(self, loaded):
        triples, judgments, *_ = loaded
        matrix = build_design_matrix(triples, judgments)
        for name, col in zip(matrix.columns, matrix.X.T):
            if name in CATEGORICAL_PREDICTORS:
                assert set(np.unique(col)) <= {0.0, 1.0}
            else:
                assert abs(col.mean()) < 1e-9
                assert col.std() == pytest.approx(1.0, abs=1e-9)

    def test_rows_aligned_with_judgments_and_sides(self, loaded):
        # The matrix rebuilt one judgment at a time: side a then side b,
        # each row the side's features merged with that side's scores,
        # and y = 1 on the chosen side's row.
        triples, judgments, *_ = loaded
        by_id = {t.id: t for t in triples}
        decided = sorted(
            (j for j in judgments if j.question == "A_vs_B" and j.choice != "not_sure"),
            key=lambda j: (j.triple_id, j.worker_id),
        )
        raw, y = [], []
        for j in decided:
            for side in ("a", "b"):
                scores = j.scores_a if side == "a" else j.scores_b
                feats = side_features(by_id[j.triple_id], side, FeatureConfig(), DALE)
                feats.update({cat: getattr(scores, cat) for cat in CATEGORIES})
                raw.append([feats[name] for name in PREDICTORS])
                y.append(1.0 if side == {"first": "a", "second": "b"}[j.choice] else 0.0)
        X = np.array(raw, dtype=float)
        for k, name in enumerate(PREDICTORS):
            if name not in CATEGORICAL_PREDICTORS:
                X[:, k] = (X[:, k] - X[:, k].mean()) / X[:, k].std()
        matrix = build_design_matrix(triples, judgments)
        assert matrix.columns == PREDICTORS
        assert np.array_equal(matrix.X, X)
        assert np.array_equal(matrix.y, np.array(y))

    def test_zscore_hand_value(self):
        matrix = DesignMatrix.from_arrays(
            ["x"], np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 0.0, 1.0]),
        )
        assert matrix.X[:, 0] == pytest.approx(
            [-1.224745, 0.0, 1.224745], abs=1e-6
        )

    def test_zero_variance_column_named(self):
        with pytest.raises(StandardizationError, match="x2"):
            DesignMatrix.from_arrays(
                ["x1", "x2"],
                np.array([[1.0, 5.0], [2.0, 5.0]]),
                np.array([0.0, 1.0]),
            )

    @pytest.mark.parametrize(
        "values", [(1e308, -1e308), (1e308, 1e308)], ids=["squares", "sum"]
    )
    def test_column_too_large_named_without_warning(self, values):
        # Finite values whose squares, or whose sum, overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(
                StandardizationError, match=r"^column 'x2' is too large to standardize$"
            ):
                DesignMatrix.from_arrays(
                    ["x1", "x2"], [[1.0, values[0]], [2.0, values[1]]], [0.0, 1.0]
                )

    @pytest.mark.parametrize(
        "values, message",
        [
            ((0.0, 1e-170), "is too small to standardize"),
            ((-1e-160, 1e-160), "is too small to standardize"),
            ((1e-170, 1e-170), "has zero variance and cannot be standardized"),
            ((0.1, 0.1, 0.1), "has zero variance and cannot be standardized"),
        ],
        ids=["subnormal-squares", "tiny-sd", "constant-tiny", "constant-inexact-mean"],
    )
    def test_column_too_small_or_constant_named(self, values, message):
        # Distinct values whose squared deviations underflow are too small,
        # not constant; a constant column is named as such even when its
        # mean is inexact and its computed sd is not 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StandardizationError, match=f"^column 'x' {message}$"):
                DesignMatrix.from_arrays(
                    ["x"], [[v] for v in values], [0.0, 1.0, 0.0][: len(values)]
                )

    def test_smallest_standardizable_column_keeps_its_bits(self):
        # Just above sqrt(float min), the sd is taken as before.
        col = np.array([0.0, 4e-154])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = DesignMatrix.from_arrays(["x"], col[:, None], [0.0, 1.0])
        assert matrix.X[:, 0].tolist() == ((col - col.mean()) / col.std()).tolist()

    def test_no_rows_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="^X has no rows$"):
                DesignMatrix.from_arrays(["x"], np.empty((0, 1)), np.empty(0))

    def test_missing_samsa_named(self, tmp_path):
        record = {
            "id": "t0",
            "source": {"text": "x y", "ptb": ["(S (NN x) (NN y))"]},
            "a": {
                "text": "x . y .",
                "ptb": ["(S (NN x)) (S (NN y))"],
                "origin": "human",
            },
            "b": {"text": "x . y . z .", "ptb": ["(S (NN x)) (S (NN y)) (S (NN z))"]},
        }
        path = tmp_path / "triples.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        triples = load_triples(path)
        config = FeatureConfig(predictors=("samsa", "split"))
        with pytest.raises(ValidationError, match="t0"):
            side_features(triples[0], "a", config, DALE)

    def test_only_referenced_triples_featurized(self, loaded):
        # An unjudged triple without CoNLL-U cannot give dep_length, but
        # no row needs it, so the default (dep_length) build still works.
        triples, judgments, *_ = loaded
        unjudged = replace(
            triples[0],
            id="unjudged",
            split_a=replace(triples[0].split_a, graphs=()),
            split_b=replace(triples[0].split_b, graphs=()),
        )
        with pytest.raises(ValidationError, match="unjudged"):
            side_features(unjudged, "a", FeatureConfig(), DALE)
        matrix = build_design_matrix([*triples, unjudged], judgments)
        reference = build_design_matrix(triples, judgments)
        assert np.array_equal(matrix.X, reference.X)
        assert np.array_equal(matrix.y, reference.y)

    def test_each_side_featurized_once(self, loaded, monkeypatch):
        triples, judgments, *_ = loaded
        calls = {}
        original = cohesion.ted1

        def counting_ted1(source, splits):
            calls[id(splits)] = calls.get(id(splits), 0) + 1
            return original(source, splits)

        # The counter lives in this process, so every triple must run here.
        pin_lanes(monkeypatch, 1)
        monkeypatch.setattr(cohesion, "ted1", counting_ted1)
        build_design_matrix(triples, judgments)
        referenced = {
            j.triple_id
            for j in judgments
            if j.question == "A_vs_B" and j.choice != "not_sure"
        }
        expected = {
            id(t.side(side).trees): len(t.source_trees)
            for t in triples
            if t.id in referenced
            for side in ("a", "b")
        }
        assert calls == expected


def _with_deep_tree(triple, where, depth):
    """``triple`` with its first source tree, or the second tree of side
    a, replaced by a unary chain ``depth`` nodes deep."""
    (chain,) = parse_ptb("(A " * (depth - 1) + "x" + ")" * (depth - 1))
    assert chain.depth() == depth
    if where == "source":
        return replace(triple, source_trees=(chain, *triple.source_trees[1:]))
    trees = triple.split_a.trees
    return replace(triple, split_a=replace(triple.split_a, trees=(trees[0], chain, *trees[2:])))


def _keep_pair_order(records, order):
    """``records`` in ``order``, except that the records of each (triple,
    worker) fill their positions in their original relative order."""
    queues = defaultdict(deque)
    for record in records:
        queues[record["triple_id"], record["worker_id"]].append(record)
    return [
        queues[records[i]["triple_id"], records[i]["worker_id"]].popleft()
        for i in order
    ]


def _library_triple(ptb, source_trees=None):
    """A triple whose two sides hold the trees of ``ptb``, without
    dependency parses or a SAMSA value; its source is the side's first
    tree unless ``source_trees`` is given."""
    trees = tuple(parse_ptb(ptb))
    side = Simplification(trees=trees, origin="human")
    return Triple("t0", source_trees or trees[:1], side, side)


def _one_sentence_triple():
    return _library_triple("(S (NN x))")


_SCORES = SideScores(grammar=4, meaning=4, fluency=4)


# Library calls that the CLI's readers never make, and the error of each.
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _one_sentence_triple().side("c"), ValueError, "unknown side 'c'"),
        (
            lambda: DesignMatrix.from_arrays(["x"], [[1.0, 2.0]], [1.0]),
            ValidationError,
            "X shape does not match the column list",
        ),
        (
            lambda: DesignMatrix.from_arrays(["x"], [[1.0], [2.0]], [1.0]),
            ValidationError,
            "y length does not match X",
        ),
        (
            lambda: DesignMatrix.from_arrays(["x"], [[1.0], [2.0]], [1.0, 0.5]),
            ValidationError,
            "y must be binary",
        ),
        (
            lambda: DesignMatrix.from_arrays(["x"], [[1.0], [math.inf]], [1.0, 0.0]),
            ValidationError,
            "column 'x' has non-finite values",
        ),
        (
            lambda: DesignMatrix.from_arrays(["split"], [[1.0], [2.0]], [1.0, 0.0]),
            ValidationError,
            "categorical column 'split' must be 0/1 valued",
        ),
        (
            lambda: build_design_matrix(
                [], [JudgmentRecord("t9", "w0", "A_vs_B", "first", _SCORES, _SCORES)]
            ),
            IntegrityError,
            "judgment references unknown triple 't9'",
        ),
    ],
    ids=["side", "x-shape", "y-length", "y-binary", "non-finite", "categorical",
         "absent-triple"],
)
def test_library_input_rejected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# Ids that load_triples accepts and csv_line writes in one cell.
_IDS = st.text(
    st.characters(codec="utf-8", exclude_characters=',"\n\r'), min_size=1, max_size=5
).filter(lambda s: not s.startswith("#"))


def _renaming(data, ids):
    """An order-preserving map of ``ids`` onto drawn ids."""
    new = data.draw(st.lists(_IDS, min_size=len(ids), max_size=len(ids), unique=True))
    return dict(zip(sorted(ids), sorted(new)))


class TestMatrixRelations:
    """Metamorphic relations of ingest -> build_design_matrix: edits to the
    input files whose effect on X, y and columns is known, checked without
    the sampler or any pinned value."""

    @pytest.fixture(scope="class")
    def study(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("relations")
        paths = make_demo_dataset(tmp, n_triples=6, n_workers=3, seed=17)
        triples, judgments = (
            [json.loads(line) for line in path.read_text("utf-8").splitlines()]
            for path in paths
        )
        # Two (triple, worker) pairs answer A_vs_B twice, so the order of
        # a pair's records is part of the input.
        for record in [j for j in judgments if j["question"] == "A_vs_B"][:2]:
            again = copy.deepcopy(record)
            again["choice"] = "second" if record["choice"] == "first" else "first"
            again["scores"]["a"]["grammar"] = 6 - record["scores"]["a"]["grammar"]
            judgments.append(again)
        with pytest.MonkeyPatch.context() as patch:
            pin_lanes(patch, 1)  # no fork per example
            yield tmp, triples, judgments, self._matrix(tmp, triples, judgments)

    @staticmethod
    def _matrix(tmp, triples, judgments):
        for name, records in (("triples", triples), ("judgments", judgments)):
            text = "".join(json.dumps(record) + "\n" for record in records)
            (tmp / f"{name}.jsonl").write_text(text, encoding="utf-8")
        with pytest.warns(DegenerateInputWarning, match=_REPEATED):
            inputs = ingest(tmp / "judgments.jsonl", tmp / "triples.jsonl")
        return build_design_matrix(*inputs)

    @staticmethod
    def _assert_same(matrix, base):
        assert matrix.columns == base.columns
        assert matrix.X.shape == base.X.shape
        assert matrix.X.tobytes() == base.X.tobytes()
        assert matrix.y.tobytes() == base.y.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_judgment_order_within_pairs_kept(self, study, data):
        tmp, triples, judgments, base = study
        order = data.draw(st.permutations(range(len(judgments))))
        shuffled = _keep_pair_order(judgments, order)
        self._assert_same(self._matrix(tmp, triples, shuffled), base)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_triple_order(self, study, data):
        tmp, triples, judgments, base = study
        shuffled = data.draw(st.permutations(triples))
        self._assert_same(self._matrix(tmp, shuffled, judgments), base)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_order_preserving_renames(self, study, data):
        tmp, triples, judgments, base = study
        tids = _renaming(data, [t["id"] for t in triples])
        wids = _renaming(data, {j["worker_id"] for j in judgments})
        triples = [{**t, "id": tids[t["id"]]} for t in triples]
        judgments = [
            {**j, "triple_id": tids[j["triple_id"]], "worker_id": wids[j["worker_id"]]}
            for j in judgments
        ]
        self._assert_same(self._matrix(tmp, triples, judgments), base)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_not_sure_records_added(self, study, data):
        tmp, triples, judgments, base = study
        score = st.integers(1, 5)
        side = st.fixed_dictionaries({c: score for c in CATEGORIES})
        extra = st.fixed_dictionaries({
            "triple_id": st.sampled_from([t["id"] for t in triples]),
            "worker_id": st.one_of(
                st.sampled_from(sorted({j["worker_id"] for j in judgments})), _IDS
            ),
            "question": st.sampled_from(dataset.QUESTIONS),
            "choice": st.just("not_sure"),
            "scores": st.fixed_dictionaries({"a": side, "b": side}),
        })
        added = list(judgments)
        for record in data.draw(st.lists(extra, min_size=1, max_size=8)):
            added.insert(data.draw(st.integers(0, len(added))), record)
        self._assert_same(self._matrix(tmp, triples, added), base)

    def test_flipped_choices_flip_y(self, study):
        tmp, triples, judgments, base = study
        swap = {"first": "second", "second": "first", "not_sure": "not_sure"}
        flipped = [
            {**j, "choice": swap[j["choice"]]} if j["question"] == "A_vs_B" else j
            for j in judgments
        ]
        matrix = self._matrix(tmp, triples, flipped)
        assert matrix.columns == base.columns
        assert matrix.X.tobytes() == base.X.tobytes()
        assert matrix.y.tobytes() == (1.0 - base.y).tobytes()

    def test_swapped_scores_swap_score_cells(self, study):
        # Each judgment's rows are side a then side b; the score columns
        # are standardized over the same values summed in another order.
        tmp, triples, judgments, base = study
        swapped = [
            {**j, "scores": {"a": j["scores"]["b"], "b": j["scores"]["a"]}}
            for j in judgments
        ]
        matrix = self._matrix(tmp, triples, swapped)
        assert matrix.columns == base.columns
        assert matrix.y.tobytes() == base.y.tobytes()
        scores = [base.columns.index(c) for c in CATEGORIES]
        others = [k for k in range(len(base.columns)) if k not in scores]
        partner = np.arange(base.n_rows) ^ 1  # 0<->1, 2<->3, ...
        assert matrix.X[:, others].tobytes() == base.X[:, others].tobytes()
        np.testing.assert_allclose(
            matrix.X[:, scores], base.X[partner][:, scores], rtol=0, atol=1e-12
        )
        assert not np.array_equal(matrix.X[:, scores], base.X[:, scores])


class TestTreeDepthLimit:
    # Deeper trees would exhaust the recursion limit in the recursive
    # feature walks; the limit is checked before any of them.
    @pytest.mark.parametrize("where", ["source", "side"])
    def test_deepest_allowed_tree_featurizes(self, loaded, where):
        triple = _with_deep_tree(loaded[0][0], where, MAX_TREE_DEPTH)
        feats = side_features(triple, "a", FeatureConfig(), DALE)
        assert set(feats) == set(FeatureConfig().predictors) - set(CATEGORIES)
        assert all(math.isfinite(v) for v in feats.values())

    @pytest.mark.parametrize("where, tree", [("source", "source tree 1"), ("side", "tree 2")])
    def test_one_level_deeper_rejected(self, loaded, where, tree):
        triple = _with_deep_tree(loaded[0][0], where, MAX_TREE_DEPTH + 1)
        message = (
            f"triple '{triple.id}', side a: {tree} is {MAX_TREE_DEPTH + 1} levels deep, "
            f"over the limit of {MAX_TREE_DEPTH}"
        )
        with pytest.raises(ValidationError) as info:
            side_features(triple, "a", FeatureConfig(), DALE)
        assert str(info.value) == message


class TestFeatureLanes:
    """Triples striped over forked worker processes give exactly the rows
    and the error of one process featurizing them in turn."""

    def test_rows_independent_of_lanes(self, loaded, monkeypatch):
        triples, *_ = loaded
        tables = []
        for lanes in (1, 2, 3):
            pin_lanes(monkeypatch, lanes)
            tables.append(extract_features(triples))
        assert tables[1] == tables[0]
        assert tables[2] == tables[0]

    def test_first_failing_triple_in_id_order_raised(self, loaded, monkeypatch):
        triples, *_ = loaded
        ordered = sorted(triples, key=lambda t: t.id)
        # Places 3 and 4 fall in different lanes: with two lanes the first
        # failure is a worker's, with three it is this process's.
        deep = {ordered[3].id, ordered[4].id}
        broken = [
            _with_deep_tree(t, "side", MAX_TREE_DEPTH + 1) if t.id in deep else t
            for t in reversed(triples)
        ]
        messages = []
        for lanes in (1, 2, 3):
            pin_lanes(monkeypatch, lanes)
            with pytest.raises(ValidationError) as info:
                extract_features(broken)
            messages.append(str(info.value))
        assert messages[0].startswith(f"triple {ordered[3].id!r}, side a: tree 2 ")
        assert messages == [messages[0]] * 3

    def test_dead_worker_raises_and_is_reaped(self, loaded, monkeypatch, tmp_path):
        triples, *_ = loaded
        parent = os.getpid()
        real_side_features = dataset.side_features

        def dying_side_features(triple, side, config, easy_words):
            if os.getpid() != parent:
                (tmp_path / "worker.pid").write_text(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            return real_side_features(triple, side, config, easy_words)

        monkeypatch.setattr(dataset, "side_features", dying_side_features)
        pin_lanes(monkeypatch, 2)
        # With 11 triples the dead lane stands for five, and the message
        # shortens their list.
        eleven = [*triples, *(replace(t, id=f"t{8 + k:04d}") for k, t in enumerate(triples[:3]))]
        for batch, listing in ((triples, "1, 3, 5, 7"), (eleven, "1, 3, ..., 9")):
            message = rf"feature worker for sorted triples {re.escape(listing)} died \(signal 9\)"
            with pytest.raises(SplitreadError, match=message):
                extract_features(batch)
            with pytest.raises(ChildProcessError):
                os.waitpid(int((tmp_path / "worker.pid").read_text()), os.WNOHANG)


class TestWordListRead:
    """extract_features reads its word list once per call, in the calling
    process, before any lane starts; the lanes read no file."""

    def test_rewritten_list_read_afresh(self, loaded, tmp_path):
        triples, *_ = loaded
        path = tmp_path / "words.txt"
        config = FeatureConfig(predictors=("dale",), word_list=str(path))
        tables = []
        for words in ("the\nman\n", "\n".join(sorted(DALE))):
            path.write_text(words, encoding="utf-8")
            tables.append(extract_features(triples, config))
        assert tables[1] == extract_features(triples, FeatureConfig(predictors=("dale",)))
        assert tables[0] != tables[1]

    def test_read_once_in_the_calling_process(self, loaded, monkeypatch):
        triples, *_ = loaded
        parent = os.getpid()
        calls = []
        real_load_easy_words = readability.load_easy_words

        def counted_load_easy_words(path=None):
            if os.getpid() != parent:
                raise AssertionError("word list read in a lane")
            calls.append(path)
            return real_load_easy_words(path)

        monkeypatch.setattr(readability, "load_easy_words", counted_load_easy_words)
        pin_lanes(monkeypatch, 2)
        extract_features(triples)
        assert calls == [None]


class TestFeatureErrorsLocated:
    """Featurization errors pass through ``_located``: an input error gets
    its triple and side, any other exception keeps its type and message,
    whether it is raised here or in a forked lane (the second triple in
    id order runs in a child when there are two lanes)."""

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_input_error_keeps_its_type_and_prefix(self, loaded, monkeypatch, lanes):
        triples, *_ = loaded
        target = sorted(triples, key=lambda t: t.id)[1]
        broken = [
            replace(t, split_a=replace(t.split_a, samsa=None)) if t is target else t
            for t in triples
        ]
        pin_lanes(monkeypatch, lanes)
        with pytest.raises(SplitreadError) as info:
            extract_features(broken, FeatureConfig(predictors=("samsa", "split")))
        assert type(info.value) is ValidationError
        assert str(info.value) == (
            f"triple {target.id!r}, side a: samsa value missing (samsa enabled)"
        )

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_other_exception_propagates_unchanged(self, loaded, monkeypatch, lanes):
        triples, *_ = loaded
        target = sorted(triples, key=lambda t: t.id)[1]
        real_ted2 = cohesion.ted2

        def failing_ted2(trees):
            if trees is target.split_a.trees:
                raise KeyError("ted2")
            return real_ted2(trees)

        monkeypatch.setattr(cohesion, "ted2", failing_ted2)
        pin_lanes(monkeypatch, lanes)
        with pytest.raises(Exception) as info:
            extract_features(triples)
        assert type(info.value) is KeyError
        assert info.value.args == ("ted2",)


class TestExtractFeatures:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_non_positive_kernel_sigma_rejected(self, sigma):
        with pytest.raises(ValidationError, match="kernel_sigma must be positive"):
            FeatureConfig(kernel_sigma=sigma)

    def test_one_sentence_side_scores_zero_overlap_like_ted2(self):
        # The CLI's reader asks for 2 and 3 split sentences; a library
        # caller may pass one, which has no adjacent pairs.
        (tree,) = parse_ptb("(S (NP (DT The) (NN dog)) (VP (VBD barked)))")
        one = Simplification(trees=(tree,), origin="human")
        triple = Triple(id="t0000", source_trees=(tree,), split_a=one, split_b=one)
        config = FeatureConfig(predictors=("ted2", "overlap"))
        with pytest.warns(DegenerateInputWarning) as record:
            feats = side_features(triple, "a", config, DALE)
        assert feats == {"ted2": 0.0, "overlap": 0.0}
        assert [str(w.message) for w in record] == [
            "ted2 on a single sentence has no adjacent pairs; returning 0",
            "overlap on a single sentence has no adjacent pairs; returning 0",
        ]

    def test_two_rows_per_triple_and_stable_order(self, loaded):
        triples, *_ = loaded
        header, rows = extract_features(triples)
        assert header[:2] == ["triple_id", "side"]
        assert len(rows) == 2 * len(triples)
        assert [r[1] for r in rows[:2]] == ["a", "b"]
        ids = [r[0] for r in rows]
        assert ids == sorted(ids)

    def test_deterministic(self, loaded):
        triples, *_ = loaded
        first = extract_features(triples)
        second = extract_features(triples)
        assert first == second

    def test_bart_and_split_flags(self, loaded):
        triples, *_ = loaded
        header, rows = extract_features(triples)
        bart_idx = header.index("bart")
        split_idx = header.index("split")
        by_id = {t.id: t for t in triples}
        for row in rows:
            triple, side = by_id[row[0]], row[1]
            expected_bart = 1.0 if side == "a" and triple.split_a.origin == "bart" else 0.0
            assert row[bart_idx] == expected_bart
            assert row[split_idx] == (1.0 if side == "a" else 0.0)


_LETTERLESS = "(S (CD 1) (CD 2)) (S (CD 3))"


class TestSideOrder:
    """Side predictors run in ``SIDE_PREDICTORS`` order, the column order,
    each through its function's module attribute."""

    @pytest.mark.parametrize(
        "triple, dropped, error, message",
        [
            (
                lambda: _library_triple(_LETTERLESS),
                (),
                ValidationError,
                "triple 't0', side a: dependency parses missing (dep_length enabled)",
            ),
            (
                lambda: _library_triple(_LETTERLESS),
                ("dep_length",),
                ValidationError,
                "triple 't0', side a: text has no countable words",
            ),
            (
                lambda: _library_triple(_LETTERLESS),
                ("dep_length", "dale", "ease", "fk_grade"),
                ValidationError,
                "triple 't0', side a: samsa value missing (samsa enabled)",
            ),
            (
                lambda: _library_triple("(S (NN x)) (S (NN y))", (ParseTree("x"),)),
                (),
                ValidationError,
                "triple 't0', side a: tree has no internal structure; "
                "self-kernel is zero",
            ),
            (
                _one_sentence_triple,
                (),
                DegenerateInputWarning,
                "ted2 on a single sentence has no adjacent pairs; returning 0",
            ),
            (
                _one_sentence_triple,
                ("ted2",),
                DegenerateInputWarning,
                "overlap on a single sentence has no adjacent pairs; returning 0",
            ),
        ],
        ids=["dep-length", "readability", "samsa", "kernel", "ted2", "overlap"],
    )
    def test_first_failure_reported(self, triple, dropped, error, message):
        config = FeatureConfig(tuple(p for p in SIDE_PREDICTORS if p not in dropped))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateInputWarning)
            with pytest.raises(error) as info:
                side_features(triple(), "a", config, DALE)
        assert str(info.value) == message

    def test_overlap_warning_names_the_caller(self):
        config = FeatureConfig(predictors=("overlap",))
        with pytest.warns(DegenerateInputWarning) as record:
            side_features(_one_sentence_triple(), "a", config, DALE)
        assert [w.filename for w in record] == [__file__]

    # The predictor functions that bench/traced.py wraps, by module.
    _WRAPPED = {
        cohesion: ("ted1", "ted2", "kernel_similarity", "overlap_coefficient"),
        complexity: ("yngve_score", "frazier_score", "tnodes", "dep_distance"),
        readability: ("text_stats", "dale_chall", "flesch_reading_ease", "fk_grade"),
    }

    def test_each_function_called_through_its_module(self, loaded, monkeypatch):
        triples, *_ = loaded
        calls = Counter()
        for module, names in self._WRAPPED.items():
            for name in names:

                def counted(*args, _name=name, _real=getattr(module, name)):
                    calls[_name] += 1
                    return _real(*args)

                monkeypatch.setattr(module, name, counted)
        pin_lanes(monkeypatch, 1)  # the counter lives in this process
        extract_features(triples)
        sides = [t.side(s) for t in triples for s in ("a", "b")]
        trees = sum(len(side.trees) for side in sides)
        assert calls == {
            "ted1": 2 * sum(len(t.source_trees) for t in triples),
            "ted2": len(sides),
            "kernel_similarity": 2 * len(sides),
            "overlap_coefficient": trees - len(sides),
            "yngve_score": trees,
            "frazier_score": trees,
            "tnodes": trees,
            "dep_distance": sum(len(side.graphs) for side in sides),
            **dict.fromkeys(self._WRAPPED[readability], len(sides)),
        }
        calls.clear()
        extract_features(triples, FeatureConfig(predictors=("ted2",)))
        assert calls == {"ted2": len(sides)}

    def test_columns_follow_side_predictors(self, loaded):
        triples, *_ = loaded
        shuffled = list(PREDICTORS)
        random.Random(0).shuffle(shuffled)
        config = FeatureConfig(predictors=tuple(shuffled))
        header, rows = extract_features(triples, config)
        assert header == ["triple_id", "side", *SIDE_PREDICTORS]
        ordered = sorted(triples, key=lambda t: t.id)
        for triple, row in zip(ordered, rows[::2]):
            feats = side_features(triple, "a", config, DALE)
            assert list(feats) == list(SIDE_PREDICTORS)
            assert row[2:] == list(feats.values())
