from __future__ import annotations

import json
import pickle
import random
import re
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_bracket_string,
    random_conllu_text,
    random_dep_graph,
    random_tree,
    reference_dep_graph_check,
    reference_parse_conllu,
    reference_parse_ptb,
    reference_tokens,
    to_bracketed,
)
from splitread.dataset import _located
from splitread.errors import FormatError, ParseError, ValidationError
from splitread.trees import (
    DepGraph,
    ParseTree,
    is_punctuation_token,
    parse_conllu,
    parse_ptb,
    strip_token_leaves,
)
from splitread.synth import make_demo_dataset


class TestParsePtb:
    def test_worked_example_structure(self, fig_tree):
        assert fig_tree.label == "S"
        assert len(fig_tree.children) == 2
        assert fig_tree.tokens() == ["Vanya", "walks", "home"]

    def test_unbalanced_bracket_reports_byte_offset(self):
        with pytest.raises(ParseError) as err:
            parse_ptb("(X a")
        assert err.value.offset == 4

    def test_stray_close_bracket(self):
        with pytest.raises(ParseError):
            parse_ptb(") (A b)")

    def test_two_top_level_groups(self):
        trees = parse_ptb("(A b) (C d)")
        assert len(trees) == 2
        assert [t.label for t in trees] == ["A", "C"]

    def test_empty_input_is_empty_list(self):
        assert parse_ptb("") == []
        assert parse_ptb("   \n\t ") == []

    def test_group_without_yield_is_rejected(self):
        with pytest.raises(ValidationError):
            parse_ptb("(X)")

    def test_unlabeled_unary_root_collapsed(self):
        tree = parse_ptb("( (S (NP Vanya) (VP walks)) )")[0]
        assert tree.label == "S"

    def test_wrapper_collapsed_after_trace_removal(self):
        tree = parse_ptb("( (S (NP Vanya) (VP walks)) (-NONE- *) )")[0]
        assert tree.label == "S"

    def test_trace_nodes_stripped(self):
        tree = parse_ptb("(S (NP (-NONE- *T*)) (VP (V runs)))")[0]
        assert tree.tokens() == ["runs"]

    def test_all_trace_tree_rejected(self):
        with pytest.raises(ValidationError):
            parse_ptb("(S (NP (-NONE- *T*)))")

    def test_function_tags_stripped(self):
        tree = parse_ptb("(S (NP-SBJ-1 (NNP Vanya)) (VP-TPC=2 (VBZ walks)))")[0]
        assert [c.label for c in tree.children] == ["NP", "VP"]

    def test_token_labels_keep_hyphens(self):
        tree = parse_ptb("(NP (JJ well-known))")[0]
        assert tree.tokens() == ["well-known"]

    def test_punctuation_kept_by_default_and_droppable(self):
        text = "(S (NP (NNP Vanya)) (VP (VBZ walks)) (. .))"
        assert parse_ptb(text)[0].tokens() == ["Vanya", "walks", "."]
        assert parse_ptb(text, keep_punctuation=False)[0].tokens() == [
            "Vanya",
            "walks",
        ]

    def test_punctuation_only_tree_rejected_when_dropping(self):
        with pytest.raises(ValidationError):
            parse_ptb("(FRAG (. .))", keep_punctuation=False)


class TestParseErrorPickle:
    # A ParseError raised in a forked lane reaches the caller pickled.
    def test_round_trip_keeps_type_message_and_offset(self):
        plain, located = ParseError("unbalanced brackets", 4), ParseError("x", 2)
        with pytest.raises(ParseError):
            with _located("triples.jsonl:2.a.ptb"):
                raise located
        for error, message in [
            (plain, "unbalanced brackets (byte offset 4)"),
            (located, "triples.jsonl:2.a.ptb: x (byte offset 2)"),
        ]:
            again = pickle.loads(pickle.dumps(error))
            assert type(again) is ParseError
            assert (str(again), again.offset) == (message, error.offset)


class TestParseConllu:
    def test_minimal_block(self):
        text = "1\tVanya\t_\t_\t_\t_\t2\tnsubj\t_\t_\n2\twalks\t_\t_\t_\t_\t0\troot\t_\t_\n"
        graphs = parse_conllu(text)
        assert len(graphs) == 1
        assert graphs[0].heads == (2, 0)

    def test_cycle_rejected(self):
        text = "1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n2\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
        with pytest.raises(ValidationError):
            parse_conllu(text)

    def test_three_blocks(self):
        block = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
        graphs = parse_conllu(block + "\n" + block + "\n" + block)
        assert len(graphs) == 3

    def test_missing_head_column(self):
        with pytest.raises(FormatError):
            parse_conllu("1\ta\t_\n")

    def test_zero_roots_rejected(self):
        text = "1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n2\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
        with pytest.raises(ValidationError):
            parse_conllu(text)

    def test_multiple_roots_rejected(self):
        text = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(ValidationError):
            parse_conllu(text)

    def test_out_of_range_head_rejected(self):
        text = "1\ta\t_\t_\t_\t_\t5\tdep\t_\t_\n"
        with pytest.raises(ValidationError):
            parse_conllu(text)

    def test_multiword_and_empty_nodes_skipped(self):
        text = (
            "# sent_id = 1\n"
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n"
            "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        )
        graphs = parse_conllu(text)
        assert len(graphs) == 1
        assert graphs[0].heads == (2, 0)

    @pytest.mark.parametrize("value", ["1_2", "+2", " 3", "\u0663", "2" * 5000])
    def test_non_decimal_head_rejected(self, value):
        # int() reads '1_2' as 12: the 12-token sentence would parse with
        # token 2 headed by token 12.
        lines = [f"{i}\tw{i}\t_\t_\t_\t_\t{i + 1}\tdep\t_\t_" for i in range(1, 12)]
        lines.append("12\tw12\t_\t_\t_\t_\t0\troot\t_\t_")
        lines[1] = lines[1].replace("\t3\t", f"\t{value}\t")
        with pytest.raises(FormatError, match="line 2: bad HEAD value"):
            parse_conllu("\n".join(lines))

    @pytest.mark.parametrize("value", ["1_0", "+1", " 1", "\u0661"])
    def test_non_decimal_token_id_rejected(self, value):
        text = f"{value}\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(FormatError, match="line 1: bad token id"):
            parse_conllu(text)

    def test_token_ids_must_run_from_one(self):
        text = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n3\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
        with pytest.raises(ValidationError) as err:
            parse_conllu(text)
        assert str(err.value) == (
            "token indices must be consecutive from 1; got 3 at position 2"
        )

    def test_out_of_order_id_reported_before_a_later_line(self):
        # The ID is checked at its own line, so the first error in the
        # file wins over line 3's malformed HEAD.
        text = (
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "3\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
            "4\tc\t_\t_\t_\t_\tx\tdep\t_\t_\n"
        )
        with pytest.raises(ValidationError, match="^token indices must be "):
            parse_conllu(text)

    @pytest.mark.parametrize("value", ["2-", "-1", "x.y", "1.", "1-2-3", "1.x"])
    def test_malformed_range_or_empty_node_rejected(self, value):
        # Only N-M ranges and N.M empty nodes are skipped: any other ID
        # with '-' or '.' would silently drop its token.
        text = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n" f"{value}\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
        message = re.escape(f"line 2: bad token id '{value}'")
        with pytest.raises(FormatError, match=message):
            parse_conllu(text)

    def test_accepts_exactly_single_rooted_acyclic(self, rng):
        # Valid random arborescences parse; rewiring the root into a cycle
        # must be rejected.
        for _ in range(50):
            n = int(rng.integers(2, 7))
            graph = random_dep_graph(rng, n)
            lines = [
                f"{i}\tw{i}\t_\t_\t_\t_\t{head}\tdep\t_\t_"
                for i, head in enumerate(graph.heads, start=1)
            ]
            assert parse_conllu("\n".join(lines)) == [graph]
            root = graph.heads.index(0) + 1
            bad = [
                line if not line.startswith(f"{root}\t") else
                line.replace(f"\t0\t", f"\t{root}\t", 1)
                for line in lines
            ]
            with pytest.raises(ValidationError):
                parse_conllu("\n".join(bad))

    # Every line boundary of str.splitlines() other than \n and \r.
    @pytest.mark.parametrize(
        "char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
    )
    def test_unicode_line_boundary_kept_in_form(self, char):
        # Broken at the character, line 1 would end inside its FORM.
        text = f"1\tA{char}x\t_\t_\t_\t_\t2\tdep\t_\t_\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        (graph,) = parse_conllu(text)
        assert graph.heads == (2, 0)

    _TWO_BLOCKS = [
        "# sent_id = 1",
        "1\ta\t_\t_\t_\t_\t2\tdep\t_\t_",
        "2\tb\t_\t_\t_\t_\t0\troot\t_\t_",
        "",
        "1\tc\u2028d\t_\t_\t_\t_\t0\troot\t_\t_",
    ]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_endings_give_the_same_graphs(self, newline):
        lines = self._TWO_BLOCKS
        expected = parse_conllu("\n".join(lines) + "\n")
        assert [g.heads for g in expected] == [(2, 0), (0,)]
        assert parse_conllu(newline.join(lines) + newline) == expected
        assert parse_conllu(newline.join(lines)) == expected

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_error_line_number_counts_line_endings_only(self, newline):
        lines = [*self._TWO_BLOCKS, "", "1\te\x85f\t_\t_\t_\t_\t1_0\troot\t_\t_"]
        with pytest.raises(FormatError, match="^line 7: bad HEAD value '1_0'$"):
            parse_conllu(newline.join(lines) + newline)

    def test_tab_line_missing_a_column_rejected(self):
        # Seven tab columns: the FORM holds a space, so a whitespace split
        # would find eight columns and read FORM 'New', HEAD 0.
        with pytest.raises(FormatError) as err:
            parse_conllu("1\tNew York\t_\t_\t_\t0\troot\n")
        assert str(err.value) == (
            "line 1: expected the 10-column CoNLL-U layout (HEAD/DEPREL "
            "missing): '1\\tNew York\\t_\\t_\\t_\\t0\\troot'"
        )

    def test_tab_layout_keeps_space_in_form(self):
        # Split on whitespace, line 1 would read the HEAD '_' after 'York'.
        text = (
            "1\tNew York\t_\t_\t_\t_\t2\tdep\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        )
        (graph,) = parse_conllu(text)
        assert graph.heads == (2, 0)

    def test_space_separated_layout_parses(self):
        text = "1 a _ _ _ _ 2 dep _ _\n2  b  _ _ _ _ 0 root _ _\n"
        (graph,) = parse_conllu(text)
        assert graph.heads == (2, 0)

    def test_line_with_a_tab_not_split_on_spaces(self):
        # One tab among spaces: the line is split on that tab alone.
        with pytest.raises(FormatError, match="^line 1: expected the 10-column"):
            parse_conllu("1 a _ _ _ _ 0 root\t_ _\n")


def _check_outcome(check, arg):
    """None, or the type and message of the error ``check(arg)`` raises."""
    try:
        check(arg)
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


class TestDepGraphCheck:
    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_long_chain_checked_in_linear_time(self, direction):
        # Walking each token up to the root with a fresh set is O(n * depth):
        # minutes for this chain.
        n = 50_000
        if direction == "up":  # token i is headed by i + 1, token n by the root
            heads = [*range(2, n + 1), 0]
        else:  # token 1 is the root, token i is headed by i - 1
            heads = [0, *range(1, n)]
        start = time.process_time()
        DepGraph(tuple(heads))
        assert time.process_time() - start < 0.5

    def test_long_cycle_named_by_first_revisited_token(self):
        n = 50_000
        heads = [*range(2, n + 1), 1]  # one cycle through every token ...
        heads[n // 2] = 0  # ... cut by a root, so tokens past it cycle
        heads[-1] = n // 2 + 2
        with pytest.raises(ValidationError) as err:
            DepGraph(tuple(heads))
        assert str(err.value) == f"cyclic heads involving token {n // 2 + 2}"

    def test_random_heads_match_reference(self):
        # Cycles, self-loops, 0 or 2 roots and out-of-range heads give the
        # error, with its token, that the quadratic check gave.
        rng = random.Random(31)
        kinds: Counter = Counter()
        for _ in range(20_000):
            n = rng.randint(1, 7)
            heads = [rng.randint(0, n) for _ in range(n)]
            if rng.random() < 0.05:
                heads[rng.randrange(n)] = rng.choice((-1, n + 1))
            outcome = _check_outcome(DepGraph, tuple(heads))
            reference = _check_outcome(reference_dep_graph_check, reference_tokens(heads))
            assert outcome == reference, heads
            kinds[outcome[1].split(" ")[0] if outcome else None] += 1
        # Valid graphs, cycles, root counts and ranges each come up often.
        assert {None, "cyclic", "expected", "token"} <= set(kinds)
        assert min(kinds.values()) > 0.02 * sum(kinds.values())


class TestYieldTokens:
    # The yield of a tree is its token leaves, left to right.
    def test_single_leaf(self):
        assert parse_ptb("(X w)")[0].tokens() == ["w"]

    def test_unary_chain(self):
        assert parse_ptb("(A (B (C w)))")[0].tokens() == ["w"]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 25))
    def test_yield_length_equals_leaf_count(self, seed, max_nodes):
        tree = random_tree(np.random.default_rng(seed), max_nodes)
        n_leaves = sum(1 for node in tree.iter_nodes() if node.is_leaf)
        assert len(tree.tokens()) == n_leaves


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30))
    def test_serialize_parse_identity(self, seed, max_nodes):
        tree = random_tree(np.random.default_rng(seed), max_nodes)
        again = parse_ptb(to_bracketed(tree))
        assert again == [tree]

    def test_fig_tree_round_trip(self, fig_tree):
        assert parse_ptb(to_bracketed(fig_tree)) == [fig_tree]


class TestHelpers:
    def test_strip_token_leaves(self):
        tree = parse_ptb("(A (B x) (C y))")[0]
        stripped = strip_token_leaves(tree)
        assert stripped == ParseTree("A", (ParseTree("B"), ParseTree("C")))

    def test_strip_token_leaves_keeps_a_bare_leaf(self):
        assert strip_token_leaves(ParseTree("x")) == ParseTree("x")

    def test_is_punctuation_token(self):
        assert is_punctuation_token(".")
        assert is_punctuation_token("...")
        assert is_punctuation_token("``")
        assert not is_punctuation_token("a.")
        assert not is_punctuation_token("")

    def test_dep_graph_requires_consecutive_indices(self):
        with pytest.raises(ValidationError) as err:
            parse_conllu("2\ta\t_\t_\t_\t_\t0\troot\t_\t_\n")
        assert str(err.value) == (
            "token indices must be consecutive from 1; got 2 at position 1"
        )


def _outcome(reader, text: str, keep_punctuation: bool):
    """The trees a reader returns, or the type, message and byte offset
    of the error it raises."""
    try:
        return reader(text, keep_punctuation=keep_punctuation)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


class TestReferenceTwin:
    """The one-pass reader against the recursive-descent reader it replaced."""

    def test_random_bracket_strings(self):
        rng = random.Random(20240808)
        kinds: Counter = Counter()
        for _ in range(100_000):
            text = random_bracket_string(rng)
            for keep in (True, False):
                outcome = _outcome(parse_ptb, text, keep)
                assert outcome == _outcome(reference_parse_ptb, text, keep), (
                    text,
                    keep,
                )
                kinds[outcome[0] if isinstance(outcome, tuple) else list] += 1
        # Trees and both kinds of error each make up a fair share.
        assert set(kinds) == {list, ParseError, ValidationError}
        assert min(kinds.values()) > 0.05 * sum(kinds.values())

    def test_demo_study_strings(self, tmp_path):
        triples, _ = make_demo_dataset(tmp_path, n_triples=24, n_workers=7, seed=3)
        strings = [
            s
            for line in triples.read_text("utf-8").splitlines()
            for side in ("source", "a", "b")
            for s in json.loads(line)[side]["ptb"]
        ]
        assert len(strings) == 24 * 6
        for text in strings:
            for keep in (True, False):
                trees = parse_ptb(text, keep_punctuation=keep)
                assert trees == reference_parse_ptb(text, keep_punctuation=keep)


def _heads(text: str) -> list[list[int]]:
    return [list(graph.heads) for graph in parse_conllu(text)]


def _conllu_outcome(reader, text: str):
    """The heads of each graph a reader returns, or the type and message
    of its error."""
    try:
        return reader(text)
    except (FormatError, ValidationError) as exc:
        return type(exc), str(exc)


class TestConlluReferenceTwin:
    """The one-split CoNLL-U reader against the reader it replaced."""

    def test_random_conllu_texts(self):
        rng = random.Random(20261019)
        kinds: Counter = Counter()
        for _ in range(12_000):
            text = random_conllu_text(rng)
            outcome = _conllu_outcome(_heads, text)
            assert outcome == _conllu_outcome(reference_parse_conllu, text), text
            kinds[outcome[0] if isinstance(outcome, tuple) else list] += 1
        # Graphs and both kinds of error each make up a fair share.
        assert set(kinds) == {list, FormatError, ValidationError}
        assert min(kinds.values()) > 0.05 * sum(kinds.values())

    def test_demo_study_texts(self, tmp_path):
        # Every graph of the paper-scale study (seed 3).
        triples, _ = make_demo_dataset(tmp_path, n_triples=221, n_workers=7, seed=3)
        texts = [
            text
            for line in triples.read_text("utf-8").splitlines()
            for text in json.loads(line)["conllu"].values()
        ]
        assert len(texts) == 221 * 3
        for text in texts:
            assert _heads(text) == reference_parse_conllu(text)


class TestDeepTrees:
    def test_deep_unary_chain_parses(self):
        # Far deeper than the interpreter's recursion limit.
        depth = 5000
        (tree,) = parse_ptb("(A " * depth + "x" + ")" * depth)
        assert tree.tokens() == ["x"]

    def test_depth_counts_nodes_on_the_longest_path(self, fig_tree):
        assert fig_tree.depth() == 4  # S, VP, V, walks
        assert fig_tree.children[0].depth() == 2
        assert ParseTree("x").depth() == 1
        (chain,) = parse_ptb("(A " * 5000 + "x" + ")" * 5000)
        assert chain.depth() == 5001
