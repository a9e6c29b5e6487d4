from __future__ import annotations

import pytest
from helpers import (
    naive_frazier_costs,
    naive_tnodes,
    naive_yngve_costs,
    random_dep_graph,
    random_tree,
)
from splitread.complexity import (
    dep_distance,
    frazier_costs,
    frazier_score,
    tnodes,
    yngve_costs,
    yngve_score,
)
from splitread.trees import DepGraph, ParseTree, parse_conllu, parse_ptb


def chain(depth: int, label: str = "A") -> str:
    text = "w"
    for _ in range(depth):
        text = f"({label} {text})"
    return text


class TestYngve:
    def test_worked_example_per_word(self, fig_tree):
        assert yngve_costs(fig_tree) == [1.0, 1.0, 0.0]

    def test_worked_example_mean(self, fig_tree):
        assert yngve_score(fig_tree) == 2 / 3

    def test_single_leaf(self):
        assert yngve_score(parse_ptb("(X w)")[0]) == 0.0

    def test_zero_iff_unary_chain(self):
        assert yngve_score(parse_ptb(chain(4))[0]) == 0.0
        assert yngve_score(parse_ptb("(A (B x) (C y))")[0]) > 0.0

    def test_left_branching_first_word_costs_n_minus_1(self):
        for n in range(2, 9):
            tree = "(A x0 x1)"
            for k in range(2, n):
                tree = f"(A {tree} x{k})"
            costs = yngve_costs(parse_ptb(tree)[0])
            assert costs[0] == n - 1

    def test_right_branching_costs_bounded_by_depth(self, rng):
        tree = "(A x0 x1)"
        for k in range(2, 8):
            tree = f"(A x{k} {tree})"
        parsed = parse_ptb(tree)[0]
        depth = 7
        assert all(c <= 1 + depth for c in yngve_costs(parsed))


class TestFrazier:
    def test_worked_example_per_word(self, fig_tree):
        assert frazier_costs(fig_tree) == [2.5, 1.0, 0.0]

    def test_worked_example_mean(self, fig_tree):
        assert frazier_score(fig_tree) == 3.5 / 3

    def test_single_leaf_non_s_root(self):
        assert frazier_score(parse_ptb("(X w)")[0]) == 1.0

    def test_unary_chain_scores_chain_length(self):
        for k in range(1, 5):
            assert frazier_score(parse_ptb(chain(k))[0]) == float(k)

    def test_s_prefixed_labels_score_bonus(self):
        assert frazier_score(parse_ptb("(SBAR w)")[0]) == 1.5
        assert frazier_score(parse_ptb("(SQ (NP w))")[0]) == 2.5

    def test_non_leftmost_word_scores_zero(self):
        costs = frazier_costs(parse_ptb("(A x y)")[0])
        assert costs == [1.0, 0.0]


@pytest.mark.parametrize("costs", [yngve_costs, frazier_costs])
def test_bare_leaf_costs_zero(costs):
    # A lone token has no edge to weigh: one word, of cost 0.
    assert costs(ParseTree("x")) == [0.0]


class TestTnodes:
    def test_worked_example(self, fig_tree):
        assert tnodes(fig_tree) == 5 / 3

    def test_single_preterminal(self):
        assert tnodes(parse_ptb("(X w)")[0]) == 1.0

    def test_balanced_binary_four_tokens(self):
        tree = parse_ptb("(R (X (P a) (P b)) (X (P c) (P d)))")[0]
        assert tnodes(tree) == 7 / 4


class TestDepDistance:
    def test_adjacent_arc(self):
        assert dep_distance(DepGraph((2, 0))) == 1.0

    def test_two_arcs(self):
        assert dep_distance(DepGraph((3, 3, 0))) == 1.5

    def test_single_token_scores_zero(self):
        assert dep_distance(DepGraph((0,))) == 0.0

    def test_invariant_under_relation_relabeling(self, rng):
        # Graphs read from CoNLL-U text that differs only in DEPREL.
        for _ in range(20):
            graph = random_dep_graph(rng, int(rng.integers(2, 9)))
            texts = [
                "\n".join(
                    f"{i}\tw\t_\t_\t_\t_\t{head}\t{relation(i)}\t_\t_"
                    for i, head in enumerate(graph.heads, start=1)
                )
                for relation in (lambda i: "dep", lambda i: f"rel{i}")
            ]
            (plain,), (relabeled,) = map(parse_conllu, texts)
            assert dep_distance(plain) == dep_distance(relabeled) == dep_distance(graph)


class TestAgainstNaiveTwins:
    def test_all_scores_match_naive_traversals(self, rng):
        for _ in range(200):
            tree = random_tree(rng, 20)
            assert yngve_costs(tree) == naive_yngve_costs(tree)
            assert frazier_costs(tree) == naive_frazier_costs(tree)
            assert tnodes(tree) == naive_tnodes(tree)

    def test_dep_distance_matches_direct_sum(self, rng):
        for _ in range(50):
            graph = random_dep_graph(rng, int(rng.integers(1, 10)))
            arcs = [abs(h - i) for i, h in enumerate(graph.heads, start=1) if h != 0]
            expected = sum(arcs) / len(arcs) if arcs else 0.0
            assert dep_distance(graph) == expected
