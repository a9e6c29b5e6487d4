from __future__ import annotations

import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    naive_subset_kernel,
    naive_subtree_kernel,
    naive_ted,
    random_tree,
    reference_tree_edit_distance,
    reference_tree_kernel,
)
from splitread import cohesion
from splitread.cohesion import (
    kernel_similarity,
    overlap_coefficient,
    ted1,
    ted2,
    tree_edit_distance,
    tree_kernel,
)
from splitread.dataset import extract_features, load_triples
from splitread.errors import DegenerateInputWarning, ValidationError
from splitread.synth import make_demo_dataset
from splitread.trees import ParseTree, parse_ptb, strip_token_leaves


def t(text: str):
    return parse_ptb(text)[0]


@pytest.fixture(scope="module")
def demo_triples(tmp_path_factory):
    """The 24-triple demo study: one source tree, two splits on side a and
    three on side b per triple."""
    out = tmp_path_factory.mktemp("cohesion_demo")
    triples_path, _ = make_demo_dataset(out, n_triples=24, n_workers=7, seed=3)
    return load_triples(triples_path)


class TestTreeEditDistance:
    def test_identical_trees(self, fig_tree):
        assert tree_edit_distance(fig_tree, fig_tree) == 0

    def test_subtree_deletion(self):
        assert tree_edit_distance(t("(A (B x) (C y))"), t("(A (B x))")) == 2

    def test_root_relabel(self):
        assert tree_edit_distance(t("(A x)"), t("(B x)")) == 1

    def test_matches_forest_recursion_oracle(self, rng):
        for _ in range(150):
            a = random_tree(rng, 12)
            b = random_tree(rng, 12)
            assert tree_edit_distance(a, b) == naive_ted(a, b)

    def test_matches_oracle_on_larger_trees(self, rng):
        for _ in range(10):
            a = random_tree(rng, 25)
            b = random_tree(rng, 25)
            assert tree_edit_distance(a, b) == naive_ted(a, b)

    def test_metric_properties_on_random_triples(self, rng):
        for _ in range(60):
            a, b, c = (random_tree(rng, 10) for _ in range(3))
            dab = tree_edit_distance(a, b)
            dba = tree_edit_distance(b, a)
            assert dab == dba
            assert (dab == 0) == (a == b)
            dac = tree_edit_distance(a, c)
            dbc = tree_edit_distance(b, c)
            assert dac <= dab + dbc


def mirror(tree: ParseTree) -> ParseTree:
    return ParseTree(tree.label, tuple(mirror(c) for c in reversed(tree.children)))


def chain(depth: int, branching: str) -> ParseTree:
    """A left- or right-``branching`` chain of ``depth`` A nodes, each with
    a token leaf beside the next node down."""
    text = "x"
    for _ in range(depth):
        text = f"(A {text} y)" if branching == "left" else f"(A y {text})"
    return t(text)


small_trees = st.recursive(
    st.sampled_from("ABC").map(ParseTree),
    lambda kids: st.builds(
        ParseTree, st.sampled_from("ABC"), st.lists(kids, min_size=1, max_size=3).map(tuple)
    ),
    max_leaves=8,
)


class TestEditDistancePaths:
    """The orientation choice and the closed-form leaf keyroots, each
    against the forest-recursion oracle."""

    def test_cheaper_mirrored_orientation_chosen(self, monkeypatch):
        # A left-branching tree is cheap in its left paths and a
        # right-branching one in its right paths; with the right-branching
        # tree the larger, the mirrored pair gives the smaller program.
        a, b = chain(3, "left"), chain(6, "right")
        calls = []
        original = cohesion._zhang_shasha
        monkeypatch.setattr(
            cohesion, "_zhang_shasha", lambda ta, tb: calls.append((ta, tb)) or original(ta, tb)
        )
        with cohesion.preparation_scope():
            distance = tree_edit_distance(a, b)
            (left_a, right_a), (left_b, right_b) = (
                cohesion._held(tree, cohesion._edit_arrays) for tree in (a, b)
            )
        assert right_a.cost * right_b.cost < left_a.cost * left_b.cost
        assert len(calls) == 1
        assert calls[0][0] is right_a and calls[0][1] is right_b
        assert distance == naive_ted(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            ("A", "A"),
            ("A", "B"),
            ("A", "(B x)"),
            ("(A (B x) (C y))", "B"),
            ("(S a b c d)", "(S b c e)"),
            ("(S a b c d)", "(T d c b a)"),
            ("(S a b c)", "(S (A a) b c)"),
            ("(A (A (A (A x))))", "(A (B (A x)))"),
            ("(A (A (A x)))", "(B (B (B (B (B y)))))"),
            ("(A (A a a) (A a))", "(A a (A a (A a a)))"),
            ("(A (B x) (B x) (B x))", "(A (B (B x) x) x)"),
        ],
        ids=[
            "same-leaf",
            "other-leaf",
            "leaf-tree",
            "tree-leaf",
            "flat",
            "flat-reversed",
            "flat-and-nested",
            "unary-chains",
            "disjoint-chains",
            "repeated-labels",
            "repeated-subtrees",
        ],
    )
    def test_small_shapes_match_oracle(self, a, b):
        ta, tb = (ParseTree(x) if "(" not in x else t(x) for x in (a, b))
        expected = naive_ted(ta, tb)
        assert tree_edit_distance(ta, tb) == expected
        assert tree_edit_distance(tb, ta) == expected

    def test_more_than_64_distinct_labels(self, rng):
        labels = [f"L{i}" for i in range(70)]
        order = list(rng.permutation(len(labels)))
        a = t("(S " + " ".join(f"({labels[i]} {labels[i + 1]})" for i in range(0, 70, 2)) + ")")
        b = t("(S " + " ".join(f"({labels[i]} x)" for i in order[:30]) + ")")
        assert len({n.label for n in a.iter_nodes()} | {n.label for n in b.iter_nodes()}) > 64
        assert tree_edit_distance(a, b) == naive_ted(a, b)

    @settings(max_examples=200, deadline=None)
    @given(small_trees, small_trees)
    def test_mirrored_pair_same_distance(self, a, b):
        distance = tree_edit_distance(a, b)
        assert distance == naive_ted(a, b)
        assert tree_edit_distance(mirror(a), mirror(b)) == distance


class TestTed1:
    def test_identity(self, fig_tree):
        assert ted1(fig_tree, [fig_tree]) == 0.0

    def test_mean_of_verified_distances(self):
        source = t("(A (B (C (D (E x)))))")
        near = t("(A x)")
        far = t("(Z (Y (X (W (V (U (Q x)))))))")
        # ted1 compares category skeletons: verify both skeleton distances
        # against the independent oracle before asserting on the mean.
        src, s1, s2 = (strip_token_leaves(tree) for tree in (source, near, far))
        d1 = naive_ted(src, s1)
        d2 = naive_ted(src, s2)
        assert tree_edit_distance(src, s1) == d1
        assert tree_edit_distance(src, s2) == d2
        expected = (d1 + d2) / 2
        assert ted1(source, [near, far]) == expected

    def test_single_relabel_split(self):
        assert ted1(t("(A x)"), [t("(B x)")]) == 1.0

    def test_bare_leaf_source(self):
        # A lone leaf is its own skeleton: one relabel and one insertion.
        assert ted1(ParseTree("x"), [t("(NP (NN x))")]) == 2.0

    def test_strips_token_leaves_by_default(self):
        # Same skeleton, different words: structural distance is 0.
        assert ted1(t("(A (B x))"), [t("(A (B y))")]) == 0.0

    def test_empty_splits_rejected(self, fig_tree):
        with pytest.raises(ValidationError):
            ted1(fig_tree, [])


class TestTed2:
    def test_identical_pair(self, fig_tree):
        assert ted2([fig_tree, fig_tree]) == 0.0

    def test_mean_of_adjacent_distances(self):
        s1 = t("(A (B x) (C y))")
        s2 = t("(A (B x))")
        s3 = t("(D (E x))")
        k1, k2, k3 = (strip_token_leaves(s) for s in (s1, s2, s3))
        expected = (tree_edit_distance(k1, k2) + tree_edit_distance(k2, k3)) / 2
        assert ted2([s1, s2, s3]) == expected

    def test_single_split_warns_and_scores_zero(self, fig_tree):
        with pytest.warns(DegenerateInputWarning):
            assert ted2([fig_tree]) == 0.0


class TestTreeKernel:
    def test_disjoint_productions(self):
        assert tree_kernel(t("(A x)"), t("(B y)"), "subset") == 0.0
        assert tree_kernel(t("(A x)"), t("(B y)"), "subtree") == 0.0

    def test_subtree_self_kernel_counts_complete_subtrees(self):
        tree = t("(A (B x) (C y))")
        assert tree_kernel(tree, tree, "subtree") == 3.0

    def test_subset_self_kernel_matches_enumeration(self):
        tree = t("(A (B x) (C y))")
        assert tree_kernel(tree, tree, "subset", 1.0) == 6.0
        assert naive_subset_kernel(tree, tree) == 6.0

    def test_asymmetric_pair_hand_counts(self):
        # Shared fragments of (A (B x) (C y)) and (A (B x) (C z)):
        # [B x], [A B C], [A [B x] C] -> subset 3; complete subtrees
        # share only [B x] -> subtree 1.
        t1 = t("(A (B x) (C y))")
        t2 = t("(A (B x) (C z))")
        assert tree_kernel(t1, t2, "subset", 1.0) == 3.0
        assert tree_kernel(t1, t2, "subtree") == 1.0

    def test_invalid_sigma(self, fig_tree):
        with pytest.raises(ValueError):
            tree_kernel(fig_tree, fig_tree, "subset", 0.0)
        with pytest.raises(ValueError):
            tree_kernel(fig_tree, fig_tree, "subset", -1.0)
        with pytest.raises(ValueError, match="sigma must be positive"):
            tree_kernel(fig_tree, fig_tree, "subset", float("nan"))

    def test_invalid_variant(self, fig_tree):
        with pytest.raises(ValueError):
            tree_kernel(fig_tree, fig_tree, "bogus")

    def test_matches_fragment_enumeration(self, rng):
        for _ in range(80):
            a = random_tree(rng, 8)
            b = random_tree(rng, 8)
            assert tree_kernel(a, b, "subset", 1.0) == naive_subset_kernel(a, b)
            assert tree_kernel(a, b, "subtree") == naive_subtree_kernel(a, b)

    def test_symmetry(self, rng):
        for _ in range(40):
            a = random_tree(rng, 10)
            b = random_tree(rng, 10)
            for variant in ("subset", "subtree"):
                assert tree_kernel(a, b, variant) == tree_kernel(b, a, variant)

    def test_subset_kernel_nondecreasing_in_sigma(self):
        a = t("(A (B x) (C y))")
        values = [tree_kernel(a, a, "subset", s) for s in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values)

    def test_terminal_never_matches_like_labeled_nonterminal(self):
        # "(A x)" has production A -> terminal x; "(A (x y))" has A -> x
        # where x is a nonterminal. They share no fragment.
        assert tree_kernel(t("(A x)"), t("(A (x y))"), "subset") == 0.0


class TestKernelSimilarity:
    def test_self_document(self, fig_tree):
        assert kernel_similarity([fig_tree], [fig_tree]) == 1.0

    def test_disjoint_documents(self):
        assert kernel_similarity([t("(A x)")], [t("(B y)")]) == 0.0

    def test_best_pair_is_exact_match(self, fig_tree):
        other = t("(A (B x) (C y))")
        assert kernel_similarity([fig_tree], [fig_tree, other]) == 1.0

    def test_doc_contained_in_other_scores_one(self, rng):
        docs = [random_tree(rng, 10) for _ in range(3)]
        for variant in ("subset", "subtree"):
            assert kernel_similarity(docs, docs + [random_tree(rng, 10)], variant) == pytest.approx(1.0)

    def test_bounded_in_unit_interval(self, rng):
        for _ in range(30):
            doc_a = [random_tree(rng, 9) for _ in range(2)]
            doc_b = [random_tree(rng, 9) for _ in range(2)]
            for variant in ("subset", "subtree"):
                value = kernel_similarity(doc_a, doc_b, variant)
                assert 0.0 <= value <= 1.0 + 1e-12

    def test_empty_document_rejected(self, fig_tree):
        with pytest.raises(ValidationError):
            kernel_similarity([], [fig_tree])

    @pytest.mark.parametrize(
        "text, sigma",
        [
            # Each self-kernel is about sigma ** 9 and overflows.
            ("(S" + " (A x)" * 9 + ")", 1e40),
            # Each self-kernel is sigma + 1; their product overflows.
            ("(S (A x))", 1e200),
        ],
        ids=["self-kernel", "product"],
    )
    def test_overflowing_kernel_rejected(self, text, sigma):
        tree = t(text)
        with pytest.raises(ValidationError, match="kernel_sigma"):
            kernel_similarity([tree], [tree], "subset", sigma)
        # A large sigma whose kernels stay finite keeps the formula.
        assert kernel_similarity([tree], [tree], "subset", 1e10) == 1.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ted2([]), "ted2 requires at least one split sentence"),
        (
            lambda: kernel_similarity([ParseTree("x")], [t("(A x)")]),
            "tree has no internal structure; self-kernel is zero",
        ),
    ],
    ids=["ted2-no-splits", "kernel-bare-leaf"],
)
def test_degenerate_input_rejected(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


class TestReferenceTwins:
    """tree_edit_distance and tree_kernel against verbatim copies (in
    helpers) of the implementations they replaced, compared with ==."""

    SETTINGS = [("subset", 1.0), ("subset", 0.3), ("subset", 2.7), ("subtree", 1.0)]

    def _assert_twins(self, a, b):
        assert tree_edit_distance(a, b) == reference_tree_edit_distance(a, b)
        for variant, sigma in self.SETTINGS:
            value = tree_kernel(a, b, variant, sigma)
            assert value == reference_tree_kernel(a, b, variant, sigma)
            assert type(value) is float

    def test_random_pairs(self, rng):
        for _ in range(600):
            self._assert_twins(random_tree(rng, 16), random_tree(rng, 16))

    def test_demo_study_pairs(self, demo_triples):
        for triple in demo_triples:
            for side in ("a", "b"):
                splits = triple.side(side).trees
                pairs = [(src, s) for src in triple.source_trees for s in splits]
                pairs += list(zip(splits, splits[1:]))
                for a, b in pairs:
                    self._assert_twins(a, b)
                    self._assert_twins(strip_token_leaves(a), strip_token_leaves(b))


class TestWorkPerTriple:
    def test_each_tree_prepared_once_per_triple(self, demo_triples, monkeypatch):
        current = []
        kept = []  # every prepared tree stays alive, so no id is reused
        prepared, kernels, teds = Counter(), Counter(), Counter()
        original_kernel = cohesion.tree_kernel
        original_ted = cohesion.tree_edit_distance

        def counting_preparation(name):
            original = getattr(cohesion, name)

            def prepare(tree):
                kept.append(tree)
                prepared[name, current[-1], id(tree)] += 1
                return original(tree)

            monkeypatch.setattr(cohesion, name, prepare)

        def counting_kernel(a, b, variant="subset", sigma=1.0):
            if a is b:
                kernels[current[-1], a, variant] += 1
            return original_kernel(a, b, variant, sigma)

        def counting_ted(a, b):
            teds[current[-1]] += 1
            return original_ted(a, b)

        counting_preparation("_edit_arrays")
        counting_preparation("_kernel_arrays")
        monkeypatch.setattr(cohesion, "tree_kernel", counting_kernel)
        monkeypatch.setattr(cohesion, "tree_edit_distance", counting_ted)
        for triple in demo_triples:
            current.append(triple.id)
            extract_features([triple])
            # The triple's preparations are released with it.
            assert cohesion._scope.get() is None

        assert prepared and max(prepared.values()) == 1
        per_triple = Counter((name, triple_id) for name, triple_id, _ in prepared)
        for triple in demo_triples:
            # The skeletons (for edit distance) and the trees (for the
            # kernels) of 1 source sentence and 2 + 3 splits.
            assert per_triple["_edit_arrays", triple.id] == 6
            assert per_triple["_kernel_arrays", triple.id] == 6
            for variant in ("subset", "subtree"):
                for source in triple.source_trees:
                    assert kernels[triple.id, source, variant] == 1
            # ted1: 1 source x (2 + 3) splits; ted2: 1 + 2 adjacent pairs.
            assert teds[triple.id] == 8


class TestThreads:
    def test_concurrent_scopes_match_one_thread(self, demo_triples):
        # Each thread has its own open scope, as _triple_sides opens one per
        # triple; a scope shared between threads would close under another.
        def features(triple):
            with cohesion.preparation_scope():
                return [
                    (
                        ted1(triple.source_trees[0], triple.side(side).trees),
                        ted2(triple.side(side).trees),
                        kernel_similarity(triple.source_trees, triple.side(side).trees),
                    )
                    for side in ("a", "b")
                ]

        expected = [features(triple) for triple in demo_triples]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as threads:
                results = list(threads.map(features, demo_triples * 16, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 16


class TestOverlap:
    def test_subset_scores_one(self):
        assert overlap_coefficient({"a", "b"}, {"a", "b", "c"}) == 1.0

    def test_disjoint_scores_zero(self):
        assert overlap_coefficient({"a"}, {"b"}) == 0.0

    def test_partial_overlap(self):
        assert overlap_coefficient({"a", "b", "c"}, {"b", "c", "d"}) == 2 / 3

    def test_case_and_punctuation_normalization(self):
        assert overlap_coefficient(["The", "dog", "."], ["the", "DOG", "!"]) == 1.0

    def test_empty_after_normalization_warns(self):
        with pytest.warns(DegenerateInputWarning):
            assert overlap_coefficient([".", ","], ["dog"]) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.text(alphabet="abcdefg", min_size=1, max_size=5), min_size=1))
    def test_self_overlap_is_one(self, tokens):
        assert overlap_coefficient(tokens, tokens) == 1.0
