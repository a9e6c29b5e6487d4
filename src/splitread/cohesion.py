"""Cross-sentence cohesion predictors.

Tree edit distance (Zhang & Shasha 1989 dynamic program, unit costs),
convolution tree kernels in the subset-tree and subtree variants
(Collins & Duffy 2002; Moschitti 2006), and the Szymkiewicz-Simpson
word-overlap coefficient.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Sequence

from .errors import DegenerateInputWarning, ValidationError
from .trees import ParseTree, is_punctuation_token, strip_token_leaves

KERNEL_VARIANTS = ("subset", "subtree")


class _AnnotatedTree:
    """Post-order bookkeeping (leftmost descendants, keyroots) for one tree."""

    def __init__(self, root: ParseTree):
        self.labels: list[str] = []
        self.lmd: list[int] = []

        def visit(node: ParseTree) -> int:
            first_leaf = -1
            for child in node.children:
                leaf = visit(child)
                if first_leaf == -1:
                    first_leaf = leaf
            idx = len(self.labels)
            self.labels.append(node.label)
            self.lmd.append(first_leaf if first_leaf != -1 else idx)
            return self.lmd[idx]

        visit(root)
        last_for_lmd: dict[int, int] = {}
        for idx, leftmost in enumerate(self.lmd):
            last_for_lmd[leftmost] = idx
        self.keyroots = sorted(last_for_lmd.values())


def tree_edit_distance(a: ParseTree, b: ParseTree) -> int:
    """Minimum number of node insertions, deletions and relabelings
    turning ordered tree ``a`` into ordered tree ``b`` (unit costs)."""
    ta, tb = _AnnotatedTree(a), _AnnotatedTree(b)
    na, nb = len(ta.labels), len(tb.labels)
    dist = [[0] * nb for _ in range(na)]

    for i in ta.keyroots:
        for j in tb.keyroots:
            il, jl = ta.lmd[i], tb.lmd[j]
            m, n = i - il + 2, j - jl + 2
            fd = [[0] * n for _ in range(m)]
            ioff, joff = il - 1, jl - 1
            for x in range(1, m):
                fd[x][0] = fd[x - 1][0] + 1
            for y in range(1, n):
                fd[0][y] = fd[0][y - 1] + 1
            for x in range(1, m):
                for y in range(1, n):
                    if ta.lmd[x + ioff] == il and tb.lmd[y + joff] == jl:
                        rename = 0 if ta.labels[x + ioff] == tb.labels[y + joff] else 1
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[x - 1][y - 1] + rename,
                        )
                        dist[x + ioff][y + joff] = fd[x][y]
                    else:
                        p = ta.lmd[x + ioff] - 1 - ioff
                        q = tb.lmd[y + joff] - 1 - joff
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[p][q] + dist[x + ioff][y + joff],
                        )
    return dist[na - 1][nb - 1]


def ted1(source: ParseTree, splits: Sequence[ParseTree]) -> float:
    """Mean tree edit distance between a source sentence and each sentence
    of its simplification. Token leaves are removed first, so the
    comparison is structural rather than lexical."""
    if not splits:
        raise ValidationError("ted1 requires at least one split sentence")
    src = strip_token_leaves(source)
    dists = [tree_edit_distance(src, strip_token_leaves(s)) for s in splits]
    return sum(dists) / len(dists)


def ted2(splits: Sequence[ParseTree]) -> float:
    """Mean tree edit distance over adjacent sentence pairs of a
    simplification, compared without their token leaves. A single-sentence
    input has no pairs and scores 0 (with a warning)."""
    if not splits:
        raise ValidationError("ted2 requires at least one split sentence")
    if len(splits) == 1:
        warnings.warn(
            "ted2 on a single sentence has no adjacent pairs; returning 0",
            DegenerateInputWarning,
            stacklevel=2,
        )
        return 0.0
    stripped = [strip_token_leaves(s) for s in splits]
    dists = [
        tree_edit_distance(stripped[i], stripped[i + 1])
        for i in range(len(stripped) - 1)
    ]
    return sum(dists) / len(dists)


def _production(node: ParseTree) -> tuple:
    # Child leafness is part of the production so that a terminal never
    # aligns with a nonterminal that happens to carry the same label.
    return (node.label, tuple((c.label, c.is_leaf) for c in node.children))


def tree_kernel(
    a: ParseTree, b: ParseTree, variant: str = "subset", sigma: float = 1.0
) -> float:
    """Convolution tree kernel K(a, b) = sum over node pairs of delta.

    ``subset`` counts shared subset-tree fragments: delta is 0 when the
    productions differ, 1 for matching preterminal productions, and
    prod_i (sigma + delta(child_i, child_i)) for matching internal
    productions. ``subtree`` counts only complete shared subtrees, i.e.
    fragments that extend all the way down to identical terminal yields.
    """
    if variant not in KERNEL_VARIANTS:
        raise ValueError(f"unknown kernel variant {variant!r}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    nodes_a = [n for n in a.iter_nodes() if not n.is_leaf]
    nodes_b = [n for n in b.iter_nodes() if not n.is_leaf]
    prod_a = {id(n): _production(n) for n in nodes_a}
    prod_b = {id(n): _production(n) for n in nodes_b}
    by_production: dict[tuple, list[ParseTree]] = {}
    for n in nodes_b:
        by_production.setdefault(prod_b[id(n)], []).append(n)

    memo: dict[tuple[int, int], float] = {}

    def delta(n1: ParseTree, n2: ParseTree) -> float:
        if n1.is_leaf or n2.is_leaf:
            return 0.0
        key = (id(n1), id(n2))
        cached = memo.get(key)
        if cached is not None:
            return cached
        if prod_a[id(n1)] != prod_b[id(n2)]:
            memo[key] = 0.0
            return 0.0
        if all(c.is_leaf for c in n1.children):
            memo[key] = 1.0
            return 1.0
        if variant == "subset":
            value = 1.0
            for c1, c2 in zip(n1.children, n2.children):
                value *= sigma + delta(c1, c2)
        else:
            value = 1.0
            for c1, c2 in zip(n1.children, n2.children):
                if c1.is_leaf:
                    continue
                if delta(c1, c2) == 0.0:
                    value = 0.0
                    break
        memo[key] = value
        return value

    total = 0.0
    for n1 in nodes_a:
        for n2 in by_production.get(prod_a[id(n1)], ()):
            total += delta(n1, n2)
    return total


def kernel_similarity(
    doc_a: Sequence[ParseTree],
    doc_b: Sequence[ParseTree],
    variant: str = "subset",
    sigma: float = 1.0,
) -> float:
    """Document-level kernel similarity.

    For every sentence of ``doc_a``, its best normalized kernel value
    K(a,b)/sqrt(K(a,a) K(b,b)) over the sentences of ``doc_b``; the mean
    of these maxima is returned.
    """
    if not doc_a or not doc_b:
        raise ValidationError("kernel_similarity requires two non-empty documents")

    def self_k(tree: ParseTree) -> float:
        value = tree_kernel(tree, tree, variant, sigma)
        if value <= 0:
            raise ValidationError(
                "tree has no internal structure; self-kernel is zero"
            )
        return value

    self_b = [self_k(b) for b in doc_b]
    best_values = []
    for a in doc_a:
        ka = self_k(a)
        best = 0.0
        for b, kb in zip(doc_b, self_b):
            kab = tree_kernel(a, b, variant, sigma)
            if kab:
                best = max(best, kab / math.sqrt(ka * kb))
        best_values.append(best)
    return sum(best_values) / len(best_values)


def normalize_token_set(tokens: Iterable[str]) -> set[str]:
    """Lowercase the tokens and drop the ones that are pure punctuation."""
    return {
        tok.lower() for tok in tokens if tok and not is_punctuation_token(tok)
    }


def overlap_coefficient(tokens_a: Iterable[str], tokens_b: Iterable[str]) -> float:
    """Szymkiewicz-Simpson coefficient |A & B| / min(|A|, |B|) over the
    normalized word sets. An empty set after normalization scores 0 (with
    a warning)."""
    set_a = normalize_token_set(tokens_a)
    set_b = normalize_token_set(tokens_b)
    if not set_a or not set_b:
        warnings.warn(
            "overlap on an empty normalized token set; returning 0",
            DegenerateInputWarning,
            stacklevel=2,
        )
        return 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))
