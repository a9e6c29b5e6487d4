"""Cross-sentence cohesion predictors.

Tree edit distance (Zhang & Shasha 1989 dynamic program, unit costs),
convolution tree kernels in the subset-tree and subtree variants
(Collins & Duffy 2002; Moschitti 2006), and the Szymkiewicz-Simpson
word-overlap coefficient. The subtree kernel counts the pairs of identical
complete subtrees. Each tree's skeleton, edit-distance bookkeeping, kernel
index and self-kernel are kept in small caches keyed by tree value, so the
two sides of a triple prepare each of its trees once.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DegenerateInputWarning, ValidationError
from .trees import ParseTree, is_punctuation_token, strip_token_leaves

KERNEL_VARIANTS = ("subset", "subtree")
_CACHE_SIZE = 32  # entries per per-tree cache: room for every tree of a triple


class _AnnotatedTree:
    """Post-order bookkeeping (leftmost descendants, keyroots) for one tree."""

    def __init__(self, root: ParseTree):
        self.labels: list[str] = []
        self.lmd: list[int] = []

        def visit(node: ParseTree) -> int:
            leftmost = [visit(child) for child in node.children]
            self.lmd.append(leftmost[0] if leftmost else len(self.labels))
            self.labels.append(node.label)
            return self.lmd[-1]

        visit(root)
        # The highest node with each leftmost leaf.
        self.keyroots = sorted({lm: idx for idx, lm in enumerate(self.lmd)}.values())


@lru_cache(maxsize=_CACHE_SIZE)
def _annotated(tree: ParseTree) -> _AnnotatedTree:
    return _AnnotatedTree(tree)


_skeleton = lru_cache(maxsize=_CACHE_SIZE)(strip_token_leaves)


def tree_edit_distance(a: ParseTree, b: ParseTree) -> int:
    """Minimum number of node insertions, deletions and relabelings
    turning ordered tree ``a`` into ordered tree ``b`` (unit costs)."""
    ta, tb = _annotated(a), _annotated(b)
    lmd_a, labels_b = ta.lmd, tb.labels
    dist = [[0] * len(labels_b) for _ in ta.labels]
    # Per keyroot j of b, each node yj of its subtree with the forest column
    # q of lmd(yj), which is 0 when yj is on j's leftmost path.
    columns = [
        [(tb.lmd[yj] - tb.lmd[j], yj) for yj in range(tb.lmd[j], j + 1)]
        for j in tb.keyroots
    ]
    for i in ta.keyroots:
        il = lmd_a[i]
        for cols in columns:
            # fd[x][y]: distance between the forests of the first x nodes
            # of a from lmd(i) and the first y nodes of b from lmd(j).
            up = list(range(len(cols) + 1))
            fd = [up]
            for xi in range(il, i + 1):
                left = up[0] + 1
                row = [left]
                drow = dist[xi]
                if lmd_a[xi] == il:
                    label = ta.labels[xi]
                    diag = up[0]
                    for above, (q, yj) in zip(up[1:], cols):
                        v = (above if above < left else left) + 1
                        w = q + drow[yj] if q else diag + (label != labels_b[yj])
                        if w < v:
                            v = w
                        if not q:
                            drow[yj] = v
                        row.append(v)
                        diag, left = above, v
                else:
                    prev = fd[lmd_a[xi] - il]
                    for above, (q, yj) in zip(up[1:], cols):
                        v = (above if above < left else left) + 1
                        w = prev[q] + drow[yj]
                        if w < v:
                            v = w
                        row.append(v)
                        left = v
                fd.append(row)
                up = row
    return dist[-1][-1]


def ted1(source: ParseTree, splits: Sequence[ParseTree]) -> float:
    """Mean tree edit distance between a source sentence and each sentence
    of its simplification. Token leaves are removed first, so the
    comparison is structural rather than lexical."""
    if not splits:
        raise ValidationError("ted1 requires at least one split sentence")
    src = _skeleton(source)
    dists = [tree_edit_distance(src, _skeleton(s)) for s in splits]
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
    stripped = [_skeleton(s) for s in splits]
    dists = [
        tree_edit_distance(stripped[i], stripped[i + 1])
        for i in range(len(stripped) - 1)
    ]
    return sum(dists) / len(dists)


@lru_cache(maxsize=_CACHE_SIZE)
def _kernel_index(tree: ParseTree) -> tuple[list, list, dict, Counter]:
    """The non-leaf nodes of ``tree`` in pre-order: each node's production,
    its child slots (-1 for a token leaf; none for a preterminal), the
    slots of each production, and the count of each complete subtree."""
    productions, children, by_production, subtrees = [], [], {}, Counter()

    def visit(node: ParseTree) -> tuple:
        # Returns the complete subtree as nested tuples with token leaves as
        # bare labels; leafness is in the production too, so a terminal
        # never aligns with a nonterminal that carries the same label.
        slot = len(productions)
        production = (node.label, tuple((c.label, c.is_leaf) for c in node.children))
        productions.append(production)
        children.append(())
        by_production.setdefault(production, []).append(slot)
        slots, shapes = [], []
        for child in node.children:
            slots.append(-1 if child.is_leaf else len(productions))
            shapes.append(child.label if child.is_leaf else visit(child))
        if any(c >= 0 for c in slots):
            children[slot] = tuple(slots)
        shape = (node.label, tuple(shapes))
        subtrees[shape] += 1
        return shape

    if not tree.is_leaf:
        visit(tree)
    return productions, children, by_production, subtrees


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
    if not sigma > 0:  # NaN included
        raise ValueError(f"sigma must be positive, got {sigma}")
    prod_a, kids_a, _, subtrees_a = _kernel_index(a)
    prod_b, kids_b, by_production, subtrees_b = _kernel_index(b)
    if variant == "subtree":
        return float(sum(n * subtrees_b.get(s, 0) for s, n in subtrees_a.items()))
    memo: dict[tuple[int, int], float] = {}

    def delta(i: int, j: int) -> float:
        key = (i, j)
        cached = memo.get(key)
        if cached is not None:
            return cached
        value = 0.0
        if prod_a[i] == prod_b[j]:
            # 1 for a preterminal; a token leaf child adds sigma + 0.
            value = 1.0
            for c1, c2 in zip(kids_a[i], kids_b[j]):
                value *= sigma if c1 < 0 else sigma + delta(c1, c2)
        memo[key] = value
        return value

    total = 0.0
    for i, production in enumerate(prod_a):
        for j in by_production.get(production, ()):
            total += delta(i, j)
    return total


@lru_cache(maxsize=_CACHE_SIZE)
def _self_kernel(tree: ParseTree, variant: str, sigma: float) -> float:
    value = tree_kernel(tree, tree, variant, sigma)
    if value <= 0:
        raise ValidationError("tree has no internal structure; self-kernel is zero")
    return value


def kernel_similarity(
    doc_a: Sequence[ParseTree],
    doc_b: Sequence[ParseTree],
    variant: str = "subset",
    sigma: float = 1.0,
) -> float:
    """Document-level kernel similarity.

    For every sentence of ``doc_a``, its best normalized kernel value
    K(a,b)/sqrt(K(a,a) K(b,b)) over the sentences of ``doc_b``; the mean
    of these maxima is returned. A self-kernel or a product K(a,a) K(b,b)
    past the float range, as a large ``sigma`` gives, is a ValidationError.
    """
    if not doc_a or not doc_b:
        raise ValidationError("kernel_similarity requires two non-empty documents")
    self_b = [_self_kernel(b, variant, sigma) for b in doc_b]
    best_values = []
    for a in doc_a:
        ka = _self_kernel(a, variant, sigma)
        if not math.isfinite(ka * max(self_b)):
            raise ValidationError(
                f"tree kernel overflows the float range at kernel_sigma {sigma!r}"
            )
        best = 0.0
        for b, kb in zip(doc_b, self_b):
            best = max(best, tree_kernel(a, b, variant, sigma) / math.sqrt(ka * kb))
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
