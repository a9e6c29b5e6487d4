"""Cross-sentence cohesion predictors.

Tree edit distance (Zhang & Shasha 1989 dynamic program, unit costs),
convolution tree kernels in the subset-tree and subtree variants
(Collins & Duffy 2002; Moschitti 2006), and the Szymkiewicz-Simpson
word-overlap coefficient. The subtree kernel counts the pairs of identical
complete subtrees.

The tree measures read flat arrays prepared from each tree. Inside
``preparation_scope()`` a tree object's skeleton, arrays and self-kernels
are made once and held by identity until the scope closes; ``dataset``
opens one per triple, so that both of its sides share them.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from contextvars import ContextVar
from typing import Iterable, Sequence

from .errors import DegenerateInputWarning, ValidationError
from .trees import ParseTree, is_punctuation_token, strip_token_leaves

KERNEL_VARIANTS = ("subset", "subtree")


class preparation_scope:
    """A block in which every tree preparation is made once and held until
    the block ends; a block opened inside another shares the outer one's.
    The outermost block's ``held`` maps (maker, id(tree), *args) to (tree,
    value), keeping the tree alive so that its id stays its own, and its id
    tables number kernel productions and complete subtrees."""

    def __enter__(self) -> None:
        outer = _scope.get()
        if outer is None:
            self.held: dict[tuple, tuple[ParseTree, object]] = {}
            self.production_ids: dict[tuple, int] = {}
            self.subtree_ids: dict[tuple, int] = {}
        self.token = _scope.set(outer or self)

    def __exit__(self, *exc) -> None:
        _scope.reset(self.token)


# The open block of this thread (or task), whose preparations are shared.
_scope: ContextVar[preparation_scope | None] = ContextVar("_scope", default=None)


def _held(tree: ParseTree, make, *args):
    """``make(tree, *args)``, computed once per tree object in the scope."""
    held = _scope.get().held
    key = (make, id(tree), *args)
    entry = held.get(key)
    if entry is None:
        entry = held[key] = (tree, make(tree, *args))
    return entry[1]


class _Paths:
    """Zhang-Shasha bookkeeping for a tree (left paths) or its mirror
    image (right paths), in post-order: labels, leftmost leaf descendants,
    subtree sizes and label sets, the leaf keyroots, and the other
    keyroots with their columns and cost (the sum of their sizes)."""

    def __init__(self, tree: ParseTree, mirror: bool):
        labels, lmd = [], []
        stack = [(tree, -1)]
        while stack:
            node, start = stack.pop()
            if start >= 0:
                labels.append(node.label)
                lmd.append(start)
            else:  # entering the subtree, whose first node comes next
                stack.append((node, len(labels)))
                children = node.children if mirror else node.children[::-1]
                stack += [(child, -1) for child in children]
        sizes = [i - lm + 1 for i, lm in enumerate(lmd)]
        # The highest node with each leftmost leaf.
        keyroots = sorted({lm: i for i, lm in enumerate(lmd)}.values())
        self.labels, self.lmd, self.sizes = labels, lmd, sizes
        self.label_sets = [frozenset(labels[lm : i + 1]) for i, lm in enumerate(lmd)]
        self.leaf_keyroots = [j for j in keyroots if sizes[j] == 1]
        # Per keyroot j, each node y of its subtree with the forest column
        # of lmd(y), which is 0 when y is on j's leftmost path.
        self.keyroots = [
            (j, [(lmd[y] - lmd[j], y) for y in range(lmd[j], j + 1)])
            for j in keyroots
            if sizes[j] > 1
        ]
        self.cost = sum(sizes[j] for j, _ in self.keyroots)


def _edit_arrays(tree: ParseTree) -> tuple[_Paths, _Paths]:
    return _Paths(tree, False), _Paths(tree, True)


def _zhang_shasha(ta: _Paths, tb: _Paths) -> int:
    lmd_a, labels_a, labels_b = ta.lmd, ta.labels, tb.labels
    dist = [[0] * len(labels_b) for _ in labels_a]
    # A leaf against a subtree: map it onto a node with its label if the
    # subtree has one, and insert the other nodes.
    for i in ta.leaf_keyroots:
        label = labels_a[i]
        dist[i] = [s - (label in ls) for s, ls in zip(tb.sizes, tb.label_sets)]
    for j in tb.leaf_keyroots:
        label = labels_b[j]
        for row, s, ls in zip(dist, ta.sizes, ta.label_sets):
            row[j] = s - (label in ls)
    for i, _ in ta.keyroots:
        il = lmd_a[i]
        for _, cols in tb.keyroots:
            # fd[x][y]: distance between the forests of the first x nodes
            # of a from lmd(i) and the first y nodes of b from lmd(j).
            up = list(range(len(cols) + 1))
            fd = [up]
            for xi in range(il, i + 1):
                left = up[0] + 1
                row = [left]
                drow = dist[xi]
                if lmd_a[xi] == il:
                    label = labels_a[xi]
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


def tree_edit_distance(a: ParseTree, b: ParseTree) -> int:
    """Minimum number of node insertions, deletions and relabelings
    turning ordered tree ``a`` into ordered tree ``b`` (unit costs)."""
    with preparation_scope():
        left_a, right_a = _held(a, _edit_arrays)
        left_b, right_b = _held(b, _edit_arrays)
    # Mirroring both trees keeps the distance; take the orientation whose
    # keyroot subtrees give the smaller dynamic program.
    if right_a.cost * right_b.cost < left_a.cost * left_b.cost:
        return _zhang_shasha(right_a, right_b)
    return _zhang_shasha(left_a, left_b)


def ted1(source: ParseTree, splits: Sequence[ParseTree]) -> float:
    """Mean tree edit distance between a source sentence and each sentence
    of its simplification. Token leaves are removed first, so the
    comparison is structural rather than lexical."""
    if not splits:
        raise ValidationError("ted1 requires at least one split sentence")
    with preparation_scope():
        src = _held(source, strip_token_leaves)
        dists = [tree_edit_distance(src, _held(s, strip_token_leaves)) for s in splits]
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
    with preparation_scope():
        stripped = [_held(s, strip_token_leaves) for s in splits]
        dists = [tree_edit_distance(a, b) for a, b in zip(stripped, stripped[1:])]
    return sum(dists) / len(dists)


def _kernel_arrays(tree: ParseTree) -> tuple[list, list, dict, Counter]:
    """The non-leaf nodes of ``tree`` in pre-order: each node's production
    id, its child slots (-1 for a token leaf; none for a preterminal), the
    slots of each production, and the count of each complete-subtree id.
    Ids are numbered per scope, so they compare across its trees."""
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node.children:
            nodes.append(node)
            stack.extend(reversed(node.children))
    # A subtree object met twice gets one slot; both places hold the same.
    slot_of = {id(node): slot for slot, node in enumerate(nodes)}
    kids = [[slot_of[id(c)] if c.children else -1 for c in n.children] for n in nodes]
    scope = _scope.get()
    production_ids, subtree_ids = scope.production_ids, scope.subtree_ids
    productions, subtrees = [0] * len(nodes), [0] * len(nodes)
    for slot in range(len(nodes) - 1, -1, -1):
        node, slots = nodes[slot], kids[slot]
        labels = tuple([child.label for child in node.children])
        # Leafness is in the production, so a terminal never aligns with a
        # nonterminal that carries the same label.
        production = (node.label, labels, tuple([c < 0 for c in slots]))
        productions[slot] = production_ids.setdefault(production, len(production_ids))
        inner = tuple([subtrees[c] if c >= 0 else -1 for c in slots])
        subtree = (node.label, labels, inner)
        subtrees[slot] = subtree_ids.setdefault(subtree, len(subtree_ids))
        kids[slot] = tuple(slots) if max(slots) >= 0 else ()
    by_production: dict[int, list[int]] = {}
    for slot, production in enumerate(productions):
        by_production.setdefault(production, []).append(slot)
    return productions, kids, by_production, Counter(subtrees)


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
    with preparation_scope():
        prod_a, kids_a, _, subtrees_a = _held(a, _kernel_arrays)
        _, kids_b, by_production, subtrees_b = _held(b, _kernel_arrays)
    if variant == "subtree":
        return float(sum(n * subtrees_b.get(s, 0) for s, n in subtrees_a.items()))
    # delta of each pair of nodes with one production, children first; a
    # pair whose productions differ is absent and counts 0.
    delta: dict[tuple[int, int], float] = {}
    for i in range(len(prod_a) - 1, -1, -1):
        for j in by_production.get(prod_a[i], ()):
            # 1 for a preterminal; a token leaf child adds sigma + 0.
            value = 1.0
            for c1, c2 in zip(kids_a[i], kids_b[j]):
                value *= sigma if c1 < 0 else sigma + delta.get((c1, c2), 0.0)
            delta[i, j] = value
    total = 0.0
    for i, production in enumerate(prod_a):
        for j in by_production.get(production, ()):
            total += delta[i, j]
    return total


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
    best_values = []
    with preparation_scope():
        self_b = [_held(b, _self_kernel, variant, sigma) for b in doc_b]
        for a in doc_a:
            ka = _held(a, _self_kernel, variant, sigma)
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
