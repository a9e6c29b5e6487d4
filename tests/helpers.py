"""Shared generators and independent oracle implementations.

The oracles deliberately avoid the production code paths: tree edit
distance is recomputed with a memoized forest recursion, kernels by
explicit fragment enumeration, the word-level tree scores by
path-at-a-time traversals, and the leapfrog integrator with the full log
density on every step. The reference twins at the end are earlier
versions of production functions, kept verbatim for exact comparisons.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from splitread import pool
from splitread.cohesion import KERNEL_VARIANTS
from splitread.config import FeatureConfig
from splitread.dataset import (
    CATEGORIES,
    SIDE_PREDICTORS,
    GroupComparison,
    JudgmentRecord,
    SideScores,
    _located,
    _object,
    _require,
    _string,
    _t_pvalue,
    extract_features,
    load_triples,
)
from splitread.errors import (
    FormatError,
    IntegrityError,
    ParseError,
    ValidationError,
)
from splitread.inference import _LOG_2PI, _expit, _signed_design, _softplus
from splitread.synth import make_demo_dataset
from splitread.trees import (
    DepGraph,
    ParseTree,
    _byte_offset,
    _strip_function_tag,
    is_punctuation_token,
)

LABELS = ("A", "B", "C", "S")
TOKENS = ("x", "y", "z", "w")


def random_tree(rng: np.random.Generator, max_nodes: int) -> ParseTree:
    """Random ordered labeled tree with an internal root; token leaves."""
    budget = int(rng.integers(2, max_nodes + 1))

    def build(n: int) -> ParseTree:
        if n == 1:
            return ParseTree(str(rng.choice(TOKENS)))
        n_children = int(rng.integers(1, min(3, n - 1) + 1))
        remaining = n - 1
        sizes = []
        for j in range(n_children):
            left = n_children - 1 - j
            hi = remaining - left
            size = int(rng.integers(1, hi + 1)) if j < n_children - 1 else remaining
            sizes.append(size)
            remaining -= size
        return ParseTree(
            str(rng.choice(LABELS)), tuple(build(s) for s in sizes)
        )

    return build(budget)


def to_bracketed(tree: ParseTree) -> str:
    """``tree`` as one bracketed string, which ``parse_ptb`` reads back
    to the same tree."""
    if tree.is_leaf:
        return tree.label
    return f"({tree.label} {' '.join(to_bracketed(c) for c in tree.children)})"


# Pieces of random bracket strings: labels with function tags,
# coindexation and traces, tokens with punctuation and non-ASCII text.
_BRACKET_LABELS = ("NP-SBJ", "S=2", "-NONE-", "", "é", "VP", ".")
_BRACKET_TOKENS = ("x", "é", ".", ",", "``", "*T*", "-LRB-", "NP-SBJ")
_BRACKET_SPACES = ("", " ", " ", "\n", "\t ")


def random_bracket_string(rng: random.Random) -> str:
    """Zero to two random bracket groups, then up to two characters
    deleted or inserted, so that both readable trees and every kind of
    reader error come up often."""

    def group(depth: int) -> str:
        parts = ["(", rng.choice(_BRACKET_SPACES), rng.choice(_BRACKET_LABELS)]
        for _ in range(rng.choice((0, 1, 1, 2, 3)) if depth < 4 else 1):
            parts.append(rng.choice(_BRACKET_SPACES[1:]))
            if rng.random() < 0.5:
                parts.append(group(depth + 1))
            else:
                parts.append(rng.choice(_BRACKET_TOKENS))
        parts += [rng.choice(_BRACKET_SPACES), ")"]
        return "".join(parts)

    text = " ".join(group(0) for _ in range(rng.choice((0, 1, 1, 2))))
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randint(0, len(text))
        if rng.random() < 0.5:
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + rng.choice("() xé") + text[i:]
    return text


# Pieces of random CoNLL-U texts: IDs and HEADs that must be rejected,
# FORMs with a space or a '#', and the three line endings.
_CONLLU_BAD_NUMBERS = ("2-", "x.y", "1_0", "+1", "\u0663", " 3", "1-2-3", "", "-1")
_CONLLU_FORMS = ("x", "é", "New York", "#", "a\u2028b")
_CONLLU_COMMENTS = ("# sent_id = 1", "  # text = x", "#")
_CONLLU_BLANKS = ("", "", "  ", "\t")


def random_conllu_text(rng: random.Random) -> str:
    """Zero to three random sentences: mostly single-rooted trees, with
    comments, blank lines, ``1-2`` and ``1.1`` lines, malformed IDs and
    HEADs, rewired heads (cycles, 0 or 2 roots), short lines and lines
    split on spaces, joined by \n, \r\n or a lone \r."""
    lines = []
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        if rng.random() < 0.3:
            lines.append(rng.choice(_CONLLU_COMMENTS))
        n = rng.randint(1, 5)
        # Token 1 is the root and every other token hangs off an earlier one.
        heads = [0] + [rng.randint(1, i) for i in range(1, n)]
        if rng.random() < 0.25:
            heads[rng.randrange(n)] = rng.randint(0, n + 1)
        for i, head in enumerate(heads, start=1):
            if rng.random() < 0.08:
                skipped = rng.choice((f"{i}-{i + 1}", f"{i}.1"))
                lines.append(f"{skipped}\tw\t_\t_\t_\t_\t_\t_\t_\t_")
            token_id, head_text = str(i), str(head)
            if rng.random() < 0.04:
                token_id = rng.choice(_CONLLU_BAD_NUMBERS)
            if rng.random() < 0.04:
                head_text = rng.choice(_CONLLU_BAD_NUMBERS)
            cols = [token_id, rng.choice(_CONLLU_FORMS), "_", "_", "_", "_",
                    head_text, "dep" if head else "root", "_", "_"]
            if rng.random() < 0.04:
                cols = cols[: rng.randint(1, 9)]
            sep = "\t" if rng.random() < 0.85 else rng.choice((" ", "  ", " \t"))
            lines.append(sep.join(cols))
        lines.append(rng.choice(_CONLLU_BLANKS))
    newline = rng.choice(("\n", "\n", "\r\n", "\r"))
    return newline.join(lines) + rng.choice(("", newline))


def random_dep_graph(rng: np.random.Generator, n_tokens: int) -> DepGraph:
    order = rng.permutation(n_tokens)
    heads = [0] * n_tokens
    placed = [int(order[0])]
    for idx in order[1:]:
        heads[int(idx)] = int(rng.choice(placed)) + 1
        placed.append(int(idx))
    return DepGraph(tuple(heads))


def naive_ted(a: ParseTree, b: ParseTree) -> int:
    """Ordered tree edit distance via the plain forest recursion."""

    @lru_cache(maxsize=None)
    def forest_dist(fa: tuple, fb: tuple) -> int:
        if not fa and not fb:
            return 0
        if not fa:
            return sum(1 for t in fb for _ in t.iter_nodes())
        if not fb:
            return sum(1 for t in fa for _ in t.iter_nodes())
        ta, tb = fa[-1], fb[-1]
        delete = 1 + forest_dist(fa[:-1] + ta.children, fb)
        insert = 1 + forest_dist(fa, fb[:-1] + tb.children)
        relabel = (
            (0 if ta.label == tb.label else 1)
            + forest_dist(ta.children, tb.children)
            + forest_dist(fa[:-1], fb[:-1])
        )
        return min(delete, insert, relabel)

    result = forest_dist((a,), (b,))
    forest_dist.cache_clear()
    return result


def _complete_subtree_strings(tree: ParseTree) -> list[str]:
    out = []
    for node in tree.iter_nodes():
        if not node.is_leaf:
            out.append(to_bracketed(node))
    return out


def naive_subtree_kernel(a: ParseTree, b: ParseTree) -> float:
    ca = Counter(_complete_subtree_strings(a))
    cb = Counter(_complete_subtree_strings(b))
    return float(sum(ca[s] * cb[s] for s in ca))


def _fragments_rooted(node: ParseTree) -> list[str]:
    # Terminal children are marked "t:"; unexpanded nonterminals "n:" so
    # that a terminal never matches a like-labeled nonterminal.
    options = []
    for child in node.children:
        if child.is_leaf:
            options.append([f"t:{child.label}"])
        else:
            options.append([f"n:{child.label}"] + _fragments_rooted(child))
    return [
        "(" + node.label + " " + " ".join(combo) + ")"
        for combo in itertools.product(*options)
    ]


def _fragment_strings(tree: ParseTree) -> list[str]:
    out = []
    for node in tree.iter_nodes():
        if not node.is_leaf:
            out.extend(_fragments_rooted(node))
    return out


def naive_subset_kernel(a: ParseTree, b: ParseTree) -> float:
    """Shared subset-tree fragment count (the sigma = 1 kernel)."""
    ca = Counter(_fragment_strings(a))
    cb = Counter(_fragment_strings(b))
    return float(sum(ca[s] * cb[s] for s in ca))


def naive_yngve_costs(tree: ParseTree) -> list[float]:
    costs = []

    def descend(node: ParseTree, spine: list[tuple[ParseTree, int]]) -> None:
        for i, child in enumerate(node.children):
            path = spine + [(node, i)]
            if child.is_leaf:
                costs.append(
                    float(sum(len(p.children) - 1 - idx for p, idx in path))
                )
            else:
                descend(child, path)

    descend(tree, [])
    return costs


def naive_frazier_costs(tree: ParseTree) -> list[float]:
    costs = []

    def weight(node: ParseTree) -> float:
        return 1.5 if node.label.startswith("S") else 1.0

    def descend(node: ParseTree, spine: list[tuple[ParseTree, int]]) -> None:
        for i, child in enumerate(node.children):
            path = spine + [(node, i)]
            if not child.is_leaf:
                descend(child, path)
                continue
            if i != 0:
                costs.append(0.0)
                continue
            total = 0.0
            # Ancestors from the leaf's parent upward; positions come from
            # the spine one level up.
            for level in range(len(path) - 1, -1, -1):
                ancestor = path[level][0]
                if level == 0:
                    total += weight(ancestor)
                    break
                if path[level - 1][1] != 0:
                    break
                total += weight(ancestor)
            costs.append(total)

    descend(tree, [])
    return costs


def naive_tnodes(tree: ParseTree) -> float:
    def count(node: ParseTree) -> tuple[int, int]:
        if node.is_leaf:
            return 0, 1
        nodes, tokens = 1, 0
        for child in node.children:
            cn, ct = count(child)
            nodes += cn
            tokens += ct
        return nodes, tokens

    nodes, tokens = count(tree)
    return nodes / tokens


def naive_leapfrog(q, p, grad, eps, n_steps, logpost):
    """Leapfrog integration that evaluates the full log density on every
    step. Column j of (k, W) arrays, or the one trajectory of (k,) arrays,
    takes ``n_steps[j]`` steps of ``eps[j]``: its interior kicks use the
    gradient-only force ``logpost(q, value=False)``, its last half-kick the
    full call's gradient at its end. It stops at its end or at its first
    non-finite value, gradient or interior force, with density -inf; a
    stopped column keeps its place, unchanged, in every later evaluation."""
    q, p = np.array(q, dtype=float), np.array(p, dtype=float)
    k = q.shape[0]
    qs, ps = q.reshape(k, -1), p.reshape(k, -1)  # views: one column each
    width = qs.shape[1]
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (width,))
    n_steps = np.broadcast_to(np.asarray(n_steps), (width,))
    grads = np.array(grad, dtype=float).reshape(k, -1)
    lps = np.full(width, -math.inf)
    for j in range(width):
        ps[:, j] += 0.5 * eps[j] * grads[:, j]
    running = {j for j in range(width) if n_steps[j] > 0}
    for step in range(1, max(n_steps) + 1):
        for j in running:
            qs[:, j] += eps[j] * ps[:, j]
        lp, g = logpost(q)
        _, force = logpost(q, value=False)
        lp, g, force = np.atleast_1d(lp), g.reshape(k, -1), force.reshape(k, -1)
        for j in sorted(running):
            interior = step < n_steps[j]
            finite = np.isfinite(g[:, j]).all() and math.isfinite(lp[j])
            if not finite or interior and not np.isfinite(force[:, j]).all():
                grads[:, j] = g[:, j]
                running.discard(j)
            elif interior:
                ps[:, j] += eps[j] * force[:, j]
            else:
                ps[:, j] += 0.5 * eps[j] * g[:, j]
                lps[j], grads[:, j] = lp[j], g[:, j]
                running.discard(j)
    grad = grads.reshape(q.shape)
    return q, p, (lps if q.ndim == 2 else lps[0]), grad


def pin_lanes(monkeypatch, lanes):
    """Run every job of the lane pool, the pairs of chains of
    ``sample_posterior`` and the triples of ``extract_features``, in
    ``lanes`` processes."""
    monkeypatch.setattr(pool, "lanes", lambda jobs: lanes)


def fresh_interpreter_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports the splitread
    under test: ``os.environ`` with its ``src`` directory put first on
    PYTHONPATH."""
    src = str(Path(pool.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


def nan_density_in_children(logpost):
    """``logpost`` made to return a NaN density in every process other
    than the calling one, such as a forked sampler worker."""
    parent = os.getpid()

    def wrapped(beta, *args, value=True):
        lp, grad = logpost(beta, *args, value=value)
        return (lp if os.getpid() == parent else math.nan), grad

    return wrapped


def _zscores(values: list[float]) -> list[float]:
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    return [(v - mean) / sd for v in values]


def make_known_effect_study(
    out_dir, effects: dict[str, float], seed: int = 0
) -> tuple[Path, Path]:
    """The paper-scale demo study (221 triples x 7 workers, data seed 3)
    with every definite A_vs_B choice redrawn from known effects:
    P(first) = expit(sum_p effects[p] * (z_p(a) - z_p(b))).

    A side predictor is z-scored over the 442 sides, a score category over
    the two sides of every definite A_vs_B record. The redraws come from
    ``random.Random(seed)``; every other record and field stays as written.
    """
    triples_path, judgments_path = make_demo_dataset(
        out_dir, n_triples=221, n_workers=7, seed=3
    )
    side_names = tuple(p for p in effects if p in SIDE_PREDICTORS)
    header, rows = extract_features(
        load_triples(triples_path), FeatureConfig(predictors=side_names)
    )
    # z[key, side, name]: the key is a triple id for a side predictor and
    # a record's id() for a score category.
    z: dict[tuple, float] = {}
    for k, name in enumerate(header[2:], start=2):
        for row, value in zip(rows, _zscores([row[k] for row in rows])):
            z[row[0], row[1], name] = value
    lines = judgments_path.read_text("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    decided = [
        r for r in records if r["question"] == "A_vs_B" and r["choice"] != "not_sure"
    ]
    sides = [(r, side) for r in decided for side in ("a", "b")]
    for cat in effects.keys() & set(CATEGORIES):
        scores = _zscores([r["scores"][side][cat] for r, side in sides])
        for (r, side), value in zip(sides, scores):
            z[id(r), side, cat] = value
    rng = random.Random(seed)
    for r in decided:
        margin = 0.0
        for name, beta in effects.items():
            key = id(r) if name in CATEGORIES else r["triple_id"]
            margin += beta * (z[key, "a", name] - z[key, "b", name])
        first = rng.random() < 1 / (1 + math.exp(-margin))
        r["choice"] = "first" if first else "second"
    judgments_path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return triples_path, judgments_path


# Reference twins: tree_edit_distance and tree_kernel as they were before
# the per-tree caches, the tightened Zhang-Shasha loop and the subtree
# kernel by counting, kept verbatim so the rewrites can be pinned to them
# with exact equality.


class _ReferenceAnnotatedTree:
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


def reference_tree_edit_distance(a: ParseTree, b: ParseTree) -> int:
    """Minimum number of node insertions, deletions and relabelings
    turning ordered tree ``a`` into ordered tree ``b`` (unit costs)."""
    ta, tb = _ReferenceAnnotatedTree(a), _ReferenceAnnotatedTree(b)
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


def _reference_production(node: ParseTree) -> tuple:
    # Child leafness is part of the production so that a terminal never
    # aligns with a nonterminal that happens to carry the same label.
    return (node.label, tuple((c.label, c.is_leaf) for c in node.children))


def reference_tree_kernel(
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
    prod_a = {id(n): _reference_production(n) for n in nodes_a}
    prod_b = {id(n): _reference_production(n) for n in nodes_b}
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


# Reference twin: parse_ptb as it was before the one-pass reader, a
# recursive descent that built each group and then rebuilt it cleaned up,
# kept verbatim so the rewrite can be pinned to it. The unchanged helpers
# (byte offsets, function tags, punctuation) come from the program.


def _reference_read_atom(text: str, pos: int) -> tuple[str, int]:
    start = pos
    n = len(text)
    while pos < n and not text[pos].isspace() and text[pos] not in "()":
        pos += 1
    return text[start:pos], pos


def _reference_skip_space(text: str, pos: int) -> int:
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    return pos


def _reference_parse_group(text: str, pos: int) -> tuple[ParseTree, int]:
    # pos points at '('
    open_offset = pos
    pos = _reference_skip_space(text, pos + 1)
    label, pos = _reference_read_atom(text, pos)
    children: list[ParseTree] = []
    while True:
        pos = _reference_skip_space(text, pos)
        if pos >= len(text):
            raise ParseError("unbalanced brackets", _byte_offset(text, len(text)))
        ch = text[pos]
        if ch == ")":
            pos += 1
            break
        if ch == "(":
            child, pos = _reference_parse_group(text, pos)
            children.append(child)
        else:
            atom, pos = _reference_read_atom(text, pos)
            children.append(ParseTree(atom))
    if not children:
        raise ValidationError(
            f"bracket group at byte offset {_byte_offset(text, open_offset)} "
            "has no terminal yield"
        )
    return ParseTree(label, tuple(children)), pos


def _reference_transform(node: ParseTree, keep_punctuation: bool) -> ParseTree | None:
    """Drop traces (and optionally punctuation leaves), strip function tags.

    Returns None when nothing with a terminal yield survives below node.
    """
    if node.is_leaf:
        if not keep_punctuation and is_punctuation_token(node.label):
            return None
        return node
    if node.label == "-NONE-":
        return None
    kept = []
    for child in node.children:
        new = _reference_transform(child, keep_punctuation)
        if new is not None:
            kept.append(new)
    if not kept:
        return None
    return ParseTree(_strip_function_tag(node.label), tuple(kept))


def reference_parse_ptb(text: str, *, keep_punctuation: bool = True) -> list[ParseTree]:
    """Parse whitespace-separated bracketed trees, one ParseTree per group.

    Unlabeled unary wrappers around a whole tree are collapsed into their
    single child, trace subtrees (-NONE-) are removed, and grammatical
    function tags are always stripped from nonterminal labels.
    Punctuation leaves are kept by default; ``keep_punctuation=False``
    drops them together with any node left empty.
    """
    trees: list[ParseTree] = []
    pos = _reference_skip_space(text, 0)
    while pos < len(text):
        if text[pos] != "(":
            raise ParseError(
                f"expected '(' but found {text[pos]!r}", _byte_offset(text, pos)
            )
        tree, pos = _reference_parse_group(text, pos)
        cleaned = _reference_transform(tree, keep_punctuation)
        if cleaned is None or cleaned.is_leaf:
            raise ValidationError("bracket group has no terminal yield after cleanup")
        # Collapse outer wrappers like "( (S ...) )" produced by treebank tools.
        while (
            cleaned.label == ""
            and len(cleaned.children) == 1
            and not cleaned.children[0].is_leaf
        ):
            cleaned = cleaned.children[0]
        trees.append(cleaned)
        pos = _reference_skip_space(text, pos)
    return trees


def reference_pointwise_loglik(draws, matrix) -> np.ndarray:
    """``selection.pointwise_loglik`` as whole-array arithmetic on the
    sampler's signed design: -softplus(-v) of the margins v = beta A^T,
    with no row blocks, no in-place updates and the softplus written out."""
    A = _signed_design(matrix.predictor_matrix(draws.names[1:]), matrix.y)
    v = draws.pooled() @ A.T  # (S, n)
    return -(np.maximum(-v, 0.0) + np.log1p(np.exp(-np.abs(v))))


def reference_waic(loglik: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """``selection.waic`` as whole-array arithmetic, as (elpd_i, waic,
    p_waic, se)."""
    n_samples, n_rows = loglik.shape
    top = loglik.max(axis=0)
    lppd_i = top + np.log(np.exp(loglik - top).sum(axis=0)) - math.log(n_samples)
    p_i = (loglik - loglik[0]).var(axis=0, ddof=1)
    elpd_i = lppd_i - p_i
    se = math.sqrt(n_rows * float(elpd_i.var())) if n_rows > 1 else 0.0
    return elpd_i, float(elpd_i.sum()), float(p_i.sum()), se


def _reference_fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def reference_features_text(config_header: str, header, rows) -> str:
    """``cli.cmd_extract``'s features.csv before the artifact writer."""
    lines = [config_header, ",".join(header)]
    for row in rows:
        lines.append(",".join(_reference_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_summary_text(config_header: str, draws, summary) -> str:
    """``cli.cmd_fit``'s summary.csv before the artifact writer."""
    lines = [
        config_header,
        f"# divergences={draws.divergences} "
        f"accept_rate={','.join(f'{r:.3f}' for r in draws.accept_rate)} "
        f"step_size={','.join(f'{e:.4g}' for e in draws.step_size)} "
        f"grad_evals={','.join(str(n) for n in draws.grad_evals)}",
        "coefficient,mean,sd,hdi_low,hdi_high,rhat",
    ]
    for row in summary.rows:
        lines.append(
            ",".join(
                [
                    row.name,
                    repr(row.mean),
                    repr(row.sd),
                    repr(row.hdi_low),
                    repr(row.hdi_high),
                    repr(row.rhat),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def reference_histograms_text(config_header: str, summary) -> str:
    """``cli.cmd_fit``'s histograms.csv before the artifact writer."""
    hist_lines = [config_header, "coefficient,bin_left,bin_right,count"]
    for name, (edges, counts) in summary.histograms.items():
        for j, count in enumerate(counts):
            hist_lines.append(
                f"{name},{float(edges[j])!r},{float(edges[j + 1])!r},{int(count)}"
            )
    return "\n".join(hist_lines) + "\n"


def reference_draws_text(draws, header_comment: str = "") -> str:
    """``inference.draws_to_csv``'s file before the artifact writer."""
    lines = []
    if header_comment:
        lines.append(header_comment.rstrip("\n"))
    lines.append(",".join(["chain", "draw", *draws.names, "lp"]))
    n_chains, n_draws = draws.logp.shape
    for c in range(n_chains):
        for d in range(n_draws):
            values = [repr(float(v)) for v in draws.draws[c, d]]
            lines.append(
                ",".join([str(c), str(d), *values, repr(float(draws.logp[c, d]))])
            )
    return "\n".join(lines) + "\n"


def reference_ablation_csv(config_header: str, table) -> str:
    """``cli.cmd_ablate``'s ablation.csv, joined cell by cell without
    ``dataset.csv_line`` or the artifact writer."""
    lines = ["predictor,rank,waic,p_waic,d_waic,se,dse,flag"]
    for r in table.rows:
        lines.append(
            ",".join(
                [
                    r.name,
                    str(r.rank),
                    repr(r.waic),
                    repr(r.p_waic),
                    repr(r.d_waic),
                    repr(r.se),
                    repr(r.dse),
                    "" if r.converged else "rhat>1.05",
                ]
            )
        )
    return "\n".join([config_header, *lines]) + "\n"


# Reference twin: the log density as it was before the signed design,
# on the unsigned predictor matrix X and the outcome y, kept verbatim so
# the margin form can be pinned to it. The sigmoid and softplus come from
# the program (the sigmoid keeps its bits).


def reference_logpost_arrays(
    beta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    prior_sd: np.ndarray,
    *,
    value: bool = True,
) -> tuple[float, np.ndarray]:
    """Log density and gradient; with ``value=False`` only the gradient
    (bit-identical to the full call's) and NaN in place of the density."""
    t = beta[0] + X @ beta[1:]
    lam = _expit(t)
    resid = y - lam
    grad = np.empty_like(beta)
    grad[0] = resid.sum()
    grad[1:] = X.T @ resid
    grad -= beta / prior_sd**2
    if not value:
        return math.nan, grad
    # log lik = sum y*t - log(1 + e^t), computed stably.
    loglik = float(y @ t - _softplus(t).sum())
    z = beta / prior_sd
    logprior = float(
        -0.5 * (z @ z) - np.log(prior_sd).sum() - 0.5 * _LOG_2PI * beta.size
    )
    return loglik + logprior, grad


def reference_score_summary(group_a, group_b) -> dict:
    """``dataset.score_summary`` as it was on numpy arrays, kept verbatim
    so the ``math`` version can be pinned to it."""
    out = {}
    for cat in CATEGORIES:
        a = np.asarray(group_a[cat], dtype=float)
        b = np.asarray(group_b[cat], dtype=float)
        if len(a) < 2 or len(b) < 2:
            raise ValidationError(
                f"{cat}: need at least 2 observations per group for a t-test"
            )
        va = a.var(ddof=1) / len(a)
        vb = b.var(ddof=1) / len(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_stat = (a.mean() - b.mean()) / np.sqrt(va + vb)
            df = (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))
        # Both groups constant: df is 0/0, yet t = +-inf gives p = 0 and
        # t = NaN gives p = NaN whatever df is.
        p_value = _t_pvalue(1.0 if np.isnan(df) else float(df), float(t_stat))
        out[cat] = GroupComparison(
            mean_a=float(a.mean()),
            sd_a=float(a.std(ddof=1)),
            mean_b=float(b.mean()),
            sd_b=float(b.std(ddof=1)),
            p_value=float(p_value),
        )
    return out


# Reference twin: parse_conllu as it was before the one-split reader,
# kept verbatim but for the tab rule (a line holding a tab is split on
# tabs alone; the old reader re-split a line with fewer than 8 tab
# columns on whitespace), for the ID rule, now checked at the ID's line,
# and for what it returns. Its tokens keep all four columns, as the
# program's tokens once did; at each sentence's end it runs
# reference_dep_graph_check on them and keeps their heads.


@dataclass(frozen=True)
class ReferenceDepToken:
    index: int
    form: str
    head: int
    relation: str


_REFERENCE_SKIPPED_ID = re.compile(r"[0-9]+[-.][0-9]+")


def _reference_conllu_int(text: str, where: str) -> int:
    """``text`` as an int, from ASCII digits alone: int() would also take
    '1_2', '+2', ' 3' and other scripts' digits."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit
            pass
    raise FormatError(f"{where} {text!r}")


def reference_parse_conllu(text: str) -> list[list[int]]:
    """Parse CoNLL-U sentences into dependency graphs.

    Only the ID, FORM, HEAD and DEPREL columns are consumed. Multiword-token
    ranges (``1-2``) and empty nodes (``1.1``) are skipped, and any other
    ID that is not ASCII digits is an error; comment lines start with '#';
    blank lines separate sentences.
    """
    graphs: list[list[int]] = []
    block: list[ReferenceDepToken] = []

    def flush() -> None:
        nonlocal block
        if block:
            reference_dep_graph_check(tuple(block))
            graphs.append([tok.head for tok in block])
            block = []

    # Lines end at \r\n, a lone \r or \n, as errors.read_text reads files,
    # and nowhere else: str.splitlines() would also break a FORM at U+2028,
    # U+0085, \f and the other Unicode line boundaries.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            flush()
            continue
        if line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if "\t" not in line:
            cols = line.split()
        if len(cols) < 8:
            raise FormatError(
                f"line {lineno}: expected the 10-column CoNLL-U layout "
                f"(HEAD/DEPREL missing): {line!r}"
            )
        token_id = cols[0]
        if _REFERENCE_SKIPPED_ID.fullmatch(token_id):
            continue
        index = _reference_conllu_int(token_id, f"line {lineno}: bad token id")
        head = _reference_conllu_int(cols[6], f"line {lineno}: bad HEAD value")
        # The ID rule, checked at the ID's line as the program checks it.
        if index != len(block) + 1:
            raise ValidationError(
                f"token indices must be consecutive from 1; got {index} "
                f"at position {len(block) + 1}"
            )
        block.append(
            ReferenceDepToken(index=index, form=cols[1], head=head, relation=cols[7])
        )
    flush()
    return graphs


# Reference twin: DepGraph's check as it was before the linear-time walk,
# which walked every token up to the root with a fresh set, kept verbatim.
# It reads each token's index and head, as the program's graphs once held
# them; reference_tokens builds such tokens from a list of heads.


def reference_tokens(heads: list[int]) -> tuple[ReferenceDepToken, ...]:
    return tuple(
        ReferenceDepToken(index=i, form="w", head=h, relation="dep")
        for i, h in enumerate(heads, start=1)
    )


def reference_dep_graph_check(tokens: tuple[ReferenceDepToken, ...]) -> None:
    n = len(tokens)
    if n == 0:
        raise ValidationError("dependency graph has no tokens")
    for expected, tok in enumerate(tokens, start=1):
        if tok.index != expected:
            raise ValidationError(
                f"token indices must be consecutive from 1; got {tok.index} "
                f"at position {expected}"
            )
        if not 0 <= tok.head <= n:
            raise ValidationError(
                f"token {tok.index} has head {tok.head} outside 0..{n}"
            )
    roots = [tok.index for tok in tokens if tok.head == 0]
    if len(roots) != 1:
        raise ValidationError(f"expected exactly one root, found {len(roots)}")
    # Walking up from any token must reach the root without revisiting.
    for tok in tokens:
        seen = set()
        cur = tok.index
        while cur != 0:
            if cur in seen:
                raise ValidationError(f"cyclic heads involving token {cur}")
            seen.add(cur)
            cur = tokens[cur - 1].head


# Reference twin: one judgment record's checks as load_judgments ran them
# on any record that failed its quick test, before the reader became one
# walk, kept verbatim. The program reads the fields in the same order and
# raises the same located errors.


def _reference_parse_scores(scores: dict, side: str, where: str) -> SideScores:
    obj = _object(scores, side, f"{where}.scores")
    with _located(f"{where}.scores.{side}"):
        for cat in CATEGORIES:
            if cat not in obj:
                raise ValidationError(f"missing score {cat!r}")
        return SideScores(obj["grammar"], obj["meaning"], obj["fluency"])


def reference_checked_judgment(
    obj: dict, where: str, triple_ids: Collection[str]
) -> JudgmentRecord:
    """The record ``obj`` after every field check; the first error found
    is raised, located at ``where``."""
    scores = _object(obj, "scores", where)
    fields = (
        _string(obj, "triple_id", where),
        _string(obj, "worker_id", where),
        _require(obj, "question", where),
        _require(obj, "choice", where),
        _reference_parse_scores(scores, "a", where),
        _reference_parse_scores(scores, "b", where),
    )
    with _located(where):  # an unknown question or choice
        judgment = JudgmentRecord(*fields)
    if judgment.triple_id not in triple_ids:
        raise IntegrityError(
            f"{where}.triple_id: unknown triple {judgment.triple_id!r}"
        )
    return judgment
