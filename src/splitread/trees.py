"""Readers and core types for externally produced parses.

Two input formats are supported: Penn-Treebank-style bracketed constituency
trees and CoNLL-U dependency tables. The readers validate structure only;
they never attempt to parse raw text. A ParseTree holds each node's label
and children; a DepGraph holds each token's head alone, in token order,
the one value the dependency predictor reads.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from dataclasses import dataclass
from typing import Iterator

from .errors import FormatError, ParseError, ValidationError

# Characters treated as punctuation on top of the Unicode P* categories
# (PTB uses the plain grave accent in quote tokens, which Unicode files
# under "modifier symbol").
_EXTRA_PUNCT = set("`´^~")

# One bracket-file token per match: "(" with the label after it (group 1,
# empty when there is none; group 2 empty), or ")" or a bare token
# (group 2).
_TOKEN = re.compile(r"\(\s*([^\s()]*)|(\)|[^\s()]+)")
# A CoNLL-U ID that is skipped: a multiword range (1-2) or an empty node (1.1).
_SKIPPED_ID = re.compile(r"[0-9]+[-.][0-9]+")


@dataclass(frozen=True)
class ParseTree:
    """Rooted, ordered, labeled constituency tree for one sentence.

    A node without children is a token leaf and its label is the token
    text; part-of-speech tags sit on the node directly above each token
    and count as internal structure.
    """

    label: str
    children: tuple["ParseTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_nodes(self) -> Iterator["ParseTree"]:
        """Pre-order traversal; visits nodes in left-to-right textual order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def tokens(self) -> list[str]:
        return [node.label for node in self.iter_nodes() if node.is_leaf]

    def depth(self) -> int:
        """Nodes on the longest path from this node down to a leaf,
        counted level by level without recursion."""
        level, depth = [self], 0
        while level:
            level = [child for node in level for child in node.children]
            depth += 1
        return depth


@dataclass(frozen=True)
class DepGraph:
    """Single-rooted, acyclic dependency structure over a token sequence:
    ``heads[i - 1]`` is token i's head, and 0 stands for the root."""

    heads: tuple[int, ...]

    def __post_init__(self) -> None:
        heads = self.heads
        n = len(heads)
        if n == 0:
            raise ValidationError("dependency graph has no tokens")
        for index, head in enumerate(heads, start=1):
            if not 0 <= head <= n:
                raise ValidationError(f"token {index} has head {head} outside 0..{n}")
        roots = heads.count(0)
        if roots != 1:
            raise ValidationError(f"expected exactly one root, found {roots}")
        # Walking up from any token must reach the root without revisiting.
        # A walk stops at the first token known to reach the root, so each
        # token is walked once: state 0 is unvisited, 1 on this walk, 2
        # known to reach the root (the root, 0, included).
        state = [2] + [0] * n
        for start in range(1, n + 1):
            path = []
            cur = start
            while state[cur] != 2:
                if state[cur] == 1:
                    raise ValidationError(f"cyclic heads involving token {cur}")
                state[cur] = 1
                path.append(cur)
                cur = heads[cur - 1]
            for node in path:
                state[node] = 2


def is_punctuation_token(token: str) -> bool:
    """True when every character of the token is punctuation."""
    if not token:
        return False
    return all(
        unicodedata.category(ch).startswith("P") or ch in _EXTRA_PUNCT
        for ch in token
    )


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _strip_function_tag(label: str) -> str:
    # Grammatical-function and coindexation suffixes (NP-SBJ-1, S=2) are
    # removed; labels that themselves start with '-' (-NONE-, -LRB-) stay.
    if not label or label.startswith("-"):
        return label
    cut = len(label)
    for sep in "-=":
        idx = label.find(sep)
        if idx > 0:
            cut = min(cut, idx)
    return label[:cut]


def _token_offset(text: str, k: int) -> int:
    """Byte offset of the ``k``-th bracket-file token of ``text``."""
    match = next(itertools.islice(_TOKEN.finditer(text), k, None))
    return _byte_offset(text, match.start())


def parse_ptb(text: str, *, keep_punctuation: bool = True) -> list[ParseTree]:
    """Parse whitespace-separated bracketed trees, one ParseTree per group.

    Unlabeled unary wrappers around a whole tree are collapsed into their
    single child, trace subtrees (-NONE-) are removed, and grammatical
    function tags are always stripped from nonterminal labels.
    Punctuation leaves are kept by default; ``keep_punctuation=False``
    drops them together with any node left empty.
    """
    trees: list[ParseTree] = []
    # One frame per open group: the index of its '(' among the tokens, its
    # raw label and its children, where None stands for a child that
    # cleanup dropped. ``children`` is the top frame's list. Positions are
    # found again only for an error.
    stack: list[tuple[int, str, list[ParseTree | None]]] = []
    children: list[ParseTree | None] = []
    for k, (label, token) in enumerate(_TOKEN.findall(text)):
        if not token:  # "(" and its label
            children = []
            stack.append((k, label, children))
        elif not stack:
            raise ParseError(
                f"expected '(' but found {token[0]!r}", _token_offset(text, k)
            )
        elif token != ")":
            if keep_punctuation or not is_punctuation_token(token):
                children.append(ParseTree(token))
            else:
                children.append(None)
        else:
            start, label, kept = stack.pop()
            if not kept:
                raise ValidationError(
                    f"bracket group at byte offset {_token_offset(text, start)} "
                    "has no terminal yield"
                )
            # A ParseTree is always true, so this drops the None children.
            kept = tuple(filter(None, kept))
            node = None
            if kept and label != "-NONE-":
                if "-" in label or "=" in label:
                    label = _strip_function_tag(label)
                node = ParseTree(label, kept)
            if stack:
                children = stack[-1][2]
                children.append(node)
                continue
            if node is None:
                raise ValidationError(
                    "bracket group has no terminal yield after cleanup"
                )
            # Collapse outer wrappers like "( (S ...) )" from treebank tools.
            while (
                node.label == ""
                and len(node.children) == 1
                and not node.children[0].is_leaf
            ):
                node = node.children[0]
            trees.append(node)
    if stack:
        raise ParseError("unbalanced brackets", _byte_offset(text, len(text)))
    return trees


def _conllu_int(text: str, lineno: int, what: str) -> int:
    """``text``, the ``what`` column of line ``lineno``, as an int from ASCII
    digits alone: int() would also take '1_2', '+2', ' 3' and other
    scripts' digits."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit
            pass
    raise FormatError(f"line {lineno}: bad {what} {text!r}")


def parse_conllu(text: str) -> list[DepGraph]:
    """Parse CoNLL-U sentences into dependency graphs, one per sentence.

    The ID, FORM, HEAD and DEPREL columns are required; only HEAD is
    kept, in ID order. Multiword-token ranges (``1-2``) and empty nodes
    (``1.1``) are skipped; every other ID must be ASCII digits and run 1,
    2, ... within its sentence, and is reported at its line otherwise.
    Comment lines start with '#'; blank lines separate sentences.
    """
    graphs: list[DepGraph] = []
    heads: list[int] = []
    # Lines end at \r\n, a lone \r or \n, as errors.read_text reads files,
    # and nowhere else: str.splitlines() would also break a FORM at U+2028,
    # U+0085, \f and the other Unicode line boundaries. The blank line
    # added at the end closes the last sentence.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate([*text.split("\n"), ""], start=1):
        if not line or line.isspace():
            if heads:
                graphs.append(DepGraph(tuple(heads)))
                heads = []
            continue
        if "#" in line and line.lstrip().startswith("#"):
            continue
        # A line holding a tab is split on tabs alone (a FORM may hold a
        # space); only a line without one is split on runs of whitespace.
        cols = line.split("\t") if "\t" in line else line.split()
        if len(cols) < 8:
            raise FormatError(
                f"line {lineno}: expected the 10-column CoNLL-U layout "
                f"(HEAD/DEPREL missing): {line!r}"
            )
        if _SKIPPED_ID.fullmatch(cols[0]):
            continue
        index = _conllu_int(cols[0], lineno, "token id")
        head = _conllu_int(cols[6], lineno, "HEAD value")
        if index != len(heads) + 1:
            raise ValidationError(
                f"token indices must be consecutive from 1; got {index} "
                f"at position {len(heads) + 1}"
            )
        heads.append(head)
    return graphs


def strip_token_leaves(tree: ParseTree) -> ParseTree:
    """Remove token leaves, leaving the category skeleton of the tree."""
    kept = tuple(
        strip_token_leaves(child) for child in tree.children if not child.is_leaf
    )
    return ParseTree(tree.label, kept)
