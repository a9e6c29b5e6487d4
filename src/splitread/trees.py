"""Readers and core types for externally produced parses.

Two input formats are supported: Penn-Treebank-style bracketed constituency
trees and CoNLL-U dependency tables. The readers validate structure only;
they never attempt to parse raw text.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterator

from .errors import FormatError, ParseError, ValidationError

# Characters treated as punctuation on top of the Unicode P* categories
# (PTB uses the plain grave accent in quote tokens, which Unicode files
# under "modifier symbol").
_EXTRA_PUNCT = set("`´^~")


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

    def size(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def to_bracketed(self) -> str:
        if self.is_leaf:
            return self.label
        inner = " ".join(child.to_bracketed() for child in self.children)
        return f"({self.label} {inner})"


@dataclass(frozen=True)
class DepToken:
    index: int  # 1-based position in the sentence
    form: str
    head: int  # 0 designates the root
    relation: str


@dataclass(frozen=True)
class DepGraph:
    """Single-rooted, acyclic dependency structure over a token sequence."""

    tokens: tuple[DepToken, ...]

    def __post_init__(self) -> None:
        n = len(self.tokens)
        if n == 0:
            raise ValidationError("dependency graph has no tokens")
        for expected, tok in enumerate(self.tokens, start=1):
            if tok.index != expected:
                raise ValidationError(
                    f"token indices must be consecutive from 1; got {tok.index} "
                    f"at position {expected}"
                )
            if not 0 <= tok.head <= n:
                raise ValidationError(
                    f"token {tok.index} has head {tok.head} outside 0..{n}"
                )
        roots = [tok.index for tok in self.tokens if tok.head == 0]
        if len(roots) != 1:
            raise ValidationError(f"expected exactly one root, found {len(roots)}")
        # Walking up from any token must reach the root without revisiting.
        for tok in self.tokens:
            seen = set()
            cur = tok.index
            while cur != 0:
                if cur in seen:
                    raise ValidationError(f"cyclic heads involving token {cur}")
                seen.add(cur)
                cur = self.tokens[cur - 1].head

    @property
    def root(self) -> DepToken:
        return next(tok for tok in self.tokens if tok.head == 0)

    def forms(self) -> list[str]:
        return [tok.form for tok in self.tokens]


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


def _read_atom(text: str, pos: int) -> tuple[str, int]:
    start = pos
    n = len(text)
    while pos < n and not text[pos].isspace() and text[pos] not in "()":
        pos += 1
    return text[start:pos], pos


def _skip_space(text: str, pos: int) -> int:
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    return pos


def _parse_group(text: str, pos: int) -> tuple[ParseTree, int]:
    # pos points at '('
    open_offset = pos
    pos = _skip_space(text, pos + 1)
    label, pos = _read_atom(text, pos)
    children: list[ParseTree] = []
    while True:
        pos = _skip_space(text, pos)
        if pos >= len(text):
            raise ParseError("unbalanced brackets", _byte_offset(text, len(text)))
        ch = text[pos]
        if ch == ")":
            pos += 1
            break
        if ch == "(":
            child, pos = _parse_group(text, pos)
            children.append(child)
        else:
            atom, pos = _read_atom(text, pos)
            children.append(ParseTree(atom))
    if not children:
        raise ValidationError(
            f"bracket group at byte offset {_byte_offset(text, open_offset)} "
            "has no terminal yield"
        )
    return ParseTree(label, tuple(children)), pos


def _transform(node: ParseTree, keep_punctuation: bool) -> ParseTree | None:
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
        new = _transform(child, keep_punctuation)
        if new is not None:
            kept.append(new)
    if not kept:
        return None
    return ParseTree(_strip_function_tag(node.label), tuple(kept))


def parse_ptb(text: str, *, keep_punctuation: bool = True) -> list[ParseTree]:
    """Parse whitespace-separated bracketed trees, one ParseTree per group.

    Unlabeled unary wrappers around a whole tree are collapsed into their
    single child, trace subtrees (-NONE-) are removed, and grammatical
    function tags are always stripped from nonterminal labels.
    Punctuation leaves are kept by default; ``keep_punctuation=False``
    drops them together with any node left empty.
    """
    trees: list[ParseTree] = []
    pos = _skip_space(text, 0)
    while pos < len(text):
        if text[pos] != "(":
            raise ParseError(
                f"expected '(' but found {text[pos]!r}", _byte_offset(text, pos)
            )
        tree, pos = _parse_group(text, pos)
        cleaned = _transform(tree, keep_punctuation)
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
        pos = _skip_space(text, pos)
    return trees


def parse_conllu(text: str) -> list[DepGraph]:
    """Parse CoNLL-U sentences into dependency graphs.

    Only the ID, FORM, HEAD and DEPREL columns are consumed. Multiword-token
    ranges (``1-2``) and empty nodes (``1.1``) are skipped; comment lines
    start with '#'; blank lines separate sentences.
    """
    graphs: list[DepGraph] = []
    block: list[DepToken] = []

    def flush() -> None:
        nonlocal block
        if block:
            graphs.append(DepGraph(tuple(block)))
            block = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 8:
            cols = line.split()
        if len(cols) < 8:
            raise FormatError(
                f"line {lineno}: expected the 10-column CoNLL-U layout "
                f"(HEAD/DEPREL missing): {line!r}"
            )
        token_id = cols[0]
        if "-" in token_id or "." in token_id:
            continue
        try:
            index = int(token_id)
        except ValueError:
            raise FormatError(f"line {lineno}: bad token id {token_id!r}") from None
        try:
            head = int(cols[6])
        except ValueError:
            raise FormatError(
                f"line {lineno}: bad HEAD value {cols[6]!r}"
            ) from None
        block.append(DepToken(index=index, form=cols[1], head=head, relation=cols[7]))
    flush()
    return graphs


def strip_token_leaves(tree: ParseTree) -> ParseTree:
    """Remove token leaves, leaving the category skeleton of the tree."""
    if tree.is_leaf:
        return tree
    kept = tuple(
        strip_token_leaves(child) for child in tree.children if not child.is_leaf
    )
    return ParseTree(tree.label, kept)
