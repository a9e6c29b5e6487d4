"""Cognitive-load predictors computed from parse structures.

Implements the word-level scoring schemes of Yngve (1960) and Frazier
(1985) over constituency trees, a per-token node-count ratio, and mean
linear dependency length over dependency graphs.
"""

from __future__ import annotations

from .trees import DepGraph, ParseTree


def yngve_costs(tree: ParseTree) -> list[float]:
    """Per-word Yngve costs, in textual order.

    Every edge of the tree is weighted by the number of right sisters of
    the child node; a word's cost is the sum of the weights on the path
    from the root to its leaf.
    """
    if tree.is_leaf:
        return [0.0]
    costs: list[float] = []

    def walk(node: ParseTree, acc: float) -> None:
        last = len(node.children) - 1
        for i, child in enumerate(node.children):
            weight = last - i
            if child.is_leaf:
                costs.append(acc + weight)
            else:
                walk(child, acc + weight)

    walk(tree, 0.0)
    return costs


def yngve_score(tree: ParseTree) -> float:
    """Mean Yngve cost over the token leaves."""
    costs = yngve_costs(tree)
    return sum(costs) / len(costs)


def _node_weight(label: str) -> float:
    return 1.5 if label.startswith("S") else 1.0


def frazier_costs(tree: ParseTree) -> list[float]:
    """Per-word Frazier depths, in textual order.

    From each word, ancestors are counted upward for as long as each one
    is the leftmost child of its parent, stopping after the root; every
    counted node scores 1, except sentence-category nodes (labels starting
    with "S") which score 1.5. Words that are not the leftmost child of
    their parent score 0.
    """
    if tree.is_leaf:
        return [0.0]
    costs: list[float] = []

    # acc is the cost of a word that is node's leftmost child: the weights
    # of node and of its ancestors for as long as each is a leftmost child,
    # plus the root's; 0 when node is not a leftmost child.
    def walk(node: ParseTree, acc: float) -> None:
        for i, child in enumerate(node.children):
            if child.is_leaf:
                costs.append(acc if i == 0 else 0.0)
            else:
                walk(child, (acc + _node_weight(child.label)) if i == 0 else 0.0)

    walk(tree, _node_weight(tree.label))
    return costs


def frazier_score(tree: ParseTree) -> float:
    """Mean Frazier depth over the token leaves."""
    costs = frazier_costs(tree)
    return sum(costs) / len(costs)


def tnodes(tree: ParseTree) -> float:
    """Nonterminal nodes per token: token leaves are not counted as nodes,
    so the ratio reflects structural size."""
    nodes = list(tree.iter_nodes())
    tokens = sum(1 for node in nodes if node.is_leaf)
    return (len(nodes) - tokens) / tokens


def dep_distance(graph: DepGraph) -> float:
    """Mean linear arc length |head - dependent| over non-root tokens,
    token i being the dependent of ``graph.heads[i - 1]``.

    A single-token sentence has no arcs and scores 0.
    """
    arcs = [abs(head - token) for token, head in enumerate(graph.heads, 1) if head]
    if not arcs:
        return 0.0
    return sum(arcs) / len(arcs)
