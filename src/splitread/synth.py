"""Synthetic fixtures: logit-model design matrices and demo datasets.

Used by the test suite and handy for smoke-testing the command line
without access to a judgment study.

The demo files are a pure function of ``make_demo_dataset``'s arguments,
and tests pin their sha256. Every pick from a tuple or list is
``seq[rng.integers(len(seq))]``: for one draw with replacement and no
weights, ``Generator.choice`` draws that same bounded integer, but first
turns the sequence into an array, at about five times the cost. Batched
draws (a sentence's tokens, a worker's six scores and its three choices)
take the values the same scalar calls would, in the same order. So the
random stream, and with it every byte written, is the one the scalar
picks gave.

Trees are drawn straight to text: each sentence's bracketed string is
written during the recursive draw, and its tokens are the drawn token
list. Every tree is binary over POS preterminals under an S root, so a
sentence of n > 1 tokens scores exactly frazier = 1 + 0.5/n and tnodes =
2 - 1/n: the two predictors' collinearity is built into the generator,
not a finding about them. A judgment line is formatted around one ``json.dumps`` of its
worker's scores and holds the bytes ``json.dumps`` gives for the whole
record, as its other fields are ASCII that needs no escape.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dataset import CATEGORIES, DesignMatrix, atomic_write
from .inference import _expit

_VOCAB = (
    "alder", "airport", "serves", "island", "runway", "surface", "grass",
    "meters", "long", "river", "bridge", "city", "team", "player", "wrote",
    "novel", "opened", "museum", "north", "station", "train", "red", "old",
    "the", "a", "its", "and", "has", "is", "was", "near", "with",
)
_PHRASE_LABELS = ("NP", "VP", "PP", "ADJP", "ADVP")
_POS_LABELS = ("NN", "VB", "DT", "JJ", "IN", "RB")


def random_sentence_tree(
    rng: np.random.Generator, n_tokens: int
) -> tuple[str, list[str]]:
    """A random constituency tree with POS preterminals and an S root,
    drawn straight to its bracketed text: returns that text and the
    tree's tokens."""
    tokens = [_VOCAB[i] for i in rng.integers(len(_VOCAB), size=n_tokens).tolist()]
    integers = rng.integers
    parts: list[str] = []

    # Appends the text of a binary tree over tokens[lo:hi]: each node's
    # label is drawn after its cut and before its children.
    def build(lo: int, hi: int, depth: int) -> None:
        if hi - lo == 1:
            parts.append(f"({_POS_LABELS[integers(len(_POS_LABELS))]} {tokens[lo]})")
            return
        if depth > 4 or hi - lo == 2:
            cut = lo + 1
        else:
            cut = lo + int(integers(1, hi - lo))
        parts.append(f"({_PHRASE_LABELS[integers(len(_PHRASE_LABELS))]} ")
        build(lo, cut, depth + 1)
        parts.append(" ")
        build(cut, hi, depth + 1)
        parts.append(")")

    parts.append("(S ")
    if n_tokens == 1:
        build(0, 1, 1)
    else:
        cut = max(1, n_tokens // 3)
        build(0, cut, 1)
        parts.append(" ")
        build(cut, n_tokens, 1)
    parts.append(")")
    return "".join(parts), tokens


def random_conllu(rng: np.random.Generator, tokens: list[str]) -> str:
    """Random single-rooted acyclic dependency block over the tokens."""
    n = len(tokens)
    order = rng.permutation(n).tolist()
    heads = [0] * n
    placed = order[:1]
    for idx in order[1:]:
        heads[idx] = placed[rng.integers(len(placed))] + 1
        placed.append(idx)
    return "".join(
        f"{i}\t{form}\t_\t_\t_\t_\t{head}\t{'dep' if head else 'root'}\t_\t_\n"
        for i, (form, head) in enumerate(zip(tokens, heads), start=1)
    )


def _sentence_block(
    rng: np.random.Generator, n_sentences: int, lo: int, hi: int
) -> tuple[list[str], str, str]:
    """The bracketed trees, CoNLL-U text and plain text of ``n_sentences``
    random sentences of ``lo`` to ``hi`` tokens."""
    sentences = [
        random_sentence_tree(rng, int(rng.integers(lo, hi + 1)))
        for _ in range(n_sentences)
    ]
    conllu = "\n".join(random_conllu(rng, tokens) for _, tokens in sentences)
    text = " . ".join(" ".join(tokens) for _, tokens in sentences) + " ."
    return [ptb for ptb, _ in sentences], conllu, text


def make_demo_dataset(
    out_dir: str | Path,
    n_triples: int = 24,
    n_workers: int = 7,
    seed: int = 7,
    bart_fraction: float = 0.5,
) -> tuple[Path, Path]:
    """Write a synthetic triples.jsonl / judgments.jsonl pair and return
    their paths."""
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    triples_path = out / "triples.jsonl"
    judgments_path = out / "judgments.jsonl"

    n_bart = int(round(n_triples * bart_fraction))
    triple_lines = []
    judgment_lines = []
    for i in range(n_triples):
        tid = f"t{i:04d}"
        origin = "bart" if i < n_bart else "human"
        src_ptb, src_conllu, src_text = _sentence_block(rng, 1, 8, 12)
        a_ptb, a_conllu, a_text = _sentence_block(rng, 2, 4, 7)
        b_ptb, b_conllu, b_text = _sentence_block(rng, 3, 3, 6)
        triple_lines.append(
            json.dumps(
                {
                    "schema": 1,
                    "id": tid,
                    "source": {
                        "text": src_text,
                        "ptb": src_ptb,
                    },
                    "a": {
                        "text": a_text,
                        "ptb": a_ptb,
                        "origin": origin,
                    },
                    "b": {
                        "text": b_text,
                        "ptb": b_ptb,
                    },
                    "conllu": {"source": src_conllu, "a": a_conllu, "b": b_conllu},
                    "precomputed": {
                        "samsa_a": float(np.round(rng.uniform(0.2, 1.0), 4)),
                        "samsa_b": float(np.round(rng.uniform(0.2, 1.0), 4)),
                    },
                }
            )
        )
        for w in range(n_workers):
            values = rng.integers(3, 6, size=6).tolist()
            scores = json.dumps(
                {
                    "a": dict(zip(CATEGORIES, values[:3])),
                    "b": dict(zip(CATEGORIES, values[3:])),
                }
            )
            # Shared by the worker's three records (see the module docstring).
            head = f'{{"schema": 1, "triple_id": "{tid}", "worker_id": "w{w:02d}"'
            for (question, p_first), u in zip(
                (("S_vs_A", 0.33), ("S_vs_B", 0.38), ("A_vs_B", 0.58)),
                rng.uniform(size=3).tolist(),
            ):
                if u < 0.02:
                    choice = "not_sure"
                elif u < 0.02 + p_first * 0.98:
                    choice = "first"
                else:
                    choice = "second"
                judgment_lines.append(
                    f'{head}, "question": "{question}", "choice": "{choice}", '
                    f'"scores": {scores}}}'
                )
    atomic_write(triples_path, "\n".join(triple_lines) + "\n")
    atomic_write(judgments_path, "\n".join(judgment_lines) + "\n")
    return triples_path, judgments_path


def make_logit_matrix(
    n_rows: int,
    beta: list[float] | np.ndarray,
    seed: int = 0,
) -> DesignMatrix:
    """Design matrix with standardized Gaussian predictors and a binary
    outcome drawn from the logistic model with coefficients ``beta``
    (intercept first)."""
    beta = np.asarray(beta, dtype=float)
    k = beta.size - 1
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_rows, k))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    probs = _expit(beta[0] + X @ beta[1:])
    y = (rng.uniform(size=n_rows) < probs).astype(float)
    names = [f"x{j}" for j in range(1, k + 1)]
    return DesignMatrix.from_arrays(names, X, y)
