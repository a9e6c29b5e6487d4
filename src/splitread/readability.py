"""Classic surface readability metrics.

Flesch Reading Ease, Flesch-Kincaid Grade Level and the Dale-Chall score,
computed from sentence/word/syllable tallies. Syllables are estimated with
a vowel-group heuristic; the Dale easy-word list ships with the package as
a plain-text data file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ValidationError, read_text

_VOWELS = frozenset("aeiouy")


@dataclass(frozen=True)
class TextStats:
    sentence_count: int
    word_count: int
    syllable_count: int
    difficult_word_count: int

    def __post_init__(self) -> None:
        if self.sentence_count < 1:
            raise ValidationError("sentence_count must be >= 1")
        if self.word_count < 1:
            raise ValidationError("word_count must be >= 1")
        if self.syllable_count < self.word_count:
            raise ValidationError("syllable_count must be >= word_count")
        if not 0 <= self.difficult_word_count <= self.word_count:
            raise ValidationError(
                "difficult_word_count must lie in [0, word_count]"
            )


def count_syllables(word: str) -> int:
    """Estimate syllables as maximal vowel groups (a, e, i, o, u, y).

    A trailing lone 'e' is treated as silent when the word has another
    vowel group. Every word counts at least one syllable.
    """
    letters = [ch for ch in word.lower() if ch.isalpha()]
    if not letters:
        raise ValidationError(f"word {word!r} has no alphabetic characters")
    groups = 0
    prev_vowel = False
    for ch in letters:
        is_vowel = ch in _VOWELS
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    if groups >= 2 and letters[-1] == "e" and letters[-2] not in _VOWELS:
        groups -= 1
    return max(groups, 1)


def flesch_reading_ease(stats: TextStats) -> float:
    """206.835 - 1.015 (words/sentences) - 84.6 (syllables/words)."""
    return (
        206.835
        - 1.015 * stats.word_count / stats.sentence_count
        - 84.6 * stats.syllable_count / stats.word_count
    )


def fk_grade(stats: TextStats) -> float:
    """0.39 (words/sentences) + 11.8 (syllables/words) - 15.59."""
    return (
        0.39 * stats.word_count / stats.sentence_count
        + 11.8 * stats.syllable_count / stats.word_count
        - 15.59
    )


def dale_chall(stats: TextStats) -> float:
    """0.1579 (pct difficult) + 0.0496 (words/sentences), plus 3.6365 when
    more than 5% of the words are difficult."""
    pct_difficult = 100.0 * stats.difficult_word_count / stats.word_count
    score = 0.1579 * pct_difficult + 0.0496 * stats.word_count / stats.sentence_count
    if pct_difficult > 5.0:
        score += 3.6365
    return score


@lru_cache(maxsize=8)
def load_easy_words(path: str | Path | None = None) -> frozenset[str]:
    """Load an easy-word list (one word per line, '#' comments ignored).
    With no path, the bundled Dale list is used."""
    if path is None:
        text = (
            resources.files("splitread").joinpath("data/dale_chall.txt").read_text("utf-8")
        )
    else:
        text = read_text(path)
    words = set()
    # Lines end at \n alone (read_text has made every \r\n and lone \r a
    # \n): str.splitlines() would also break a line at \f, U+0085, U+2028
    # and the other Unicode line boundaries.
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words.add(line.lower())
    return frozenset(words)


def is_easy_word(word: str, easy_words: frozenset[str]) -> bool:
    """Membership test with simple possessive and plural stripping."""
    w = word.lower()
    if w.endswith("'s"):
        w = w[:-2]
    if w in easy_words:
        return True
    if w.endswith("ies") and w[:-3] + "y" in easy_words:
        return True
    if w.endswith("es") and w[:-2] in easy_words:
        return True
    if w.endswith("s") and w[:-1] in easy_words:
        return True
    return False


def is_countable_word(token: str) -> bool:
    return any(ch.isalpha() for ch in token)


def text_stats(
    sentences: Sequence[Iterable[str]], easy_words: frozenset[str]
) -> TextStats:
    """Tally a tokenized text (one token list per sentence).

    Tokens without alphabetic characters (punctuation, bare numbers) are
    not counted as words.
    """
    if not sentences:
        raise ValidationError("text_stats requires at least one sentence")
    words = 0
    syllables = 0
    difficult = 0
    for sentence in sentences:
        for token in sentence:
            if not is_countable_word(token):
                continue
            words += 1
            syllables += count_syllables(token)
            if not is_easy_word(token, easy_words):
                difficult += 1
    if words == 0:
        raise ValidationError("text has no countable words")
    return TextStats(
        sentence_count=len(sentences),
        word_count=words,
        syllable_count=syllables,
        difficult_word_count=difficult,
    )
