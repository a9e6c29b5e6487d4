from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitread.errors import ValidationError
from splitread.readability import (
    TextStats,
    count_syllables,
    dale_chall,
    fk_grade,
    flesch_reading_ease,
    is_easy_word,
    load_easy_words,
    text_stats,
)

# Hand-counted fixture: (word, syllables) under the vowel-group rule with
# silent trailing 'e'. Real pronunciations differ for a handful of entries
# (marked below); the heuristic must stay within one syllable everywhere
# and agree on at least 90% of the lexicon.
HAND_COUNTED = [
    ("a", 1, 1), ("the", 1, 1), ("be", 1, 1), ("to", 1, 1), ("of", 1, 1),
    ("and", 1, 1), ("in", 1, 1), ("that", 1, 1), ("have", 1, 1), ("it", 1, 1),
    ("for", 1, 1), ("not", 1, 1), ("on", 1, 1), ("with", 1, 1), ("he", 1, 1),
    ("as", 1, 1), ("you", 1, 1), ("do", 1, 1), ("at", 1, 1), ("this", 1, 1),
    ("but", 1, 1), ("his", 1, 1), ("by", 1, 1), ("from", 1, 1), ("they", 1, 1),
    ("we", 1, 1), ("say", 1, 1), ("her", 1, 1), ("she", 1, 1), ("or", 1, 1),
    ("will", 1, 1), ("my", 1, 1), ("one", 1, 1), ("all", 1, 1), ("would", 1, 1),
    ("there", 1, 1), ("their", 1, 1), ("what", 1, 1), ("so", 1, 1), ("up", 1, 1),
    ("out", 1, 1), ("if", 1, 1), ("about", 2, 2), ("who", 1, 1), ("get", 1, 1),
    ("which", 1, 1), ("go", 1, 1), ("me", 1, 1), ("when", 1, 1), ("make", 1, 1),
    ("can", 1, 1), ("like", 1, 1), ("time", 1, 1), ("no", 1, 1), ("just", 1, 1),
    ("him", 1, 1), ("know", 1, 1), ("take", 1, 1), ("people", 2, 1),
    ("into", 2, 2), ("year", 1, 1), ("your", 1, 1), ("good", 1, 1),
    ("some", 1, 1), ("could", 1, 1), ("them", 1, 1), ("see", 1, 1),
    ("other", 2, 2), ("than", 1, 1), ("then", 1, 1), ("now", 1, 1),
    ("look", 1, 1), ("only", 2, 2), ("come", 1, 1), ("over", 2, 2),
    ("think", 1, 1), ("also", 2, 2), ("back", 1, 1), ("after", 2, 2),
    ("use", 1, 1), ("two", 1, 1), ("how", 1, 1), ("our", 1, 1),
    ("work", 1, 1), ("first", 1, 1), ("well", 1, 1), ("water", 2, 2),
    ("even", 2, 2), ("because", 2, 2), ("any", 2, 2), ("these", 1, 1),
    ("give", 1, 1), ("day", 1, 1), ("island", 2, 2),
    ("simple", 2, 1), ("little", 2, 1), ("table", 2, 1),  # -le endings undercount
    ("walks", 1, 1), ("vanya", 2, 2), ("home", 1, 1),
]


class TestCountSyllables:
    @pytest.mark.parametrize("word,expected", [("walks", 1), ("Vanya", 2), ("the", 1)])
    def test_worked_examples(self, word, expected):
        assert count_syllables(word) == expected

    def test_silent_trailing_e(self):
        assert count_syllables("home") == 1
        assert count_syllables("code") == 1
        assert count_syllables("anyone") == 2

    def test_trailing_vowel_group_with_e_kept(self):
        assert count_syllables("bee") == 1
        assert count_syllables("idea") == 2

    def test_minimum_one(self):
        assert count_syllables("mm") == 1
        assert count_syllables("pssst") == 1

    def test_non_alpha_characters_ignored(self):
        assert count_syllables("walks.") == 1
        assert count_syllables("don't") == 1

    def test_no_alpha_rejected(self):
        with pytest.raises(ValidationError):
            count_syllables("1234")

    def test_fixture_is_100_words(self):
        assert len(HAND_COUNTED) == 100

    def test_hand_counted_lexicon(self):
        exact = 0
        for word, true_syllables, rule_syllables in HAND_COUNTED:
            got = count_syllables(word)
            assert got == rule_syllables, word
            assert abs(got - true_syllables) <= 1, word
            exact += got == true_syllables
        assert exact >= 90

    def test_at_least_one_syllable_everywhere(self):
        for word in load_easy_words():
            assert count_syllables(word) >= 1


class TestFormulas:
    def test_flesch_worked_values(self):
        stats = TextStats(1, 3, 4, 0)
        assert flesch_reading_ease(stats) == pytest.approx(90.99, abs=1e-9)
        degenerate = TextStats(1, 1, 1, 0)
        assert flesch_reading_ease(degenerate) == pytest.approx(121.22, abs=1e-9)

    def test_fk_worked_values(self):
        stats = TextStats(1, 3, 4, 0)
        assert fk_grade(stats) == pytest.approx(0.39 * 3 + 11.8 * 4 / 3 - 15.59)
        degenerate = TextStats(1, 1, 1, 0)
        assert fk_grade(degenerate) == pytest.approx(-3.4, abs=1e-9)

    def test_dale_chall_worked_values(self):
        assert dale_chall(TextStats(2, 10, 10, 0)) == pytest.approx(0.248)
        penalized = dale_chall(TextStats(1, 10, 10, 10))
        assert penalized == pytest.approx(0.1579 * 100 + 0.0496 * 10 + 3.6365)
        assert dale_chall(TextStats(1, 1, 1, 0)) == pytest.approx(0.0496)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 50),
        st.integers(1, 20),
        st.integers(0, 10),
        st.integers(0, 5),
        st.integers(2, 6),
    )
    def test_scale_invariance(self, sentences, words_per, syl_extra, difficult, k):
        words = sentences * words_per
        syllables = words + syl_extra
        difficult = min(difficult, words)
        small = TextStats(sentences, words, syllables, difficult)
        big = TextStats(k * sentences, k * words, k * syllables, k * difficult)
        for formula in (flesch_reading_ease, fk_grade, dale_chall):
            assert formula(small) == pytest.approx(formula(big), rel=1e-12)

    def test_dale_chall_monotone_in_difficult_count(self):
        scores = [dale_chall(TextStats(2, 20, 25, d)) for d in range(21)]
        assert scores == sorted(scores)


class TestTextStatsValidation:
    def test_syllables_below_words_rejected(self):
        with pytest.raises(ValidationError):
            TextStats(1, 3, 2, 0)

    def test_difficult_above_words_rejected(self):
        with pytest.raises(ValidationError):
            TextStats(1, 3, 3, 4)

    def test_zero_counts_rejected(self):
        with pytest.raises(ValidationError):
            TextStats(0, 1, 1, 0)
        with pytest.raises(ValidationError):
            TextStats(1, 0, 0, 0)


class TestWordList:
    def test_bundled_list_loads(self):
        easy = load_easy_words()
        assert "home" in easy
        assert len(easy) > 500

    def test_plural_and_possessive_stripping(self):
        easy = frozenset({"dog", "box", "berry"})
        assert is_easy_word("dogs", easy)
        assert is_easy_word("dog's", easy)
        assert is_easy_word("boxes", easy)
        assert is_easy_word("berries", easy)
        assert not is_easy_word("dogged", easy)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("# comment\nword\n\nother\n", encoding="utf-8")
        assert load_easy_words(path) == frozenset({"word", "other"})

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_lines_end_at_newline_alone(self, tmp_path, sep):
        # Only \n, \r\n and a lone \r end a line, as in the JSONL and
        # CoNLL-U readers; the other Unicode line boundaries stay in the word.
        path = tmp_path / "list.txt"
        path.write_bytes(f"gamma{sep}delta\r\nword\rother\n".encode("utf-8"))
        assert load_easy_words(path) == frozenset({f"gamma{sep}delta", "word", "other"})

    def test_text_stats_counts(self):
        easy = frozenset({"vanya", "walks", "home"})
        stats = text_stats([["Vanya", "walks", "home", "."]], easy)
        assert stats.sentence_count == 1
        assert stats.word_count == 3
        assert stats.syllable_count == 4
        assert stats.difficult_word_count == 0

    def test_text_stats_difficult_words(self):
        stats = text_stats([["Quixotic", "home"]], frozenset({"home"}))
        assert stats.difficult_word_count == 1

    def test_text_stats_no_words_rejected(self):
        with pytest.raises(ValidationError):
            text_stats([[".", ","]], frozenset())

    def test_text_stats_no_sentences_rejected(self):
        message = "^text_stats requires at least one sentence$"
        with pytest.raises(ValidationError, match=message):
            text_stats([], frozenset())
