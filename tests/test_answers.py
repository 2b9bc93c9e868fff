from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbvqa.answers import (
    bracket_spans,
    extract_answer,
    index_to_letter,
    normalize_answer,
    parse_reference_letter,
)
from kbvqa.errors import ParseError


class TestNormalize:
    @pytest.mark.parametrize("raw, expected", [
        ("Scotland", "scotland"),
        ("  The   Eiffel Tower ", "eiffel tower"),
        ("An apple.", "apple"),
        ("a  a  cappella", "cappella"),   # repeated leading articles all drop
        ("THE THE BEATLES", "beatles"),
        ("pick a card", "pick a card"),   # inner articles stay
        ("'42'", "42"),
        ("éclair", "éclair"),
        ("Café", "café"),  # NFC folds combining accent
        ("", ""),
        ("   ", ""),
        ("(hello, world!)", "hello, world"),
        ("a .the x", "x"),  # an article exposed by stripping drops too
    ])
    def test_cases(self, raw, expected):
        assert normalize_answer(raw) == expected

    def test_inner_punctuation_kept(self):
        assert normalize_answer("3.5 km") == "3.5 km"

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["a", "An", "THE", " ", "\t", ".", "(", "'", "!", "x", "Caf\u00e9",
                         "e\u0301", "\u0130", "\u03a3"]),
        st.text(max_size=4),
    ), max_size=8).map("".join))
    @example("a .the x")
    @example("the (a) b")
    @example("\u03aa\u0301")  # lowercases to a sequence NFC composes
    def test_idempotent(self, raw):
        once = normalize_answer(raw)
        assert normalize_answer(once) == once


class TestExtract:
    def test_last_bracket_wins(self):
        assert extract_answer("Step 1 [draft]. Final: [Paris]") == "Paris"

    def test_no_brackets_returns_trimmed(self):
        assert extract_answer("  Paris  ") == "Paris"

    def test_empty_bracket(self):
        assert extract_answer("answer: []") == ""

    def test_multiline(self):
        assert extract_answer("line one\n[two\nwords]") == "two\nwords"

    def test_spans_in_order(self):
        assert bracket_spans("[a] mid [b c] end") == ["a", "b c"]


class TestReferenceLetter:
    @pytest.mark.parametrize("raw, expected", [
        ("[Reference B]", 1),
        ("Reference A", 0),
        ("reference c", 2),
        ("The answer is [reference  D].", 3),
        ("Reference: E", 4),
        ("Reference A then Reference B", 1),  # last occurrence wins
        ("[Reference A] ... final answer [Reference C]", 2),
    ])
    def test_parses(self, raw, expected):
        assert parse_reference_letter(raw, 5) == expected

    def test_out_of_range_raises(self):
        with pytest.raises(ParseError):
            parse_reference_letter("[Reference D]", 3)

    def test_no_match_raises(self):
        with pytest.raises(ParseError):
            parse_reference_letter("I cannot tell.", 5)

    def test_bad_entry_count_rejected(self):
        with pytest.raises(ValueError):
            parse_reference_letter("[Reference A]", 0)
        with pytest.raises(ValueError):
            parse_reference_letter("[Reference A]", 6)

    def test_letter_round_trip(self):
        for i, letter in enumerate("ABCDE"):
            assert index_to_letter(i) == letter
            assert parse_reference_letter(f"Reference {letter}", 5) == i
