"""Answer-string utilities shared by the pipeline, mining, and metrics modules.

The normalization convention defined here is the single definition of string
equality used everywhere two answers are compared (inconsistency flags, mining
predicates, exact-match scoring).
"""

from __future__ import annotations

import re
import unicodedata

from .errors import ParseError

_ARTICLES = ("a", "an", "the")
_OUTER_PUNCT = " \t\n\r.,;:!?'\"`()[]{}<>"
_BRACKET_SPAN = re.compile(r"\[([^\[\]]*)\]")
_REFERENCE_LETTER = re.compile(r"reference[\s.,:;\-()\[\]]*([A-Ea-e])(?![A-Za-z])", re.IGNORECASE)

REFERENCE_LETTERS = "ABCDE"


def normalize_answer(text: str) -> str:
    """Canonical answer form: NFC, lowercased, whitespace collapsed, outer
    punctuation stripped, leading articles dropped."""
    # Lowercasing can undo NFC (U+03AA with an acute lowers to a decomposed
    # sequence), so the lowered text is composed again.
    s = unicodedata.normalize("NFC", unicodedata.normalize("NFC", text).lower())
    parts = " ".join(s.split()).strip(_OUTER_PUNCT).split()
    # Stripping again after each dropped article can expose another one
    # ("a .the x"), so the result is its own canonical form.
    while parts and parts[0] in _ARTICLES:
        parts = " ".join(parts[1:]).strip(_OUTER_PUNCT).split()
    return " ".join(parts)


def extract_answer(text: str) -> str:
    """Content of the last ``[...]`` span, trimmed; the whole trimmed text when
    no span is present."""
    spans = _BRACKET_SPAN.findall(text)
    if spans:
        return spans[-1].strip()
    return text.strip()


def bracket_spans(text: str) -> list[str]:
    """All ``[...]`` span contents in order, trimmed."""
    return [s.strip() for s in _BRACKET_SPAN.findall(text)]


def parse_reference_letter(text: str, n_entries: int) -> int:
    """0-based index of the last "Reference X" mention in *text*.

    Case-insensitive, tolerant of brackets and punctuation between the word and
    the letter. The last occurrence wins so that chain-of-thought restatements
    take precedence over earlier candidates.

    Raises ParseError when no reference letter is found or when the chosen
    letter points beyond *n_entries*.
    """
    if not 1 <= n_entries <= len(REFERENCE_LETTERS):
        raise ValueError(f"n_entries must be in 1..{len(REFERENCE_LETTERS)}, got {n_entries}")
    matches = _REFERENCE_LETTER.findall(text)
    if not matches:
        raise ParseError(f"no reference letter found in output: {text[:80]!r}")
    idx = REFERENCE_LETTERS.index(matches[-1].upper())
    if idx >= n_entries:
        raise ParseError(
            f"reference {REFERENCE_LETTERS[idx]} is out of range for {n_entries} entries"
        )
    return idx


def index_to_letter(index: int) -> str:
    """Map entry index 0..4 to its reference letter A..E."""
    if not 0 <= index < len(REFERENCE_LETTERS):
        raise ValueError(f"index must be in 0..4, got {index}")
    return REFERENCE_LETTERS[index]
