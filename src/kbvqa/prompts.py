"""The stage catalog and bit-exact prompt rendering for every pipeline variant.

STAGE_TABLE declares each variant once: its stages in call order, and for
each stage its template file, what its prompt is rendered from, how its
reply is parsed, the trace fields it sets and its output budget. render()
reads a stage's template and entry requirement from its row, the pipeline
runs the rows, and the CLI derives its variant and core mode choices from
them. Adding a variant means adding a row and its template file.

Templates live under ``kbvqa/templates/`` as verbatim resource files using
``{placeholder}`` substitution plus ``<image>`` / ``<image#X>`` markers.
Each (template, entry count) is compiled once into text segments and image
slots; rendering only fills in values, so substituted content never runs
back through the marker scanner, and questions or wiki text containing
marker-like strings cannot inject image slots. Rendering is byte-stable,
so a prompt is named by the sha256 of its JSON parts (parts_sha256).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Sequence, Union

from .answers import REFERENCE_LETTERS
from .errors import PromptError
from .kb import KnowledgeEntry, Query

DEFAULT_CHAR_BUDGET = 2000


@dataclass(frozen=True)
class Stage:
    """One backend call of a variant.

    token: the stage's name, unique across variants so mock scripts can key
    on it directly.
    template: the file under kbvqa/templates/ its prompt is rendered from.
    context: what the prompt is rendered from: "query" (the query alone),
    "gold" (the query's gold entry), "entries" (the retrieved entries,
    labelled A..E; render refuses zero), "selected" (the entry picked by the
    last letter stage) or "reconcile" (that entry plus y_int and y_ext).
    parse: "answer" (the bracketed answer), "letter" (a reference letter; a
    failure ends the query) or "single" (core single's best-effort parse of
    y_final, y_int and i_tv, in that order).
    fields: the trace fields the parsed value sets.
    max_new_tokens: the output budget of the call: 512 tokens for the
    multi-step reasoning variants, 64 elsewhere.
    """

    token: str
    template: str
    context: str
    parse: str
    fields: tuple[str, ...]
    max_new_tokens: int


# Every variant, one row per (variant, core mode); only core has modes. A
# variant's stages run in order, each after the previous one returned.
STAGE_TABLE: dict[tuple[str, str | None], tuple[Stage, ...]] = {
    ("param", None): (
        Stage("param_gen", "param.tmpl", "query", "answer", ("y_int", "y_final"), 64),
    ),
    ("oracle", None): (
        Stage("oracle_gen", "oracle.tmpl", "gold", "answer", ("y_final",), 64),
    ),
    ("one_stage", None): (
        Stage("one_stage_gen", "one_stage.tmpl", "entries", "answer", ("y_final",), 64),
    ),
    ("two_stage", None): (
        Stage("rerank", "two_stage_rerank.tmpl", "entries", "letter", ("i_t",), 64),
        Stage("two_stage_gen", "two_stage_generate.tmpl", "selected", "answer", ("y_final",), 64),
    ),
    ("mmstar", None): (
        Stage("mmstar_gen", "mmstar.tmpl", "entries", "answer", ("y_final",), 512),
    ),
    ("core", "staged"): (
        Stage("core_param", "param.tmpl", "query", "answer", ("y_int",), 512),
        Stage("core_select", "core_select.tmpl", "entries", "letter", ("i_tv",), 512),
        Stage("core_ext_gen", "oracle.tmpl", "selected", "answer", ("y_ext",), 512),
        Stage("core_reconcile", "core_reconcile.tmpl", "reconcile", "answer", ("y_final",), 512),
    ),
    ("core", "single"): (
        Stage("core_single", "core_single.tmpl", "entries", "single",
              ("y_final", "y_int", "i_tv"), 512),
    ),
    ("probe", None): (
        Stage("probe_visual", "probe_visual.tmpl", "entries", "letter", ("i_v",), 64),
        Stage("probe_text", "two_stage_rerank.tmpl", "entries", "letter", ("i_t",), 64),
    ),
}

# (variant, stage token) -> Stage, over every core mode: what render and mining look up.
STAGES = {(variant, stage.token): stage
          for (variant, _mode), stages in STAGE_TABLE.items() for stage in stages}

_MARKER = re.compile(r"<image#([A-E])>|<image>")
_PLACEHOLDER = re.compile(r"\{([A-Za-z0-9_]+)\}")
_SENTENCE_END = ".!?"


@dataclass(frozen=True)
class TextPart:
    text: str


@dataclass(frozen=True)
class ImagePart:
    """An image slot: which file/uri to attach and the marker it came from."""

    image_ref: str
    marker: str


Part = Union[TextPart, ImagePart]


@dataclass(frozen=True)
class MessageSequence:
    parts: tuple[Part, ...]

    def text_only(self) -> str:
        """Concatenation of the text parts, image slots elided."""
        return "".join(p.text for p in self.parts if isinstance(p, TextPart))

    def marked_text(self) -> str:
        """Full rendered template with image markers left in place."""
        out = []
        for p in self.parts:
            out.append(p.text if isinstance(p, TextPart) else p.marker)
        return "".join(out)

    def image_refs(self) -> tuple[str, ...]:
        return tuple(p.image_ref for p in self.parts if isinstance(p, ImagePart))

    def to_json_parts(self) -> list[dict]:
        out: list[dict] = []
        for p in self.parts:
            if isinstance(p, TextPart):
                out.append({"type": "text", "text": p.text})
            else:
                out.append({"type": "image", "marker": p.marker, "image_ref": p.image_ref})
        return out

    def sha256(self) -> str:
        """The digest a trace names this prompt by: parts_sha256 of its parts."""
        return parts_sha256(self.to_json_parts())


_encode_parts = json.JSONEncoder(ensure_ascii=False).encode


def parts_sha256(parts: Sequence[dict]) -> str:
    """Hex sha256 of the UTF-8 bytes of json.dumps(parts, ensure_ascii=False):
    the bytes the parts take as a value in a JSONL line."""
    return hashlib.sha256(_encode_parts(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PromptContext:
    """Everything a template may pull from: the query, the ranked entries
    (labeled A..E by rank), the selected/gold entry for single-reference
    stages, and prior stage answers for the reconciliation step."""

    query: Query
    entries: tuple[KnowledgeEntry, ...] = ()
    selected_entry: KnowledgeEntry | None = None
    step1_answer: str | None = None
    step3_answer: str | None = None
    char_budget: int = DEFAULT_CHAR_BUDGET


@dataclass(frozen=True)
class GoldenCheck:
    passed: bool
    offset: int | None = None
    message: str = "ok"


@lru_cache(maxsize=None)
def _template_text(name: str) -> str:
    ref = resources.files("kbvqa").joinpath("templates").joinpath(name)
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise PromptError(f"template resource missing: {name}") from exc


def truncate_content(text: str, char_budget: int) -> str:
    """Clip entry content to char_budget characters, preferring to end on a
    sentence boundary (., ! or ? followed by whitespace or end of text)."""
    if char_budget <= 0:
        raise ValueError(f"char_budget must be positive, got {char_budget}")
    if len(text) <= char_budget:
        return text
    for i in range(char_budget - 1, -1, -1):
        if text[i] in _SENTENCE_END and (i + 1 >= len(text) or text[i + 1].isspace()):
            return text[: i + 1]
    return text[:char_budget]


def _strip_letter_blocks(template: str, n_entries: int) -> str:
    """Drop the whole per-letter block (header line included) for every
    reference letter beyond the entries actually supplied."""
    if n_entries >= len(REFERENCE_LETTERS):
        return template
    dropped = set(REFERENCE_LETTERS[n_entries:])
    kept: list[str] = []
    for line in template.splitlines(keepends=True):
        body = line.rstrip("\n")
        letter = _letter_of_line(body)
        if letter is not None and letter in dropped:
            continue
        kept.append(line)
    return "".join(kept)


def _letter_of_line(body: str) -> str | None:
    for letter in REFERENCE_LETTERS:
        if body in (f"Reference {letter}:", f"Context {letter}:"):
            return letter
        if (f"{{wiki_title_{letter}}}" in body or f"{{wiki_content_{letter}}}" in body
                or f"<image#{letter}>" in body):
            return letter
    return None


@dataclass(frozen=True)
class _ImageSlot:
    """An image marker of a compiled template."""

    marker: str
    letter: str | None  # X of <image#X>; None for a plain <image>
    after_reference: bool  # the template text before it ends with "Reference Image:"


# A compiled text segment: literal text at even indexes, placeholder names at
# odd ones, as _PLACEHOLDER.split gives them.
_Segment = Union[tuple[str, ...], _ImageSlot]


@lru_cache(maxsize=None)
def _compiled(name: str, n_entries: int) -> tuple[_Segment, ...]:
    """The template with the blocks of absent letters stripped, split once
    into text segments and image slots, in template order.

    Only template text is scanned for markers and placeholders; render
    fills the placeholders afterwards, so substituted values never are.
    """
    template = _strip_letter_blocks(_template_text(name), n_entries)
    segments: list[_Segment] = []
    pos = 0
    for marker in _MARKER.finditer(template):
        raw_segment = template[pos : marker.start()]
        if raw_segment:
            segments.append(tuple(_PLACEHOLDER.split(raw_segment)))
        segments.append(_ImageSlot(
            marker=marker.group(0),
            letter=marker.group(1),
            after_reference=raw_segment.rstrip(" ").endswith("Reference Image:"),
        ))
        pos = marker.end()
    tail = template[pos:]
    if tail:
        segments.append(tuple(_PLACEHOLDER.split(tail)))
    return tuple(segments)


def _context_values(stage: str, ctx: PromptContext) -> dict[str, str]:
    values = {"question": ctx.query.question}
    for idx, entry in enumerate(ctx.entries):
        letter = REFERENCE_LETTERS[idx]
        values[f"wiki_title_{letter}"] = entry.title
        values[f"wiki_content_{letter}"] = truncate_content(entry.content, ctx.char_budget)
    if ctx.selected_entry is not None:
        title = ctx.selected_entry.title
        content = truncate_content(ctx.selected_entry.content, ctx.char_budget)
        values["wiki_title_gt"] = values["wiki_title_select"] = title
        values["wiki_content_gt"] = values["wiki_content_select"] = content
    if ctx.step1_answer is not None:
        values["answer_step1"] = ctx.step1_answer
    if ctx.step3_answer is not None:
        values["answer_step3"] = ctx.step3_answer
    return values


def _entry_image(entry: KnowledgeEntry, label: str) -> str:
    if not entry.image_refs:
        raise PromptError(f"entry {entry.entry_id!r} ({label}) has no image to attach")
    return entry.image_refs[0]


def _fill(segment: tuple[str, ...], values: dict[str, str], stage: str) -> str:
    text = list(segment)
    for i in range(1, len(segment), 2):
        try:
            text[i] = values[segment[i]]
        except KeyError:
            raise PromptError(
                f"stage {stage!r} is missing context for placeholder {{{segment[i]}}}"
            ) from None
    return "".join(text)


def _slot_image(slot: _ImageSlot, stage: str, ctx: PromptContext) -> str:
    if slot.letter is not None:
        idx = REFERENCE_LETTERS.index(slot.letter)
        if idx >= len(ctx.entries):
            raise PromptError(
                f"marker <image#{slot.letter}> survived block removal with only "
                f"{len(ctx.entries)} entries"
            )
        return _entry_image(ctx.entries[idx], f"reference {slot.letter}")
    if slot.after_reference:
        if ctx.selected_entry is None:
            raise PromptError(f"stage {stage!r} requires selected_entry for its reference image")
        return _entry_image(ctx.selected_entry, "selected entry")
    return ctx.query.image_ref


def render(variant: str, stage: str, ctx: PromptContext) -> MessageSequence:
    """Render one stage prompt into an ordered text/image part sequence.

    Image marker resolution: ``<image#X>`` attaches the image of the entry
    labeled X. A plain ``<image>`` attaches the query image, except when the
    preceding template text ends with ``Reference Image:``, which attaches
    the selected entry's image instead.
    """
    row = STAGES.get((variant, stage))
    if row is None:
        if all(name != variant for name, _mode in STAGE_TABLE):
            raise PromptError(f"unknown variant: {variant!r}")
        raise PromptError(f"stage {stage!r} does not belong to variant {variant!r}")
    if len(ctx.entries) > len(REFERENCE_LETTERS):
        raise PromptError(
            f"at most {len(REFERENCE_LETTERS)} entries may be supplied, got {len(ctx.entries)}"
        )
    if row.context == "entries" and not ctx.entries:
        raise PromptError(f"stage {stage!r} requires at least one retrieved entry")

    segments = _compiled(row.template, len(ctx.entries))
    values = _context_values(stage, ctx)
    parts: list[Part] = []
    for segment in segments:
        if isinstance(segment, _ImageSlot):
            parts.append(ImagePart(image_ref=_slot_image(segment, stage, ctx), marker=segment.marker))
        else:
            parts.append(TextPart(_fill(segment, values, stage)))
    return MessageSequence(parts=tuple(parts))


def rendered_text(variant: str, stage: str, ctx: PromptContext) -> str:
    """The filled template as one string, image markers kept inline. This is
    the byte stream goldens are compared against."""
    return render(variant, stage, ctx).marked_text()


def golden_check(variant: str, stage: str, ctx: PromptContext, golden_path: str | Path) -> GoldenCheck:
    """Byte-compare a rendered prompt against a golden file. Failures report
    the first differing byte offset plus a 40-byte context window per side."""
    path = Path(golden_path)
    try:
        golden = path.read_bytes()
    except OSError as exc:
        raise PromptError(f"cannot read golden file {path}: {exc}") from exc
    actual = rendered_text(variant, stage, ctx).encode("utf-8")
    if actual == golden:
        return GoldenCheck(passed=True)
    limit = min(len(golden), len(actual))
    offset = limit
    for i in range(limit):
        if golden[i] != actual[i]:
            offset = i
            break
    lo, hi = max(0, offset - 20), offset + 20
    message = (
        f"first difference at byte {offset}: "
        f"golden[{lo}:{hi}]={golden[lo:hi]!r} rendered[{lo}:{hi}]={actual[lo:hi]!r} "
        f"(golden {len(golden)} bytes, rendered {len(actual)} bytes)"
    )
    return GoldenCheck(passed=False, offset=offset, message=message)
