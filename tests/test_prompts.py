from __future__ import annotations

import functools
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbvqa import prompts
from kbvqa.errors import PromptError
from kbvqa.kb import KnowledgeEntry, Query
from kbvqa.prompts import (
    ImagePart,
    MessageSequence,
    PromptContext,
    TextPart,
    golden_check,
    parts_sha256,
    render,
    rendered_text,
    truncate_content,
)

LAKE_TITLES = ("Lake Alpha", "Lake Beta", "Lake Gamma", "Lake Delta", "Lake Epsilon")
LAKE_CONTENTS = (
    "Lake Alpha is 2.8 km wide. It lies in a valley.",
    "Lake Beta is 3.1 km wide. It sits beside a forest.",
    "Lake Gamma is 1.4 km wide. It fills an old crater.",
    "Lake Delta is 5.6 km wide. It borders two towns.",
    "Lake Epsilon is 0.9 km wide. It freezes in winter.",
)
LAKE_IMAGES = tuple(f"images/lake_{c}.jpg" for c in "abcde")


def lake_entries(n: int = 5) -> tuple[KnowledgeEntry, ...]:
    return tuple(
        KnowledgeEntry(
            entry_id=f"lake{i}",
            url=f"https://kb.example/wiki/{title.replace(' ', '_')}",
            title=title,
            content=content,
            image_refs=(image,),
        )
        for i, (title, content, image) in enumerate(
            zip(LAKE_TITLES[:n], LAKE_CONTENTS[:n], LAKE_IMAGES[:n])
        )
    )


def lake_query() -> Query:
    return Query(
        query_id="lake_q",
        question="What is the width (in kilometre) of this lake?",
        image_ref="images/query_lake.jpg",
        gold_answers=("3.1 km",),
    )


def lake_ctx(n: int = 5, **kwargs) -> PromptContext:
    entries = lake_entries(n)
    return PromptContext(query=lake_query(), entries=entries, **kwargs)


GOLDEN_CASES = [
    ("param", "param_gen", {}, "param.golden.txt"),
    ("oracle", "oracle_gen", {"select": 1}, "oracle.golden.txt"),
    ("one_stage", "one_stage_gen", {}, "one_stage.golden.txt"),
    ("two_stage", "rerank", {}, "two_stage_rerank.golden.txt"),
    ("two_stage", "two_stage_gen", {"select": 1}, "two_stage_generate.golden.txt"),
    ("mmstar", "mmstar_gen", {}, "mmstar.golden.txt"),
    ("core", "core_single", {}, "core_single.golden.txt"),
    ("core", "core_select", {}, "core_select.golden.txt"),
    ("core", "core_reconcile", {"select": 1, "steps": ("3 km", "3.1 km")},
     "core_reconcile.golden.txt"),
    ("probe", "probe_visual", {}, "probe_visual.golden.txt"),
]


def _ctx_for(case: dict) -> PromptContext:
    entries = lake_entries()
    kwargs = {}
    if "select" in case:
        kwargs["selected_entry"] = entries[case["select"]]
    if "steps" in case:
        kwargs["step1_answer"], kwargs["step3_answer"] = case["steps"]
    return PromptContext(query=lake_query(), entries=entries, **kwargs)


class TestGoldens:
    @pytest.mark.parametrize("variant, stage, case, golden", GOLDEN_CASES,
                             ids=[g[:-len(".golden.txt")] for *_, g in GOLDEN_CASES])
    def test_byte_exact(self, variant, stage, case, golden, goldens_dir):
        check = golden_check(variant, stage, _ctx_for(case), goldens_dir / golden)
        assert check.passed, check.message

    def test_mismatch_reports_offset(self, goldens_dir, tmp_path):
        golden = (goldens_dir / "param.golden.txt").read_bytes()
        mutated = tmp_path / "mutated.txt"
        mutated.write_bytes(golden[:20] + b"X" + golden[21:])
        check = golden_check("param", "param_gen", lake_ctx(), mutated)
        assert not check.passed
        assert check.offset == 20
        assert "X" in check.message


class TestImagePositions:
    def test_param_only_query_image(self):
        seq = render("param", "param_gen", lake_ctx())
        assert seq.image_refs() == ("images/query_lake.jpg",)

    def test_one_stage_query_then_entries(self):
        seq = render("one_stage", "one_stage_gen", lake_ctx())
        assert seq.image_refs() == ("images/query_lake.jpg",) + LAKE_IMAGES

    def test_rerank_has_no_entry_images(self):
        seq = render("two_stage", "rerank", lake_ctx())
        assert seq.image_refs() == ("images/query_lake.jpg",)
        seq = render("probe", "probe_text", lake_ctx())
        assert seq.image_refs() == ("images/query_lake.jpg",)

    def test_reference_image_slot_uses_selected_entry(self):
        entries = lake_entries()
        ctx = PromptContext(query=lake_query(), entries=entries, selected_entry=entries[1])
        seq = render("oracle", "oracle_gen", ctx)
        assert seq.image_refs() == ("images/query_lake.jpg", LAKE_IMAGES[1])
        seq = render("core", "core_reconcile",
                     PromptContext(query=lake_query(), entries=entries,
                                   selected_entry=entries[1],
                                   step1_answer="a", step3_answer="b"))
        assert seq.image_refs() == ("images/query_lake.jpg", LAKE_IMAGES[1])

    def test_core_single_bookends_query_image(self):
        seq = render("core", "core_single", lake_ctx())
        refs = seq.image_refs()
        assert refs[0] == "images/query_lake.jpg"
        assert refs[-1] == "images/query_lake.jpg"
        assert refs[1:-1] == LAKE_IMAGES

    def test_probe_visual_images_without_text(self):
        seq = render("probe", "probe_visual", lake_ctx())
        assert seq.image_refs() == ("images/query_lake.jpg",) + LAKE_IMAGES


class TestFewerEntries:
    def test_blocks_drop_per_letter(self):
        text = rendered_text("one_stage", "one_stage_gen", lake_ctx(3))
        assert "Reference C:" in text and "Reference D:" not in text
        assert "<image#D>" not in text and "<image#E>" not in text
        assert "{wiki_title_D}" not in text
        expected = (
            "Based on the retrieved document, answer the question\n"
            "<image>\n"
            "What is the width (in kilometre) of this lake? within 5 words\n"
            + "".join(
                f"Reference {letter}:\n<image#{letter}>\nWiki title: {title}\n"
                f"Wiki content:{content}\n"
                for letter, title, content in zip("ABC", LAKE_TITLES, LAKE_CONTENTS)
            )
        )
        assert text == expected

    def test_single_entry_rerank(self):
        text = rendered_text("two_stage", "rerank", lake_ctx(1))
        assert "Context A:" in text and "Context B:" not in text
        assert text.endswith("(A/B/C/D/E)\n")

    def test_image_count_follows_entries(self):
        seq = render("one_stage", "one_stage_gen", lake_ctx(2))
        assert seq.image_refs() == ("images/query_lake.jpg",) + LAKE_IMAGES[:2]


class TestErrors:
    def test_too_many_entries(self):
        entries = lake_entries() + (lake_entries()[0],)
        with pytest.raises(PromptError, match="5"):
            render("one_stage", "one_stage_gen",
                   PromptContext(query=lake_query(), entries=entries))

    def test_entry_stages_need_entries(self):
        with pytest.raises(PromptError):
            render("one_stage", "one_stage_gen",
                   PromptContext(query=lake_query(), entries=()))

    def test_selected_entry_required(self):
        with pytest.raises(PromptError):
            render("oracle", "oracle_gen", lake_ctx())

    def test_step_answers_required_for_reconcile(self):
        entries = lake_entries()
        with pytest.raises(PromptError):
            render("core", "core_reconcile",
                   PromptContext(query=lake_query(), entries=entries,
                                 selected_entry=entries[0]))

    def test_unknown_stage(self):
        with pytest.raises(PromptError, match=r"^stage 'no_such_stage' does not belong "
                                              r"to variant 'param'$"):
            render("param", "no_such_stage", lake_ctx())

    def test_stage_of_another_variant(self):
        with pytest.raises(PromptError, match=r"^stage 'core_select' does not belong "
                                              r"to variant 'param'$"):
            render("param", "core_select", lake_ctx())

    def test_unknown_variant(self):
        with pytest.raises(PromptError, match=r"^unknown variant: 'bogus'$"):
            render("bogus", "param_gen", lake_ctx())

    def test_entry_without_image(self):
        entry = KnowledgeEntry(entry_id="x", url="u", title="t", content="c",
                               image_refs=())
        with pytest.raises(PromptError, match="image"):
            render("one_stage", "one_stage_gen",
                   PromptContext(query=lake_query(), entries=(entry,)))


class TestMarkerSafety:
    def test_image_marker_in_question_stays_text(self):
        query = Query(query_id="inj", question="what about <image> here?",
                      image_ref="images/q.jpg", gold_answers=("x",))
        seq = render("param", "param_gen", PromptContext(query=query))
        # the injected marker must not add an image slot
        assert seq.image_refs() == ("images/q.jpg",)
        assert "what about <image> here?" in seq.marked_text()

    def test_letter_marker_in_content_stays_text(self):
        entries = list(lake_entries(2))
        entries[0] = KnowledgeEntry(
            entry_id=entries[0].entry_id, url=entries[0].url,
            title=entries[0].title, content="Sneaky <image#B> content here.",
            image_refs=entries[0].image_refs,
        )
        seq = render("one_stage", "one_stage_gen",
                     PromptContext(query=lake_query(), entries=tuple(entries)))
        assert len(seq.image_refs()) == 3  # query + two entries, no extras


class TestTruncation:
    def test_short_text_unchanged(self):
        assert truncate_content("One. Two.", 2000) == "One. Two."

    def test_cuts_at_last_sentence_end(self):
        text = "First sentence. Second sentence. Third sentence."
        # budget lands inside "Third"; keep through "Second sentence."
        assert truncate_content(text, 40) == "First sentence. Second sentence."

    def test_hard_cut_without_boundary(self):
        text = "x" * 100
        assert truncate_content(text, 30) == "x" * 30

    def test_question_and_exclamation_count(self):
        text = "Really? Yes! And then some trailing words"
        assert truncate_content(text, 14) == "Really? Yes!"

    def test_budget_exactly_at_boundary(self):
        text = "Alpha. Beta."
        assert truncate_content(text, len(text)) == text

    def test_decimal_point_is_not_a_boundary(self):
        text = "It is 3.14159 along the full span no stop"
        # the only '.' is inside the number; must fall back to a hard cut
        assert truncate_content(text, 20) == "It is 3.14159 along "[:20]

    def test_applies_during_render(self):
        long_entry = KnowledgeEntry(
            entry_id="long", url="u", title="Long",
            content="Keep this sentence. " + "pad " * 800,
            image_refs=("images/long.jpg",),
        )
        ctx = PromptContext(query=lake_query(), entries=(long_entry,), char_budget=25)
        text = rendered_text("one_stage", "one_stage_gen", ctx)
        assert "Wiki content:Keep this sentence.\n" in text
        assert "pad pad" not in text


def test_message_sequence_json_parts():
    seq = MessageSequence(parts=(
        TextPart("before "),
        ImagePart("images/a.jpg", "<image>"),
        TextPart(" after"),
    ))
    assert seq.to_json_parts() == [
        {"type": "text", "text": "before "},
        {"type": "image", "marker": "<image>", "image_ref": "images/a.jpg"},
        {"type": "text", "text": " after"},
    ]
    assert seq.text_only() == "before  after"
    assert seq.marked_text() == "before <image> after"


# Characters JSON escapes or that UTF-8 takes several bytes for, next to any other.
_digest_text = st.text(alphabet=st.one_of(
    st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028\u2029é漢😀<>#'),
    st.characters(exclude_categories=("Cs",)),
), max_size=30)
_digest_parts = st.lists(st.one_of(
    st.builds(TextPart, _digest_text),
    st.builds(ImagePart, _digest_text, st.sampled_from(("<image>", "<image#A>", "<image#E>"))),
), max_size=8)


@settings(max_examples=300, deadline=None)
@given(parts=_digest_parts)
def test_digest_is_sha256_of_the_json_parts(parts):
    seq = MessageSequence(parts=tuple(parts))
    json_parts = seq.to_json_parts()
    expected = hashlib.sha256(json.dumps(json_parts, ensure_ascii=False).encode()).hexdigest()
    assert seq.sha256() == expected
    assert parts_sha256(json.loads(json.dumps(json_parts))) == expected


class TestTruncationProperties:
    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="ab .!?\n", max_size=60), budget=st.integers(1, 70))
    def test_prefix_within_budget(self, text, budget):
        out = truncate_content(text, budget)
        assert text.startswith(out)
        assert len(out) <= budget
        if len(text) <= budget:
            assert out == text
            return
        ends = [i for i in range(budget) if text[i] in ".!?"
                and (i + 1 == len(text) or text[i + 1].isspace())]
        if ends:
            # the last sentence end the window holds
            assert out == text[:ends[-1] + 1]
        else:
            assert out == text[:budget]


# Strings a question, title or content could carry that look like template syntax.
_INJECTIONS = ("<image>", "<image#A>", "<image#E>", "{question}", "{wiki_title_A}",
               "Reference Image:", "Reference Image: ", "Reference B:", "\n")
_injected_text = st.lists(
    st.one_of(st.sampled_from(_INJECTIONS), st.text(alphabet="xyz .<>{}#:", max_size=5)),
    min_size=1, max_size=6,
).map("".join)

# (variant, stage, needs a selected entry, needs step answers), every stage once.
_STAGE_CASES = (
    ("param", "param_gen", False, False),
    ("oracle", "oracle_gen", True, False),
    ("one_stage", "one_stage_gen", False, False),
    ("two_stage", "rerank", False, False),
    ("two_stage", "two_stage_gen", True, False),
    ("mmstar", "mmstar_gen", False, False),
    ("core", "core_single", False, False),
    ("core", "core_param", False, False),
    ("core", "core_select", False, False),
    ("core", "core_ext_gen", True, False),
    ("core", "core_reconcile", True, True),
    ("probe", "probe_visual", False, False),
    ("probe", "probe_text", False, False),
)


def _stage_ctx(case, n, question, titles, contents, steps=("s1", "s3")) -> PromptContext:
    _variant, _stage, selected, stepped = case
    entries = tuple(
        KnowledgeEntry(entry_id=f"e{i}", url=f"u{i}", title=titles[i], content=contents[i],
                       image_refs=(f"images/e{i}.jpg",))
        for i in range(n)
    )
    selected_entry = KnowledgeEntry(entry_id="sel", url="u", title=titles[-1],
                                    content=contents[-1], image_refs=("images/sel.jpg",))
    query = Query(query_id="q", question=question, image_ref="images/q.jpg", gold_answers=("x",))
    return PromptContext(
        query=query, entries=entries, selected_entry=selected_entry if selected else None,
        step1_answer=steps[0] if stepped else None, step3_answer=steps[1] if stepped else None,
    )


class TestMarkerInjectionProperties:
    """Values that look like markers, placeholders or the "Reference Image:"
    cue change no image slot and reach the text parts verbatim."""

    @settings(max_examples=150, deadline=None)
    @given(case=st.sampled_from(_STAGE_CASES), n=st.integers(1, 5), question=_injected_text,
           titles=st.lists(_injected_text, min_size=6, max_size=6),
           contents=st.lists(_injected_text, min_size=6, max_size=6),
           steps=st.tuples(_injected_text, _injected_text))
    def test_injected_values_stay_text(self, case, n, question, titles, contents, steps):
        variant, stage = case[:2]
        # Neutral sentinels, one per value; the injected text has no "§".
        sentinels = {"§Q§": question, "§S1§": steps[0], "§S3§": steps[1]}
        sentinels.update({f"§T{i}§": t for i, t in enumerate(titles)})
        sentinels.update({f"§C{i}§": c for i, c in enumerate(contents)})
        neutral = render(variant, stage, _stage_ctx(
            case, n, "§Q§", [f"§T{i}§" for i in range(6)], [f"§C{i}§" for i in range(6)],
            ("§S1§", "§S3§")))
        injected = render(variant, stage, _stage_ctx(case, n, question, titles, contents, steps))
        assert len(injected.parts) == len(neutral.parts)
        for got, base in zip(injected.parts, neutral.parts):
            if isinstance(base, ImagePart):
                assert got == base
            else:
                expected = re.sub(r"§[A-Z0-9]+§", lambda m: sentinels[m.group(0)], base.text)
                assert got == TextPart(expected)


def _golden_ctx(case: dict, n: int) -> PromptContext:
    """A golden case's context over its first n entries."""
    ctx = _ctx_for(case)
    return PromptContext(query=ctx.query, entries=ctx.entries[:n],
                         selected_entry=ctx.selected_entry,
                         step1_answer=ctx.step1_answer, step3_answer=ctx.step3_answer)


@functools.lru_cache(maxsize=None)
def _render_from_empty_cache(idx: int, n: int) -> str:
    variant, stage, case, _golden = GOLDEN_CASES[idx]
    prompts._compiled.cache_clear()
    return rendered_text(variant, stage, _golden_ctx(case, n))


class TestTemplateCacheProperties:
    @settings(max_examples=60, deadline=None)
    @given(order=st.lists(st.tuples(st.integers(0, len(GOLDEN_CASES) - 1), st.integers(1, 5)),
                          min_size=1, max_size=12))
    def test_any_order_of_entry_counts_renders_the_same(self, order, goldens_dir):
        """A template compiled for one entry count never leaks into another:
        renders in any order, such as 5, 2, 5 or 1, 4, match a render from
        an empty cache, and the goldens at five entries."""
        expected = {key: _render_from_empty_cache(*key) for key in order}
        for idx, n in order:
            variant, stage, case, golden = GOLDEN_CASES[idx]
            ctx = _golden_ctx(case, n)
            assert rendered_text(variant, stage, ctx) == expected[idx, n]
            if n == 5:
                assert golden_check(variant, stage, ctx, goldens_dir / golden).passed
