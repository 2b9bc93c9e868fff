from __future__ import annotations

import io
import json
import re

import pytest

import fixture_gen
from kbvqa.backend import MockBackend
from kbvqa.errors import PipelineError
from kbvqa.kb import EmbeddingManifest, KnowledgeBase, KnowledgeEntry, Query
from kbvqa.pipeline import (
    PipelineRunner,
    has_failures,
    needs_retrieval,
    prki_value,
    read_traces,
    vtki_value,
    write_traces,
)
from kbvqa.prompts import STAGE_TABLE, parts_sha256
from kbvqa.records import to_record
from kbvqa.retrieval import RetrievalResult


def small_kb(n: int = 5) -> KnowledgeBase:
    entries = [
        KnowledgeEntry(
            entry_id=f"e{i}",
            url=f"https://kb.example/wiki/E{i}",
            title=f"Title {i}",
            content=f"Content {i}. Second sentence {i}.",
            image_refs=(f"images/e{i}.jpg",),
        )
        for i in range(n)
    ]
    return fixture_gen.kb_from_entries(entries, EmbeddingManifest(4, n, True))


def query(qid: str = "q1", gold_url: str | None = "https://kb.example/wiki/E2") -> Query:
    return Query(
        query_id=qid,
        question=f"Question for {qid}?",
        image_ref=f"images/{qid}.jpg",
        gold_answers=("gold",),
        gold_entry_url=gold_url,
    )


def result(qid: str = "q1", ids=("e0", "e1", "e2", "e3", "e4")) -> RetrievalResult:
    hits = tuple((eid, 0.9 - 0.1 * i) for i, eid in enumerate(ids))
    return RetrievalResult(query_id=qid, hits=hits, k=len(ids))


def runner(script: dict, **kwargs) -> tuple[PipelineRunner, MockBackend]:
    backend = MockBackend(script)
    return PipelineRunner(small_kb(), backend, **kwargs), backend


class TestFlagHelpers:
    def test_prki_needs_both_sides(self):
        assert prki_value(None, "x") is None
        assert prki_value("x", None) is None

    def test_prki_normalized_comparison(self):
        assert prki_value("The Eiffel Tower", "eiffel tower.") is False
        assert prki_value("Paris", "London") is True

    def test_vtki(self):
        assert vtki_value(None, 2) is None
        assert vtki_value(1, 1) is False
        assert vtki_value(1, 3) is True


class TestParam:
    def test_fields(self):
        run, backend = runner({("q1", "param_gen"): "thinking... [Scotland]"})
        trace = run.run_query("param", query())
        assert trace.variant == "param"
        assert trace.y_int == "Scotland" and trace.y_final == "Scotland"
        assert trace.y_ext is None and trace.prki_flag is None
        assert trace.context_entry_ids == ()
        assert [t.stage for t in trace.transcripts] == ["param_gen"]
        assert backend.calls("q1") == (("q1", "param_gen"),)


class TestOracle:
    def test_uses_gold_entry(self):
        run, _ = runner({("q1", "oracle_gen"): "[42]"})
        trace = run.run_query("oracle", query())
        assert trace.y_final == "42"
        assert trace.context_entry_ids == ("e2",)

    def test_missing_gold_url_fails(self):
        run, _ = runner({})
        with pytest.raises(PipelineError, match="gold"):
            run.run_query("oracle", query(gold_url=None))

    def test_unknown_gold_url_fails(self):
        run, _ = runner({})
        with pytest.raises(PipelineError):
            run.run_query("oracle", query(gold_url="https://kb.example/wiki/NOPE"))


class TestOneStage:
    def test_fields(self):
        run, _ = runner({("q1", "one_stage_gen"): "[blue]"})
        entries = run.resolve_entries(result())
        trace = run.run_query("one_stage", query(), entries)
        assert trace.y_final == "blue"
        assert trace.context_entry_ids == ("e0", "e1", "e2", "e3", "e4")
        assert trace.i_tv is None


class TestTwoStage:
    def test_selection_then_generation(self):
        run, backend = runner({
            ("q1", "rerank"): "[Reference C]",
            ("q1", "two_stage_gen"): "[red]",
        })
        entries = run.resolve_entries(result())
        trace = run.run_query("two_stage", query(), entries)
        assert trace.i_t == 2
        assert trace.y_final == "red"
        assert backend.calls("q1") == (("q1", "rerank"), ("q1", "two_stage_gen"))

    def test_rerank_parse_failure_keeps_transcript(self):
        run, backend = runner({("q1", "rerank"): "no letter here"})
        entries = run.resolve_entries(result())
        trace = run.run_query("two_stage", query(), entries)
        assert trace.failed and "rerank" in trace.error
        assert [t.stage for t in trace.transcripts] == ["rerank"]
        assert backend.calls("q1") == (("q1", "rerank"),)

    def test_out_of_range_letter_with_fewer_entries(self):
        run, _ = runner({("q1", "rerank"): "[Reference D]"})
        entries = run.resolve_entries(result(ids=("e0", "e1")))
        trace = run.run_query("two_stage", query(), entries)
        assert trace.failed and "rerank" in trace.error


class TestCoreStaged:
    SCRIPT = {
        ("q1", "core_param"): "[Paris]",
        ("q1", "core_select"): "[Reference B]",
        ("q1", "core_ext_gen"): "[London]",
        ("q1", "core_reconcile"): "[London]",
    }

    def test_four_calls_in_order(self):
        run, backend = runner(self.SCRIPT)
        entries = run.resolve_entries(result())
        trace = run.run_query("core", query(), entries)
        assert backend.calls("q1") == (
            ("q1", "core_param"), ("q1", "core_select"),
            ("q1", "core_ext_gen"), ("q1", "core_reconcile"),
        )
        assert trace.mode == "staged"
        assert trace.y_int == "Paris" and trace.y_ext == "London"
        assert trace.i_tv == 1
        assert trace.y_final == "London"
        assert trace.prki_flag is True
        assert [t.stage for t in trace.transcripts] == [
            "core_param", "core_select", "core_ext_gen", "core_reconcile",
        ]

    def test_reconcile_always_runs_even_when_answers_agree(self):
        script = dict(self.SCRIPT)
        script[("q1", "core_ext_gen")] = "[the paris.]"
        script[("q1", "core_reconcile")] = "[Paris]"
        run, backend = runner(script)
        trace = run.run_query("core", query(), run.resolve_entries(result()))
        assert trace.prki_flag is False
        assert len(backend.calls("q1")) == 4

    def test_select_failure_keeps_first_two_transcripts(self):
        script = dict(self.SCRIPT)
        script[("q1", "core_select")] = "hmm, not sure"
        run, backend = runner(script)
        trace = run.run_query("core", query(), run.resolve_entries(result()))
        assert trace.failed and "core_select" in trace.error
        assert trace.y_int == "Paris"
        assert [t.stage for t in trace.transcripts] == ["core_param", "core_select"]
        assert len(backend.calls("q1")) == 2


class TestCoreSingle:
    def test_single_call_field_recovery(self):
        script = {("q1", "core_single"):
                  "Step 1: [Paris]. Step 2 picks Reference B. Final: [London]"}
        run, backend = runner(script, core_mode="single")
        trace = run.run_query("core", query(), run.resolve_entries(result()))
        assert backend.calls("q1") == (("q1", "core_single"),)
        assert trace.mode == "single"
        assert trace.y_final == "London"
        assert trace.y_int == "Paris"
        assert trace.i_tv == 1
        assert trace.y_ext is None
        assert trace.prki_flag is None

    def test_single_span_yields_no_y_int(self):
        script = {("q1", "core_single"): "only the final [London]"}
        run, _ = runner(script, core_mode="single")
        trace = run.run_query("core", query(), run.resolve_entries(result()))
        assert trace.y_final == "London"
        assert trace.y_int is None and trace.i_tv is None

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="core_mode"):
            PipelineRunner(small_kb(), MockBackend({}), core_mode="both")


class TestProbes:
    def test_flag_set(self):
        run, backend = runner({
            ("q1", "probe_visual"): "[Reference A]",
            ("q1", "probe_text"): "[Reference C]",
        })
        trace = run.run_query("probe", query(), run.resolve_entries(result()))
        assert trace.variant == "probe"
        assert trace.i_v == 0 and trace.i_t == 2
        assert trace.vtki_flag is True
        assert trace.y_final == ""
        assert backend.calls("q1") == (("q1", "probe_visual"), ("q1", "probe_text"))

    def test_agreement(self):
        run, _ = runner({
            ("q1", "probe_visual"): "Reference D",
            ("q1", "probe_text"): "[Reference D]",
        })
        trace = run.run_query("probe", query(), run.resolve_entries(result()))
        assert trace.vtki_flag is False

    def test_probe_parse_failure(self):
        run, _ = runner({
            ("q1", "probe_visual"): "???",
            ("q1", "probe_text"): "[Reference A]",
        })
        trace = run.run_query("probe", query(), run.resolve_entries(result()))
        assert trace.failed and "probe_visual" in trace.error
        assert trace.transcripts


class TestRunner:
    def test_top_k_bounds(self):
        with pytest.raises(ValueError, match="top_k"):
            PipelineRunner(small_kb(), MockBackend({}), top_k=6)
        with pytest.raises(ValueError, match="top_k"):
            PipelineRunner(small_kb(), MockBackend({}), top_k=0)
        with pytest.raises(ValueError, match="char_budget must be positive, got 0"):
            PipelineRunner(small_kb(), MockBackend({}), char_budget=0)

    def test_resolve_entries_unknown_id(self):
        run, _ = runner({})
        with pytest.raises(PipelineError, match="ghost"):
            run.resolve_entries(result(ids=("ghost",)))

    def test_resolve_entries_clips_to_top_k(self):
        run, _ = runner({}, top_k=2)
        entries = run.resolve_entries(result())
        assert [e.entry_id for e in entries] == ["e0", "e1"]

    def test_empty_response_warning(self):
        run, _ = runner({("q1", "param_gen"): "   "})
        trace = run.run_query("param", query())
        assert "empty_response:param_gen" in trace.warnings

    def test_unknown_variant(self):
        run, _ = runner({})
        with pytest.raises(PipelineError, match="variant"):
            run.run_query("bogus", query(), None)


_GOOD_REPLY = {"answer": "[Paris]", "letter": "[Reference B]",
               "single": "Step 1 [Paris]. Reference B. Final: [London]"}
_TABLE_CASES = [(variant, mode, i) for (variant, mode), stages in STAGE_TABLE.items()
                for i, stage in enumerate(stages) if stage.parse == "letter"]


class TestStageTable:
    """The runner calls each row of prompts.STAGE_TABLE as the row says."""

    def test_stage_tokens_are_unique(self):
        """Mock scripts key on the token alone, across every variant and mode."""
        tokens = [stage.token for stages in STAGE_TABLE.values() for stage in stages]
        assert len(tokens) == len(set(tokens))

    @pytest.mark.parametrize("variant,mode", list(STAGE_TABLE))
    def test_stages_render_and_run_in_table_order(self, variant, mode):
        stages = STAGE_TABLE[(variant, mode)]
        script = {("q1", s.token): _GOOD_REPLY[s.parse] for s in stages}
        run, backend = runner(script, core_mode=mode or "staged")
        trace = run.run_query(variant, query(), run.resolve_entries(result()))
        assert not trace.failed, trace.error
        assert trace.mode == mode
        assert backend.calls("q1") == tuple(("q1", s.token) for s in stages)
        assert [t.stage for t in trace.transcripts] == [s.token for s in stages]
        assert [t.max_new_tokens for t in trace.transcripts] == [s.max_new_tokens for s in stages]
        assert needs_retrieval(variant) == any(s.context == "entries" for s in stages)

    @pytest.mark.parametrize("variant,mode,failing", _TABLE_CASES)
    def test_letter_parse_failure_stops_after_that_stage(self, variant, mode, failing):
        stages = STAGE_TABLE[(variant, mode)]
        script = {("q1", s.token): _GOOD_REPLY[s.parse] for s in stages}
        script[("q1", stages[failing].token)] = "no letter here"
        run, backend = runner(script, core_mode=mode or "staged")
        trace = run.run_query(variant, query(), run.resolve_entries(result()))
        made = tuple(("q1", s.token) for s in stages[: failing + 1])
        assert backend.calls("q1") == made
        assert trace.failed and trace.error.startswith(f"{stages[failing].token}: ")
        assert len(trace.transcripts) == failing + 1

    def test_needs_retrieval_rejects_unknown_variant(self):
        with pytest.raises(PipelineError, match="variant"):
            needs_retrieval("bogus")


def _many_script(n: int) -> dict:
    script = {}
    for i in range(n):
        qid = f"q{i:02d}"
        script[(qid, "param_gen")] = f"[answer {i}]"
    return script


class TestRunMany:
    def test_order_and_worker_equivalence(self):
        queries = [query(f"q{i:02d}") for i in range(12)]
        outs = []
        for workers in (1, 4):
            run, _ = runner(_many_script(12))
            traces = run.run_many("param", queries, None, workers=workers)
            assert [t.query_id for t in traces] == [q.query_id for q in queries]
            buf = io.StringIO()
            for t in traces:
                buf.write(str(to_record(t)))
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_backend_error_becomes_failed_trace(self):
        queries = [query("q00"), query("q01")]
        run, _ = runner(_many_script(1))  # q01 missing from script
        traces = run.run_many("param", queries, None, workers=2)
        assert not traces[0].failed
        assert traces[1].failed
        assert "ScriptKeyError" in traces[1].error
        assert has_failures(traces)

    def test_missing_result_is_an_error(self):
        queries = [query("q00")]
        run, _ = runner({})
        with pytest.raises(PipelineError, match="retrieval result"):
            run.run_many("one_stage", queries, {}, workers=1)

    def test_results_required_for_retrieval_variants(self):
        queries = [query("q00")]
        run, _ = runner({})
        with pytest.raises(PipelineError):
            run.run_many("core", queries, None, workers=1)


class TestTraceIO:
    def _traces(self):
        run, _ = runner({
            ("q1", "core_param"): "[Paris]",
            ("q1", "core_select"): "[Reference B]",
            ("q1", "core_ext_gen"): "[London]",
            ("q1", "core_reconcile"): "[London]",
        })
        return [run.run_query("core", query(), run.resolve_entries(result()))]

    def test_round_trip(self, tmp_path):
        traces = self._traces()
        path = tmp_path / "traces.jsonl"
        write_traces(traces, path)
        again = read_traces(path)
        assert len(again) == 1
        a, b = traces[0], again[0]
        assert a.query_id == b.query_id and a.y_final == b.y_final
        assert a.prki_flag == b.prki_flag
        assert a.context_entry_ids == b.context_entry_ids
        assert [t.stage for t in a.transcripts] == [t.stage for t in b.transcripts]
        assert a.transcripts[0].prompt_sha256 == b.transcripts[0].prompt_sha256

    def test_transcript_with_prompt_parts_reads_as_its_digest(self, tmp_path):
        # Traces written before transcripts named their prompts by digest.
        traces = self._traces()
        parts = [{"type": "text", "text": "Question: \u2028\"x\"\\"},
                 {"type": "image", "marker": "<image>", "image_ref": "images/q1.jpg"}]
        row = to_record(traces[0])
        for t in row["transcripts"]:
            del t["prompt_sha256"]
            t["prompt_parts"] = parts
        path = tmp_path / "traces.jsonl"
        path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
        again = read_traces(path)[0]
        assert {t.prompt_sha256 for t in again.transcripts} == {parts_sha256(parts)}
        assert again.transcripts[0].text == traces[0].transcripts[0].text

    def test_transcript_without_a_prompt_is_an_error(self, tmp_path):
        row = to_record(self._traces()[0])
        del row["transcripts"][1]["prompt_sha256"]
        path = tmp_path / "traces.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(
                f"{path}:1: missing field 'transcripts[1].prompt_sha256'")):
            read_traces(path)

    def test_transcripts_can_be_omitted(self, tmp_path):
        traces = self._traces()
        path = tmp_path / "traces.jsonl"
        write_traces(traces, path, include_transcripts=False)
        row = json.loads(path.read_text().splitlines()[0])
        assert "transcripts" not in row
        again = read_traces(path)
        assert again[0].transcripts == ()
        assert again[0].y_final == "London"
