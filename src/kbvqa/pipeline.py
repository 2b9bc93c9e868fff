"""Pipeline variants over queries, each producing a full audit trace.

Six answering variants (param, oracle, one_stage, two_stage, mmstar, core)
plus a diagnostic probe run. The core variant runs in one of two modes:
"single" sends the whole multi-step template as one prompt, "staged" issues
four separate calls (parametric answer, joint entry selection, external
answer, reconciliation) and computes the answer-inconsistency flag from the
two intermediate answers. Each variant's stages are rows of
prompts.STAGE_TABLE, and PipelineRunner runs those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Container, Mapping, Sequence

from .answers import (
    REFERENCE_LETTERS, bracket_spans, extract_answer, normalize_answer, parse_reference_letter,
)
from .errors import BackendError, ParseError, PipelineError, PromptError
from .kb import KnowledgeBase, KnowledgeEntry, Query
from .prompts import DEFAULT_CHAR_BUDGET, STAGE_TABLE, PromptContext, Stage, parts_sha256, render
from .records import (
    FieldError, field_error, from_record, read_jsonl, to_record, unique_query_ids, write_jsonl,
)
from .retrieval import DEFAULT_TOP_K, RetrievalResult

if TYPE_CHECKING:  # scoring and mining import this module and make no backend call
    from .backend import Backend

CORE_MODES = tuple(mode for variant, mode in STAGE_TABLE if variant == "core")

# Prompts letter their reference entries A..E, so at most five go in one prompt.
MAX_TOP_K = len(REFERENCE_LETTERS)


@dataclass(frozen=True)
class StageTranscript:
    """One backend call of a trace. The prompt is named by its digest
    (MessageSequence.sha256), not copied: render rebuilds it from the KB,
    the query and the trace."""

    stage: str
    prompt_sha256: str
    text: str
    latency_ms: float
    raw: str
    temperature: float
    max_new_tokens: int


@dataclass(frozen=True)
class PipelineTrace:
    query_id: str
    variant: str
    mode: str | None = None
    y_int: str | None = None
    i_v: int | None = None
    i_t: int | None = None
    i_tv: int | None = None
    y_ext: str | None = None
    y_final: str = ""
    prki_flag: bool | None = None
    vtki_flag: bool | None = None
    context_entry_ids: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    failed: bool = False
    error: str | None = None
    transcripts: tuple[StageTranscript, ...] = ()


def prki_value(y_int: str | None, y_ext: str | None) -> bool | None:
    """Answer-inconsistency flag: set only when both answers exist."""
    if y_int is None or y_ext is None:
        return None
    return normalize_answer(y_int) != normalize_answer(y_ext)


def vtki_value(i_v: int | None, i_t: int | None) -> bool | None:
    """Selection-inconsistency flag: set only when both indices exist."""
    if i_v is None or i_t is None:
        return None
    return i_v != i_t


def needs_retrieval(variant: str) -> bool:
    """Whether any stage of the variant is rendered from retrieved entries."""
    uses = [s.context == "entries" for (name, _mode), stages in STAGE_TABLE.items()
            if name == variant for s in stages]
    if not uses:
        raise PipelineError(f"unknown variant: {variant!r}")
    return any(uses)


def _parse_single(text: str, n_entries: int) -> tuple[str, str | None, int | None]:
    y_final = extract_answer(text)
    # Best-effort recovery of intermediate fields the model may emit in its
    # single response; absence is not an error in this mode.
    spans = bracket_spans(text)
    y_int = spans[0].strip() if len(spans) >= 2 else None
    try:
        i_tv = parse_reference_letter(text, n_entries)
    except ParseError:
        i_tv = None
    return y_final, y_int, i_tv


class PipelineRunner:
    """Executes one variant per call against a knowledge base and backend.

    run_query() runs the variant's stages from STAGE_TABLE over the query
    plus the ranked entries already resolved from retrieval hits; run_many()
    does that resolution and fans queries out over a worker pool while
    keeping trace order equal to input order. Stages within one query are
    strictly sequential.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        backend: Backend,
        top_k: int = DEFAULT_TOP_K,
        char_budget: int = DEFAULT_CHAR_BUDGET,
        core_mode: str = "staged",
    ):
        if core_mode not in CORE_MODES:
            raise ValueError(f"core_mode must be one of {CORE_MODES}, got {core_mode!r}")
        if not 1 <= top_k <= MAX_TOP_K:
            raise ValueError(f"top_k must be within 1..{MAX_TOP_K} for prompting, got {top_k}")
        if char_budget <= 0:
            raise ValueError(f"char_budget must be positive, got {char_budget}")
        self.kb = kb
        self.backend = backend
        self.top_k = top_k
        self.char_budget = char_budget
        self.core_mode = core_mode

    def resolve_entries(self, result: RetrievalResult) -> tuple[KnowledgeEntry, ...]:
        entries = []
        for entry_id, _score in result.hits[: self.top_k]:
            entry = self.kb.by_id.get(entry_id)
            if entry is None:
                raise PipelineError(
                    f"retrieval hit {entry_id!r} for query {result.query_id!r} is not in the KB"
                )
            entries.append(entry)
        return tuple(entries)

    def _mode(self, variant: str) -> str | None:
        return self.core_mode if variant == "core" else None

    def _call(
        self, variant: str, stage: Stage, ctx: PromptContext, query_id: str,
        warnings: list[str],
    ) -> tuple[str, StageTranscript]:
        from .backend import BackendRequest

        seq = render(variant, stage.token, ctx)
        req = BackendRequest(
            messages=seq, query_id=query_id, stage=stage.token,
            max_new_tokens=stage.max_new_tokens,
        )
        resp = self.backend.generate(req)
        if not resp.text.strip():
            warnings.append(f"empty_response:{stage.token}")
        transcript = StageTranscript(
            stage=stage.token, prompt_sha256=seq.sha256(), text=resp.text,
            latency_ms=resp.latency_ms, raw=resp.raw,
            temperature=req.temperature, max_new_tokens=req.max_new_tokens,
        )
        return resp.text, transcript

    def _gold_entry(self, query: Query) -> KnowledgeEntry:
        if not query.gold_entry_url:
            raise PipelineError(f"query {query.query_id!r} has no gold entry URL")
        entry = self.kb.entry_by_url(query.gold_entry_url)
        if entry is None:
            raise PipelineError(
                f"gold entry URL for query {query.query_id!r} is not in the KB: "
                f"{query.gold_entry_url}"
            )
        return entry

    def run_query(
        self, variant: str, query: Query, entries: Sequence[KnowledgeEntry] = (),
    ) -> PipelineTrace:
        mode = self._mode(variant)
        stages = STAGE_TABLE.get((variant, mode))
        if stages is None:
            raise PipelineError(f"unknown variant: {variant!r}")
        entries = tuple(entries or ())
        contexts = {s.context for s in stages}
        selected: KnowledgeEntry | None = None
        if "entries" in contexts:
            if not entries:
                raise PipelineError(
                    f"variant {variant!r} requires at least one retrieved entry "
                    f"for query {query.query_id!r}"
                )
            ids = tuple(e.entry_id for e in entries)
        elif "gold" in contexts:
            selected = self._gold_entry(query)
            ids = (selected.entry_id,)
        else:
            ids = ()

        fields: dict = {}
        warnings: list[str] = []
        transcripts: list[StageTranscript] = []
        error = None
        for stage in stages:
            ctx = PromptContext(
                query=query,
                entries=entries if stage.context == "entries" else (),
                selected_entry=None if stage.context in ("query", "entries") else selected,
                step1_answer=fields.get("y_int") if stage.context == "reconcile" else None,
                step3_answer=fields.get("y_ext") if stage.context == "reconcile" else None,
                char_budget=self.char_budget,
            )
            text, transcript = self._call(variant, stage, ctx, query.query_id, warnings)
            transcripts.append(transcript)
            if stage.parse == "answer":
                values = (extract_answer(text),) * len(stage.fields)
            elif stage.parse == "single":
                values = _parse_single(text, len(entries))
            else:
                try:
                    values = (parse_reference_letter(text, len(entries)),)
                except ParseError as exc:
                    error = f"{stage.token}: {exc}"
                    break
                selected = entries[values[0]]
            fields.update(zip(stage.fields, values))
        return PipelineTrace(
            query_id=query.query_id, variant=variant, mode=mode, **fields,
            prki_flag=prki_value(fields.get("y_int"), fields.get("y_ext")),
            vtki_flag=vtki_value(fields.get("i_v"), fields.get("i_t")),
            context_entry_ids=ids, warnings=tuple(warnings), failed=error is not None,
            error=error, transcripts=tuple(transcripts),
        )

    def run_many(
        self,
        variant: str,
        queries: Sequence[Query],
        results: Mapping[str, RetrievalResult] | None = None,
        workers: int = 1,
    ) -> list[PipelineTrace]:
        """Run one variant over all queries; traces come back in input order.

        Backend and parse failures become failed traces rather than aborting
        the batch. Variants that consume retrieval output require a result
        for every query up front.
        """
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        entries_by_qid: dict[str, tuple[KnowledgeEntry, ...]] = {}
        if needs_retrieval(variant):
            if results is None:
                raise PipelineError(f"variant {variant!r} requires retrieval results")
            missing = [q.query_id for q in queries if q.query_id not in results]
            if missing:
                raise PipelineError(
                    f"no retrieval result for {len(missing)} queries, first: {missing[0]!r}"
                )
            for q in queries:
                entries_by_qid[q.query_id] = self.resolve_entries(results[q.query_id])

        mode = self._mode(variant)

        def one(query: Query) -> PipelineTrace:
            try:
                return self.run_query(variant, query, entries_by_qid.get(query.query_id, ()))
            except (BackendError, ParseError, PromptError, PipelineError) as exc:
                return PipelineTrace(
                    query_id=query.query_id, variant=variant, mode=mode,
                    failed=True, error=f"{type(exc).__name__}: {exc}",
                )

        if workers == 1 or len(queries) <= 1:
            return [one(q) for q in queries]
        # Here, not at the top: one-worker runs do not load concurrent.futures.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, queries))


def has_failures(traces: Sequence[PipelineTrace]) -> bool:
    return any(t.failed for t in traces)


def write_traces(
    traces: Sequence[PipelineTrace], path: str | Path, include_transcripts: bool = True,
) -> None:
    records = map(to_record, traces)
    write_jsonl(path, records if include_transcripts else (
        {name: value for name, value in record.items() if name != "transcripts"}
        for record in records))


def _trace_from_dict(rec: dict, _lineno: int) -> PipelineTrace:
    transcripts = rec.get("transcripts") if type(rec) is dict else None
    for t in transcripts if type(transcripts) is list else ():
        # Traces written before transcripts named their prompts by digest
        # carry the parts themselves.
        if type(t) is dict and "prompt_sha256" not in t and "prompt_parts" in t:
            t["prompt_sha256"] = parts_sha256(t["prompt_parts"])
    return from_record(PipelineTrace, rec)


def read_traces(path: str | Path, entry_ids: Container[str] | None = None) -> list[PipelineTrace]:
    """The traces of a JSONL file, in order.

    With entry_ids, the ids of the KB the traces were run over, each line's
    references are checked as it is read: every id of context_entry_ids
    must be one of entry_ids, and i_v, i_t and i_tv each an index into
    context_entry_ids.
    """
    parse = _trace_from_dict
    if entry_ids is not None:
        def parse(rec: dict, lineno: int) -> PipelineTrace:
            trace = _trace_from_dict(rec, lineno)
            for entry_id in trace.context_entry_ids:
                if entry_id not in entry_ids:
                    raise FieldError(f"field 'context_entry_ids' names entry {entry_id!r}, "
                                     "which is not in the KB")
            for name in ("i_v", "i_t", "i_tv"):
                check_context_index(name, getattr(trace, name), trace.context_entry_ids, True)
            return trace
    return read_jsonl(path, unique_query_ids(parse), PipelineError)


def check_context_index(name: str, value: object, context_entry_ids: Sequence[str],
                        nullable: bool = False) -> None:
    """Raise FieldError unless the field's value is an index into
    context_entry_ids, or, when nullable, null."""
    if not ((type(value) is int and 0 <= value < len(context_entry_ids))
            or (nullable and value is None)):
        raise field_error(name, f"an index into the {len(context_entry_ids)} entries of "
                                "context_entry_ids", value)
