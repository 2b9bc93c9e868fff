"""Mining fine-tuning data from answer and selection inconsistencies.

Both miners run one loop over run traces: where a query's two sides differ,
its record goes to the first bucket when the first side matches gold, else
to the second when that one does. The answer miner compares the parametric
and retrieval-grounded answers (d_int / d_ext; d_int when both match), the
selection miner the image-only and text-only entry choices of probe traces
with the gold entry's index (d_v / d_t). Records export to per-objective
training files with rendered prompts and supervision targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .answers import index_to_letter
from .errors import EvalError
from .kb import KnowledgeBase, Query
from .metrics import DEFAULT_TOLERANCE, match_answer
from .pipeline import MAX_TOP_K, PipelineTrace, prki_value, vtki_value
from .prompts import DEFAULT_CHAR_BUDGET, STAGES, PromptContext, render
from .records import from_record, read_jsonl, to_record, write_jsonl


@dataclass(frozen=True)
class MiningRecord:
    query_id: str
    bucket: str
    objective: str
    target: str | int
    gold_answer: str
    context_entry_ids: tuple[str, ...]
    provenance: dict


class Objective(NamedTuple):
    """A training objective: the buckets it takes, the (variant, stage)
    whose prompt its lines render, and its target for a record."""

    buckets: tuple[str, str]
    variant: str
    stage: str
    target: Callable[[MiningRecord], str | int]


OBJECTIVE_TABLE = {
    "prki": Objective(("d_int", "d_ext"), "one_stage", "one_stage_gen", lambda r: r.target),
    "vtki": Objective(("d_v", "d_t"), "core", "core_select",
                      lambda r: index_to_letter(int(r.target))),
    "sft": Objective(("d_v", "d_t"), "oracle", "oracle_gen", lambda r: r.gold_answer),
}


@dataclass(frozen=True)
class PrkiMining:
    d_int: tuple[MiningRecord, ...]
    d_ext: tuple[MiningRecord, ...]
    counters: dict[str, int]


@dataclass(frozen=True)
class VtkiMining:
    d_v: tuple[MiningRecord, ...]
    d_t: tuple[MiningRecord, ...]
    counters: dict[str, int]


def _traces_by_qid(traces: Sequence[PipelineTrace], label: str) -> dict[str, PipelineTrace]:
    out: dict[str, PipelineTrace] = {}
    for trace in traces:
        if trace.query_id in out:
            raise EvalError(f"duplicate query_id {trace.query_id!r} in {label} traces")
        out[trace.query_id] = trace
    return out


def _mine(
    objective: str, by_qid: Mapping[str, object], queries: Sequence[Query], what: str,
    counted: tuple[str, ...], read: Callable[[Query], str | tuple],
) -> tuple[tuple[MiningRecord, ...], tuple[MiningRecord, ...], dict[str, int]]:
    """The records of objective's two buckets, and the miner's counters.

    Query ids are walked in order. read(query) names the counter of the
    pre-check that drops the query, or gives its two differing sides as
    (first, second, first_ok, second_ok, context_entry_ids, provenance),
    *_ok saying whether that side matches gold and so is the target.
    counted names the counters before the buckets, in summary order.
    """
    query_by_qid = {q.query_id: q for q in queries}
    missing = sorted(set(by_qid) - set(query_by_qid))
    if missing:
        raise EvalError(f"no query for {len(missing)} {what} ids, first: {missing[0]!r}")
    buckets = OBJECTIVE_TABLE[objective].buckets
    counters = {"total": len(by_qid), **dict.fromkeys((*counted, *buckets), 0)}
    records: tuple[list[MiningRecord], list[MiningRecord]] = ([], [])
    for qid in sorted(by_qid):
        query = query_by_qid[qid]
        sides = read(query)
        if isinstance(sides, str):
            counters[sides] += 1
            continue
        first, second, first_ok, second_ok, context_entry_ids, provenance = sides
        counters["differing"] += 1
        if not first_ok and not second_ok:
            counters["neither_match"] += 1
            continue
        if first_ok and second_ok:
            counters["both_match"] += 1
        side = 0 if first_ok else 1
        records[side].append(MiningRecord(
            query_id=qid, bucket=buckets[side], objective=objective,
            target=(first, second)[side], gold_answer=query.gold_answers[0],
            context_entry_ids=context_entry_ids, provenance=provenance,
        ))
        counters[buckets[side]] += 1
    return tuple(records[0]), tuple(records[1]), counters


def mine_prki(
    param_traces: Sequence[PipelineTrace],
    ext_traces: Sequence[PipelineTrace],
    queries: Sequence[Query],
    tolerance: float = DEFAULT_TOLERANCE,
) -> PrkiMining:
    """Build d_int/d_ext from a parametric-answer run and a grounded run.

    The parametric answer is the trace's y_int (falling back to y_final);
    the grounded answer is y_ext (falling back to y_final), so core staged
    traces can serve as both sides by passing them twice. "Matches gold"
    is the scoring module's match predicate against any gold alias. When
    both differing answers match distinct aliases the record goes to d_int
    and the both_match counter reports it.
    """
    int_by_qid = _traces_by_qid(param_traces, "parametric")
    ext_by_qid = _traces_by_qid(ext_traces, "grounded")
    if set(int_by_qid) != set(ext_by_qid):
        only_int = sorted(set(int_by_qid) - set(ext_by_qid))
        only_ext = sorted(set(ext_by_qid) - set(int_by_qid))
        raise EvalError(
            "trace sets cover different query_ids "
            f"(only parametric: {only_int[:3]}, only grounded: {only_ext[:3]})"
        )

    def read(query: Query) -> str | tuple:
        int_trace, ext_trace = int_by_qid[query.query_id], ext_by_qid[query.query_id]
        if int_trace.failed or ext_trace.failed:
            return "failed_traces"
        y_int = int_trace.y_int if int_trace.y_int is not None else int_trace.y_final
        y_ext = ext_trace.y_ext if ext_trace.y_ext is not None else ext_trace.y_final
        if not prki_value(y_int, y_ext):
            return "equal_answers"
        int_ok, ext_ok = (match_answer(y, query, tolerance=tolerance).correct
                          for y in (y_int, y_ext))
        return (y_int, y_ext, int_ok, ext_ok, ext_trace.context_entry_ids,
                {"y_int": y_int, "y_ext": y_ext})

    return PrkiMining(*_mine(
        "prki", int_by_qid, queries, "trace",
        ("failed_traces", "equal_answers", "differing", "both_match", "neither_match"), read,
    ))


def mine_vtki(
    probe_traces: Sequence[PipelineTrace],
    queries: Sequence[Query],
    url_of: Mapping[str, str],
) -> VtkiMining:
    """Build d_v/d_t from unimodal probe traces.

    The gold index is the first position in the trace's candidate entries
    whose URL equals the query's gold entry URL; queries whose gold entry
    was not retrieved are excluded and counted. Differing indices cannot
    both equal it, so there is no both_match counter.
    """
    probe_by_qid = _traces_by_qid(probe_traces, "probe")

    def read(query: Query) -> str | tuple:
        trace = probe_by_qid[query.query_id]
        if trace.failed:
            return "failed_traces"
        if trace.i_v is None or trace.i_t is None:
            raise EvalError(f"probe trace {query.query_id!r} is missing a unimodal selection index")
        # url_of is looked up only up to the first entry with the gold URL.
        i_gt = next((idx for idx, entry_id in enumerate(trace.context_entry_ids)
                     if url_of[entry_id] == query.gold_entry_url),
                    None) if query.gold_entry_url else None
        if i_gt is None:
            return "gold_absent"
        if not vtki_value(trace.i_v, trace.i_t):
            return "equal_indices"
        return (trace.i_v, trace.i_t, trace.i_v == i_gt, trace.i_t == i_gt,
                trace.context_entry_ids, {"i_v": trace.i_v, "i_t": trace.i_t, "i_gt": i_gt})

    return VtkiMining(*_mine(
        "vtki", probe_by_qid, queries, "probe trace",
        ("failed_traces", "gold_absent", "equal_indices", "differing", "neither_match"), read,
    ))


def export_training(
    records: Sequence[MiningRecord],
    objective: str,
    out_path: str | Path,
    kb: KnowledgeBase,
    queries: Sequence[Query],
    char_budget: int = DEFAULT_CHAR_BUDGET,
    sample: int | None = None,
    seed: int = 0,
) -> int:
    """Write one training line per record for the requested objective.

    Each line renders the prompt of the objective's stage in OBJECTIVE_TABLE
    and supervises its target. A stage over retrieved entries is rendered
    over the record's candidate entries (at most MAX_TOP_K); one over the
    gold entry, over the candidate at the record's gold index. Output order
    is sorted by (query_id, bucket); an optional seeded sample caps size.
    """
    row = OBJECTIVE_TABLE.get(objective)
    if row is None:
        raise EvalError(f"objective must be one of {tuple(OBJECTIVE_TABLE)}, got {objective!r}")
    for record in records:
        if record.bucket not in row.buckets:
            raise EvalError(
                f"record {record.query_id!r} has bucket {record.bucket!r}, "
                f"objective {objective!r} accepts {row.buckets}"
            )
    context = STAGES[row.variant, row.stage].context
    query_by_qid = {q.query_id: q for q in queries}

    chosen = sorted(records, key=lambda r: (r.query_id, r.bucket))
    if sample is not None and sample < len(chosen):
        if sample < 0:
            raise ValueError(f"sample must be non-negative, got {sample}")
        chosen = sorted(
            random.Random(seed).sample(chosen, sample),
            key=lambda r: (r.query_id, r.bucket),
        )

    def line(record: MiningRecord) -> dict:
        query = query_by_qid.get(record.query_id)
        if query is None:
            raise EvalError(f"no query for mining record {record.query_id!r}")
        entries = []
        for entry_id in record.context_entry_ids:
            entry = kb.by_id.get(entry_id)
            if entry is None:
                raise EvalError(
                    f"mining record {record.query_id!r} references unknown entry {entry_id!r}"
                )
            entries.append(entry)
        ctx = PromptContext(
            query=query,
            entries=tuple(entries[:MAX_TOP_K]) if context == "entries" else (),
            selected_entry=entries[int(record.target)] if context == "gold" else None,
            char_budget=char_budget,
        )
        return {
            "query_id": record.query_id,
            "bucket": record.bucket,
            "prompt_parts": render(row.variant, row.stage, ctx).to_json_parts(),
            "target": row.target(record),
            "provenance": dict(record.provenance),
        }

    return write_jsonl(out_path, (line(record) for record in chosen))


def write_records(records: Sequence[MiningRecord], path: str | Path) -> int:
    return write_jsonl(path, map(to_record, records))


def read_records(path: str | Path) -> list[MiningRecord]:
    return read_jsonl(path, lambda rec, _lineno: from_record(MiningRecord, rec), EvalError)
