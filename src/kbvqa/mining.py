"""Mining fine-tuning data from answer and selection inconsistencies.

Two miners over run traces. The answer miner compares the parametric answer
with the retrieval-grounded answer and keeps queries where they differ and
exactly one matches gold (d_int: the parametric one was right; d_ext: the
grounded one was right). The selection miner compares image-only and
text-only entry choices from probe traces and keeps queries where they
differ and one equals the gold entry's index (d_v / d_t). Records export to
per-objective training files with rendered prompts and supervision targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .answers import index_to_letter, normalize_answer
from .errors import EvalError
from .kb import KnowledgeBase, Query
from .metrics import DEFAULT_TOLERANCE, match_answer
from .pipeline import PipelineTrace
from .prompts import DEFAULT_CHAR_BUDGET, PromptContext, render
from .records import from_record, read_jsonl, to_record, write_jsonl

OBJECTIVES = ("prki", "vtki", "sft")
_OBJECTIVE_BUCKETS = {
    "prki": ("d_int", "d_ext"),
    "vtki": ("d_v", "d_t"),
    "sft": ("d_v", "d_t"),
}


@dataclass(frozen=True)
class MiningRecord:
    query_id: str
    bucket: str
    objective: str
    target: str | int
    gold_answer: str
    context_entry_ids: tuple[str, ...]
    provenance: dict


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
    query_by_qid = {q.query_id: q for q in queries}
    missing = sorted(set(int_by_qid) - set(query_by_qid))
    if missing:
        raise EvalError(f"no query for {len(missing)} trace ids, first: {missing[0]!r}")

    counters = {
        "total": len(int_by_qid), "failed_traces": 0, "equal_answers": 0,
        "differing": 0, "both_match": 0, "neither_match": 0, "d_int": 0, "d_ext": 0,
    }
    d_int: list[MiningRecord] = []
    d_ext: list[MiningRecord] = []
    for qid in sorted(int_by_qid):
        int_trace = int_by_qid[qid]
        ext_trace = ext_by_qid[qid]
        if int_trace.failed or ext_trace.failed:
            counters["failed_traces"] += 1
            continue
        y_int = int_trace.y_int if int_trace.y_int is not None else int_trace.y_final
        y_ext = ext_trace.y_ext if ext_trace.y_ext is not None else ext_trace.y_final
        if normalize_answer(y_int) == normalize_answer(y_ext):
            counters["equal_answers"] += 1
            continue
        counters["differing"] += 1
        query = query_by_qid[qid]
        int_ok = match_answer(y_int, query, tolerance=tolerance).correct
        ext_ok = match_answer(y_ext, query, tolerance=tolerance).correct
        if not int_ok and not ext_ok:
            counters["neither_match"] += 1
            continue
        if int_ok and ext_ok:
            counters["both_match"] += 1
        bucket = "d_int" if int_ok else "d_ext"
        record = MiningRecord(
            query_id=qid,
            bucket=bucket,
            objective="prki",
            target=y_int if int_ok else y_ext,
            gold_answer=query.gold_answers[0],
            context_entry_ids=ext_trace.context_entry_ids,
            provenance={"y_int": y_int, "y_ext": y_ext},
        )
        if bucket == "d_int":
            d_int.append(record)
        else:
            d_ext.append(record)
        counters[bucket] += 1
    return PrkiMining(d_int=tuple(d_int), d_ext=tuple(d_ext), counters=counters)


def mine_vtki(
    probe_traces: Sequence[PipelineTrace],
    queries: Sequence[Query],
    url_of: Mapping[str, str],
) -> VtkiMining:
    """Build d_v/d_t from unimodal probe traces.

    The gold index is the first position in the trace's candidate entries
    whose URL equals the query's gold entry URL; queries whose gold entry
    was not retrieved are excluded and counted.
    """
    probe_by_qid = _traces_by_qid(probe_traces, "probe")
    query_by_qid = {q.query_id: q for q in queries}
    missing = sorted(set(probe_by_qid) - set(query_by_qid))
    if missing:
        raise EvalError(f"no query for {len(missing)} probe trace ids, first: {missing[0]!r}")

    counters = {
        "total": len(probe_by_qid), "failed_traces": 0, "gold_absent": 0,
        "equal_indices": 0, "differing": 0, "neither_match": 0, "d_v": 0, "d_t": 0,
    }
    d_v: list[MiningRecord] = []
    d_t: list[MiningRecord] = []
    for qid in sorted(probe_by_qid):
        trace = probe_by_qid[qid]
        if trace.failed:
            counters["failed_traces"] += 1
            continue
        if trace.i_v is None or trace.i_t is None:
            raise EvalError(f"probe trace {qid!r} is missing a unimodal selection index")
        query = query_by_qid[qid]
        i_gt = None
        if query.gold_entry_url:
            for idx, entry_id in enumerate(trace.context_entry_ids):
                if url_of[entry_id] == query.gold_entry_url:
                    i_gt = idx
                    break
        if i_gt is None:
            counters["gold_absent"] += 1
            continue
        if trace.i_v == trace.i_t:
            counters["equal_indices"] += 1
            continue
        counters["differing"] += 1
        if trace.i_v != i_gt and trace.i_t != i_gt:
            counters["neither_match"] += 1
            continue
        bucket = "d_v" if trace.i_v == i_gt else "d_t"
        record = MiningRecord(
            query_id=qid,
            bucket=bucket,
            objective="vtki",
            target=i_gt,
            gold_answer=query.gold_answers[0],
            context_entry_ids=trace.context_entry_ids,
            provenance={"i_v": trace.i_v, "i_t": trace.i_t, "i_gt": i_gt},
        )
        if bucket == "d_v":
            d_v.append(record)
        else:
            d_t.append(record)
        counters[bucket] += 1
    return VtkiMining(d_v=tuple(d_v), d_t=tuple(d_t), counters=counters)


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

    Prompts: prki renders the all-references answering prompt over the
    record's candidate entries; vtki renders the entry-selection prompt;
    sft renders the single-gold-entry answering prompt. Targets: prki keeps
    the model's own matching answer verbatim, vtki supervises the gold
    entry's reference letter, sft supervises the gold answer. Output order
    is sorted by (query_id, bucket); an optional seeded sample caps size.
    """
    if objective not in OBJECTIVES:
        raise EvalError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    allowed = _OBJECTIVE_BUCKETS[objective]
    for record in records:
        if record.bucket not in allowed:
            raise EvalError(
                f"record {record.query_id!r} has bucket {record.bucket!r}, "
                f"objective {objective!r} accepts {allowed}"
            )
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
        if objective == "prki":
            ctx = PromptContext(query=query, entries=tuple(entries[:5]), char_budget=char_budget)
            seq = render("one_stage", "one_stage_gen", ctx)
            target: str | int = record.target
        elif objective == "vtki":
            ctx = PromptContext(query=query, entries=tuple(entries[:5]), char_budget=char_budget)
            seq = render("core", "core_select", ctx)
            target = index_to_letter(int(record.target))
        else:
            ctx = PromptContext(
                query=query, selected_entry=entries[int(record.target)], char_budget=char_budget,
            )
            seq = render("oracle", "oracle_gen", ctx)
            target = record.gold_answer
        return {
            "query_id": record.query_id,
            "bucket": record.bucket,
            "prompt_parts": seq.to_json_parts(),
            "target": target,
            "provenance": dict(record.provenance),
        }

    return write_jsonl(out_path, (line(record) for record in chosen))


def write_records(records: Sequence[MiningRecord], path: str | Path) -> int:
    return write_jsonl(path, map(to_record, records))


def read_records(path: str | Path) -> list[MiningRecord]:
    return read_jsonl(path, lambda rec, _lineno: from_record(MiningRecord, rec), EvalError)
