"""Answer scoring and aggregate reports.

Three built-in match rules keyed by the query's answer_type: normalized
exact match for text, relaxed numeric accuracy (relative tolerance, default
5%) for numeric, and interval containment for numeric_range. An external
equivalence scorer can replace the text rule through a line-JSON subprocess
protocol. Aggregates come out overall, per split tag, and per gold-rank
stratum in the retrieval results.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .answers import normalize_answer
from .errors import EvalError
from .kb import Query
from .pipeline import PipelineTrace
from .records import read_json_record, to_record, write_csv, write_json, write_jsonl
from .retrieval import DEFAULT_RECALL_KS, RetrievalResult, gold_rank

DEFAULT_TOLERANCE = 0.05
# --stratum-mode -> {bucket: the 1-based gold ranks it holds}, in report
# order. A query whose gold rank no other bucket holds, or that has none (not
# retrieved), is in ">5".
STRATA = {
    "disjoint": {"1": range(1, 2), "2": range(2, 3), "3-5": range(3, 6), ">5": ()},
    "cumulative": {"<=1": range(1, 2), "<=2": range(1, 3), "<=5": range(1, 6), ">5": ()},
}
STRATUM_MODES = tuple(STRATA)
DISJOINT_STRATA = tuple(STRATA["disjoint"])

# Thousands-grouped form first so "1,234.5" is not read as "1".
_NUMBER = re.compile(
    r"[-+]?\d{1,3}(?:,\d{3})+(?:\.\d+)?|[-+]?(?:\d+\.\d+|\.\d+|\d+)(?:[eE][-+]?\d+)?"
)


def first_number(text: str) -> float | None:
    """The first numeric token in text, thousands separators stripped."""
    m = _NUMBER.search(text)
    if m is None:
        return None
    try:
        return float(m.group(0).replace(",", ""))
    except ValueError:
        return None


@dataclass(frozen=True)
class MatchVerdict:
    query_id: str
    correct: bool
    rule: str
    detail: str = ""


def match_answer(pred: str, query: Query, tolerance: float = DEFAULT_TOLERANCE) -> MatchVerdict:
    """Verdict for one prediction against a query's gold answers.

    Numeric comparison uses |pred - gold| <= tolerance * |gold| directly so
    the boundary case is exact; a gold of zero accepts only an exact zero.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    qid = query.query_id
    if query.answer_type == "numeric":
        value = first_number(pred)
        if value is None:
            return MatchVerdict(qid, False, "relaxed_numeric", "parse_fail")
        best_rel: float | None = None
        correct = False
        for alias in query.gold_answers:
            gold = first_number(alias)
            if gold is None:
                continue
            if gold == 0.0:
                ok = value == 0.0
                rel = 0.0 if ok else float("inf")
            else:
                ok = abs(value - gold) <= tolerance * abs(gold)
                rel = abs(value - gold) / abs(gold)
            correct = correct or ok
            if best_rel is None or rel < best_rel:
                best_rel = rel
        if best_rel is None:
            return MatchVerdict(qid, False, "relaxed_numeric", "parse_fail")
        return MatchVerdict(qid, correct, "relaxed_numeric", f"{best_rel:.6g}")
    if query.answer_type == "numeric_range":
        value = first_number(pred)
        if value is None:
            return MatchVerdict(qid, False, "range", "parse_fail")
        lo, hi = query.gold_range()
        return MatchVerdict(qid, lo <= value <= hi, "range", f"value={value:.6g}")
    norm = normalize_answer(pred)
    correct = any(norm == normalize_answer(alias) for alias in query.gold_answers)
    return MatchVerdict(qid, correct, "exact", norm)


class PluginScorer:
    """External answer-equivalence scorer spoken to over a subprocess.

    Protocol: one {"pred", "golds"} JSON object per stdin line, one
    {"correct": bool} per stdout line, same order and count.
    """

    def __init__(self, command: str | Sequence[str]):
        # Imported here: only --plugin runs pay for loading them.
        import shlex

        self.argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.argv:
            raise ValueError("plugin command is empty")

    def score(self, pairs: Sequence[tuple[str, Sequence[str]]]) -> list[bool]:
        if not pairs:
            return []
        payload = "".join(
            json.dumps({"pred": pred, "golds": list(golds)}, ensure_ascii=False) + "\n"
            for pred, golds in pairs
        )
        import subprocess

        try:
            proc = subprocess.run(
                self.argv, input=payload, capture_output=True, text=True, check=False,
            )
        except OSError as exc:
            raise EvalError(f"cannot run equivalence plugin {self.argv[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            raise EvalError(
                f"equivalence plugin exited {proc.returncode}: {proc.stderr[:200]}"
            )
        lines = [line for line in proc.stdout.splitlines() if line.strip()]
        if len(lines) != len(pairs):
            raise EvalError(
                f"equivalence plugin returned {len(lines)} verdicts for {len(pairs)} inputs"
            )
        verdicts: list[bool] = []
        for i, line in enumerate(lines, start=1):
            try:
                obj = json.loads(line)
                verdicts.append(bool(obj["correct"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise EvalError(f"equivalence plugin output line {i} malformed: {exc}") from exc
        return verdicts


class StratumCell(NamedTuple):
    """Accuracy over the queries of one gold-rank stratum."""

    fraction: float
    count: int


@dataclass(frozen=True)
class MetricReport:
    """A run's scores; also the record format of report.json."""

    recall: dict[int, float]
    accuracy_overall: float
    accuracy_by_split: dict[str, float]
    accuracy_by_stratum: dict[str, StratumCell]
    stratum_mode: str
    total: int
    tolerance: float
    query_digest: str


@dataclass(frozen=True)
class ScoredRun:
    report: MetricReport
    verdicts: tuple[MatchVerdict, ...]
    memberships: dict[str, tuple[str, ...]]


def strata_for_rank(rank: int | None, mode: str = "disjoint") -> tuple[str, ...]:
    """Stratum bucket(s) for a 1-based gold rank; None means not retrieved.

    Disjoint buckets are {1}, {2}, {3-5}, {>5 or absent}; cumulative buckets
    overlap (rank 1 is in <=1, <=2 and <=5).
    """
    if mode not in STRATA:
        raise ValueError(f"stratum_mode must be one of {STRATUM_MODES}, got {mode!r}")
    return tuple(bucket for bucket, ranks in STRATA[mode].items() if rank in ranks) or (">5",)


def aggregate_accuracy(
    correct_by_qid: Mapping[str, bool],
    memberships: Mapping[str, Sequence[str]],
    stratum_order: Sequence[str],
) -> tuple[float, dict[str, StratumCell]]:
    """Overall fraction plus per-stratum (fraction, count).

    Overall is correct/total over all queries; per-stratum fractions are
    computed over the queries belonging to each bucket. With disjoint
    memberships the count-weighted stratum mean equals the overall fraction.
    A bucket may be any key, such as a split tag or a (stratum, split) pair;
    one that no query is in is left out.
    """
    if not correct_by_qid:
        raise EvalError("no verdicts to aggregate")
    total = len(correct_by_qid)
    overall = sum(1 for ok in correct_by_qid.values() if ok) / total
    counts: dict[str, int] = defaultdict(int)
    hits: dict[str, int] = defaultdict(int)
    for qid, ok in correct_by_qid.items():
        for bucket in memberships.get(qid, ()):
            counts[bucket] += 1
            if ok:
                hits[bucket] += 1
    by_stratum: dict[str, StratumCell] = {}
    for bucket in stratum_order:
        n = counts.get(bucket, 0)
        if n:
            by_stratum[bucket] = StratumCell(hits[bucket] / n, n)
    return overall, by_stratum


def query_set_digest(query_ids: Sequence[str]) -> str:
    joined = "\n".join(sorted(query_ids))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def score_run(
    traces: Sequence[PipelineTrace],
    queries: Sequence[Query],
    results: Sequence[RetrievalResult],
    url_of: Mapping[str, str],
    ks: Sequence[int] = DEFAULT_RECALL_KS,
    tolerance: float = DEFAULT_TOLERANCE,
    dedup: bool = True,
    stratum_mode: str = "disjoint",
    plugin: PluginScorer | None = None,
) -> ScoredRun:
    """Score one run end to end: recall at each k, answer verdicts on
    y_final, and accuracies overall / by split / by gold-rank stratum.

    Failed traces score as incorrect with their empty prediction. When a
    plugin is given it replaces the text rule only; numeric rules are
    arithmetic and stay built in.
    """
    if not queries:
        raise EvalError("no queries to score")
    seen: set[str] = set()
    for query in queries:
        if query.query_id in seen:
            raise EvalError(f"duplicate query_id {query.query_id!r} in queries")
        seen.add(query.query_id)
    trace_by_qid = {t.query_id: t for t in traces}
    result_by_qid = {r.query_id: r for r in results}
    missing = [q.query_id for q in queries if q.query_id not in trace_by_qid]
    if missing:
        raise EvalError(f"missing trace for {len(missing)} queries, first: {missing[0]!r}")
    missing = [q.query_id for q in queries if q.query_id not in result_by_qid]
    if missing:
        raise EvalError(
            f"missing retrieval result for {len(missing)} queries, first: {missing[0]!r}"
        )

    # One gold rank per query gives both recall at every k and the strata.
    ranks = []
    for query in queries:
        if ks and not query.gold_entry_url:  # recall needs it; a stratum takes it as absent
            raise EvalError(f"query {query.query_id!r} has no gold_entry_url")
        ranks.append(gold_rank(result_by_qid[query.query_id], query.gold_entry_url or "",
                               url_of, dedup=dedup))
    recall = {int(k): sum(rank is not None and rank <= int(k) for rank in ranks) / len(queries)
              for k in ks}

    preds = [trace_by_qid[q.query_id].y_final for q in queries]
    # The plugin, when given, judges every text answer in one batch.
    judged = [i for i, q in enumerate(queries) if plugin is not None and q.answer_type == "text"]
    outcomes = dict(zip(judged, plugin.score([(preds[i], queries[i].gold_answers)
                                              for i in judged]))) if judged else {}
    verdicts = tuple(
        MatchVerdict(q.query_id, outcomes[i], "plugin", "") if i in outcomes
        else match_answer(preds[i], q, tolerance=tolerance) for i, q in enumerate(queries))

    memberships = {query.query_id: strata_for_rank(rank, stratum_mode)
                   for query, rank in zip(queries, ranks)}

    correct_by_qid = {v.query_id: v.correct for v in verdicts}
    overall, by_stratum = aggregate_accuracy(correct_by_qid, memberships, STRATA[stratum_mode])
    splits = {q.query_id: (q.split_tag,) for q in queries}
    _, by_split = aggregate_accuracy(correct_by_qid, splits, sorted({q.split_tag for q in queries}))

    report = MetricReport(
        recall=recall,
        accuracy_overall=overall,
        accuracy_by_split={tag: cell.fraction for tag, cell in by_split.items()},
        accuracy_by_stratum=by_stratum,
        stratum_mode=stratum_mode,
        total=len(queries),
        tolerance=tolerance,
        query_digest=query_set_digest([q.query_id for q in queries]),
    )
    return ScoredRun(report=report, verdicts=verdicts, memberships=memberships)


@dataclass(frozen=True)
class DeltaRow:
    metric: str
    value_a: float | None
    value_b: float | None

    @property
    def delta(self) -> float | None:
        if self.value_a is None or self.value_b is None:
            return None
        return self.value_b - self.value_a


def _delta_rows(prefix: str, a: Mapping, b: Mapping, sort: bool = False) -> list[DeltaRow]:
    """A row per name in the name -> fraction maps a and b: a's, then b's own, or all sorted."""
    names = {**a, **b}
    return [DeltaRow(f"{prefix}{name}", a.get(name), b.get(name))
            for name in (sorted(names) if sort else names)]


def compare_runs(report_a: MetricReport, report_b: MetricReport) -> list[DeltaRow]:
    """Per-metric differences between two runs over the same query set."""
    if report_a.total != report_b.total or report_a.query_digest != report_b.query_digest:
        raise EvalError(
            "cannot compare runs over different query universes "
            f"({report_a.total} vs {report_b.total} queries)"
        )
    a, b = report_a, report_b
    strata_a, strata_b = ({s: cell.fraction for s, cell in r.accuracy_by_stratum.items()}
                          for r in (a, b))
    return [*_delta_rows("", {"accuracy_overall": a.accuracy_overall},
                         {"accuracy_overall": b.accuracy_overall}),
            *_delta_rows("recall@", a.recall, b.recall, sort=True),
            *_delta_rows("accuracy_split:", a.accuracy_by_split, b.accuracy_by_split, sort=True),
            *_delta_rows("accuracy_stratum:", strata_a, strata_b)]


# -- file formats ---------------------------------------------------------


def write_report_json(report: MetricReport, path: str | Path) -> None:
    write_json(path, to_record(report))


def read_report_json(path: str | Path) -> MetricReport:
    return read_json_record(path, MetricReport, "report", EvalError)


def _pct(fraction: float | None) -> str:
    return "" if fraction is None else f"{100.0 * fraction:.1f}"


def write_report_csv(
    scored: ScoredRun, queries: Sequence[Query], path: str | Path,
) -> None:
    """Human-oriented table: accuracy per stratum and split (percent, one
    decimal) plus recall rows. Percent cells are blank for empty cells."""
    report = scored.report
    split_by_qid = {q.query_id: q.split_tag for q in queries}
    cells = [(stratum, split) for stratum in [*STRATA[report.stratum_mode], "all"]
             for split in [*sorted({q.split_tag for q in queries}), "all"]]
    correct_by_qid = {v.query_id: v.correct for v in scored.verdicts}
    # Each query is in its strata and "all", crossed with its split and "all".
    pairs = {qid: {(stratum, split) for stratum in (*scored.memberships.get(qid, ()), "all")
                   for split in (split_by_qid.get(qid), "all")} for qid in correct_by_qid}
    _, by_cell = aggregate_accuracy(correct_by_qid, pairs, cells)

    def rows():
        for k, fraction in report.recall.items():
            yield [f"recall@{k}", "", "all", report.total, _pct(fraction)]
        for cell in cells:
            fraction, count = by_cell.get(cell, (None, 0))
            yield ["accuracy", *cell, count, _pct(fraction)]

    write_csv(path, ["metric", "stratum", "split", "count", "value_pct"], rows())


def write_verdicts(verdicts: Sequence[MatchVerdict], path: str | Path) -> int:
    return write_jsonl(path, map(to_record, verdicts))


def write_deltas_csv(rows: Sequence[DeltaRow], path: str | Path) -> None:
    write_csv(path, ["metric", "run_a_pct", "run_b_pct", "delta_pct"], (
        [row.metric, _pct(row.value_a), _pct(row.value_b),
         "" if row.delta is None else f"{100.0 * row.delta:+.1f}"] for row in rows))
