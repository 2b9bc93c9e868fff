from __future__ import annotations

import dataclasses
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_gen
from kbvqa import metrics, records, retrieval
from kbvqa.errors import EvalError
from kbvqa.kb import SPLIT_TAGS, Query
from kbvqa.metrics import (
    DISJOINT_STRATA,
    DeltaRow,
    PluginScorer,
    aggregate_accuracy,
    compare_runs,
    first_number,
    match_answer,
    query_set_digest,
    read_report_json,
    score_run,
    strata_for_rank,
    write_deltas_csv,
    write_report_csv,
    write_report_json,
    write_verdicts,
)
from kbvqa.retrieval import gold_rank, recall_at_k


def q(answer_type="text", golds=("gold",), qid="t1"):
    return Query(query_id=qid, question="?", image_ref="i.jpg",
                 gold_answers=tuple(golds), answer_type=answer_type)


class TestFirstNumber:
    @pytest.mark.parametrize("text, expected", [
        ("42", 42.0),
        ("about 3.5 km", 3.5),
        ("1,234,567 people", 1234567.0),
        ("1,234.5 meters", 1234.5),
        ("-12 degrees", -12.0),
        ("2e3 units", 2000.0),
        (".75 ratio", 0.75),
        ("no digits here", None),
    ])
    def test_cases(self, text, expected):
        assert first_number(text) == expected


class TestMatchAnswer:
    def test_text_normalized(self):
        assert match_answer("The Gold", q()).correct
        assert match_answer("gold.", q()).correct
        assert not match_answer("silver", q()).correct

    def test_text_any_alias(self):
        query = q(golds=("first", "second"))
        assert match_answer("Second", query).correct

    def test_numeric_within_tolerance(self):
        query = q("numeric", golds=("100",))
        assert match_answer("103", query).correct
        assert match_answer("105", query).correct          # exactly 5%
        assert not match_answer("105.1", query).correct

    def test_numeric_detail_reports_relative_error(self):
        verdict = match_answer("103", q("numeric", golds=("100",)))
        assert verdict.rule == "relaxed_numeric"
        assert verdict.detail == "0.03"

    def test_numeric_gold_zero(self):
        query = q("numeric", golds=("0",))
        assert match_answer("0", query).correct
        assert not match_answer("0.001", query).correct

    def test_numeric_parse_failure(self):
        verdict = match_answer("no idea", q("numeric", golds=("5",)))
        assert not verdict.correct and verdict.detail == "parse_fail"

    def test_numeric_best_alias_wins(self):
        query = q("numeric", golds=("200", "100"))
        verdict = match_answer("101", query)
        assert verdict.correct and verdict.detail == "0.01"

    def test_range_containment(self):
        query = q("numeric_range", golds=("10..20",))
        assert match_answer("15", query).correct
        assert match_answer("10", query).correct
        assert match_answer("20", query).correct
        assert not match_answer("20.5", query).correct

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            match_answer("5", q("numeric", golds=("5",)), tolerance=-0.1)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # A NaN tolerance marks every numeric answer wrong, an infinite one every answer right.
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            match_answer("5", q("numeric", golds=("5",)), tolerance=tolerance)


class TestStrata:
    def test_disjoint(self):
        assert strata_for_rank(1) == ("1",)
        assert strata_for_rank(2) == ("2",)
        assert strata_for_rank(3) == ("3-5",)
        assert strata_for_rank(5) == ("3-5",)
        assert strata_for_rank(6) == (">5",)
        assert strata_for_rank(None) == (">5",)

    def test_cumulative_overlaps(self):
        assert strata_for_rank(1, "cumulative") == ("<=1", "<=2", "<=5")
        assert strata_for_rank(2, "cumulative") == ("<=2", "<=5")
        assert strata_for_rank(4, "cumulative") == ("<=5",)
        assert strata_for_rank(9, "cumulative") == (">5",)
        assert strata_for_rank(None, "cumulative") == (">5",)
        assert strata_for_rank(0, "cumulative") == (">5",)  # ranks start at 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            strata_for_rank(1, "weird")


class TestAggregate:
    def test_planted_exact_values(self):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        scored = score_run(traces, queries, results, url_map, ks=(1, 5))
        report = scored.report
        assert report.accuracy_overall == 0.30
        assert report.accuracy_by_stratum["1"] == (0.6, 10)
        assert report.accuracy_by_stratum["2"] == (0.3, 10)
        assert report.accuracy_by_stratum["3-5"] == (0.25, 20)
        assert report.accuracy_by_stratum[">5"] == (0.1, 10)
        assert report.accuracy_by_split == {"other": 0.04, "unseen_q": 0.56}
        assert report.total == 50

    def test_weighted_mean_invariant_randomized(self):
        rng = random.Random(99)
        for _ in range(200):
            correct_by_qid = {}
            memberships = {}
            qnum = 0
            for stratum in DISJOINT_STRATA:
                for _ in range(rng.randint(1, 40)):
                    qid = f"q{qnum}"
                    correct_by_qid[qid] = rng.random() < 0.5
                    memberships[qid] = (stratum,)
                    qnum += 1
            overall, by_stratum = aggregate_accuracy(
                correct_by_qid, memberships, DISJOINT_STRATA)
            weighted = sum(f * n for f, n in by_stratum.values())
            total = sum(n for _, n in by_stratum.values())
            assert abs(overall - weighted / total) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            aggregate_accuracy({}, {}, DISJOINT_STRATA)


class TestScoreRunValidation:
    def test_missing_trace(self):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        with pytest.raises(EvalError, match="missing trace"):
            score_run(traces[:-1], queries, results, url_map, ks=(1,))

    def test_missing_result(self):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        with pytest.raises(EvalError, match="missing retrieval result"):
            score_run(traces, queries, results[:-1], url_map, ks=(1,))

    def test_query_without_gold_url(self):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        queries[3] = dataclasses.replace(queries[3], gold_entry_url=None)
        with pytest.raises(EvalError, match=re.escape(
                f"query {queries[3].query_id!r} has no gold_entry_url")):
            score_run(traces, queries, results, url_map, ks=(1,))

    def test_duplicate_query_id_rejected(self):
        """A repeated query would count twice in recall and the splits but
        once overall and in the strata; it is refused before any tally."""
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        with pytest.raises(EvalError, match=re.escape(
                f"duplicate query_id {queries[0].query_id!r} in queries")):
            score_run(traces, queries + queries[:10], results, url_map, ks=(1,))

    def test_each_query_is_ranked_once(self, monkeypatch):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        expected = [(k, recall_at_k(results, queries, k, url_map)) for k in (5, 1, 10, 2)]
        ranked = []

        def counting_gold_rank(result, *args, **kwargs):
            ranked.append(result.query_id)
            return gold_rank(result, *args, **kwargs)

        monkeypatch.setattr(metrics, "gold_rank", counting_gold_rank)
        monkeypatch.setattr(retrieval, "gold_rank", counting_gold_rank)
        report = score_run(traces, queries, results, url_map, ks=(5, 1, 10, 5, 2)).report
        assert sorted(ranked) == sorted(q.query_id for q in queries)
        assert list(report.recall.items()) == expected

    def test_failed_traces_score_incorrect(self):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        from dataclasses import replace
        traces = [replace(t, failed=True, y_final="") for t in traces]
        scored = score_run(traces, queries, results, url_map, ks=(1,))
        assert scored.report.accuracy_overall == 0.0

    def test_cumulative_mode(self):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        scored = score_run(traces, queries, results, url_map, ks=(1,),
                           stratum_mode="cumulative")
        by = scored.report.accuracy_by_stratum
        # <=2 merges the rank-1 and rank-2 populations: (6+3)/20
        assert by["<=1"] == (0.6, 10)
        assert by["<=2"] == (0.45, 20)
        assert by["<=5"] == (0.35, 40)
        assert by[">5"] == (0.1, 10)


PLUGIN_OK = """\
import json, sys
for line in sys.stdin:
    if not line.strip():
        continue
    obj = json.loads(line)
    ok = obj["pred"].strip().lower() in [g.lower() for g in obj["golds"]]
    print(json.dumps({"correct": ok}))
"""


class TestPlugin:
    def _scorer(self, tmp_path, body=PLUGIN_OK):
        script = tmp_path / "equiv.py"
        script.write_text(body)
        return PluginScorer([sys.executable, str(script)])

    def test_batched_protocol(self, tmp_path):
        scorer = self._scorer(tmp_path)
        verdicts = scorer.score([("YES", ["yes"]), ("no", ["yes"]), ("b", ["a", "B"])])
        assert verdicts == [True, False, True]

    def test_replaces_text_rule_only(self, tmp_path):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        # an always-yes plugin flips every text verdict to correct
        scorer = self._scorer(tmp_path, 'import sys\nfor l in sys.stdin:\n'
                              '    if l.strip(): print(\'{"correct": true}\')\n')
        scored = score_run(traces, queries, results, url_map, ks=(1,), plugin=scorer)
        assert scored.report.accuracy_overall == 1.0
        assert all(v.rule == "plugin" for v in scored.verdicts)

    def test_nonzero_exit_raises(self, tmp_path):
        scorer = self._scorer(tmp_path, "import sys\nsys.exit(3)\n")
        with pytest.raises(EvalError, match="exited 3"):
            scorer.score([("a", ["a"])])

    def test_count_mismatch_raises(self, tmp_path):
        scorer = self._scorer(tmp_path, 'print(\'{"correct": true}\')\n')
        with pytest.raises(EvalError, match="2 inputs"):
            scorer.score([("a", ["a"]), ("b", ["b"])])

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError):
            PluginScorer("")


class TestCompare:
    def _reports(self):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        a = score_run(traces, queries, results, url_map, ks=(1, 5)).report
        from dataclasses import replace
        flipped = [replace(t, y_final="nope") if i < 5 else t
                   for i, t in enumerate(traces)]
        b = score_run(flipped, queries, results, url_map, ks=(1, 5)).report
        return a, b

    def test_rows(self):
        a, b = self._reports()
        rows = compare_runs(a, b)
        by_metric = {r.metric: r for r in rows}
        overall = by_metric["accuracy_overall"]
        assert overall.value_a == 0.30 and overall.value_b == 0.20
        assert overall.delta == pytest.approx(-0.10)
        assert by_metric["recall@1"].delta == 0.0
        assert "accuracy_stratum:1" in by_metric

    def test_different_query_sets_rejected(self):
        a, _ = self._reports()
        from dataclasses import replace
        other = replace(a, query_digest="f" * 64)
        with pytest.raises(EvalError, match="universes"):
            compare_runs(a, other)


class TestReportFiles:
    def test_json_round_trip(self, tmp_path):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        report = score_run(traces, queries, results, url_map, ks=(1, 5)).report
        path = tmp_path / "report.json"
        write_report_json(report, path)
        again = read_report_json(path)
        assert again == report
        assert again.recall == {1: report.recall[1], 5: report.recall[5]}

    def test_csv_shape(self, tmp_path):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        scored = score_run(traces, queries, results, url_map, ks=(1, 5))
        path = tmp_path / "report.csv"
        write_report_csv(scored, queries, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,stratum,split,count,value_pct"
        assert lines[1].startswith("recall@1,")
        # strata (4 + all) x splits (2 + all) accuracy rows after 2 recall rows
        assert len(lines) == 1 + 2 + 5 * 3
        all_row = [l for l in lines if l.startswith("accuracy,all,all,")][0]
        assert all_row == "accuracy,all,all,50,30.0"

    def test_verdicts_jsonl(self, tmp_path):
        import json
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        scored = score_run(traces, queries, results, url_map, ks=(1,))
        path = tmp_path / "verdicts.jsonl"
        assert write_verdicts(scored.verdicts, path) == 50
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows[0]["query_id"] == "m00"
        assert set(rows[0]) == {"query_id", "correct", "rule", "detail"}

    def test_deltas_csv(self, tmp_path):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        a = score_run(traces, queries, results, url_map, ks=(1,)).report
        rows = compare_runs(a, a)
        path = tmp_path / "deltas.csv"
        write_deltas_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,run_a_pct,run_b_pct,delta_pct"
        assert lines[1] == "accuracy_overall,30.0,30.0,+0.0"

    @pytest.mark.parametrize("name", ["report.csv", "deltas.csv"])
    def test_csv_writer_that_fails_keeps_the_previous_file(self, tmp_path, name):
        queries, traces, results, url_map = fixture_gen.build_strata_fixture()
        scored = score_run(traces, queries, results, url_map, ks=(1, 5))
        rows = compare_runs(scored.report, scored.report)
        path = tmp_path / name
        # A value that is not a number fails a row after the first rows are written.
        if name == "report.csv":
            write_report_csv(scored, queries, path)
            bad = dataclasses.replace(scored.report, recall={1: 0.5, 5: "0.5"})
            write = lambda: write_report_csv(  # noqa: E731
                dataclasses.replace(scored, report=bad), queries, path)
        else:
            write_deltas_csv(rows, path)
            write = lambda: write_deltas_csv(  # noqa: E731
                [rows[0], DeltaRow("recall@1", 0.5, "0.5")], path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def test_query_digest_is_order_insensitive():
    assert query_set_digest(["b", "a"]) == query_set_digest(["a", "b"])
    assert query_set_digest(["a"]) != query_set_digest(["a", "b"])


# -- the one tally against the per-cell scans it replaced -------------------


def _report_csv_by_cell_scan(scored, queries, path):
    """report.csv as it was written before aggregate_accuracy did its
    tally: every verdict scanned again for each stratum x split cell."""
    split_by_qid = {q.query_id: q.split_tag for q in queries}
    splits = sorted({q.split_tag for q in queries})

    def rows():
        for k, fraction in scored.report.recall.items():
            yield [f"recall@{k}", "", "all", scored.report.total, metrics._pct(fraction)]
        for stratum in [*metrics.STRATA[scored.report.stratum_mode], "all"]:
            for split in splits + ["all"]:
                hits = 0
                count = 0
                for verdict in scored.verdicts:
                    qid = verdict.query_id
                    if stratum != "all" and stratum not in scored.memberships.get(qid, ()):
                        continue
                    if split != "all" and split_by_qid.get(qid) != split:
                        continue
                    count += 1
                    hits += int(verdict.correct)
                fraction = hits / count if count else None
                yield ["accuracy", stratum, split, count, metrics._pct(fraction)]

    records.write_csv(path, ["metric", "stratum", "split", "count", "value_pct"], rows())


def _compare_by_row_loops(report_a, report_b):
    """compare_runs' rows as its four hand-written loops built them."""
    rows = [DeltaRow("accuracy_overall", report_a.accuracy_overall, report_b.accuracy_overall)]
    for k in sorted(set(report_a.recall) | set(report_b.recall)):
        rows.append(DeltaRow(f"recall@{k}", report_a.recall.get(k), report_b.recall.get(k)))
    for tag in sorted(set(report_a.accuracy_by_split) | set(report_b.accuracy_by_split)):
        rows.append(DeltaRow(f"accuracy_split:{tag}", report_a.accuracy_by_split.get(tag),
                             report_b.accuracy_by_split.get(tag)))
    strata = list(report_a.accuracy_by_stratum) + [
        s for s in report_b.accuracy_by_stratum if s not in report_a.accuracy_by_stratum
    ]
    for s in strata:
        a = report_a.accuracy_by_stratum.get(s)
        b = report_b.accuracy_by_stratum.get(s)
        rows.append(DeltaRow(f"accuracy_stratum:{s}", a.fraction if a else None,
                             b.fraction if b else None))
    return rows


_FRACTION = st.floats(min_value=0.0, max_value=1.0)
_RECALL = st.dictionaries(st.sampled_from([1, 2, 5, 10, 20]), _FRACTION)
_ALL_STRATA = list(dict.fromkeys(s for strata in metrics.STRATA.values() for s in strata))


@st.composite
def _scored_runs(draw):
    """A ScoredRun and its queries: random verdicts, split tags, gold ranks
    and stratum mode; some queries have no verdict, some no membership."""
    mode = draw(st.sampled_from(metrics.STRATUM_MODES))
    n = draw(st.integers(min_value=1, max_value=30))
    queries = [Query(query_id=f"q{i}", question="?", split_tag=draw(st.sampled_from(SPLIT_TAGS)))
               for i in range(n)]
    scored_ids = [q.query_id for q in queries if draw(st.booleans())] or [queries[0].query_id]
    verdicts = tuple(metrics.MatchVerdict(qid, draw(st.booleans()), "exact") for qid in scored_ids)
    rank = st.none() | st.integers(min_value=1, max_value=8)
    memberships = {qid: strata_for_rank(draw(rank), mode)
                   for qid in scored_ids if draw(st.integers(0, 9))}
    report = metrics.MetricReport(
        recall=draw(_RECALL), accuracy_overall=0.0, accuracy_by_split={},
        accuracy_by_stratum={}, stratum_mode=mode, total=n, tolerance=0.05,
        query_digest=query_set_digest(scored_ids))
    return metrics.ScoredRun(report, verdicts, memberships), queries


@st.composite
def _report_pairs(draw):
    """Two reports over one query set whose recall keys, splits and strata differ."""
    def report():
        strata = draw(st.lists(st.sampled_from(_ALL_STRATA), unique=True))
        return metrics.MetricReport(
            recall=draw(_RECALL), accuracy_overall=draw(_FRACTION),
            accuracy_by_split=draw(st.dictionaries(st.sampled_from(SPLIT_TAGS), _FRACTION)),
            accuracy_by_stratum={s: metrics.StratumCell(draw(_FRACTION), draw(st.integers(1, 50)))
                                 for s in strata},
            stratum_mode="disjoint", total=7, tolerance=0.05, query_digest="d" * 64)
    return report(), report()


class TestTallyMatchesTheCellScan:
    @settings(max_examples=200, deadline=None)
    @given(_scored_runs())
    def test_report_csv_bytes(self, run):
        scored, queries = run
        with tempfile.TemporaryDirectory() as tmp:
            ours, scan = Path(tmp) / "report.csv", Path(tmp) / "scan.csv"
            write_report_csv(scored, queries, ours)
            _report_csv_by_cell_scan(scored, queries, scan)
            assert ours.read_bytes() == scan.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(_report_pairs())
    def test_compare_rows(self, pair):
        assert compare_runs(*pair) == _compare_by_row_loops(*pair)
