from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_gen
from kbvqa.errors import EvalError
from kbvqa.kb import EmbeddingManifest, KnowledgeBase, KnowledgeEntry, Query
from kbvqa.metrics import match_answer
from kbvqa.mining import (
    MiningRecord,
    export_training,
    mine_prki,
    mine_vtki,
    read_records,
    write_records,
)
from kbvqa.pipeline import PipelineTrace


def trace(qid, *, y_int=None, y_ext=None, y_final="", i_v=None, i_t=None,
          context=("e0", "e1", "e2", "e3", "e4"), failed=False,
          variant="core") -> PipelineTrace:
    return PipelineTrace(
        query_id=qid, variant=variant, y_int=y_int, y_ext=y_ext,
        y_final=y_final, i_v=i_v, i_t=i_t,
        context_entry_ids=tuple(context), failed=failed,
    )


def query(qid, golds=("gold",), answer_type="text", gold_url=None) -> Query:
    return Query(query_id=qid, question=f"{qid}?", image_ref=f"{qid}.jpg",
                 gold_answers=tuple(golds), answer_type=answer_type,
                 gold_entry_url=gold_url)


URLS = {f"e{i}": f"https://kb.example/wiki/E{i}" for i in range(5)}


class TestMinePrki:
    def test_classification(self):
        queries = [query(f"p{i}") for i in range(5)]
        int_traces = [
            trace("p0", y_int="The gold."),        # int right  -> d_int
            trace("p1", y_int="nope"),             # ext right  -> d_ext
            trace("p2", y_int="wrong one"),        # neither    -> dropped
            trace("p3", y_int="GOLD"),             # equal      -> dropped
            trace("p4", y_int="gold", failed=True),
        ]
        ext_traces = [
            trace("p0", y_ext="miss"),
            trace("p1", y_ext="gold"),
            trace("p2", y_ext="also wrong"),
            trace("p3", y_ext="gold"),
            trace("p4", y_ext="x"),
        ]
        mining = mine_prki(int_traces, ext_traces, queries)
        assert mining.counters == {
            "total": 5, "failed_traces": 1, "equal_answers": 1, "differing": 3,
            "both_match": 0, "neither_match": 1, "d_int": 1, "d_ext": 1,
        }
        (int_rec,) = mining.d_int
        assert int_rec.query_id == "p0"
        assert int_rec.target == "The gold."      # verbatim, not normalized
        assert int_rec.provenance == {"y_int": "The gold.", "y_ext": "miss"}
        assert int_rec.context_entry_ids == ("e0", "e1", "e2", "e3", "e4")
        (ext_rec,) = mining.d_ext
        assert ext_rec.query_id == "p1" and ext_rec.bucket == "d_ext"
        assert ext_rec.target == "gold"

    def test_both_match_goes_to_d_int(self):
        queries = [query("p0", golds=("alpha", "beta"))]
        mining = mine_prki([trace("p0", y_int="alpha")],
                           [trace("p0", y_ext="beta")], queries)
        assert mining.counters["both_match"] == 1
        assert len(mining.d_int) == 1 and len(mining.d_ext) == 0

    def test_numeric_golds_use_relaxed_match(self):
        queries = [query("p0", golds=("100",), answer_type="numeric")]
        mining = mine_prki([trace("p0", y_int="104")],
                           [trace("p0", y_ext="200")], queries)
        assert len(mining.d_int) == 1

    def test_fallback_to_y_final(self):
        # a plain generation trace carries the answer only in y_final
        queries = [query("p0")]
        mining = mine_prki(
            [trace("p0", y_int="gold", variant="param")],
            [trace("p0", y_final="wrong", variant="one_stage")],
            queries,
        )
        assert len(mining.d_int) == 1
        assert mining.d_int[0].provenance["y_ext"] == "wrong"

    def test_trace_sets_must_cover_same_queries(self):
        with pytest.raises(EvalError, match="different query_ids"):
            mine_prki([trace("p0")], [trace("p1")], [query("p0"), query("p1")])

    def test_duplicate_trace_ids_rejected(self):
        with pytest.raises(EvalError, match="duplicate"):
            mine_prki([trace("p0"), trace("p0")], [trace("p0")], [query("p0")])

    def test_trace_without_query_rejected(self):
        with pytest.raises(EvalError, match="no query"):
            mine_prki([trace("p0")], [trace("p0")], [query("other")])


class TestMineVtki:
    GOLD_URL = URLS["e2"]  # context index 2

    def _queries(self, n):
        return [query(f"v{i}", gold_url=self.GOLD_URL) for i in range(n)]

    def test_classification(self):
        traces = [
            trace("v0", i_v=2, i_t=0),   # visual right -> d_v
            trace("v1", i_v=4, i_t=2),   # text right   -> d_t
            trace("v2", i_v=0, i_t=1),   # neither      -> dropped
            trace("v3", i_v=3, i_t=3),   # equal        -> dropped
            trace("v4", i_v=1, i_t=2, failed=True),
        ]
        mining = mine_vtki(traces, self._queries(5), URLS)
        assert mining.counters == {
            "total": 5, "failed_traces": 1, "gold_absent": 0, "equal_indices": 1,
            "differing": 3, "neither_match": 1, "d_v": 1, "d_t": 1,
        }
        (v_rec,) = mining.d_v
        assert v_rec.query_id == "v0" and v_rec.target == 2
        assert v_rec.provenance == {"i_v": 2, "i_t": 0, "i_gt": 2}
        (t_rec,) = mining.d_t
        assert t_rec.query_id == "v1" and t_rec.bucket == "d_t"

    def test_gold_absent_excluded(self):
        queries = [query("v0", gold_url="https://kb.example/wiki/UNRETRIEVED")]
        mining = mine_vtki([trace("v0", i_v=0, i_t=1)], queries, URLS)
        assert mining.counters["gold_absent"] == 1
        assert mining.d_v == () and mining.d_t == ()

    def test_no_gold_url_counts_as_absent(self):
        mining = mine_vtki([trace("v0", i_v=0, i_t=1)], [query("v0")], URLS)
        assert mining.counters["gold_absent"] == 1

    def test_first_matching_context_position_wins(self):
        urls = dict(URLS)
        urls["e3"] = self.GOLD_URL  # duplicate URL later in context
        mining = mine_vtki([trace("v0", i_v=2, i_t=0)],
                           self._queries(1), urls)
        assert mining.d_v[0].target == 2

    def test_missing_index_is_an_error(self):
        with pytest.raises(EvalError, match="selection index"):
            mine_vtki([trace("v0", i_v=None, i_t=1)], self._queries(1), URLS)


_ANSWERS = st.sampled_from(["gold", "The gold.", "alpha", "beta", "wrong", ""])
_INDEX = st.integers(0, 4)


def _check_counts(mining, skips, buckets):
    """total splits into the skips and differing, differing into
    neither_match and the buckets, and each bucket holds its count."""
    c = mining.counters
    assert c["total"] == sum(c[key] for key in skips) + c["differing"]
    assert c["differing"] == c["neither_match"] + sum(c[bucket] for bucket in buckets)
    for bucket in buckets:
        assert len(getattr(mining, bucket)) == c[bucket]
        assert all(r.bucket == bucket for r in getattr(mining, bucket))


class TestMinerProperties:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.lists(_ANSWERS, min_size=1, max_size=2), _ANSWERS | st.none(), _ANSWERS,
        _ANSWERS | st.none(), _ANSWERS, st.booleans(), st.booleans()), max_size=8))
    def test_prki_counts_and_targets(self, rows):
        queries, int_traces, ext_traces = [], [], []
        for i, row in enumerate(rows):
            golds, y_int, int_final, y_ext, ext_final, int_failed, ext_failed = row
            queries.append(query(f"p{i}", golds=golds))
            int_traces.append(trace(f"p{i}", y_int=y_int, y_final=int_final, failed=int_failed))
            ext_traces.append(trace(f"p{i}", y_ext=y_ext, y_final=ext_final, failed=ext_failed))
        mining = mine_prki(int_traces, ext_traces, queries)
        _check_counts(mining, ("failed_traces", "equal_answers"), ("d_int", "d_ext"))
        by_qid = {q.query_id: q for q in queries}
        for record in mining.d_int + mining.d_ext:
            side = "y_int" if record.bucket == "d_int" else "y_ext"
            assert record.target == record.provenance[side]
            assert match_answer(record.target, by_qid[record.query_id]).correct
        for record in mining.d_ext:
            assert not match_answer(record.provenance["y_int"], by_qid[record.query_id]).correct

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.permutations([f"e{i}" for i in range(5)]), st.sampled_from([*URLS.values(), None]),
        _INDEX, _INDEX, st.booleans()), max_size=8))
    def test_vtki_counts_and_targets(self, rows):
        queries, traces = [], []
        for i, (context, gold_url, i_v, i_t, failed) in enumerate(rows):
            queries.append(query(f"v{i}", gold_url=gold_url))
            traces.append(trace(f"v{i}", i_v=i_v, i_t=i_t, context=context, failed=failed))
        mining = mine_vtki(traces, queries, URLS)
        _check_counts(mining, ("failed_traces", "gold_absent", "equal_indices"), ("d_v", "d_t"))
        by_qid = {q.query_id: q for q in queries}
        for record in mining.d_v + mining.d_t:
            side = "i_v" if record.bucket == "d_v" else "i_t"
            gold_url = by_qid[record.query_id].gold_entry_url
            assert record.target == record.provenance[side] == record.provenance["i_gt"]
            assert URLS[record.context_entry_ids[record.target]] == gold_url


def small_kb() -> KnowledgeBase:
    entries = [
        KnowledgeEntry(
            entry_id=f"e{i}", url=URLS[f"e{i}"], title=f"Title {i}",
            content=f"Content {i}.", image_refs=(f"images/e{i}.jpg",),
        )
        for i in range(5)
    ]
    return fixture_gen.kb_from_entries(entries, EmbeddingManifest(4, 5, True))


class TestExport:
    def _prki_records(self):
        return [
            MiningRecord("p1", "d_ext", "prki", "right answer", "gold",
                         ("e0", "e1", "e2", "e3", "e4"),
                         {"y_int": "w", "y_ext": "right answer"}),
            MiningRecord("p0", "d_int", "prki", "The gold.", "gold",
                         ("e0", "e1", "e2", "e3", "e4"),
                         {"y_int": "The gold.", "y_ext": "w"}),
        ]

    def _vtki_records(self):
        return [
            MiningRecord("v0", "d_v", "vtki", 2, "gold",
                         ("e0", "e1", "e2", "e3", "e4"),
                         {"i_v": 2, "i_t": 0, "i_gt": 2}),
        ]

    def test_prki_lines(self, tmp_path):
        out = tmp_path / "train.jsonl"
        queries = [query("p0"), query("p1")]
        n = export_training(self._prki_records(), "prki", out, small_kb(), queries)
        assert n == 2
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert [r["query_id"] for r in rows] == ["p0", "p1"]  # sorted
        assert set(rows[0]) == {"query_id", "bucket", "prompt_parts", "target",
                                "provenance"}
        assert rows[0]["target"] == "The gold."
        texts = [p["text"] for p in rows[0]["prompt_parts"] if p["type"] == "text"]
        assert any("Reference A:" in t for t in texts)
        images = [p for p in rows[0]["prompt_parts"] if p["type"] == "image"]
        assert len(images) == 6  # query plus five entries

    def test_vtki_target_is_reference_letter(self, tmp_path):
        out = tmp_path / "train.jsonl"
        n = export_training(self._vtki_records(), "vtki", out, small_kb(),
                            [query("v0")])
        assert n == 1
        row = json.loads(out.read_text().splitlines()[0])
        assert row["target"] == "C"
        texts = [p["text"] for p in row["prompt_parts"] if p["type"] == "text"]
        assert any("Identify the most similar Wikipedia reference" in t
                   for t in texts)

    def test_sft_supervises_gold_answer(self, tmp_path):
        out = tmp_path / "train.jsonl"
        records = [
            MiningRecord("v0", "d_v", "vtki", 2, "the real gold",
                         ("e0", "e1", "e2", "e3", "e4"),
                         {"i_v": 2, "i_t": 0, "i_gt": 2}),
        ]
        n = export_training(records, "sft", out, small_kb(),
                            [query("v0", golds=("the real gold",))])
        assert n == 1
        row = json.loads(out.read_text().splitlines()[0])
        assert row["target"] == "the real gold"
        images = [p["image_ref"] for p in row["prompt_parts"]
                  if p["type"] == "image"]
        # gold context slot 2 supplies the reference image
        assert images == ["v0.jpg", "images/e2.jpg"]

    def test_bucket_objective_mismatch(self, tmp_path):
        with pytest.raises(EvalError, match="bucket"):
            export_training(self._vtki_records(), "prki", tmp_path / "x.jsonl",
                            small_kb(), [query("v0")])

    def test_unknown_objective(self, tmp_path):
        with pytest.raises(EvalError, match="objective"):
            export_training([], "dpo", tmp_path / "x.jsonl", small_kb(), [])

    def test_sample_is_seeded_and_sorted(self, tmp_path):
        records = [
            MiningRecord(f"p{i}", "d_int", "prki", "gold", "gold",
                         ("e0",), {"y_int": "gold", "y_ext": "w"})
            for i in range(10)
        ]
        queries = [query(f"p{i}") for i in range(10)]
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert export_training(records, "prki", out_a, small_kb(), queries,
                               sample=4, seed=7) == 4
        assert export_training(records, "prki", out_b, small_kb(), queries,
                               sample=4, seed=7) == 4
        assert out_a.read_bytes() == out_b.read_bytes()
        ids = [json.loads(l)["query_id"] for l in out_a.read_text().splitlines()]
        assert ids == sorted(ids)
        out_c = tmp_path / "c.jsonl"
        assert export_training(records, "prki", out_c, small_kb(), queries,
                               sample=4, seed=8) == 4
        assert out_c.read_bytes() != out_a.read_bytes()

    def test_sample_larger_than_pool_keeps_all(self, tmp_path):
        out = tmp_path / "train.jsonl"
        n = export_training(self._prki_records(), "prki", out, small_kb(),
                            [query("p0"), query("p1")], sample=99)
        assert n == 2

    def test_unknown_entry_rejected(self, tmp_path):
        bad = [MiningRecord("p0", "d_int", "prki", "g", "g", ("ghost",), {})]
        with pytest.raises(EvalError, match="ghost"):
            export_training(bad, "prki", tmp_path / "x.jsonl", small_kb(),
                            [query("p0")])


@pytest.fixture(scope="module")
def mined(bundle):
    from kbvqa.backend import MockBackend
    from kbvqa.kb import ingest_kb, ingest_queries, load_embeddings
    from kbvqa.pipeline import PipelineRunner
    from kbvqa.retrieval import build_index, search_batch

    kb = ingest_kb(bundle.entries_path, bundle.kb_manifest)
    kb.attach_embeddings(load_embeddings(bundle.kb_manifest,
                                         bundle.kb_embeddings))
    queries = ingest_queries(bundle.queries_path)
    qemb = load_embeddings(bundle.query_manifest, bundle.query_embeddings)
    index = build_index(kb)
    results = search_batch(index, list(qemb.data),
                           [q.query_id for q in queries], 5)
    by_qid = {r.query_id: r for r in results}
    run = PipelineRunner(kb, MockBackend(bundle.script), top_k=5)
    core = run.run_many("core", queries, by_qid)
    probes = run.run_many("probe", queries, by_qid)
    urls = {e.entry_id: e.url for e in kb.entries}
    return (mine_prki(core, core, queries),
            mine_vtki(probes, queries, urls), kb, queries)


class TestBundleIntegration:
    """Full stack: ingest -> retrieve -> run pipelines -> mine -> export."""

    def test_prki_buckets(self, mined):
        prki, _, _, _ = mined
        assert prki.counters == {
            "total": 20, "failed_traces": 0, "equal_answers": 8,
            "differing": 12, "both_match": 0, "neither_match": 0,
            "d_int": 6, "d_ext": 6,
        }
        assert [r.query_id for r in prki.d_int] == [f"q{i:02d}" for i in range(6)]
        assert [r.query_id for r in prki.d_ext] == [f"q{i:02d}" for i in range(6, 12)]
        assert [r.target for r in prki.d_int] == [f"Gold Answer {i}" for i in range(6)]
        assert [r.target for r in prki.d_ext] == [f"Gold Answer {i}" for i in range(6, 12)]

    def test_vtki_buckets(self, mined):
        _, vtki, _, _ = mined
        assert vtki.counters == {
            "total": 20, "failed_traces": 0, "gold_absent": 3,
            "equal_indices": 8, "differing": 9, "neither_match": 1,
            "d_v": 5, "d_t": 3,
        }
        assert [r.query_id for r in vtki.d_v] == [f"q{i:02d}" for i in range(5)]
        assert [r.query_id for r in vtki.d_t] == ["q05", "q06", "q07"]
        # each kept record's winning side equals the gold slot
        for rec in vtki.d_v:
            assert rec.provenance["i_v"] == rec.target
            assert rec.provenance["i_t"] != rec.target
        for rec in vtki.d_t:
            assert rec.provenance["i_t"] == rec.target

    def test_export_all_objectives(self, mined, tmp_path):
        prki, vtki, kb, queries = mined
        n_prki = export_training(list(prki.d_int) + list(prki.d_ext), "prki",
                                 tmp_path / "prki.jsonl", kb, queries)
        n_vtki = export_training(list(vtki.d_v) + list(vtki.d_t), "vtki",
                                 tmp_path / "vtki.jsonl", kb, queries)
        n_sft = export_training(list(vtki.d_v) + list(vtki.d_t), "sft",
                                tmp_path / "sft.jsonl", kb, queries)
        assert (n_prki, n_vtki, n_sft) == (12, 8, 8)
        rows = [json.loads(l)
                for l in (tmp_path / "vtki.jsonl").read_text().splitlines()]
        gold_slot = {r.query_id: r.target for r in list(vtki.d_v) + list(vtki.d_t)}
        for row in rows:
            assert row["target"] == "ABCDE"[gold_slot[row["query_id"]]]


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        records = [
            MiningRecord("a", "d_v", "vtki", 3, "gold", ("e0", "e1"),
                         {"i_v": 3, "i_t": 0, "i_gt": 3}),
            MiningRecord("b", "d_int", "prki", "ans", "gold", ("e2",),
                         {"y_int": "ans", "y_ext": "w"}),
        ]
        path = tmp_path / "records.jsonl"
        assert write_records(records, path) == 2
        again = read_records(path)
        assert again == records

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"query_id": "a"}\n')
        with pytest.raises(EvalError, match="records.jsonl:1"):
            read_records(path)
