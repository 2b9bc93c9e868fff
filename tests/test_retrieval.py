from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_gen
from kbvqa import retrieval
from kbvqa.errors import EvalError
from kbvqa.kb import (
    EmbeddingManifest,
    EmbeddingMatrix,
    KnowledgeEntry,
    ingest_kb,
    ingest_queries,
    load_embeddings,
)
from kbvqa.retrieval import (
    FlatIndex,
    RetrievalResult,
    build_index,
    gold_rank,
    ranked_urls,
    read_results,
    recall_at_k,
    search,
    search_batch,
    write_results,
)


# Reference implementation, deliberately naive: one python-level dot product
# per entry, sorted by (-score, ordinal). Everything below is judged
# against this, never against the production index.
def oracle_top_k(matrix: np.ndarray, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    q = query.astype(np.float64)
    q = q / np.linalg.norm(q)
    scored = []
    for ordinal in range(matrix.shape[0]):
        score = float(np.dot(matrix[ordinal].astype(np.float64), q))
        scored.append((ordinal, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def _random_index(n: int, dim: int, seed: int) -> tuple[FlatIndex, np.ndarray]:
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, dim))
    matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    matrix = matrix.astype(np.float32)
    ids = [f"e{i:04d}" for i in range(n)]
    return FlatIndex(ids, matrix), matrix


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ids_order_and_scores(self, seed):
        index, matrix = _random_index(200, 24, seed)
        rng = np.random.default_rng(1000 + seed)
        for qnum in range(25):
            q = rng.normal(size=24)
            expected = oracle_top_k(matrix, q, 7)
            got = search(index, q, 7, query_id=f"q{qnum}")
            assert [eid for eid, _ in got.hits] == [f"e{i:04d}" for i, _ in expected]
            for (_, got_score), (_, want_score) in zip(got.hits, expected):
                assert abs(got_score - want_score) < 1e-6

    def test_exact_ties_break_by_ordinal(self):
        row = np.array([0.6, 0.8, 0.0, 0.0], dtype=np.float32)
        other = np.array([0.0, 0.0, 1.0, 0.0], dtype=np.float32)
        matrix = np.stack([other, row, row, other, row])
        index = FlatIndex([f"e{i}" for i in range(5)], matrix)
        got = search(index, np.array([0.6, 0.8, 0.0, 0.0]), 5)
        # Rows 1, 2, 4 all score 1.0; ties resolve in ingestion order.
        assert got.entry_ids() == ["e1", "e2", "e4", "e0", "e3"]


def test_duplicates_across_query_and_entry_blocks_tie_by_ordinal():
    _, matrix = _random_index(300, 24, 5)
    # One row copied to positions that fall in different row tiles of any
    # kernel, at both ends of the matrix.
    for ordinal in (1, 130, 255, 298):
        matrix[ordinal] = matrix[77]
    index = FlatIndex([f"e{i:04d}" for i in range(300)], matrix)
    rng = np.random.default_rng(6)
    noise = [matrix[77] + 0.05 * rng.normal(size=24) for _ in range(7)]
    vectors = [matrix[77].astype(np.float64), *noise, matrix[77].astype(np.float64)]
    qids = [f"q{i}" for i in range(len(vectors))]
    # Two queries per float32 GEMM: the first and last queries land in different blocks.
    with mock.patch.object(retrieval, "_SCORE_BLOCK", 2 * len(index)):
        results = search_batch(index, vectors, qids, 8)
    tied = ["e0001", "e0077", "e0130", "e0255", "e0298"]
    for result in (results[0], results[-1]):
        assert result.entry_ids()[:5] == tied
        assert len({score for _, score in result.hits[:5]}) == 1
    assert results[0].hits == results[-1].hits
    for v, result in zip(vectors, results):
        assert result.entry_ids() == [f"e{i:04d}" for i, _ in oracle_top_k(matrix, v, 8)]


def test_near_tie_returns_float64_order():
    # Rows within two float32 ulps of one unit vector: their float32 scores
    # err by about as much as the rows differ, so the float32 top-k misses
    # entries of the float64 top-k on some seeds.
    n, dim, k = 400, 64, 5
    missed_by_float32 = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=dim)
        base = (base / np.linalg.norm(base)).astype(np.float32)
        steps = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
        matrix = (base + steps * np.spacing(base)).astype(np.float32)
        index = FlatIndex([f"e{i:04d}" for i in range(n)], matrix)
        q = base + 0.01 * rng.normal(size=dim)
        q = q / np.linalg.norm(q)
        expected = oracle_top_k(matrix, q, k)
        s32 = (q[None].astype(np.float32) @ matrix.T)[0]
        kth32 = np.sort(s32)[n - k]
        missed_by_float32 += any(s32[i] < kth32 for i, _ in expected)
        assert search(index, q, k).entry_ids() == [f"e{i:04d}" for i, _ in expected]
    assert missed_by_float32 > 0


def test_k_larger_than_index_returns_every_entry_in_oracle_order():
    index, matrix = _random_index(6, 8, 13)
    rng = np.random.default_rng(14)
    vectors = [rng.normal(size=8) for _ in range(3)]
    for v, result in zip(vectors, search_batch(index, vectors, ["a", "b", "c"], 50)):
        assert result.k == 50
        assert result.entry_ids() == [f"e{i:04d}" for i, _ in oracle_top_k(matrix, v, 50)]


def test_empty_index_and_empty_batch():
    empty = FlatIndex([], np.zeros((0, 8), dtype=np.float32))
    assert search(empty, np.ones(8), 3).hits == ()
    assert [r.hits for r in search_batch(empty, [np.ones(8)] * 2, ["a", "b"], 3)] == [(), ()]
    index, _ = _random_index(5, 8, 1)
    assert search_batch(index, [], [], 3) == []


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    dim=st.integers(1, 12),
    k=st.integers(1, 45),
    seed=st.integers(0, 2 ** 32 - 1),
    copies=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=8),
    block=st.integers(1, 4),
)
def test_search_batch_matches_naive_oracle(n, dim, k, seed, copies, block):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, dim))
    matrix = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32)
    for src, dst in copies:
        matrix[dst % n] = matrix[src % n]
    index = FlatIndex([f"e{i:04d}" for i in range(n)], matrix)
    # The last query is a duplicated row itself, so its top hits tie exactly.
    vectors = [rng.normal(size=dim) for _ in range(5)]
    vectors.append(matrix[copies[0][0] % n] if copies else matrix[0])
    with mock.patch.object(retrieval, "_SCORE_BLOCK", block * n):
        results = search_batch(index, vectors, [f"q{i}" for i in range(len(vectors))], k)
    for v, result in zip(vectors, results):
        expected = oracle_top_k(matrix, v, k)
        assert result.entry_ids() == [f"e{i:04d}" for i, _ in expected]
        for (_, got), (_, want) in zip(result.hits, expected):
            assert abs(got - want) < 1e-6


def test_search_clips_k_to_index_size():
    index, _ = _random_index(3, 8, 9)
    got = search(index, np.ones(8), 10)
    assert len(got.hits) == 3 and got.k == 10


def test_search_rejects_bad_inputs():
    index, _ = _random_index(3, 8, 9)
    with pytest.raises(ValueError, match="k must be positive"):
        search(index, np.ones(8), 0)
    with pytest.raises(ValueError, match="dim"):
        search(index, np.ones(5), 2)
    with pytest.raises(ValueError, match="zero norm"):
        search(index, np.zeros(8), 2)


def test_unnormalized_query_is_renormalized():
    index, matrix = _random_index(50, 12, 4)
    q = np.full(12, 0.3)
    a = search(index, q, 5)
    b = search(index, q * 250.0, 5)
    assert a.entry_ids() == b.entry_ids()
    for (_, sa), (_, sb) in zip(a.hits, b.hits):
        assert abs(sa - sb) < 1e-9


def test_search_batch_preserves_order_and_matches_serial():
    index, matrix = _random_index(120, 16, 11)
    rng = np.random.default_rng(42)
    vectors = [rng.normal(size=16) for _ in range(30)]
    ids = [f"q{i:02d}" for i in range(30)]
    batched = search_batch(index, vectors, ids, 5)
    assert [r.query_id for r in batched] == ids
    for v, qid, result in zip(vectors, ids, batched):
        assert search(index, v, 5, qid) == result


def test_build_index_from_fixture(bundle):
    kb = ingest_kb(bundle.entries_path, bundle.kb_manifest)
    kb.attach_embeddings(load_embeddings(bundle.kb_manifest, bundle.kb_embeddings))
    index = build_index(kb)
    assert len(index) == 100 and index.dim == 16
    assert index.entry_ids[0] == "e000"
    assert index.matrix.dtype == np.float32


def test_build_index_keeps_in_order_rows_without_a_copy(bundle):
    kb = ingest_kb(bundle.entries_path, bundle.kb_manifest)
    kb.attach_embeddings(load_embeddings(bundle.kb_manifest, bundle.kb_embeddings))
    index = build_index(kb)
    assert np.shares_memory(index.matrix, kb.embeddings.data)
    assert np.array_equal(index.matrix, kb.embeddings.data)


@pytest.mark.parametrize("rows", [[3, 0, 4, 1, 2], [0, 1, 2, 3], [5, 1, 2]])
def test_build_index_gathers_permuted_or_partial_rows(rows):
    _, matrix = _random_index(6, 8, 13)
    entries = [KnowledgeEntry(f"e{i}", f"u{i}", "", "", embedding_row=row)
               for i, row in enumerate(rows)]
    kb = fixture_gen.kb_from_entries(entries, EmbeddingManifest(8, 6, True))
    kb.attach_embeddings(EmbeddingMatrix(dim=8, count=6, data=matrix, normalized=True))
    index = build_index(kb)
    assert np.array_equal(index.matrix, matrix[rows])
    q = np.random.default_rng(2).normal(size=8)
    expected = oracle_top_k(matrix[rows], q, 3)
    assert search(index, q, 3).entry_ids() == [f"e{i}" for i, _ in expected]


class TestUrlRanking:
    def _result(self):
        return RetrievalResult(query_id="q", hits=(("a", 0.9), ("b", 0.8), ("c", 0.7), ("d", 0.6)),
                               k=4)

    def test_dedup_collapses_repeat_urls(self):
        urls = {"a": "u1", "b": "u2", "c": "u1", "d": "u3"}
        assert ranked_urls(self._result(), urls) == ["u1", "u2", "u3"]
        assert ranked_urls(self._result(), urls, dedup=False) == ["u1", "u2", "u1", "u3"]

    def test_gold_rank_moves_under_dedup(self):
        urls = {"a": "u1", "b": "u1", "c": "u2", "d": "u3"}
        assert gold_rank(self._result(), "u2", urls) == 2
        assert gold_rank(self._result(), "u2", urls, dedup=False) == 3

    def test_url_matching_is_byte_exact(self):
        urls = {"a": "https://x/Foo", "b": "https://x/foo", "c": "u", "d": "u2"}
        assert gold_rank(self._result(), "https://x/foo", urls) == 2
        assert gold_rank(self._result(), "https://x/Foo/", urls) is None


def test_recall_on_planted_ranks(recall_bundle):
    kb = ingest_kb(recall_bundle.entries_path, recall_bundle.kb_manifest)
    kb.attach_embeddings(load_embeddings(recall_bundle.kb_manifest, recall_bundle.kb_embeddings))
    index = build_index(kb)
    qemb = load_embeddings(recall_bundle.query_manifest, recall_bundle.query_embeddings)
    queries = ingest_queries(recall_bundle.queries_path)
    results = search_batch(index, list(qemb.data), [q.query_id for q in queries], 10)
    url_map = {e.entry_id: e.url for e in kb.entries}
    # Planted ranks 1,1,1,1,2,3,5,6,9 and one deep miss: hand counts below.
    assert recall_at_k(results, queries, 1, url_map) == pytest.approx(0.4)
    assert recall_at_k(results, queries, 2, url_map) == pytest.approx(0.5)
    assert recall_at_k(results, queries, 5, url_map) == pytest.approx(0.7)
    assert recall_at_k(results, queries, 10, url_map) == pytest.approx(0.9)


def test_recall_over_no_queries_is_an_eval_error():
    results = [RetrievalResult("q1", 1, (("a", 1.0),))]
    with pytest.raises(EvalError, match="no queries to score"):
        recall_at_k(results, [], 1, {"a": "u"})


def test_results_round_trip_and_score_format(tmp_path):
    index, _ = _random_index(40, 8, 21)
    rng = np.random.default_rng(3)
    results = search_batch(index, [rng.normal(size=8) for _ in range(6)],
                           [f"q{i}" for i in range(6)], 5)
    path = tmp_path / "results.jsonl"
    write_results(results, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    assert set(first) == {"query_id", "k", "hits"}
    for hit in first["hits"]:
        # scores travel as shortest-9-significant-digit floats
        assert hit["score"] == float(f"{hit['score']:.9g}")
    again = read_results(path)
    assert [r.query_id for r in again] == [r.query_id for r in results]
    for a, b in zip(again, results):
        assert a.entry_ids() == b.entry_ids()
        for (_, sa), (_, sb) in zip(a.hits, b.hits):
            assert abs(sa - sb) < 1e-8


def test_eps32_literal_is_float32_machine_epsilon():
    """The candidate bound's epsilon is a literal, so that importing
    retrieval loads no numpy; it must stay numpy's float32 epsilon."""
    assert retrieval._EPS32 == float(np.finfo(np.float32).eps)
