"""Exhaustive cosine-similarity retrieval over entry image embeddings.

The index is flat and float32-resident. A search block scores every entry
with one float32 GEMM, keeps each entry whose float32 score lies within a
proven rounding bound of the k-th best, and rescores only those candidates
in float64, one elementwise multiply-and-sum per row. Results are therefore
those of a float64 brute-force scan: identical rows score identically
wherever they sit, and ties are broken by ascending ingestion ordinal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .errors import EvalError, IngestError
from .kb import KnowledgeBase, Query
from .records import from_record, read_jsonl, to_record, unique_query_ids, write_jsonl

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOP_K = 5
# The cutoffs Recall@k is reported at: by `retrieve`, and by `score` unless --ks.
DEFAULT_RECALL_KS = (1, 2, 5, 10)


class Hit(NamedTuple):
    """One ranked entry of a retrieval result."""

    entry_id: str
    score: float


@dataclass(frozen=True)
class RetrievalResult:
    """Ranked hits for one query: (entry_id, score) pairs, best first."""

    query_id: str
    k: int
    hits: tuple[Hit, ...]

    def entry_ids(self) -> list[str]:
        return [entry_id for entry_id, _ in self.hits]


# Score elements (queries x entries) one float32 GEMM may produce: 32 MiB.
_SCORE_BLOCK = 1 << 23
# float32 machine epsilon, float(np.finfo(np.float32).eps); a literal so
# that importing this module does not load numpy.
_EPS32 = 2.0 ** -23


class FlatIndex:
    """Immutable exhaustive index over float32 rows; safe for concurrent search calls."""

    def __init__(self, entry_ids: list[str], matrix: np.ndarray):
        import numpy as np

        self.entry_ids = entry_ids
        self._matrix = np.ascontiguousarray(matrix, dtype=np.float32)

    def __len__(self) -> int:
        return len(self.entry_ids)

    @property
    def dim(self) -> int:
        return self._matrix.shape[1] if self._matrix.size else 0

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @cached_property
    def _max_norm(self) -> float:
        """Largest row norm, for the candidate bound in search_batch; taken
        at the first search, so an index that is never searched skips it."""
        import numpy as np

        squares = np.einsum("ij,ij->i", self._matrix, self._matrix)
        return math.sqrt(float(squares.max())) if squares.size else 0.0


def build_index(kb: KnowledgeBase) -> FlatIndex:
    """Index every entry's embedding row, in ingestion order.

    All entries must have a bound embedding_row and the KB must have its
    normalized matrix attached.
    """
    import numpy as np

    if len(kb) == 0:
        return FlatIndex([], np.zeros((0, kb.manifest.dim), dtype=np.float32))
    if None in kb.embedding_rows:
        unbound = [eid for eid, row in zip(kb.entry_ids, kb.embedding_rows) if row is None]
        raise IngestError(f"entries without embedding_row: {', '.join(unbound)}")
    if kb.embeddings is None:
        raise IngestError("knowledge base has no embedding matrix attached")
    if not kb.embeddings.normalized:
        raise IngestError("embedding matrix must be normalized before indexing")
    rows = np.array(kb.embedding_rows, dtype=np.int64)
    if np.array_equal(rows, np.arange(len(rows))):
        matrix = kb.embeddings.data[:len(rows)]  # a view: no second copy of the matrix
    else:
        matrix = kb.embeddings.data[rows]
    return FlatIndex(list(kb.entry_ids), matrix)


def _unit_query(query_embedding: np.ndarray, dim: int) -> np.ndarray:
    """The query as float64, L2-normalized unless its norm is already within 1e-6 of 1."""
    import numpy as np

    q = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
    if q.shape[0] != dim:
        raise ValueError(f"query dim {q.shape[0]} does not match index dim {dim}")
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ValueError("query embedding has zero norm")
    if not math.isfinite(norm):
        raise ValueError("query embedding has a non-finite value")
    if abs(norm - 1.0) > 1e-6:
        q = q / norm
    return q


def search(index: FlatIndex, query_embedding: np.ndarray, k: int, query_id: str = "") -> RetrievalResult:
    """Top-k entries by cosine similarity (dot product on normalized vectors).

    The query vector is L2-normalized here if it is not already. Ties are
    broken by ascending ingestion ordinal.
    """
    return search_batch(index, [query_embedding], [query_id], k)[0]


def search_batch(
    index: FlatIndex,
    query_vectors: Sequence[np.ndarray],
    query_ids: Sequence[str],
    k: int,
) -> list[RetrievalResult]:
    """Exact top-k for many queries; output order always equals input order."""
    import numpy as np

    if len(query_vectors) != len(query_ids):
        raise ValueError("query_vectors and query_ids must have equal length")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n = len(index)
    if n == 0:
        return [RetrievalResult(query_id=qid, hits=(), k=k) for qid in query_ids]
    queries = [_unit_query(v, index.dim) for v in query_vectors]
    top = min(k, n)
    # Candidate bound. Let u = eps32/2, r a float32 row, q the float64 unit
    # query, q32 = float32(q) and s = r.q exactly. Then |r.q32 - s| <= u|r||q|;
    # a float32 dot product of D terms, in any order and with or without FMA,
    # is within D*u/(1 - D*u)*|r||q32| of r.q32; and the float64 rescore is
    # within D*2**-53*|r||q| of s. So a float32 score and its rescore differ
    # by at most d = (D + 2)*eps32*max|r|, about twice the sum of those terms,
    # which also covers |q| = 1 +- 1e-6 and max|r| taken in float32.
    # Let t be the k-th largest float32 score. The k entries scoring >= t
    # rescore to >= t - d, so the k-th largest rescore T is >= t - d, and
    # every entry rescoring to >= T, ties included, has a float32 score
    # >= T - d >= t - 2d. These are the candidates.
    slack = 2 * (index.dim + 2) * _EPS32 * index._max_norm
    step = max(1, _SCORE_BLOCK // n)
    results: list[RetrievalResult] = []
    for start in range(0, len(queries), step):
        block = np.stack(queries[start:start + step])
        scores = block.astype(np.float32) @ index.matrix.T
        for q, row_scores, qid in zip(block, scores, query_ids[start:start + step]):
            # Partitioning a copy of one row, not of the whole block, keeps
            # the block's working set to the scores themselves.
            t = np.partition(row_scores, n - top)[n - top]
            cand = np.flatnonzero(row_scores >= t - slack)
            # Elementwise products and a per-row sum: a row's score does not
            # depend on its position, so identical rows tie exactly.
            exact = (index.matrix[cand] * q).sum(axis=1)
            order = np.lexsort((cand, -exact))[:top]
            # Each score as the results file holds it, to 9 significant digits.
            hits = tuple(Hit(index.entry_ids[i], float(f"{score:.9g}"))
                         for i, score in zip(cand[order].tolist(), exact[order].tolist()))
            results.append(RetrievalResult(query_id=qid, hits=hits, k=k))
    return results


def ranked_urls(result: RetrievalResult, url_of: Mapping[str, str],
                dedup: bool = True) -> list[str]:
    """Hit URLs in rank order, optionally collapsed to first occurrence per URL.

    A hit whose entry_id url_of does not map raises EvalError.
    """
    urls: list[str] = []
    seen: set[str] = set()
    for entry_id in result.entry_ids():
        url = url_of.get(entry_id)
        if url is None:
            raise EvalError(f"retrieval hit {entry_id!r} for query {result.query_id!r} "
                            "is not in the KB")
        if dedup:
            if url in seen:
                continue
            seen.add(url)
        urls.append(url)
    return urls


def gold_rank(result: RetrievalResult, gold_url: str,
              url_of: Mapping[str, str], dedup: bool = True) -> int | None:
    """1-based rank of the gold URL among the hits; None when absent.

    URL comparison is byte-exact, no normalization.
    """
    for rank, url in enumerate(ranked_urls(result, url_of, dedup=dedup), start=1):
        if url == gold_url:
            return rank
    return None


def recall_at_k(
    results: Sequence[RetrievalResult],
    queries: Sequence[Query],
    k: int,
    url_of: Mapping[str, str],
    dedup: bool = True,
) -> float:
    """Fraction of queries whose gold entry URL appears among the top-k hit URLs."""
    if not results:
        raise EvalError("no retrieval results to score")
    if not queries:
        raise EvalError("no queries to score")
    by_id = {r.query_id: r for r in results}
    hit = 0
    for query in queries:
        if not query.gold_entry_url:
            raise EvalError(f"query {query.query_id!r} has no gold_entry_url")
        result = by_id.get(query.query_id)
        if result is None:
            raise EvalError(f"no retrieval result for query {query.query_id!r}")
        rank = gold_rank(result, query.gold_entry_url, url_of, dedup=dedup)
        if rank is not None and rank <= k:
            hit += 1
    return hit / len(queries)


def write_results(results: Sequence[RetrievalResult], path: str | Path) -> int:
    return write_jsonl(path, map(to_record, results))


def read_results(path: str | Path) -> list[RetrievalResult]:
    parse = unique_query_ids(lambda obj, _lineno: from_record(RetrievalResult, obj))
    return read_jsonl(path, parse, IngestError)
