"""Deterministic synthetic fixtures shared across the test suite.

Everything here is generator-local on purpose: rankings are computed with a
plain per-row dot-product loop (not the package's index) so planted gold
ranks are an independent ground truth, and the mock script plants exact
counts of answer and selection inconsistencies whose expected flag values
are recorded alongside the files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LETTERS = "ABCDE"

KB_SIZE = 100
QUERY_COUNT = 20
DIM = 16

# Planted inconsistency layout for the 20-query fixture: q00..q11 get
# differing step-1/step-3 answers (first 6 parametric-correct, next 6
# grounded-correct), q12..q19 agree after normalization. Probes disagree for
# q00..q08 (5 image-side correct, 3 text-side correct, 1 neither).
PRKI_TRUE_QIDS = tuple(f"q{i:02d}" for i in range(12))
VTKI_TRUE_QIDS = tuple(f"q{i:02d}" for i in range(9))

# Gold entry rank per query (1-based; 50 stands in for "deep miss").
GOLD_RANKS = [1, 2, 3, 4, 5, 1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 9, 1, 2, 50, 3]


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1, keepdims=True)
    return (matrix.astype(np.float64) / norms).astype(np.float32)


def brute_force_order(kb_matrix: np.ndarray, query_vec: np.ndarray) -> list[int]:
    """Best-first entry ordinals by dot product; ties broken by ordinal."""
    q = query_vec.astype(np.float64)
    scores = [float(np.dot(row.astype(np.float64), q)) for row in kb_matrix]
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def entry_url(i: int) -> str:
    return f"https://kb.example/wiki/Entry_{i:03d}"


def make_entries(n: int) -> list[dict]:
    entries = []
    for i in range(n):
        entries.append({
            "entry_id": f"e{i:03d}",
            "url": entry_url(i),
            "title": f"Entry {i:03d}",
            "content": (
                f"Entry {i:03d} describes topic number {i}. "
                f"It has a second sentence for padding. A third one closes it."
            ),
            "image_refs": [f"images/e{i:03d}.jpg"],
            "embedding_row": i,
        })
    return entries


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


def write_matrix(dir_path: Path, stem: str, matrix: np.ndarray) -> tuple[Path, Path]:
    manifest = dir_path / f"{stem}_manifest.json"
    data = dir_path / f"{stem}.f32"
    manifest.write_text(json.dumps({
        "dim": int(matrix.shape[1]), "count": int(matrix.shape[0]),
        "normalized": True, "dtype": "f32le",
    }) + "\n", encoding="utf-8")
    data.write_bytes(matrix.astype("<f4").tobytes())
    return manifest, data


@dataclass
class FixtureBundle:
    root: Path
    entries_path: Path
    kb_manifest: Path
    kb_embeddings: Path
    queries_path: Path
    query_manifest: Path
    query_embeddings: Path
    mock_script: Path
    queries: list[dict]
    gold_rank_by_qid: dict[str, int]
    script: dict[tuple[str, str], str] = field(default_factory=dict)
    # Planted per-query step answers, keyed by qid.
    int_answers: dict[str, str] = field(default_factory=dict)
    ext_answers: dict[str, str] = field(default_factory=dict)
    probe_indices: dict[str, tuple[int, int]] = field(default_factory=dict)


def kb_from_entries(entries, manifest):
    """A KnowledgeBase over entry objects, as ingest_kb's full parse of
    their lines builds it: each entry's export line is json.dumps of its
    JSON dict, and an entry is parsed from its line when it is looked up."""
    from kbvqa.kb import SCHEMA_VERSION, KnowledgeBase
    from kbvqa.records import to_record

    entries = list(entries)
    lines = [(json.dumps({"schema_version": SCHEMA_VERSION, **to_record(e)},
                         ensure_ascii=False) + "\n").encode("utf-8")
             for e in entries]
    return KnowledgeBase(manifest, [e.entry_id for e in entries], [e.url for e in entries],
                         [e.embedding_row for e in entries], export_lines=lines)


def build_fixture(root: Path, seed: int = 2024) -> FixtureBundle:
    """Write the standard 100-entry / 20-query fixture into root."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    kb_matrix = _normalize_rows(rng.normal(size=(KB_SIZE, DIM)))
    query_matrix = _normalize_rows(rng.normal(size=(QUERY_COUNT, DIM)))

    entries = make_entries(KB_SIZE)
    entries_path = root / "entries.jsonl"
    write_jsonl(entries_path, entries)
    kb_manifest, kb_embeddings = write_matrix(root, "kb_embeddings", kb_matrix)
    query_manifest, query_embeddings = write_matrix(root, "query_embeddings", query_matrix)

    queries: list[dict] = []
    gold_rank_by_qid: dict[str, int] = {}
    int_answers: dict[str, str] = {}
    ext_answers: dict[str, str] = {}
    probe_indices: dict[str, tuple[int, int]] = {}
    script: dict[tuple[str, str], str] = {}

    for qnum in range(QUERY_COUNT):
        qid = f"q{qnum:02d}"
        order = brute_force_order(kb_matrix, query_matrix[qnum])
        rank = GOLD_RANKS[qnum]
        gold_ordinal = order[rank - 1]
        gold_rank_by_qid[qid] = rank

        if qnum < 6:
            y_int, y_ext = f"Gold Answer {qnum}", f"Wrong Answer {qnum}"
            gold = y_int
            final = y_int
        elif qnum < 12:
            y_int, y_ext = f"Wrong Answer {qnum}", f"Gold Answer {qnum}"
            gold = y_ext
            final = y_ext
        else:
            # Equal after normalization but not byte-equal, so the flag
            # computation is exercised, not just string identity.
            y_int, y_ext = f"The Shared Answer {qnum}", f"shared answer {qnum}."
            gold = f"Shared Answer {qnum}"
            final = y_ext
        int_answers[qid] = y_int
        ext_answers[qid] = y_ext

        if qnum < 5:
            i_gt = rank - 1
            i_v, i_t = i_gt, (i_gt + 1) % 5
        elif qnum < 8:
            i_gt = rank - 1
            i_v, i_t = (i_gt + 2) % 5, i_gt
        elif qnum == 8:
            i_v, i_t = 0, 1
        else:
            i_v = i_t = 0
        probe_indices[qid] = (i_v, i_t)

        queries.append({
            "query_id": qid,
            "question": f"What does query {qnum} ask about?",
            "image_ref": f"images/{qid}.jpg",
            "gold_answers": [gold],
            "gold_entry_url": entry_url(gold_ordinal),
            "split_tag": ["unseen_q", "unseen_e", "other"][qnum % 3],
            "answer_type": "text",
            "query_embedding_row": qnum,
        })

        i_tv = qnum % 5
        script[(qid, "core_param")] = f"[{y_int}]"
        script[(qid, "core_select")] = f"[Reference {LETTERS[i_tv]}]"
        script[(qid, "core_ext_gen")] = f"[{y_ext}]"
        script[(qid, "core_reconcile")] = f"[{final}]"
        script[(qid, "core_single")] = (
            f"Step 1 gives [{y_int}]. Step 2 picks Reference {LETTERS[i_tv]}. "
            f"Final answer: [{final}]"
        )
        script[(qid, "probe_visual")] = f"[Reference {LETTERS[i_v]}]"
        script[(qid, "probe_text")] = f"Reference {LETTERS[i_t]}"
        script[(qid, "param_gen")] = f"[{y_int}]"
        script[(qid, "oracle_gen")] = f"[{gold}]"
        script[(qid, "one_stage_gen")] = f"[{y_ext}]"
        script[(qid, "rerank")] = f"[Reference {LETTERS[i_tv]}]"
        script[(qid, "two_stage_gen")] = f"[{y_ext}]"
        script[(qid, "mmstar_gen")] = f"Step-by-step reasoning here. Final: [{final}]"

    queries_path = root / "queries.jsonl"
    write_jsonl(queries_path, queries)

    mock_script = root / "mock_script.jsonl"
    with mock_script.open("w", encoding="utf-8") as fh:
        for (qid, stage), text in sorted(script.items()):
            fh.write(json.dumps({"query_id": qid, "stage": stage, "text": text},
                                ensure_ascii=False))
            fh.write("\n")

    return FixtureBundle(
        root=root,
        entries_path=entries_path,
        kb_manifest=kb_manifest,
        kb_embeddings=kb_embeddings,
        queries_path=queries_path,
        query_manifest=query_manifest,
        query_embeddings=query_embeddings,
        mock_script=mock_script,
        queries=queries,
        gold_rank_by_qid=gold_rank_by_qid,
        script=script,
        int_answers=int_answers,
        ext_answers=ext_answers,
        probe_indices=probe_indices,
    )


# Core staged stage recognised by a phrase only its template contains.
_CORE_STAGE_MARKERS = (
    ("Answer from Step 1:", "core_reconcile"),
    ("Please use parametric knowledge", "core_param"),
    ("Identify the most similar Wikipedia reference", "core_select"),
    ("Based on the retrieved document, answer the question", "core_ext_gen"),
)


def core_staged_reply(bundle: FixtureBundle):
    """An http_stub.LocalServer reply that answers each core staged call of
    the standard fixture with the mock script's text for that query and stage."""
    def reply(body: bytes) -> str:
        content = json.loads(body)["messages"][0]["content"]
        text = "".join(p["text"] for p in content if p["type"] == "text")
        stage = next(s for marker, s in _CORE_STAGE_MARKERS if marker in text)
        qnum = int(re.search(r"What does query (\d+) ask about", text).group(1))
        return bundle.script[(f"q{qnum:02d}", stage)]
    return reply


def build_strata_fixture():
    """In-memory 50-query scoring fixture with planted per-stratum accuracy.

    Layout (queries m00..m49):
      rank 1   x10, 6 correct   -> stratum "1"   accuracy 0.6
      rank 2   x10, 3 correct   -> stratum "2"   accuracy 0.3
      rank 3-5 x20, 5 correct   -> stratum "3-5" accuracy 0.25
      rank 7/absent x10, 1 correct -> stratum ">5" accuracy 0.1
    Overall: 15/50 = 0.30. Splits: m00..m24 unseen_q, rest other.

    Returns (queries, traces, results, url_map) as plain package objects.
    """
    from kbvqa.kb import Query
    from kbvqa.pipeline import PipelineTrace
    from kbvqa.retrieval import RetrievalResult

    plan = []
    plan += [(1, i < 6) for i in range(10)]
    plan += [(2, i < 3) for i in range(10)]
    plan += [(3 + i % 3, i < 5) for i in range(20)]
    plan += [(7 if i % 2 else None, i < 1) for i in range(10)]

    queries, traces, results = [], [], []
    url_map = {}
    for i, (rank, correct) in enumerate(plan):
        qid = f"m{i:02d}"
        ids = [f"{qid}_e{j}" for j in range(10)]
        for j, eid in enumerate(ids):
            url_map[eid] = f"https://kb.example/{qid}/{j}"
        hits = tuple((eid, 0.95 - 0.05 * j) for j, eid in enumerate(ids))
        results.append(RetrievalResult(query_id=qid, hits=hits, k=10))
        gold_url = (url_map[ids[rank - 1]] if rank is not None
                    else f"https://kb.example/{qid}/absent")
        queries.append(Query(
            query_id=qid,
            question=f"Planted question {i}?",
            image_ref=f"images/{qid}.jpg",
            gold_answers=(f"target {i}",),
            gold_entry_url=gold_url,
            split_tag="unseen_q" if i < 25 else "other",
        ))
        traces.append(PipelineTrace(
            query_id=qid, variant="core", mode="staged",
            y_final=f"target {i}" if correct else "something else",
        ))
    return queries, traces, results, url_map


# Planted gold ranks for the recall fixture; None means the gold entry is
# assigned far outside any top-10 (rank 50). Hand counts at k=1/2/5/10:
# 4, 5, 7 and 9 of 10 queries.
RECALL_RANKS = [1, 1, 1, 1, 2, 3, 5, 6, 9, None]


def build_recall_fixture(root: Path, seed: int = 77) -> FixtureBundle:
    """A 10-query fixture with hand-countable planted gold ranks."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    kb_matrix = _normalize_rows(rng.normal(size=(KB_SIZE, DIM)))
    query_matrix = _normalize_rows(rng.normal(size=(len(RECALL_RANKS), DIM)))

    entries = make_entries(KB_SIZE)
    entries_path = root / "entries.jsonl"
    write_jsonl(entries_path, entries)
    kb_manifest, kb_embeddings = write_matrix(root, "kb_embeddings", kb_matrix)
    query_manifest, query_embeddings = write_matrix(root, "query_embeddings", query_matrix)

    queries = []
    gold_rank_by_qid = {}
    for qnum, rank in enumerate(RECALL_RANKS):
        qid = f"r{qnum:02d}"
        order = brute_force_order(kb_matrix, query_matrix[qnum])
        effective_rank = rank if rank is not None else 50
        gold_ordinal = order[effective_rank - 1]
        gold_rank_by_qid[qid] = effective_rank
        queries.append({
            "query_id": qid,
            "question": f"Recall probe {qnum}?",
            "image_ref": f"images/{qid}.jpg",
            "gold_answers": ["unused"],
            "gold_entry_url": entry_url(gold_ordinal),
            "split_tag": "other",
            "answer_type": "text",
            "query_embedding_row": qnum,
        })
    queries_path = root / "queries.jsonl"
    write_jsonl(queries_path, queries)

    return FixtureBundle(
        root=root,
        entries_path=entries_path,
        kb_manifest=kb_manifest,
        kb_embeddings=kb_embeddings,
        queries_path=queries_path,
        query_manifest=query_manifest,
        query_embeddings=query_embeddings,
        mock_script=root / "unused_mock.jsonl",
        queries=queries,
        gold_rank_by_qid=gold_rank_by_qid,
    )
