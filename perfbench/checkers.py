"""Independent checks of every workload's outputs.

Nothing here imports the program. Retrieval is checked against a float64
brute-force top-k computed here; pipeline, mining, export and scoring
outputs are checked against the planted plan from workloads.py. Each check
returns a list of problems; an empty list means the output is correct. The
plan fixes every outcome, so a failed trace is a problem as well as a count.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-6
_TIE_SLACK = 1e-9  # candidate margin around the k-th score before exact rescoring


def _read_jsonl(path: Path) -> list[dict]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _normalized(queries: np.ndarray) -> np.ndarray:
    q = queries.astype(np.float64)
    norms = np.linalg.norm(q, axis=1)
    off = np.abs(norms - 1.0) > 1e-6
    q[off] /= norms[off, None]
    return q


def brute_force_topk(kb: np.ndarray, queries: np.ndarray, k: int,
                     block: int = 8192) -> list[list[tuple[int, float]]]:
    """Exact top-k by float64 dot product, ties in ascending ordinal order.

    A blocked GEMM finds every entry within a small margin of each query's
    k-th score; those candidates are rescored with an exactly rounded sum
    (``math.fsum`` of float64 products of float32 inputs, which are exact),
    so identical rows score identically and ties break by ordinal alone.
    """
    q64 = _normalized(queries)
    n, nq = kb.shape[0], q64.shape[0]
    k = min(k, n)
    best = np.full((nq, k), -np.inf)
    for b0 in range(0, n, block):
        s = q64 @ kb[b0:b0 + block].astype(np.float64).T
        both = np.concatenate([best, s], axis=1)
        best = -np.partition(-both, k - 1, axis=1)[:, :k]
    floor = best.min(axis=1) - _TIE_SLACK
    cands: list[list[int]] = [[] for _ in range(nq)]
    for b0 in range(0, n, block):
        s = q64 @ kb[b0:b0 + block].astype(np.float64).T
        for j, i in zip(*np.nonzero(s >= floor[:, None])):
            cands[j].append(b0 + int(i))
    out = []
    for j in range(nq):
        scored = [(-math.fsum(kb[i].astype(np.float64) * q64[j]), i) for i in cands[j]]
        scored.sort()
        out.append([(i, -neg) for neg, i in scored[:k]])
    return out


def check_retrieval(path: Path, expected: dict[str, list[tuple[int, float]]],
                    entry_id) -> list[str]:
    """Same ids in the same order, scores within SCORE_TOL, one line per query."""
    problems = []
    rows = _read_jsonl(path)
    if [r["query_id"] for r in rows] != list(expected):
        problems.append("retrieval results are not one line per query in input order")
    for row in rows:
        want = expected.get(row["query_id"])
        if want is None:
            continue
        got_ids = [h["entry_id"] for h in row["hits"]]
        want_ids = [entry_id(i) for i, _ in want]
        if got_ids != want_ids:
            problems.append(f"{row['query_id']}: hits {got_ids} != brute force {want_ids}")
            continue
        for h, (_, score) in zip(row["hits"], want):
            if abs(h["score"] - score) > SCORE_TOL:
                problems.append(f"{row['query_id']}: {h['entry_id']} score {h['score']} != {score}")
    return problems


def _check_order(traces: list[dict], plan: dict) -> list[str]:
    if [t["query_id"] for t in traces] != list(plan):
        return ["traces are not one line per query in input order"]
    return []


def _expect(problems: list[str], qid: str, field: str, got, want) -> None:
    if got != want:
        problems.append(f"{qid}: {field} is {got!r}, plan says {want!r}")


def check_core_traces(path: Path, plan: dict) -> tuple[list[str], int]:
    """Core staged traces against the plan; returns (problems, failed traces)."""
    traces = _read_jsonl(path)
    problems = _check_order(traces, plan)
    failed = 0
    for t in traces:
        p = plan.get(t["query_id"])
        if p is None:
            continue
        if t["failed"]:
            failed += 1
            problems.append(f"{t['query_id']}: failed ({t.get('error')}); the plan fixes every outcome")
            continue
        qid = t["query_id"]
        for field in ("y_int", "i_tv", "y_ext", "y_final", "prki_flag"):
            _expect(problems, qid, field, t[field], p[field])
        _expect(problems, qid, "context_entry_ids", t["context_entry_ids"], p["candidates"])
        _expect(problems, qid, "stages", [s["stage"] for s in t.get("transcripts", [])],
                ["core_param", "core_select", "core_ext_gen", "core_reconcile"])
    return problems, failed


def check_oracle_traces(path: Path, plan: dict) -> tuple[list[str], int]:
    traces = _read_jsonl(path)
    problems = _check_order(traces, plan)
    failed = 0
    for t in traces:
        p = plan.get(t["query_id"])
        if p is None:
            continue
        if t["failed"]:
            failed += 1
            problems.append(f"{t['query_id']}: failed ({t.get('error')}); the plan fixes every outcome")
            continue
        _expect(problems, t["query_id"], "y_final", t["y_final"], p["oracle_answer"])
        _expect(problems, t["query_id"], "context_entry_ids", t["context_entry_ids"],
                [p["gold_entry"]])
    return problems, failed


def check_probe_traces(path: Path, plan: dict) -> tuple[list[str], int]:
    traces = _read_jsonl(path)
    problems = _check_order(traces, plan)
    failed = 0
    for t in traces:
        p = plan.get(t["query_id"])
        if p is None:
            continue
        if t["failed"]:
            failed += 1
            problems.append(f"{t['query_id']}: failed ({t.get('error')}); the plan fixes every outcome")
            continue
        qid = t["query_id"]
        _expect(problems, qid, "i_v", t["i_v"], p["i_v"])
        _expect(problems, qid, "i_t", t["i_t"], p["i_t"])
        _expect(problems, qid, "vtki_flag", t["vtki_flag"], p["i_v"] != p["i_t"])
    return problems, failed


def expected_buckets(plan: dict) -> dict[str, list[str]]:
    """Query ids per mined bucket, derived from the planted categories."""
    out: dict[str, list[str]] = {"d_int": [], "d_ext": [], "d_v": [], "d_t": []}
    for qid in sorted(plan):
        p = plan[qid]
        if p["category"] in ("int_right", "both_right"):
            out["d_int"].append(qid)
        elif p["category"] == "ext_right":
            out["d_ext"].append(qid)
        if "i_v" not in p:
            continue
        i_gt, i_v, i_t = p["gold_pos"], p["i_v"], p["i_t"]
        if i_gt is None or i_v == i_t:
            continue
        if i_v == i_gt:
            out["d_v"].append(qid)
        elif i_t == i_gt:
            out["d_t"].append(qid)
    return out


def check_mining(paths: dict[str, Path], plan: dict) -> list[str]:
    """Bucket membership, sizes and supervision targets of the mined records."""
    problems = []
    want = expected_buckets(plan)
    for bucket, path in paths.items():
        records = _read_jsonl(path)
        got = [r["query_id"] for r in records]
        if got != want[bucket]:
            problems.append(f"{bucket}: {len(got)} records, plan says {len(want[bucket])} "
                            f"(first difference near {sorted(set(got) ^ set(want[bucket]))[:3]})")
            continue
        for r in records:
            p = plan[r["query_id"]]
            target = {"d_int": p["y_int"], "d_ext": p["y_ext"],
                      "d_v": p["gold_pos"], "d_t": p["gold_pos"]}[bucket]
            _expect(problems, r["query_id"], f"{bucket} target", r["target"], target)
            _expect(problems, r["query_id"], "bucket", r["bucket"], bucket)
    return problems


def check_export(path: Path, plan: dict) -> list[str]:
    """prki export: one line per d_int/d_ext record, sorted, with its target."""
    want = expected_buckets(plan)
    expected = sorted([(q, "d_int") for q in want["d_int"]] + [(q, "d_ext") for q in want["d_ext"]])
    lines = _read_jsonl(path)
    problems = []
    if [(r["query_id"], r["bucket"]) for r in lines] != expected:
        problems.append(f"export has {len(lines)} lines, plan says {len(expected)}")
        return problems
    for r in lines:
        p = plan[r["query_id"]]
        _expect(problems, r["query_id"], "export target", r["target"],
                p["y_int"] if r["bucket"] == "d_int" else p["y_ext"])
    return problems


def check_score(report_path: Path, verdicts_path: Path, plan: dict) -> list[str]:
    """Per-query verdicts and overall accuracy recomputed from the plan."""
    problems = []
    verdicts = _read_jsonl(verdicts_path)
    if [v["query_id"] for v in verdicts] != list(plan):
        return ["verdicts are not one line per query in input order"]
    for v in verdicts:
        _expect(problems, v["query_id"], "verdict", v["correct"], plan[v["query_id"]]["final_right"])
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    accuracy = sum(p["final_right"] for p in plan.values()) / len(plan)
    if report["total"] != len(plan) or abs(report["accuracy_overall"] - accuracy) > 1e-12:
        problems.append(f"report accuracy {report['accuracy_overall']} over {report['total']} "
                        f"queries, plan says {accuracy} over {len(plan)}")
    return problems


def check_stub_stats(stats: dict, plan: dict) -> list[str]:
    """Exactly the four core stages, once each, for every query; no rejected request."""
    problems = [f"stub rejected a request: {e}" for e in stats["errors"]]
    want = ["core_ext_gen", "core_param", "core_reconcile", "core_select"]
    for qid in plan:
        got = sorted(stats["stages"].get(qid, []))
        if got != want:
            problems.append(f"{qid}: stub served stages {got}, expected one of each of {want}")
    if stats["requests"] != 4 * len(plan):
        problems.append(f"stub served {stats['requests']} requests, expected {4 * len(plan)}")
    return problems
