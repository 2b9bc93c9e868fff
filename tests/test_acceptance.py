"""Acceptance gate: one test per shipping criterion.

Every expected value here is either hand-derived, planted by the fixture
generators, or recomputed by a test-local oracle that does not share code
with the implementation under test. A summary line per criterion is printed
at the end of the pytest run (see conftest.py).
"""

from __future__ import annotations

import json
import re
import random
import threading
import time
import unicodedata
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from kbvqa.backend import BackendError, BackendRequest, EndpointConfig, HttpBackend, MockBackend
from kbvqa.cli import main
from kbvqa.kb import (
    EmbeddingManifest,
    EmbeddingMatrix,
    KnowledgeEntry,
    Query,
    ingest_kb,
    ingest_queries,
    load_embeddings,
    load_manifest,
)
from kbvqa.metrics import DISJOINT_STRATA, aggregate_accuracy, match_answer, score_run
from kbvqa.mining import mine_prki, mine_vtki
from kbvqa.pipeline import PipelineRunner, PipelineTrace
from kbvqa.prompts import ImagePart, MessageSequence, PromptContext, TextPart, golden_check
from kbvqa.retrieval import build_index, recall_at_k, search, search_batch

import fixture_gen


# -- test-local oracles (no shared code with the package) ------------------


def _oracle_norm(text: str) -> str:
    t = unicodedata.normalize("NFC", text).lower()
    t = re.sub(r"[^0-9a-z\s]", " ", t)
    t = " ".join(t.split())
    changed = True
    while changed:
        changed = False
        for article in ("a ", "an ", "the "):
            if t.startswith(article):
                t = t[len(article):]
                changed = True
    return t


def _oracle_extract(text: str) -> str:
    spans = re.findall(r"\[([^\]]*)\]", text)
    return spans[-1] if spans else text.strip()


def _oracle_letter_index(text: str) -> int:
    found = re.findall(r"Reference\s+([A-E])", text)
    return "ABCDE".index(found[-1])


def _load_stack(bundle, k=5):
    kb = ingest_kb(bundle.entries_path, bundle.kb_manifest)
    queries = ingest_queries(bundle.queries_path)
    qemb = load_embeddings(load_manifest(bundle.query_manifest), bundle.query_embeddings)
    index = build_index(kb, load_embeddings(kb.manifest, bundle.kb_embeddings))
    results = search_batch(index, list(qemb.data), [q.query_id for q in queries], k)
    return kb, queries, {r.query_id: r for r in results}


# -- criterion 1 ------------------------------------------------------------


def test_criterion_01_retrieval_matches_brute_force_oracle():
    rng = np.random.default_rng(4242)
    raw = rng.normal(size=(1000, 32))
    mat = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32)
    entries = [
        KnowledgeEntry(entry_id=f"s{i:04d}", url=f"https://kb.example/s/{i}",
                       title=f"S {i}", content="Body.",
                       image_refs=(f"images/s{i}.jpg",), embedding_row=i)
        for i in range(1000)
    ]
    kb = fixture_gen.kb_from_entries(entries, EmbeddingManifest(32, 1000, True))
    index = build_index(kb, EmbeddingMatrix(mat))
    qraw = rng.normal(size=(100, 32))
    qs = qraw / np.linalg.norm(qraw, axis=1, keepdims=True)

    started = time.perf_counter()
    results = [search(index, q, 5, f"q{i}") for i, q in enumerate(qs)]
    elapsed = time.perf_counter() - started

    mat64 = mat.astype(np.float64)
    for q, res in zip(qs, results):
        ranked = sorted(
            ((-float(np.dot(mat64[i], q)), i) for i in range(1000))
        )[:5]
        assert [h[0] for h in res.hits] == [entries[i].entry_id for _, i in ranked]
        for (_, hit_score), (neg, _) in zip(res.hits, ranked):
            assert abs(hit_score - (-neg)) <= 1e-6
    assert elapsed < 1.0, f"100 searches took {elapsed:.3f}s"


# -- criterion 2 ------------------------------------------------------------


def test_criterion_02_recall_exact_and_monotonic(recall_bundle):
    kb, queries, by_qid = _load_stack(recall_bundle, k=10)
    url_map = {e.entry_id: e.url for e in kb.entries}
    results = list(by_qid.values())
    values = [recall_at_k(results, queries, k, url_map) for k in (1, 2, 5, 10)]
    # hand count over the planted ranks [1,1,1,1,2,3,5,6,9,absent]
    assert values == [0.4, 0.5, 0.7, 0.9]
    assert all(a <= b for a, b in zip(values, values[1:]))


# -- criterion 3 ------------------------------------------------------------

LAKE_ENTRIES = tuple(
    KnowledgeEntry(
        entry_id=f"lake{i}",
        url=f"https://kb.example/wiki/{title.replace(' ', '_')}",
        title=title, content=content, image_refs=(image,),
    )
    for i, (title, content, image) in enumerate(zip(
        ("Lake Alpha", "Lake Beta", "Lake Gamma", "Lake Delta", "Lake Epsilon"),
        (
            "Lake Alpha is 2.8 km wide. It lies in a valley.",
            "Lake Beta is 3.1 km wide. It sits beside a forest.",
            "Lake Gamma is 1.4 km wide. It fills an old crater.",
            "Lake Delta is 5.6 km wide. It borders two towns.",
            "Lake Epsilon is 0.9 km wide. It freezes in winter.",
        ),
        tuple(f"images/lake_{c}.jpg" for c in "abcde"),
    ))
)

PROMPT_GOLDENS = [
    ("param", "param_gen", {}, "param.golden.txt"),
    ("oracle", "oracle_gen", {"select": 1}, "oracle.golden.txt"),
    ("one_stage", "one_stage_gen", {}, "one_stage.golden.txt"),
    ("two_stage", "rerank", {}, "two_stage_rerank.golden.txt"),
    ("two_stage", "two_stage_gen", {"select": 1}, "two_stage_generate.golden.txt"),
    ("mmstar", "mmstar_gen", {}, "mmstar.golden.txt"),
    ("core", "core_single", {}, "core_single.golden.txt"),
    ("core", "core_select", {}, "core_select.golden.txt"),
    ("core", "core_reconcile", {"select": 1, "steps": ("3 km", "3.1 km")},
     "core_reconcile.golden.txt"),
    ("probe", "probe_visual", {}, "probe_visual.golden.txt"),
]


def test_criterion_03_prompt_goldens_byte_exact(goldens_dir):
    query = Query(query_id="lake_q",
                  question="What is the width (in kilometre) of this lake?",
                  image_ref="images/query_lake.jpg", gold_answers=("3.1 km",))
    for variant, stage, case, name in PROMPT_GOLDENS:
        kwargs = {}
        if "select" in case:
            kwargs["selected_entry"] = LAKE_ENTRIES[case["select"]]
        if "steps" in case:
            kwargs["step1_answer"], kwargs["step3_answer"] = case["steps"]
        ctx = PromptContext(query=query, entries=LAKE_ENTRIES, **kwargs)
        check = golden_check(variant, stage, ctx, goldens_dir / name)
        assert check.passed, f"{name}: {check.message}"


# -- criterion 4 ------------------------------------------------------------


def test_criterion_04_worker_determinism_and_staged_call_count(bundle, tmp_path):
    kb_flags = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    ret = tmp_path / "ret"
    rc = main(["retrieve", *kb_flags, "--kb-embeddings", str(bundle.kb_embeddings),
               "--queries", str(bundle.queries_path),
               "--query-manifest", str(bundle.query_manifest),
               "--query-embeddings", str(bundle.query_embeddings),
               "--k", "5", "--out-dir", str(ret)])
    assert rc == 0
    blobs = []
    for workers in (1, 4, 16):
        out = tmp_path / f"w{workers}"
        rc = main(["run", "--variant", "core", *kb_flags,
                   "--queries", str(bundle.queries_path),
                   "--retrievals", str(ret / "retrieval_results.jsonl"),
                   "--mock-script", str(bundle.mock_script),
                   "--workers", str(workers),
                   "--top-k", "5", "--out-dir", str(out)])
        assert rc == 0
        blobs.append((out / "traces.jsonl").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    kb, queries, by_qid = _load_stack(bundle)
    backend = MockBackend(bundle.script)
    PipelineRunner(kb, backend, top_k=5).run_many("core", queries, by_qid, workers=4)
    for q in queries:
        assert backend.calls(q.query_id) == (
            (q.query_id, "core_param"), (q.query_id, "core_select"),
            (q.query_id, "core_ext_gen"), (q.query_id, "core_reconcile"),
        )


# -- criterion 5 ------------------------------------------------------------


def test_criterion_05_inconsistency_flags_match_independent_recount(bundle):
    kb, queries, by_qid = _load_stack(bundle)
    runner = PipelineRunner(kb, MockBackend(bundle.script), top_k=5)
    core = runner.run_many("core", queries, by_qid)
    probes = runner.run_many("probe", queries, by_qid)

    raw = {}
    for line in bundle.mock_script.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        raw[(rec["query_id"], rec["stage"])] = rec["text"]

    prki_true = 0
    for trace in core:
        y_int = _oracle_extract(raw[(trace.query_id, "core_param")])
        y_ext = _oracle_extract(raw[(trace.query_id, "core_ext_gen")])
        expected = _oracle_norm(y_int) != _oracle_norm(y_ext)
        assert trace.prki_flag is expected, trace.query_id
        prki_true += expected
    assert prki_true == 12

    vtki_true = 0
    for trace in probes:
        i_v = _oracle_letter_index(raw[(trace.query_id, "probe_visual")])
        i_t = _oracle_letter_index(raw[(trace.query_id, "probe_text")])
        expected = i_v != i_t
        assert trace.vtki_flag is expected, trace.query_id
        assert (trace.i_v, trace.i_t) == (i_v, i_t), trace.query_id
        vtki_true += expected
    assert vtki_true == 9


# -- criterion 6 ------------------------------------------------------------

MINE_URLS = {f"c{i}": f"https://kb.example/mine/{i}" for i in range(5)}
MINE_CONTEXT = ("c0", "c1", "c2", "c3", "c4")
MINE_GOLD_URL = MINE_URLS["c2"]


def _mining_universe():
    """100 queries: 30 parametric-correct, 45 retrieval-correct, 15 both
    wrong but differing, 10 agreeing; selection side 40/35/25."""
    queries, int_traces, ext_traces, probe_traces = [], [], [], []
    for i in range(100):
        qid = f"m{i:02d}"
        gold = f"gold {i}"
        queries.append(Query(query_id=qid, question=f"{qid}?", image_ref=f"{qid}.jpg",
                             gold_answers=(gold,), gold_entry_url=MINE_GOLD_URL))
        if i < 30:
            y_int, y_ext = f"The gold {i}!", f"off {i}"
        elif i < 75:
            y_int, y_ext = f"miss {i}", gold
        elif i < 90:
            y_int, y_ext = f"alpha {i}", f"beta {i}"
        else:
            y_int = y_ext = f"same {i}"
        int_traces.append(PipelineTrace(query_id=qid, variant="param", y_int=y_int,
                                        y_final=y_int, context_entry_ids=()))
        ext_traces.append(PipelineTrace(query_id=qid, variant="one_stage", y_ext=y_ext,
                                        y_final=y_ext, context_entry_ids=MINE_CONTEXT))
        if i < 40:
            i_v, i_t = 2, (3 if i % 2 else 0)
        elif i < 75:
            i_v, i_t = (4 if i % 2 else 1), 2
        else:
            i_v, i_t = 0, 1
        probe_traces.append(PipelineTrace(query_id=qid, variant="probe", i_v=i_v,
                                          i_t=i_t, context_entry_ids=MINE_CONTEXT))
    return queries, int_traces, ext_traces, probe_traces


def test_criterion_06_mining_bucket_sizes_and_predicates():
    queries, int_traces, ext_traces, probe_traces = _mining_universe()
    golds = {q.query_id: q.gold_answers for q in queries}

    prki = mine_prki(int_traces, ext_traces, queries)
    assert len(prki.d_int) == 30
    assert len(prki.d_ext) == 45
    assert not {r.query_id for r in prki.d_int} & {r.query_id for r in prki.d_ext}
    for rec in prki.d_int:
        y_int, y_ext = rec.provenance["y_int"], rec.provenance["y_ext"]
        assert _oracle_norm(y_int) != _oracle_norm(y_ext)
        assert any(_oracle_norm(y_int) == _oracle_norm(g) for g in golds[rec.query_id])
        assert rec.target == y_int
    for rec in prki.d_ext:
        y_int, y_ext = rec.provenance["y_int"], rec.provenance["y_ext"]
        assert _oracle_norm(y_int) != _oracle_norm(y_ext)
        assert any(_oracle_norm(y_ext) == _oracle_norm(g) for g in golds[rec.query_id])
        assert rec.target == y_ext

    vtki = mine_vtki(probe_traces, queries, MINE_URLS)
    assert len(vtki.d_v) == 40
    assert len(vtki.d_t) == 35
    assert not {r.query_id for r in vtki.d_v} & {r.query_id for r in vtki.d_t}
    gold_slot = MINE_CONTEXT.index("c2")
    for rec in vtki.d_v:
        assert rec.provenance["i_v"] == gold_slot != rec.provenance["i_t"]
        assert rec.target == gold_slot
    for rec in vtki.d_t:
        assert rec.provenance["i_t"] == gold_slot != rec.provenance["i_v"]
        assert rec.target == gold_slot


# -- criterion 7 ------------------------------------------------------------


def test_criterion_07_stratified_accuracy_arithmetic():
    queries, traces, results, url_map = fixture_gen.build_strata_fixture()
    report = score_run(traces, queries, results, url_map, ks=(1, 5)).report
    assert report.accuracy_overall == 0.30
    assert report.accuracy_by_stratum["1"] == (0.6, 10)
    assert report.accuracy_by_stratum["2"] == (0.3, 10)
    assert report.accuracy_by_stratum["3-5"] == (0.25, 20)
    assert report.accuracy_by_stratum[">5"] == (0.1, 10)

    rng = random.Random(1234)
    for _ in range(1000):
        correct_by_qid, memberships = {}, {}
        planted = {}
        qnum = 0
        for stratum in DISJOINT_STRATA:
            n = rng.randint(1, 40)
            hits = 0
            for _ in range(n):
                qid = f"q{qnum}"
                ok = rng.random() < rng.random()
                correct_by_qid[qid] = ok
                memberships[qid] = (stratum,)
                hits += ok
                qnum += 1
            planted[stratum] = (hits, n)
        overall, by_stratum = aggregate_accuracy(correct_by_qid, memberships,
                                                 DISJOINT_STRATA)
        for stratum, (hits, n) in planted.items():
            assert by_stratum[stratum] == (hits / n, n)
        weighted = sum(f * n for f, n in by_stratum.values())
        total = sum(n for _, n in by_stratum.values())
        assert abs(overall - weighted / total) < 1e-9


# -- criterion 8 ------------------------------------------------------------

RELAXED_CASES = [
    ("Paris", ("Paris",), "text", True),
    ("the Eiffel Tower", ("Eiffel Tower",), "text", True),
    ("EIFFEL TOWER!", ("eiffel tower",), "text", True),
    ("paris", ("London",), "text", False),
    ("a cat", ("cat", "feline"), "text", True),
    ("feline", ("cat", "feline"), "text", True),
    ("lion", ("cat", "feline"), "text", False),
    ("café", ("café",), "text", True),
    ("", ("x",), "text", False),
    ("100", ("100",), "numeric", True),
    ("105", ("100",), "numeric", True),          # relative error exactly 0.05
    ("105.00001", ("100",), "numeric", False),   # relative error 0.0500001
    ("95", ("100",), "numeric", True),
    ("94.999", ("100",), "numeric", False),
    ("about 102 km", ("100",), "numeric", True),
    ("-105", ("-100",), "numeric", True),
    ("-106", ("-100",), "numeric", False),
    ("0", ("0",), "numeric", True),
    ("0.001", ("0",), "numeric", False),
    ("3,000", ("3000",), "numeric", True),
    ("no digits here", ("100",), "numeric", False),
    ("15", ("10..20",), "numeric_range", True),
    ("10 units", ("10..20",), "numeric_range", True),
    ("20", ("10..20",), "numeric_range", True),
    ("20.5", ("10..20",), "numeric_range", False),
]


def test_criterion_08_relaxed_accuracy_cases():
    assert len(RELAXED_CASES) == 25
    for pred, golds, answer_type, expected in RELAXED_CASES:
        query = Query(query_id="c8", question="?", image_ref="c8.jpg",
                      gold_answers=golds, answer_type=answer_type)
        verdict = match_answer(pred, query, tolerance=0.05)
        assert verdict.correct is expected, (pred, golds, answer_type)


# -- criterion 9 ------------------------------------------------------------


class _StubState:
    def __init__(self):
        self.lock = threading.Lock()
        self.bodies: list[bytes] = []


def _stub_server(state: _StubState):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            with state.lock:
                state.bodies.append(body)
            slot = re.search(rb"slot-(\d+)", body).group(1).decode()
            try:
                if slot == "7":
                    time.sleep(1.2)  # longer than the client timeout
                payload = json.dumps({
                    "choices": [{"message": {"content": f"[stub answer {slot}]"}}]
                }).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
            except OSError:
                pass  # client gave up; nothing to answer

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def _elide_body(parsed: dict) -> dict:
    out = json.loads(json.dumps(parsed))
    for message in out["messages"]:
        for part in message["content"]:
            if part["type"] == "image":
                part["data"] = "<elided>"
            else:
                part["text"] = re.sub(r"slot-\d+", "slot-N", part["text"])
    return out


def test_criterion_09_http_backend_contract(goldens_dir):
    state = _StubState()
    server = _stub_server(state)
    try:
        config = EndpointConfig(
            base_url=f"http://127.0.0.1:{server.server_address[1]}",
            model="test-model", timeout_s=0.4,
        )
        backend = HttpBackend(config)
        reqs = [
            BackendRequest(
                messages=MessageSequence(parts=(
                    TextPart("Question: "),
                    ImagePart(f"https://img.example/slot{i}.png", "<image>"),
                    TextPart(f"\nslot-{i}: what is shown?"),
                )),
                query_id=f"q{i}", stage="param_gen", max_new_tokens=64,
            )
            for i in range(10)
        ]
        def generate(req):
            try:
                return backend.generate(req)
            except BackendError as exc:
                return exc

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=4) as pool:  # 4 calls in flight
            slots = list(pool.map(generate, reqs))
        elapsed = time.perf_counter() - started
    finally:
        server.shutdown()
        server.server_close()

    errors = [(i, s) for i, s in enumerate(slots) if isinstance(s, BackendError)]
    assert [i for i, _ in errors] == [7]
    assert "attempt 4/4" in str(errors[0][1])
    for i, slot in enumerate(slots):
        if i != 7:
            assert slot.text == f"[stub answer {i}]"

    # timeout at 0.4s x 4 attempts + 0.5/1/2s backoff = 5.1s dominates
    assert 5.1 * 0.8 <= elapsed <= 5.1 * 1.2, f"wall time {elapsed:.2f}s"

    with state.lock:
        bodies = list(state.bodies)
    retried = [b for b in bodies if b"slot-7:" in b]
    assert len(retried) == 4
    assert len(bodies) == 13
    golden = json.loads((goldens_dir / "http_body.golden.json").read_text())
    for body in bodies:
        assert _elide_body(json.loads(body)) == golden


# -- criterion 10 -----------------------------------------------------------


def test_criterion_10_end_to_end_smoke_under_ten_seconds(bundle, tmp_path):
    kb_flags = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    q_flag = ["--queries", str(bundle.queries_path)]
    d = {n: tmp_path / n for n in
         ("ingest", "index", "retrieve", "run", "probe", "prki", "vtki", "export", "score")}

    started = time.perf_counter()
    assert main(["ingest", *kb_flags, *q_flag, "--out-dir", str(d["ingest"])]) == 0
    assert main(["index", *kb_flags, "--kb-embeddings", str(bundle.kb_embeddings),
                 "--out-dir", str(d["index"])]) == 0
    assert main(["retrieve", *kb_flags, "--index", str(d["index"] / "index.npz"),
                 *q_flag, "--query-manifest", str(bundle.query_manifest),
                 "--query-embeddings", str(bundle.query_embeddings),
                 "--k", "5", "--out-dir", str(d["retrieve"])]) == 0
    retrievals = ["--retrievals", str(d["retrieve"] / "retrieval_results.jsonl")]
    backend = ["--mock-script", str(bundle.mock_script)]
    assert main(["run", "--variant", "core", "--core-mode", "staged", *kb_flags,
                 *q_flag, *retrievals, *backend, "--top-k", "5",
                 "--out-dir", str(d["run"])]) == 0
    assert main(["probe-unimodal", *kb_flags, *q_flag, *retrievals, *backend,
                 "--top-k", "5", "--out-dir", str(d["probe"])]) == 0
    traces = str(d["run"] / "traces.jsonl")
    assert main(["mine-prki", "--traces-int", traces, "--traces-ext", traces,
                 *q_flag, "--out-dir", str(d["prki"])]) == 0
    assert main(["mine-vtki", "--probe-traces", str(d["probe"] / "probe_traces.jsonl"),
                 *kb_flags, *q_flag, "--out-dir", str(d["vtki"])]) == 0
    assert main(["export-training", "--records", str(d["prki"] / "d_int.jsonl"),
                 str(d["prki"] / "d_ext.jsonl"), "--objective", "prki",
                 *kb_flags, *q_flag, "--out-dir", str(d["export"])]) == 0
    assert main(["score", "--traces", traces, *q_flag, *retrievals, *kb_flags,
                 "--out-dir", str(d["score"])]) == 0
    elapsed = time.perf_counter() - started

    assert (d["score"] / "report.json").exists()
    assert elapsed < 10.0, f"workflow took {elapsed:.2f}s"
