"""The benchmark's checkers accept the program's real outputs and reject
corrupted ones: a swapped hit, a reversed tie, a flipped flag, a record moved
to another bucket, an altered image byte.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import checkers
import layer_report
import stub_server
import workloads
from kbvqa.backend import BackendRequest, EndpointConfig, HttpBackend, request_body
from kbvqa.cli import main as kbvqa_main
from kbvqa.kb import ingest_kb, ingest_queries
from kbvqa.prompts import PromptContext, render


TINY = {
    "retrieve_100k": dataclasses.replace(workloads.SPECS["retrieve_100k"], entries=3000,
                                         dim=32, queries=12),
    "core_http": dataclasses.replace(workloads.SPECS["core_http"], entries=60, dim=16,
                                     queries=10, image_bytes=512),
    "offline_eval": dataclasses.replace(workloads.SPECS["offline_eval"], entries=400,
                                        queries=120),
}


def _read(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _write(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _kb_flags(f) -> list[str]:
    return ["--kb", str(f["kb"]), "--kb-manifest", str(f["kb_manifest"]), "--queries", str(f["queries"])]


# -- retrieval ------------------------------------------------------------


def test_brute_force_matches_a_plain_sort_and_breaks_ties_by_ordinal():
    rng = np.random.default_rng(5)
    kb = rng.standard_normal((50, 8)).astype(np.float32)
    kb /= np.linalg.norm(kb, axis=1, keepdims=True)
    kb[31] = kb[7]
    kb[44] = kb[7]
    queries = np.stack([kb[7], kb[3]])
    got = checkers.brute_force_topk(kb, queries, k=5, block=16)
    for j, q in enumerate(queries.astype(np.float64)):
        scores = [float(np.dot(row.astype(np.float64), q)) for row in kb]
        want = sorted(range(len(kb)), key=lambda i: (-round(scores[i], 12), i))[:5]
        assert [i for i, _ in got[j]] == want
    assert [i for i, _ in got[0][:3]] == [7, 31, 44]


@pytest.fixture(scope="module")
def retrieval_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("retrieve")
    inputs = workloads.generate("retrieve_100k", 3, root / "in", spec=TINY["retrieve_100k"])
    f = inputs.files
    kb = ["--kb", str(f["kb"]), "--kb-manifest", str(f["kb_manifest"])]
    assert kbvqa_main(["index", *kb, "--kb-embeddings", str(f["kb_embeddings"]),
                       "--out-dir", str(root / "index")]) == 0
    assert kbvqa_main(["retrieve", *kb, "--index", str(root / "index" / "index.npz"),
                       "--queries", str(f["queries"]), "--query-manifest", str(f["query_manifest"]),
                       "--query-embeddings", str(f["query_embeddings"]), "--k", "10",
                       "--out-dir", str(root / "retrieve")]) == 0
    return inputs, root / "retrieve" / "retrieval_results.jsonl"


def test_retrieval_checker_accepts_program_output(retrieval_run):
    inputs, path = retrieval_run
    assert checkers.check_retrieval(path, inputs.expected_topk, workloads.entry_id) == []


def test_planted_duplicates_put_ties_inside_the_top_k(retrieval_run):
    inputs, _ = retrieval_run
    tied = [qid for qid, hits in inputs.expected_topk.items()
            if any(a[1] == b[1] for a, b in zip(hits, hits[1:]))]
    assert len(tied) >= len(inputs.expected_topk) // 2


def test_retrieval_checker_rejects_swapped_hit(retrieval_run, tmp_path):
    inputs, path = retrieval_run
    rows = _read(path)
    hits = rows[0]["hits"]
    hits[0], hits[1] = hits[1], hits[0]
    _write(tmp_path / "r.jsonl", rows)
    assert checkers.check_retrieval(tmp_path / "r.jsonl", inputs.expected_topk, workloads.entry_id)


def test_retrieval_checker_rejects_reversed_tie(retrieval_run, tmp_path):
    inputs, path = retrieval_run
    rows = _read(path)
    for row in rows:
        hits = row["hits"]
        pair = next((i for i in range(len(hits) - 1) if hits[i]["score"] == hits[i + 1]["score"]), None)
        if pair is not None:
            hits[pair]["entry_id"], hits[pair + 1]["entry_id"] = (
                hits[pair + 1]["entry_id"], hits[pair]["entry_id"])
            break
    else:
        pytest.fail("no tie in the program's output")
    _write(tmp_path / "r.jsonl", rows)
    problems = checkers.check_retrieval(tmp_path / "r.jsonl", inputs.expected_topk, workloads.entry_id)
    assert len(problems) == 1


def test_retrieval_checker_rejects_score_drift(retrieval_run, tmp_path):
    inputs, path = retrieval_run
    rows = _read(path)
    rows[-1]["hits"][-1]["score"] += 2e-6
    _write(tmp_path / "r.jsonl", rows)
    assert checkers.check_retrieval(tmp_path / "r.jsonl", inputs.expected_topk, workloads.entry_id)


# -- offline_eval chain ---------------------------------------------------


@pytest.fixture(scope="module")
def offline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("offline")
    inputs = workloads.generate("offline_eval", 4, root / "in", spec=TINY["offline_eval"])
    f = inputs.files
    common = [*_kb_flags(f), "--mock-script", str(f["mock_script"]), "--workers", "1"]
    out = root / "out"
    core = str(out / "core" / "traces.jsonl")
    for argv in (
        ["run", "--variant", "core", *common, "--retrievals", str(f["retrievals"]),
         "--out-dir", str(out / "core")],
        ["run", "--variant", "oracle", *common, "--out-dir", str(out / "oracle")],
        ["probe-unimodal", *common, "--retrievals", str(f["retrievals"]), "--out-dir", str(out / "probe")],
        ["mine-prki", "--traces-int", core, "--traces-ext", core, "--queries", str(f["queries"]),
         "--out-dir", str(out / "prki")],
        ["mine-vtki", "--probe-traces", str(out / "probe" / "probe_traces.jsonl"), *_kb_flags(f),
         "--out-dir", str(out / "vtki")],
        ["export-training", "--records", str(out / "prki" / "d_int.jsonl"),
         str(out / "prki" / "d_ext.jsonl"), "--objective", "prki", *_kb_flags(f),
         "--out-dir", str(out / "export")],
        ["score", "--traces", core, "--retrievals", str(f["retrievals"]), *_kb_flags(f),
         "--out-dir", str(out / "score")],
    ):
        assert kbvqa_main(argv) == 0, argv
    return inputs, out


def _mining_paths(out: Path) -> dict[str, Path]:
    return {"d_int": out / "prki" / "d_int.jsonl", "d_ext": out / "prki" / "d_ext.jsonl",
            "d_v": out / "vtki" / "d_v.jsonl", "d_t": out / "vtki" / "d_t.jsonl"}


def test_pipeline_checkers_accept_program_output(offline_run):
    inputs, out = offline_run
    plan = inputs.plan
    assert checkers.check_core_traces(out / "core" / "traces.jsonl", plan) == ([], 0)
    assert checkers.check_oracle_traces(out / "oracle" / "traces.jsonl", plan) == ([], 0)
    assert checkers.check_probe_traces(out / "probe" / "probe_traces.jsonl", plan) == ([], 0)
    assert checkers.check_mining(_mining_paths(out), plan) == []
    assert checkers.check_export(out / "export" / "training_prki.jsonl", plan) == []
    assert checkers.check_score(out / "score" / "report.json", out / "score" / "verdicts.jsonl",
                                plan) == []


def test_plan_covers_every_bucket_and_category(offline_run):
    inputs, _ = offline_run
    buckets = checkers.expected_buckets(inputs.plan)
    assert all(buckets[b] for b in ("d_int", "d_ext", "d_v", "d_t"))
    assert {p["category"] for p in inputs.plan.values()} == set(workloads.PRKI_CATEGORIES)
    assert {p["answer_type"] for p in inputs.plan.values()} == {"text", "numeric"}


@pytest.mark.parametrize("name,check,field", [
    ("core/traces.jsonl", checkers.check_core_traces, "prki_flag"),
    ("probe/probe_traces.jsonl", checkers.check_probe_traces, "vtki_flag"),
])
def test_trace_checkers_reject_flipped_flag(offline_run, tmp_path, name, check, field):
    inputs, out = offline_run
    rows = _read(out / name)
    rows[3][field] = not rows[3][field]
    _write(tmp_path / "t.jsonl", rows)
    problems, _ = check(tmp_path / "t.jsonl", inputs.plan)
    assert len(problems) == 1 and field in problems[0]


def test_trace_checker_reports_a_failed_query(offline_run, tmp_path):
    inputs, out = offline_run
    rows = _read(out / "core" / "traces.jsonl")
    rows[5].update(failed=True, error="client error 429")
    _write(tmp_path / "t.jsonl", rows)
    problems, failed = checkers.check_core_traces(tmp_path / "t.jsonl", inputs.plan)
    assert failed == 1 and len(problems) == 1 and "client error 429" in problems[0]


def test_mining_checker_rejects_record_moved_to_another_bucket(offline_run, tmp_path):
    inputs, out = offline_run
    paths = _mining_paths(out)
    d_int, d_ext = _read(paths["d_int"]), _read(paths["d_ext"])
    moved = d_int.pop()
    moved["bucket"] = "d_ext"
    d_ext = sorted(d_ext + [moved], key=lambda r: r["query_id"])
    paths["d_int"], paths["d_ext"] = tmp_path / "d_int.jsonl", tmp_path / "d_ext.jsonl"
    _write(paths["d_int"], d_int)
    _write(paths["d_ext"], d_ext)
    assert len(checkers.check_mining(paths, inputs.plan)) == 2


def test_score_checker_rejects_wrong_verdict(offline_run, tmp_path):
    inputs, out = offline_run
    rows = _read(out / "score" / "verdicts.jsonl")
    rows[0]["correct"] = not rows[0]["correct"]
    _write(tmp_path / "v.jsonl", rows)
    assert checkers.check_score(out / "score" / "report.json", tmp_path / "v.jsonl", inputs.plan)


# -- stub endpoint --------------------------------------------------------


@pytest.fixture()
def core_inputs(tmp_path):
    inputs = workloads.generate("core_http", 6, tmp_path / "in", spec=TINY["core_http"])
    kb = ingest_kb(inputs.files["kb"], inputs.files["kb_manifest"])
    queries = ingest_queries(inputs.files["queries"])
    return inputs, kb, queries


def _select_request(inputs, kb, query) -> BackendRequest:
    entries = tuple(kb.by_id[e] for e in inputs.plan[query.query_id]["candidates"])
    seq = render("core", "core_select", PromptContext(query=query, entries=entries))
    return BackendRequest(messages=seq, query_id=query.query_id, stage="core_select")


def test_stub_answers_the_planned_reply(core_inputs):
    inputs, kb, queries = core_inputs
    plan = inputs.plan_json()
    body = request_body(EndpointConfig(base_url="http://stub"), _select_request(inputs, kb, queries[2]))
    qid, stage, reply = stub_server.answer(body, plan)
    assert (qid, stage) == (queries[2].query_id, "core_select")
    assert reply == inputs.plan[qid]["replies"]["core_select"]


def test_stub_rejects_altered_image_byte(core_inputs):
    inputs, kb, queries = core_inputs
    plan = inputs.plan_json()
    victim = Path(kb.by_id[inputs.plan[queries[2].query_id]["candidates"][3]].image_refs[0])
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0x01
    victim.write_bytes(bytes(data))
    body = request_body(EndpointConfig(base_url="http://stub"), _select_request(inputs, kb, queries[2]))
    with pytest.raises(stub_server.PlanError, match="digest"):
        stub_server.answer(body, plan)


def test_stub_rejects_image_of_another_entry(core_inputs):
    inputs, kb, queries = core_inputs
    plan = inputs.plan_json()
    req = _select_request(inputs, kb, queries[2])
    body = request_body(EndpointConfig(base_url="http://stub"), req)
    images = [p for p in body["messages"][0]["content"] if p["type"] == "image"]
    images[1]["data"], images[2]["data"] = images[2]["data"], images[1]["data"]
    with pytest.raises(stub_server.PlanError, match="plan expects"):
        stub_server.answer(body, plan)


def test_stub_over_http_counts_requests_and_reports_service_time(core_inputs):
    inputs, kb, queries = core_inputs
    server = stub_server.make_server(inputs.plan_json(), delay_s=0.005)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        backend = HttpBackend(EndpointConfig(base_url=f"http://127.0.0.1:{server.server_address[1]}"))
        req = _select_request(inputs, kb, queries[1])
        resp = backend.generate(req)
        assert resp.text == inputs.plan[queries[1].query_id]["replies"]["core_select"]
        assert json.loads(resp.raw)["service_ms"] >= 5.0
        stats = server.stats.snapshot_and_reset()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert stats["requests"] == 1 and stats["errors"] == [] and stats["in_flight_max"] == 1
    assert stats["stages"] == {queries[1].query_id: ["core_select"]}


# -- per-layer report -----------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    assert layer_report.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4)
    spans = [[1, "cli.main", 0.0, 10.0, None, None, None],
             [2, "pipeline.run_many", 1.0, 9.0, 1, None, {"n": 4}],
             [3, "prompts.render", 2.0, 4.0, 2, "q1", None],
             [4, "backend.generate", 3.0, 6.0, 2, "q1", None]]
    m = layer_report.round_metrics([{"import_s": 0.5, "spans": spans}], 4, 4000, None)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["pipeline.self_s"] == pytest.approx(4.0)
    assert m["pipeline.self_ms_per_query"] == pytest.approx(1000.0)
    assert m["pipeline.trace_kb_per_query"] == pytest.approx(1.0)
    assert m["cli.import_s"] == 0.5


def test_same_seed_gives_identical_inputs(tmp_path):
    a = workloads.generate("offline_eval", 9, tmp_path / "a", spec=TINY["offline_eval"])
    b = workloads.generate("offline_eval", 9, tmp_path / "b", spec=TINY["offline_eval"])
    for role, path in a.files.items():
        assert path.read_bytes() == b.files[role].read_bytes(), role

