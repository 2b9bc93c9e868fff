"""Whole-chain output goldens: every file the CLI writes over the standard
fixture bundle, compared byte for byte with tests/goldens/chain/.

The chain runs ingest, retrieve, run for every variant and core mode,
probe-unimodal, mine-prki, mine-vtki, export-training for each objective,
score, score again against the first score's report.json (the report step),
a two-value sweep and one core staged run over HTTP against
http_stub.LocalServer. The chain's ingest writes the KB catalog beside the
fixture's entries, so every later command reads the KB through it; the
chain runs once more with the catalog deleted after ingest, and must write
the same bytes. Two things are masked before comparing: the path
values in run_config.json, which name the temporary input and output
directories, and latency_ms on the HTTP run. Each transcript's
prompt_sha256 is also checked against its prompt rendered again from the
KB, the query, the trace and run_config.json.

After a deliberate change to an output format, rewrite the goldens with

    PYTHONPATH=src python tests/test_chain_goldens.py

and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest

import fixture_gen
from http_stub import LocalServer
from kbvqa.cli import main
from kbvqa.kb import catalog_path, ingest_kb, ingest_queries
from kbvqa.prompts import STAGE_TABLE, PromptContext, Stage, render

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens" / "chain"
HTTP_STEP = "run_http_core_staged"
_LATENCY = re.compile(rb'"latency_ms": [^,}]+')
# Every trace file the chain writes with transcripts: all variants, both core
# modes, the probe and the HTTP run. The sweep writes none.
TRACE_FILES = (
    *(f"run_{v}/traces.jsonl" for v in ("param", "oracle", "one_stage", "two_stage", "mmstar",
                                        "core_staged", "core_single")),
    "probe/probe_traces.jsonl", f"{HTTP_STEP}/traces.jsonl",
)


def run_chain(bundle: fixture_gen.FixtureBundle, out: Path, catalog: bool = True) -> None:
    """Every command of the chain, each writing into its own directory of out.

    Without catalog, the KB catalog that ingest writes is deleted before the
    next command, so every command parses the whole KB.
    """
    kb = ["--kb", str(bundle.entries_path), "--kb-manifest", str(bundle.kb_manifest)]
    q = ["--queries", str(bundle.queries_path)]
    r = ["--retrievals", str(out / "retrieve" / "retrieval_results.jsonl")]
    mock = ["--mock-script", str(bundle.mock_script)]

    def cli(step: str, *argv: str, exit_code: int = 0) -> None:
        assert main([*argv, "--out-dir", str(out / step)]) == exit_code, step

    cli("ingest", "ingest", *kb, *q)
    if not catalog:
        catalog_path(bundle.entries_path).unlink()
    cli("retrieve", "retrieve", *kb, "--kb-embeddings", str(bundle.kb_embeddings), *q,
        "--query-manifest", str(bundle.query_manifest),
        "--query-embeddings", str(bundle.query_embeddings), "--k", "10")
    for variant in ("param", "oracle", "one_stage", "two_stage", "mmstar"):
        cli(f"run_{variant}", "run", "--variant", variant, *kb, *q, *r, *mock)
    for mode in ("staged", "single"):
        cli(f"run_core_{mode}", "run", "--variant", "core", "--core-mode", mode,
            *kb, *q, *r, *mock)
    cli("probe", "probe-unimodal", *kb, *q, *r, *mock)
    cli("mine_prki", "mine-prki", "--traces-int", str(out / "run_param" / "traces.jsonl"),
        "--traces-ext", str(out / "run_one_stage" / "traces.jsonl"), *q)
    cli("mine_vtki", "mine-vtki", "--probe-traces", str(out / "probe" / "probe_traces.jsonl"),
        *kb, *q)
    for objective, step in (("prki", "mine_prki"), ("vtki", "mine_vtki"), ("sft", "mine_vtki")):
        buckets = ("d_int", "d_ext") if step == "mine_prki" else ("d_v", "d_t")
        cli(f"export_{objective}", "export-training", "--objective", objective,
            "--records", *(str(out / step / f"{b}.jsonl") for b in buckets), *kb, *q)
    traces = ["--traces", str(out / "run_core_staged" / "traces.jsonl")]
    cli("score", "score", *traces, *q, *r, *kb)
    cli("report", "score", *traces, *q, *r, *kb,
        "--compare-to", str(out / "score" / "report.json"))
    # At top-m 2, core_select fails for the queries whose planted letter is
    # C..E, so the sweep exits 1 and its traces hold failed queries.
    cli("sweep", "sweep", "--top-m", "2,5", "--variant", "core", *kb, *q, *r, *mock,
        "--no-transcripts", exit_code=1)

    endpoint = out / "endpoint.json"
    with LocalServer(reply=fixture_gen.core_staged_reply(bundle)) as server:
        endpoint.write_text(json.dumps({"base_url": server.url, "model": "m"}), encoding="utf-8")
        cli(HTTP_STEP, "run", "--variant", "core", "--core-mode", "staged", *kb, *q, *r,
            "--endpoint-config", str(endpoint))
    endpoint.unlink()


def chain_outputs(bundle: fixture_gen.FixtureBundle, out: Path,
                  catalog: bool = True) -> dict[str, bytes]:
    """Run the chain into out; every file it wrote by relative path, masked."""
    run_chain(bundle, out, catalog)
    assert catalog_path(bundle.entries_path).exists() == catalog
    # Longest root first, so a root inside another is replaced whole.
    roots = sorted({(str(out), "OUT"), (str(bundle.root), "FIXTURE")},
                   key=lambda pair: -len(pair[0]))
    files = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(out).as_posix()
        data = path.read_bytes()
        if path.name == "run_config.json":
            for root, label in roots:
                data = data.replace(root.encode(), label.encode())
        if rel.startswith(HTTP_STEP + "/"):
            data = _LATENCY.sub(b'"latency_ms": "masked"', data)
        files[rel] = data
    return files


def first_difference(golden: bytes, actual: bytes) -> str:
    """The first line that differs, with a window of each side around its first differing column."""
    g_lines = golden.decode("utf-8").splitlines()
    a_lines = actual.decode("utf-8").splitlines()
    for number, (g, a) in enumerate(zip(g_lines, a_lines), 1):
        if g != a:
            col = next((i for i, (x, y) in enumerate(zip(g, a)) if x != y), min(len(g), len(a)))
            lo = max(0, col - 60)
            return (f"line {number}, column {col + 1}: golden {g[lo:col + 60]!r} "
                    f"!= output {a[lo:col + 60]!r}")
    if len(g_lines) != len(a_lines):
        return f"golden has {len(g_lines)} lines, output {len(a_lines)}"
    return "line endings differ"


def _golden_files() -> list[str]:
    return sorted(p.relative_to(GOLDEN_DIR).as_posix()
                  for p in GOLDEN_DIR.rglob("*") if p.is_file())


@pytest.fixture(scope="module")
def outputs(bundle, tmp_path_factory) -> dict[str, bytes]:
    return chain_outputs(bundle, tmp_path_factory.mktemp("chain"))


def test_chain_writes_exactly_the_golden_files(outputs):
    assert sorted(outputs) == _golden_files()


@pytest.mark.parametrize("rel", _golden_files())
def test_output_matches_golden(outputs, rel):
    assert rel in outputs, f"{rel}: not written by the chain"
    golden = (GOLDEN_DIR / rel).read_bytes()
    if outputs[rel] != golden:
        pytest.fail(f"{rel}: {first_difference(golden, outputs[rel])}", pytrace=False)


def test_chain_without_the_kb_catalog_writes_the_golden_files(bundle, tmp_path):
    outputs = chain_outputs(bundle, tmp_path / "chain", catalog=False)
    assert sorted(outputs) == _golden_files()
    for rel, data in outputs.items():
        golden = (GOLDEN_DIR / rel).read_bytes()
        assert data == golden, f"{rel}: {first_difference(golden, data)}"


def prompt_context(trace: dict, stages: tuple[Stage, ...], stage: Stage, kb, query,
                   char_budget: int) -> PromptContext:
    """The context a transcript's prompt was rendered from, rebuilt from the KB,
    the query, the trace's entry ids, selection and answers, and the run's
    char_budget."""
    entries = tuple(kb.by_id[entry_id] for entry_id in trace["context_entry_ids"])
    selected = None
    if stage.context == "gold":
        selected = entries[0]
    elif stage.context in ("selected", "reconcile"):
        letter = next(s for s in stages if s.parse == "letter")
        selected = entries[trace[letter.fields[0]]]
    reconcile = stage.context == "reconcile"
    return PromptContext(
        query=query, entries=entries if stage.context == "entries" else (),
        selected_entry=selected, step1_answer=trace["y_int"] if reconcile else None,
        step3_answer=trace["y_ext"] if reconcile else None, char_budget=char_budget,
    )


@pytest.fixture(scope="module")
def kb_and_queries(bundle):
    queries = {q.query_id: q for q in ingest_queries(bundle.queries_path)}
    return ingest_kb(bundle.entries_path, bundle.kb_manifest), queries


@pytest.mark.parametrize("rel", TRACE_FILES)
def test_each_digest_names_the_prompt_render_rebuilds(outputs, kb_and_queries, rel):
    """prompt_sha256 is the sha256 of the prompt's JSON parts, as a trace line
    held them before it named prompts by digest."""
    kb, queries = kb_and_queries
    char_budget = json.loads(outputs[rel.split("/")[0] + "/run_config.json"])["char_budget"]
    checked = 0
    for line in outputs[rel].decode("utf-8").splitlines():
        trace = json.loads(line)
        stages = STAGE_TABLE[(trace["variant"], trace["mode"])]
        by_token = {s.token: s for s in stages}
        for transcript in trace["transcripts"]:
            stage = by_token[transcript["stage"]]
            ctx = prompt_context(trace, stages, stage, kb, queries[trace["query_id"]], char_budget)
            parts = render(trace["variant"], stage.token, ctx).to_json_parts()
            expected = hashlib.sha256(json.dumps(parts, ensure_ascii=False).encode()).hexdigest()
            assert transcript["prompt_sha256"] == expected, (trace["query_id"], stage.token)
            checked += 1
    assert checked >= len(queries)


def write_goldens() -> None:
    """Replace tests/goldens/chain with the outputs of a fresh chain run."""
    with tempfile.TemporaryDirectory() as tmp:
        bundle = fixture_gen.build_fixture(Path(tmp) / "fixture")
        outputs = chain_outputs(bundle, Path(tmp) / "chain")
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    for rel, data in outputs.items():
        path = GOLDEN_DIR / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    print(f"wrote {len(outputs)} goldens under {GOLDEN_DIR}")


if __name__ == "__main__":
    write_goldens()
