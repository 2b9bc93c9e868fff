"""Command-line entry point for the whole workflow.

Subcommands cover ingest through reporting. Every flag can also be supplied
through a JSON config file (--config, key = flag name with underscores);
precedence is CLI flag, then config file, then built-in default, and the
resolved configuration is written to the output directory as
run_config.json so a run can be reproduced from its artifacts alone.

Exit codes: 0 success, 1 a run finished but some queries failed, 2
configuration or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import zipfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .backend import DEFAULT_MAX_IN_FLIGHT, EndpointConfig, HttpBackend, MockBackend
from .errors import IngestError, KbvqaError
from .kb import (
    KnowledgeBase, export_kb, export_queries, ingest_kb, ingest_queries, load_embeddings,
    load_manifest,
)
from .metrics import (
    PluginScorer,
    compare_runs,
    read_report_json,
    score_run,
    write_deltas_csv,
    write_report_csv,
    write_report_json,
    write_verdicts,
)
from .mining import export_training, mine_prki, mine_vtki, read_records, write_records
from .pipeline import PipelineRunner, has_failures, needs_retrieval, read_traces, write_traces
from .retrieval import FlatIndex, build_index, read_results, recall_at_k, search_batch, write_results

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

RUN_VARIANTS = ("param", "oracle", "one_stage", "two_stage", "mmstar", "core")
SWEEP_VARIANTS = ("one_stage", "two_stage", "mmstar", "core")


# -- config plumbing ------------------------------------------------------


def _load_config_file(path: str) -> dict:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot load config file {p}: {exc}") from exc
    if not isinstance(raw, dict):
        raise IngestError(f"config file {p} must hold a JSON object")
    return raw


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge CLI values over config-file values over built-in defaults."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise IngestError(f"config file has unknown keys: {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg.get(key) in (None, ""):
            raise IngestError(f"missing required --{key.replace('_', '-')} (or config key {key!r})")


def _out_dir(cfg: dict) -> Path:
    _require(cfg, "out_dir")
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_config(out: Path, command: str, cfg: dict) -> None:
    payload = {"command": command}
    for key in sorted(cfg):
        payload[key] = cfg[key]
    (out / "run_config.json").write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def _max_in_flight(cfg: dict) -> int:
    max_in_flight = int(cfg["max_in_flight"])
    if max_in_flight <= 0:
        raise IngestError(f"--max-in-flight must be positive, got {max_in_flight}")
    return max_in_flight


def _workers(cfg: dict) -> int:
    """Query worker threads: --max-in-flight, or fewer if --workers asks.

    A worker has at most one backend call in flight, so this is also the
    number of concurrent calls.
    """
    workers = cfg.get("workers")
    if workers is None:
        return _max_in_flight(cfg)
    if workers <= 0:
        raise IngestError(f"--workers must be positive, got {workers}")
    return min(int(workers), _max_in_flight(cfg))


def _load_kb(cfg: dict, with_embeddings: bool) -> KnowledgeBase:
    _require(cfg, "kb", "kb_manifest")
    kb = ingest_kb(cfg["kb"], cfg["kb_manifest"])
    if with_embeddings:
        _require(cfg, "kb_embeddings")
        kb.attach_embeddings(load_embeddings(cfg["kb_manifest"], cfg["kb_embeddings"]))
    return kb


def _url_map(kb: KnowledgeBase) -> dict[str, str]:
    return {entry.entry_id: entry.url for entry in kb.entries}


def _backend(cfg: dict):
    mock = cfg.get("mock_script")
    endpoint = cfg.get("endpoint_config")
    if bool(mock) == bool(endpoint):
        raise IngestError("exactly one of --mock-script and --endpoint-config is required")
    if mock:
        return MockBackend.from_script_file(mock)
    return HttpBackend(EndpointConfig.from_json_file(endpoint), max_in_flight=_max_in_flight(cfg))


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise IngestError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not values:
        raise IngestError(f"{flag} is empty")
    return values


def _trace_summary(traces) -> str:
    failed = sum(1 for t in traces if t.failed)
    prki = sum(1 for t in traces if t.prki_flag is True)
    vtki = sum(1 for t in traces if t.vtki_flag is True)
    return f"{len(traces)} traces, {failed} failed, prki_true={prki}, vtki_true={vtki}"


# -- subcommands ----------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "kb": None, "kb_manifest": None, "queries": None, "out_dir": None,
    })
    _require(cfg, "queries")
    kb = _load_kb(cfg, with_embeddings=False)
    queries = ingest_queries(cfg["queries"])
    out = _out_dir(cfg)
    export_kb(kb, out / "entries_normalized.jsonl")
    export_queries(queries, out / "queries_normalized.jsonl")
    splits: dict[str, int] = {}
    for q in queries:
        splits[q.split_tag] = splits.get(q.split_tag, 0) + 1
    summary = {
        "entries": len(kb),
        "queries": len(queries),
        "splits": dict(sorted(splits.items())),
    }
    (out / "ingest_summary.json").write_text(
        json.dumps(summary, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    _write_run_config(out, "ingest", cfg)
    print(f"ingested {len(kb)} entries, {len(queries)} queries -> {out}")
    return EXIT_OK


# index.npz member holding the sha256 of each file the index was built from.
INDEX_DIGESTS = {
    "kb": "kb_sha256", "kb_manifest": "kb_manifest_sha256", "kb_embeddings": "kb_embeddings_sha256",
}
_HASH_CHUNK = 1 << 20
# What np.load and reading an .npz member raise for a file that is not an
# intact pickle-free index: truncation, a CRC mismatch, a missing or pickled
# member, or a member of the wrong shape.
_UNREADABLE = (KeyError, TypeError, ValueError, zipfile.BadZipFile, EOFError)


def _sha256(path: str) -> str:
    """Hex sha256 of a file, read a chunk at a time (hashlib.file_digest needs 3.11)."""
    digest = hashlib.sha256()
    buf = bytearray(_HASH_CHUNK)
    view = memoryview(buf)
    try:
        with open(path, "rb") as fh:
            while n := fh.readinto(buf):
                digest.update(view[:n])
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return digest.hexdigest()


def _pack_strings(strings: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """Strings as one UTF-8 uint8 blob plus int64 offsets; string i is blob[off[i]:off[i+1]]."""
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in encoded], out=offsets[1:])
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), offsets


def _unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Inverse of _pack_strings; ValueError when the offsets do not split the blob."""
    if (blob.dtype != np.uint8 or blob.ndim != 1 or offsets.ndim != 1 or offsets.size == 0
            or offsets[0] != 0 or offsets[-1] != blob.size or np.any(np.diff(offsets) < 0)):
        raise ValueError("url_offsets do not split url_blob")
    data = blob.tobytes()
    bounds = offsets.tolist()
    return [data[start:end].decode("utf-8") for start, end in zip(bounds, bounds[1:])]


def cmd_index(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "kb": None, "kb_manifest": None, "kb_embeddings": None, "out_dir": None,
    })
    _require(cfg, "kb", "kb_manifest", "kb_embeddings")
    # Hashed before they are read: a file that changes while `index` runs
    # then fails the check in `retrieve --index` instead of passing it.
    digests = {member: np.array(_sha256(cfg[key])) for key, member in INDEX_DIGESTS.items()}
    kb = _load_kb(cfg, with_embeddings=True)
    index = build_index(kb)
    url_blob, url_offsets = _pack_strings(e.url for e in kb.entries)
    out = _out_dir(cfg)
    path = out / "index.npz"
    # Written beside the target and renamed over it, so an interrupted run
    # never leaves a partial index.npz.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            np.savez(
                fh,
                entry_ids=np.array(index.entry_ids, dtype=np.str_),
                dim=np.int64(index.matrix.shape[1]),
                matrix=index.matrix,
                url_blob=url_blob,
                url_offsets=url_offsets,
                **digests,
            )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _write_run_config(out, "index", cfg)
    print(f"indexed {len(index)} entries (dim {index.dim}) -> {path}")
    return EXIT_OK


def _load_index(cfg: dict) -> tuple[FlatIndex, list[str]]:
    """The index at --index and its entry URLs, without parsing --kb.

    `kbvqa index` stores the sha256 of --kb, --kb-manifest and
    --kb-embeddings. They must equal the digests of the files given here
    (--kb-embeddings only when it is given), so the index belongs to the
    exact bytes of this KB. Its own ids, URLs and matrix are then trusted as
    written by `kbvqa index`; the zip CRC-32 of each member, checked as it is
    read, catches accidental corruption.
    """
    _require(cfg, "kb", "kb_manifest")
    path = Path(cfg["index"])
    dim = int(load_manifest(cfg["kb_manifest"])["dim"])

    def stale(reason: str) -> IngestError:
        return IngestError(
            f"index {path} does not match --kb {cfg['kb']}: {reason}; rebuild it with `kbvqa index`"
        )

    try:
        fh = path.open("rb")
    except OSError as exc:
        raise IngestError(f"cannot load index {path}: {exc}") from exc
    # Opened here, not by np.load, which leaks its file when a zip fails to open.
    with fh:
        try:
            bundle = np.load(fh, allow_pickle=False)
        except _UNREADABLE as exc:
            raise stale(f"it is not a readable index ({exc})") from exc
        if not isinstance(bundle, np.lib.npyio.NpzFile):
            raise stale("it is not an .npz index")
        try:
            with bundle:
                for key, member in INDEX_DIGESTS.items():
                    if not cfg.get(key):
                        continue
                    flag = "--" + key.replace("_", "-")
                    if member not in bundle.files:
                        raise stale(f"it holds no sha256 of {flag} (an index from an older kbvqa)")
                    if bundle[member].item() != _sha256(cfg[key]):
                        raise stale(f"{flag} {cfg[key]} is not the file it was built from")
                entry_ids = bundle["entry_ids"].tolist()
                index_dim = int(bundle["dim"])
                matrix = bundle["matrix"]
                urls = _unpack_strings(bundle["url_blob"], bundle["url_offsets"])
        except _UNREADABLE as exc:
            raise stale(f"it is not an intact pickle-free index ({exc})") from exc
    if index_dim != dim or matrix.shape != (len(entry_ids), dim) or len(urls) != len(entry_ids):
        raise stale("its entry count or dimension differ")
    return FlatIndex(entry_ids, matrix), urls


def cmd_retrieve(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "kb": None, "kb_manifest": None, "kb_embeddings": None, "index": None,
        "queries": None, "query_manifest": None, "query_embeddings": None,
        "k": 10, "no_url_dedup": False, "out_dir": None,
    })
    _require(cfg, "queries", "query_manifest", "query_embeddings")
    if cfg.get("index"):
        index, urls = _load_index(cfg)
    else:
        kb = _load_kb(cfg, with_embeddings=True)
        index, urls = build_index(kb), [entry.url for entry in kb.entries]
    queries = ingest_queries(cfg["queries"])
    qemb = load_embeddings(cfg["query_manifest"], cfg["query_embeddings"])
    vectors = []
    for q in queries:
        row = q.query_embedding_row
        if row is None:
            raise IngestError(f"query {q.query_id!r} has no query_embedding_row")
        if row >= qemb.count:
            raise IngestError(
                f"query {q.query_id!r} embedding row {row} out of range ({qemb.count} rows)"
            )
        vectors.append(qemb.data[row])
    k = int(cfg["k"])
    results = search_batch(index, vectors, [q.query_id for q in queries], k)
    out = _out_dir(cfg)
    write_results(results, out / "retrieval_results.jsonl")
    _write_run_config(out, "retrieve", cfg)

    dedup = not cfg["no_url_dedup"]
    if all(q.gold_entry_url for q in queries):
        url_map = dict(zip(index.entry_ids, urls))
        parts = []
        for kk in (1, 2, 5, 10):
            if kk <= k:
                parts.append(f"Recall@{kk} {recall_at_k(results, queries, kk, url_map, dedup=dedup):.3f}")
        print("  ".join(parts))
    else:
        missing = sum(1 for q in queries if not q.gold_entry_url)
        print(f"recall skipped ({missing} queries lack gold_entry_url)")
    print(f"wrote {out / 'retrieval_results.jsonl'} ({len(results)} results)")
    return EXIT_OK


def _run_defaults() -> dict:
    return {
        "kb": None, "kb_manifest": None, "queries": None, "retrievals": None,
        "mock_script": None, "endpoint_config": None, "max_in_flight": DEFAULT_MAX_IN_FLIGHT,
        "top_k": 5, "char_budget": 2000, "workers": None,
        "no_transcripts": False, "out_dir": None,
    }


def cmd_run(args: argparse.Namespace) -> int:
    defaults = _run_defaults()
    defaults.update({"variant": None, "core_mode": "staged"})
    cfg = _resolve(args, defaults)
    _require(cfg, "queries", "variant")
    return _run_variant(cfg, cfg["variant"], "run", "traces.jsonl")


def cmd_probe_unimodal(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _run_defaults())
    _require(cfg, "queries", "retrievals")
    return _run_variant(cfg, "probe", "probe-unimodal", "probe_traces.jsonl")


def _run_variant(cfg: dict, variant: str, command: str, traces_name: str) -> int:
    kb = _load_kb(cfg, with_embeddings=False)
    queries = ingest_queries(cfg["queries"])
    backend = _backend(cfg)
    runner = PipelineRunner(
        kb, backend, top_k=int(cfg["top_k"]), char_budget=int(cfg["char_budget"]),
        core_mode=cfg.get("core_mode", "staged"),
    )
    results = None
    if needs_retrieval(variant):
        _require(cfg, "retrievals")
        results = {r.query_id: r for r in read_results(cfg["retrievals"])}
    traces = runner.run_many(variant, queries, results, workers=_workers(cfg))
    out = _out_dir(cfg)
    write_traces(traces, out / traces_name, include_transcripts=not cfg["no_transcripts"])
    _write_run_config(out, command, cfg)
    print(f"wrote {out / traces_name} ({_trace_summary(traces)})")
    return EXIT_PARTIAL if has_failures(traces) else EXIT_OK


def cmd_mine_prki(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "traces_int": None, "traces_ext": None, "queries": None,
        "tolerance": 0.05, "out_dir": None,
    })
    _require(cfg, "traces_int", "traces_ext", "queries")
    queries = ingest_queries(cfg["queries"])
    mining = mine_prki(
        read_traces(cfg["traces_int"]), read_traces(cfg["traces_ext"]),
        queries, tolerance=float(cfg["tolerance"]),
    )
    out = _out_dir(cfg)
    write_records(mining.d_int, out / "d_int.jsonl")
    write_records(mining.d_ext, out / "d_ext.jsonl")
    (out / "mining_summary.json").write_text(
        json.dumps(mining.counters, indent=2) + "\n", encoding="utf-8"
    )
    _write_run_config(out, "mine-prki", cfg)
    print("mined " + ", ".join(f"{k}={v}" for k, v in mining.counters.items()))
    return EXIT_OK


def cmd_mine_vtki(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "probe_traces": None, "kb": None, "kb_manifest": None, "queries": None,
        "out_dir": None,
    })
    _require(cfg, "probe_traces", "queries")
    kb = _load_kb(cfg, with_embeddings=False)
    queries = ingest_queries(cfg["queries"])
    mining = mine_vtki(read_traces(cfg["probe_traces"]), queries, _url_map(kb))
    out = _out_dir(cfg)
    write_records(mining.d_v, out / "d_v.jsonl")
    write_records(mining.d_t, out / "d_t.jsonl")
    (out / "mining_summary.json").write_text(
        json.dumps(mining.counters, indent=2) + "\n", encoding="utf-8"
    )
    _write_run_config(out, "mine-vtki", cfg)
    print("mined " + ", ".join(f"{k}={v}" for k, v in mining.counters.items()))
    return EXIT_OK


def cmd_export_training(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "records": None, "objective": None, "kb": None, "kb_manifest": None,
        "queries": None, "char_budget": 2000, "sample": None, "seed": 0,
        "out_dir": None,
    })
    _require(cfg, "records", "objective", "queries")
    kb = _load_kb(cfg, with_embeddings=False)
    queries = ingest_queries(cfg["queries"])
    record_paths = cfg["records"]
    if isinstance(record_paths, str):
        record_paths = [record_paths]
    records = []
    for path in record_paths:
        records.extend(read_records(path))
    out = _out_dir(cfg)
    out_path = out / f"training_{cfg['objective']}.jsonl"
    count = export_training(
        records, cfg["objective"], out_path, kb, queries,
        char_budget=int(cfg["char_budget"]),
        sample=None if cfg["sample"] is None else int(cfg["sample"]),
        seed=int(cfg["seed"]),
    )
    _write_run_config(out, "export-training", cfg)
    print(f"wrote {out_path} ({count} records)")
    return EXIT_OK


def _score_defaults() -> dict:
    return {
        "traces": None, "queries": None, "retrievals": None,
        "kb": None, "kb_manifest": None, "ks": "1,2,5,10", "tolerance": 0.05,
        "stratum_mode": "disjoint", "no_url_dedup": False, "plugin": None,
        "out_dir": None,
    }


def _score(cfg: dict):
    _require(cfg, "traces", "queries", "retrievals")
    kb = _load_kb(cfg, with_embeddings=False)
    queries = ingest_queries(cfg["queries"])
    traces = read_traces(cfg["traces"])
    results = read_results(cfg["retrievals"])
    plugin = PluginScorer(cfg["plugin"]) if cfg.get("plugin") else None
    scored = score_run(
        traces, queries, results, _url_map(kb),
        ks=_parse_int_list(cfg["ks"], "--ks"),
        tolerance=float(cfg["tolerance"]),
        dedup=not cfg["no_url_dedup"],
        stratum_mode=cfg["stratum_mode"],
        plugin=plugin,
    )
    return scored, queries


def _print_report(scored) -> None:
    report = scored.report
    recall = "  ".join(f"Recall@{k} {v:.3f}" for k, v in report.recall.items())
    print(recall)
    print(f"accuracy_overall {report.accuracy_overall:.4f} (n={report.total})")


def cmd_score(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _score_defaults())
    scored, _queries = _score(cfg)
    out = _out_dir(cfg)
    write_report_json(scored.report, out / "report.json")
    write_verdicts(scored.verdicts, out / "verdicts.jsonl")
    _write_run_config(out, "score", cfg)
    _print_report(scored)
    print(f"wrote {out / 'report.json'}, {out / 'verdicts.jsonl'}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    defaults = _score_defaults()
    defaults["compare_to"] = None
    cfg = _resolve(args, defaults)
    scored, queries = _score(cfg)
    out = _out_dir(cfg)
    write_report_json(scored.report, out / "report.json")
    write_report_csv(scored, queries, out / "report.csv")
    written = [str(out / "report.json"), str(out / "report.csv")]
    if cfg.get("compare_to"):
        baseline = read_report_json(cfg["compare_to"])
        rows = compare_runs(baseline, scored.report)
        write_deltas_csv(rows, out / "deltas.csv")
        written.append(str(out / "deltas.csv"))
    _write_run_config(out, "report", cfg)
    _print_report(scored)
    print("wrote " + ", ".join(written))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    defaults = _run_defaults()
    defaults.update({
        "variant": "core", "core_mode": "staged", "top_m": "1,2,5",
        "ks": "1,2,5,10", "tolerance": 0.05, "stratum_mode": "disjoint",
        "no_url_dedup": False,
    })
    del defaults["top_k"]
    cfg = _resolve(args, defaults)
    _require(cfg, "queries", "retrievals")
    kb = _load_kb(cfg, with_embeddings=False)
    queries = ingest_queries(cfg["queries"])
    backend = _backend(cfg)
    results_list = read_results(cfg["retrievals"])
    results = {r.query_id: r for r in results_list}
    out = _out_dir(cfg)
    url_map = _url_map(kb)

    top_ms = _parse_int_list(cfg["top_m"], "--top-m")
    rows = []
    any_failed = False
    baseline = None
    for m in top_ms:
        runner = PipelineRunner(
            kb, backend, top_k=m, char_budget=int(cfg["char_budget"]),
            core_mode=cfg["core_mode"],
        )
        traces = runner.run_many(
            cfg["variant"], queries, results, workers=_workers(cfg),
        )
        any_failed = any_failed or has_failures(traces)
        write_traces(traces, out / f"traces_top{m}.jsonl",
                     include_transcripts=not cfg["no_transcripts"])
        scored = score_run(
            traces, queries, results_list, url_map,
            ks=_parse_int_list(cfg["ks"], "--ks"),
            tolerance=float(cfg["tolerance"]),
            dedup=not cfg["no_url_dedup"],
            stratum_mode=cfg["stratum_mode"],
        )
        write_report_json(scored.report, out / f"report_top{m}.json")
        if baseline is None:
            baseline = scored.report
        overall = scored.report.accuracy_overall
        failed = sum(1 for t in traces if t.failed)
        rows.append((m, failed, overall, overall - baseline.accuracy_overall))
        print(f"top_m={m}: accuracy_overall {overall:.4f}, {failed} failed")
    with (out / "sweep.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("top_m,failed,accuracy_overall_pct,delta_vs_first_pct\n")
        for m, failed, overall, delta in rows:
            fh.write(f"{m},{failed},{100.0 * overall:.1f},{100.0 * delta:+.1f}\n")
    _write_run_config(out, "sweep", cfg)
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_PARTIAL if any_failed else EXIT_OK


# -- parser ---------------------------------------------------------------


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; keys are flag names (CLI flags win)")


def _add_kb_flags(p: argparse.ArgumentParser, embeddings: bool = False) -> None:
    p.add_argument("--kb", help="knowledge entries JSONL")
    p.add_argument("--kb-manifest", help="embedding manifest JSON for the entries")
    if embeddings:
        p.add_argument("--kb-embeddings", help="entry embedding matrix (raw little-endian float32)")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", help="directory for all outputs (created if missing)")


def _add_backend_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mock-script", help="scripted mock backend JSONL keyed by (query_id, stage)")
    p.add_argument("--endpoint-config", help="HTTP backend endpoint config JSON")
    p.add_argument("--max-in-flight", type=int,
                   help=f"max concurrent backend calls (default: {DEFAULT_MAX_IN_FLIGHT})")


def _add_run_shared_flags(p: argparse.ArgumentParser) -> None:
    _add_kb_flags(p)
    p.add_argument("--queries", help="queries JSONL")
    p.add_argument("--retrievals", help="retrieval results JSONL from the retrieve step")
    _add_backend_flags(p)
    p.add_argument("--char-budget", type=int,
                   help="per-entry content truncation budget in characters (default: 2000)")
    p.add_argument("--workers", type=int,
                   help="worker threads (default and maximum: --max-in-flight)")
    p.add_argument("--no-transcripts", action="store_true", default=None,
                   help="omit per-stage transcripts from trace output")
    _add_out_flag(p)
    _add_config_flag(p)


def _add_score_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--traces", help="trace JSONL from a run")
    p.add_argument("--queries", help="queries JSONL")
    p.add_argument("--retrievals", help="retrieval results JSONL")
    _add_kb_flags(p)
    p.add_argument("--ks", help="comma-separated recall cutoffs (default: 1,2,5,10)")
    p.add_argument("--tolerance", type=float,
                   help="relative tolerance for numeric answers (default: 0.05)")
    p.add_argument("--stratum-mode", choices=["disjoint", "cumulative"],
                   help="gold-rank stratum buckets (default: disjoint)")
    p.add_argument("--no-url-dedup", action="store_true", default=None,
                   help="rank duplicate entry URLs separately instead of collapsing them")
    p.add_argument("--plugin", help="external answer-equivalence scorer command")
    _add_out_flag(p)
    _add_config_flag(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbvqa",
        description="Knowledge-based VQA: retrieval, prompting pipelines, "
                    "inconsistency mining, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("ingest", help="validate and normalize KB entries and queries")
    _add_kb_flags(p)
    p.add_argument("--queries", help="queries JSONL")
    _add_out_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="build and save the flat retrieval index")
    _add_kb_flags(p, embeddings=True)
    _add_out_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="run top-k retrieval for all queries")
    _add_kb_flags(p, embeddings=True)
    p.add_argument("--index", help="saved index.npz from `kbvqa index`; its sha256 digests must "
                                   "match --kb, --kb-manifest and --kb-embeddings if given")
    p.add_argument("--queries", help="queries JSONL")
    p.add_argument("--query-manifest", help="embedding manifest JSON for the queries")
    p.add_argument("--query-embeddings", help="query embedding matrix (raw little-endian float32)")
    p.add_argument("--k", type=int, help="hits to keep per query (default: 10)")
    p.add_argument("--no-url-dedup", action="store_true", default=None,
                   help="rank duplicate entry URLs separately instead of collapsing them")
    _add_out_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("run", help="execute one pipeline variant over all queries")
    p.add_argument("--variant", choices=list(RUN_VARIANTS), help="pipeline variant to run")
    p.add_argument("--core-mode", choices=["staged", "single"],
                   help="core execution mode (default: staged)")
    p.add_argument("--top-k", type=int,
                   help="retrieved entries per prompt, 1..5 (default: 5)")
    _add_run_shared_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("probe-unimodal",
                       help="run image-only and text-only entry selection probes")
    p.add_argument("--top-k", type=int,
                   help="retrieved entries per prompt, 1..5 (default: 5)")
    _add_run_shared_flags(p)
    p.set_defaults(func=cmd_probe_unimodal)

    p = sub.add_parser("mine-prki",
                       help="mine answer-inconsistency training buckets (d_int, d_ext)")
    p.add_argument("--traces-int", help="traces supplying the parametric answer")
    p.add_argument("--traces-ext", help="traces supplying the retrieval-grounded answer")
    p.add_argument("--queries", help="queries JSONL")
    p.add_argument("--tolerance", type=float,
                   help="relative tolerance for numeric answers (default: 0.05)")
    _add_out_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_mine_prki)

    p = sub.add_parser("mine-vtki",
                       help="mine selection-inconsistency training buckets (d_v, d_t)")
    p.add_argument("--probe-traces", help="probe traces JSONL")
    _add_kb_flags(p)
    p.add_argument("--queries", help="queries JSONL")
    _add_out_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_mine_vtki)

    p = sub.add_parser("export-training",
                       help="render mined records into training JSONL for one objective")
    p.add_argument("--records", nargs="+", help="mined record JSONL file(s)")
    p.add_argument("--objective", choices=["prki", "vtki", "sft"],
                   help="training objective to export")
    _add_kb_flags(p)
    p.add_argument("--queries", help="queries JSONL")
    p.add_argument("--char-budget", type=int,
                   help="per-entry content truncation budget in characters (default: 2000)")
    p.add_argument("--sample", type=int, help="cap the export to a seeded random sample")
    p.add_argument("--seed", type=int, help="sampling seed (default: 0)")
    _add_out_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_export_training)

    p = sub.add_parser("score", help="score a run: verdicts plus metric report")
    _add_score_shared_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="write report tables, optionally against a baseline")
    p.add_argument("--compare-to", help="baseline report.json to diff against")
    _add_score_shared_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="run and score one variant at several top-m values")
    p.add_argument("--top-m", help="comma-separated top-m values (default: 1,2,5)")
    p.add_argument("--variant", choices=list(SWEEP_VARIANTS),
                   help="pipeline variant to sweep (default: core)")
    p.add_argument("--core-mode", choices=["staged", "single"],
                   help="core execution mode (default: staged)")
    p.add_argument("--ks", help="comma-separated recall cutoffs (default: 1,2,5,10)")
    p.add_argument("--tolerance", type=float,
                   help="relative tolerance for numeric answers (default: 0.05)")
    p.add_argument("--stratum-mode", choices=["disjoint", "cumulative"],
                   help="gold-rank stratum buckets (default: disjoint)")
    p.add_argument("--no-url-dedup", action="store_true", default=None,
                   help="rank duplicate entry URLs separately instead of collapsing them")
    _add_run_shared_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KbvqaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
