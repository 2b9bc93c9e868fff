"""Command-line entry point for the whole workflow.

Subcommands cover ingest through reporting. Every flag can also be supplied
through a JSON config file (--config, key = flag name with underscores);
config values get the same type and choices checks as the flags.
Precedence is CLI flag, then config file, then built-in default, and the
resolved configuration is written to the output directory as
run_config.json so a run can be reproduced from its artifacts alone. Each
flag's default, help line and config key are declared once, in FLAGS;
COMMANDS says which flags each subcommand takes and which it requires.

Exit codes: 0 success, 1 a run finished but some queries failed, 2
configuration or input errors.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from pathlib import Path
from types import FunctionType

from .errors import IngestError, KbvqaError
from .kb import (
    KnowledgeBase, catalog_path, export_kb, export_queries, ingest_kb, ingest_queries,
    load_embeddings, load_manifest, write_catalog,
)
from .records import atomic_write, load_json, write_csv, write_json
from .retrieval import (
    DEFAULT_RECALL_KS, DEFAULT_TOP_K, FlatIndex, build_index, read_results, search_batch,
    write_results,
)
# Bound under the name the traced benchmark (perfbench/traced_cli.py) times
# as its retrieval.recall span.
from .retrieval import recall_at_ks as recall_at_k

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

# The commands that load numpy, and the variables that size a BLAS
# library's thread pool when numpy first loads it. main gives each variable
# the environment does not set the value 1 for these commands: each GEMM of
# `retrieve`'s one pass over the index, one block of entries against the
# queries, is too short to pay for starting threads, and other threads only
# spin beside it. Results are the same for any thread count.
NUMPY_COMMANDS = ("index", "retrieve")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The names this module takes from the modules that only some commands run,
# by module. `ingest`, `index` and `retrieve` load none of these modules. A
# handler binds its modules' names with _bind before it runs, and reading a
# name as an attribute of kbvqa.cli binds it too (PEP 562). A bound name is
# never bound again, so one replaced on this module is the one its handler
# calls.
_LAZY = {
    "backend": ("DEFAULT_HTTP_WORKERS", "EndpointConfig", "HttpBackend", "MockBackend"),
    "metrics": (
        "DEFAULT_TOLERANCE", "STRATUM_MODES", "PluginScorer", "compare_runs", "read_report_json",
        "score_run", "write_deltas_csv", "write_report_csv", "write_report_json",
        "write_verdicts",
    ),
    "mining": ("OBJECTIVE_TABLE", "export_training", "mine_prki", "mine_vtki", "read_records",
               "write_records"),
    "pipeline": ("CORE_MODES", "MAX_TOP_K", "PipelineRunner", "has_failures", "needs_retrieval",
                 "read_traces", "write_traces"),
    "prompts": ("DEFAULT_CHAR_BUDGET", "STAGE_TABLE"),
}


def _bind(*modules: str) -> None:
    for module in modules:
        imported = importlib.import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(imported, name))


def _bound(name: str):
    """A name of _LAZY, its module bound on first use."""
    if name not in globals():
        module = next((m for m, names in _LAZY.items() if name in names), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        _bind(module)
    return globals()[name]


__getattr__ = _bound


def _run_variants() -> tuple[str, ...]:
    """In table order, the variants that answer (set y_final): `run` takes these."""
    return tuple(dict.fromkeys(
        variant for (variant, _mode), stages in _bound("STAGE_TABLE").items()
        if any("y_final" in stage.fields for stage in stages)
    ))


def _sweep_variants() -> tuple[str, ...]:
    """Those of _run_variants whose prompts hold the retrieved entries: `sweep` takes these."""
    return tuple(variant for variant in _run_variants() if _bound("needs_retrieval")(variant))


# -- flags ----------------------------------------------------------------

# One row per flag: its argparse keywords and its built-in `default`. The
# parser hands argparse default=None, so _resolve can tell a flag that was
# given from one that was not, and ends the help line with " (default: X)"
# unless the default is None or the flag is a switch. A value that is a
# function is one read from a module of _LAZY: it is called when a parser
# with the flag is built, so a command loads only its own flags' modules.
FLAGS: dict[str, dict] = {
    "kb": {"help": "knowledge entries JSONL"},
    "kb_manifest": {"help": "embedding manifest JSON for the entries"},
    "kb_embeddings": {"help": "entry embedding matrix (raw little-endian float32)"},
    "index": {"help": "index.npz from `kbvqa index`; --kb, --kb-manifest and the embedding file "
                      "(--kb-embeddings, else the one it records) must match its sha256 digests"},
    "queries": {"help": "queries JSONL"},
    "query_manifest": {"help": "embedding manifest JSON for the queries"},
    "query_embeddings": {"help": "query embedding matrix (raw little-endian float32)"},
    "k": {"type": int, "default": 10, "help": "hits to keep per query"},
    "retrievals": {"help": "retrieval results JSONL from the retrieve step"},
    "variant": {"choices": _run_variants, "help": "pipeline variant to run"},
    "core_mode": {"choices": lambda: _bound("CORE_MODES"), "default": "staged",
                  "help": "core execution mode"},
    "top_k": {"type": int, "default": DEFAULT_TOP_K, "help": "retrieved entries per prompt, 1..5"},
    "top_m": {"default": "1,2,5", "help": "comma-separated top-m values"},
    "mock_script": {"help": "scripted mock backend JSONL keyed by (query_id, stage)"},
    "endpoint_config": {"help": "HTTP backend endpoint config JSON"},
    "char_budget": {"type": int, "default": lambda: _bound("DEFAULT_CHAR_BUDGET"),
                    "help": "per-entry content truncation budget in characters"},
    "workers": {"type": int, "help": lambda: "query threads, each with at most one backend "
                "call in flight (default: 1 with --mock-script, "
                f"{_bound('DEFAULT_HTTP_WORKERS')} with --endpoint-config)"},
    "no_transcripts": {"action": "store_true", "default": False,
                       "help": "omit per-stage transcripts from trace output"},
    "traces": {"help": "trace JSONL from a run"},
    "traces_int": {"help": "traces supplying the parametric answer"},
    "traces_ext": {"help": "traces supplying the retrieval-grounded answer"},
    "probe_traces": {"help": "probe traces JSONL"},
    "records": {"nargs": "+", "help": "mined record JSONL file(s)"},
    "objective": {"choices": lambda: tuple(_bound("OBJECTIVE_TABLE")),
                  "help": "training objective to export"},
    "sample": {"type": int, "help": "cap the export to a seeded random sample"},
    "seed": {"type": int, "default": 0, "help": "sampling seed"},
    "ks": {"default": ",".join(map(str, DEFAULT_RECALL_KS)),
           "help": "comma-separated recall cutoffs"},
    "tolerance": {"type": float, "default": lambda: _bound("DEFAULT_TOLERANCE"),
                  "help": "relative tolerance for numeric answers"},
    "stratum_mode": {"choices": lambda: _bound("STRATUM_MODES"), "default": "disjoint",
                     "help": "gold-rank stratum buckets"},
    "no_url_dedup": {"action": "store_true", "default": False,
                     "help": "rank duplicate entry URLs separately instead of collapsing them"},
    "plugin": {"help": "external answer-equivalence scorer command"},
    "compare_to": {"help": "baseline report.json to diff against in deltas.csv"},
    "out_dir": {"help": "directory for all outputs (created if missing)"},
    "config": {"help": "JSON config file; keys are flag names (CLI flags win)"},
}


# -- config plumbing ------------------------------------------------------


def _load_config_file(path: str) -> dict:
    p = Path(path)
    raw, _ = load_json(p, "config file", IngestError)
    if not isinstance(raw, dict):
        raise IngestError(f"config file {p} must hold a JSON object")
    return raw


def _check_config_value(key: str, value, row: dict) -> None:
    """Give a config-file value the type and choices checks argparse gives the flag."""
    kind = row.get("type", str)
    if row.get("action") == "store_true":
        want, ok = "true or false", isinstance(value, bool)
    elif row.get("nargs"):
        want = "a string or a non-empty list of strings"
        ok = isinstance(value, str) or (
            isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value))
    else:
        want = {int: "an integer", float: "a number", str: "a string"}[kind]
        ok = not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)
    if ok and "choices" in row:
        want, ok = "one of " + ", ".join(row["choices"]), value in row["choices"]
    if not ok:
        raise IngestError(f"config key {key!r} must be {want}, got {json.dumps(value)}")


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI values over config-file values over the defaults in the command's rows."""
    rows = args.flag_rows
    file_cfg = {}
    if args.config:
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(rows)
        if unknown:
            raise IngestError(f"config file has unknown keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_config_value(key, value, rows[key])
    resolved = {}
    for key, row in rows.items():
        cli_value = getattr(args, key)
        resolved[key] = cli_value if cli_value is not None else file_cfg.get(key, row.get("default"))
    return resolved


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg.get(key) in (None, ""):
            raise IngestError(f"missing required --{key.replace('_', '-')} (or config key {key!r})")


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_config(out: Path, command: str, cfg: dict) -> None:
    write_json(out / "run_config.json", {"command": command, **dict(sorted(cfg.items()))})


def _workers(cfg: dict) -> int:
    """Query worker threads: --workers, else 1 on the mock backend and
    DEFAULT_HTTP_WORKERS over HTTP.

    A worker has at most one backend call in flight, so this is also the
    number of concurrent calls and the bound on idle HTTP connections.
    """
    workers = cfg.get("workers")
    if workers is None:
        return 1 if cfg.get("mock_script") else DEFAULT_HTTP_WORKERS
    if workers <= 0:
        raise IngestError(f"--workers must be positive, got {workers}")
    return workers


def _load_kb(cfg: dict, use_catalog: bool = True) -> KnowledgeBase:
    return ingest_kb(cfg["kb"], cfg["kb_manifest"], use_catalog=use_catalog)


def _backend(cfg: dict):
    mock = cfg.get("mock_script")
    endpoint = cfg.get("endpoint_config")
    if bool(mock) == bool(endpoint):
        raise IngestError("exactly one of --mock-script and --endpoint-config is required")
    if mock:
        return MockBackend.from_script_file(mock)
    return HttpBackend(EndpointConfig.from_json_file(endpoint), None, _workers(cfg))


def _parse_int_list(text: str, flag: str, high: int | None = None) -> tuple[int, ...]:
    """Comma-separated integers, each at least 1 and at most high."""
    try:
        values = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise IngestError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not values:
        raise IngestError(f"{flag} is empty")
    if any(v < 1 or (high is not None and v > high) for v in values):
        allowed = "positive" if high is None else f"within 1..{high}"
        raise IngestError(f"{flag} values must be {allowed}, got {text!r}")
    return values


def _trace_summary(traces) -> str:
    failed = sum(1 for t in traces if t.failed)
    prki = sum(1 for t in traces if t.prki_flag is True)
    vtki = sum(1 for t in traces if t.vtki_flag is True)
    return f"{len(traces)} traces, {failed} failed, prki_true={prki}, vtki_true={vtki}"


# -- subcommands ----------------------------------------------------------


def cmd_ingest(cfg: dict) -> int:
    # Every line is parsed and checked, catalog or not: this is what the
    # catalog written below vouches for.
    kb = _load_kb(cfg, use_catalog=False)
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
    write_json(out / "ingest_summary.json", summary)
    try:
        write_catalog(kb, cfg["kb"])
    except OSError as exc:
        print(f"warning: cannot write the KB catalog {catalog_path(cfg['kb'])}: "
              f"{exc.strerror or exc}; later commands parse the whole KB", file=sys.stderr)
    print(f"ingested {len(kb)} entries, {len(queries)} queries -> {out}")
    return EXIT_OK


# index.npz holds, as one string each, the sha256 of every file `kbvqa index`
# checked, by the flag that named it, the resolved path of the embedding
# file in INDEX_PATH, and in INDEX_IDENTITY the stat identity its bytes were
# hashed under, or "" when the file was not settled (records.FileDigest).
# An index without INDEX_IDENTITY is read as one with "".
INDEX_DIGESTS = {
    "kb": "kb_sha256", "kb_manifest": "kb_manifest_sha256", "kb_embeddings": "kb_embeddings_sha256",
}
INDEX_PATH = "kb_embeddings"
INDEX_IDENTITY = "kb_embeddings_identity"


def cmd_index(cfg: dict) -> int:
    import numpy as np

    kb = _load_kb(cfg)
    matrix = load_embeddings(kb.manifest, cfg["kb_embeddings"])
    index = build_index(kb, matrix)  # rejects an entry without an embedding row
    # The sha256 of the bytes ingest_kb and load_embeddings read and checked:
    # a file that changes while `index` runs then fails `retrieve --index`.
    members = {INDEX_DIGESTS["kb"]: kb.sha256, INDEX_DIGESTS["kb_manifest"]: kb.manifest_sha256,
               INDEX_DIGESTS["kb_embeddings"]: matrix.sha256,
               INDEX_PATH: str(Path(cfg["kb_embeddings"]).resolve()),
               INDEX_IDENTITY: matrix.identity or ""}
    out = _out_dir(cfg)
    path = out / "index.npz"
    with atomic_write(path) as fh:
        np.savez(fh, **{name: np.array(value) for name, value in members.items()})
    print(f"indexed {len(index)} entries (dim {index.dim}) -> {path}")
    return EXIT_OK


def _stale(cfg: dict, reason: str) -> IngestError:
    return IngestError(f"index {cfg['index']} does not match --kb {cfg['kb']}: {reason}; "
                       "rebuild it with `kbvqa index`")


def _load_index(cfg: dict) -> dict[str, str]:
    """The members of the index at --index: one string each, read without pickle."""
    import zipfile

    import numpy as np

    # What np.load and reading an .npz member raise for a file that is not an
    # intact pickle-free index: truncation, a CRC mismatch or a pickled member.
    unreadable = (KeyError, TypeError, ValueError, zipfile.BadZipFile, EOFError)
    path = Path(cfg["index"])
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise IngestError(f"cannot load index {path}: {exc}") from exc
    # Opened here, not by np.load, which leaks its file when a zip fails to open.
    with fh:
        try:
            bundle = np.load(fh, allow_pickle=False)
        except unreadable as exc:
            raise _stale(cfg, f"it is not a readable index ({exc})") from exc
        if not isinstance(bundle, np.lib.npyio.NpzFile):
            raise _stale(cfg, "it is not an .npz index")
        with bundle:
            members = {INDEX_IDENTITY: ""}
            for key, name in (*INDEX_DIGESTS.items(), ("kb_embeddings", INDEX_PATH),
                              (None, INDEX_IDENTITY)):
                if name not in bundle.files:
                    if key is None:  # optional: without it the embedding file is hashed
                        continue
                    what = "path" if name == INDEX_PATH else "sha256"
                    raise _stale(cfg, f"it holds no {what} of --{key.replace('_', '-')} "
                                      "(an index from an older kbvqa)")
                try:
                    member = bundle[name]
                except unreadable as exc:
                    raise _stale(cfg, f"it is not an intact pickle-free index ({exc})") from exc
                if member.shape != () or member.dtype.kind != "U":
                    raise _stale(cfg, f"its {name} is not one string")
                members[name] = member.item()
    return members


def _retrieval_index(cfg: dict, query_dim: int) -> tuple[FlatIndex, list[str]]:
    """The index over --kb and its entry URLs, built the same way with or without --index.

    With --index, the embedding file is --kb-embeddings, else the one the
    index records, and the digests of --kb, --kb-manifest and that file must
    equal the index's. Bytes with the recorded digest passed load_embeddings'
    row checks in `kbvqa index`, so they are not checked again, nor hashed
    while the file's identity is the one the index records. Without --index
    the embedding file is not hashed. --kb-manifest's dim must be the
    queries', query_dim, before the matrix is loaded. The KB itself is
    dropped on return: the search needs only the index and the URLs.
    """
    recorded = _load_index(cfg) if cfg.get("index") else {}
    embeddings = cfg.get("kb_embeddings") or recorded[INDEX_PATH]
    if not cfg.get("kb_embeddings") and not Path(embeddings).is_file():
        raise IngestError(f"index {cfg['index']} was built from --kb-embeddings {embeddings}, "
                          "which is not there; pass --kb-embeddings with where it is now")

    def check(key: str, digest: str, path: str) -> None:
        if recorded and recorded[INDEX_DIGESTS[key]] != digest:
            raise _stale(cfg, f"--{key.replace('_', '-')} {path} is not the file it was built from")

    kb = _load_kb(cfg)
    check("kb", kb.sha256, cfg["kb"])
    check("kb_manifest", kb.manifest_sha256, cfg["kb_manifest"])
    if kb.manifest.dim != query_dim:
        raise IngestError(f"--query-manifest {cfg['query_manifest']} has dim {query_dim}, but "
                          f"--kb-manifest {cfg['kb_manifest']} has dim {kb.manifest.dim}")
    matrix = load_embeddings(kb.manifest, embeddings, recorded.get(INDEX_DIGESTS["kb_embeddings"]),
                             recorded.get(INDEX_IDENTITY), digest=False)
    check("kb_embeddings", matrix.sha256, embeddings)
    return build_index(kb, matrix), kb.urls


def cmd_retrieve(cfg: dict) -> int:
    if not cfg["index"]:
        _require(cfg, "kb_embeddings")
    query_manifest = load_manifest(cfg["query_manifest"])
    index, urls = _retrieval_index(cfg, query_manifest.dim)
    queries = ingest_queries(cfg["queries"])
    qemb = load_embeddings(query_manifest, cfg["query_embeddings"], digest=False)
    vectors = []
    for q in queries:
        row = q.query_embedding_row
        if row is None:
            raise IngestError(f"query {q.query_id!r} has no query_embedding_row")
        if row >= query_manifest.count:
            raise IngestError(f"query {q.query_id!r} embedding row {row} out of range "
                              f"({query_manifest.count} rows)")
        vectors.append(qemb.data[row])
    k = cfg["k"]
    results = search_batch(index, vectors, [q.query_id for q in queries], k)
    out = _out_dir(cfg)
    write_results(results, out / "retrieval_results.jsonl")

    dedup = not cfg["no_url_dedup"]
    if not queries:
        print("recall skipped (no queries)")
    elif all(q.gold_entry_url for q in queries):
        # Recall looks up the URLs of the hits alone.
        hit_ids = dict.fromkeys(eid for result in results for eid in result.entry_ids())
        url_map = {eid: url for eid, url in zip(index.entry_ids, urls) if eid in hit_ids}
        recall = recall_at_k(results, queries, [kk for kk in DEFAULT_RECALL_KS if kk <= k],
                             url_map, dedup=dedup)
        print("  ".join(f"Recall@{kk} {value:.3f}" for kk, value in recall.items()))
    else:
        missing = sum(1 for q in queries if not q.gold_entry_url)
        print(f"recall skipped ({missing} queries lack gold_entry_url)")
    print(f"wrote {out / 'retrieval_results.jsonl'} ({len(results)} results)")
    return EXIT_OK


def cmd_run(cfg: dict) -> int:
    _bind("backend", "pipeline")
    if needs_retrieval(cfg["variant"]):
        _require(cfg, "retrievals")
    return _run_variant(cfg, cfg["variant"], "traces.jsonl")


def cmd_probe_unimodal(cfg: dict) -> int:
    _bind("backend", "pipeline")
    return _run_variant(cfg, "probe", "probe_traces.jsonl")


def _run_variant(cfg: dict, variant: str, traces_name: str) -> int:
    backend = _backend(cfg)
    kb = _load_kb(cfg)
    queries = ingest_queries(cfg["queries"])
    runner = PipelineRunner(
        kb, backend, top_k=cfg["top_k"], char_budget=cfg["char_budget"],
        core_mode=cfg.get("core_mode", FLAGS["core_mode"]["default"]),
    )
    results = None
    if needs_retrieval(variant):
        results = {r.query_id: r for r in read_results(cfg["retrievals"])}
    traces = runner.run_many(variant, queries, results, workers=_workers(cfg))
    out = _out_dir(cfg)
    write_traces(traces, out / traces_name, include_transcripts=not cfg["no_transcripts"])
    print(f"wrote {out / traces_name} ({_trace_summary(traces)})")
    return EXIT_PARTIAL if has_failures(traces) else EXIT_OK


def cmd_mine_prki(cfg: dict) -> int:
    _bind("pipeline", "mining")
    tolerance = _tolerance(cfg)
    queries = ingest_queries(cfg["queries"])
    traces_int = read_traces(cfg["traces_int"])
    # Core staged traces hold both answers, so one file may be named by both flags: read it once.
    same = Path(cfg["traces_int"]).resolve() == Path(cfg["traces_ext"]).resolve()
    traces_ext = traces_int if same else read_traces(cfg["traces_ext"])
    mining = mine_prki(traces_int, traces_ext, queries, tolerance=tolerance)
    return _write_mining(cfg, mining, OBJECTIVE_TABLE["prki"].buckets)


def cmd_mine_vtki(cfg: dict) -> int:
    _bind("pipeline", "mining")
    kb = _load_kb(cfg)
    queries = ingest_queries(cfg["queries"])
    traces = read_traces(cfg["probe_traces"], kb.by_id)
    mining = mine_vtki(traces, queries, kb.url_map())
    return _write_mining(cfg, mining, OBJECTIVE_TABLE["vtki"].buckets)


def _write_mining(cfg: dict, mining, buckets: tuple[str, ...]) -> int:
    out = _out_dir(cfg)
    for bucket in buckets:
        write_records(getattr(mining, bucket), out / f"{bucket}.jsonl")
    write_json(out / "mining_summary.json", mining.counters)
    print("mined " + ", ".join(f"{k}={v}" for k, v in mining.counters.items()))
    return EXIT_OK


def cmd_export_training(cfg: dict) -> int:
    _bind("mining")
    if cfg["char_budget"] <= 0:
        raise IngestError(f"--char-budget must be positive, got {cfg['char_budget']}")
    kb = _load_kb(cfg)
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
        char_budget=cfg["char_budget"], sample=cfg["sample"], seed=cfg["seed"],
    )
    print(f"wrote {out_path} ({count} records)")
    return EXIT_OK


def _tolerance(cfg: dict) -> float:
    """--tolerance, which a command checks before it reads an input."""
    tolerance = float(cfg["tolerance"])
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise IngestError(f"--tolerance must be finite and non-negative, got {tolerance}")
    return tolerance


def _score_options(cfg: dict) -> dict:
    """score_run's keyword arguments from --ks, --tolerance, --no-url-dedup and --stratum-mode."""
    return {
        "ks": _parse_int_list(cfg["ks"], "--ks"), "tolerance": _tolerance(cfg),
        "dedup": not cfg["no_url_dedup"], "stratum_mode": cfg["stratum_mode"],
    }


def cmd_score(cfg: dict) -> int:
    _bind("pipeline", "metrics")
    options = _score_options(cfg)
    # A bad baseline, or one over other queries, stops the command before it writes.
    baseline = read_report_json(cfg["compare_to"]) if cfg["compare_to"] else None
    kb = _load_kb(cfg)
    queries = ingest_queries(cfg["queries"])
    traces = read_traces(cfg["traces"])
    results = read_results(cfg["retrievals"])
    plugin = PluginScorer(cfg["plugin"]) if cfg["plugin"] else None
    scored = score_run(traces, queries, results, kb.url_map(), plugin=plugin, **options)
    rows = None if baseline is None else compare_runs(baseline, scored.report)
    out = _out_dir(cfg)
    write_report_json(scored.report, out / "report.json")
    write_verdicts(scored.verdicts, out / "verdicts.jsonl")
    write_report_csv(scored, queries, out / "report.csv")
    if rows is not None:
        write_deltas_csv(rows, out / "deltas.csv")
    report = scored.report
    print("  ".join(f"Recall@{k} {v:.3f}" for k, v in report.recall.items()))
    print(f"accuracy_overall {report.accuracy_overall:.4f} (n={report.total})")
    print(f"wrote report.json, verdicts.jsonl, report.csv{'' if rows is None else ', deltas.csv'} "
          f"in {out}")
    return EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    _bind("backend", "pipeline", "metrics")
    top_ms = _parse_int_list(cfg["top_m"], "--top-m", high=MAX_TOP_K)
    if len(set(top_ms)) < len(top_ms):
        raise IngestError(f"--top-m values must be distinct, got {cfg['top_m']!r}")
    options = _score_options(cfg)
    backend = _backend(cfg)
    kb = _load_kb(cfg)
    queries = ingest_queries(cfg["queries"])
    results_list = read_results(cfg["retrievals"])
    results = {r.query_id: r for r in results_list}
    runners = [PipelineRunner(kb, backend, top_k=m, char_budget=cfg["char_budget"],
                              core_mode=cfg["core_mode"]) for m in top_ms]
    out = _out_dir(cfg)
    url_map = kb.url_map()

    rows = []
    any_failed = False
    for m, runner in zip(top_ms, runners):
        traces = runner.run_many(cfg["variant"], queries, results, workers=_workers(cfg))
        any_failed = any_failed or has_failures(traces)
        write_traces(traces, out / f"traces_top{m}.jsonl",
                     include_transcripts=not cfg["no_transcripts"])
        scored = score_run(traces, queries, results_list, url_map, **options)
        write_report_json(scored.report, out / f"report_top{m}.json")
        overall = scored.report.accuracy_overall
        failed = sum(1 for t in traces if t.failed)
        rows.append((m, failed, overall))
        print(f"top_m={m}: accuracy_overall {overall:.4f}, {failed} failed")
    first = rows[0][2]
    write_csv(out / "sweep.csv", ["top_m", "failed", "accuracy_overall_pct", "delta_vs_first_pct"],
              ([m, failed, f"{100.0 * overall:.1f}", f"{100.0 * (overall - first):+.1f}"]
               for m, failed, overall in rows), lineterminator="\n")
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_PARTIAL if any_failed else EXIT_OK


# -- parser ---------------------------------------------------------------


# Flags shared by several subcommands, in help order. A (name, overrides)
# entry changes a flag's row for one subcommand.
_KB = ("kb", "kb_manifest")
_RUN_SHARED = (
    *_KB, "queries", "retrievals", "mock_script", "endpoint_config", "char_budget", "workers",
    "no_transcripts", "out_dir",
)

# Subcommand -> (handler, help line, flags in help order, the flags it
# requires). Every subcommand also takes --config, listed last.
COMMANDS = {
    "ingest": (cmd_ingest, "validate and normalize KB entries and queries",
               (*_KB, "queries", "out_dir"), (*_KB, "queries", "out_dir")),
    "index": (cmd_index, "build and save the flat retrieval index",
              (*_KB, "kb_embeddings", "out_dir"), (*_KB, "kb_embeddings", "out_dir")),
    "retrieve": (cmd_retrieve, "run top-k retrieval for all queries", (
        *_KB, "kb_embeddings", "index", "queries", "query_manifest", "query_embeddings",
        "k", "no_url_dedup", "out_dir",
    ), (*_KB, "queries", "query_manifest", "query_embeddings", "out_dir")),
    "run": (cmd_run, "execute one pipeline variant over all queries",
            ("variant", "core_mode", "top_k", *_RUN_SHARED),
            ("variant", *_KB, "queries", "out_dir")),
    "probe-unimodal": (cmd_probe_unimodal, "run image-only and text-only entry selection probes",
                       ("top_k", *_RUN_SHARED), (*_KB, "queries", "retrievals", "out_dir")),
    "mine-prki": (cmd_mine_prki, "mine answer-inconsistency training buckets (d_int, d_ext)",
                  ("traces_int", "traces_ext", "queries", "tolerance", "out_dir"),
                  ("traces_int", "traces_ext", "queries", "out_dir")),
    "mine-vtki": (cmd_mine_vtki, "mine selection-inconsistency training buckets (d_v, d_t)",
                  ("probe_traces", *_KB, "queries", "out_dir"),
                  ("probe_traces", *_KB, "queries", "out_dir")),
    "export-training": (
        cmd_export_training, "render mined records into training JSONL for one objective",
        ("records", "objective", *_KB, "queries", "char_budget", "sample", "seed", "out_dir"),
        ("records", "objective", *_KB, "queries", "out_dir"),
    ),
    "score": (cmd_score, "score a run: verdicts, metric report and tables, optionally "
                         "against a baseline", (
        "traces", "queries", ("retrievals", {"help": "retrieval results JSONL"}), *_KB,
        "ks", "tolerance", "stratum_mode", "no_url_dedup", "plugin", "compare_to", "out_dir",
    ), ("traces", "queries", "retrievals", *_KB, "out_dir")),
    "sweep": (cmd_sweep, "run and score one variant at several top-m values", (
        "top_m",
        ("variant", {"choices": _sweep_variants, "default": "core",
                     "help": "pipeline variant to sweep"}),
        "core_mode", "ks", "tolerance", "stratum_mode", "no_url_dedup", *_RUN_SHARED,
    ), (*_KB, "queries", "retrievals", "out_dir")),
}


def _add_flag(p: argparse.ArgumentParser, name: str, row: dict) -> None:
    kwargs = {key: value for key, value in row.items() if key != "default"}
    if row.get("default") is not None and row.get("action") != "store_true":
        kwargs["help"] += f" (default: {row['default']})"
    p.add_argument("--" + name.replace("_", "-"), **kwargs, default=None)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command alone."""
    parser = argparse.ArgumentParser(
        prog="kbvqa",
        description="Knowledge-based VQA: retrieval, prompting pipelines, "
                    "inconsistency mining, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_handler, help_line, entries, _required) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_line)
        rows = {}
        for entry in entries:
            flag, overrides = entry if isinstance(entry, tuple) else (entry, {})
            rows[flag] = {key: value() if isinstance(value, FunctionType) else value
                          for key, value in {**FLAGS[flag], **overrides}.items()}
            _add_flag(p, flag, rows[flag])
        _add_flag(p, "config", FLAGS["config"])
        # _resolve reads each flag's default and config check from these rows.
        p.set_defaults(flag_rows=rows)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: resolve its configuration, check every flag it
    requires before it reads an input, run it, then record what it ran with."""
    argv = sys.argv[1:] if argv is None else argv
    # Only the named subcommand's flags are built, so only their modules load.
    named = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(named).parse_args(argv)
    handler, _help_line, _entries, required = COMMANDS[args.command]
    if args.command in NUMPY_COMMANDS:
        for name in BLAS_THREAD_VARS:
            os.environ.setdefault(name, "1")
    try:
        cfg = _resolve(args)
        _require(cfg, *required)
        code = handler(cfg)
        _write_run_config(Path(cfg["out_dir"]), args.command, cfg)
        return code
    except (KbvqaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
