"""Run one ``kbvqa`` command with per-layer spans recorded.

    python3 perfbench/traced_cli.py SPANS.json <kbvqa arguments...>

The program is not modified: before ``kbvqa.cli.main`` runs, the public
functions of each module are wrapped where the calling module binds them
(``kbvqa.cli.search_batch``, ``kbvqa.pipeline.render``,
``HttpBackend.generate``, ``KnowledgeBase.entry_by_url``, ...). Spans are kept
in memory and written to SPANS.json when the command ends, as rows of
``[id, name, start, end, parent_id, query_id, extra]``. A span's layer is the
part of its name before the first dot, which is the module's name.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

_T0 = time.perf_counter()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[list] = []

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, qid: str | None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack:
            # Worker-pool threads start empty: their work belongs to whatever
            # the main thread is inside (run_many or search_batch).
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        if qid is None and parent is not None:
            qid = parent[5]
        span = [next(self._ids), name, time.perf_counter(), None,
                parent[0] if parent else None, qid, None]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)


def wrap(tracer: Tracer, owner, attr: str, name: str, qid_of=None, extra_of=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.start(name, qid_of(args, kwargs) if qid_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if extra_of is not None:
            span[6] = extra_of(args, kwargs, result)
        return result

    setattr(owner, attr, traced)


def _arg(i: int, key: str):
    return lambda args, kwargs: kwargs[key] if key in kwargs else args[i]


def _service_ms(args, kwargs, resp):
    try:
        return {"service_ms": json.loads(resp.raw)["service_ms"]}
    except (ValueError, KeyError, TypeError):
        return None


def _image_bytes(args, kwargs, result):
    ref = args[0]
    return {"ref": ref, "bytes": os.path.getsize(ref)} if os.path.isfile(ref) else None


def install(tracer: Tracer) -> None:
    import kbvqa.backend as backend
    import kbvqa.cli as cli
    import kbvqa.kb as kb
    import kbvqa.mining as mining
    import kbvqa.pipeline as pipeline
    import kbvqa.retrieval as retrieval

    def matrix_bytes(_args, _kwargs, index):
        return {"matrix_bytes": int(index.matrix.nbytes)}

    wrap(tracer, cli, "ingest_kb", "kb.ingest_kb")
    wrap(tracer, cli, "ingest_queries", "kb.ingest_queries")
    wrap(tracer, cli, "load_embeddings", "kb.load_embeddings")
    wrap(tracer, cli, "export_kb", "kb.export")
    wrap(tracer, cli, "export_queries", "kb.export")
    wrap(tracer, kb.KnowledgeBase, "entry_by_url", "kb.entry_by_url")

    wrap(tracer, cli, "build_index", "retrieval.build_index", extra_of=matrix_bytes)
    wrap(tracer, cli, "FlatIndex", "retrieval.flat_index", extra_of=matrix_bytes)
    wrap(tracer, cli, "search_batch", "retrieval.search_batch")
    wrap(tracer, retrieval, "search", "retrieval.search", qid_of=_arg(3, "query_id"))
    wrap(tracer, cli, "write_results", "retrieval.results_io")
    wrap(tracer, cli, "read_results", "retrieval.results_io")
    wrap(tracer, cli, "recall_at_k", "retrieval.recall")

    render_qid = lambda args, kwargs: args[2].query.query_id  # noqa: E731
    wrap(tracer, pipeline, "render", "prompts.render", qid_of=render_qid)
    wrap(tracer, mining, "render", "prompts.render", qid_of=render_qid)
    wrap(tracer, pipeline, "extract_answer", "answers.parse")
    wrap(tracer, pipeline, "parse_reference_letter", "answers.parse")

    req_qid = lambda args, kwargs: args[1].query_id  # noqa: E731
    wrap(tracer, backend.HttpBackend, "generate", "backend.generate", qid_of=req_qid,
         extra_of=_service_ms)
    wrap(tracer, backend.MockBackend, "generate", "backend.generate", qid_of=req_qid)
    wrap(tracer, backend, "request_body", "backend.request_body", qid_of=req_qid)
    wrap(tracer, backend, "_image_payload", "backend.image_payload", extra_of=_image_bytes)

    wrap(tracer, pipeline.PipelineRunner, "run_many", "pipeline.run_many",
         extra_of=lambda args, kwargs, result: {"n": len(result)})
    wrap(tracer, pipeline.PipelineRunner, "run_query", "pipeline.run_query",
         qid_of=lambda args, kwargs: args[2].query_id)
    wrap(tracer, cli, "write_traces", "pipeline.write_traces")
    wrap(tracer, cli, "read_traces", "pipeline.read_traces")

    wrap(tracer, cli, "mine_prki", "mining.mine_prki",
         extra_of=lambda a, k, r: {"records": len(r.d_int) + len(r.d_ext)})
    wrap(tracer, cli, "mine_vtki", "mining.mine_vtki",
         extra_of=lambda a, k, r: {"records": len(r.d_v) + len(r.d_t)})
    wrap(tracer, cli, "export_training", "mining.export_training")
    wrap(tracer, cli, "read_records", "mining.records_io")
    wrap(tracer, cli, "write_records", "mining.records_io")

    wrap(tracer, cli, "score_run", "metrics.score_run",
         extra_of=lambda a, k, r: {"verdicts": len(r.verdicts)})
    wrap(tracer, cli, "write_report_json", "metrics.write")
    wrap(tracer, cli, "write_verdicts", "metrics.write")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import kbvqa.cli

    import_s = time.perf_counter() - _T0
    tracer = Tracer()
    install(tracer)
    root = tracer.start("cli.main", None)
    rc = 2
    try:
        rc = kbvqa.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.end(root)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
