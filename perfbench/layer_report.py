"""Per-layer metrics from the spans of one traced round.

A round is the workload's whole command chain; each command contributes
``{"import_s", "spans"}`` as written by traced_cli.py. Sums (``*_s``) add up
over every command of the round, percentiles pool every span of that name
in the round, and ``*_per_query`` divides by the workload's query count. A
span's self time is its duration minus the part of it that its child spans
cover; a layer's self time adds that up over the layer's spans.
"""

from __future__ import annotations

import math
import statistics

# Layer names are the program's module names.
SELF_LAYERS = ("kb", "retrieval", "prompts", "answers", "backend", "pipeline", "mining", "metrics", "cli")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def round_metrics(commands: list[dict], n_queries: int, trace_bytes: int,
                  stub: dict | None) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, for one round."""
    total: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    self_s = dict.fromkeys(SELF_LAYERS, 0.0)
    index_bytes = 0
    overhead_ms: list[float] = []
    image_reads = image_bytes = distinct_images = records = verdicts = 0
    run_many_self = run_many_queries = 0
    import_s = 0.0

    for command in commands:
        import_s += command["import_s"]
        spans = command["spans"]
        by_id = {s[0]: s for s in spans}
        children: dict[int, list[list]] = {}
        for s in spans:
            children.setdefault(s[4], []).append(s)
        images_by_qid: dict[str, set] = {}
        for s in spans:
            sid, name, start, end, _parent, qid, extra = s
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            durations.setdefault(name, []).append(dur)
            layer = name.split(".", 1)[0]
            kids = [(c[2], c[3]) for c in children.get(sid, ())]
            self_s[layer] += dur - covered(kids, start, end)
            extra = extra or {}
            index_bytes = max(index_bytes, extra.get("matrix_bytes", 0))
            records += extra.get("records", 0)
            verdicts += extra.get("verdicts", 0)
            if "service_ms" in extra:
                overhead_ms.append(dur * 1000.0 - extra["service_ms"])
            if name == "backend.image_payload" and "bytes" in extra:
                image_reads += 1
                image_bytes += extra["bytes"]
                images_by_qid.setdefault(qid, set()).add(extra["ref"])
        distinct_images += sum(len(refs) for refs in images_by_qid.values())
        for s in spans:
            if s[1] != "pipeline.run_many":
                continue
            inner = [(d[2], d[3]) for d in spans
                     if d[1].split(".", 1)[0] in ("prompts", "backend", "answers")
                     and _nearest(d, by_id, "pipeline.run_many") is s]
            run_many_self += (s[3] - s[2]) - covered(inner, s[2], s[3])
            run_many_queries += (s[6] or {}).get("n", 0)

    def ms(name: str) -> list[float]:
        return [d * 1000.0 for d in durations.get(name, [])]

    def us(name: str) -> list[float]:
        return [d * 1e6 for d in durations.get(name, [])]

    n = max(n_queries, 1)
    stub = stub or {}
    out = {
        "kb.ingest_kb_s": total.get("kb.ingest_kb", 0.0),
        "kb.ingest_queries_s": total.get("kb.ingest_queries", 0.0),
        "kb.load_embeddings_s": total.get("kb.load_embeddings", 0.0),
        "retrieval.build_index_s": total.get("retrieval.build_index", 0.0),
        "retrieval.index_mb": index_bytes / 1e6,
        "retrieval.search_ms_p50": p50(ms("retrieval.search")),
        "retrieval.search_ms_p99": p99(ms("retrieval.search")),
        "retrieval.search_batch_s": total.get("retrieval.search_batch", 0.0),
        "retrieval.results_io_s": total.get("retrieval.results_io", 0.0),
        "prompts.render_us_p50": p50(us("prompts.render")),
        "prompts.render_calls": len(durations.get("prompts.render", [])),
        "answers.parse_us_p50": p50(us("answers.parse")),
        "backend.generate_ms_p50": p50(ms("backend.generate")),
        "backend.generate_ms_p99": p99(ms("backend.generate")),
        "backend.client_overhead_ms_p50": p50(overhead_ms),
        "backend.request_body_ms_p50": p50(ms("backend.request_body")),
        "backend.image_reads_per_query": image_reads / n,
        "backend.distinct_images_per_query": distinct_images / n,
        "backend.image_mb_per_query": image_bytes / 1e6 / n,
        "backend.in_flight_max": stub.get("in_flight_max", 0),
        "backend.in_flight_mean": stub.get("in_flight_mean", 0.0),
        "backend.service_ms_p50": p50(stub.get("service_ms", [])),
        "backend.calls": len(durations.get("backend.generate", [])),
        "backend.requests": stub.get("requests", 0),
        "pipeline.run_many_s": total.get("pipeline.run_many", 0.0),
        "pipeline.self_ms_per_query": run_many_self * 1000.0 / max(run_many_queries, 1),
        "pipeline.gold_lookup_us_p50": p50(us("kb.entry_by_url")),
        "pipeline.write_traces_s": total.get("pipeline.write_traces", 0.0),
        "pipeline.read_traces_s": total.get("pipeline.read_traces", 0.0),
        "pipeline.trace_kb_per_query": trace_bytes / 1000.0 / n,
        "mining.mine_prki_s": total.get("mining.mine_prki", 0.0),
        "mining.mine_vtki_s": total.get("mining.mine_vtki", 0.0),
        "mining.export_training_s": total.get("mining.export_training", 0.0),
        "mining.records": records,
        "metrics.score_run_s": total.get("metrics.score_run", 0.0),
        "metrics.verdicts": verdicts,
        "cli.import_s": import_s,
    }
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out


def _nearest(span: list, by_id: dict, name: str) -> list | None:
    parent = by_id.get(span[4])
    while parent is not None and parent[1] != name:
        parent = by_id.get(parent[4])
    return parent
