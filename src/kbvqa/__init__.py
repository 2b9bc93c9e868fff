"""Knowledge-based VQA harness: retrieval over an image-embedded knowledge
base, prompting pipelines with inconsistency flags, fine-tuning data mining,
and evaluation reports."""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it. A name is imported on
# first use (PEP 562), so `import kbvqa` and each command load only the
# modules they run.
_EXPORTS = {
    **dict.fromkeys(("KnowledgeBase", "KnowledgeEntry", "Query", "ingest_kb", "ingest_queries"),
                    "kb"),
    **dict.fromkeys(("FlatIndex", "RetrievalResult", "build_index", "recall_at_k", "search"),
                    "retrieval"),
    **dict.fromkeys(("MessageSequence", "PromptContext", "golden_check", "render",
                     "rendered_text"), "prompts"),
    **dict.fromkeys(("BackendRequest", "BackendResponse", "EndpointConfig", "HttpBackend",
                     "MockBackend"), "backend"),
    **dict.fromkeys(("PipelineRunner", "PipelineTrace", "read_traces", "write_traces"),
                    "pipeline"),
    **dict.fromkeys(("MiningRecord", "export_training", "mine_prki", "mine_vtki"), "mining"),
    **dict.fromkeys(("MatchVerdict", "MetricReport", "compare_runs", "match_answer",
                     "score_run"), "metrics"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
