"""Each fast path of reading a KB equals the general path it stands in for.

record_reader against record_fields, the export line of a line without a
backslash against the one encode_basestring quotes, and load_embeddings'
float32 row check against the float64 one.
"""

from __future__ import annotations

import hashlib
import io
import json
from json.encoder import encode_basestring

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fixture_gen
from kbvqa import kb as kb_module
from kbvqa import records
from kbvqa.backend import BackendResponse, EndpointConfig, ScriptLine
from kbvqa.errors import IngestError
from kbvqa.kb import (
    SCHEMA_VERSION, EmbeddingManifest, KnowledgeEntry, Query, _entry_fields, _export_line,
    ingest_kb, load_embeddings, load_manifest,
)
from kbvqa.metrics import DeltaRow, MatchVerdict, MetricReport, StratumCell
from kbvqa.mining import MiningRecord
from kbvqa.pipeline import PipelineTrace, StageTranscript
from kbvqa.records import FieldError, _record_spec, record_fields, record_reader
from kbvqa.retrieval import Hit, RetrievalResult

# -- record_reader ----------------------------------------------------------

RECORD_CLASSES = (
    KnowledgeEntry, Query, EmbeddingManifest, Hit, RetrievalResult, PipelineTrace,
    StageTranscript, MiningRecord, ScriptLine, EndpointConfig, BackendResponse, DeltaRow,
    MatchVerdict, MetricReport, StratumCell,
)

_SCALARS = {
    str: st.text(alphabet=st.sampled_from(["a", "1", "é", '"', "\\", "\x00"]), max_size=3),
    int: st.integers(-3, 3),
    float: st.floats(-2, 2, allow_nan=False),
    bool: st.booleans(),
    type(None): st.none(),
}
_ANY_JSON = st.recursive(
    st.one_of(*_SCALARS.values()),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(
        _SCALARS[str], inner, max_size=2),
    max_leaves=4,
)


def _valid(kinds: tuple, items, int_keys: bool, depth: int):
    """A value of one of kinds, as its field's spec allows it."""
    choices = []
    for kind in kinds:
        if kind is list and items is not None:
            item = (st.one_of(*map(_SCALARS.get, items)) if type(items) is tuple
                    else _record(items, depth + 1))
            choices.append(st.lists(item, max_size=3))
        elif kind is dict and items is not None:
            item = (st.one_of(*map(_SCALARS.get, items)) if type(items) is tuple
                    else _record(items, depth + 1))
            keys = st.integers(0, 9).map(str) if int_keys else _SCALARS[str]
            choices.append(st.dictionaries(keys, item, max_size=2))
        elif kind is dict:
            choices.append(st.dictionaries(_SCALARS[str], _ANY_JSON, max_size=2))
        else:
            choices.append(_SCALARS[kind])
    return st.one_of(choices)


@st.composite
def _record(draw, cls: type, depth: int = 0):
    """A JSON object for cls: every field valid but at most one, which is
    any JSON value, a list of any JSON values, or missing."""
    spec = _record_spec(cls)
    odd = draw(st.integers(0, len(spec))) if depth < 2 else len(spec)
    obj = {}
    for i, (name, _default, kinds, items, int_keys, _want) in enumerate(spec):
        way = draw(st.sampled_from(["other", "list", "missing"])) if i == odd else "valid"
        if way == "valid":
            obj[name] = draw(_valid(kinds, items, int_keys, depth))
        elif way == "other":
            obj[name] = draw(_ANY_JSON)
        elif way == "list":
            obj[name] = draw(st.lists(_ANY_JSON, min_size=1, max_size=3))
    if draw(st.booleans()):
        obj["unknown_key"] = draw(_ANY_JSON)
    return obj


def _outcome(read, cls, obj):
    try:
        return "ok", read(cls, obj)
    except FieldError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_record_reader_accepts_and_rejects_what_record_fields_does(cls, data):
    obj = data.draw(_record(cls) | _ANY_JSON, label="obj")
    reader = record_reader(cls)
    # A record that record_fields accepts passes the reader's own checks.
    handed = []
    real = reader.__globals__["record_fields"]
    reader.__globals__["record_fields"] = lambda *args: (handed.append(args), real(*args))[1]
    try:
        got = _outcome(lambda _cls, o: reader(o), cls, obj)
    finally:
        reader.__globals__["record_fields"] = real
    expected = _outcome(record_fields, cls, obj)
    assert got == expected
    assert expected[0] == "error" or not handed


def test_record_reader_builds_nested_records_and_defaults():
    read = record_reader(RetrievalResult)
    assert read({"query_id": "q", "k": 2, "hits": [{"entry_id": "e", "score": 1}]}) == (
        "q", 2, (Hit("e", 1),))
    assert record_reader(KnowledgeEntry)({"entry_id": "e", "url": "u"}) == (
        "e", "u", "", "", (), None)
    with pytest.raises(FieldError, match="field 'hits\\[1\\].score' must be a number"):
        read({"query_id": "q", "k": 2, "hits": [{"entry_id": "e", "score": 1},
                                                 {"entry_id": "e", "score": None}]})


# -- reading a file a block at a time ---------------------------------------------


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.lists(st.sampled_from([b"a", b"{}", b"\xc3\xa9", b" ", b"\n", b"\r", b"\r\n"]),
                     max_size=24).map(b"".join),
       block=st.integers(1, 9))
def test_lines_read_a_block_at_a_time_are_the_lines_of_the_whole_file(monkeypatch, data,
                                                                        block):
    monkeypatch.setattr(records, "_BLOCK", block)
    digest = hashlib.sha256()
    assert list(records._lines(io.BytesIO(data), digest)) == data.splitlines(keepends=True)
    assert digest.digest() == hashlib.sha256(data).digest()


# -- the export line of a line with no backslash ------------------------------

# Characters json.dumps writes as they are, unless ensure_ascii; and then
# quotes, backslashes, control characters and lone surrogates, which it
# escapes, and which as they are break strict JSON or UTF-8.
_PLAIN = ["a", " ", "\x7f", "\u00e9", "\u2028", "\U0001f600"]
_ESCAPED = ['"', "\\", "\x00", "\x1f", "\t", "\n", "\ud800", "\udfff"]


@settings(max_examples=300, deadline=None)
@given(plain=st.booleans(), dumped=st.booleans(), ascii_only=st.booleans(),
       row=st.none() | st.integers(0, 9), data=st.data())
def test_strings_of_a_line_without_a_backslash_are_quoted_as_they_are(plain, dumped,
                                                                        ascii_only, row, data):
    alphabet = st.sampled_from(_PLAIN if plain else _PLAIN + _ESCAPED)
    texts = data.draw(st.lists(st.text(alphabet=alphabet, max_size=6), min_size=5, max_size=7))
    entry_id, url, title, content, *refs = texts
    values = {"entry_id": "e" + entry_id, "url": "u" + url, "title": title, "content": content,
              "image_refs": refs, "embedding_row": row}
    if dumped:  # every string escaped as json.dumps escapes it
        line = json.dumps(values, ensure_ascii=ascii_only)
    else:  # every string as it is, so the line may not be JSON at all
        line = "{" + ", ".join(
            f'"{name}": ' + (f'"{value}"' if type(value) is str else
                             "[" + ", ".join(f'"{ref}"' for ref in value) + "]"
                             if type(value) is list else json.dumps(value))
            for name, value in values.items()) + "}"
    try:
        raw = line.encode("utf-8")
        fields = _entry_fields(json.loads(line))
    except (UnicodeEncodeError, ValueError):
        assume(False)
    escaped = _export_line(*fields)
    assert escaped == json.dumps({"schema_version": SCHEMA_VERSION, **dict(zip(
        ("entry_id", "url", "title", "content", "image_refs", "embedding_row"), fields))},
        ensure_ascii=False) + "\n"
    if b"\\" not in raw:
        assert all(encode_basestring(text) == f'"{text}"'
                   for text in (*fields[:4], *fields[4]))
        assert _export_line(*fields, escape=False) == escaped


def test_full_parse_quotes_only_the_lines_with_a_backslash(tmp_path):
    lines = ['{"entry_id": "a", "url": "u", "title": "plain \\u00e9 text"}',
             '{"entry_id": "b", "url": "u", "title": "say \\"hi\\"", "content": "x\\ty"}',
             '{"entry_id": "c", "url": "u", "content": "caf\u00e9 \u2028"}']
    entries = tmp_path / "entries.jsonl"
    entries.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"dim": 4, "count": 1, "normalized": True}))
    kb = ingest_kb(entries, manifest, use_catalog=False)
    assert kb.export_lines == [
        (json.dumps({"schema_version": SCHEMA_VERSION, "entry_id": e.entry_id, "url": e.url,
                     "title": e.title, "content": e.content, "image_refs": [],
                     "embedding_row": None}, ensure_ascii=False) + "\n").encode("utf-8")
        for e in kb.entries]
    assert [e.title for e in kb.entries] == ["plain \u00e9 text", 'say "hi"', ""]


# -- load_embeddings' float32 row check -----------------------------------------


def _float64_check(data: np.ndarray, path, normalized: bool, block_rows: int) -> str | None:
    """The message of the float64-only row checks load_embeddings made
    before its float32 pass, or None when every row passes."""
    for start in range(0, len(data), block_rows):
        block = data[start:start + block_rows]
        bad = ~np.isfinite(block)
        if bad.any():
            return f"{path}: non-finite value in row {start + int(np.argwhere(bad)[0][0])}"
        norms = np.linalg.norm(block.astype(np.float64), axis=1)
        if normalized:
            off = np.abs(norms - 1.0) > kb_module.NORM_TOLERANCE
            if off.any():
                row = int(np.argmax(off))
                return (f"{path}: manifest claims normalized but row {start + row} "
                        f"has norm {norms[row]:.6f}")
        elif (norms == 0.0).any():
            return f"{path}: zero-norm row {start + int(np.argmax(norms == 0.0))} cannot be normalized"
    return None


# Row faults: values that are not finite or overflow a float32 square,
# norms on either side of 1 +- NORM_TOLERANCE by a few float32 steps, tiny
# and zero rows.
_TOL = kb_module.NORM_TOLERANCE
_ROW_FAULTS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e20, 3e38]).map(lambda v: ("value", v)),
    st.builds(lambda sign, steps: ("norm", 1.0 + sign * _TOL + steps * 2.0 ** -23),
              st.sampled_from([-1.0, 1.0]), st.integers(-40, 40)),
    st.sampled_from([1e-30, 0.0, 1.0 + 2 * _TOL, 1.0 - 2 * _TOL]).map(lambda v: ("norm", v)),
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(dim=st.sampled_from([1, 3, 8, 64, 300, 1800]), count=st.integers(1, 12),
       faults=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 1799), _ROW_FAULTS),
                       max_size=3),
       block_rows=st.sampled_from([1, 3, 4096]), normalized=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_float32_row_check_gives_the_float64_outcome_and_message(
        tmp_path_factory, monkeypatch, dim, count, faults, block_rows, normalized, seed):
    monkeypatch.setattr(kb_module, "NORM_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(count, dim))
    matrix = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)
    for row, col, (kind, value) in faults:
        if row < count:
            if kind == "value":
                matrix[row, col % dim] = value
            else:
                # A product past the float32 range is a fault injected on purpose.
                with np.errstate(over="ignore"):
                    matrix[row] = (matrix[row].astype(np.float64) * value).astype(np.float32)
    root = tmp_path_factory.mktemp("emb")
    manifest, data = fixture_gen.write_matrix(root, "m", matrix)
    if not normalized:
        manifest.write_text(json.dumps({"dim": dim, "count": count, "normalized": False}))
    expected = _float64_check(matrix, data, normalized, block_rows)
    if expected is None:
        loaded = load_embeddings(load_manifest(manifest), data)
        if normalized:
            assert loaded.data.tobytes() == matrix.tobytes()
    else:
        with pytest.raises(IngestError) as got:
            load_embeddings(load_manifest(manifest), data)
        assert str(got.value) == expected


@pytest.mark.parametrize("dim", [1, 3, 64])
def test_float32_row_check_at_the_edges_of_the_tolerance(tmp_path, dim):
    """Rows a few float32 steps either side of 1 +- NORM_TOLERANCE, one at a time."""
    direction = np.random.default_rng(dim).normal(size=dim)
    direction /= np.linalg.norm(direction)
    for edge in (1 + _TOL, 1 - _TOL):
        for steps in range(-64, 65):
            matrix = (direction * (edge + steps * 2.0 ** -23)).astype(np.float32)[None]
            manifest, data = fixture_gen.write_matrix(tmp_path, "edge", matrix)
            try:
                load_embeddings(load_manifest(manifest), data)
                got = None
            except IngestError as exc:
                got = str(exc)
            assert got == _float64_check(matrix, data, True, 1), (edge, steps)


def test_float32_check_flags_only_the_blocks_it_must(tmp_path, monkeypatch):
    """On unit rows the float64 norms run for the one block that holds a bad row."""
    monkeypatch.setattr(kb_module, "NORM_BLOCK_ROWS", 8)
    matrix = np.zeros((40, 16), dtype=np.float32)
    matrix[:, 3] = 1.0
    matrix[21, 3] = np.float32(1.0 + 2 * _TOL)
    manifest, data = fixture_gen.write_matrix(tmp_path, "m", matrix)
    norms = []
    real_norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda a, *args, **kwargs: (
        norms.append(len(a)), real_norm(a, *args, **kwargs))[1])
    with pytest.raises(IngestError, match="row 21 has norm 1.000200"):
        load_embeddings(load_manifest(manifest), data)
    assert norms == [8]
