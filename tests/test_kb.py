from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest

import fixture_gen
from kbvqa.errors import EvalError, IngestError
from kbvqa.kb import (
    NORM_BLOCK_ROWS,
    EmbeddingManifest,
    Query,
    export_kb,
    export_queries,
    ingest_kb,
    ingest_queries,
    load_embeddings,
    load_manifest,
)
from kbvqa.records import read_jsonl, write_json, write_jsonl


def test_ingest_kb_round_trip(bundle, tmp_path):
    # A full parse, as `kbvqa ingest` makes: export_kb writes the lines it built.
    kb = ingest_kb(bundle.entries_path, bundle.kb_manifest, use_catalog=False)
    assert len(kb) == 100
    entry = kb.by_id["e007"]
    assert entry.url == "https://kb.example/wiki/Entry_007"
    assert entry.embedding_row == 7
    assert entry.image_refs == ("images/e007.jpg",)
    assert kb.url_map()["e007"] == entry.url
    assert kb.entry_by_url(entry.url) is entry

    out = tmp_path / "entries.jsonl"
    export_kb(kb, out)
    again = ingest_kb(out, bundle.kb_manifest)
    assert [e.entry_id for e in again.entries] == [e.entry_id for e in kb.entries]
    assert again.by_id["e007"].content == entry.content


def test_session_bundle_loads_through_its_catalog(bundle):
    # The bundle is built with its catalog, and gets it back after a test
    # that deletes it, so this holds whichever tests ran first.
    assert ingest_kb(bundle.entries_path, bundle.kb_manifest).export_lines is None
    assert ingest_kb(bundle.entries_path, bundle.kb_manifest, use_catalog=False).export_lines


def test_ingest_queries_round_trip(bundle, tmp_path):
    queries = ingest_queries(bundle.queries_path)
    assert len(queries) == 20
    q = queries[3]
    assert q.query_id == "q03"
    assert q.gold_answers and q.split_tag in ("unseen_q", "unseen_e", "other")
    out = tmp_path / "queries.jsonl"
    export_queries(queries, out)
    again = ingest_queries(out)
    assert [a.query_id for a in again] == [b.query_id for b in queries]
    assert again[3].gold_answers == q.gold_answers


def test_duplicate_entry_id_rejected(bundle, tmp_path):
    text = bundle.entries_path.read_text(encoding="utf-8")
    rows = [json.loads(line) for line in text.splitlines()]
    rows.append(dict(rows[0]))
    bad = tmp_path / "dup.jsonl"
    fixture_gen.write_jsonl(bad, rows)
    with pytest.raises(IngestError, match="duplicate"):
        ingest_kb(bad, bundle.kb_manifest)


def test_missing_field_names_line(tmp_path, bundle):
    rows = fixture_gen.make_entries(3)
    del rows[1]["url"]
    bad = tmp_path / "nofield.jsonl"
    fixture_gen.write_jsonl(bad, rows)
    with pytest.raises(IngestError, match=r"nofield\.jsonl:2: missing field 'url'$"):
        ingest_kb(bad, bundle.kb_manifest)


def test_entry_by_url_returns_first_ingested_of_duplicate_urls(tmp_path, bundle):
    rows = fixture_gen.make_entries(4)
    rows[2]["url"] = rows[1]["url"]
    path = tmp_path / "dup_url.jsonl"
    fixture_gen.write_jsonl(path, rows)
    kb = ingest_kb(path, bundle.kb_manifest)
    assert kb.entry_by_url(rows[1]["url"]) is kb.by_id["e001"]
    assert kb.entry_by_url(rows[3]["url"]) is kb.by_id["e003"]
    assert kb.entry_by_url(rows[0]["url"] + "/") is None


def test_read_jsonl_names_path_and_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    assert write_jsonl(path, [{"a": 1}, {"a": "é"}]) == 2
    assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"a": "é"}\n'
    pairs = read_jsonl(path, lambda obj, lineno: (lineno, obj["a"]), EvalError)
    assert pairs == [(1, 1), (2, "é")]

    def get_a(obj, _lineno):
        return obj["a"]

    for text, match in (('{"a": 1}\n\n{"b": 2}\n', r"rows\.jsonl:3: missing field 'a'"),
                        ('{"a": 1}\n{"a": \n', r"rows\.jsonl:2: malformed JSON"),
                        ("[1, 2]\n", r"rows\.jsonl:1: malformed record")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EvalError, match=match):
            read_jsonl(path, get_a, EvalError)
    with pytest.raises(EvalError, match=r"cannot read .*absent\.jsonl"):
        read_jsonl(tmp_path / "absent.jsonl", get_a, EvalError)


@pytest.mark.parametrize("endings", ["\n", "\r\n", "\r"])
def test_read_jsonl_names_the_first_line_that_is_not_utf8(tmp_path, endings):
    path = tmp_path / "rows.jsonl"
    # Far enough down that text decoding fails a buffer ahead of parsing.
    lines = ['{"a": %d}' % i for i in range(2000)]
    raw = bytearray(endings.join(lines).encode() + endings.encode())
    raw[raw.index(b'{"a": 1500}') + 2] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(EvalError, match=r"rows\.jsonl:1501: not UTF-8: .*0xff"):
        read_jsonl(path, lambda obj, lineno: obj["a"], EvalError)


def test_embedding_row_out_of_range(tmp_path, bundle):
    rows = fixture_gen.make_entries(3)
    rows[2]["embedding_row"] = 4096
    bad = tmp_path / "row.jsonl"
    fixture_gen.write_jsonl(bad, rows)
    with pytest.raises(IngestError, match="row"):
        ingest_kb(bad, bundle.kb_manifest)


@pytest.mark.parametrize("row", [True, False])
def test_bool_embedding_row_rejected(tmp_path, bundle, row):
    rows = fixture_gen.make_entries(3)
    rows[1]["embedding_row"] = row
    bad = tmp_path / "row.jsonl"
    fixture_gen.write_jsonl(bad, rows)
    with pytest.raises(IngestError, match=rf"row\.jsonl:2: field 'embedding_row' must be an "
                                          rf"integer or null, got {json.dumps(row)}$"):
        ingest_kb(bad, bundle.kb_manifest)


# The ids name each case as it was first written, before messages named the
# field as `field 'x'` and gave the value as JSON.
@pytest.mark.parametrize("field, value, match", [
    pytest.param("title", 5, "field 'title' must be a string, got 5",
                 id="title-5-title must be a string, got 5 \\(entry 'e001'\\)"),
    pytest.param("content", 12345, "field 'content' must be a string, got 12345",
                 id="content-12345-content must be a string, got 12345"),
    pytest.param("content", None, "field 'content' must be a string, got null",
                 id="content-None-content must be a string, got None"),
    pytest.param("image_refs", "img.jpg",
                 "field 'image_refs' must be a list of strings, got \"img.jpg\"",
                 id="image_refs-img.jpg-image_refs must be a list of strings"),
    pytest.param("image_refs", ["a.jpg", 7],
                 "field 'image_refs' must be a list of strings, got [\"a.jpg\", 7]",
                 id="image_refs-value4-image_refs must be a list of strings"),
    pytest.param("image_refs", None, "field 'image_refs' must be a list of strings, got null",
                 id="image_refs-None-image_refs must be a list of strings"),
])
def test_entry_field_of_the_wrong_type_rejected(tmp_path, bundle, field, value, match):
    rows = fixture_gen.make_entries(3)
    rows[1][field] = value
    bad = tmp_path / "typed.jsonl"
    fixture_gen.write_jsonl(bad, rows)
    with pytest.raises(IngestError) as got:
        ingest_kb(bad, bundle.kb_manifest)
    assert str(got.value) == f"{bad}:2: {match}"


def _query_row(**fields) -> dict:
    row = {"query_id": "q1", "question": "what?", "image_ref": "q.jpg", "gold_answers": ["x"]}
    row.update(fields)
    return row


_LIST = "a list of strings"
_NON_EMPTY = "a non-empty list of strings or numbers"


# The ids name each case as it was first written, before messages named the
# field as `field 'x'` and gave the value as JSON.
@pytest.mark.parametrize("fields, match", [
    pytest.param({"gold_answers": "Paris"}, f"field 'gold_answers' must be {_LIST}, got \"Paris\"",
                 id=f"fields0-gold_answers must be {_NON_EMPTY}"),
    pytest.param({"gold_answers": [True]}, f"field 'gold_answers' must be {_LIST}, got [true]",
                 id=f"fields1-gold_answers must be {_NON_EMPTY}"),
    pytest.param({"gold_answers": [["x"]]},
                 f"field 'gold_answers' must be {_LIST}, got [[\"x\"]]",
                 id=f"fields2-gold_answers must be {_NON_EMPTY}"),
    pytest.param({"gold_answers": None}, f"field 'gold_answers' must be {_LIST}, got null",
                 id=f"fields3-gold_answers must be {_NON_EMPTY}"),
    pytest.param({"gold_answers": []}, f"field 'gold_answers' must be {_NON_EMPTY}, got []",
                 id="fields4-gold_answers is empty"),
    pytest.param({"question": 5}, "field 'question' must be a string, got 5",
                 id="fields5-question must be a string, got 5"),
    pytest.param({"image_ref": ["q.jpg"]}, "field 'image_ref' must be a string, got [\"q.jpg\"]",
                 id="fields6-image_ref must be a string, got \\['q.jpg'\\]"),
    pytest.param({"gold_entry_url": 7}, "field 'gold_entry_url' must be a string or null, got 7",
                 id="fields7-gold_entry_url must be a string or null, got 7"),
    pytest.param({"gold_entry_url": ["https://kb.example/a"]},
                 "field 'gold_entry_url' must be a string or null, got [\"https://kb.example/a\"]",
                 id="fields8-gold_entry_url must be a string or null, "
                    "got \\['https://kb.example/a'\\]"),
])
def test_query_field_of_the_wrong_type_rejected(tmp_path, fields, match):
    path = tmp_path / "typed.jsonl"
    fixture_gen.write_jsonl(path, [_query_row(query_id="q0"), _query_row(**fields)])
    with pytest.raises(IngestError) as got:
        ingest_queries(path)
    assert str(got.value) == f"{path}:2: {match}"


@pytest.mark.parametrize("query_id", [5, "", None, ["q1"]])
def test_query_id_must_be_a_non_empty_string(tmp_path, query_id):
    path = tmp_path / "typed.jsonl"
    fixture_gen.write_jsonl(path, [_query_row(query_id="q0"), _query_row(query_id=query_id)])
    want = "a non-empty string" if query_id == "" else "a string"
    with pytest.raises(IngestError, match=rf"typed\.jsonl:2: field 'query_id' must be {want}, "
                                          rf"got {re.escape(json.dumps(query_id))}$"):
        ingest_queries(path)


def test_null_gold_entry_url_ingests(tmp_path):
    path = tmp_path / "queries.jsonl"
    fixture_gen.write_jsonl(path, [_query_row(gold_entry_url=None)])
    assert ingest_queries(path)[0].gold_entry_url is None


def test_numeric_gold_answers_keep_their_str_form(tmp_path):
    path = tmp_path / "q.jsonl"
    fixture_gen.write_jsonl(path, [_query_row(gold_answers=[42, 3.5, "1e3", 1e3])])
    assert ingest_queries(path)[0].gold_answers == ("42", "3.5", "1e3", "1000.0")


@pytest.mark.parametrize("obj", [
    {"a": float("nan"), "b": float("-inf"), "c": 1e308, "d": -0.0, "e": 10 ** 30},
    {"text": "é ☃ \u2028 \x00 \U0001f600", "nested": [None, True, [], {}], "": ""},
    ["top", "level", "list"],
])
def test_write_jsonl_bytes_equal_json_dumps(tmp_path, obj):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [obj, obj])
    line = json.dumps(obj, ensure_ascii=False) + "\n"
    assert path.read_text(encoding="utf-8") == line + line


def test_failed_write_jsonl_keeps_the_previous_file(tmp_path):
    path = tmp_path / "traces.jsonl"
    write_jsonl(path, [{"a": 1}])
    with pytest.raises(UnicodeEncodeError):
        write_jsonl(path, [{"a": 2}, {"a": "\ud800"}])
    assert path.read_bytes() == b'{"a": 1}\n'
    assert list(tmp_path.iterdir()) == [path]


def test_write_json_is_indented_utf8_and_keeps_the_previous_file_on_failure(tmp_path):
    path = tmp_path / "report.json"
    obj = {"é": [1, {"b": None}], "n": 2.5}
    write_json(path, obj)
    assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    with pytest.raises(UnicodeEncodeError):
        write_json(path, {"a": "\ud800"})
    assert json.loads(path.read_text(encoding="utf-8")) == obj
    assert list(tmp_path.iterdir()) == [path]


def test_manifest_validation(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"dim": 8, "count": 2, "normalized": True, "dtype": "f32le"}))
    assert load_manifest(path) == EmbeddingManifest(dim=8, count=2, normalized=True)

    for fields, message in (({"dtype": "f64be"}, 'field \'dtype\' must be "f32le", got "f64be"'),
                            ({"dim": 0}, "field 'dim' must be a positive integer, got 0"),
                            ({"count": -1}, "field 'count' must be a non-negative integer, got -1")):
        path.write_text(json.dumps({"dim": 8, "count": 2, "normalized": True, **fields}))
        with pytest.raises(IngestError) as got:
            load_manifest(path)
        assert str(got.value) == f"embedding manifest {path}: {message}"

    path.write_text(json.dumps({"dim": 8, "normalized": True, "dtype": "f32le"}))
    with pytest.raises(IngestError, match=r"manifest\.json: missing field 'count'$"):
        load_manifest(path)


# The ids name each case as it was first written, before the manifest was
# read against EmbeddingManifest and its messages took the record form.
@pytest.mark.parametrize("fields, message", [
    pytest.param({"dim": 4.7}, "field 'dim' must be an integer, got 4.7",
                 id=r"fields0-manifest field 'dim' must be a JSON integer, got 4\.7"),
    pytest.param({"dim": "4"}, "field 'dim' must be an integer, got \"4\"",
                 id="fields1-manifest field 'dim' must be a JSON integer, got '4'"),
    pytest.param({"dim": True}, "field 'dim' must be an integer, got true",
                 id="fields2-manifest field 'dim' must be a JSON integer, got True"),
    pytest.param({"count": 2.0}, "field 'count' must be an integer, got 2.0",
                 id=r"fields3-manifest field 'count' must be a JSON integer, got 2\.0"),
    pytest.param({"count": None}, "field 'count' must be an integer, got null",
                 id="fields4-manifest field 'count' must be a JSON integer, got None"),
    pytest.param({"normalized": "false"}, "field 'normalized' must be true or false, got \"false\"",
                 id="fields5-manifest field 'normalized' must be true or false, got 'false'"),
    pytest.param({"normalized": 0}, "field 'normalized' must be true or false, got 0",
                 id="fields6-manifest field 'normalized' must be true or false, got 0"),
])
def test_manifest_field_of_the_wrong_json_type_rejected(tmp_path, fields, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"dim": 8, "count": 2, "normalized": True, **fields}))
    with pytest.raises(IngestError) as got:
        load_manifest(path)
    assert str(got.value) == f"embedding manifest {path}: {message}"


@pytest.mark.parametrize("text", ['[8, 2, true]', '"dim count normalized"'])
def test_manifest_that_is_not_an_object_rejected(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with pytest.raises(IngestError) as got:
        load_manifest(path)
    assert str(got.value) == f"embedding manifest {path}: record must be an object, got {text}"


def test_manifest_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_bytes(b'{"dim": 8, "count": 2, "normalized": true, "x": "\xff"}')
    with pytest.raises(IngestError, match=r"^cannot load embedding manifest .*manifest\.json: "
                                          r".*0xff"):
        load_manifest(path)


def test_float_dim_exits_two_naming_the_manifest(bundle, tmp_path, capsys):
    from kbvqa.cli import main

    manifest = tmp_path / "manifest.json"
    fields = json.loads(bundle.kb_manifest.read_text())
    manifest.write_text(json.dumps({**fields, "dim": fields["dim"] + 0.7}))
    assert main(["index", "--kb", str(bundle.entries_path), "--kb-manifest", str(manifest),
                 "--kb-embeddings", str(bundle.kb_embeddings),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert (f"embedding manifest {manifest}: field 'dim' must be an integer, "
            f"got {json.dumps(fields['dim'] + 0.7)}") in err


@pytest.mark.parametrize("field, value", [
    ("entry_id", "e\ud800"), ("url", "\udfff"), ("title", "a\ud800b"), ("content", "\udc00"),
    ("image_refs", ["ok.jpg", "\ud83d.jpg"]),
])
def test_entry_with_a_lone_surrogate_rejected_naming_the_line(tmp_path, bundle, field, value):
    rows = fixture_gen.make_entries(3)
    rows[1][field] = value
    bad = tmp_path / "surrogate.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="ascii")
    with pytest.raises(IngestError, match=rf"surrogate\.jsonl:2: {field} holds a lone "
                                          rf"surrogate, which UTF-8 cannot encode \(entry "):
        ingest_kb(bad, bundle.kb_manifest)


def test_escaped_surrogate_pair_is_one_character(tmp_path, bundle):
    rows = fixture_gen.make_entries(1)
    rows[0]["title"] = "\U0001f600"
    path = tmp_path / "pair.jsonl"
    path.write_text(json.dumps(rows[0]) + "\n", encoding="ascii")  # "\ud83d\ude00"
    assert ingest_kb(path, bundle.kb_manifest).by_id["e000"].title == "\U0001f600"


@pytest.mark.parametrize("field, value", [
    ("query_id", "q\ud800"), ("question", "x\udfff"), ("image_ref", "\ud800"),
    ("gold_answers", ["a", "\udc00"]), ("gold_entry_url", "\ud800"),
])
def test_query_with_a_lone_surrogate_rejected_naming_the_line(tmp_path, field, value):
    path = tmp_path / "surrogate.jsonl"
    rows = [_query_row(query_id="q0"), _query_row(**{field: value})]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="ascii")
    with pytest.raises(IngestError, match=rf"surrogate\.jsonl:2: {field} holds a lone "
                                          rf"surrogate, which UTF-8 cannot encode \(query "):
        ingest_queries(path)


@pytest.mark.parametrize("bad_file, field", [("kb", "title"), ("queries", "question")])
def test_ingest_of_a_lone_surrogate_exits_two_and_writes_no_export(bundle, tmp_path, capsys,
                                                                   bad_file, field):
    from kbvqa.cli import main

    files = {"kb": bundle.entries_path, "queries": bundle.queries_path}
    rows = [json.loads(line) for line in files[bad_file].read_text(encoding="utf-8").splitlines()]
    rows[2][field] = "\ud800"
    files[bad_file] = tmp_path / f"{bad_file}.jsonl"
    files[bad_file].write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="ascii")
    out = tmp_path / "out"
    assert main(["ingest", "--kb", str(files["kb"]), "--kb-manifest", str(bundle.kb_manifest),
                 "--queries", str(files["queries"]), "--out-dir", str(out)]) == 2
    assert f"{files[bad_file]}:3: {field} holds a lone surrogate" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_failed_exports_leave_no_file(tmp_path):
    # export_kb writes lines the full parse already encoded, so it cannot fail this way.
    with pytest.raises(UnicodeEncodeError):
        export_queries([Query("q0", "\ud800", "q.jpg", ("a",))], tmp_path / "out.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_load_embeddings_shape_and_norm(bundle):
    emb = load_embeddings(load_manifest(bundle.kb_manifest), bundle.kb_embeddings)
    assert emb.data.shape == (100, 16)
    assert emb.data.dtype == np.float32
    norms = np.linalg.norm(emb.data.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-4)


def test_load_embeddings_normalizes_raw_rows(tmp_path):
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(4, 8)).astype(np.float32) * 7.5
    manifest, data = fixture_gen.write_matrix(tmp_path, "emb", raw)
    manifest.write_text(json.dumps({
        "dim": 8, "count": 4, "normalized": False, "dtype": "f32le",
    }))
    emb = load_embeddings(load_manifest(manifest), data)
    norms = np.linalg.norm(emb.data.astype(np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_load_embeddings_size_mismatch(tmp_path, bundle):
    short = tmp_path / "short.f32"
    short.write_bytes(bundle.kb_embeddings.read_bytes()[:-4])
    with pytest.raises(IngestError, match="bytes"):
        load_embeddings(load_manifest(bundle.kb_manifest), short)


def test_load_embeddings_rejects_non_finite(tmp_path):
    mat = np.ones((2, 4), dtype=np.float32)
    mat[1, 2] = np.nan
    manifest, data = fixture_gen.write_matrix(tmp_path, "bad", mat)
    with pytest.raises(IngestError, match="finite"):
        load_embeddings(load_manifest(manifest), data)


def test_claimed_normalized_is_verified(tmp_path):
    mat = np.full((2, 4), 3.0, dtype=np.float32)
    manifest, data = fixture_gen.write_matrix(tmp_path, "lie", mat)
    with pytest.raises(IngestError, match="normalized"):
        load_embeddings(load_manifest(manifest), data)


def _raw_manifest(manifest, matrix):
    manifest.write_text(json.dumps({
        "dim": int(matrix.shape[1]), "count": int(matrix.shape[0]),
        "normalized": False, "dtype": "f32le",
    }))


@pytest.mark.parametrize("fault,normalized,match", [
    ("nan", True, "non-finite value in row"),
    ("zero", False, "zero-norm row"),
    ("long", True, "manifest claims normalized but row"),
    # Faults in two blocks: the earlier block's is reported.
    ("long, nan in a later block", True, "manifest claims normalized but row"),
    ("zero, nan in a later block", False, "zero-norm row"),
])
def test_bad_row_past_first_block_reported_by_row(tmp_path, fault, normalized, match):
    bad_row = NORM_BLOCK_ROWS + 37
    mat = np.zeros((2 * NORM_BLOCK_ROWS + 50, 4), dtype=np.float32)
    mat[:, 0] = 1.0
    first, _, later = fault.partition(", ")
    mat[bad_row] = {"nan": [1.0, np.nan, 0.0, 0.0], "zero": 0.0, "long": 2.0}[first]
    if later:
        mat[-1, 1] = np.nan
    manifest, data = fixture_gen.write_matrix(tmp_path, "blocks", mat)
    if not normalized:
        _raw_manifest(manifest, mat)
    with pytest.raises(IngestError, match=f"{match} {bad_row}"):
        load_embeddings(load_manifest(manifest), data)


def test_row_checks_are_skipped_only_for_the_checked_digest(tmp_path):
    mat = np.ones((2, 4), dtype=np.float32)
    mat[1, 2] = np.nan
    manifest, data = fixture_gen.write_matrix(tmp_path, "bad", mat)
    digest = hashlib.sha256(data.read_bytes()).hexdigest()
    emb = load_embeddings(load_manifest(manifest), data, checked_sha256=digest)
    assert emb.sha256 == digest and emb.data.tobytes() == mat.tobytes()
    with pytest.raises(IngestError, match="finite"):
        load_embeddings(load_manifest(manifest), data, checked_sha256="0" * 64)


def test_checked_digest_still_normalizes_raw_rows(tmp_path):
    raw = (np.random.default_rng(3).normal(size=(NORM_BLOCK_ROWS + 9, 5)) * 9.0).astype(np.float32)
    manifest, data = fixture_gen.write_matrix(tmp_path, "raw", raw)
    _raw_manifest(manifest, raw)
    digest = hashlib.sha256(data.read_bytes()).hexdigest()
    assert load_embeddings(load_manifest(manifest), data, checked_sha256=digest).data.tobytes() == (
        load_embeddings(load_manifest(manifest), data).data.tobytes())
    assert data.read_bytes() == raw.tobytes()  # normalized in memory, not in the file


def test_load_embeddings_of_an_empty_matrix(tmp_path):
    manifest, data = fixture_gen.write_matrix(tmp_path, "empty", np.zeros((0, 3), dtype=np.float32))
    emb = load_embeddings(load_manifest(manifest), data)
    assert emb.data.shape == (0, 3) and emb.sha256 == hashlib.sha256(b"").hexdigest()


def test_missing_embedding_file_named(tmp_path, bundle):
    with pytest.raises(IngestError, match=r"cannot read .*absent\.f32: No such file"):
        load_embeddings(load_manifest(bundle.kb_manifest), tmp_path / "absent.f32")


def test_blockwise_normalization_matches_whole_matrix_formula(tmp_path):
    rng = np.random.default_rng(17)
    raw = (rng.normal(size=(2 * NORM_BLOCK_ROWS + 123, 12)) * 40.0).astype(np.float32)
    manifest, data = fixture_gen.write_matrix(tmp_path, "raw", raw)
    _raw_manifest(manifest, raw)
    emb = load_embeddings(load_manifest(manifest), data)
    raw64 = raw.astype(np.float64)
    whole = (raw64 / np.linalg.norm(raw64, axis=1)[:, None]).astype(np.float32)
    assert emb.data.dtype == np.float32
    assert emb.data.tobytes() == whole.tobytes()


def test_gold_range_parsing():
    queries = ingest_queries_from_rows([{
        "query_id": "g1", "question": "how many?", "image_ref": "i.jpg",
        "gold_answers": ["10..20"], "answer_type": "numeric_range",
    }])
    assert queries[0].gold_range() == (10.0, 20.0)


def _range_query(gold):
    return {"query_id": "g1", "question": "how many?", "image_ref": "i.jpg",
            "gold_answers": [gold], "answer_type": "numeric_range"}


@pytest.mark.parametrize("gold", ["nan..5", "1..nan", "NaN..NaN", "-inf..nan"])
def test_gold_range_with_a_nan_bound_rejected_naming_the_query(gold):
    # No prediction lies in such a range, so the query could never be answered right.
    with pytest.raises(IngestError, match=re.escape(
            f":1: numeric_range bound is NaN: {gold!r} (query 'g1')")):
        ingest_queries_from_rows([_range_query(gold)])


@pytest.mark.parametrize("gold, bounds", [
    ("-inf..5", (-np.inf, 5.0)), ("1..inf", (1.0, np.inf)), ("-inf..inf", (-np.inf, np.inf))])
def test_gold_range_with_an_infinite_bound_is_half_open(gold, bounds):
    assert ingest_queries_from_rows([_range_query(gold)])[0].gold_range() == bounds


def ingest_queries_from_rows(rows, tmp_path=None):
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "q.jsonl"
        fixture_gen.write_jsonl(path, rows)
        return ingest_queries(path)
