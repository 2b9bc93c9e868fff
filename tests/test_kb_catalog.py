"""The KB catalog that `kbvqa ingest` writes beside --kb.

A catalog-backed ingest_kb must equal the full parse; a catalog that does
not belong to the exact bytes of the KB and manifest must be passed over
(the command then writes what it writes without one) or stop the command
with exit 2; and the commands that need few entries must really parse few.
"""

from __future__ import annotations

import errno
import json
import os
import random
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_gen
from kbvqa import kb as kb_module
from kbvqa.backend import MockBackend
from kbvqa.cli import main
from kbvqa.errors import IngestError, KbvqaError
from kbvqa.kb import (
    CATALOG_VERSION, SCHEMA_VERSION, EmbeddingManifest, KnowledgeBase, KnowledgeEntry,
    _entry_from_dict, catalog_path, export_kb, ingest_kb, ingest_queries, write_catalog,
)
from kbvqa.mining import read_records
from kbvqa.pipeline import read_traces
from kbvqa.records import FieldError, _loads, read_jsonl, to_record
from kbvqa.retrieval import read_results


# -- equivalence with the full parse --------------------------------------

_TEXT = st.text(alphabet=st.sampled_from(
    ["a", "b", " ", "\t", '"', "\\", "\u00e9", "\u6f22", "\U0001f600", "\u0085", "\u2028"]),
    max_size=8)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
# Lines that text mode's str.strip() empties, so ingest skips them.
_BLANKS = st.sampled_from(["", " ", "\t", "\u2028", "\u00a0 "])


@st.composite
def kb_texts(draw) -> tuple[str, int]:
    """The text of a valid KB file and its embedding row count."""
    n = draw(st.integers(min_value=0, max_value=8))
    urls = draw(st.lists(st.sampled_from(["u/a", "u/é", "u/ ", "u/b"]), min_size=n, max_size=n))
    parts = []
    for i, url in enumerate(urls):
        for _ in range(draw(st.integers(0, 2))):
            parts.append(draw(_BLANKS) + draw(_LINE_ENDS))
        row = {"entry_id": f"e{i}", "url": url, "title": draw(_TEXT), "content": draw(_TEXT),
               "image_refs": draw(st.lists(_TEXT, max_size=2)),
               "embedding_row": draw(st.none() | st.integers(0, 9))}
        parts.append(json.dumps(row, ensure_ascii=draw(st.booleans())) + draw(_LINE_ENDS))
    if parts and draw(st.booleans()):
        parts[-1] = parts[-1].rstrip("\r\n")  # no line end after the last line
    return "".join(parts), 10


def _files(root: Path, text: str, count: int) -> SimpleNamespace:
    files = SimpleNamespace(kb=root / "entries.jsonl", manifest=root / "manifest.json")
    files.kb.write_bytes(text.encode("utf-8"))
    files.manifest.write_text(json.dumps({"dim": 4, "count": count, "normalized": True}))
    catalog_path(files.kb).unlink(missing_ok=True)
    return files


@settings(max_examples=60, deadline=None)
@given(case=kb_texts(), data=st.data())
def test_catalog_backed_kb_equals_the_full_parse(tmp_path_factory, case, data):
    files = _files(tmp_path_factory.mktemp("kb"), *case)
    full = ingest_kb(files.kb, files.manifest, use_catalog=False)
    write_catalog(full, files.kb)
    lazy = ingest_kb(files.kb, files.manifest)
    assert lazy._source is not None, "the catalog was not used"
    assert (lazy.sha256, lazy.manifest_sha256) == (full.sha256, full.manifest_sha256)
    assert len(lazy) == len(full)
    assert lazy.url_map() == full.url_map()
    assert (lazy.entry_ids, lazy.urls, lazy.embedding_rows) == (
        full.entry_ids, full.urls, full.embedding_rows)
    # Lookups in any order, before entries parses whatever is left.
    for entry_id in data.draw(st.permutations(full.entry_ids)):
        assert lazy.by_id[entry_id] == full.by_id[entry_id]
    for url in set(full.urls):
        first = next(e for e in full.entries if e.url == url)
        assert lazy.entry_by_url(url) == first
    assert lazy.entries == full.entries
    assert dict(lazy.by_id) == dict(full.by_id)


def _utf8(value) -> bool:
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _text_parse(path: Path, count: int) -> list:
    """The KB parsed without read_jsonl: the file's bytes split at the line
    ends text mode splits at, each line decoded and json.loads-ed on its own
    and built by _entry_from_dict, then the lone-surrogate, uniqueness and
    row checks."""
    seen: dict[str, int] = {}
    entries = []
    for lineno, line in enumerate(path.read_bytes().splitlines(keepends=True), start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}:{lineno}: not UTF-8: {exc}") from None
        if not text.strip():
            continue
        try:
            entry = _entry_from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}:{lineno}: malformed JSON: {exc}") from None
        except FieldError as exc:  # also a line that is JSON but not an object
            raise IngestError(f"{path}:{lineno}: {exc}") from None
        if not _utf8(to_record(entry)):
            field = next(name for name, value in to_record(entry).items() if not _utf8(value))
            raise IngestError(f"{path}:{lineno}: {field} holds a lone surrogate, which "
                              f"UTF-8 cannot encode (entry {entry.entry_id!r})") from None
        if entry.entry_id in seen:
            raise IngestError(f"{path}:{lineno}: duplicate entry_id {entry.entry_id!r} "
                              f"(first seen on line {seen[entry.entry_id]})")
        seen[entry.entry_id] = lineno
        if entry.embedding_row is not None and entry.embedding_row >= count:
            raise IngestError(
                f"{path}:{lineno}: embedding_row {entry.embedding_row} out of range "
                f"for manifest count {count} (entry {entry.entry_id!r})")
        entries.append(entry)
    return entries


def test_empty_kb_loads_through_its_catalog(tmp_path):
    entries, manifest = tmp_path / "entries.jsonl", tmp_path / "manifest.json"
    entries.write_bytes(b"")
    manifest.write_text('{"dim": 4, "count": 0, "normalized": true}', encoding="utf-8")
    write_catalog(ingest_kb(entries, manifest, use_catalog=False), entries)
    kb = ingest_kb(entries, manifest)
    assert kb._source is not None and len(kb) == 0 and kb.entries == []


# Whole lines to inject: a duplicate id (when e0 is there), a row past the
# manifest's count of 10, and a lone surrogate.
_FAULT_LINES = [b'\n{"entry_id": "e0", "url": "u"}\n',
                b'\n{"entry_id": "r", "url": "u", "embedding_row": 10}\n',
                b'\n{"entry_id": "s", "url": "u", "title": "a\\ud800"}\n']


@settings(max_examples=120, deadline=None)
@given(case=kb_texts(), faults=st.lists(st.tuples(
    st.floats(0, 1), st.sampled_from([b"\xff", b"\xc3", b"\r", b"\n", b"{", b'"', b"\x00",
                                      b"\r\n", b"\n \n\t\n", *_FAULT_LINES])),
    max_size=3))
def test_full_parse_equals_the_text_reader_and_names_the_same_error(tmp_path_factory, case, faults):
    files = _files(tmp_path_factory.mktemp("kb"), *case)
    raw = files.kb.read_bytes()
    for where, junk in faults:
        at = int(where * len(raw))
        raw = raw[:at] + junk + raw[at:]
    files.kb.write_bytes(raw)
    try:
        expected = _text_parse(files.kb, case[1])
    except IngestError as exc:
        with pytest.raises(IngestError) as got:
            ingest_kb(files.kb, files.manifest, use_catalog=False)
        assert str(got.value) == str(exc)
    else:
        assert ingest_kb(files.kb, files.manifest, use_catalog=False).entries == expected


@pytest.mark.parametrize("text", [
    '{"a": 1}\n', '{"a": 1}', ' {"a": 1}\n', '\ufeff{"a": 1}', '{"a": 1} \t\r\n', '{"a": 1}\x0b',
    '{"a": 1} x', '{"a": 1}{}', '[1, NaN, -Infinity]\n', '"s"\r', '', '\n', '{"a": }', '{"a": "\x00"}',
    'nul', '-', '{"a": 1, "a": 2}\n', '{"a": "\\ud800"}'])
def test_loads_equals_json_loads(text):
    try:
        expected = json.loads(text)
    except json.JSONDecodeError as exc:
        with pytest.raises(json.JSONDecodeError) as got:
            _loads(text)
        assert str(got.value) == str(exc)
    else:
        assert json.dumps(_loads(text)) == json.dumps(expected)


_GOOD = ['{"entry_id": "e0", "url": "u0", "embedding_row": 0}',
         '{"entry_id": "e1", "url": "u1", "title": "t", "image_refs": ["i"]}',
         '{"entry_id": "e2", "url": "u2", "embedding_row": 2}']


@pytest.mark.parametrize("text, message", [
    ("\n".join([*_GOOD, '{"entry_id": "e1", "url": "u9"}']) + "\n",
     ":4: duplicate entry_id 'e1' (first seen on line 2)"),
    ("\n".join([*_GOOD, '{"entry_id": "e3", "url": "u3", "embedding_row": 3}']),
     ":4: embedding_row 3 out of range for manifest count 3 (entry 'e3')"),
    ("\n".join([_GOOD[0], '{"entry_id": "e1", "url": "u1", "content": "\\ud800"}']),
     ":2: content holds a lone surrogate, which UTF-8 cannot encode (entry 'e1')"),
    ("\r\n".join([*_GOOD, '{"entry_id": "e3", "url": ""}']) + "\r\n",
     ":4: field 'url' must be a non-empty string, got \"\""),
    ("\r".join([*_GOOD, '{"entry_id": "e0", "url": "u"}']),
     ":4: duplicate entry_id 'e0' (first seen on line 1)"),
    ("\n\n \n".join([*_GOOD, '{"entry_id": 3, "url": "u"}']) + "\n\n",
     ":10: field 'entry_id' must be a string, got 3"),
    ("\r\n\r\r\n\n".join(_GOOD) + '\r\n{"entry_id": "e3"}',
     ":10: missing field 'url'"),
    (_GOOD[0] + '\n{"entry_id": "e1", "url": "u1", "title": "a\rb"}\n',
     ":2: malformed JSON: Invalid control character at: line 1 column 44 (char 43)"),
], ids=["duplicate-id", "row-out-of-range", "lone-surrogate", "crlf", "lone-cr", "blank-lines",
        "mixed-line-ends", "cr-inside-a-string"])
def test_injected_fault_names_its_line_and_message(tmp_path, text, message):
    files = _files(tmp_path, text, 3)
    with pytest.raises(IngestError) as got:
        ingest_kb(files.kb, files.manifest, use_catalog=False)
    assert str(got.value) == f"{files.kb}{message}"


_ANY_TEXT = st.text(max_size=12)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.fixed_dictionaries({
    "entry_id": st.text(min_size=1, max_size=8), "url": st.text(min_size=1, max_size=8),
    "title": _ANY_TEXT, "content": _ANY_TEXT, "image_refs": st.lists(_ANY_TEXT, max_size=3),
    "embedding_row": st.none() | st.integers(0, 9)}), max_size=6, unique_by=lambda r: r["entry_id"]),
    ascii_input=st.booleans())
def test_export_line_is_json_dumps_of_the_entry(tmp_path_factory, rows, ascii_input):
    text = "".join(json.dumps(row, ensure_ascii=ascii_input) + "\n" for row in rows)
    files = _files(tmp_path_factory.mktemp("kb"), text, 10)
    kb = ingest_kb(files.kb, files.manifest, use_catalog=False)
    entries = [KnowledgeEntry(**{**row, "image_refs": tuple(row["image_refs"])}) for row in rows]
    expected = [(json.dumps({"schema_version": SCHEMA_VERSION, **to_record(e)},
                            ensure_ascii=False) + "\n").encode() for e in entries]
    assert kb.export_lines == expected
    assert kb.entries == entries
    out = files.kb.with_name("normalized.jsonl")
    assert export_kb(kb, out) == len(rows)
    assert out.read_bytes() == b"".join(expected)
    # A KB built from entries exports the same bytes.
    assert export_kb(fixture_gen.kb_from_entries(entries, EmbeddingManifest(4, 10, True)),
                     out) == len(rows)
    assert out.read_bytes() == b"".join(expected)


def _read_kb(path: Path) -> KnowledgeBase:
    manifest = path.with_name("manifest.json")
    manifest.write_text(json.dumps({"dim": 4, "count": 1, "normalized": True}))
    return ingest_kb(path, manifest, use_catalog=False)


# reader -> (a good first line for it, the call that reads a file with it).
_READERS = {
    "kb": ('{"entry_id": "a", "url": "u"}', _read_kb),
    "queries": ('{"query_id": "q", "question": "?", "gold_answers": ["a"]}', ingest_queries),
    "results": ('{"query_id": "q", "hits": [], "k": 5}', read_results),
    "traces": ('{"query_id": "q", "variant": "param"}', read_traces),
    "records": ('{"query_id": "q", "bucket": "b", "objective": "prki", "target": "t", '
                '"gold_answer": "a", "context_entry_ids": [], "provenance": {}}', read_records),
    "mock_script": ('{"query_id": "q", "stage": "s", "text": "t"}',
                    MockBackend.from_script_file),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_of_two_bad_lines_the_error_names_the_first(tmp_path, reader):
    good, read = _READERS[reader]
    path = tmp_path / "input.jsonl"
    path.write_bytes(good.encode() + b'\n{bad json\n{"entry_id": "\xff"}\n')
    with pytest.raises(KbvqaError, match=r"input\.jsonl:2: malformed JSON"):
        read(path)
    path.write_bytes(good.encode() + b'\n{"a": "\xff"}\n{bad json\n')
    with pytest.raises(KbvqaError, match=r"input\.jsonl:2: not UTF-8: .*0xff"):
        read(path)


def test_threads_sharing_a_catalog_backed_kb_each_parse_a_line_once(bundle, tmp_path, parses):
    d = tmp_path / "kb"
    d.mkdir()
    shutil.copyfile(bundle.entries_path, d / "entries.jsonl")
    write_catalog(ingest_kb(d / "entries.jsonl", bundle.kb_manifest, use_catalog=False),
                  d / "entries.jsonl")
    parses.clear()
    kb = ingest_kb(d / "entries.jsonl", bundle.kb_manifest)
    ids = kb.entry_ids
    start = threading.Barrier(8)

    def look_up(seed: int) -> list:
        order = random.Random(seed).sample(ids, len(ids))
        start.wait(timeout=60)
        return [(entry_id, kb.by_id[entry_id]) for entry_id in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(look_up, seed) for seed in range(8)]
            found = [pair for future in futures for pair in future.result(timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(parses) == sorted(ids)
    assert all(entry is kb.by_id[entry_id] for entry_id, entry in found)


def test_each_span_is_the_bytes_of_its_line(tmp_path):
    text = '{"entry_id": "a", "url": "u"}\r\n\r\n{"entry_id": "b", "url": "é"}\r{"entry_id": "c", "url": "v"}'
    files = _files(tmp_path, text, 1)
    kb = ingest_kb(files.kb, files.manifest, use_catalog=False)
    raw = files.kb.read_bytes()
    assert [raw[o:o + n] for o, n in zip(kb.line_offsets, kb.line_lengths)] == [
        b'{"entry_id": "a", "url": "u"}\r\n', '{"entry_id": "b", "url": "é"}\r'.encode(),
        b'{"entry_id": "c", "url": "v"}']


def test_lone_cr_the_full_parse_rejects_gets_no_catalog(bundle, tmp_path, capsys):
    # A raw CR inside a JSON string ends the line there in text mode.
    text = '{"entry_id": "a", "url": "u", "title": "x\ry"}\n'
    files = _files(tmp_path, text, 1)
    assert main(["ingest", "--kb", str(files.kb), "--kb-manifest", str(files.manifest),
                 "--queries", str(bundle.queries_path), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{files.kb}:1: malformed JSON" in capsys.readouterr().err
    assert not catalog_path(files.kb).exists()


def test_catalog_holds_versions_digests_and_columns(bundle, tmp_path):
    d = tmp_path / "kb"
    d.mkdir()
    kb_file = d / "entries.jsonl"
    shutil.copyfile(bundle.entries_path, kb_file)
    assert main(["ingest", "--kb", str(kb_file), "--kb-manifest", str(bundle.kb_manifest),
                 "--queries", str(bundle.queries_path), "--out-dir", str(tmp_path / "out")]) == 0
    catalog, spans = _catalog_lines(catalog_path(kb_file).read_bytes())
    full = ingest_kb(kb_file, bundle.kb_manifest, use_catalog=False)
    assert catalog["catalog_version"] == CATALOG_VERSION
    assert catalog["kb_sha256"] == spans["kb_sha256"] == full.sha256
    assert catalog["kb_manifest_sha256"] == full.manifest_sha256
    assert catalog["entry_id"] == [row["entry_id"] for row in read_jsonl(kb_file, lambda o, n: o, IngestError)]
    assert "line_offset" not in catalog
    assert (spans["line_offset"], spans["line_length"]) == (full.line_offsets, full.line_lengths)
    assert sorted(p.name for p in d.iterdir()) == ["entries.jsonl", "entries.jsonl.catalog.json"]


# -- stale, damaged and tampered catalogs ---------------------------------


@pytest.fixture(scope="module")
def retrievals(bundle, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("catalog_retrieve")
    assert main(["retrieve", "--kb", str(bundle.entries_path), "--kb-manifest",
                 str(bundle.kb_manifest), "--kb-embeddings", str(bundle.kb_embeddings),
                 "--queries", str(bundle.queries_path), "--query-manifest",
                 str(bundle.query_manifest), "--query-embeddings", str(bundle.query_embeddings),
                 "--k", "10", "--out-dir", str(out)]) == 0
    return out / "retrieval_results.jsonl"


@pytest.fixture
def kb_dir(bundle, tmp_path) -> SimpleNamespace:
    """Copies of the KB files, ingested, so the catalog sits beside the entries."""
    d = tmp_path / "kb"
    d.mkdir()
    files = SimpleNamespace(kb=d / "entries.jsonl", manifest=d / "manifest.json", dir=d)
    shutil.copyfile(bundle.entries_path, files.kb)
    shutil.copyfile(bundle.kb_manifest, files.manifest)
    files.catalog = catalog_path(files.kb)
    files.ingest = lambda: main([
        "ingest", "--kb", str(files.kb), "--kb-manifest", str(files.manifest),
        "--queries", str(bundle.queries_path), "--out-dir", str(tmp_path / "ingest")])
    assert files.ingest() == 0
    assert files.catalog.is_file()
    return files


@pytest.fixture
def parses(monkeypatch) -> list[str]:
    """The entry_id of every line parsed: each line a full parse checks, and
    each catalog line _entry_from_dict turns into an entry."""
    seen: list[str] = []
    real_entry = kb_module._entry_from_dict
    real_parse_kb = kb_module._parse_kb

    def counting_entry(obj):
        entry = real_entry(obj)
        seen.append(entry.entry_id)
        return entry

    def counting_parse_kb(*args):
        kb = real_parse_kb(*args)
        seen.extend(kb.entry_ids)
        return kb

    monkeypatch.setattr(kb_module, "_entry_from_dict", counting_entry)
    monkeypatch.setattr(kb_module, "_parse_kb", counting_parse_kb)
    return seen


def _commands(bundle, files, retrievals: Path, out: Path) -> dict[str, list[str]]:
    kb = ["--kb", str(files.kb), "--kb-manifest", str(files.manifest)]
    q = ["--queries", str(bundle.queries_path)]
    r = ["--retrievals", str(retrievals)]
    mock = ["--mock-script", str(bundle.mock_script), "--workers", "1"]
    core = out / "core" / "traces.jsonl"
    return {
        "core": ["run", "--variant", "core", *kb, *q, *r, *mock, "--out-dir", str(core.parent)],
        "oracle": ["run", "--variant", "oracle", *kb, *q, *mock, "--out-dir", str(out / "oracle")],
        "score": ["score", "--traces", str(core), *q, *r, *kb, "--out-dir", str(out / "score")],
    }


def _run_all(bundle, files, retrievals: Path, out: Path) -> dict[str, bytes]:
    """Every output file of the commands by relative path, run_config.json aside."""
    for argv in _commands(bundle, files, retrievals, out).values():
        assert main(argv) == 0, argv
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_config.json"}


def _flip_title_byte(files) -> None:
    raw = bytearray(files.kb.read_bytes())
    raw[raw.index(b"Entry 042")] ^= 0x01  # "Entry" becomes "Dntry": still a valid KB
    files.kb.write_bytes(bytes(raw))


def _bump_manifest_count(files) -> None:
    manifest = json.loads(files.manifest.read_text())
    manifest["count"] += 1
    files.manifest.write_text(json.dumps(manifest))


def _edit_catalog(change):
    def edit(files) -> None:
        files.catalog.write_bytes(change(files.catalog.read_bytes()))
    return edit


def _catalog_lines(raw: bytes) -> list[dict]:
    """The catalog's two lines: versions, digests and columns, then the line spans."""
    assert raw.count(b"\n") == 2 and raw.endswith(b"\n")
    return [json.loads(line) for line in raw.splitlines()]


def _catalog_bytes(lines: list[dict]) -> bytes:
    return b"".join(json.dumps(line).encode() + b"\n" for line in lines)


def _other_version(raw: bytes) -> bytes:
    catalog, spans = _catalog_lines(raw)
    catalog["catalog_version"] = CATALOG_VERSION + 1
    return _catalog_bytes([catalog, spans])


def _version_one_layout(raw: bytes) -> bytes:
    """The same catalog as version 1 wrote it: one line that holds the spans too."""
    catalog, spans = _catalog_lines(raw)
    del spans["kb_sha256"]
    return json.dumps({**catalog, "catalog_version": 1, **spans},
                      separators=(",", ":")).encode()


@pytest.mark.parametrize("damage", [
    _flip_title_byte,
    _bump_manifest_count,
    _edit_catalog(lambda raw: raw[:len(raw) // 2]),
    _edit_catalog(_other_version),
    _edit_catalog(_version_one_layout),
    _edit_catalog(lambda raw: b"\x00not json"),
    _edit_catalog(lambda raw: json.dumps([1, 2]).encode()),
], ids=["kb-byte-flipped", "manifest-count-changed", "catalog-truncated", "catalog-version",
        "catalog-version-1", "catalog-not-json", "catalog-not-an-object"])
def test_stale_or_damaged_catalog_takes_the_full_path(bundle, kb_dir, retrievals, tmp_path,
                                                      parses, damage):
    damage(kb_dir)
    with_catalog = _run_all(bundle, kb_dir, retrievals, tmp_path / "with")
    assert len(parses) == 3 * 100, "every command should have parsed all 100 lines"
    kb_dir.catalog.unlink()
    assert _run_all(bundle, kb_dir, retrievals, tmp_path / "without") == with_catalog


def _swap(column: str, i: int, j: int):
    def change(raw: bytes) -> bytes:
        lines = _catalog_lines(raw)
        values = next(line[column] for line in lines if column in line)
        values[i], values[j] = values[j], values[i]
        return _catalog_bytes(lines)
    return change


@pytest.mark.parametrize("column", ["line_offset", "entry_id", "url"])
def test_catalog_pointing_at_other_lines_exits_two(bundle, kb_dir, retrievals, tmp_path,
                                                   capsys, column):
    # The first query's top two hits, which the core run looks up.
    first = read_results(retrievals)[0]
    ordinals = sorted(int(entry_id[1:]) for entry_id, _ in first.hits[:2])
    _edit_catalog(_swap(column, *ordinals))(kb_dir)
    commands = _commands(bundle, kb_dir, retrievals, tmp_path / "out")
    assert main(commands["core"]) == 2
    err = capsys.readouterr().err
    assert f"KB catalog {kb_dir.catalog} does not match {kb_dir.kb}" in err
    assert "run `kbvqa ingest` again" in err


def _spans_of_another_kb(raw: bytes) -> bytes:
    catalog, spans = _catalog_lines(raw)
    spans["kb_sha256"] = "0" * 64
    return _catalog_bytes([catalog, spans])


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:raw.index(b"\n") + 1],
    lambda raw: raw[:raw.index(b"\n") + 1] + b"\x00not json\n",
    _spans_of_another_kb,
], ids=["spans-line-missing", "spans-line-not-json", "spans-of-another-kb"])
def test_spans_are_read_only_when_an_entry_is_looked_up(bundle, kb_dir, retrievals, tmp_path,
                                                         capsys, damage):
    kb = ["--kb", str(kb_dir.kb), "--kb-manifest", str(kb_dir.manifest)]
    retrieve = ["retrieve", *kb, "--kb-embeddings", str(bundle.kb_embeddings),
                "--queries", str(bundle.queries_path), "--query-manifest",
                str(bundle.query_manifest), "--query-embeddings", str(bundle.query_embeddings),
                "--k", "10"]
    _edit_catalog(damage)(kb_dir)
    loaded = ingest_kb(kb_dir.kb, kb_dir.manifest)
    assert loaded._source is not None and loaded.line_offsets is None
    assert main([*retrieve, "--out-dir", str(tmp_path / "retrieve")]) == 0
    assert (tmp_path / "retrieve" / "retrieval_results.jsonl").read_bytes() == (
        retrievals.read_bytes())
    capsys.readouterr()
    assert main(_commands(bundle, kb_dir, retrievals, tmp_path / "out")["core"]) == 2
    assert capsys.readouterr().err == (
        f"error: KB catalog {kb_dir.catalog} does not match {kb_dir.kb}: its line spans are "
        "damaged or of other entries; delete the catalog or run `kbvqa ingest` again\n")


def test_line_made_invalid_after_ingest_exits_two_naming_it(bundle, kb_dir, retrievals,
                                                             tmp_path, capsys):
    lines = kb_dir.kb.read_bytes().splitlines(keepends=True)
    lines[4] = lines[4].replace(b'"url": "', b'"url": 7, "x": "', 1)
    kb_dir.kb.write_bytes(b"".join(lines))
    commands = _commands(bundle, kb_dir, retrievals, tmp_path / "out")
    for name in ("core", "score"):
        assert main(commands[name]) == 2
        assert f"{kb_dir.kb}:5: field 'url' must be a string, got 7" in capsys.readouterr().err
    kb_dir.catalog.unlink()
    assert main(commands["core"]) == 2
    assert f"{kb_dir.kb}:5: field 'url' must be a string, got 7" in capsys.readouterr().err


def _assert_ingest_warns_and_writes_no_catalog(files, capsys, before: bytes | None) -> None:
    assert files.ingest() == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"warning: cannot write the KB catalog {files.catalog}")
    names = sorted(p.name for p in files.dir.iterdir())
    assert not [name for name in names if name.endswith(".tmp")]
    if before is None:
        assert not files.catalog.exists()
    else:
        assert files.catalog.read_bytes() == before


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes into read-only directories; "
                    "test_catalog_path_taken_by_a_directory covers the same error path")
def test_read_only_kb_directory_ingests_without_a_catalog(kb_dir, capsys):
    kb_dir.catalog.unlink()
    kb_dir.dir.chmod(0o555)
    try:
        _assert_ingest_warns_and_writes_no_catalog(kb_dir, capsys, None)
    finally:
        kb_dir.dir.chmod(0o755)


def test_catalog_write_refused_with_eacces_ingests_without_a_catalog(kb_dir, capsys,
                                                                    monkeypatch):
    """What a read-only KB directory does to the catalog write, for any user."""
    kb_dir.catalog.unlink()
    real_open = Path.open

    def refused(path, mode="r", *args, **kwargs):
        if path.parent == kb_dir.dir and "w" in mode:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refused)
    _assert_ingest_warns_and_writes_no_catalog(kb_dir, capsys, None)


def test_catalog_path_taken_by_a_directory_ingests_with_a_warning(kb_dir, capsys):
    kb_dir.catalog.unlink()
    kb_dir.catalog.mkdir()
    (kb_dir.catalog / "keep").write_text("x")
    assert kb_dir.ingest() == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"warning: cannot write the KB catalog {kb_dir.catalog}")
    assert not [p for p in kb_dir.dir.iterdir() if p.name.endswith(".tmp")]
    assert ingest_kb(kb_dir.kb, kb_dir.manifest)._source is None


def test_interrupted_catalog_write_keeps_the_previous_file(kb_dir, monkeypatch):
    before = kb_dir.catalog.read_bytes()
    kb_dir.kb.write_bytes(kb_dir.kb.read_bytes() + b"\n")  # the next catalog would differ
    real_replace = os.replace

    def interrupted(src, dst):
        if Path(dst) == kb_dir.catalog:
            raise KeyboardInterrupt
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        kb_dir.ingest()
    assert kb_dir.catalog.read_bytes() == before
    assert sorted(p.name for p in kb_dir.dir.iterdir()) == [
        "entries.jsonl", "entries.jsonl.catalog.json", "manifest.json"]


# -- the fast path is taken -----------------------------------------------


def test_commands_with_a_catalog_parse_only_the_entries_they_use(bundle, kb_dir, retrievals,
                                                                 tmp_path, parses):
    commands = _commands(bundle, kb_dir, retrievals, tmp_path / "out")
    assert main(commands["core"]) == 0
    hit_ids = {entry_id for r in read_results(retrievals) for entry_id, _ in r.hits[:5]}
    assert sorted(parses) == sorted(hit_ids)  # each hit once, at most top-k x queries
    assert len(parses) <= 5 * 20
    out = tmp_path / "out"
    assert main(["probe-unimodal", "--kb", str(kb_dir.kb), "--kb-manifest", str(kb_dir.manifest),
                 "--queries", str(bundle.queries_path), "--retrievals", str(retrievals),
                 "--mock-script", str(bundle.mock_script), "--out-dir", str(out / "probe")]) == 0
    parses.clear()
    assert main(["mine-vtki", "--probe-traces", str(out / "probe" / "probe_traces.jsonl"),
                 "--kb", str(kb_dir.kb), "--kb-manifest", str(kb_dir.manifest),
                 "--queries", str(bundle.queries_path), "--out-dir", str(out / "vtki")]) == 0
    assert main(commands["score"]) == 0
    assert parses == []


def test_index_takes_ids_urls_and_rows_from_the_catalog(bundle, kb_dir, tmp_path, parses):
    shutil.copyfile(bundle.kb_embeddings, kb_dir.dir / "kb.f32")
    argv = ["index", "--kb", str(kb_dir.kb), "--kb-manifest", str(kb_dir.manifest),
            "--kb-embeddings", str(kb_dir.dir / "kb.f32")]
    assert main([*argv, "--out-dir", str(tmp_path / "with")]) == 0
    assert parses == []
    kb_dir.catalog.unlink()
    assert main([*argv, "--out-dir", str(tmp_path / "without")]) == 0
    assert len(parses) == 100
    assert (tmp_path / "with" / "index.npz").read_bytes() == (
        tmp_path / "without" / "index.npz").read_bytes()
