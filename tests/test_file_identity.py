"""A recorded sha256 is reused only while the file's stat identity holds.

`ingest` records the KB file's identity in the catalog and `index` records
the embedding file's in index.npz, each only once the file has settled
(records.SETTLED_NS). A later command whose fstat of the file still gives
that identity takes the recorded digest instead of hashing the file. Every
tamper that goes through the file system must still make `retrieve --index`
stale, and a command must hash only the files whose digest it uses.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from kbvqa import records
from kbvqa.cli import main
from kbvqa.kb import catalog_path, load_embeddings
from kbvqa.records import SETTLED_NS, FileDigest, identity_holds, stat_identity

# Long enough for any file system with sub-second timestamps to stamp a
# later change with a later time than the one before it.
TICK_S = 0.05


class HashSpy:
    """Every sha256 object made since it was installed or last cleared."""

    def __init__(self, monkeypatch):
        self.made = []
        real = hashlib.sha256

        def spy(*args, **kwargs):
            self.made.append(real(*args, **kwargs))
            return self.made[-1]

        monkeypatch.setattr(hashlib, "sha256", spy)

    def files(self, *paths) -> list:
        """Those of paths whose bytes some sha256 object was fed."""
        digests = {h.hexdigest() for h in self.made}
        return [path for path in paths if _sha256(path) in digests]


@pytest.fixture
def hashed(monkeypatch):
    return HashSpy(monkeypatch)


def _sha256(path, _sha256=hashlib.sha256) -> str:
    """The file's digest, taken with the sha256 from before any spy."""
    return _sha256(path.read_bytes()).hexdigest()


def _settled_clock(monkeypatch):
    """records' clock, moved past SETTLED_NS, as if every file were that old."""
    monkeypatch.setattr(records, "_clock_ns", lambda: time.time_ns() + SETTLED_NS + 10**8,
                        raising=False)


@pytest.fixture
def kb_copy(bundle, tmp_path):
    """Fresh copies of the KB files."""
    d = tmp_path / "kb"
    d.mkdir()
    files = SimpleNamespace(
        kb=d / "entries.jsonl", kb_manifest=d / "manifest.json", kb_embeddings=d / "kb.f32",
        index=d / "index" / "index.npz", out=tmp_path / "out",
    )
    for name in ("kb", "kb_manifest", "kb_embeddings"):
        source = bundle.entries_path if name == "kb" else getattr(bundle, name)
        getattr(files, name).write_bytes(source.read_bytes())
    return files


def _kb_flags(files):
    return ["--kb", str(files.kb), "--kb-manifest", str(files.kb_manifest)]


def _ingest_and_index(bundle, files):
    assert main(["ingest", *_kb_flags(files), "--queries", str(bundle.queries_path),
                 "--out-dir", str(files.out.parent / "ingest")]) == 0
    assert main(["index", *_kb_flags(files), "--kb-embeddings", str(files.kb_embeddings),
                 "--out-dir", str(files.index.parent)]) == 0


def _retrieve(bundle, files, out, *extra):
    return main([
        "retrieve", *_kb_flags(files), *extra, "--queries", str(bundle.queries_path),
        "--query-manifest", str(bundle.query_manifest),
        "--query-embeddings", str(bundle.query_embeddings), "--k", "10", "--out-dir", str(out),
    ])


def _recorded(files) -> tuple[object, str]:
    """The KB identity the catalog holds, and the embedding identity the index holds."""
    head = json.loads(catalog_path(files.kb).read_bytes().splitlines()[0])
    with np.load(files.index, allow_pickle=False) as saved:
        return head.get("kb_identity"), saved["kb_embeddings_identity"].item()


@pytest.fixture
def settled(bundle, kb_copy, monkeypatch):
    """kb_copy after `ingest` and `index` over files that count as settled."""
    _settled_clock(monkeypatch)
    _ingest_and_index(bundle, kb_copy)
    assert _recorded(kb_copy) == (stat_identity(kb_copy.kb.stat()),
                                  stat_identity(kb_copy.kb_embeddings.stat()))
    return kb_copy


# -- the rule --------------------------------------------------------------


def test_identity_is_recorded_only_past_the_margin(tmp_path, monkeypatch):
    path = tmp_path / "f.bin"
    path.write_bytes(b"abc")
    st = path.stat()
    changed = max(st.st_mtime_ns, st.st_ctime_ns)
    with path.open("rb") as fh:
        for now, settled in ((changed + SETTLED_NS - 1, False), (changed + SETTLED_NS, True),
                             (changed - SETTLED_NS, False)):
            monkeypatch.setattr(records, "_clock_ns", lambda now=now: now)
            digest = FileDigest()
            digest.watch(fh.fileno())
            digest.update(fh.read())
            digest.settle()
            fh.seek(0)
            assert digest.hexdigest() == hashlib.sha256(b"abc").hexdigest()
            assert digest.identity == (stat_identity(st) if settled else None)


def test_a_file_that_changes_while_it_is_hashed_gets_no_identity(tmp_path, monkeypatch):
    _settled_clock(monkeypatch)
    path = tmp_path / "f.bin"
    path.write_bytes(b"abc")
    time.sleep(TICK_S)
    with path.open("rb") as fh:
        digest = FileDigest()
        digest.watch(fh.fileno())
        digest.update(fh.read())
        with path.open("r+b") as writer:
            writer.write(b"x")
        digest.settle()
    assert digest.identity is None


@pytest.mark.parametrize("recorded", [None, "", 7, "0:0:0:0:0"])
def test_an_absent_empty_or_other_identity_never_holds(tmp_path, recorded):
    path = tmp_path / "f.bin"
    path.write_bytes(b"abc")
    assert not identity_holds(path.stat(), recorded)
    assert identity_holds(path.stat(), stat_identity(path.stat()))


def test_fresh_inputs_get_no_recorded_identity(bundle, kb_copy):
    """Files written a moment ago are within the margin: the catalog holds
    null and the index "", and the next command hashes them as before."""
    _ingest_and_index(bundle, kb_copy)
    assert _recorded(kb_copy) == (None, "")


def test_a_matching_identity_is_trusted_without_a_hash(settled, hashed):
    """load_embeddings takes the recorded digest while the identity holds,
    even one that is not the file's: the identity, not the bytes, is checked."""
    hashed.made.clear()
    identity = stat_identity(settled.kb_embeddings.stat())
    matrix = load_embeddings(settled.kb_manifest, settled.kb_embeddings, "0" * 64, identity)
    assert (matrix.sha256, matrix.identity) == ("0" * 64, identity)
    assert hashed.made == []


# -- what each command hashes ----------------------------------------------


def test_retrieve_without_an_index_hashes_no_matrix(bundle, kb_copy, tmp_path, hashed):
    """Nothing compares the digest of --kb-embeddings or of
    --query-embeddings there, and `retrieve --index` needs only the first."""
    _ingest_and_index(bundle, kb_copy)
    hashed.made.clear()
    assert _retrieve(bundle, kb_copy, tmp_path / "plain",
                     "--kb-embeddings", str(kb_copy.kb_embeddings)) == 0
    assert hashed.files(kb_copy.kb_embeddings, bundle.query_embeddings) == []
    assert _retrieve(bundle, kb_copy, tmp_path / "indexed", "--index", str(kb_copy.index)) == 0
    assert hashed.files(kb_copy.kb_embeddings, bundle.query_embeddings) == [
        kb_copy.kb_embeddings]
    assert (tmp_path / "plain" / "retrieval_results.jsonl").read_bytes() == (
        tmp_path / "indexed" / "retrieval_results.jsonl").read_bytes()


def test_untouched_settled_inputs_are_not_hashed_again(bundle, settled, tmp_path, hashed):
    """`retrieve --index` over the files `ingest` and `index` saw: neither
    --kb nor the matrix is hashed, and the results are those of a run that
    checks every row."""
    hashed.made.clear()
    assert _retrieve(bundle, settled, tmp_path / "trusted", "--index", str(settled.index)) == 0
    assert hashed.files(settled.kb, settled.kb_embeddings) == []
    os.remove(catalog_path(settled.kb))
    assert _retrieve(bundle, settled, tmp_path / "checked",
                     "--kb-embeddings", str(settled.kb_embeddings)) == 0
    assert (tmp_path / "trusted" / "retrieval_results.jsonl").read_bytes() == (
        tmp_path / "checked" / "retrieval_results.jsonl").read_bytes()


# -- tampers on the trusted path -------------------------------------------


def _flipped(name: str, raw: bytes) -> tuple[int, bytes]:
    """The offset of one changed byte, and raw with it changed: still a valid
    file of its kind, but not the one `index` saw."""
    if name == "kb":
        offset = raw.index(b"Entry 042")
    elif name == "kb_manifest":  # "count": 100 becomes 101
        offset = raw.index(b'"count": 100') + len(b'"count": 10')
    else:
        offset = 4 * 16 * 7 + 1
    changed = bytearray(raw)
    changed[offset] ^= 0x01
    return offset, bytes(changed)


def _write_a_byte(path, offset, changed):
    with path.open("r+b") as fh:
        fh.seek(offset)
        fh.write(changed[offset:offset + 1])


def _rewrite_keeping_mtime(path, offset, changed):
    st = path.stat()
    path.write_bytes(changed)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


def _rename_over(path, offset, changed):
    st = path.stat()
    other = path.with_name(path.name + ".new")
    other.write_bytes(changed)
    os.utime(other, ns=(st.st_atime_ns, st.st_mtime_ns))
    os.replace(other, path)


def _truncate_and_extend(path, offset, changed):
    st = path.stat()
    os.truncate(path, offset)
    with path.open("ab") as fh:
        fh.write(changed[offset:])
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


@pytest.mark.parametrize("tamper", [
    _write_a_byte, _rewrite_keeping_mtime, _rename_over, _truncate_and_extend,
], ids=["byte-written", "rewritten-mtime-kept", "renamed-over", "truncated-and-extended"])
@pytest.mark.parametrize("name", ["kb", "kb_manifest", "kb_embeddings"])
def test_a_tampered_input_still_makes_the_index_stale(bundle, settled, capsys, name, tamper):
    path = getattr(settled, name)
    raw = path.read_bytes()
    offset, changed = _flipped(name, raw)
    time.sleep(TICK_S)  # so the tamper's ctime differs from the recorded one
    tamper(path, offset, changed)
    assert path.read_bytes() == changed and len(changed) == len(raw)
    capsys.readouterr()
    assert _retrieve(bundle, settled, settled.out, "--index", str(settled.index)) == 2
    err = capsys.readouterr().err
    flag = "--" + name.replace("_", "-")
    assert f"does not match --kb {settled.kb}" in err and "rebuild it with `kbvqa index`" in err
    assert f"{flag} {path} is not the file it was built from" in err
    assert not settled.out.exists()


# -- the recorded fields ---------------------------------------------------


def _rewrite_index(files, **members):
    """The index with members replaced, or removed where the value is None."""
    with np.load(files.index, allow_pickle=False) as saved:
        arrays = {name: saved[name] for name in saved.files}
    arrays.update(members)
    np.savez(files.index, **{k: v for k, v in arrays.items() if v is not None})


@pytest.mark.parametrize("recorded", [None, ""], ids=["absent", "empty"])
def test_inputs_without_a_recorded_identity_are_hashed_as_before(
        bundle, settled, tmp_path, hashed, recorded):
    """An index and a catalog from before identities, or whose files had not
    settled, are read as before: the files are hashed and must match."""
    assert _retrieve(bundle, settled, tmp_path / "trusted", "--index", str(settled.index)) == 0
    _rewrite_index(settled, kb_embeddings_identity=None if recorded is None else np.array(""))
    catalog = catalog_path(settled.kb)
    head, spans = catalog.read_bytes().splitlines()
    head = json.loads(head)
    del head["kb_identity"]
    if recorded is not None:
        head["kb_identity"] = recorded
    catalog.write_bytes(json.dumps(head).encode() + b"\n" + spans + b"\n")
    hashed.made.clear()
    assert _retrieve(bundle, settled, tmp_path / "hashed", "--index", str(settled.index)) == 0
    assert hashed.files(settled.kb, settled.kb_embeddings) == [settled.kb, settled.kb_embeddings]
    assert (tmp_path / "trusted" / "retrieval_results.jsonl").read_bytes() == (
        tmp_path / "hashed" / "retrieval_results.jsonl").read_bytes()


@pytest.mark.parametrize("member, message", [
    (np.int64(7), "its kb_embeddings_identity is not one string"),
    (np.array(["a", "b"]), "its kb_embeddings_identity is not one string"),
    (np.array(["x"], dtype=object), "not an intact pickle-free index"),
], ids=["not-a-string", "two-strings", "pickled"])
def test_a_malformed_identity_member_is_rejected(bundle, settled, capsys, member, message):
    _rewrite_index(settled, kb_embeddings_identity=member)
    assert _retrieve(bundle, settled, settled.out, "--index", str(settled.index)) == 2
    err = capsys.readouterr().err
    assert message in err and "rebuild it with `kbvqa index`" in err
    assert not settled.out.exists()
