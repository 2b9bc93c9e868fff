"""Knowledge-base and query-set ingestion.

File formats (a record holds its class's fields in declaration order):
  entries.jsonl    one KnowledgeEntry per line, after "schema_version"
  queries.jsonl    one Query per line
  embeddings.manifest.json   {"dim", "count", "normalized", "dtype": "f32le"}
  embeddings.bin             raw little-endian float32, row-major, count*dim values
  entries.jsonl.catalog.json written by `kbvqa ingest` beside the entries
                   (write_catalog), two lines of JSON: the sha256 of the
                   entries file and of the manifest, the entries file's stat
                   identity, and per entry, in file order, its id, url and
                   embedding row; then the byte span of each entry's line,
                   read only when an entry is looked up

Loaded handles are immutable after ingestion and safe for concurrent readers.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import threading
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import IngestError
from .records import (
    FieldError, FileDigest, _check_unique, _lone_surrogate, atomic_write, field_error,
    from_record, identity_holds, read_json_record, read_jsonl, record_reader, to_record,
    unique_query_ids, utf8_encodable, write_jsonl,
)

if TYPE_CHECKING:
    import numpy as np

SCHEMA_VERSION = 1

SPLIT_TAGS = ("unseen_q", "unseen_e", "other")
ANSWER_TYPES = ("text", "numeric", "numeric_range")

NORM_TOLERANCE = 1e-4
NORM_BLOCK_ROWS = 4096

# A byte value: `in` a bytes object, it is one memchr.
_BACKSLASH = ord("\\")

CATALOG_VERSION = 2
CATALOG_SUFFIX = ".catalog.json"
# The catalog's per-entry columns, each a list in file order: those of its
# first line, and the spans of its second. An entry's line is the
# line_length bytes at line_offset, its line end included.
CATALOG_COLUMNS = ("entry_id", "url", "embedding_row")
CATALOG_SPANS = ("line_offset", "line_length")


@dataclass(frozen=True)
class KnowledgeEntry:
    """One knowledge-base record: an article plus its image references."""

    entry_id: str
    url: str
    title: str = ""
    content: str = ""
    image_refs: tuple[str, ...] = ()
    embedding_row: int | None = None


@dataclass(frozen=True)
class Query:
    """One VQA instance: an image-question pair with its gold answers."""

    query_id: str
    question: str
    image_ref: str = ""
    gold_answers: tuple[str, ...] = ()
    gold_entry_url: str | None = None
    split_tag: str = "other"
    answer_type: str = "text"
    query_embedding_row: int | None = None

    def gold_range(self) -> tuple[float, float]:
        """Parsed (lo, hi) bounds of a numeric_range gold answer."""
        return _parse_range(self.gold_answers[0])


@dataclass(frozen=True)
class EmbeddingManifest:
    """The embedding manifest: the matrix's shape, whether its rows are
    already unit length, and its element type, of which only f32le is read."""

    dim: int
    count: int
    normalized: bool
    dtype: str = "f32le"

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise field_error("dim", "a positive integer", self.dim)
        if self.count < 0:
            raise field_error("count", "a non-negative integer", self.count)
        if self.dtype != "f32le":
            raise field_error("dtype", '"f32le"', self.dtype)


@dataclass
class EmbeddingMatrix:
    """Row-major float32 matrix of L2-normalized embedding vectors, count x dim."""

    data: np.ndarray
    sha256: str | None = None  # of the file's bytes, as read
    identity: str | None = None  # the file's stat identity, when settled (records.FileDigest)


class KnowledgeBase:
    """Validated entry set plus the manifest of its embedding matrix.

    Entry ids, URLs and embedding rows are kept as columns in file order,
    so len(), URL maps and index rows never need the entries; the
    positional columns are the CATALOG_COLUMNS, then the CATALOG_SPANS.
    sha256 and manifest_sha256 are those of the entries and manifest bytes
    ingest_kb read, and identity the entries file's stat identity when a
    full parse found it settled (records.FileDigest). A KB that ingest_kb
    parsed in full holds each entry's line as export_kb writes it, in
    export_lines; one that it loaded through its catalog holds, in source,
    the entries file mapped read-only, its path and the catalog's, and
    reads the spans from the catalog when it first needs them. Either parses an entry's line the
    first time the entry is looked up, through by_id, entry_by_url or
    entries.
    """

    def __init__(self, manifest: EmbeddingManifest, entry_ids: list[str], urls: list[str],
                 embedding_rows: list[int | None], line_offsets: list[int] | None = None,
                 line_lengths: list[int] | None = None, *, sha256: str | None = None,
                 manifest_sha256: str | None = None, identity: str | None = None,
                 export_lines: list[bytes] | None = None,
                 source: tuple[bytes | mmap.mmap, Path, Path] | None = None) -> None:
        self.manifest = manifest
        self.entry_ids, self.urls, self.embedding_rows = entry_ids, urls, embedding_rows
        self.line_offsets, self.line_lengths = line_offsets, line_lengths
        self.sha256, self.manifest_sha256, self.identity = sha256, manifest_sha256, identity
        self.export_lines = export_lines
        self._source = source
        self._parsed: list[KnowledgeEntry | None] = [None] * len(entry_ids)
        self._parse_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.entry_ids)

    @property
    def entries(self) -> list[KnowledgeEntry]:
        """Every entry, in file order."""
        return [self._entry(i) for i in range(len(self))]

    @property
    def by_id(self) -> Mapping[str, KnowledgeEntry]:
        return _EntriesById(self)

    def entry_by_url(self, url: str) -> KnowledgeEntry | None:
        """First entry whose url matches byte-exactly."""
        i = self._first_by_url.get(url)
        return None if i is None else self._entry(i)

    @cached_property
    def _first_by_url(self) -> dict[str, int]:
        # Built on the first lookup; reversed so the first-ingested entry wins.
        return dict(zip(reversed(self.urls), range(len(self.urls) - 1, -1, -1)))

    @cached_property
    def _ordinal(self) -> dict[str, int]:
        return {entry_id: i for i, entry_id in enumerate(self.entry_ids)}

    def url_map(self) -> dict[str, str]:
        """entry_id -> url for every entry."""
        return dict(zip(self.entry_ids, self.urls))

    def _entry(self, i: int) -> KnowledgeEntry:
        entry = self._parsed[i]
        if entry is None:
            # Locked, so every lookup of an entry returns the one object.
            with self._parse_lock:
                entry = self._parsed[i]
                if entry is None:
                    entry = self._parsed[i] = self._parse_line(i)
        return entry

    def _parse_line(self, i: int) -> KnowledgeEntry:
        """Entry i parsed from its export line, or from the line its catalog names.

        A catalog's line was validated by the `kbvqa ingest` that wrote the catalog,
        so a line that does not parse to the catalog's id, url and row means
        the catalog is wrong about it.
        """
        if self._source is None:
            return _entry_from_export(self.export_lines[i])
        data, path, catalog = self._source
        if self.line_offsets is None:
            self.line_offsets, self.line_lengths = _catalog_spans(catalog, path, self)
        expected = (self.entry_ids[i], self.urls[i], self.embedding_rows[i])
        try:
            offset = self.line_offsets[i]
            line = data[offset:offset + self.line_lengths[i]].decode("utf-8")
            entry = _entry_from_dict(json.loads(line))
            found = (entry.entry_id, entry.url, entry.embedding_row)
        except ValueError:  # not UTF-8, not JSON or not a valid entry
            found = None
        if found != expected:
            raise IngestError(
                f"KB catalog {catalog} does not match {path}: its entry {i + 1} "
                f"({expected[0]!r}) is not the line it points at; delete the catalog or "
                f"run `kbvqa ingest` again"
            )
        return entry


class _EntriesById(Mapping):
    """entry_id -> entry of a KnowledgeBase; a lookup parses only that entry."""

    __slots__ = ("_kb",)

    def __init__(self, kb: KnowledgeBase) -> None:
        self._kb = kb

    def __getitem__(self, entry_id: str) -> KnowledgeEntry:
        return self._kb._entry(self._kb._ordinal[entry_id])

    def __contains__(self, entry_id: object) -> bool:
        return entry_id in self._kb._ordinal

    def __iter__(self) -> Iterator[str]:
        return iter(self._kb._ordinal)

    def __len__(self) -> int:
        return len(self._kb._ordinal)


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split("..")
    if len(parts) != 2:
        raise FieldError(f"numeric_range gold answer must look like 'lo..hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise FieldError(f"numeric_range bounds do not parse as numbers: {text!r}") from None
    if lo > hi:
        raise FieldError(f"numeric_range has lo > hi: {text!r}")
    return lo, hi


def load_manifest(manifest_path: str | Path,
                  digest: hashlib._Hash | None = None) -> EmbeddingManifest:
    """The checked manifest; digest, when given, is fed the bytes it was parsed from."""
    return read_json_record(manifest_path, EmbeddingManifest, "embedding manifest", IngestError,
                            digest)


def _entry_from_dict(obj: object) -> KnowledgeEntry:
    return KnowledgeEntry(*_entry_fields(obj))


_read_entry = record_reader(KnowledgeEntry)


def _entry_fields(obj: object) -> tuple:
    """The checked (entry_id, url, title, content, image_refs, embedding_row) of a record."""
    fields = entry_id, url, _, _, _, embedding_row = _read_entry(obj)
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise field_error("schema_version", str(SCHEMA_VERSION), version)
    if not entry_id:
        raise field_error("entry_id", "a non-empty string", entry_id)
    if not url:
        raise field_error("url", "a non-empty string", url)
    if embedding_row is not None and embedding_row < 0:
        raise field_error("embedding_row", "a non-negative integer or null", embedding_row)
    return fields


def _export_line(entry_id: str, url: str, title: str, content: str, image_refs,
                 embedding_row: int | None, escape: bool = True) -> str:
    """The entry's line in entries_normalized.jsonl, line end included.

    It is json.dumps({"schema_version": SCHEMA_VERSION, **to_record(entry)},
    ensure_ascii=False) + "\n", built from the string encoder that call
    uses, without the dict or the encoder. That encoder changes only a
    quote, a backslash and a control character, which strict JSON can
    write only as escapes. So the strings of a line with no backslash can
    be quoted as they are, with escape false, for the same line.
    """
    if escape:
        entry_id, url, title, content = [
            encode_basestring(text)[1:-1] for text in (entry_id, url, title, content)]
        image_refs = [encode_basestring(text)[1:-1] for text in image_refs]
    refs = '"' + '", "'.join(image_refs) + '"' if image_refs else ""
    return (f'{{"schema_version": {SCHEMA_VERSION}, "entry_id": "{entry_id}", "url": "{url}", '
            f'"title": "{title}", "content": "{content}", '
            f'"image_refs": [{refs}], '
            f'"embedding_row": {"null" if embedding_row is None else embedding_row}}}\n')


def _entry_from_export(line: bytes) -> KnowledgeEntry:
    """The entry of an _export_line that a full parse checked."""
    obj = json.loads(line)
    return KnowledgeEntry(obj["entry_id"], obj["url"], obj["title"], obj["content"],
                          tuple(obj["image_refs"]), obj["embedding_row"])


def ingest_kb(entries_path: str | Path, manifest_path: str | Path,
              use_catalog: bool = True) -> KnowledgeBase:
    """Load and validate a KB: entries from JSONL, embedding bounds from the manifest.

    Duplicate entry_ids and out-of-range embedding rows are rejected with the
    offending line identified. When use_catalog is set and the catalog
    beside entries_path holds the sha256 of the exact bytes of both files,
    no line is parsed here: ids, URLs and rows come from the catalog, and
    an entry's line is parsed when the entry is first looked up. Otherwise
    every line is parsed and checked. While the entries file's stat
    identity is the one the catalog records, the file is not hashed.
    """
    digest = hashlib.sha256()
    manifest = load_manifest(manifest_path, digest)
    manifest_sha256 = digest.hexdigest()
    path = Path(entries_path)
    kb = _kb_from_catalog(path, manifest, manifest_sha256) if use_catalog else None
    return kb if kb is not None else _parse_kb(path, manifest, manifest_sha256)


def _parse_kb(path: Path, manifest: EmbeddingManifest, manifest_sha256: str) -> KnowledgeBase:
    """Parse, check and export every line in one pass.

    The lines are read_jsonl's, which hashes the file as it reads it and
    hands over each line's bytes and offset. No entry is built: the KB
    keeps each line's export, and parses it again when the entry is looked
    up.
    """
    count = manifest.count
    seen: dict[str, int] = {}
    entry_ids: list[str] = []
    urls: list[str] = []
    rows: list[int | None] = []
    offsets: list[int] = []
    lengths: list[int] = []

    def parse(obj: dict, lineno: int, raw: bytes, offset: int) -> bytes:
        """Check a record as _entry_from_dict does, then against the others; its export."""
        entry_id, url, title, content, image_refs, row = _entry_fields(obj)
        try:
            line = _export_line(entry_id, url, title, content, image_refs, row,
                                _BACKSLASH in raw).encode("utf-8")
        except UnicodeEncodeError:
            raise _lone_surrogate({
                "entry_id": entry_id, "url": url, "title": title, "content": content,
                "image_refs": image_refs}, f"entry {entry_id!r}") from None
        _check_unique(seen, "entry_id", entry_id, lineno)
        if row is not None and row >= count:
            raise FieldError(f"embedding_row {row} out of range for manifest count {count} "
                             f"(entry {entry_id!r})")
        entry_ids.append(entry_id)
        urls.append(url)
        rows.append(row)
        offsets.append(offset)
        lengths.append(len(raw))
        return line

    digest = FileDigest()
    lines = read_jsonl(path, parse, IngestError, digest, with_line=True)
    return KnowledgeBase(manifest, entry_ids, urls, rows, offsets, lengths,
                         sha256=digest.hexdigest(), manifest_sha256=manifest_sha256,
                         identity=digest.identity, export_lines=lines)


def catalog_path(entries_path: str | Path) -> Path:
    """Where `kbvqa ingest` writes the catalog of entries_path: beside it."""
    path = Path(entries_path)
    return path.with_name(path.name + CATALOG_SUFFIX)


def _kb_from_catalog(path: Path, manifest: EmbeddingManifest,
                     manifest_sha256: str) -> KnowledgeBase | None:
    """The KB over its catalog, or None when no catalog was written for these bytes.

    Only the catalog's first line is read here. A missing or unreadable
    catalog, one whose first line is truncated, one of another version,
    and one whose digests differ from the files' are all None: the caller
    then parses the whole file. The columns of a catalog whose digests
    match are trusted as `kbvqa ingest` wrote them. While an fstat of the
    mapped file gives the catalog's kb_identity, the file holds the bytes
    ingest hashed, and its digest is the catalog's without hashing it again.
    """
    catalog = catalog_path(path)
    cat = _catalog_line(catalog, 0)
    if not (isinstance(cat, dict) and cat.get("catalog_version") == CATALOG_VERSION
            and cat.get("schema_version") == SCHEMA_VERSION
            and cat.get("kb_manifest_sha256") == manifest_sha256):
        return None
    columns = [cat.get(name) for name in CATALOG_COLUMNS]
    if not all(isinstance(column, list) and len(column) == len(columns[0]) for column in columns):
        return None
    try:
        # Mapped rather than read: hashing pages the file in once, with no
        # second copy, and an entry's line is sliced out when it is looked
        # up. An empty file cannot be mapped.
        with path.open("rb") as fh:
            st = os.fstat(fh.fileno())
            size = st.st_size
            data = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ) if size else b""
    except OSError:
        return None  # the full parse names the error
    sha256 = cat.get("kb_sha256")
    if not (type(sha256) is str and identity_holds(st, cat.get("kb_identity"))):
        if hashlib.sha256(data).hexdigest() != sha256:
            return None
    return KnowledgeBase(manifest, *columns, sha256=sha256, manifest_sha256=manifest_sha256,
                         source=(data, path, catalog))


def _catalog_line(catalog: Path, index: int) -> object:
    """The JSON value of the catalog's line index, 0 or 1; None when it cannot be read."""
    try:
        with catalog.open("rb") as fh:
            for _ in range(index):
                fh.readline()
            return json.loads(fh.readline())
    except (OSError, ValueError, RecursionError):  # not UTF-8, not JSON or too deep
        return None


def _catalog_spans(catalog: Path, path: Path, kb: KnowledgeBase) -> list[list[int]]:
    """The CATALOG_SPANS of a KB loaded through its catalog, from the catalog's second line."""
    spans = _catalog_line(catalog, 1)
    if isinstance(spans, dict) and spans.get("kb_sha256") == kb.sha256:
        columns = [spans.get(name) for name in CATALOG_SPANS]
        if all(isinstance(column, list) and len(column) == len(kb) for column in columns):
            return columns
    raise IngestError(f"KB catalog {catalog} does not match {path}: its line spans are damaged "
                      f"or of other entries; delete the catalog or run `kbvqa ingest` again")


def write_catalog(kb: KnowledgeBase, entries_path: str | Path) -> Path:
    """Write the catalog of a KB that ingest_kb parsed in full; returns its path.

    The catalog goes beside entries_path through atomic_write. It is two
    lines of plain ASCII JSON. The first holds the catalog and schema
    versions, the sha256 of the entries and manifest files, the entries
    file's stat identity (null when it was not settled), and the
    CATALOG_COLUMNS; the second the sha256 of the entries file again and
    the CATALOG_SPANS. Each column is a list in file order.
    """
    head = {
        "catalog_version": CATALOG_VERSION,
        "schema_version": SCHEMA_VERSION,
        "kb_sha256": kb.sha256,
        "kb_manifest_sha256": kb.manifest_sha256,
        "kb_identity": kb.identity,
        "entry_id": kb.entry_ids,
        "url": kb.urls,
        "embedding_row": kb.embedding_rows,
    }
    spans = {"kb_sha256": kb.sha256, "line_offset": kb.line_offsets,
             "line_length": kb.line_lengths}
    encode = json.JSONEncoder(separators=(",", ":")).encode
    path = catalog_path(entries_path)
    with atomic_write(path) as fh:
        fh.write(f"{encode(head)}\n{encode(spans)}\n".encode("ascii"))
    return path


def _query_from_dict(obj: object) -> Query:
    answers = obj.get("gold_answers") if type(obj) is dict else None
    if type(answers) is list:
        # A gold answer may be a number, kept in its str() form; a bool is no answer.
        obj["gold_answers"] = [str(a) if type(a) in (int, float) else a for a in answers]
    query = from_record(Query, obj)
    if not query.query_id:
        raise field_error("query_id", "a non-empty string", query.query_id)
    if not query.gold_answers:
        raise field_error("gold_answers", "a non-empty list of strings or numbers", [])
    if query.split_tag not in SPLIT_TAGS:
        raise field_error("split_tag", "one of " + ", ".join(SPLIT_TAGS), query.split_tag)
    if query.answer_type not in ANSWER_TYPES:
        raise field_error("answer_type", "one of " + ", ".join(ANSWER_TYPES), query.answer_type)
    row = query.query_embedding_row
    if row is not None and row < 0:
        raise field_error("query_embedding_row", "a non-negative integer or null", row)
    if query.answer_type == "numeric_range" and any(map(math.isnan, query.gold_range())):
        # No value lies in a range with a NaN bound; an inf bound leaves it half-open.
        raise FieldError(f"numeric_range bound is NaN: {query.gold_answers[0]!r} "
                         f"(query {query.query_id!r})")
    if not utf8_encodable("".join((query.query_id, query.question, query.image_ref,
                                   query.gold_entry_url or "", *query.gold_answers))):
        raise _lone_surrogate(to_record(query), f"query {query.query_id!r}")
    return query


def ingest_queries(path: str | Path) -> list[Query]:
    """Load and validate the query set, preserving file order."""
    return read_jsonl(path, unique_query_ids(lambda obj, _lineno: _query_from_dict(obj)),
                      IngestError)


def load_embeddings(manifest: EmbeddingManifest, data_path: str | Path,
                    checked_sha256: str | None = None, checked_identity: str | None = None,
                    digest: bool = True) -> EmbeddingMatrix:
    """Load the raw float32 matrix that manifest describes: kb.manifest for
    a KB's matrix, load_manifest's for another. No manifest file is read here.

    Rows are L2-normalized in place, block by block, when the manifest says
    they are not already; zero-norm and non-finite rows are hard errors.
    checked_sha256 is the digest of bytes that already passed these checks
    (`kbvqa index` records it): when the file hashes to it, the row checks
    are skipped, and only rows the manifest calls unnormalized are touched.
    checked_identity is the stat identity those bytes were hashed under:
    while the file's identity is still that, it is not hashed at all.
    Otherwise the file is hashed when checked_sha256 is given or digest is
    set, for the matrix's sha256 and identity (records.FileDigest); with
    neither, sha256 is None and every row is checked.
    """
    import numpy as np

    dim, count = manifest.dim, manifest.count
    path = Path(data_path)
    expected_bytes = count * dim * 4
    # One descriptor is sized, identified, mapped and hashed, so a file
    # renamed over the path meanwhile is never mixed in. os.open, unlike
    # open, also opens a directory, which the size check then names.
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        st = os.fstat(fd)
        if st.st_size != expected_bytes:
            raise IngestError(
                f"{path}: size mismatch: expected {expected_bytes} bytes "
                f"({count}x{dim} float32), found {st.st_size}"
            )
        # Mapped copy-on-write rather than read: hashing pages the file in
        # once, with no second copy, and normalizing in place never writes
        # to the file. An empty file cannot be mapped.
        if expected_bytes:
            data = np.frombuffer(mmap.mmap(fd, expected_bytes, access=mmap.ACCESS_COPY),
                                 dtype="<f4").reshape(count, dim)
        else:
            data = np.zeros((count, dim), dtype="<f4")
        if checked_sha256 is not None and identity_holds(st, checked_identity):
            sha256, identity = checked_sha256, checked_identity
        elif digest or checked_sha256 is not None:
            # The file's bytes, hashed as read, before rows are normalized in place.
            hashed = FileDigest()
            hashed.watch(fd)
            hashed.update(data)
            hashed.settle()
            sha256, identity = hashed.hexdigest(), hashed.identity
        else:
            sha256 = identity = None
    finally:
        os.close(fd)
    # One pass: each row block is checked for non-finite values, then its norms
    # are checked or it is normalized, so the first faulty block names the error.
    # Blocks bound the float64 temporaries; a row's result does not depend on its block.
    # A block of a normalized matrix first gets one float32 einsum pass of
    # squared norms, and only a block that it flags goes on to the float64
    # checks. A float32 sum of dim products is within dim*u/(1 - dim*u),
    # u = 2**-24, of the exact squared norm s, relative to s. slack covers
    # that, and the rounding of lo and hi to float32 and of the float64 norm,
    # so a row whose float32 square lies in [lo, hi] passes the float64
    # checks. A non-finite value, or a square past the float32 range, makes
    # an inf or NaN square, which lies in no band.
    check = checked_sha256 is None or sha256 != checked_sha256
    slack = 2 * (dim + 2) * 2.0 ** -24
    lo, hi = (1 - NORM_TOLERANCE) ** 2 + slack, (1 + NORM_TOLERANCE) ** 2 - slack
    for start in range(0, count, NORM_BLOCK_ROWS) if check or not manifest.normalized else ():
        block = data[start:start + NORM_BLOCK_ROWS]
        if check and manifest.normalized:
            squares = np.einsum("ij,ij->i", block, block)
            if ((squares >= lo) & (squares <= hi)).all():
                continue
        if check:
            bad = ~np.isfinite(block)
            if bad.any():
                row = start + int(np.argwhere(bad)[0][0])
                raise IngestError(f"{path}: non-finite value in row {row}")
        rows64 = block.astype(np.float64)
        norms = np.linalg.norm(rows64, axis=1)
        if manifest.normalized:
            off = np.abs(norms - 1.0) > NORM_TOLERANCE
            if off.any():
                row = int(np.argmax(off))
                raise IngestError(
                    f"{path}: manifest claims normalized but row {start + row} "
                    f"has norm {norms[row]:.6f}"
                )
        else:
            zero = norms == 0.0
            if zero.any():
                row = start + int(np.argmax(zero))
                raise IngestError(f"{path}: zero-norm row {row} cannot be normalized")
            block[...] = rows64 / norms[:, None]
    return EmbeddingMatrix(data, sha256, identity)


def export_kb(kb: KnowledgeBase, entries_path: str | Path) -> int:
    """Write the export lines of a KB that ingest_kb parsed in full to
    entries JSONL; returns the number of lines written."""
    with atomic_write(Path(entries_path)) as fh:
        fh.writelines(kb.export_lines)
    return len(kb.export_lines)


def export_queries(queries: list[Query], path: str | Path) -> int:
    return write_jsonl(path, map(to_record, queries))
