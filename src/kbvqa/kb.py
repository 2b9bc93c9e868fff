"""Knowledge-base and query-set ingestion.

File formats:
  entries.jsonl    one entry per line:
                   {"schema_version", "entry_id", "url", "title", "content",
                    "image_refs", "embedding_row"}
  queries.jsonl    one query per line:
                   {"query_id", "question", "image_ref", "gold_answers",
                    "gold_entry_url", "split_tag", "answer_type",
                    "query_embedding_row"}
  embeddings.manifest.json   {"dim", "count", "normalized", "dtype": "f32le"}
  embeddings.bin             raw little-endian float32, row-major, count*dim values

Loaded handles are immutable after ingestion and safe for concurrent readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

from .errors import IngestError, KbvqaError

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")

SCHEMA_VERSION = 1

SPLIT_TAGS = ("unseen_q", "unseen_e", "other")
ANSWER_TYPES = ("text", "numeric", "numeric_range")

NORM_TOLERANCE = 1e-4
NORM_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class KnowledgeEntry:
    """One knowledge-base record: an article plus its image references."""

    entry_id: str
    url: str
    title: str
    content: str
    image_refs: tuple[str, ...] = ()
    embedding_row: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "entry_id": self.entry_id,
            "url": self.url,
            "title": self.title,
            "content": self.content,
            "image_refs": list(self.image_refs),
            "embedding_row": self.embedding_row,
        }


@dataclass(frozen=True)
class Query:
    """One VQA instance: an image-question pair with its gold answers."""

    query_id: str
    question: str
    image_ref: str
    gold_answers: tuple[str, ...]
    gold_entry_url: str | None = None
    split_tag: str = "other"
    answer_type: str = "text"
    query_embedding_row: int | None = None

    def gold_range(self) -> tuple[float, float]:
        """Parsed (lo, hi) bounds of a numeric_range gold answer."""
        lo, hi = _parse_range(self.gold_answers[0])
        return lo, hi

    def to_json_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "question": self.question,
            "image_ref": self.image_ref,
            "gold_answers": list(self.gold_answers),
            "gold_entry_url": self.gold_entry_url,
            "split_tag": self.split_tag,
            "answer_type": self.answer_type,
            "query_embedding_row": self.query_embedding_row,
        }


@dataclass
class EmbeddingMatrix:
    """Row-major float32 matrix of L2-normalized embedding vectors."""

    dim: int
    count: int
    data: np.ndarray
    normalized: bool


@dataclass
class KnowledgeBase:
    """Validated entry set plus the manifest of its embedding matrix."""

    entries: list[KnowledgeEntry]
    manifest: dict
    by_id: dict[str, KnowledgeEntry] = field(default_factory=dict)
    embeddings: EmbeddingMatrix | None = None

    def __post_init__(self) -> None:
        if not self.by_id:
            self.by_id = {e.entry_id: e for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def entry_by_url(self, url: str) -> KnowledgeEntry | None:
        """First entry whose url matches byte-exactly."""
        return self._first_by_url.get(url)

    @cached_property
    def _first_by_url(self) -> dict[str, KnowledgeEntry]:
        # Built on the first lookup; reversed so the first-ingested entry wins.
        return {entry.url: entry for entry in reversed(self.entries)}

    def url_of(self, entry_id: str) -> str:
        return self.by_id[entry_id].url

    def attach_embeddings(self, matrix: EmbeddingMatrix) -> None:
        if matrix.count != int(self.manifest["count"]) or matrix.dim != int(self.manifest["dim"]):
            raise IngestError(
                f"embedding matrix {matrix.count}x{matrix.dim} does not match manifest "
                f"{self.manifest['count']}x{self.manifest['dim']}"
            )
        self.embeddings = matrix


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split("..")
    if len(parts) != 2:
        raise IngestError(f"numeric_range gold answer must look like 'lo..hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise IngestError(f"numeric_range bounds do not parse as numbers: {text!r}") from exc
    if lo > hi:
        raise IngestError(f"numeric_range has lo > hi: {text!r}")
    return lo, hi


def read_jsonl(path: str | Path, parse: Callable[[dict, int], T],
               error_class: type[KbvqaError]) -> list[T]:
    """parse(record, lineno) for every non-blank line of a JSONL file, in order.

    A missing file, bad JSON, a missing field or a malformed value raises
    error_class naming ``path:line``; parse may raise its own errors too.
    """
    p = Path(path)
    try:
        fh = p.open("r", encoding="utf-8")
    except OSError as exc:
        raise error_class(f"cannot read {p}: {exc.strerror or exc}") from exc
    out: list[T] = []
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    out.append(parse(json.loads(line), lineno))
                except json.JSONDecodeError as exc:
                    raise error_class(f"{p}:{lineno}: malformed JSON: {exc}") from exc
                except KeyError as exc:
                    raise error_class(f"{p}:{lineno}: missing field {exc}") from None
                except (AttributeError, TypeError, ValueError) as exc:
                    raise error_class(f"{p}:{lineno}: malformed record: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise error_class(_undecodable_line(p, exc)) from exc
    return out


def _undecodable_line(p: Path, exc: UnicodeDecodeError) -> str:
    """Name the first line of p that is not UTF-8.

    Text is decoded a buffer at a time, ahead of the line being parsed, so
    the file is read again as bytes to find the line; only on this error
    path. Bytes split on the same line ends as text mode does.
    """
    for lineno, raw in enumerate(p.read_bytes().splitlines(), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as line_exc:
            return f"{p}:{lineno}: not UTF-8: {line_exc}"
    return f"{p}: not UTF-8: {exc}"


def write_jsonl(path: str | Path, dicts: Iterable[dict]) -> int:
    """One compact JSON object per line; returns the number of lines written."""
    # One encoder for the file: json.dumps with any non-default argument
    # builds a new one per call. The bytes are json.dumps(obj, ensure_ascii=False).
    encode = json.JSONEncoder(ensure_ascii=False).encode
    count = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        for count, obj in enumerate(dicts, start=1):
            fh.write(encode(obj) + "\n")
    return count


def load_manifest(manifest_path: str | Path) -> dict:
    path = Path(manifest_path)
    if not path.exists():
        raise IngestError(f"embedding manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: malformed manifest JSON: {exc}") from exc
    for key in ("dim", "count", "normalized"):
        if key not in manifest:
            raise IngestError(f"{path}: manifest missing field {key!r}")
    if manifest.get("dtype", "f32le") != "f32le":
        raise IngestError(f"{path}: unsupported dtype {manifest['dtype']!r} (expected 'f32le')")
    if int(manifest["dim"]) <= 0:
        raise IngestError(f"{path}: dim must be positive")
    if int(manifest["count"]) < 0:
        raise IngestError(f"{path}: count must be non-negative")
    return manifest


def _entry_from_dict(obj: dict, path: Path, lineno: int) -> KnowledgeEntry:
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise IngestError(f"{path}: line {lineno}: unsupported schema_version {version!r}")
    try:
        entry_id = obj["entry_id"]
        url = obj["url"]
    except KeyError as exc:
        raise IngestError(f"{path}: line {lineno}: entry missing field {exc.args[0]!r}") from exc
    if not isinstance(entry_id, str) or not entry_id:
        raise IngestError(f"{path}: line {lineno}: entry_id must be a non-empty string")
    if not isinstance(url, str) or not url:
        raise IngestError(f"{path}: line {lineno}: url must be non-empty (entry {entry_id!r})")
    embedding_row = obj.get("embedding_row")
    if embedding_row is not None:
        if type(embedding_row) is not int or embedding_row < 0:
            raise IngestError(
                f"{path}: line {lineno}: embedding_row must be a non-negative integer "
                f"(entry {entry_id!r})"
            )
    title = obj.get("title", "")
    if not isinstance(title, str):
        raise _not_a_string(path, lineno, "title", title, f"entry {entry_id!r}")
    content = obj.get("content", "")
    if not isinstance(content, str):
        raise _not_a_string(path, lineno, "content", content, f"entry {entry_id!r}")
    image_refs = obj.get("image_refs", [])
    if not isinstance(image_refs, list) or not _all_strings(image_refs):
        raise IngestError(
            f"{path}: line {lineno}: image_refs must be a list of strings (entry {entry_id!r})"
        )
    return KnowledgeEntry(
        entry_id=entry_id,
        url=url,
        title=title,
        content=content,
        image_refs=tuple(image_refs),
        embedding_row=embedding_row,
    )


def _all_strings(values: list) -> bool:
    # A plain loop: all() over a generator costs several times as much, on
    # every line of a large KB.
    for value in values:
        if not isinstance(value, str):
            return False
    return True


def _not_a_string(path: Path, lineno: int, name: str, value: object, what: str) -> IngestError:
    # The message is built only on this error path, not for every line.
    return IngestError(f"{path}: line {lineno}: {name} must be a string, got {value!r} ({what})")


def ingest_kb(entries_path: str | Path, manifest_path: str | Path) -> KnowledgeBase:
    """Load and validate a KB: entries from JSONL, embedding bounds from the manifest.

    Duplicate entry_ids and out-of-range embedding rows are rejected with the
    offending line identified.
    """
    manifest = load_manifest(manifest_path)
    count = int(manifest["count"])
    path = Path(entries_path)
    seen: dict[str, int] = {}

    def parse(obj: dict, lineno: int) -> KnowledgeEntry:
        entry = _entry_from_dict(obj, path, lineno)
        _check_unique(seen, "entry_id", entry.entry_id, path, lineno)
        if entry.embedding_row is not None and entry.embedding_row >= count:
            raise IngestError(
                f"{path}: line {lineno}: embedding_row {entry.embedding_row} out of range "
                f"for manifest count {count} (entry {entry.entry_id!r})"
            )
        return entry

    return KnowledgeBase(entries=read_jsonl(path, parse, IngestError), manifest=manifest)


def _check_unique(seen: dict[str, int], what: str, value: str, path: Path, lineno: int) -> None:
    if value in seen:
        raise IngestError(
            f"{path}: line {lineno}: duplicate {what} {value!r} (first seen on line {seen[value]})"
        )
    seen[value] = lineno


def _query_from_dict(obj: dict, path: Path, lineno: int) -> Query:
    try:
        query_id = obj["query_id"]
        question = obj["question"]
    except KeyError as exc:
        raise IngestError(f"{path}: line {lineno}: query missing field {exc.args[0]!r}") from exc
    if not isinstance(query_id, str) or not query_id:
        raise IngestError(
            f"{path}: line {lineno}: query_id must be a non-empty string, got {query_id!r}"
        )
    if not isinstance(question, str):
        raise _not_a_string(path, lineno, "question", question, f"query {query_id!r}")
    image_ref = obj.get("image_ref", "")
    if not isinstance(image_ref, str):
        raise _not_a_string(path, lineno, "image_ref", image_ref, f"query {query_id!r}")
    gold_answers = obj.get("gold_answers", [])
    # A bool is an int to isinstance, but str(True) is no answer.
    if not isinstance(gold_answers, list) or not all(
            isinstance(a, (str, int, float)) and not isinstance(a, bool) for a in gold_answers):
        raise IngestError(
            f"{path}: line {lineno}: gold_answers must be a non-empty list of strings or "
            f"numbers (query {query_id!r})"
        )
    if not gold_answers:
        raise IngestError(f"{path}: line {lineno}: gold_answers is empty (query {query_id!r})")
    split_tag = obj.get("split_tag", "other")
    if split_tag not in SPLIT_TAGS:
        raise IngestError(f"{path}: line {lineno}: unknown split_tag {split_tag!r}")
    answer_type = obj.get("answer_type", "text")
    if answer_type not in ANSWER_TYPES:
        raise IngestError(f"{path}: line {lineno}: unknown answer_type {answer_type!r}")
    gold_entry_url = obj.get("gold_entry_url")
    if gold_entry_url is not None and not isinstance(gold_entry_url, str):
        raise IngestError(
            f"{path}: line {lineno}: gold_entry_url must be a string or null, "
            f"got {gold_entry_url!r} (query {query_id!r})"
        )
    embedding_row = obj.get("query_embedding_row")
    if embedding_row is not None and (type(embedding_row) is not int or embedding_row < 0):
        raise IngestError(
            f"{path}: line {lineno}: query_embedding_row must be a non-negative integer "
            f"(query {query_id!r})"
        )
    query = Query(
        query_id=query_id,
        question=question,
        image_ref=image_ref,
        gold_answers=tuple(str(a) for a in gold_answers),
        gold_entry_url=gold_entry_url,
        split_tag=split_tag,
        answer_type=answer_type,
        query_embedding_row=embedding_row,
    )
    if answer_type == "numeric_range":
        try:
            query.gold_range()
        except IngestError as exc:
            raise IngestError(f"{path}: line {lineno}: {exc} (query {query_id!r})") from exc
    return query


def ingest_queries(path: str | Path) -> list[Query]:
    """Load and validate the query set, preserving file order."""
    p = Path(path)
    seen: dict[str, int] = {}

    def parse(obj: dict, lineno: int) -> Query:
        query = _query_from_dict(obj, p, lineno)
        _check_unique(seen, "query_id", query.query_id, p, lineno)
        return query

    return read_jsonl(p, parse, IngestError)


def load_embeddings(manifest_path: str | Path, data_path: str | Path) -> EmbeddingMatrix:
    """Load the raw float32 matrix described by the manifest.

    Rows are L2-normalized in place, block by block, when the manifest says
    they are not already; zero-norm and non-finite rows are hard errors.
    """
    import numpy as np

    manifest = load_manifest(manifest_path)
    dim, count = int(manifest["dim"]), int(manifest["count"])
    path = Path(data_path)
    if not path.exists():
        raise IngestError(f"embedding data file not found: {path}")
    expected_bytes = count * dim * 4
    actual_bytes = path.stat().st_size
    if actual_bytes != expected_bytes:
        raise IngestError(
            f"{path}: size mismatch: expected {expected_bytes} bytes "
            f"({count}x{dim} float32), found {actual_bytes}"
        )
    data = np.fromfile(path, dtype="<f4").reshape(count, dim)
    for start in range(0, count, NORM_BLOCK_ROWS):
        bad = ~np.isfinite(data[start:start + NORM_BLOCK_ROWS])
        if bad.any():
            row = start + int(np.argwhere(bad)[0][0])
            raise IngestError(f"{path}: non-finite value in row {row}")
    # Row blocks bound the float64 temporaries; a row's norm and quotient do
    # not depend on the block it falls in.
    for start in range(0, count, NORM_BLOCK_ROWS):
        block = data[start:start + NORM_BLOCK_ROWS]
        rows64 = block.astype(np.float64)
        norms = np.linalg.norm(rows64, axis=1)
        if not manifest["normalized"]:
            zero = norms == 0.0
            if zero.any():
                row = start + int(np.argmax(zero))
                raise IngestError(f"{path}: zero-norm row {row} cannot be normalized")
            block[...] = rows64 / norms[:, None]
        else:
            off = np.abs(norms - 1.0) > NORM_TOLERANCE
            if off.any():
                row = int(np.argmax(off))
                raise IngestError(
                    f"{path}: manifest claims normalized but row {start + row} "
                    f"has norm {norms[row]:.6f}"
                )
    return EmbeddingMatrix(dim=dim, count=count, data=data, normalized=True)


def export_kb(kb: KnowledgeBase, entries_path: str | Path) -> int:
    """Write the KB back to entries JSONL; returns the number of lines written."""
    return write_jsonl(entries_path, (entry.to_json_dict() for entry in kb.entries))


def export_queries(queries: list[Query], path: str | Path) -> int:
    return write_jsonl(path, (query.to_json_dict() for query in queries))
