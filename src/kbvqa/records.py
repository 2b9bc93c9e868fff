"""The file-format layer: how every record is checked and read, and every file written.

A record class is a dataclass or a NamedTuple, and each field's JSON type
is read from its annotation: str, int, float, bool, dict, a union of these
with None for null, tuple[X, ...] for a list of X, and dict[str, X] for an
object of X, or dict[int, X] for one whose keys are integers as json.dumps
writes them. A record class X stands for an object, and each one is built
as X. Types are exact: a bool is not an integer, and an integer counts as a
float. A missing field takes the class's default; a field with none is
required. Keys the class does not declare are ignored. Every writer goes
through atomic_write. A large input is hashed through FileDigest, which
also takes the file's stat identity; the rule that says when a recorded
digest still holds lives here alone. This module imports only the stdlib
and .errors.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import os
import time
import types
import typing
from collections.abc import Iterator
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Sequence, TypeVar

from .errors import KbvqaError

T = TypeVar("T")

# Bytes read at a time, and buffered before a write: a file of many short
# lines is then written in few system calls.
_BLOCK = 1 << 20
_LF, _CR = ord("\n"), ord("\r")  # byte values: `in` a bytes object, each is one memchr
_scan_json = json.JSONDecoder().scan_once

# A file's stat identity, st_dev:st_ino:st_size:st_mtime_ns:st_ctime_ns,
# changes with any write, truncate, utime or rename over the file. A command
# that hashes a large input records the identity beside the digest, and a
# later one whose fstat of the file still gives it takes the recorded digest
# instead of hashing the file again. The identity is recorded only when the
# file last changed SETTLED_NS or more before it was hashed: a write within
# one timestamp tick of the last change could leave every field as it was,
# while a write after the hash began stamps a later time. 2 s is FAT's mtime
# granularity, the coarsest of Linux's file systems, as in git's "racily
# clean" rule.
SETTLED_NS = 2_000_000_000
# The clock that dates a hash; tests replace this name, not time.time_ns.
_clock_ns = time.time_ns


class FieldError(ValueError):
    """A JSON record that is not an object, a field of it that is missing or
    holds a value its record class does not allow, or a record that clashes
    with an earlier one. The reader names the file, as read_jsonl does."""


_JSON_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
               dict: "an object", list: "a list", type(None): "null"}
_JSON_ITEM_NAMES = {str: "strings", float: "numbers"}
_REQUIRED = inspect.Parameter.empty


def field_error(name: str, want: str, value: object) -> FieldError:
    # ASCII JSON, so that a lone surrogate prints as its escape.
    return FieldError(f"field {name!r} must be {want}, got {json.dumps(value)}")


@cache
def _record_spec(cls: type) -> tuple[tuple[str, object, tuple[type, ...], object, bool, str], ...]:
    """(name, default, JSON types, items, int_keys, their description) of
    each field of a record class, in order. items is None, or what a list or
    object field holds: a record class, or the JSON types of its values.
    int_keys is whether an object field's keys are integers."""
    defaults = inspect.signature(cls).parameters
    spec = []
    for name, hint in typing.get_type_hints(cls).items():
        items = keys = None
        if typing.get_origin(hint) is tuple:  # tuple[X, ...]: a list of X
            hint, items = list, typing.get_args(hint)[0]
        elif typing.get_origin(hint) is dict:  # dict[str or int, X]: an object of X
            hint, (keys, items) = dict, typing.get_args(hint)
        kinds = _json_types(hint)
        want = " or ".join(_JSON_NAMES[k] for k in kinds if not (k is int and float in kinds))
        if items is not None and hasattr(items, "__annotations__"):
            want += " of objects"
        elif items is not None:
            want += " of " + _JSON_ITEM_NAMES[items]
            items = _json_types(items)
        if keys is int:
            want += " keyed by integers"
        spec.append((name, defaults[name].default, kinds, items, keys is int, want))
    return tuple(spec)


def _json_types(hint) -> tuple[type, ...]:
    """The exact types json.loads gives a value of hint; an integer counts as a float."""
    kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    return kinds + (int,) if float in kinds else kinds


def record_fields(cls: type, obj: object, _prefix: str = "") -> tuple:
    """The fields of the JSON record obj, checked against the record class cls, in order.

    A record that is not an object, or a field that is missing or of
    another type than the rules above give it, raises FieldError."""
    if type(obj) is not dict:
        if _prefix:
            raise field_error(_prefix[:-1], "an object", obj)
        raise FieldError(f"record must be an object, got {json.dumps(obj)}")
    values = []
    for name, default, kinds, items, int_keys, want in _record_spec(cls):
        value = obj.get(name, _REQUIRED)
        if type(value) not in kinds:
            if value is not _REQUIRED:
                raise field_error(_prefix + name, want, value)
            if default is _REQUIRED:
                raise FieldError(f"missing field {_prefix + name!r}")
            value = default
        elif items is not None:
            value = _items(value, items, int_keys, _prefix + name, want)
        values.append(value)
    return tuple(values)


@cache
def record_reader(cls: type) -> Callable[[object], tuple]:
    """record_fields(cls, obj) as one function compiled for cls, built from
    its _record_spec: the same fields, or the same FieldError.

    The function checks every field's type inline, with no loop over the
    spec. A record that some check does not pass outright, one that is not
    an object included, goes to record_fields, which raises its error.
    """
    scope = {"record_fields": record_fields, "_items": _items, "cls": cls, "_R": _REQUIRED}
    gets, checks, loops, values = [], [], [], []
    for i, (name, default, kinds, items, int_keys, want) in enumerate(_record_spec(cls)):
        v = f"v{i}"
        scope[f"d{i}"], scope[f"k{i}"], scope[f"i{i}"] = default, kinds, items
        check = f"type({v}) is k{i}[0]" if len(kinds) == 1 else f"type({v}) in k{i}"
        value = v
        if type(items) is tuple and kinds == (list,):  # a list of JSON values
            loops.append(f"  if ok and type({v}) is list:\n"
                         f"   for x in {v}:\n"
                         f"    if type(x) not in i{i}:\n"
                         f"     ok = False\n"
                         f"     break\n")
            value = f"tuple({v})"
        elif items is not None:
            value = f"_items({v}, i{i}, {int_keys}, {name!r}, {want!r})"
        if default is not _REQUIRED and value == v and type(default) in kinds:
            gets.append(f"  {v} = get({name!r}, d{i})\n")  # a default that passes the check
        else:
            # Missing reads as _R, which no check passes and no JSON value
            # is, and which stands for the default when there is one.
            gets.append(f"  {v} = get({name!r}, _R)\n")
            if default is not _REQUIRED:
                check, value = f"({v} is _R or {check})", f"(d{i} if {v} is _R else {value})"
        checks.append(check)
        values.append(value)
    source = ("def read(obj):\n"
              " if type(obj) is dict:\n"
              "  get = obj.get\n"
              + "".join(gets)
              + f"  ok = {' and '.join(checks) or 'True'}\n"
              + "".join(loops)
              + "  if ok:\n"
              f"   return ({''.join(value + ', ' for value in values)})\n"
              " return record_fields(cls, obj)\n")
    exec(source, scope)
    return scope["read"]


def _items(value: list | dict, items, int_keys: bool, name: str, want: str) -> tuple | dict:
    """A list field's values as a tuple, or an object field's as a dict,
    each checked against items: a record class, built for each, or JSON types."""
    values = value if type(value) is list else list(value.values())
    if type(items) is tuple:
        for item in values:
            if type(item) not in items:
                raise field_error(name, want, value)
    else:
        try:
            read = record_reader(items)
            values = [items(*read(item)) for item in values]
        except FieldError:
            # Checked again to name the field by its path, such as
            # hits[0].score, which is built only once a record has failed.
            for key, item in zip(range(len(value)) if type(value) is list else value, values):
                record_fields(items, item, f"{name}[{json.dumps(key)}].")
            raise
    if type(value) is list:
        return tuple(values)
    if not int_keys:
        return dict(zip(value, values))
    try:
        keys = [int(key) for key in value]
    except ValueError:
        raise field_error(name, want, value) from None
    if list(map(str, keys)) != list(value):  # such as "01" or " 1": not as json.dumps writes
        raise field_error(name, want, value)
    return dict(zip(keys, values))


def from_record(cls: type[T], obj: object) -> T:
    """cls built from the fields of the JSON record obj, checked by cls's
    record_reader as record_fields checks them."""
    return cls(*record_reader(cls)(obj))


def to_record(obj: object) -> dict:
    """The JSON record of obj, the inverse of from_record: a copy of its fields
    in declaration order, vars() of a dataclass or _asdict() of a NamedTuple,
    where only the fields that hold record classes are converted, item by item."""
    record = obj._asdict() if isinstance(obj, tuple) else vars(obj).copy()
    for name in _nested_records(type(obj)):
        value = record[name]
        record[name] = ({key: to_record(item) for key, item in value.items()}
                        if type(value) is dict else [to_record(item) for item in value])
    return record


@cache
def _nested_records(cls: type) -> tuple[str, ...]:
    """The fields of a record class whose items are record classes."""
    return tuple(spec[0] for spec in _record_spec(cls) if hasattr(spec[3], "__annotations__"))


def stat_identity(st: os.stat_result) -> str:
    """The stat identity of the file st describes."""
    return f"{st.st_dev}:{st.st_ino}:{st.st_size}:{st.st_mtime_ns}:{st.st_ctime_ns}"


def identity_holds(st: os.stat_result, recorded: object) -> bool:
    """Whether st, an fstat of an open file, gives recorded, an identity that
    a FileDigest settled; a recorded value that is absent (None), empty or
    not a string never holds."""
    return type(recorded) is str and recorded != "" and stat_identity(st) == recorded


class FileDigest:
    """The sha256 of the bytes hashed from one open file, and the file's stat
    identity when it held still.

    watch(fd) takes an fstat of the file before its first byte is hashed, and
    settle() another after its last. identity is then that identity when the
    two agree and the file last changed, by the newer of its mtime and ctime,
    SETTLED_NS or more before watch; otherwise None, and nothing is recorded.
    """

    def __init__(self) -> None:
        self._sha256 = hashlib.sha256()
        self.identity: str | None = None

    def watch(self, fd: int) -> None:
        self._fd, self._started, self._before = fd, _clock_ns(), os.fstat(fd)

    def update(self, data) -> None:
        self._sha256.update(data)

    def hexdigest(self) -> str:
        return self._sha256.hexdigest()

    def settle(self) -> None:
        before = self._before
        identity = stat_identity(before)
        if (stat_identity(os.fstat(self._fd)) == identity
                and self._started - max(before.st_mtime_ns, before.st_ctime_ns) >= SETTLED_NS):
            self.identity = identity


def read_jsonl(path: str | Path, parse: Callable[..., T], error_class: type[KbvqaError],
               digest: FileDigest | None = None, with_line: bool = False) -> list[T]:
    """parse(record, lineno) for every non-blank line of a JSONL file, in order.

    The file is read in binary, a block at a time (_lines). Lines split where
    text mode splits them, at LF, CRLF and a lone CR, and a line that str.strip()
    empties is skipped. Each line is decoded and parsed on its own, so a
    line that is not UTF-8, bad JSON, a missing field or a malformed value
    raises error_class naming ``path:line`` of the first bad line; parse may
    raise its own errors too. So does a file that cannot be opened. When
    given, digest is fed every byte read. With with_line, parse is called as
    parse(record, lineno, line, offset): line is the line's bytes, its end
    included, and offset their position in the file.
    """
    p = Path(path)
    try:
        fh = p.open("rb")
    except OSError as exc:
        raise error_class(f"cannot read {p}: {exc.strerror or exc}") from exc
    out: list[T] = []
    lineno = offset = 0
    with fh:
        if digest is not None:
            digest.watch(fh.fileno())
        try:
            for line in _lines(fh, digest):
                lineno += 1
                text = line.decode("utf-8")
                if not text.isspace():
                    out.append(parse(_loads(text), lineno, line, offset) if with_line
                               else parse(_loads(text), lineno))
                offset += len(line)
        except UnicodeDecodeError as exc:
            raise error_class(f"{p}:{lineno}: not UTF-8: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise error_class(f"{p}:{lineno}: malformed JSON: {exc}") from exc
        except KeyError as exc:
            raise error_class(f"{p}:{lineno}: missing field {exc}") from None
        except FieldError as exc:
            raise error_class(f"{p}:{lineno}: {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise error_class(f"{p}:{lineno}: malformed record: {exc}") from exc
        if digest is not None:
            digest.settle()
    return out


def _lines(fh: BinaryIO, digest: FileDigest | None) -> Iterator[bytes]:
    """The lines of the binary file fh, each with its line end, split at LF,
    CRLF and a lone CR; digest, when given, is fed each block as it is read.

    A UTF-8 character holds no CR or LF byte, so no split cuts one. The last
    line of a block may go on in the next, or be a CR that an LF follows, so
    it is split again with the next block that holds a line end, or at the
    end of the file.
    """
    pieces: list[bytes] = []
    while block := fh.read(_BLOCK):
        if digest is not None:
            digest.update(block)
        pieces.append(block)
        if _LF in block or _CR in block:
            lines = b"".join(pieces).splitlines(keepends=True)
            pieces = [lines.pop()]
            yield from lines
    yield from b"".join(pieces).splitlines(keepends=True)


def _loads(text: str):
    """json.loads(text), skipping its per-call set-up on the usual line.

    The usual line is one JSON value from its first character, then at most
    JSON whitespace; json.loads scans it with the same scanner. Any other
    line goes to json.loads, which parses it or raises its own error.
    """
    try:
        obj, end = _scan_json(text, 0)
    except StopIteration:
        return json.loads(text)
    if end != len(text) and text[end:].strip(" \t\n\r"):
        return json.loads(text)
    return obj


def load_json(path: Path, what: str, error_class: type[KbvqaError]) -> tuple[object, bytes]:
    """The JSON value in the file at path, and the bytes it was parsed from; a
    file that cannot be read or is not UTF-8 JSON raises ``cannot load what path: E``."""
    try:
        raw = path.read_bytes()
        return json.loads(raw.decode("utf-8")), raw
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON or too deep
        raise error_class(f"cannot load {what} {path}: {exc}") from exc


def read_json_record(path: str | Path, cls: type[T], what: str, error_class: type[KbvqaError],
                     digest: hashlib._Hash | None = None, strict: bool = False) -> T:
    """cls built by from_record from the JSON object in the file at path.

    Every error names the file as ``what path``: one that cannot be read or
    is not UTF-8 JSON, a FieldError, and, when strict, a key cls does not
    declare. When given, digest is fed the file's bytes.
    """
    p = Path(path)
    obj, raw = load_json(p, what, error_class)
    try:
        record = from_record(cls, obj)
    except FieldError as exc:
        raise error_class(f"{what} {p}: {exc}") from None
    unknown = set(obj) - set(cls.__dataclass_fields__) if strict else None
    if unknown:
        raise error_class(f"{what} {p} has unknown keys: {sorted(unknown)}")
    if digest is not None:
        digest.update(raw)
    return record


def write_jsonl(path: str | Path, dicts: Iterable[dict]) -> int:
    """One compact JSON object per line, through atomic_write; returns the
    number of lines written."""
    # One encoder for the file: json.dumps with any non-default argument
    # builds a new one per call. The bytes are json.dumps(obj, ensure_ascii=False).
    encode = json.JSONEncoder(ensure_ascii=False).encode
    count = 0
    with atomic_write(Path(path)) as fh:
        for count, obj in enumerate(dicts, start=1):
            fh.write((encode(obj) + "\n").encode("utf-8"))
    return count


def write_json(path: str | Path, obj: object) -> None:
    """obj as JSON indented by 2, non-ASCII kept, and a line end, through atomic_write."""
    with atomic_write(Path(path)) as fh:
        fh.write((json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence],
              lineterminator: str = "\r\n") -> None:
    """header, then each row, in UTF-8 as the csv module writes them (lines
    end in CRLF unless lineterminator says otherwise), through atomic_write."""
    with atomic_write(Path(path)) as fh, io.TextIOWrapper(fh, "utf-8", newline="") as text:
        writer = csv.writer(text, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def atomic_write(path: Path) -> Iterator[BinaryIO]:
    """A binary file to write in place of path.

    It is written beside path and renamed over it when the block ends, so an
    interrupted write leaves the previous file and no temporary one.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb", buffering=_BLOCK) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def utf8_encodable(text: str) -> bool:
    """Whether text holds no lone surrogate, which a JSON escape such as
    "\\ud800" with no partner decodes to and UTF-8 cannot encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _lone_surrogate(fields: dict, what: str) -> FieldError:
    """The error for the first string field holding a lone surrogate; called
    once encoding the record's strings has failed, so some field holds one."""
    for name, value in fields.items():
        for text in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(text, str) and not utf8_encodable(text):
                return FieldError(f"{name} holds a lone surrogate, which UTF-8 cannot "
                                  f"encode ({what})")
    raise AssertionError(f"no field of {what} holds a lone surrogate")


def _check_unique(seen: dict[str, int], what: str, value: str, lineno: int) -> None:
    if value in seen:
        raise FieldError(f"duplicate {what} {value!r} (first seen on line {seen[value]})")
    seen[value] = lineno


def unique_query_ids(parse: Callable[[dict, int], T]) -> Callable[[dict, int], T]:
    """parse for one read_jsonl call, rejecting a record whose query_id an earlier line has."""
    seen: dict[str, int] = {}

    def checked(obj: dict, lineno: int) -> T:
        record = parse(obj, lineno)
        _check_unique(seen, "query_id", record.query_id, lineno)
        return record

    return checked
