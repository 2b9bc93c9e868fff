"""The file-format layer: how every record is checked and read, and every file written.

A record class is a dataclass or a NamedTuple, and each field's JSON type
is read from its annotation: str, int, float, bool, dict, a union of these
with None for null, tuple[X, ...] for a list of X, and dict[str, X] for an
object of X, or dict[int, X] for one whose keys are integers as json.dumps
writes them. A record class X stands for an object, and each one is built
as X. Types are exact: a bool is not an integer, and an integer counts as a
float. A missing field takes the class's default; a field with none is
required. Keys the class does not declare are ignored. Every writer goes
through atomic_write. This module imports only the stdlib and .errors.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import os
import types
import typing
from collections.abc import Iterator
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Sequence, TypeVar

from .errors import KbvqaError

T = TypeVar("T")

_READ_CHUNK = 1 << 20
_scan_json = json.JSONDecoder().scan_once


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
            values = [items(*record_fields(items, item)) for item in values]
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
    """cls built from the fields of the JSON record obj, checked by record_fields."""
    return cls(*record_fields(cls, obj))


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


def read_jsonl(path: str | Path, parse: Callable[[dict, int], T],
               error_class: type[KbvqaError], digest: hashlib._Hash | None = None,
               spans: tuple[list[int], list[int]] | None = None) -> list[T]:
    """parse(record, lineno) for every non-blank line of a JSONL file, in order.

    The file is read in binary, a line at a time. Lines split where text
    mode splits them, at LF, CRLF and a lone CR, and a line that str.strip()
    empties is skipped. Each line is decoded and parsed on its own, so a
    line that is not UTF-8, bad JSON, a missing field or a malformed value
    raises error_class naming ``path:line`` of the first bad line; parse may
    raise its own errors too. So does a file that cannot be opened. When
    given, digest is fed every byte read, and spans gets the byte offset and
    the length, line end included, of each line parse was called on.
    """
    p = Path(path)
    try:
        fh = p.open("rb", buffering=_READ_CHUNK)
    except OSError as exc:
        raise error_class(f"cannot read {p}: {exc.strerror or exc}") from exc
    out: list[T] = []
    lineno = offset = 0
    with fh:
        try:
            for chunk in fh:
                if digest is not None:
                    digest.update(chunk)
                # A UTF-8 character holds no CR or LF byte, so no split cuts one.
                for line in chunk.splitlines(keepends=True) if b"\r" in chunk else (chunk,):
                    lineno += 1
                    text = line.decode("utf-8")
                    if not text.isspace():
                        out.append(parse(_loads(text), lineno))
                        if spans is not None:
                            spans[0].append(offset)
                            spans[1].append(len(line))
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
    return out


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
        with tmp.open("wb") as fh:
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
