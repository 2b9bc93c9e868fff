"""Model backends: a scripted mock for deterministic tests and an HTTP
chat-completion client for real inference servers.
"""

from __future__ import annotations

import base64
import json
import math
import os
import stat
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from .errors import BackendError, IngestError, ScriptKeyError
from .records import (
    FieldError, field_error, read_json_record, read_jsonl, record_reader, stat_identity,
    utf8_encodable,
)
from .prompts import MessageSequence, TextPart

# A request's output budget when it names none; the pipeline sends each
# stage's own (prompts.STAGE_TABLE).
DEFAULT_MAX_NEW_TOKENS = 64

# One initial attempt plus one retry per backoff value: timeouts, 429 and 5xx.
RETRY_BACKOFFS_S = (0.5, 1.0, 2.0)
# The backoff wait; tests replace this name, not the process-wide time.sleep.
_sleep = time.sleep

# --workers of an HTTP run that does not set it: its query threads, and so
# its backend calls in flight.
DEFAULT_HTTP_WORKERS = 8

# Local images go on the wire base64-encoded this many file bytes at a time.
# A multiple of 3 encodes without padding, so consecutive blocks concatenate
# into the base64 of the whole file.
IMAGE_BLOCK_BYTES = 48 * 1024

# A local image of at most this many bytes is encoded once per query on each
# thread: the query's later calls send the blocks its first read made.
QUERY_IMAGE_BYTES = 256 * 1024


@dataclass(frozen=True)
class BackendRequest:
    messages: MessageSequence
    query_id: str
    stage: str
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if self.max_new_tokens <= 0:
            raise ValueError(f"max_new_tokens must be positive, got {self.max_new_tokens}")

    @property
    def tag(self) -> tuple[str, str]:
        return (self.query_id, self.stage)


@dataclass(frozen=True)
class BackendResponse:
    text: str
    latency_ms: float
    raw: str


class Backend:
    """A model backend: generate() answers one request, and is safe to call
    from many threads at once."""

    def generate(self, req: BackendRequest) -> BackendResponse:
        raise NotImplementedError


@dataclass(frozen=True)
class ScriptLine:
    """One line of a mock script: the reply to the call of a query's stage."""

    query_id: str
    stage: str
    text: str


class MockBackend(Backend):
    """Deterministic backend scripted by (query_id, stage) -> text.

    A missing key is a hard ScriptKeyError, never a silent fallback, so a
    pipeline that makes an unplanned call fails loudly. Every generate call
    is appended to a thread-safe log for call-count assertions.
    """

    def __init__(self, script: Mapping[tuple[str, str], str]):
        self._script = dict(script)
        self._lock = threading.Lock()
        self._calls: list[tuple[str, str]] = []

    @classmethod
    def from_script_file(cls, path: str | Path) -> "MockBackend":
        script: dict[tuple[str, str], str] = {}
        read_line = record_reader(ScriptLine)

        def add(rec: dict, _lineno: int) -> None:
            query_id, stage, text = read_line(rec)
            key = (query_id, stage)
            if key in script:
                raise FieldError(f"duplicate script key query_id={key[0]!r} stage={key[1]!r}")
            if not utf8_encodable(text):
                raise FieldError(
                    f"text must be a string with no lone surrogate, which UTF-8 cannot encode "
                    f"(query_id={key[0]!r} stage={key[1]!r})"
                )
            script[key] = text

        read_jsonl(path, add, IngestError)
        return cls(script)

    def generate(self, req: BackendRequest) -> BackendResponse:
        key = req.tag
        with self._lock:
            self._calls.append(key)
        try:
            text = self._script[key]
        except KeyError:
            raise ScriptKeyError(
                f"mock script has no entry for query_id={req.query_id!r} stage={req.stage!r}"
            ) from None
        return BackendResponse(text=text, latency_ms=0.0, raw="")

    def calls(self, query_id: str | None = None) -> tuple[tuple[str, str], ...]:
        with self._lock:
            snapshot = tuple(self._calls)
        if query_id is None:
            return snapshot
        return tuple(c for c in snapshot if c[0] == query_id)

    def reset_calls(self) -> None:
        with self._lock:
            self._calls.clear()


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    path: str = "/v1/chat/completions"
    model: str = ""
    api_key_env: str = ""
    timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if not self.base_url:
            raise field_error("base_url", "a non-empty string", self.base_url)
        if not 0 < self.timeout_s < math.inf:
            raise field_error("timeout_s", "a finite positive number", self.timeout_s)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "EndpointConfig":
        return read_json_record(path, cls, "endpoint config", IngestError, strict=True)

    @property
    def url(self) -> str:
        return self.base_url.rstrip("/") + "/" + self.path.lstrip("/")


def _local_file(image_ref: str) -> os.stat_result | None:
    """The stat of the regular file image_ref names, or None for a URI."""
    try:
        st = os.stat(image_ref)
    except (OSError, ValueError):
        return None
    return st if stat.S_ISREG(st.st_mode) else None


def _image_payload(image_ref: str) -> str:
    """Local files ship as base64 bytes; anything else passes through as a URI."""
    if _local_file(image_ref) is None:
        return image_ref
    return base64.b64encode(Path(image_ref).read_bytes()).decode("ascii")


def _temperature(req: BackendRequest) -> float:
    # Zero goes on the wire as the integer 0.
    return 0 if req.temperature == 0 else req.temperature


def request_body(config: EndpointConfig, req: BackendRequest) -> dict:
    """The JSON body sent on the wire; kept separate so tests can golden it."""
    content: list[dict] = []
    for part in req.messages.parts:
        if isinstance(part, TextPart):
            content.append({"type": "text", "text": part.text})
        else:
            content.append({"type": "image", "data": _image_payload(part.image_ref)})
    return {
        "model": config.model,
        "messages": [{"role": "user", "content": content}],
        "temperature": _temperature(req),
        "max_tokens": req.max_new_tokens,
    }


class _QueryImages(threading.local):
    """The base64 blocks of the local images that one query's bodies have
    read on this thread, by path, with the stat identity they were read
    under (records.stat_identity). A body of another query empties it
    first, so a thread holds one query's images at most. Blocks depend only
    on the file they were read from, so every backend on the thread shares
    them."""

    def __init__(self):
        self.query_id: str | None = None
        self.blocks: dict[str, tuple[str, tuple[bytes, ...]]] = {}

    def of(self, query_id: str) -> dict[str, tuple[str, tuple[bytes, ...]]]:
        if query_id != self.query_id:
            self.query_id, self.blocks = query_id, {}
        return self.blocks


_query_images = _QueryImages()


class StreamedBody:
    """The bytes of ``json.dumps(request_body(config, req)).encode()``, made
    one piece at a time, so a call holds one image block, never the body.

    JSON literals go out as they are; each local image is read and
    base64-encoded IMAGE_BLOCK_BYTES at a time. Image files are sized when
    the body is made, so len() is known and the body goes out with a
    Content-Length rather than chunked encoding; a file whose size has
    changed by the time it is read raises BackendError. An image of at most
    QUERY_IMAGE_BYTES is read once per query on a thread: a later body of
    the same query whose stat gives the same stat identity sends the blocks
    that read made.
    """

    def __init__(self, config: EndpointConfig, req: BackendRequest):
        self._pieces: list[bytes | tuple[str, os.stat_result]] = []
        self._images = _query_images.of(req.query_id)
        literal = ['{"model": ', json.dumps(config.model),
                   ', "messages": [{"role": "user", "content": [']
        for i, part in enumerate(req.messages.parts):
            if i:
                literal.append(", ")
            if isinstance(part, TextPart):
                literal += ['{"type": "text", "text": ', json.dumps(part.text), "}"]
                continue
            st = _local_file(part.image_ref)
            if st is None:
                literal += ['{"type": "image", "data": ', json.dumps(part.image_ref), "}"]
            else:
                literal.append('{"type": "image", "data": "')
                self._pieces += ["".join(literal).encode("ascii"), (part.image_ref, st)]
                literal = ['"}']
        literal += [']}], "temperature": ', json.dumps(_temperature(req)),
                    ', "max_tokens": ', json.dumps(req.max_new_tokens), "}"]
        self._pieces.append("".join(literal).encode("ascii"))
        self._len = sum(len(p) if isinstance(p, bytes) else 4 * ((p[1].st_size + 2) // 3)
                        for p in self._pieces)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[bytes]:
        for piece in self._pieces:
            if isinstance(piece, bytes):
                yield piece
                continue
            path, st = piece
            identity = stat_identity(st)
            held = self._images.get(path)
            if held is not None and held[0] == identity:
                yield from held[1]
            elif st.st_size > QUERY_IMAGE_BYTES:
                yield from _base64_blocks(path, st.st_size)
            else:
                blocks = []
                for block in _base64_blocks(path, st.st_size):
                    blocks.append(block)
                    yield block
                self._images[path] = (identity, tuple(blocks))


def _base64_blocks(path: str, size: int) -> Iterator[bytes]:
    """base64 of the file at path, IMAGE_BLOCK_BYTES of it at a time; the
    file must still hold exactly size bytes."""
    try:
        with open(path, "rb") as fh:
            left = size
            while left:
                block = fh.read(min(IMAGE_BLOCK_BYTES, left))
                if not block:
                    break
                left -= len(block)
                yield base64.b64encode(block)
            changed = bool(left or fh.read(1))
    except OSError as exc:
        raise BackendError(f"cannot read image {path}: {exc}") from exc
    if changed:
        raise BackendError(f"image {path} changed size while being sent (was {size} bytes)")


def _retry_wait(backoff_s: float, retry_after: str | None, cap_s: float) -> float:
    """Seconds before the next attempt: a Retry-After of delta-seconds
    (RFC 9110 section 10.2.3) replaces the backoff, capped at cap_s; an
    HTTP-date, or anything else, keeps the backoff."""
    value = (retry_after or "").strip()
    if value.isascii() and value.isdigit():
        return min(float(value), cap_s)
    return backoff_s


class HttpBackend(Backend):
    """Chat-completion client: POST {model, messages, temperature, max_tokens},
    answer text read from the first choice's message content.

    Timeouts, 429 and 5xx responses are retried with 0.5s/1s/2s backoff
    (three retries after the initial attempt), then surfaced; a Retry-After
    of delta-seconds replaces that step's backoff. Other client errors and
    malformed bodies surface immediately: retrying them cannot help.

    Redirects are not followed: a 3xx fails at once, naming its Location.

    Each attempt streams a fresh StreamedBody. Without an injected session
    the backend posts through a transport.Transport that keeps up to
    `workers` idle connections, one per query thread of the run (--workers),
    each with at most one call in flight. A session is anything with the Transport.post
    signature whose reply has status_code, headers.get, text and json(); it
    is used as given, so it must send ``Content-Type: application/json``
    itself.
    """

    def __init__(self, config: EndpointConfig, session=None,
                 workers: int = DEFAULT_HTTP_WORKERS):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.config = config
        if session is None:
            from .transport import Transport  # only HTTP runs load the stdlib HTTP stack

            session = Transport(config.url, workers)
        self._session = session

    def _headers(self) -> dict[str, str]:
        headers = {}
        if self.config.api_key_env:
            key = os.environ.get(self.config.api_key_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        return headers

    def generate(self, req: BackendRequest) -> BackendResponse:
        from http.client import HTTPException

        tag = f"query_id={req.query_id!r} stage={req.stage!r}"
        attempts = 1 + len(RETRY_BACKOFFS_S)
        last_error: BackendError | None = None
        wait = 0.0
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                _sleep(wait)
            wait = RETRY_BACKOFFS_S[attempt - 1] if attempt < attempts else 0.0
            started = time.monotonic()
            try:
                resp = self._session.post(
                    self.config.url, data=StreamedBody(self.config, req),
                    headers=self._headers(), timeout=self.config.timeout_s,
                )
            except TimeoutError:
                last_error = BackendError(
                    f"timeout after {self.config.timeout_s}s on attempt "
                    f"{attempt}/{attempts} for {tag}"
                )
                continue
            except (OSError, HTTPException, BackendError) as exc:
                raise BackendError(f"request failed for {tag}: {exc}") from exc
            latency_ms = (time.monotonic() - started) * 1000.0
            if resp.status_code == 429 or resp.status_code >= 500:
                kind = "rate limited" if resp.status_code == 429 else "server error"
                last_error = BackendError(
                    f"{kind} {resp.status_code} on attempt {attempt}/{attempts} for {tag}"
                )
                wait = _retry_wait(wait, resp.headers.get("Retry-After"), self.config.timeout_s)
                continue
            if 300 <= resp.status_code < 400:
                raise BackendError(
                    f"redirect {resp.status_code} to {resp.headers.get('Location')!r} for {tag}:"
                    " redirects are not followed"
                )
            if resp.status_code != 200:
                raise BackendError(
                    f"client error {resp.status_code} for {tag}: {resp.text[:200]}"
                )
            try:
                payload = resp.json()
                text = payload["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(
                    f"malformed response body for {tag}: {exc}: {resp.text[:200]}"
                ) from exc
            if not isinstance(text, str):
                raise BackendError(
                    f"malformed response body for {tag}: content is {type(text).__name__}"
                )
            if not utf8_encodable(text):
                raise BackendError(
                    f"malformed response body for {tag}: content holds a lone surrogate, "
                    f"which UTF-8 cannot encode: {resp.text[:200]}"
                )
            return BackendResponse(text=text, latency_ms=latency_ms, raw=resp.text)
        assert last_error is not None
        raise last_error
