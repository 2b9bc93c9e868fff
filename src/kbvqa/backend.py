"""Model backends: a scripted mock for deterministic tests and an HTTP
chat-completion client for real inference servers.

Both expose the same two calls, generate() and generate_batch(). Batch
results always come back in input order with one slot per request; a slot
holds either a BackendResponse or the BackendError that killed it, so one
bad request never aborts a batch.
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import requests

from .errors import BackendError, IngestError, ScriptKeyError
from .kb import read_jsonl
from .prompts import MessageSequence, TextPart

# 512 tokens for the multi-step reasoning variants, 64 elsewhere.
LONG_OUTPUT_VARIANTS = frozenset({"mmstar", "core"})
DEFAULT_MAX_NEW_TOKENS = 64
LONG_MAX_NEW_TOKENS = 512

# One initial attempt plus one retry per backoff value, timeout/5xx only.
RETRY_BACKOFFS_S = (0.5, 1.0, 2.0)


def max_new_tokens_for(variant: str) -> int:
    return LONG_MAX_NEW_TOKENS if variant in LONG_OUTPUT_VARIANTS else DEFAULT_MAX_NEW_TOKENS


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
    """Shared batch plumbing; concrete backends implement generate()."""

    def generate(self, req: BackendRequest) -> BackendResponse:
        raise NotImplementedError

    def generate_batch(
        self, reqs: list[BackendRequest], max_in_flight: int = 4
    ) -> list[BackendResponse | BackendError]:
        if max_in_flight <= 0:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        if not reqs:
            return []
        slots: list[BackendResponse | BackendError | None] = [None] * len(reqs)
        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            futures = {pool.submit(self.generate, req): i for i, req in enumerate(reqs)}
            for future in as_completed(futures):
                i = futures[future]
                try:
                    slots[i] = future.result()
                except BackendError as exc:
                    slots[i] = exc
        return slots  # type: ignore[return-value]


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

        def add(rec: dict, lineno: int) -> None:
            key, text = (rec["query_id"], rec["stage"]), rec["text"]
            if key in script:
                raise IngestError(
                    f"{path}:{lineno}: duplicate script key query_id={key[0]!r} stage={key[1]!r}"
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

    @classmethod
    def from_json_file(cls, path: str | Path) -> "EndpointConfig":
        p = Path(path)
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise IngestError(f"cannot load endpoint config {p}: {exc}") from exc
        if "base_url" not in raw:
            raise IngestError(f"endpoint config {p} is missing base_url")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise IngestError(f"endpoint config {p} has unknown keys: {sorted(unknown)}")
        return cls(**raw)

    @property
    def url(self) -> str:
        return self.base_url.rstrip("/") + "/" + self.path.lstrip("/")


def _image_payload(image_ref: str) -> str:
    """Local files ship as base64 bytes; anything else passes through as a URI."""
    p = Path(image_ref)
    if p.is_file():
        return base64.b64encode(p.read_bytes()).decode("ascii")
    return image_ref


def request_body(config: EndpointConfig, req: BackendRequest) -> dict:
    """The JSON body sent on the wire; kept separate so tests can golden it."""
    content: list[dict] = []
    for part in req.messages.parts:
        if isinstance(part, TextPart):
            content.append({"type": "text", "text": part.text})
        else:
            content.append({"type": "image", "data": _image_payload(part.image_ref)})
    temperature = 0 if req.temperature == 0 else req.temperature
    return {
        "model": config.model,
        "messages": [{"role": "user", "content": content}],
        "temperature": temperature,
        "max_tokens": req.max_new_tokens,
    }


class HttpBackend(Backend):
    """Chat-completion client: POST {model, messages, temperature, max_tokens},
    answer text read from the first choice's message content.

    Timeouts and 5xx responses are retried with 0.5s/1s/2s backoff (three
    retries after the initial attempt), then surfaced. Client errors and
    malformed bodies surface immediately: retrying them cannot help.
    """

    def __init__(self, config: EndpointConfig, session: requests.Session | None = None):
        self.config = config
        self._session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {}
        if self.config.api_key_env:
            key = os.environ.get(self.config.api_key_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        return headers

    def generate(self, req: BackendRequest) -> BackendResponse:
        body = request_body(self.config, req)
        tag = f"query_id={req.query_id!r} stage={req.stage!r}"
        attempts = 1 + len(RETRY_BACKOFFS_S)
        last_error: BackendError | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(RETRY_BACKOFFS_S[attempt - 1])
            started = time.monotonic()
            try:
                resp = self._session.post(
                    self.config.url, json=body, headers=self._headers(),
                    timeout=self.config.timeout_s,
                )
            except requests.Timeout:
                last_error = BackendError(
                    f"timeout after {self.config.timeout_s}s on attempt "
                    f"{attempt + 1}/{attempts} for {tag}"
                )
                continue
            except requests.RequestException as exc:
                raise BackendError(f"request failed for {tag}: {exc}") from exc
            latency_ms = (time.monotonic() - started) * 1000.0
            if resp.status_code >= 500:
                last_error = BackendError(
                    f"server error {resp.status_code} on attempt "
                    f"{attempt + 1}/{attempts} for {tag}"
                )
                continue
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
            return BackendResponse(text=text, latency_ms=latency_ms, raw=resp.text)
        assert last_error is not None
        raise last_error
