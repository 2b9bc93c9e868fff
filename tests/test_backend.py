from __future__ import annotations

import base64
import gc
import hashlib
import http.client
import io
import json
import os
import random
import re
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kbvqa
from kbvqa import backend as backend_module
from kbvqa.backend import (
    IMAGE_BLOCK_BYTES,
    QUERY_IMAGE_BYTES,
    BackendRequest,
    EndpointConfig,
    HttpBackend,
    MockBackend,
    StreamedBody,
    request_body,
)
from kbvqa.errors import BackendError, IngestError, ScriptKeyError
from kbvqa.prompts import STAGE_TABLE, ImagePart, MessageSequence, TextPart
from kbvqa.transport import Reply

from http_stub import ConnectProxy, LocalServer


def _req(query_id="q1", stage="param_gen", text="Question: ", image="img/a.jpg",
         tail="\nslot-0: what is shown?", max_new_tokens=64):
    seq = MessageSequence(parts=(
        TextPart(text), ImagePart(image, "<image>"), TextPart(tail),
    ))
    return BackendRequest(messages=seq, query_id=query_id, stage=stage,
                          max_new_tokens=max_new_tokens)


def _generate_each(backend, reqs, threads):
    """Each request's response, or the BackendError that ended it, in input
    order, with generate called from that many threads at once."""
    def call(req):
        try:
            return backend.generate(req)
        except BackendError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(call, reqs))


class TestMock:
    def test_scripted_response(self):
        backend = MockBackend({("q1", "param_gen"): "Scotland"})
        resp = backend.generate(_req())
        assert resp.text == "Scotland"
        assert resp.latency_ms == 0.0
        assert resp.raw == ""

    def test_missing_key_is_hard_error(self):
        backend = MockBackend({})
        with pytest.raises(ScriptKeyError, match="q1.*param_gen"):
            backend.generate(_req())

    def test_call_log_and_filter(self):
        backend = MockBackend({("q1", "param_gen"): "x", ("q2", "param_gen"): "y"})
        backend.generate(_req("q1"))
        backend.generate(_req("q2"))
        backend.generate(_req("q1"))
        assert backend.calls() == (("q1", "param_gen"), ("q2", "param_gen"),
                                   ("q1", "param_gen"))
        assert backend.calls("q2") == (("q2", "param_gen"),)
        backend.reset_calls()
        assert backend.calls() == ()

    def test_from_script_file(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            '{"query_id": "q1", "stage": "param_gen", "text": "A"}\n'
            "\n"
            '{"query_id": "q1", "stage": "rerank", "text": "[Reference B]"}\n',
            encoding="utf-8",
        )
        backend = MockBackend.from_script_file(path)
        assert backend.generate(_req("q1", "rerank")).text == "[Reference B]"

    def test_script_file_errors_name_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"query_id": "q1", "stage": "s", "text": "a"}\nnot json\n')
        with pytest.raises(IngestError, match=r"bad\.jsonl:2"):
            MockBackend.from_script_file(path)

        path.write_text('{"query_id": "q1", "text": "a"}\n')
        with pytest.raises(IngestError, match="missing field"):
            MockBackend.from_script_file(path)

        path.write_text(
            '{"query_id": "q1", "stage": "s", "text": "a"}\n'
            '{"query_id": "q1", "stage": "s", "text": "b"}\n'
        )
        with pytest.raises(IngestError, match="duplicate"):
            MockBackend.from_script_file(path)

    def test_script_text_that_is_not_a_utf8_string_names_its_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"query_id": "q1", "stage": "s", "text": "a"}\n'
                        '{"query_id": "q2", "stage": "s", "text": "[x\\ud800]"}\n',
                        encoding="ascii")
        with pytest.raises(IngestError, match=r"bad\.jsonl:2: text must be a string with no "
                                              r"lone surrogate.*\(query_id='q2' "):
            MockBackend.from_script_file(path)
        path.write_text('{"query_id": "q1", "stage": "s", "text": 5}\n')
        with pytest.raises(IngestError, match=r"bad\.jsonl:1: field 'text' must be a string, got 5"):
            MockBackend.from_script_file(path)

    def test_batch_preserves_order_and_captures_errors(self):
        backend = MockBackend({(f"q{i}", "param_gen"): f"ans{i}" for i in range(6)
                               if i != 3})
        reqs = [_req(f"q{i}") for i in range(6)]
        slots = _generate_each(backend, reqs, threads=4)
        for i, slot in enumerate(slots):
            if i == 3:
                assert isinstance(slot, BackendError)
            else:
                assert slot.text == f"ans{i}"


def test_stage_table_output_budgets():
    """512 new tokens for every stage of the multi-step reasoning variants
    (core in both modes, mmstar), 64 for every other stage."""
    budgets = {(variant, stage.token): stage.max_new_tokens
               for (variant, _mode), stages in STAGE_TABLE.items() for stage in stages}
    assert budgets == {
        ("param", "param_gen"): 64, ("oracle", "oracle_gen"): 64,
        ("one_stage", "one_stage_gen"): 64, ("two_stage", "rerank"): 64,
        ("two_stage", "two_stage_gen"): 64, ("mmstar", "mmstar_gen"): 512,
        ("core", "core_param"): 512, ("core", "core_select"): 512,
        ("core", "core_ext_gen"): 512, ("core", "core_reconcile"): 512,
        ("core", "core_single"): 512,
        ("probe", "probe_visual"): 64, ("probe", "probe_text"): 64,
    }


class TestEndpointConfig:
    def test_from_json_file(self, tmp_path):
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps({
            "base_url": "http://localhost:9000/", "model": "test-model",
            "timeout_s": 5.0,
        }))
        cfg = EndpointConfig.from_json_file(path)
        assert cfg.url == "http://localhost:9000/v1/chat/completions"
        assert cfg.model == "test-model"

    def test_requires_base_url(self, tmp_path):
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps({"model": "m"}))
        with pytest.raises(IngestError, match="base_url"):
            EndpointConfig.from_json_file(path)

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps({"base_url": "http://x", "retries": 9}))
        with pytest.raises(IngestError, match="retries"):
            EndpointConfig.from_json_file(path)


class TestRequestBody:
    CONFIG = EndpointConfig(base_url="http://x", model="test-model")

    def test_matches_schema_golden(self, goldens_dir):
        body = request_body(self.CONFIG, _req(image="https://img.example/lake.jpg"))
        for part in body["messages"][0]["content"]:
            if part["type"] == "image":
                part["data"] = "<elided>"
            else:
                part["text"] = re.sub(r"slot-\d+", "slot-N", part["text"])
        golden = json.loads((goldens_dir / "http_body.golden.json").read_text())
        assert body == golden

    def test_temperature_zero_is_integer(self):
        body = request_body(self.CONFIG, _req())
        assert body["temperature"] == 0
        assert isinstance(body["temperature"], int)
        assert json.dumps(body["temperature"]) == "0"

    def test_local_file_ships_base64(self, tmp_path):
        img = tmp_path / "pixel.png"
        img.write_bytes(b"PNGDATA")
        body = request_body(self.CONFIG, _req(image=str(img)))
        image_part = body["messages"][0]["content"][1]
        assert image_part == {"type": "image", "data": "UE5HREFUQQ=="}

    def test_non_file_passes_through(self):
        body = request_body(self.CONFIG, _req(image="https://img.example/a.jpg"))
        assert body["messages"][0]["content"][1]["data"] == "https://img.example/a.jpg"

    def test_max_tokens_follows_request(self):
        body = request_body(self.CONFIG, _req(max_new_tokens=512))
        assert body["max_tokens"] == 512


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=None, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text if text is not None else json.dumps(payload)
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


def _ok_payload(content="fine"):
    return {"choices": [{"message": {"content": content}}]}


class FakeSession:
    """Returns (or raises) the scripted outcomes in order."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, data=None, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "body": json, "headers": headers,
                           "timeout": timeout,
                           "data": None if data is None else b"".join(data)})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture
def no_sleep(monkeypatch):
    slept = []
    monkeypatch.setattr("kbvqa.backend._sleep", lambda s: slept.append(s))
    return slept


CONFIG = EndpointConfig(base_url="http://fake", model="m", timeout_s=3.0)


class TestHttpRetry:
    def test_happy_path(self, no_sleep):
        session = FakeSession([FakeResponse(payload=_ok_payload("Scotland"))])
        backend = HttpBackend(CONFIG, session=session)
        resp = backend.generate(_req())
        assert resp.text == "Scotland"
        assert resp.raw == json.dumps(_ok_payload("Scotland"))
        assert no_sleep == []
        assert session.calls[0]["url"] == "http://fake/v1/chat/completions"
        assert session.calls[0]["timeout"] == 3.0

    def test_5xx_retried_with_backoff(self, no_sleep):
        session = FakeSession([
            FakeResponse(status_code=503, payload={}),
            FakeResponse(status_code=500, payload={}),
            FakeResponse(payload=_ok_payload("ok")),
        ])
        backend = HttpBackend(CONFIG, session=session)
        assert backend.generate(_req()).text == "ok"
        assert no_sleep == [0.5, 1.0]

    def test_timeout_exhausts_after_three_retries(self, no_sleep):
        session = FakeSession([TimeoutError("t")] * 4)
        backend = HttpBackend(CONFIG, session=session)
        with pytest.raises(BackendError, match="attempt 4/4"):
            backend.generate(_req())
        assert len(session.calls) == 4
        assert no_sleep == [0.5, 1.0, 2.0]

    def test_4xx_fails_immediately(self, no_sleep):
        session = FakeSession([FakeResponse(status_code=404, payload={}, text="nope")])
        backend = HttpBackend(CONFIG, session=session)
        with pytest.raises(BackendError, match="client error 404"):
            backend.generate(_req())
        assert len(session.calls) == 1 and no_sleep == []

    def test_connection_error_fails_immediately(self, no_sleep):
        session = FakeSession([ConnectionRefusedError("refused")])
        backend = HttpBackend(CONFIG, session=session)
        with pytest.raises(BackendError, match="request failed"):
            backend.generate(_req())
        assert len(session.calls) == 1 and no_sleep == []

    @pytest.mark.parametrize("payload, text", [
        (None, "<html>oops</html>"),
        ({"choices": []}, None),
        ({"choices": [{"message": {}}]}, None),
        ({"choices": [{"message": {"content": 42}}]}, None),
        ({"choices": [{"message": {"content": "[x\ud800]"}}]}, None),
    ])
    def test_malformed_body_fails_immediately(self, no_sleep, payload, text):
        session = FakeSession([FakeResponse(payload=payload, text=text)])
        backend = HttpBackend(CONFIG, session=session)
        with pytest.raises(BackendError, match="malformed"):
            backend.generate(_req())
        assert len(session.calls) == 1 and no_sleep == []

    def test_mixed_timeout_then_5xx_then_ok(self, no_sleep):
        session = FakeSession([
            TimeoutError("t"),
            FakeResponse(status_code=502, payload={}),
            FakeResponse(payload=_ok_payload("done")),
        ])
        backend = HttpBackend(CONFIG, session=session)
        assert backend.generate(_req()).text == "done"
        assert no_sleep == [0.5, 1.0]

    def test_429_retried_on_the_5xx_schedule(self, no_sleep):
        session = FakeSession([
            FakeResponse(status_code=429, payload={}),
            FakeResponse(payload=_ok_payload("later")),
        ])
        assert HttpBackend(CONFIG, session=session).generate(_req()).text == "later"
        assert no_sleep == [0.5]

    def test_429_retry_after_zero_replaces_backoff(self, no_sleep):
        session = FakeSession([
            FakeResponse(status_code=429, payload={}, headers={"Retry-After": "0"}),
            FakeResponse(payload=_ok_payload("now")),
        ])
        assert HttpBackend(CONFIG, session=session).generate(_req()).text == "now"
        assert no_sleep == [0.0]

    def test_429_four_times_exhausts(self, no_sleep):
        session = FakeSession([FakeResponse(status_code=429, payload={})] * 4)
        with pytest.raises(BackendError, match=r"429 on attempt 4/4"):
            HttpBackend(CONFIG, session=session).generate(_req())
        assert len(session.calls) == 4
        assert no_sleep == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize("retry_after, slept", [
        ("2", 2.0),
        ("120", 3.0),  # capped at timeout_s
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5),  # an HTTP-date keeps the backoff
        ("-1", 0.5),
        ("1.5", 0.5),
    ])
    def test_retry_after_values(self, no_sleep, retry_after, slept):
        session = FakeSession([
            FakeResponse(status_code=429, payload={}, headers={"Retry-After": retry_after}),
            FakeResponse(payload=_ok_payload()),
        ])
        HttpBackend(CONFIG, session=session).generate(_req())
        assert no_sleep == [slept]

    def test_retry_resends_identical_bytes(self, no_sleep, tmp_path):
        img = tmp_path / "img.bin"
        img.write_bytes(bytes(range(256)) * 300)
        req = _req(image=str(img))
        session = FakeSession([
            FakeResponse(status_code=503, payload={}),
            TimeoutError("t"),
            FakeResponse(payload=_ok_payload()),
        ])
        HttpBackend(CONFIG, session=session).generate(req)
        expected = json.dumps(request_body(CONFIG, req)).encode()
        assert [c["data"] for c in session.calls] == [expected] * 3

    def test_api_key_header_from_env(self, no_sleep, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "sk-123")
        cfg = EndpointConfig(base_url="http://fake", api_key_env="FAKE_KEY")
        session = FakeSession([FakeResponse(payload=_ok_payload())])
        HttpBackend(cfg, session=session).generate(_req())
        assert session.calls[0]["headers"] == {"Authorization": "Bearer sk-123"}

    def test_no_header_without_env(self, no_sleep):
        session = FakeSession([FakeResponse(payload=_ok_payload())])
        HttpBackend(CONFIG, session=session).generate(_req())
        assert session.calls[0]["headers"] == {}


# -- streamed request body ---------------------------------------------------

_EDGE_SIZES = (0, 1, 2, 3, IMAGE_BLOCK_BYTES - 1, IMAGE_BLOCK_BYTES, IMAGE_BLOCK_BYTES + 1)


@pytest.fixture(scope="module")
def image_files(tmp_path_factory):
    """One file of random bytes per edge size around the block length."""
    root = tmp_path_factory.mktemp("images")
    paths = []
    for size in _EDGE_SIZES:
        path = root / f"img_{size}.bin"
        path.write_bytes(random.Random(size).randbytes(size))
        paths.append(str(path))
    return paths


_TEXT = st.text(max_size=40) | st.sampled_from([
    '"quoted" \\ backslash', "tab\tnew\nline\r\x00\x1f\x7f", "café 漢字 \U0001f600",
])
_URIS = ["https://img.example/a.jpg", "", "no/such/file.jpg", "data:image/png;base64,AAAA"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_streamed_body_is_the_json_body(image_files, data):
    parts = data.draw(st.lists(
        st.one_of(
            _TEXT.map(TextPart),
            st.sampled_from(image_files).map(lambda p: ImagePart(p, "<image>")),
            st.sampled_from(_URIS).map(lambda p: ImagePart(p, "<image>")),
        ),
        max_size=8,
    ))
    req = BackendRequest(
        messages=MessageSequence(parts=tuple(parts)), query_id="q", stage="s",
        max_new_tokens=data.draw(st.integers(1, 4096)),
        temperature=data.draw(st.sampled_from([0, 0.0, 0.2, 1, 1e-7])),
    )
    config = EndpointConfig(base_url="http://x", model=data.draw(_TEXT))
    expected = json.dumps(request_body(config, req)).encode()
    body = StreamedBody(config, req)
    assert b"".join(body) == expected
    assert len(body) == len(expected)
    assert b"".join(body) == expected  # a second pass reads the files again


def test_image_goes_out_one_block_at_a_time(tmp_path):
    assert IMAGE_BLOCK_BYTES % 3 == 0
    data = random.Random(0).randbytes(2 * IMAGE_BLOCK_BYTES + 2)
    img = tmp_path / "img.bin"
    img.write_bytes(data)
    pieces = list(StreamedBody(CONFIG, _req(image=str(img))))
    b = IMAGE_BLOCK_BYTES
    assert pieces[1:4] == [base64.b64encode(data[:b]), base64.b64encode(data[b:2 * b]),
                           base64.b64encode(data[2 * b:])]
    assert len(pieces) == 5


@pytest.mark.parametrize("grow", [True, False])
def test_file_changing_size_before_send_is_a_backend_error(tmp_path, grow):
    img = tmp_path / "img.bin"
    img.write_bytes(b"x" * (3 * IMAGE_BLOCK_BYTES))
    body = StreamedBody(CONFIG, _req(image=str(img)))
    img.write_bytes(b"x" * (3 * IMAGE_BLOCK_BYTES + 1 if grow else IMAGE_BLOCK_BYTES))
    with pytest.raises(BackendError, match="changed size"):
        b"".join(body)


def test_changed_file_fails_the_call_naming_the_request(tmp_path, monkeypatch, no_sleep):
    img = tmp_path / "img.bin"
    img.write_bytes(b"x" * 10)
    req = _req(image=str(img))
    stale = StreamedBody(CONFIG, req)
    img.write_bytes(b"x" * 11)
    monkeypatch.setattr("kbvqa.backend.StreamedBody", lambda config, r: stale)
    session = FakeSession([FakeResponse(payload=_ok_payload())])
    with pytest.raises(BackendError, match="stage='param_gen'.*changed size"):
        HttpBackend(CONFIG, session=session).generate(req)


# -- images encoded once per query -------------------------------------------

_STAGES = ("param_gen", "rerank", "ext_gen", "reconcile")


@pytest.fixture(scope="module")
def query_images(tmp_path_factory):
    """Files of random bytes: three within QUERY_IMAGE_BYTES, one just above it."""
    root = tmp_path_factory.mktemp("query_images")
    paths = []
    for i, size in enumerate((1, IMAGE_BLOCK_BYTES + 1, 96 * 1024, QUERY_IMAGE_BYTES + 1)):
        path = root / f"img_{i}.bin"
        path.write_bytes(random.Random(100 + i).randbytes(size))
        paths.append(str(path))
    return paths


def _call_parts(images):
    """Image parts, many repeated, with text between them."""
    return st.lists(
        st.one_of(st.sampled_from(images).map(lambda p: ImagePart(p, "<image>")),
                  _TEXT.map(TextPart)),
        max_size=6,
    ).map(lambda parts: MessageSequence(parts=tuple(parts)))


def _body_is_request_body(req):
    body = StreamedBody(CONFIG, req)
    expected = json.dumps(request_body(CONFIG, req)).encode()
    return b"".join(body) == expected and len(body) == len(expected)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bodies_of_a_query_and_of_interleaved_queries_are_their_json_bodies(
        query_images, tmp_path_factory, data):
    # One query's four calls on this thread, with a file rewritten to a new
    # size between calls now and then.
    root = tmp_path_factory.mktemp("rewritten")
    images = [str(root / f"img_{i}.bin") for i in range(2)]
    for i, path in enumerate(images):
        Path(path).write_bytes(random.Random(i).randbytes(data.draw(st.integers(0, 9), "size")))
    for stage in _STAGES:
        if data.draw(st.booleans(), "rewrite"):
            path = Path(data.draw(st.sampled_from(images), "rewritten"))
            path.write_bytes(path.read_bytes() + b"x")
        messages = data.draw(_call_parts([*images, *query_images]), "parts")
        assert _body_is_request_body(BackendRequest(messages, query_id="q", stage=stage))

    # Queries of four calls on three threads, each thread's calls in a drawn
    # order, so one thread's queries interleave.
    queries = data.draw(st.lists(st.lists(_call_parts(query_images), min_size=4, max_size=4),
                                 min_size=1, max_size=6), "queries")
    calls = [BackendRequest(messages, query_id=f"q{i}", stage=stage)
             for i, query in enumerate(queries) for stage, messages in zip(_STAGES, query)]
    by_thread = [[c for c in calls if int(c.query_id[1:]) % 3 == t] for t in range(3)]
    orders = [data.draw(st.permutations(thread_calls), "order") for thread_calls in by_thread]
    with ThreadPoolExecutor(max_workers=3) as pool:
        results = list(pool.map(lambda order: [_body_is_request_body(r) for r in order], orders))
    assert all(all(result) for result in results)


def test_an_image_within_the_limit_is_opened_once_per_query(query_images, monkeypatch):
    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(backend_module, "open", counting_open, raising=False)
    small, large = query_images[2], query_images[3]
    for query_id in ("opened-1", "opened-2"):
        for stage in _STAGES:
            req = BackendRequest(MessageSequence(parts=(
                ImagePart(small, "<image>"), TextPart("and"), ImagePart(small, "<image>"),
                ImagePart(large, "<image>"),
            )), query_id=query_id, stage=stage)
            assert _body_is_request_body(req)
    # request_body opens each image through Path.read_bytes, not through open.
    assert opened.count(small) == 2  # once per query
    assert opened.count(large) == 8  # once per call


def test_an_image_rewritten_with_its_size_and_mtime_kept_is_read_again(tmp_path):
    """The cache key is the file's stat identity: a rewrite that keeps the size
    and has os.utime put the mtime back still moves the ctime."""
    path = tmp_path / "img.bin"
    path.write_bytes(random.Random(7).randbytes(1000))

    def call(stage):
        return BackendRequest(MessageSequence(parts=(ImagePart(str(path), "<image>"),)),
                              query_id="rewritten-in-place", stage=stage)

    assert _body_is_request_body(call(_STAGES[0]))
    st = path.stat()
    time.sleep(0.05)  # past the file system's timestamp granularity
    path.write_bytes(random.Random(8).randbytes(1000))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    assert _body_is_request_body(call(_STAGES[1]))


# -- against a local HTTP server ---------------------------------------------


def test_one_call_holds_one_block_not_the_image(tmp_path):
    img = tmp_path / "big.bin"
    img.write_bytes(random.Random(4).randbytes(4 * 1024 * 1024))
    req = _req(image=str(img))
    with LocalServer() as server:
        config = EndpointConfig(base_url=server.url, model="m")
        backend = HttpBackend(config)
        backend.generate(_req(image="https://img.example/warm.jpg"))  # opens the connection
        tracemalloc.start()
        try:
            assert backend.generate(req).text == "ok"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    expected = json.dumps(request_body(config, req)).encode()
    seen = server.requests[-1]
    assert seen["sha256"] == hashlib.sha256(expected).hexdigest()
    assert int(seen["headers"]["Content-Length"]) == len(expected)
    assert "Transfer-Encoding" not in seen["headers"]
    assert seen["headers"]["Content-Type"] == "application/json"
    assert peak < 256 * 1024, f"traced peak {peak} bytes"


def test_a_file_resized_between_calls_of_a_query_is_read_again(tmp_path):
    img = tmp_path / "img.bin"
    with LocalServer() as server:
        config = EndpointConfig(base_url=server.url, model="m")
        backend = HttpBackend(config)
        for i, size in enumerate((3 * IMAGE_BLOCK_BYTES, IMAGE_BLOCK_BYTES + 7, 5)):
            img.write_bytes(random.Random(i).randbytes(size))
            req = _req(query_id="q", stage=_STAGES[i], image=str(img))
            assert backend.generate(req).text == "ok"
            expected = json.dumps(request_body(config, req)).encode()
            seen = server.requests[-1]
            assert seen["sha256"] == hashlib.sha256(expected).hexdigest()
            assert int(seen["headers"]["Content-Length"]) == len(expected)


def test_pool_keeps_one_connection_per_call_in_flight():
    """Between batches every connection sits idle at once; a pool smaller
    than the calls in flight (requests keeps 10) closes the rest, and the
    next batch opens new ones."""
    with LocalServer(delay_s=0.1) as server:
        backend = HttpBackend(EndpointConfig(base_url=server.url), workers=16)
        reqs = [_req(query_id=f"q{i}", image="https://img.example/a.jpg") for i in range(16)]
        slots = [s for _ in range(3) for s in _generate_each(backend, reqs, threads=16)]
    assert [s.text for s in slots] == ["ok"] * 48
    assert server.in_flight_max > 10
    assert len({r["port"] for r in server.requests}) <= 16


def test_proxy_and_netrc_are_read_once_at_construction(tmp_path, monkeypatch):
    """The server plays an HTTP proxy. Proxy and netrc settings present when
    the backend is built still apply after the environment has changed."""
    for name in ("NO_PROXY", "no_proxy", "ALL_PROXY", "all_proxy", "http_proxy",
                 "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        monkeypatch.delenv(name, raising=False)
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password secret\n")
    netrc.chmod(0o600)
    target = "http://127.0.0.1:9"  # nothing listens there: only the proxy answers
    with LocalServer() as proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy.url)
        monkeypatch.setenv("NETRC", str(netrc))
        backend = HttpBackend(EndpointConfig(base_url=target))
        monkeypatch.delenv("HTTP_PROXY")
        monkeypatch.setenv("NETRC", str(tmp_path / "absent"))
        for _ in range(2):
            assert backend.generate(_req(image="https://img.example/a.jpg")).text == "ok"
    assert [r["target"] for r in proxy.requests] == [target + "/v1/chat/completions"] * 2
    basic = "Basic " + base64.b64encode(b"user:secret").decode()
    assert [r["headers"]["Authorization"] for r in proxy.requests] == [basic] * 2


# -- the stdlib transport ----------------------------------------------------

CERT = Path(__file__).resolve().parent / "certs" / "127.0.0.1.pem"
CERT_KEY = CERT.with_suffix(".key")
URI_IMAGE = "https://img.example/a.jpg"


@pytest.fixture
def clean_env(monkeypatch):
    """No proxy, CA bundle or netrc from the caller's environment."""
    for name in ("NO_PROXY", "no_proxy", "ALL_PROXY", "all_proxy", "HTTP_PROXY", "http_proxy",
                 "HTTPS_PROXY", "https_proxy", "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NETRC", "/nonexistent/netrc")
    return monkeypatch


def test_api_key_beats_netrc_for_the_endpoint(tmp_path, clean_env):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password secret\n")
    clean_env.setenv("NETRC", str(netrc))
    clean_env.setenv("MYKEY", "sk-mine")
    with LocalServer() as server:
        cfg = EndpointConfig(base_url=server.url, api_key_env="MYKEY")
        assert HttpBackend(cfg).generate(_req(image=URI_IMAGE)).text == "ok"
    headers = server.requests[0]["headers"]
    assert headers["Authorization"] == "Bearer sk-mine"
    assert headers["User-Agent"] == f"kbvqa/{kbvqa.__version__}"
    assert headers["Accept-Encoding"] == "identity"


def test_server_closing_idle_connections_gets_a_new_one(clean_env):
    """The server closes each connection after replying, without saying so;
    the next call notices before sending and opens a new connection."""
    with LocalServer(close_after_reply=True) as server:
        backend = HttpBackend(EndpointConfig(base_url=server.url))
        for _ in range(3):
            assert backend.generate(_req(image=URI_IMAGE)).text == "ok"
            time.sleep(0.05)  # the close reaches the client while it is idle
    assert len({r["port"] for r in server.requests}) == 3


def test_body_error_mid_send_closes_the_connection(tmp_path, clean_env, monkeypatch):
    img = tmp_path / "img.bin"
    img.write_bytes(b"x" * (3 * IMAGE_BLOCK_BYTES))
    req = _req(image=str(img))
    stale = StreamedBody(CONFIG, req)
    img.write_bytes(b"x" * IMAGE_BLOCK_BYTES)
    with LocalServer() as server:
        backend = HttpBackend(EndpointConfig(base_url=server.url))
        assert backend.generate(_req(image=URI_IMAGE)).text == "ok"
        with monkeypatch.context() as m:
            m.setattr("kbvqa.backend.StreamedBody", lambda config, r: stale)
            with pytest.raises(BackendError, match="request failed.*changed size") as failure:
                backend.generate(req)
        # Closed at once, not when the traceback lets go of it: the server
        # reads the cut-short body to its end.
        deadline = time.monotonic() + 5
        while len(server.requests) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server.requests) == 2, failure
        assert backend.generate(req).text == "ok"
    ports = [r["port"] for r in server.requests]
    assert ports[0] == ports[1] != ports[2]


def test_redirect_fails_once_without_following(clean_env):
    with LocalServer(status=302, headers={"Location": "http://127.0.0.1:9/elsewhere"}) as server:
        backend = HttpBackend(EndpointConfig(base_url=server.url))
        with pytest.raises(BackendError, match=r"redirect 302 to 'http://127\.0\.0\.1:9/elsewhere'"):
            backend.generate(_req(image=URI_IMAGE))
    assert len(server.requests) == 1


def test_no_sleep_skips_the_backoff_but_not_the_stub_delay(clean_env, no_sleep):
    """no_sleep replaces the backend's backoff wait only; the stub's own
    delay, slept on its server thread, still passes."""
    with LocalServer(delay_s=0.1, status=503) as server:
        backend = HttpBackend(EndpointConfig(base_url=server.url))
        started = time.monotonic()
        with pytest.raises(BackendError, match="server error 503 on attempt 4/4"):
            backend.generate(_req(image=URI_IMAGE))
        elapsed = time.monotonic() - started
    assert no_sleep == [0.5, 1.0, 2.0]
    assert len(server.requests) == 4
    assert 4 * 0.1 <= elapsed < 0.5 + 1.0 + 2.0


def test_https_verifies_against_the_ca_bundle(clean_env):
    with LocalServer(tls=(str(CERT), str(CERT_KEY))) as server:
        assert server.url.startswith("https://")
        clean_env.setenv("REQUESTS_CA_BUNDLE", str(CERT))
        trusted = HttpBackend(EndpointConfig(base_url=server.url))
        assert trusted.generate(_req(image=URI_IMAGE)).text == "ok"
        clean_env.delenv("REQUESTS_CA_BUNDLE")
        untrusted = HttpBackend(EndpointConfig(base_url=server.url))
        with pytest.raises(BackendError, match="request failed"):
            untrusted.generate(_req(image=URI_IMAGE))
    assert len(server.requests) == 1


def test_https_through_a_connect_proxy(clean_env):
    with LocalServer(tls=(str(CERT), str(CERT_KEY))) as server, ConnectProxy() as proxy:
        clean_env.setenv("REQUESTS_CA_BUNDLE", str(CERT))
        clean_env.setenv("HTTPS_PROXY", proxy.url.replace("http://", "http://pu:pw@"))
        backend = HttpBackend(EndpointConfig(base_url=server.url))
        for _ in range(2):
            assert backend.generate(_req(image=URI_IMAGE)).text == "ok"
    host_port = server.url.removeprefix("https://")
    assert [(t["method"], t["target"]) for t in proxy.tunnels] == [("CONNECT", host_port)]
    assert proxy.tunnels[0]["headers"]["Proxy-Authorization"] == (
        "Basic " + base64.b64encode(b"pu:pw").decode())
    assert [r["target"] for r in server.requests] == ["/v1/chat/completions"] * 2
    assert "Proxy-Authorization" not in server.requests[0]["headers"]


@pytest.mark.parametrize("content_type, body, text", [
    ("application/json", "café".encode(), "café"),
    ("text/plain; charset=latin-1", "café".encode("latin-1"), "café"),
    ("text/plain; charset=no-such-codec", b"caf\xe9", "caf\ufffd"),
    ("application/json", b"\xff{}", "\ufffd{}"),
])
def test_reply_text_follows_the_charset(content_type, body, text):
    headers = http.client.parse_headers(io.BytesIO(f"Content-Type: {content_type}\r\n\r\n".encode()))
    assert Reply(200, headers, body).text == text


def test_pool_under_thread_contention(clean_env):
    """More threads than the pool keeps, with a short switch interval: no
    connection serves two calls at once, and the idle pool stays bounded."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with LocalServer() as server:
            backend = HttpBackend(EndpointConfig(base_url=server.url), workers=3)
            reqs = [_req(query_id=f"q{i}", image=URI_IMAGE) for i in range(24)]
            for _ in range(4):
                slots = _generate_each(backend, reqs, threads=12)
                assert [getattr(s, "text", s) for s in slots] == ["ok"] * 24
                assert len(backend._session._idle) <= 3
    finally:
        sys.setswitchinterval(interval)
    assert len(server.requests) == 96


def test_idle_connections_close_with_the_backend(clean_env):
    with LocalServer() as server:
        backend = HttpBackend(EndpointConfig(base_url=server.url))
        assert backend.generate(_req(image=URI_IMAGE)).text == "ok"
        sock = backend._session._idle[0].sock
        del backend
        gc.collect()
        assert sock.fileno() == -1
