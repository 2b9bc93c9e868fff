"""Chat-completion stub endpoint for the core_http workload.

Runs in its own process so its CPU is never charged to the program:

    python3 perfbench/stub_server.py --plan stub_plan.json --delay-ms 20

It prints ``port <n>`` once listening on 127.0.0.1. Every POST is answered
from the planted plan: the query is recognised by its question text and the
stage by its template text, every image payload is checked against the
digest of the file it names, and the reply is held until the fixed delay has
passed since the request body arrived. Replies go out in one write on a
TCP_NODELAY socket over persistent HTTP/1.1 connections, so no delayed-ACK
stall is charged to the client. ``GET /ping`` is a bare round trip of the
same delay; ``GET /stats`` returns the counters since the previous call and
resets them.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

IMAGE_MAGIC = b"KBVQA-IMG "

# Stage recognised by a phrase only its template contains; checked in order.
STAGE_MARKERS = (
    ("Answer from Step 1:", "core_reconcile"),
    ("Please use parametric knowledge", "core_param"),
    ("Identify the most similar Wikipedia reference", "core_select"),
    ("Based on the retrieved document, answer the question", "core_ext_gen"),
)
_QUESTION_SUFFIX = " within 5 words"


class PlanError(Exception):
    """A request the plan does not account for."""


def image_name(data: bytes) -> str | None:
    """The name an image file carries in its first line."""
    if not data.startswith(IMAGE_MAGIC):
        return None
    end = data.find(b"\n")
    return data[len(IMAGE_MAGIC):end].decode("ascii", "replace") if end > 0 else None


def answer(body: dict, plan: dict) -> tuple[str, str, str]:
    """(query_id, stage, reply) for one request body, or PlanError."""
    try:
        content = body["messages"][0]["content"]
        text = "".join(p["text"] for p in content if p["type"] == "text")
        payloads = [p["data"] for p in content if p["type"] == "image"]
    except (KeyError, IndexError, TypeError) as exc:
        raise PlanError(f"malformed chat body: {exc!r}") from None
    stage = next((s for marker, s in STAGE_MARKERS if marker in text), None)
    if stage is None:
        raise PlanError(f"no stage template recognised in {text[:60]!r}")
    qid = None
    for line in text.splitlines():
        qid = plan["questions"].get(line) or plan["questions"].get(line.removesuffix(_QUESTION_SUFFIX))
        if qid:
            break
    if qid is None:
        raise PlanError(f"{stage}: no planned question in the prompt")
    q = plan["queries"][qid]
    selected = q["candidates"][q["i_tv"]]
    expected = {
        "core_param": [qid],
        "core_select": [qid, *q["candidates"]],
        "core_ext_gen": [qid, selected],
        "core_reconcile": [qid, selected],
    }[stage]
    try:
        images = [base64.b64decode(data, validate=True) for data in payloads]
    except (binascii.Error, ValueError) as exc:
        raise PlanError(f"{qid} {stage}: image payload is not base64: {exc}") from None
    names = [image_name(b) for b in images]
    if names != expected:
        raise PlanError(f"{qid} {stage}: images {names}, plan expects {expected}")
    for name, blob in zip(names, images):
        if hashlib.sha256(blob).hexdigest() != plan["images"][name]:
            raise PlanError(f"{qid} {stage}: image {name} differs from the file's digest")
    return qid, stage, q["replies"][stage]


class Stats:
    """Requests served, in-flight maximum and time-weighted mean, service times."""

    def __init__(self):
        self._lock = threading.Lock()
        self.in_flight = 0
        self._reset(time.perf_counter())

    def _reset(self, now: float) -> None:
        """Start a new window; requests still in flight carry over."""
        self.requests = 0
        self.errors: list[str] = []
        self.stages: dict[str, list[str]] = {}
        self.service_ms: list[float] = []
        self.in_flight_max = self.in_flight
        self.area = 0.0
        self.first = None
        self.last_end = now
        self.last_change = now

    def _tick(self, now: float) -> None:
        self.area += self.in_flight * (now - self.last_change)
        self.last_change = now

    def enter(self, now: float) -> None:
        with self._lock:
            self._tick(now)
            if self.first is None:
                self.first = now
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)

    def leave(self, now: float, qid: str | None, stage: str | None, service_ms: float,
              error: str | None) -> None:
        with self._lock:
            self._tick(now)
            self.in_flight -= 1
            self.last_end = now
            self.requests += 1
            self.service_ms.append(service_ms)
            if error is not None:
                if len(self.errors) < 20:
                    self.errors.append(error)
            else:
                self.stages.setdefault(qid, []).append(stage)

    def snapshot_and_reset(self) -> dict:
        with self._lock:
            now = time.perf_counter()
            self._tick(now)
            busy = (self.last_end - self.first) if self.first is not None else 0.0
            out = {
                "requests": self.requests,
                "errors": list(self.errors),
                "stages": self.stages,
                "service_ms": self.service_ms,
                "in_flight_max": self.in_flight_max,
                "in_flight_mean": self.area / busy if busy > 0 else 0.0,
            }
            self._reset(now)
            return out


def make_server(plan: dict, delay_s: float) -> ThreadingHTTPServer:
    stats = Stats()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            reason = self.responses[status][0]
            head = (f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n\r\n").encode("ascii")
            self.wfile.write(head + data)

        def do_GET(self):
            if self.path == "/ping":
                time.sleep(delay_s)
                self._send(200, {"ok": True})
            elif self.path == "/stats":
                self._send(200, stats.snapshot_and_reset())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            started = time.perf_counter()
            stats.enter(started)
            qid = stage = error = None
            try:
                qid, stage, reply = answer(json.loads(body), plan)
            except (PlanError, ValueError) as exc:
                error = str(exc)
            pause = started + delay_s - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            service_ms = (time.perf_counter() - started) * 1000.0
            if error is None:
                payload = {"choices": [{"message": {"role": "assistant", "content": reply}}],
                           "service_ms": round(service_ms, 3)}
                status = 200
            else:
                payload, status = {"error": error}, 400
            # Counted before the reply goes out, so a client that has its
            # reply always finds the request in the stats.
            stats.leave(time.perf_counter(), qid, stage, service_ms, error)
            self._send(status, payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.stats = stats
    return server


def main() -> None:
    ap = argparse.ArgumentParser(description="chat-completion stub for the core_http workload")
    ap.add_argument("--plan", required=True, help="stub_plan.json written by workloads.py")
    ap.add_argument("--delay-ms", type=float, required=True, help="fixed service time per call")
    args = ap.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    server = make_server(plan, args.delay_ms / 1000.0)
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
