"""A threaded HTTP/1.1 chat-completion stub on 127.0.0.1 for backend tests,
and a CONNECT-only proxy to reach it through."""

from __future__ import annotations

import hashlib
import json
import select
import socket
import socketserver
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class LocalServer:
    """Answers every POST after delay_s with reply(body) as the message content.

    Without a reply function the body is read in small reads into a digest
    and never held whole, so a test can bound the memory of the process that
    both sends and receives it. Per request it records the request target,
    the client's port, the headers and the body's sha256; in_flight_max is
    the most requests it held at once. Use it as a context manager.

    status and headers set the reply's status line and extra headers.
    close_after_reply closes each connection once it has replied, without
    a ``Connection: close`` header. tls, a (certificate, key) pair of PEM
    paths, serves HTTPS.
    """

    def __init__(self, delay_s: float = 0.0, reply=None, status: int = 200,
                 headers: dict[str, str] | None = None, close_after_reply: bool = False,
                 tls: tuple[str, str] | None = None):
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.requests: list[dict] = []
        self.in_flight = self.in_flight_max = 0
        state = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                left = int(self.headers["Content-Length"])
                digest, kept = hashlib.sha256(), []
                while left:
                    chunk = self.rfile.read(min(left, 16384))
                    if not chunk:
                        break
                    digest.update(chunk)
                    if reply is not None:
                        kept.append(chunk)
                    left -= len(chunk)
                with state.lock:
                    state.in_flight += 1
                    state.in_flight_max = max(state.in_flight_max, state.in_flight)
                    state.requests.append({"target": self.path, "port": self.client_address[1],
                                           "headers": dict(self.headers),
                                           "sha256": digest.hexdigest()})
                text = "ok" if reply is None else reply(b"".join(kept))
                time.sleep(state.delay_s)
                with state.lock:
                    state.in_flight -= 1
                data = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
                extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
                # One write: headers and body in separate segments would stall
                # on the client's delayed ACK.
                self.wfile.write(b"HTTP/1.1 %d %b\r\nContent-Type: application/json\r\n"
                                 b"%bContent-Length: %d\r\n\r\n%b"
                                 % (status, self.responses[status][0].encode(),
                                    extra.encode(), len(data), data))
                self.close_connection = close_after_reply

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            daemon_threads = True
            request_queue_size = 64

        self.server = Server(("127.0.0.1", 0), Handler)
        scheme = "http"
        if tls is not None:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(*tls)
            self.server.socket = context.wrap_socket(self.server.socket, server_side=True)
            scheme = "https"
        self.url = f"{scheme}://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self) -> "LocalServer":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


class ConnectProxy:
    """A CONNECT-only HTTP proxy on 127.0.0.1. It records each tunnel's
    request line and headers, then relays bytes both ways until either side
    closes. Use it as a context manager."""

    def __init__(self):
        self.tunnels: list[dict] = []
        state = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                method, target, _ = self.rfile.readline().decode("latin-1").split(" ", 2)
                headers = {}
                for line in iter(self.rfile.readline, b"\r\n"):
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip()] = value.strip()
                state.tunnels.append({"method": method, "target": target, "headers": headers})
                host, _, port = target.rpartition(":")
                with socket.create_connection((host, int(port))) as upstream:
                    self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
                    peer = {self.connection: upstream, upstream: self.connection}
                    while True:
                        for sock in select.select(list(peer), [], [], 5)[0]:
                            data = sock.recv(65536)
                            if not data:
                                return
                            peer[sock].sendall(data)

        class Server(socketserver.ThreadingTCPServer):
            daemon_threads = True

        self.server = Server(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self) -> "ConnectProxy":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
