"""The HTTP transport HttpBackend posts through when no session is given:
keep-alive connections to one endpoint, on the standard library alone.

kbvqa.backend imports this module on first use, so commands that never
talk to an endpoint do not load http.client, ssl or urllib.
"""

from __future__ import annotations

import base64
import http.client
import json
import netrc
import os
import select
import ssl
import threading
import urllib.request
import weakref
from typing import TYPE_CHECKING, Mapping
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit

from . import __version__
from .errors import BackendError

if TYPE_CHECKING:
    from .backend import StreamedBody


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode("ascii")


def _url_auth(parts: SplitResult) -> str | None:
    """Basic credentials written into a URL as user:password@, if any."""
    if parts.username is None:
        return None
    return _basic_auth(unquote(parts.username), unquote(parts.password or ""))


def _netrc_auth(host: str) -> str | None:
    """Basic credentials for host from $NETRC, else ~/.netrc. A file that
    is missing or does not parse gives none."""
    path = os.environ.get("NETRC") or os.path.join(os.path.expanduser("~"), ".netrc")
    try:
        found = netrc.netrc(path).authenticators(host)
    except (OSError, UnicodeError, netrc.NetrcParseError):
        return None
    if not found:
        return None
    login, account, password = found
    return _basic_auth(login or account, password)


def _ssl_context() -> ssl.SSLContext:
    """REQUESTS_CA_BUNDLE or CURL_CA_BUNDLE (a file or a directory) when set,
    otherwise the system defaults, which honour SSL_CERT_FILE/SSL_CERT_DIR."""
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    try:
        if bundle and os.path.isdir(bundle):
            return ssl.create_default_context(capath=bundle)
        return ssl.create_default_context(cafile=bundle or None)
    except OSError as exc:
        raise BackendError(f"cannot load CA bundle {bundle}: {exc}") from exc


def _dropped(sock) -> bool:
    """An idle keep-alive socket that has turned readable was closed by the
    server (or holds bytes nobody asked for): it cannot carry a request."""
    if not hasattr(select, "poll"):
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _close_all(conns: list[http.client.HTTPConnection]) -> None:
    while conns:
        conns.pop().close()


class Reply:
    """A response as HttpBackend reads it: status_code, headers.get, text, json()."""

    def __init__(self, status_code: int, headers: http.client.HTTPMessage, body: bytes):
        self.status_code = status_code
        self.headers = headers
        try:
            self.text = body.decode(headers.get_content_charset() or "utf-8", errors="replace")
        except LookupError:  # a charset Python does not know
            self.text = body.decode("utf-8", errors="replace")

    def json(self):
        return json.loads(self.text)


class Transport:
    """Keep-alive HTTP(S) connections to one endpoint, on the standard library.

    The proxy (getproxies and proxy_bypass), netrc or URL credentials and the
    TLS context are resolved once, here. Plain HTTP goes through a proxy with
    an absolute-form target, HTTPS through a CONNECT tunnel. Up to max_idle
    idle connections are kept, the most recently used first; one the server
    has closed meanwhile is dropped before reuse. A connection that saw a
    timeout, any error, or a reply that closes it, is closed and never
    pooled again. Redirects are returned like any other reply, not followed.
    """

    def __init__(self, url: str, max_idle: int):
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise BackendError(f"endpoint {url!r} is not an http:// or https:// URL")
        self.url = url
        self._max_idle = max_idle
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        # Idle connections are closed when the transport is collected.
        weakref.finalize(self, _close_all, self._idle)
        self._headers = {"Content-Type": "application/json", "Accept-Encoding": "identity",
                         "User-Agent": f"kbvqa/{__version__}"}
        self._auth = _url_auth(parts) or _netrc_auth(parts.hostname)
        netloc = parts.netloc.rpartition("@")[2]
        self._target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._addr = (parts.hostname, parts.port)
        self._tunnel = None
        proxies = urllib.request.getproxies()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
        if proxy and not urllib.request.proxy_bypass(netloc):
            via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if via.scheme != "http" or not via.hostname:
                raise BackendError(f"proxy {proxy!r} for {url!r}: only http:// proxies are supported")
            proxy_auth = _url_auth(via)
            proxy_headers = {"Proxy-Authorization": proxy_auth} if proxy_auth else {}
            self._addr = (via.hostname, via.port or 80)
            if parts.scheme == "https":
                self._tunnel = (parts.hostname, parts.port, proxy_headers)
            else:
                self._target = f"http://{netloc}{self._target}"
                self._headers.update(proxy_headers)
        self._context = _ssl_context() if parts.scheme == "https" else None

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        """The most recently used idle connection still open, or a new one."""
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                break
            if conn.sock is not None and not _dropped(conn.sock):
                conn.sock.settimeout(timeout)
                return conn
            conn.close()
        if self._context is None:
            return http.client.HTTPConnection(*self._addr, timeout=timeout)
        conn = http.client.HTTPSConnection(*self._addr, timeout=timeout, context=self._context)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn

    def post(self, url: str, data: StreamedBody, headers: Mapping[str, str],
             timeout: float) -> Reply:
        """POST data, a sized iterable of bytes, to the endpoint; url must be
        the one the transport was made for. An Authorization in headers
        replaces the netrc or URL credentials."""
        if url != self.url:
            raise ValueError(f"this transport posts to {self.url!r}, not {url!r}")
        sent = {**self._headers, "Content-Length": str(len(data))}
        if self._auth is not None:
            sent["Authorization"] = self._auth
        sent.update(headers)
        conn = self._connection(timeout)
        try:
            conn.request("POST", self._target, body=data, headers=sent)
            resp = conn.getresponse()
            body = resp.read()
        except BaseException:
            conn.close()
            raise
        with self._lock:
            keep = not resp.will_close and len(self._idle) < self._max_idle
            if keep:
                self._idle.append(conn)
        if not keep:
            conn.close()
        return Reply(resp.status, resp.headers, body)
