"""Local TCP server that replays recorded lines for tests and demos.

Wire protocol (newline-delimited, UTF-8):

* Streaming: the client sends a GET-style request whose query string
  contains ``track=<comma-separated terms>``; the server then streams
  one record per line, possibly interleaved with blank keep-alive
  lines, and may close the connection at any point. The stream follows
  the same script as ``collector.ReplaySource``, which serves it: the
  connection drops right after the N-th line delivered over all
  connections, and a reconnect resumes ``rewind`` lines back to mimic
  re-delivery.

* Search: a request for path ``/search`` with ``page=N`` returns one
  page of ``page_size`` lines. The first response line is ``OK <n>``
  followed by the page's n non-blank lines as records,
  ``RATE_LIMIT <retry-after-seconds>``, or ``END`` once the corpus is
  exhausted; a ``page`` that is negative or not an integer gets
  ``ERROR <reason>``. Each page is one connection.

Track terms are parsed but deliberately not used for filtering: the
collector re-checks every line itself, so the replay server stays a
dumb pipe. Requests are unsigned.
"""

from __future__ import annotations

import socket
import socketserver
import sys
import threading
from typing import Iterable
from urllib.parse import parse_qs, urlsplit

from .collector import ReplaySource, StreamDisconnected

__all__ = ["MockStreamServer"]


class MockStreamServer:
    """Scriptable replay server; see the module docstring for the protocol.

    ``/stream`` plays one ReplaySource built from ``lines``,
    ``disconnect_after`` and ``rewind_on_reconnect``, which must be >= 0
    (else ValueError); a blank keep-alive follows every
    ``keepalive_every``-th line delivered over all connections. Each page
    in ``rate_limit_pages`` answers ``RATE_LIMIT`` the first time it is
    asked for, and is served after that. Connections are served one at a
    time.

    Attributes:
        exhausted: set once every line went out at least once (stream mode).
        requests: request lines observed, for protocol assertions.
    """

    def __init__(
        self,
        lines: Iterable[str | bytes],
        *,
        disconnect_after: Iterable[int] = (),
        rewind_on_reconnect: int = 0,
        keepalive_every: int = 0,
        page_size: int = 100,
        rate_limit_pages: Iterable[int] = (),
        rate_limit_retry_after: float = 2.0,
    ):
        self._replay = ReplaySource(
            lines, disconnect_after=disconnect_after, rewind=rewind_on_reconnect
        )
        self._keepalive_every = keepalive_every
        self._page_size = page_size
        self._rate_limit_pages = set(rate_limit_pages)
        self._rate_limit_retry_after = rate_limit_retry_after

        self._stop = threading.Event()
        self._server: _Server | None = None

        self.exhausted = threading.Event()
        self.requests: list[str] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.mock = self
        threading.Thread(
            target=self._server.serve_forever, args=(0.1,), daemon=True
        ).start()
        return self._server.server_address

    def stop(self) -> None:
        self._stop.set()  # ends a stream that idles after its last line
        if self._server is not None:
            self._server.shutdown()  # returns once the connection in hand ends
            self._server.server_close()

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving ------------------------------------------------------------

    def _handle(self, conn: socket.socket, request: bytes) -> None:
        line = request.strip().decode("utf-8", "replace")
        self.requests.append(line)
        parts = line.split()
        target = parts[1] if len(parts) > 1 else "/"
        url = urlsplit(target)
        params = parse_qs(url.query)
        if url.path == "/search":
            self._serve_search(conn, params)
        else:
            self._serve_stream(conn)

    def _serve_stream(self, conn: socket.socket) -> None:
        replay, every = self._replay, self._keepalive_every
        try:
            for line in replay.connect((), self._stop):
                conn.sendall(line + b"\n")
                if every and replay.delivered % every == 0:
                    conn.sendall(b"\n")
        except StreamDisconnected:
            return  # scripted mid-stream drop
        self.exhausted.set()
        # a real stream idles between posts; hold the connection open
        # until the client hangs up or the server stops
        conn.settimeout(0.05)
        while not self._stop.is_set():
            try:
                if conn.recv(1) == b"":
                    return
            except socket.timeout:
                continue

    def _serve_search(self, conn: socket.socket, params: dict) -> None:
        try:
            page = int(params.get("page", ["0"])[0])
        except ValueError:
            page = -1
        if page < 0:
            conn.sendall(b"ERROR page must be a non-negative integer\n")
            return
        if page in self._rate_limit_pages:
            self._rate_limit_pages.discard(page)  # the next ask for it is served
            conn.sendall(f"RATE_LIMIT {self._rate_limit_retry_after}\n".encode())
            return
        start = page * self._page_size
        chunk = self._replay.lines[start : start + self._page_size]
        if not chunk:
            conn.sendall(b"END\n")
            return
        records = [line for line in chunk if line]  # a blank line is no record
        payload = b"".join(line + b"\n" for line in records)
        conn.sendall(b"OK %d\n" % len(records) + payload)


class _Handler(socketserver.StreamRequestHandler):
    timeout = 5.0

    def handle(self) -> None:
        request = self.rfile.readline()
        if request.endswith(b"\n"):  # else the client left mid-line
            self.server.mock._handle(self.connection, request)


class _Server(socketserver.TCPServer):
    allow_reuse_address = True
    mock: MockStreamServer

    def handle_error(self, request, client_address) -> None:
        if not isinstance(sys.exc_info()[1], OSError):  # OSError: the client left
            super().handle_error(request, client_address)
