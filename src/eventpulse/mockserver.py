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
  exhausted; a ``page`` that is not an integer gets ``ERROR <reason>``.
  Each page is one connection.

Track terms are parsed but deliberately not used for filtering: the
collector re-checks every line itself, so the replay server stays a
dumb pipe. Requests are unsigned.
"""

from __future__ import annotations

import socket
import threading
from typing import Iterable
from urllib.parse import parse_qs, urlsplit

from .collector import ReplaySource, StreamDisconnected

__all__ = ["MockStreamServer"]


class MockStreamServer:
    """Scriptable replay server; see the module docstring for the protocol.

    ``/stream`` plays one ReplaySource built from ``lines``,
    ``disconnect_after`` and ``rewind_on_reconnect``; a blank keep-alive
    follows every ``keepalive_every``-th line delivered over all
    connections. Connections are served one at a time.

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

        self._rate_limited_served: set[int] = set()
        self._stop = threading.Event()
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None

        self.exhausted = threading.Event()
        self.requests: list[str] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sock.listen(8)
        sock.settimeout(0.1)
        self._sock = sock
        self._thread = threading.Thread(
            target=self._serve, name="eventpulse-mockserver", daemon=True
        )
        self._thread.start()
        return sock.getsockname()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._sock is not None:
            self._sock.close()

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving ------------------------------------------------------------

    def _serve(self) -> None:
        assert self._sock is not None
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                with conn:
                    self._handle(conn)
            except OSError:
                pass  # client went away; the next accept carries on

    def _handle(self, conn: socket.socket) -> None:
        conn.settimeout(5.0)
        request = b""
        while b"\n" not in request:
            chunk = conn.recv(4096)
            if not chunk:
                return
            request += chunk
        line = request.split(b"\n", 1)[0].strip().decode("utf-8", "replace")
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
            except OSError:
                return

    def _serve_search(self, conn: socket.socket, params: dict) -> None:
        try:
            page = int(params.get("page", ["0"])[0])
        except ValueError:
            conn.sendall(b"ERROR page must be an integer\n")
            return
        if page in self._rate_limit_pages and page not in self._rate_limited_served:
            self._rate_limited_served.add(page)
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
