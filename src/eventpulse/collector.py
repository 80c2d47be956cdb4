"""Collect keyword-filtered posts from a streaming or search source.

Matching lines are appended raw (byte-exact) to one archive file per
UTC day under ``archive_dir/event_name/``. A run reads, filters and
writes each line on the caller's thread before it reads the next one,
so a line is filed under the UTC day on which it was received and the
source connection (for TCP, the socket) is the only buffer: a slow
disk pushes back on the connection instead of growing memory.

Sources only move bytes; time and stopping belong to the run, and time
only enters through its Clock (``now``/``wait``), so tests drive
reconnect backoff and rate-limit pauses with a virtual clock.
"""

from __future__ import annotations

import logging
import math
import os
import re
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Protocol, Sequence
from urllib.parse import quote

from .tweets import (
    ParseError,
    Tweet,
    _build_tweet,
    _decode_record,
    _text_and_hashtags,
    parse_tweet,  # noqa: F401 - unused here; perfbench/tracing.py wraps it
)

__all__ = [
    "CollectionJob",
    "CollectionStats",
    "ManualClock",
    "RateLimit",
    "ReplaySource",
    "ScriptedSearchSource",
    "StreamDisconnected",
    "SystemClock",
    "TcpSearchSource",
    "TcpStreamSource",
    "collect_search",
    "collect_stream",
    "matches_track",
]

log = logging.getLogger(__name__)

_EVENT_NAME = re.compile(r"^[A-Za-z0-9_-]+$")

# tokens are maximal runs of letters and digits; underscore separates
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)

# reconnect delays double from the first to the cap; a connection that
# stayed up this long before dropping starts again from the first
_BACKOFF_FIRST_S = 1.0
_BACKOFF_CAP_S = 320.0
_BACKOFF_HEALTHY_S = 60.0

MODES = ("stream", "search-recent", "search-popular")

_TCP_TIMEOUT_S = 5.0  # to connect, and for a search page to answer
_READ_POLL_S = 0.25  # a stream read wakes this often to see a set stop


class StreamDisconnected(ConnectionError):
    """The source connection dropped; the run should reconnect."""


@dataclass(frozen=True)
class CollectionJob:
    """What to collect and where to put it."""

    mode: str
    event_name: str
    track_terms: tuple[str, ...]
    archive_dir: Path

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown collection mode: {self.mode!r}")
        if not _EVENT_NAME.match(self.event_name):
            raise ValueError(f"bad event name: {self.event_name!r}")
        object.__setattr__(self, "track_terms", tuple(self.track_terms))
        if not self.track_terms:
            raise ValueError("track_terms must not be empty")
        object.__setattr__(self, "archive_dir", Path(self.archive_dir))


@dataclass
class CollectionStats:
    """Counters for one run.

    An empty or whitespace-only line is a keep-alive and never received.
    Every received line lands in exactly one of four counters, so
    ``received = malformed + unmatched + duplicate + written`` and
    ``matched = duplicate + written`` always hold. A line is matched on
    its decoded text and hashtags before it is validated, so
    ``malformed`` counts lines that are not a JSON object in UTF-8 and
    matching lines that fail validation; a line that does not match is
    never validated and counts as ``unmatched`` even when it is invalid.
    ``duplicate`` counts valid matching lines whose id this run has
    already written.
    """

    received: int = 0
    matched: int = 0
    written: int = 0
    malformed: int = 0
    unmatched: int = 0
    duplicate: int = 0
    reconnects: int = 0
    rate_limit_waits: int = 0
    started_at: datetime | None = None
    ended_at: datetime | None = None


def matches_track(tweet: Tweet, track_terms: Sequence[str]) -> bool:
    """True when any term equals a hashtag or a whole token of the text.

    A term is compared after stripping one leading "#" and case folding,
    so "#Korrika" and "korrika" select the same posts. Substring hits do
    not count: "korrika" never matches "korrikalaria".
    """
    return _matches(_fold_terms(track_terms), tweet.hashtags, tweet.text)


def _fold_terms(track_terms: Iterable[str]) -> frozenset[str]:
    """Track terms as matched: one leading "#" stripped, case folded, none empty."""
    folded = (
        (term[1:] if term.startswith("#") else term).casefold() for term in track_terms
    )
    return frozenset(term for term in folded if term)


def _matches(terms: frozenset[str], hashtags: Iterable[str], text: str) -> bool:
    """True when a folded term equals a folded hashtag or a folded token of text."""
    if any(tag.casefold() in terms for tag in hashtags):
        return True
    # casefold maps each character on its own, so every token's fold is a
    # substring of the text's fold: a text without any term has no hit
    folded = text.casefold()
    if not any(term in folded for term in terms):
        return False
    return any(token.casefold() in terms for token in _TOKEN.findall(text))


# --- clocks ---------------------------------------------------------------


class Clock(Protocol):
    def now(self) -> float: ...

    def wait(self, stop: threading.Event, seconds: float) -> None: ...


class SystemClock:
    """Wall time; wait() wakes early when the stop event is set."""

    def now(self) -> float:
        return time.time()

    def wait(self, stop: threading.Event, seconds: float) -> None:
        stop.wait(seconds)  # returns at once for seconds <= 0


class ManualClock:
    """Deterministic clock for tests and replays.

    now() starts at 1e9 and stands still except that wait() advances it
    by the requested delay and records the delay in ``waits``.
    """

    def __init__(self):
        self._now = 1_000_000_000.0
        self._lock = threading.Lock()
        self.waits: list[float] = []

    def now(self) -> float:
        with self._lock:
            return self._now

    def wait(self, stop: threading.Event, seconds: float) -> None:
        seconds = max(0.0, seconds)
        with self._lock:
            self.waits.append(seconds)
            self._now += seconds

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds


def _utc(clock: Clock) -> datetime:
    return datetime.fromtimestamp(clock.now(), tz=timezone.utc)


# --- sources ---------------------------------------------------------------


class StreamSource(Protocol):
    """connect() yields raw record lines (bytes, no newline).

    Iteration ends when the source is permanently exhausted or the stop
    event is set; a transient drop raises StreamDisconnected instead.
    collect_stream checks stop only between lines, so a source must also
    notice stop while it idles (TcpStreamSource polls it between short
    read timeouts): that is the only way a run stops mid-stream.
    """

    def connect(
        self, track_terms: Sequence[str], stop: threading.Event | None = None
    ) -> Iterator[bytes]: ...


def _to_bytes(line: str | bytes) -> bytes:
    if isinstance(line, str):
        line = line.encode("utf-8")
    return line.rstrip(b"\r\n")


class ReplaySource:
    """Replay recorded lines in-process, with scripted disconnects.

    This is the one implementation of the replay script; the mock
    server's ``/stream`` endpoint plays the same script through one.
    ``disconnect_after`` holds cumulative delivered-line counts: the
    connection drops (StreamDisconnected) right after the N-th line
    delivered over all connections. Each reconnect resumes ``rewind``
    lines back, never before the first line, to mimic streams that
    re-deliver after a drop. Track terms are ignored: filtering is the
    collector's job.

    Attributes:
        lines: the recorded lines as bytes, without line terminators.
        delivered: lines handed out so far, over all connections.
    """

    def __init__(
        self,
        lines: Iterable[str | bytes],
        *,
        disconnect_after: Iterable[int] = (),
        rewind: int = 0,
    ):
        self.lines = [_to_bytes(line) for line in lines]
        self.delivered = 0
        self._pending = sorted(set(disconnect_after))
        self._rewind = rewind
        self._cursor = 0
        self._connected_before = False

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplaySource":
        with open(path, "rb") as handle:
            return cls([raw for raw in handle if raw.strip()])

    def connect(
        self, track_terms: Sequence[str], stop: threading.Event | None = None
    ) -> Iterator[bytes]:
        if self._connected_before:
            self._cursor = max(0, self._cursor - self._rewind)
        self._connected_before = True
        return self._replay(stop)

    def _replay(self, stop: threading.Event | None) -> Iterator[bytes]:
        while self._cursor < len(self.lines):
            if stop is not None and stop.is_set():
                return
            line = self.lines[self._cursor]
            self._cursor += 1
            self.delivered += 1
            yield line
            if self._pending and self.delivered >= self._pending[0]:
                self._pending.pop(0)
                raise StreamDisconnected("scripted disconnect")


@dataclass(frozen=True)
class RateLimit:
    """A source answered "slow down"; ask again after retry_after seconds."""

    retry_after: float


class SearchSource(Protocol):
    """pages() yields lists of raw lines, or RateLimit markers."""

    def pages(
        self, track_terms: Sequence[str]
    ) -> Iterator[list[bytes] | RateLimit]: ...


class ScriptedSearchSource:
    """Serve a prepared script of pages and RateLimit markers."""

    def __init__(self, script: Iterable[list[str | bytes] | RateLimit]):
        self._script = list(script)

    def pages(
        self, track_terms: Sequence[str]
    ) -> Iterator[list[bytes] | RateLimit]:
        for item in self._script:
            if isinstance(item, RateLimit):
                yield item
            else:
                yield [_to_bytes(line) for line in item]


def _track_query(track_terms: Sequence[str]) -> str:
    # safe="" so "#" becomes %23; a raw "#" would start the URL fragment
    # and silently swallow every parameter after the track value.
    return ",".join(quote(term, safe="") for term in track_terms)


def _request(host: str, port: int, target: str) -> socket.socket:
    """Send ``GET <target> HTTP/1.0`` on a new socket; on failure close it and
    raise StreamDisconnected."""
    sock = None
    try:
        sock = socket.create_connection((host, port), timeout=_TCP_TIMEOUT_S)
        sock.sendall(f"GET {target} HTTP/1.0\r\n\r\n".encode("ascii"))
    except OSError as exc:
        if sock is not None:
            sock.close()
        raise StreamDisconnected(f"connect failed: {exc}") from exc
    return sock


class TcpStreamSource:
    """Client for the newline-delimited TCP streaming protocol.

    Sends ``GET /stream?track=<comma-separated terms>`` and then treats
    every non-blank line as one record; blank lines are keep-alives. A
    closed or failed connection surfaces as StreamDisconnected. The
    socket uses short read timeouts so a set stop event is noticed even
    while the stream idles.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def connect(
        self, track_terms: Sequence[str], stop: threading.Event | None = None
    ) -> Iterator[bytes]:
        sock = _request(self.host, self.port, f"/stream?track={_track_query(track_terms)}")
        sock.settimeout(_READ_POLL_S)
        return self._read_lines(sock, stop)

    @staticmethod
    def _read_lines(
        sock: socket.socket, stop: threading.Event | None
    ) -> Iterator[bytes]:
        tail = b""  # the unterminated end of the data received so far
        try:
            while True:
                if stop is not None and stop.is_set():
                    return
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    continue
                except OSError as exc:
                    raise StreamDisconnected(f"read failed: {exc}") from exc
                if chunk == b"":
                    raise StreamDisconnected("connection closed by peer")
                # one split per chunk; splitting off one line at a time
                # would copy the rest of the buffer once per line
                *lines, tail = (tail + chunk).split(b"\n")
                for line in lines:
                    line = line.rstrip(b"\r")
                    if line:
                        yield line
        finally:
            sock.close()


class TcpSearchSource:
    """Client for the paged search protocol of the mock server.

    Each page is one request/response exchange; the response starts with
    ``OK <n>`` (then n record lines), ``RATE_LIMIT <retry-after-seconds>``
    or ``END``. A rate limit is surfaced as RateLimit(retry_after), and
    the same page is requested again afterwards. A page whose record
    count differs from n, a ``RATE_LIMIT`` line without a finite number
    of seconds, and any other status line (``ERROR <reason>`` included)
    raise StreamDisconnected.
    """

    def __init__(self, host: str, port: int, *, kind: str = "recent"):
        self.host = host
        self.port = port
        self.kind = kind

    def pages(
        self, track_terms: Sequence[str]
    ) -> Iterator[list[bytes] | RateLimit]:
        page = 0
        while True:
            status, payload = self._fetch(track_terms, page)
            if status == b"END":
                return
            if status.startswith(b"RATE_LIMIT"):
                try:
                    retry_after = float(status.split()[1])
                except (IndexError, ValueError):
                    retry_after = math.nan
                if not math.isfinite(retry_after):
                    raise StreamDisconnected(f"bad rate-limit status line: {status!r}")
                yield RateLimit(retry_after)
                continue  # retry the same page once the caller waited
            fields = status.split()
            if len(fields) != 2 or fields[0] != b"OK" or not fields[1].isdigit():
                raise StreamDisconnected(f"unexpected search status line: {status!r}")
            if int(fields[1]) != len(payload):
                raise StreamDisconnected(
                    f"search page announced {int(fields[1])} records, got {len(payload)}"
                )
            yield payload
            page += 1

    def _fetch(
        self, track_terms: Sequence[str], page: int
    ) -> tuple[bytes, list[bytes]]:
        target = f"/search?track={_track_query(track_terms)}&page={page}&kind={self.kind}"
        with _request(self.host, self.port, target) as sock:
            blob = b""
            try:
                while chunk := sock.recv(65536):
                    blob += chunk
            except OSError as exc:
                raise StreamDisconnected(f"search request failed: {exc}") from exc
        lines = [line.rstrip(b"\r") for line in blob.split(b"\n")]
        lines = [line for line in lines if line]
        if not lines:
            raise StreamDisconnected("empty search response")
        return lines[0], lines[1:]


# --- archive writing -------------------------------------------------------


class ArchiveWriter:
    """Append raw lines to one LF-terminated file per UTC day.

    Only the current day's file is open; rotating to a new day closes
    the previous one. Every line is flushed as it is written.
    """

    def __init__(self, directory: Path, clock: Clock):
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._day: str | None = None
        self._handle: BinaryIO | None = None

    def append(self, raw: bytes) -> None:
        day = _utc(self._clock).strftime("%Y-%m-%d")
        if day != self._day:
            self.close()
            self._handle = self._open_day(self._directory / f"{day}.jsonl")
            self._day = day
        self._handle.write(raw + b"\n")
        self._handle.flush()

    @staticmethod
    def _open_day(path: Path) -> BinaryIO:
        """Open for appending; terminate a partial last line left by a crash.

        Without this the next record would be glued onto the fragment and
        both lost as one malformed line. Terminated, the fragment counts as
        one malformed line and the new record survives.
        """
        handle = open(path, "a+b")
        try:
            size = handle.seek(0, os.SEEK_END)
            if size:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    log.warning("%s ends in a partial line; terminating it", path)
                    handle.write(b"\n")
        except OSError:
            handle.close()
            raise
        return handle

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
        self._day = self._handle = None


# --- collection runs -------------------------------------------------------


class _LineFilter:
    """Shared per-run pipeline: decode, match, validate, dedupe, append.

    Each line is decoded once; only a line that matches is validated into
    a Tweet, and only a valid one counts as matched or is written.
    """

    def __init__(self, job: CollectionJob, writer: ArchiveWriter, stats: CollectionStats):
        self._terms = _fold_terms(job.track_terms)
        self._writer = writer
        self._stats = stats
        self._seen: set[int] = set()

    def handle(self, raw: bytes) -> None:
        if not raw.strip():
            return  # a keep-alive, not a record
        stats = self._stats
        stats.received += 1
        try:
            record = _decode_record(raw)
        except ParseError:
            stats.malformed += 1
            return
        text, hashtags = _text_and_hashtags(record)
        if not _matches(self._terms, hashtags, text):
            stats.unmatched += 1
            return
        try:
            tweet = _build_tweet(record, text, hashtags)
        except ParseError:
            stats.malformed += 1
            return
        stats.matched += 1
        if tweet.id in self._seen:
            stats.duplicate += 1
            return  # streams re-deliver after reconnects
        self._seen.add(tweet.id)
        self._writer.append(raw)
        stats.written += 1


@contextmanager
def _run(
    job: CollectionJob, clock: Clock, stats: CollectionStats
) -> Iterator[_LineFilter]:
    """Stamp the run's start and end around one archive writer and filter."""
    stats.started_at = _utc(clock)
    writer = ArchiveWriter(job.archive_dir / job.event_name, clock)
    try:
        yield _LineFilter(job, writer, stats)
    finally:
        writer.close()
        stats.ended_at = _utc(clock)


def collect_stream(
    job: CollectionJob,
    source: StreamSource,
    stop: threading.Event | None = None,
    *,
    clock: Clock | None = None,
    stats: CollectionStats | None = None,
) -> CollectionStats:
    """Run a streaming collection until the source ends or stop is set.

    Every received line that parses and matches the job's track terms is
    appended byte-exactly to ``archive_dir/event_name/YYYY-MM-DD.jsonl``
    (UTC date of receipt). Duplicate ids within the run are written
    once. Disconnects trigger reconnects with exponential backoff (1 s
    doubling to 320 s, reset after 60 s healthy). An unwritable archive
    directory is fatal; malformed lines are not.
    """
    if job.mode != "stream":
        raise ValueError(f"collect_stream needs mode 'stream', got {job.mode!r}")
    clock = clock or SystemClock()
    stop = stop if stop is not None else threading.Event()
    stats = stats if stats is not None else CollectionStats()
    delay = _BACKOFF_FIRST_S
    connects = 0
    with _run(job, clock, stats) as pipeline:
        while not stop.is_set():
            connected_at = None
            try:
                stream = source.connect(job.track_terms, stop)
                connected_at = clock.now()
                connects += 1
                if connects > 1:
                    stats.reconnects += 1
                for raw in stream:
                    if stop.is_set():
                        break
                    pipeline.handle(raw)
                break
            except StreamDisconnected as exc:
                if (
                    connected_at is not None
                    and clock.now() - connected_at >= _BACKOFF_HEALTHY_S
                ):
                    delay = _BACKOFF_FIRST_S
                log.info("stream dropped (%s); reconnecting in %.0fs", exc, delay)
                clock.wait(stop, delay)
                delay = min(delay * 2, _BACKOFF_CAP_S)
    return stats


def collect_search(
    job: CollectionJob,
    source: SearchSource,
    *,
    clock: Clock | None = None,
    stop: threading.Event | None = None,
    stats: CollectionStats | None = None,
) -> CollectionStats:
    """Run paged search queries until the source is exhausted.

    Matching results are archived exactly as in collect_stream. A
    RateLimit answer pauses the run's clock for its ``retry_after``
    seconds and counts in ``stats.rate_limit_waits``. Stop is checked
    before each item is asked for, so a set stop sends no more requests.
    """
    if job.mode not in MODES[1:]:
        raise ValueError(f"collect_search needs a search mode, got {job.mode!r}")
    clock = clock or SystemClock()
    stop = stop if stop is not None else threading.Event()
    stats = stats if stats is not None else CollectionStats()
    with _run(job, clock, stats) as pipeline:
        pages = source.pages(job.track_terms)
        while not stop.is_set():
            item = next(pages, None)
            if item is None:
                break
            if isinstance(item, RateLimit):
                stats.rate_limit_waits += 1
                log.info("rate limited; sleeping %.1fs", max(0.0, item.retry_after))
                clock.wait(stop, item.retry_after)
                continue
            for raw in item:
                pipeline.handle(raw)
    return stats
