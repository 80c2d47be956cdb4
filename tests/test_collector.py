import errno
import io
import json
import re
import socket
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

import pytest

from conftest import HOSTILE_LINES, make_record, make_tweet, record_line, write_archive
from eventpulse.collector import (
    ArchiveWriter,
    CollectionJob,
    CollectionStats,
    ManualClock,
    RateLimit,
    ReplaySource,
    ScriptedSearchSource,
    StreamDisconnected,
    SystemClock,
    TcpSearchSource,
    TcpStreamSource,
    collect_search,
    collect_stream,
    matches_track,
)
from eventpulse.mockserver import MockStreamServer
from eventpulse.tweets import read_archive

MANUAL_CLOCK_DAY = "2001-09-09"  # UTC date of the ManualClock epoch


def matching_line(tweet_id: int) -> str:
    return record_line(id=tweet_id, text="gora #peaktime denok")


def other_line(tweet_id: int) -> str:
    return record_line(id=tweet_id, text="ezer berezirik ez")


def corpus_1000() -> tuple[list[str], list[str]]:
    """1000 lines; ids with id % 5 < 3 match '#peaktime' (600 of them)."""
    lines, matching = [], []
    for tweet_id in range(1, 1001):
        if tweet_id % 5 < 3:
            line = matching_line(tweet_id)
            matching.append(line)
        else:
            line = other_line(tweet_id)
        lines.append(line)
    return lines, matching


def stream_job(tmp_path, terms=("#PeakTime",)) -> CollectionJob:
    return CollectionJob("stream", "proba", tuple(terms), tmp_path)


def archive_bytes(tmp_path, event="proba", day=MANUAL_CLOCK_DAY) -> bytes:
    return (tmp_path / event / f"{day}.jsonl").read_bytes()


# one line per outcome of the filter, for the '#PeakTime' jobs
MIXED_LINES = [
    matching_line(1),  # written
    matching_line(1),  # duplicate
    other_line(2),  # unmatched
    "",  # keep-alive: not received
    "  ",  # keep-alive: not received
    record_line(id=3, text="ezer", created_at="nope"),  # unmatched: never validated
    record_line(id=4, text="#peaktime", created_at="nope"),  # malformed
    "{broken",  # malformed: not JSON
    '["#peaktime"]',  # malformed: not an object
    b'{"id": 5, "text": "#peaktime \xff"}',  # malformed: not UTF-8
]
MIXED_COUNTS = {
    "received": 8, "malformed": 4, "unmatched": 2, "duplicate": 1,
    "written": 1, "matched": 2,
}


class TestCollectionJob:
    def test_bad_mode(self, tmp_path):
        with pytest.raises(ValueError):
            CollectionJob("firehose", "ok", ("a",), tmp_path)

    def test_bad_event_name(self, tmp_path):
        for name in ("no spaces!", "ev\n"):  # "$" alone would let a final line feed through
            with pytest.raises(ValueError):
                CollectionJob("stream", name, ("a",), tmp_path)

    def test_event_name_charset(self, tmp_path):
        job = CollectionJob("stream", "Korrika_19-etapa", ("a",), tmp_path)
        assert job.event_name == "Korrika_19-etapa"

    def test_empty_terms(self, tmp_path):
        with pytest.raises(ValueError):
            CollectionJob("stream", "ok", (), tmp_path)

    @pytest.mark.parametrize("terms", ["korrika", b"korrika"])
    def test_terms_given_as_one_string(self, tmp_path, terms):
        # tuple() would make each letter a term
        with pytest.raises(ValueError):
            CollectionJob("stream", "ok", terms, tmp_path)


class TestMatchesTrack:
    def test_hashtag_term_matches_hashtag(self):
        tweet = make_tweet(1, text="Gora!", hashtags=("korrika",))
        assert matches_track(tweet, ("#Korrika",))

    def test_plain_term_matches_text_token(self):
        tweet = make_tweet(1, text="Gora KORRIKA gaur")
        assert matches_track(tweet, ("korrika",))

    def test_substrings_do_not_match(self):
        tweet = make_tweet(1, text="korrikalaria naiz")
        assert not matches_track(tweet, ("korrika",))

    def test_punctuation_separates_tokens(self):
        tweet = make_tweet(1, text="azkenean:korrika!(bai)")
        assert matches_track(tweet, ("korrika",))

    def test_underscore_terms_match_via_hashtags(self):
        tweet = make_tweet(1, text="gaur da #AEK_eguna", hashtags=("aek_eguna",))
        assert matches_track(tweet, ("aek_eguna",))
        # text tokenization splits on "_", so only the hashtag route hits
        assert not matches_track(make_tweet(2, text="aek_eguna"), ("aek_eguna",))

    def test_casefold_not_just_lowercase(self):
        tweet = make_tweet(1, text="die STRASSE ist leer")
        assert matches_track(tweet, ("straße",))

    def test_any_term_suffices(self):
        tweet = make_tweet(1, text="bigarrena bai")
        assert matches_track(tweet, ("lehena", "bigarrena"))

    def test_degenerate_terms_never_match(self):
        tweet = make_tweet(1, text="edukia", hashtags=("edukia",))
        assert not matches_track(tweet, ("#",))


class TestClocksAndBackoff:
    def test_manual_clock_advances_only_on_wait(self):
        clock = ManualClock()
        before = clock.now()
        clock.wait(None, 5.0)
        assert clock.now() == before + 5.0
        assert clock.waits == [5.0]

    def test_manual_clock_clamps_negative_waits(self):
        clock = ManualClock()
        clock.wait(None, -3.0)
        assert clock.waits == [0.0]

    def test_system_clock_tracks_wall_time(self):
        assert abs(SystemClock().now() - time.time()) < 5.0

    def test_system_clock_wait_returns_early_on_stop(self):
        stop = threading.Event()
        stop.set()
        started = time.monotonic()
        SystemClock().wait(stop, 30.0)
        assert time.monotonic() - started < 1.0

    def test_backoff_doubles_to_cap(self, tmp_path):
        # each connection delivers one line and drops at once, 11 times
        lines = [matching_line(i) for i in range(1, 13)]
        source = ReplaySource(lines, disconnect_after=range(1, 12))
        clock = ManualClock()
        stats = collect_stream(stream_job(tmp_path), source, clock=clock)
        assert clock.waits == [1, 2, 4, 8, 16, 32, 64, 128, 256, 320, 320]
        assert (stats.reconnects, stats.written) == (11, 12)


class TestReplaySource:
    def test_plain_replay(self):
        source = ReplaySource(["a", "b"])
        assert list(source.connect(("x",))) == [b"a", b"b"]

    def test_scripted_disconnect_and_rewind(self):
        source = ReplaySource(
            ["a", "b", "c", "d"], disconnect_after=[2], rewind=1
        )
        first = source.connect(("x",))
        got = []
        with pytest.raises(StreamDisconnected):
            for line in first:
                got.append(line)
        assert got == [b"a", b"b"]
        assert list(source.connect(("x",))) == [b"b", b"c", b"d"]

    def test_a_negative_rewind_is_refused(self):
        # it would skip lines on each reconnect: a, b, then e, f out of a to f
        with pytest.raises(ValueError, match="rewind must be >= 0, got -2"):
            ReplaySource(["a", "b", "c", "d", "e", "f"], disconnect_after=[2], rewind=-2)

    def test_stop_set_between_lines_ends_the_connection(self):
        stop = threading.Event()
        stream = ReplaySource(["a", "b", "c"]).connect(("x",), stop)
        assert next(stream) == b"a"
        stop.set()
        assert list(stream) == []

    def test_from_file_skips_blank_lines(self, tmp_path):
        path = write_archive(tmp_path / "s.jsonl", ["a", "", "b"])
        source = ReplaySource.from_file(path)
        assert list(source.connect(("x",))) == [b"a", b"b"]


class TestCollectStream:
    def test_plain_run(self, tmp_path):
        lines, matching = corpus_1000()
        clock = ManualClock()
        stats = collect_stream(
            stream_job(tmp_path), ReplaySource(lines), clock=clock
        )
        assert stats.received == 1000
        assert stats.matched == 600
        assert stats.written == 600
        assert stats.reconnects == 0
        assert clock.waits == []
        assert stats.started_at is not None and stats.ended_at is not None
        assert stats.started_at <= stats.ended_at
        expected = b"".join(line.encode() + b"\n" for line in matching)
        assert archive_bytes(tmp_path) == expected

    def test_disconnects_reconnect_with_backoff(self, tmp_path):
        lines, matching = corpus_1000()
        clock = ManualClock()
        source = ReplaySource(lines, disconnect_after=[300, 700], rewind=4)
        stats = collect_stream(stream_job(tmp_path), source, clock=clock)
        # re-delivered after the two drops: ids 297..300 and 693..696
        redelivered = [297, 298, 299, 300, 693, 694, 695, 696]
        extra_matching = sum(1 for i in redelivered if i % 5 < 3)
        assert stats.received == 1000 + len(redelivered)
        assert stats.matched == 600 + extra_matching
        assert stats.written == 600
        assert stats.reconnects == 2
        assert clock.waits == [1.0, 2.0]
        expected = b"".join(line.encode() + b"\n" for line in matching)
        assert archive_bytes(tmp_path) == expected

    @pytest.mark.parametrize(
        "line, kept",
        [
            *((line, False) for line in HOSTILE_LINES.values()),
            # converting this stamp to UTC lands before year 1
            (record_line(id=1, text="#peaktime", created_at="Mon Jan 01 00:00:00 +0100 0001"),
             False),
            (record_line(id=1, text="#peaktime", screen_name=" @ane"), True),
            (record_line(id=1, text="#peaktime", geo=(10**400, -2.67)), True),
            # valid and matching, but appended it would be 8 malformed lines
            (json.dumps(make_record(id=1, text="#peaktime"), indent=1), False),
        ],
        ids=[*HOSTILE_LINES, "out-of-range stamp", "padded name", "huge coordinate",
             "line feeds inside"],
    )
    def test_odd_line_does_not_stop_the_run(self, tmp_path, line, kept):
        good = matching_line(2)
        stats = collect_stream(
            stream_job(tmp_path), ReplaySource([line, good]), clock=ManualClock()
        )
        assert (stats.received, stats.malformed, stats.written) == (2, 1 - kept, 1 + kept)
        expected = [line, good] if kept else [good]
        assert archive_bytes(tmp_path) == "".join(f"{row}\n" for row in expected).encode()

    def test_every_line_lands_in_one_counter(self, tmp_path):
        stats = collect_stream(
            stream_job(tmp_path), ReplaySource(MIXED_LINES), clock=ManualClock()
        )
        assert {name: getattr(stats, name) for name in MIXED_COUNTS} == MIXED_COUNTS
        assert archive_bytes(tmp_path) == MIXED_LINES[0].encode() + b"\n"

    def test_healthy_connection_resets_backoff(self, tmp_path):
        clock = ManualClock()

        class OneLinePerConnect:
            """Yields one line per connect, then drops until drained."""

            def __init__(self, healthy_seconds):
                self.queue = [matching_line(i) for i in (1, 2, 3)]
                self.healthy_seconds = healthy_seconds

            def connect(self, track_terms, stop=None):
                return self._replay()

            def _replay(self):
                yield self.queue.pop(0).encode()
                if self.queue:
                    clock.advance(self.healthy_seconds)
                    raise StreamDisconnected("drop")

        stats = collect_stream(
            stream_job(tmp_path), OneLinePerConnect(61.0), clock=clock
        )
        assert stats.written == 3
        assert stats.reconnects == 2
        assert clock.waits == [1.0, 1.0]  # 61 s healthy earns a reset

        clock2 = ManualClock()
        # rebind so the inner class advances the second clock
        clock = clock2
        stats = collect_stream(
            stream_job(tmp_path / "b"), OneLinePerConnect(0.0), clock=clock2
        )
        assert clock2.waits == [1.0, 2.0]  # instant drops keep doubling

    def test_stop_set_while_lines_keep_coming(self, tmp_path):
        stop = threading.Event()

        class DeafToStop:
            """Yields a line after stop is set, as a source in a blocking read may."""

            def connect(self, track_terms, stop_event=None):
                yield matching_line(1).encode()
                stop.set()  # as another thread would, while the source reads on
                yield matching_line(2).encode()

        stats = collect_stream(stream_job(tmp_path), DeafToStop(), stop, clock=ManualClock())
        assert (stats.received, stats.written) == (1, 1)
        assert archive_bytes(tmp_path) == matching_line(1).encode() + b"\n"

    def test_pre_set_stop_collects_nothing(self, tmp_path):
        lines, _ = corpus_1000()
        stop = threading.Event()
        stop.set()
        stats = collect_stream(
            stream_job(tmp_path), ReplaySource(lines), stop, clock=ManualClock()
        )
        assert (stats.received, stats.matched, stats.written) == (0, 0, 0)
        assert stats.ended_at is not None

    def test_empty_stream_leaves_no_archive_files(self, tmp_path):
        stats = collect_stream(
            stream_job(tmp_path), ReplaySource([]), clock=ManualClock()
        )
        assert (stats.received, stats.written) == (0, 0)
        assert list((tmp_path / "proba").glob("*.jsonl")) == []

    def test_unwritable_archive_dir_is_fatal(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        job = CollectionJob("stream", "proba", ("a",), blocker)
        with pytest.raises(OSError):
            collect_stream(job, ReplaySource([]), clock=ManualClock())

    def test_a_failed_write_ends_the_run_with_the_identities_holding(self, tmp_path):
        (tmp_path / "proba" / f"{MANUAL_CLOCK_DAY}.jsonl").mkdir(parents=True)
        stats = CollectionStats()
        with pytest.raises(OSError):
            collect_stream(
                stream_job(tmp_path), ReplaySource([matching_line(1)]),
                clock=ManualClock(), stats=stats,
            )
        assert stats.written == 0
        assert stats.received == stats.malformed + stats.unmatched + stats.duplicate + stats.written
        assert stats.matched == stats.duplicate + stats.written

    def test_wrong_mode_rejected(self, tmp_path):
        job = CollectionJob("search-recent", "proba", ("a",), tmp_path)
        with pytest.raises(ValueError):
            collect_stream(job, ReplaySource([]))


class TestArchiveTail:
    def day_file(self, tmp_path, payload: bytes):
        path = tmp_path / "proba" / f"{MANUAL_CLOCK_DAY}.jsonl"
        path.parent.mkdir()
        path.write_bytes(payload)
        return path

    def test_torn_tail_is_terminated_before_appending(self, tmp_path, caplog):
        path = self.day_file(tmp_path, matching_line(1).encode() + b'\n{"id": 2, "tex')
        stats = collect_stream(
            stream_job(tmp_path), ReplaySource([matching_line(3)]), clock=ManualClock()
        )
        assert stats.written == 1
        tweets, parse = read_archive(path)
        assert [tweet.id for tweet in tweets] == [1, 3]
        assert (parse.total_lines, parse.parsed, parse.skipped_malformed) == (3, 2, 1)
        assert "partial line" in caplog.text

    def test_a_tail_check_that_fails_closes_the_day_file(self, tmp_path, monkeypatch):
        path = self.day_file(tmp_path, b'{"id": 2, "tex')
        opened = []

        class ReadFails(io.FileIO):
            def readinto(self, buffer):
                raise OSError(errno.EIO, "read failed")

        def open_read_fails(file, mode):
            assert mode == "a+b"
            opened.append(io.BufferedRandom(ReadFails(file, "a+")))
            return opened[-1]

        monkeypatch.setattr("eventpulse.collector.open", open_read_fails, raising=False)
        writer = ArchiveWriter(tmp_path / "proba", ManualClock())
        with pytest.raises(OSError, match="read failed"):
            writer.append(matching_line(3).encode())
        assert [handle.closed for handle in opened] == [True]
        assert path.read_bytes() == b'{"id": 2, "tex'

    def test_intact_tail_gets_no_extra_line(self, tmp_path, caplog):
        before = matching_line(1).encode() + b"\n"
        path = self.day_file(tmp_path, before)
        collect_stream(
            stream_job(tmp_path), ReplaySource([matching_line(3)]), clock=ManualClock()
        )
        assert path.read_bytes() == before + matching_line(3).encode() + b"\n"
        assert "partial line" not in caplog.text


class TestArchiveDays:
    def test_rotation_closes_the_previous_day(self, tmp_path, monkeypatch):
        opened = []
        open_day = ArchiveWriter._open_day

        def recording_open_day(path):
            opened.append(open_day(path))
            return opened[-1]

        monkeypatch.setattr(ArchiveWriter, "_open_day", staticmethod(recording_open_day))
        clock = ManualClock()
        writer = ArchiveWriter(tmp_path / "proba", clock)
        to_midnight = 86_400 - clock.now() % 86_400
        writer.append(b"first")
        clock.advance(to_midnight - 1)
        writer.append(b"last of the day")
        clock.advance(1)
        writer.append(b"next day")
        assert len(opened) == 2
        assert opened[0].closed and not opened[1].closed
        writer.close()
        assert opened[1].closed
        assert archive_bytes(tmp_path) == b"first\nlast of the day\n"
        assert archive_bytes(tmp_path, day="2001-09-10") == b"next day\n"

    def test_each_line_is_filed_by_the_day_it_arrives(self, tmp_path):
        clock = ManualClock()
        clock.advance(86_400 - clock.now() % 86_400 - 1)  # 23:59:59 UTC
        first, second = matching_line(1).encode(), matching_line(2).encode()

        class AcrossMidnight:
            def connect(self, track_terms, stop=None):
                yield first
                clock.advance(2)
                yield second

        stats = collect_stream(stream_job(tmp_path), AcrossMidnight(), clock=clock)
        assert stats.written == 2
        assert sorted(path.name for path in (tmp_path / "proba").iterdir()) == [
            f"{MANUAL_CLOCK_DAY}.jsonl",
            "2001-09-10.jsonl",
        ]
        assert archive_bytes(tmp_path) == first + b"\n"
        assert archive_bytes(tmp_path, day="2001-09-10") == second + b"\n"


def search_job(tmp_path) -> CollectionJob:
    return CollectionJob("search-recent", "proba", ("#PeakTime",), tmp_path)


class TestCollectSearch:
    def test_two_pages(self, tmp_path):
        pages = [
            [matching_line(i) for i in range(1, 6)],
            [matching_line(i) for i in range(6, 11)],
        ]
        stats = collect_search(
            search_job(tmp_path), ScriptedSearchSource(pages), clock=ManualClock()
        )
        assert stats.received == 10
        assert stats.written == 10
        assert stats.rate_limit_waits == 0

    def test_rate_limit_pauses_then_resumes(self, tmp_path):
        clock = ManualClock()
        script = [
            RateLimit(30.0),
            [matching_line(i) for i in range(1, 6)],
        ]
        stats = collect_search(
            search_job(tmp_path), ScriptedSearchSource(script), clock=clock
        )
        assert stats.rate_limit_waits == 1
        assert clock.waits == [30.0]
        assert stats.written == 5

    def test_every_line_lands_in_one_counter(self, tmp_path):
        pages = [MIXED_LINES[:1], MIXED_LINES[1:]]  # the duplicate crosses a page
        stats = collect_search(
            search_job(tmp_path), ScriptedSearchSource(pages), clock=ManualClock()
        )
        assert {name: getattr(stats, name) for name in MIXED_COUNTS} == MIXED_COUNTS

    def test_stop_breaks_between_pages(self, tmp_path):
        stop = threading.Event()
        stop.set()
        pages = [[matching_line(1)]]
        stats = collect_search(
            search_job(tmp_path),
            ScriptedSearchSource(pages),
            clock=ManualClock(),
            stop=stop,
        )
        assert stats.written == 0

    def test_wrong_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            collect_search(stream_job(tmp_path), ScriptedSearchSource([]))

    def test_empty_source(self, tmp_path):
        stats = collect_search(
            search_job(tmp_path), ScriptedSearchSource([]), clock=ManualClock()
        )
        assert stats.received == 0


class TestTcpTransport:
    def test_stream_over_tcp(self, tmp_path):
        lines = [matching_line(i) for i in range(1, 121)]
        server = MockStreamServer(
            lines,
            disconnect_after=[50],
            rewind_on_reconnect=2,
            keepalive_every=3,
        )
        clock = ManualClock()
        stop = threading.Event()
        stats = CollectionStats()
        with server as (host, port):
            source = TcpStreamSource(host, port)

            def halt_when_done():
                server.exhausted.wait(timeout=20)
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline and stats.written < 120:
                    time.sleep(0.01)
                stop.set()

            watcher = threading.Thread(target=halt_when_done, daemon=True)
            watcher.start()
            collect_stream(
                stream_job(tmp_path), source, stop, clock=clock, stats=stats
            )
            watcher.join(timeout=25)
        assert stats.written == 120
        assert stats.reconnects == 1
        assert stats.received == 122  # ids 49 and 50 re-delivered
        assert clock.waits == [1.0]
        expected = b"".join(line.encode() + b"\n" for line in lines)
        assert archive_bytes(tmp_path) == expected
        assert any("track=" in request for request in server.requests)

    def test_search_over_tcp(self, tmp_path):
        lines = [matching_line(i) for i in range(1, 101)]
        server = MockStreamServer(
            lines, page_size=40, rate_limit_pages=[1], rate_limit_retry_after=2.0
        )
        clock = ManualClock()
        with server as (host, port):
            source = TcpSearchSource(host, port, kind="recent")
            stats = collect_search(search_job(tmp_path), source, clock=clock)
        assert stats.written == 100
        assert stats.rate_limit_waits == 1
        assert clock.waits == [2.0]  # the source passes on the seconds; the run's clock waits
        assert any("kind=recent" in request for request in server.requests)
        assert any("page=2" in request for request in server.requests)

    def test_stop_during_rate_limit_wait_sends_no_request(self, tmp_path):
        class StoppingClock(ManualClock):
            def wait(self, stop, seconds):
                super().wait(stop, seconds)
                stop.set()

        lines = [matching_line(i) for i in range(1, 5)]
        server = MockStreamServer(lines, page_size=2, rate_limit_pages=[1])
        with server as (host, port):
            stats = collect_search(
                search_job(tmp_path),
                TcpSearchSource(host, port),
                clock=StoppingClock(),
                stop=threading.Event(),
            )
        pages = [re.search(r"page=(\d+)", request)[1] for request in server.requests]
        assert pages == ["0", "1"]
        assert stats.written == 2

    @pytest.mark.parametrize(
        "status", [b"RATE_LIMIT", b"RATE_LIMIT soon", b"RATE_LIMIT nan"]
    )
    def test_rate_limit_without_seconds_is_a_disconnect(self, status):
        with _answer_once(status + b"\n") as address:
            source = TcpSearchSource(*address)
            with pytest.raises(StreamDisconnected, match="RATE_LIMIT"):
                next(source.pages(("x",)))

    @pytest.mark.parametrize(
        "status",
        [b"ERROR page must be an integer", b"HTTP/1.0 200 OK", b"OK", b"OK many"],
    )
    def test_status_other_than_ok_is_a_disconnect(self, status):
        # one next() bounds the loop: the old client took any line as a page
        with _answer_once(status + b"\n") as address:
            source = TcpSearchSource(*address)
            with pytest.raises(StreamDisconnected, match=re.escape(repr(status))):
                next(source.pages(("x",)))

    @pytest.mark.parametrize("records", [0, 1, 4])
    def test_page_must_hold_the_announced_records(self, records):
        body = b"".join(b'{"id": %d}\n' % i for i in range(1, records + 1))
        with _answer_once(b"OK 3\n" + body) as address:
            source = TcpSearchSource(*address)
            with pytest.raises(StreamDisconnected, match=f"3 records, got {records}"):
                next(source.pages(("x",)))

    def test_search_blank_lines_are_ignored(self, tmp_path):
        lines = [matching_line(1), "   ", matching_line(2)]
        clock = ManualClock()
        with MockStreamServer(lines, page_size=2) as (host, port):
            source = TcpSearchSource(host, port)
            stats = collect_search(search_job(tmp_path), source, clock=clock)
        assert (stats.received, stats.malformed, stats.written) == (2, 0, 2)

    def test_search_page_with_a_blank_line(self):
        lines = [matching_line(1), "", matching_line(2)]
        with MockStreamServer(lines, page_size=2) as (host, port):
            source = TcpSearchSource(host, port)
            assert list(source.pages(("x",))) == [
                [lines[0].encode()], [lines[2].encode()]
            ]

    def test_stream_framing_survives_any_split(self):
        # a CRLF record, blank LF and CRLF keep-alives, and an unterminated
        # tail that the peer's close cuts off
        payload = b'{"id": 1}\r\n\n{"id": 2}\n\r\n{"id": 3}'
        expected = [b'{"id": 1}', b'{"id": 2}']
        splits = [[payload[:at], payload[at:]] for at in range(1, len(payload))]
        splits.append([payload[at : at + 1] for at in range(len(payload))])
        for pieces in splits:
            assert _read_lines_of(pieces) == expected, pieces

    def test_connect_refused_surfaces_as_disconnect(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        source = TcpStreamSource("127.0.0.1", port)
        with pytest.raises(StreamDisconnected):
            source.connect(("x",))

    @pytest.mark.parametrize(
        "request_once, request_line",
        [
            (
                lambda: TcpStreamSource("127.0.0.1", 9).connect(("#x", "y z")),
                b"GET /stream?track=%23x,y%20z HTTP/1.0\r\n\r\n",
            ),
            (
                lambda: next(TcpSearchSource("127.0.0.1", 9, kind="popular").pages(("#x",))),
                b"GET /search?track=%23x&page=0&kind=popular HTTP/1.0\r\n\r\n",
            ),
        ],
        ids=["stream", "search"],
    )
    def test_failed_request_closes_its_socket(
        self, monkeypatch, request_once, request_line
    ):
        opened = []

        def create_connection(address, timeout=None):
            opened.append(_ScriptedSocket(send_error=OSError("broken pipe")))
            return opened[-1]

        monkeypatch.setattr(socket, "create_connection", create_connection)
        with pytest.raises(StreamDisconnected, match="broken pipe"):
            request_once()
        assert len(opened) == 1 and opened[0].closed
        assert opened[0].sent == [request_line]

    @pytest.mark.parametrize(
        "replies, message",
        [
            ((b"OK 1\n", ConnectionResetError(104, "reset by peer")), "search request failed"),
            ((b"\r\n\n", b""), "empty search response"),
        ],
        ids=["recv-fails", "empty"],
    )
    def test_search_response_cut_short_is_a_disconnect(self, monkeypatch, replies, message):
        sock = _ScriptedSocket(*replies)
        monkeypatch.setattr(socket, "create_connection", lambda address, timeout=None: sock)
        with pytest.raises(StreamDisconnected, match=message):
            next(TcpSearchSource("127.0.0.1", 9).pages(("x",)))
        assert sock.closed

    def test_stream_read_that_fails_is_a_disconnect(self):
        sock = _ScriptedSocket(b'{"id": 1}\n{"id"', ConnectionResetError(104, "reset by peer"))
        lines = TcpStreamSource._read_lines(sock, None)
        assert next(lines) == b'{"id": 1}'
        with pytest.raises(StreamDisconnected, match="read failed"):
            next(lines)
        assert sock.closed


class _ScriptedSocket:
    """A connected socket: sendall() records the request, then raises ``send_error``
    if there is one; recv() gives, or raises, each reply in turn."""

    def __init__(self, *replies, send_error: OSError | None = None):
        self.replies = list(replies)
        self.send_error = send_error
        self.sent = []
        self.closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def sendall(self, data: bytes) -> None:
        self.sent.append(data)
        if self.send_error is not None:
            raise self.send_error

    def recv(self, size: int) -> bytes:
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self) -> None:
        self.closed = True


@contextmanager
def _answer_once(response: bytes) -> Iterator[tuple[str, int]]:
    """A server that answers one request with ``response``, then stops."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def answer():
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            conn.sendall(response)

    server = threading.Thread(target=answer, daemon=True)
    server.start()
    with listener:
        yield listener.getsockname()
        server.join(timeout=5)
    assert not server.is_alive()


class _CountingSocket:
    """One end of a socket pair whose recv() counts the bytes it returned."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.received = 0
        self.changed = threading.Condition()

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        with self.changed:
            self.received += len(data)
            self.changed.notify_all()
        return data

    def close(self) -> None:
        self._sock.close()


def _read_lines_of(pieces: list[bytes]) -> list[bytes]:
    """What TcpStreamSource._read_lines yields when the peer sends each
    piece only after the reader has received the previous one, then
    closes; the close must end the read with StreamDisconnected."""
    ours, peer = socket.socketpair()
    ours.settimeout(0.02)
    reader = _CountingSocket(ours)

    def send():
        sent = 0
        with peer:
            for piece in pieces:
                peer.sendall(piece)
                sent += len(piece)
                with reader.changed:
                    reader.changed.wait_for(lambda: reader.received >= sent, timeout=5)

    sender = threading.Thread(target=send, daemon=True)
    sender.start()
    lines = []
    with pytest.raises(StreamDisconnected, match="closed by peer"):
        for line in TcpStreamSource._read_lines(reader, None):
            lines.append(line)
    sender.join(timeout=5)
    assert not sender.is_alive()
    return lines


def _open_stream(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=5)
    sock.sendall(b"GET /stream?track=x HTTP/1.0\r\n\r\n")
    return sock


def _read_to_close(sock: socket.socket) -> bytes:
    blob = b""
    with sock:
        while chunk := sock.recv(65536):
            blob += chunk
    return blob


class TestMockServerScript:
    """The server's /stream carries exactly what ReplaySource scripts."""

    LINES = [f"line{i}" for i in range(1, 9)]

    @pytest.mark.parametrize(
        "cuts, rewind, connections",
        [
            ([2, 5], 1, [[1, 2], [2, 3, 4], [4, 5, 6, 7, 8]]),
            ([0], 0, [[1], [2, 3, 4, 5, 6, 7, 8]]),  # a cut at 0 drops after line 1
            ([2], 10, [[1, 2], [1, 2, 3, 4, 5, 6, 7, 8]]),  # rewind stops at line 1
        ],
    )
    def test_stream_matches_replay_source(self, cuts, rewind, connections):
        replay = ReplaySource(self.LINES, disconnect_after=cuts, rewind=rewind)
        scripted = []
        for _ in connections:
            scripted.append([])
            try:
                scripted[-1].extend(replay.connect(("x",)))
            except StreamDisconnected:
                pass
        assert scripted == [[f"line{i}".encode() for i in ids] for ids in connections]

        every = 3
        expected, delivered = [], 0
        for lines in scripted:
            wire = b""
            for line in lines:
                delivered += 1
                wire += line + b"\n" + (b"\n" if delivered % every == 0 else b"")
            expected.append(wire)

        server = MockStreamServer(
            self.LINES,
            disconnect_after=cuts,
            rewind_on_reconnect=rewind,
            keepalive_every=every,
        )
        with server as (host, port):
            wires = [_read_to_close(_open_stream(host, port)) for _ in cuts]
            last = _open_stream(host, port)
            assert server.exhausted.wait(timeout=5)
            server.stop()  # the last connection idles until the server stops
            wires.append(_read_to_close(last))
        assert wires == expected

    def test_a_negative_rewind_is_refused(self):
        with pytest.raises(ValueError, match="rewind must be >= 0, got -2"):
            MockStreamServer(self.LINES, disconnect_after=[2], rewind_on_reconnect=-2)

    def test_bad_search_page_leaves_the_server_serving(self):
        server = MockStreamServer(self.LINES, page_size=3)
        refusal = b"ERROR page must be a non-negative integer\n"
        with server as (host, port):
            for request, answer in [
                (b"GET /search?page=1", b""),  # the client stops before the newline
                (b"GET /search?page=zz HTTP/1.0\r\n\r\n", refusal),
                (b"GET /search?page=-2 HTTP/1.0\r\n\r\n", refusal),
                (b"GET /search?page=1 HTTP/1.0\r\n\r\n", b"OK 3\nline4\nline5\nline6\n"),
            ]:
                sock = socket.create_connection((host, port), timeout=5)
                sock.sendall(request)
                sock.shutdown(socket.SHUT_WR)
                assert _read_to_close(sock) == answer
        assert [request.split()[1] for request in server.requests] == [
            "/search?page=zz", "/search?page=-2", "/search?page=1"
        ]

    def test_stop_returns_at_once_before_start_and_when_repeated(self):
        stopped = MockStreamServer(self.LINES)
        with stopped:
            pass
        for server in (MockStreamServer(self.LINES), stopped):
            stopping = threading.Thread(target=server.stop, daemon=True)
            stopping.start()
            stopping.join(timeout=5)
            assert not stopping.is_alive()
