"""The parse cache behind read_archive, and the slot in front of it.

A read that parses the bytes of a regular file writes their entry, and a
later read of those bytes rebuilds the result from it. A read of the
bytes the last read in the process had, under the same cache directory,
takes that read's result from the slot instead, and changes no file. A
warm read must give what a cold parse gives, and no fault in the cache
(no home, an unusable cache directory, a torn or altered entry, a
writer killed mid-write, an archive changed after its entry was
written) may change a result or an exit code: the read falls back to
the parse.
"""

import contextlib
import json
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from conftest import (
    FRESH_INTERPRETER_READ,
    forget_last_read,
    fresh_interpreter,
    make_record,
    record_line,
    shown,
    write_archive,
)
from eventpulse import tweets
from eventpulse.cli import run
from eventpulse.tweets import read_archive


@pytest.fixture
def archive(tmp_path):
    """Every kind of field an entry holds, a duplicate id and three malformed lines."""
    lines = [
        record_line(id=1, screen_name="ane", text="bat #gora"),
        # value 1 of each column, which test_row_of_the_wrong_shape alters: every field set
        record_line(
            id=2, screen_name="mikel", text="RT @ane: bat", retweet=(1, "ane", 7),
            reply_to="ane", coordinates=(-0.0, 43.26),
        ),
        # json.dumps escapes the lone surrogate, so the line is UTF-8
        json.dumps(make_record(
            id=3, screen_name="un\ud800ai", text="kontrol\x01 #Gora", hashtags=["Gora"],
        )),
        record_line(id=2**64 - 1, screen_name="jon", created_at="9999-12-31T23:59:59Z"),
        record_line(id=4, screen_name="ane", created_at="0001-01-01T00:00:00+00:00"),
        record_line(id=1, screen_name="ane", text="bat berriz"),  # duplicate id
        "{oops",
        "",
        b"\xff\xfe",
    ]
    return write_archive(tmp_path / "event.jsonl", lines)


def entries(cache: Path) -> list[Path]:
    return sorted(cache.glob("*.jsonl")) if cache.is_dir() else []


def cached(path: Path) -> None:
    """Read ``path``, which writes its bytes' entry, and empty the slot: the next read loads it."""
    read_archive(path)
    forget_last_read()


def refuse_to_parse(monkeypatch, *also: str) -> None:
    """From here on, a read that decodes or builds a record, or calls one of ``also``, fails."""
    def refuse(*args):
        raise AssertionError("a record was parsed or loaded: the read missed the cache")

    for name in ("_decode_record", "_build_tweet", *also):
        monkeypatch.setattr(tweets, name, refuse)


def parses(monkeypatch) -> list:
    """A list that gets one item for each parse of an archive from here on."""
    parsed = []
    parse = tweets._parse

    def counted(*args):
        parsed.append(args)
        return parse(*args)

    monkeypatch.setattr(tweets, "_parse", counted)
    return parsed


def results(path: Path, capsys) -> tuple:
    """Both reads' Tweets (as repr) and stats, then two commands' exit codes and stdout."""
    reads = []
    for dedupe in (False, True):
        got, stats = read_archive(path, dedupe=dedupe)
        reads.append((repr(got), stats))
    commands = []
    for argv in (["stats", str(path)], ["top-users", "-f", str(path), "--by", "retweets"]):
        code = run(argv)
        commands.append((code, capsys.readouterr().out))
    return reads, commands


@pytest.fixture
def cold(tmp_path_factory, capsys):
    """``results`` with an empty cache of its own: what a cold parse gives."""
    def parse(path: Path) -> tuple:
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cold")))
            return results(path, capsys)
    return parse


def test_a_warm_read_decodes_no_record(archive, parse_cache, cold, capsys, monkeypatch):
    expected = cold(archive)
    assert entries(parse_cache) == []
    cached(archive)
    [entry] = entries(parse_cache)
    refuse_to_parse(monkeypatch)
    assert results(archive, capsys) == expected
    assert entries(parse_cache) == [entry]


def test_entry_layout(archive, parse_cache):
    cached(archive)
    tweets_, stats = read_archive(archive)
    [entry] = entries(parse_cache)
    data = entry.read_bytes()
    assert data.isascii() and data.endswith(b"\n")
    header, batch = data.decode().splitlines()  # the six records fit in one batch line
    assert json.loads(header) == [9, 3]
    assert stats.total_lines == 9 and stats.skipped_malformed == 3
    assert len(tweets_) == 6  # every valid record, the duplicate too
    # the nine columns in Tweet._fields order, created_at as UTC epoch seconds
    assert batch == (
        '[[1,2,3,18446744073709551615,4,1],'
        '[1426788000,1426788000,1426788000,253402300799,-62135596800,1426788000],'
        '["ane","mikel","un\\ud800ai","jon","ane","ane"],'
        '["bat #gora","RT @ane: bat","kontrol\\u0001 #Gora","kaixo mundua","kaixo mundua",'
        '"bat berriz"],'
        '[["gora"],[],["gora"],[],[],[]],'
        '[null,[1,"ane"],null,null,null,null],'
        '[null,"ane",null,null,null,null],'
        '[null,[43.26,-0.0],null,null,null,null],'
        '[null,7,null,null,null,null]]'
    )


def test_entry_name_covers_the_archive_the_parser_and_python(archive, tmp_path, parse_cache):
    cached(archive)
    other_parser = tmp_path / "tweets.py"
    other_parser.write_bytes(Path(tweets.__file__).read_bytes() + b"\n")
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tweets, "__file__", str(other_parser))
            tweets._code_key.cache_clear()
            cached(archive)
            patch.setattr(sys, "version", sys.version + " (other build)")
            tweets._code_key.cache_clear()
            cached(archive)
    finally:
        tweets._code_key.cache_clear()
    assert len(entries(parse_cache)) == 3


def test_cache_directory_follows_xdg_then_home(archive, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a relative XDG_CACHE_HOME would land
    home = tmp_path / "home"
    monkeypatch.setenv("HOME", str(home))
    for value in ("", "relative/cache"):
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        read_archive(archive)
    monkeypatch.delenv("XDG_CACHE_HOME")
    read_archive(archive)
    assert len(entries(home / ".cache" / "eventpulse")) == 1
    assert not (tmp_path / "relative").exists()


# --- faults: each read equals a cold parse ----------------------------------------


def test_no_home(archive, cold, capsys, monkeypatch):
    expected = cold(archive)
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.delenv("HOME", raising=False)

    asked = []

    def no_home(cls):
        asked.append(cls)
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(Path, "home", classmethod(no_home))
    parsed = parses(monkeypatch)  # the slot holds these bytes' parse from cold()
    assert results(archive, capsys) == expected
    assert len(parsed) == 4
    assert len(asked) == 4  # each read asked for the home directory


def test_cache_home_is_a_regular_file(archive, tmp_path, cold, capsys, monkeypatch):
    expected = cold(archive)
    blocker = tmp_path / "not-a-dir"
    blocker.write_bytes(b"keep")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert results(archive, capsys) == expected
    assert blocker.read_bytes() == b"keep"


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes through permission bits")
def test_cache_home_is_read_only(archive, tmp_path, cold, capsys, monkeypatch):
    expected = cold(archive)
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o555)
    monkeypatch.setenv("XDG_CACHE_HOME", str(locked))
    try:
        assert results(archive, capsys) == expected
        assert list(locked.iterdir()) == []
    finally:
        locked.chmod(0o755)


@pytest.mark.parametrize("module, name", [(tempfile, "mkstemp"), (os, "replace")],
                         ids=["mkstemp", "replace"])
def test_entry_cannot_be_written(archive, parse_cache, cold, capsys, monkeypatch, module, name):
    # what a read-only directory does to a user that permission bits bind;
    # a writer whose rename is refused removes its temp file
    expected = cold(archive)  # the slot holds these bytes under another cache directory
    calls = []

    def refused(*args, **kwargs):
        calls.append(args)
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(module, name, refused)
    assert results(archive, capsys) == expected
    assert len(calls) == 1  # the writer reached the refused call; the slot served the rest
    assert entries(parse_cache) == []
    assert list(parse_cache.glob("*.tmp")) == []


def corrupt(parse_cache: Path, archive: Path, change) -> tuple[Path, bytes]:
    """Write the archive's entry, then replace its bytes with ``change(bytes)``."""
    cached(archive)
    [entry] = entries(parse_cache)
    whole = entry.read_bytes()
    entry.write_bytes(change(whole))
    return entry, whole


@pytest.mark.parametrize("keep", [0, 1, 5, 40, -2, -30])
def test_truncated_entry(archive, parse_cache, cold, capsys, keep):
    entry, whole = corrupt(parse_cache, archive, lambda data: data[:keep])
    assert results(archive, capsys) == cold(archive)
    assert entry.read_bytes() == whole  # the fallback parse wrote it again


def in_line(edit):
    """Change an entry's lines: the batch line's nine columns become ``edit(columns)``."""
    def change(lines: list) -> list:
        header, batch = lines
        return [header, json.dumps(edit(json.loads(batch))).encode() + b"\n"]
    return change


def each_column(edit):
    """Change an entry's lines: each column of the batch line becomes ``edit(column)``."""
    return in_line(lambda columns: [edit(column) for column in columns])


@pytest.mark.parametrize(
    "change",
    [
        each_column(lambda column: column[:1] + column[2:]),  # record 1 gone from every column
        each_column(lambda column: column[:2] + column[1:]),  # record 1 twice in every column
        lambda lines: [b"[9,2]\n", *lines[1:]],  # a header that counts one more valid line
        lambda lines: [b"[9,-1]\n", *lines[1:]],
        lambda lines: [b"[9]\n", *lines[1:]],
        lambda lines: [b'{"total":9}\n', *lines[1:]],
        lambda lines: [b"[9.0,3.0]\n", *lines[1:]],
        # 6 == -3 - -9 valid records, but no parse counts -3 lines
        lambda lines: [b"[-3,-9]\n", *lines[1:]],
    ],
    ids=["row-missing", "row-extra", "header-count", "header-negative", "header-short",
         "header-object", "header-floats", "header-impossible-counts"],
)
def test_entry_with_a_wrong_header_or_row_count(archive, parse_cache, cold, capsys, change):
    entry, whole = corrupt(
        parse_cache, archive,
        lambda data: b"".join(change(data.splitlines(keepends=True))),
    )
    assert results(archive, capsys) == cold(archive)
    assert entry.read_bytes() == whole


def altered(index: int, value):
    """An entry's lines with value 1 (every field set) of column ``index`` set to ``value``."""
    def with_value(columns: list) -> list:
        columns[index][1] = value
        return columns
    return in_line(with_value)


def one_text_short(lines: list) -> list:
    """An entry's lines with the texts column one value short.

    The header counts one valid record fewer, which is what the shortest
    column gives, so only the check that all nine columns are of one
    length can refuse the line.
    """
    _header, batch = in_line(lambda columns: [*columns[:3], columns[3][:-1], *columns[4:]])(lines)
    return [b"[9,4]\n", batch]


@pytest.mark.parametrize(
    "change",
    [
        in_line(lambda columns: columns[:2]),  # two columns
        in_line(lambda columns: [{"id": columns[0]}, *columns[1:]]),  # a column as an object
        in_line(lambda columns: {str(i): column for i, column in enumerate(columns)}),
        # texts as one string of as many letters: each value is a str, but no list holds them
        in_line(lambda columns: [*columns[:3], "x" * len(columns[3]), *columns[4:]]),
        # bytes that are no batch of columns, in place of the whole batch line
        lambda lines: [lines[0], b""],
        lambda lines: [lines[0], b"[" * 100_000],
        lambda lines: [lines[0], b"\xff" + lines[1]],
        each_column(lambda column: column + column[-1:]),  # a value over in every column
        in_line(lambda columns: [*columns, [None] * len(columns[0])]),  # a tenth column
        altered(0, "2"),
        altered(1, 1426788000.5),
        altered(1, 10**12),  # past year 9999
        altered(2, None),
        altered(3, 5),
        altered(4, "gora"),
        altered(4, [1]),
        altered(5, [1, "ane", 7]),
        altered(5, {"id": 1, "user": "ane"}),
        altered(5, [True, "ane"]),
        altered(6, ["ane"]),
        altered(7, [43, -2]),
        altered(7, [43.26]),
        altered(8, True),
        altered(8, "7"),
        one_text_short,
    ],
)
def test_row_of_the_wrong_shape(archive, parse_cache, cold, capsys, change):
    entry, whole = corrupt(
        parse_cache, archive,
        lambda data: b"".join(change(data.splitlines(keepends=True))),
    )
    assert results(archive, capsys) == cold(archive)
    assert entry.read_bytes() == whole


def test_writer_killed_before_its_entry_was_in_place(archive, parse_cache, cold, capsys):
    # a child process that dies at the step that would publish its entry
    script = (
        "import os, signal, sys\n"
        "from eventpulse import tweets\n"
        "os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
        "tweets.read_archive(sys.argv[1])\n"
    )
    done = fresh_interpreter(script, str(archive))
    assert done.returncode == -signal.SIGKILL
    [left] = parse_cache.glob("*.tmp")
    assert entries(parse_cache) == []
    assert results(archive, capsys) == cold(archive)
    assert len(entries(parse_cache)) == 1
    assert left.exists()  # young enough to be another writer's; the next prune leaves it


def test_prune_removes_stale_temp_files(archive, tmp_path, parse_cache):
    parse_cache.mkdir(parents=True)
    stale, fresh = parse_cache / ".stale.tmp", parse_cache / ".fresh.tmp"
    stale.write_bytes(b"[3,0]\n[1,")
    fresh.write_bytes(b"[3,0]\n[1,")
    two_hours_ago = time.time() - 7200
    os.utime(stale, (two_hours_ago, two_hours_ago))
    read_archive(archive)
    assert not stale.exists() and fresh.exists()


def test_archive_appended_after_its_entry(archive, parse_cache, cold, capsys):
    cached(archive)
    with open(archive, "ab") as handle:
        handle.write((record_line(id=9, screen_name="berria") + "\n").encode())
    expected = cold(archive)
    assert "berria" in expected[0][0][0]
    assert results(archive, capsys) == expected


def test_archive_that_grows_between_its_hash_and_its_parse(archive, parse_cache, cold, capsys,
                                                           monkeypatch):
    # the entry must be named by the bytes parsed, not by the ones hashed
    original = archive.read_bytes()
    hashed = tweets._entry_path

    def hash_then_append(handle):
        entry = hashed(handle)
        with open(archive, "ab") as more:
            more.write((record_line(id=9, screen_name="berria") + "\n").encode())
        return entry

    monkeypatch.setattr(tweets, "_entry_path", hash_then_append)
    assert "berria" in repr(read_archive(archive)[0])
    assert len(entries(parse_cache)) == 1
    monkeypatch.setattr(tweets, "_entry_path", hashed)
    archive.write_bytes(original)
    assert results(archive, capsys) == cold(archive)


def test_archive_rewritten_at_the_same_size_and_mtime(archive, parse_cache, cold, capsys,
                                                      monkeypatch):
    before = archive.stat()
    data = archive.read_bytes()

    def rewrite(new: bytes) -> None:
        archive.write_bytes(new)
        os.utime(archive, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert archive.stat().st_size == before.st_size

    rewrite(data.replace(b'"mikel"', b'"mikal"'))
    expected = cold(archive)
    assert "mikal" in expected[0][0][0]
    rewrite(data)
    read_archive(archive)  # the old bytes get an entry, and the slot holds them
    rewrite(data.replace(b'"mikel"', b'"mikal"'))
    parsed = parses(monkeypatch)
    assert results(archive, capsys) == expected
    assert len(parsed) == 1  # the first read parses the new bytes; the slot serves the rest


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_is_never_cached(archive, tmp_path, parse_cache, cold, capsys, monkeypatch):
    expected = cold(archive)  # the slot now holds the bytes the FIFO carries
    parsed = parses(monkeypatch)
    fifo = tmp_path / "feed"
    os.mkfifo(fifo)
    data = archive.read_bytes()

    def fed(action):
        """``action()`` while a writer sends the archive bytes through the FIFO once."""
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            return action()
        finally:
            writer.join(timeout=30)
            assert not writer.is_alive()

    reads = [fed(lambda: read_archive(fifo, dedupe=dedupe)) for dedupe in (False, True)]
    commands = []
    for argv in (["stats", str(fifo)], ["top-users", "-f", str(fifo), "--by", "retweets"]):
        commands.append((fed(lambda: run(argv)), capsys.readouterr().out))
    assert ([(repr(got), stats) for got, stats in reads], commands) == expected
    assert len(parsed) == 4
    assert not parse_cache.exists()


def test_keeps_the_16_most_recently_used(tmp_path, parse_cache):
    paths = [write_archive(tmp_path / f"a{i}.jsonl", [record_line(id=i + 1)]) for i in range(17)]
    entry_of = {}
    for second, path in enumerate(paths[:16], start=1):
        before = set(entries(parse_cache))
        cached(path)
        [entry_of[path]] = set(entries(parse_cache)) - before
        os.utime(entry_of[path], (second, second))  # used in this order, long ago
    read_archive(paths[0])  # a load makes the oldest the newest
    cached(paths[16])
    assert len(entries(parse_cache)) == 16
    assert not entry_of[paths[1]].exists()
    assert entry_of[paths[0]].exists()


def test_a_growing_file_evicts_its_own_oldest_versions(archive, tmp_path, parse_cache,
                                                       monkeypatch):
    # each read of a day file being written parses new bytes and writes their entry;
    # a sealed archive loaded between those reads keeps its own
    sealed = write_archive(tmp_path / "sealed.jsonl", [record_line(id=99)])
    cached(sealed)
    [kept] = entries(parse_cache)
    parsed = parses(monkeypatch)
    versions = []
    for number in range(20):
        with open(archive, "ab") as handle:
            handle.write((record_line(id=10 + number) + "\n").encode())
        read_archive(archive)
        [version] = set(entries(parse_cache)) - {kept, *versions}
        versions.append(version)
        os.utime(version, (number + 2, number + 2))  # written in this order, long ago
        os.utime(kept, (1, 1))  # older than every version until the read below loads it
        read_archive(sealed)
        assert len(entries(parse_cache)) <= 16
    assert len(parsed) == 20  # the sealed archive's reads each loaded its entry
    assert entries(parse_cache) == sorted([kept, *versions[5:]])


def test_a_file_another_process_removes_mid_prune(archive, parse_cache, monkeypatch):
    # another process's prune takes entries first: one after this prune has
    # listed the directory, and the first one this prune unlinks
    parse_cache.mkdir(parents=True)
    older = [parse_cache / f"{i:064x}.jsonl" for i in range(19)]
    for used, entry in enumerate(older, start=1):
        entry.write_bytes(b"[0,0]\n")
        os.utime(entry, (used, used))
    listing, unlink = os.scandir, os.unlink

    def listed_then_lost(path):
        monkeypatch.setattr(os, "scandir", listing)
        with listing(path) as items:
            listed = list(items)
        unlink(older[-1])
        return contextlib.nullcontext(iter(listed))

    def lost_to_another(path):
        unlink(path)
        monkeypatch.setattr(os, "unlink", unlink)
        raise FileNotFoundError(2, "No such file or directory", path)

    monkeypatch.setattr(os, "scandir", listed_then_lost)
    monkeypatch.setattr(os, "unlink", lost_to_another)
    read_archive(archive)
    assert len(entries(parse_cache)) == 16
    assert len(set(entries(parse_cache)) - set(older)) == 1  # the archive's own entry


def test_one_entry_serves_both_dedupe_values(archive, parse_cache, monkeypatch):
    cached(archive)
    refuse_to_parse(monkeypatch)
    kept, kept_stats = read_archive(archive, dedupe=True)
    everything, stats = read_archive(archive, dedupe=False)
    assert len(entries(parse_cache)) == 1
    assert (kept_stats.parsed, kept_stats.duplicates_dropped) == (5, 1)
    assert (stats.parsed, stats.duplicates_dropped) == (6, 0)
    assert [t.id for t in everything].count(1) == 2 and [t.id for t in kept].count(1) == 1


def test_an_entry_of_several_batch_lines(tmp_path, parse_cache, monkeypatch):
    size = tweets._BATCH_TWEETS
    ids = list(range(1, 2 * size + 2))  # one valid record more than two batch lines hold
    ids[size] = ids[size - 1]  # a duplicate across the first batch boundary
    ids[-1] = ids[5]  # and one alone in the last batch line
    lines = []
    for row, tweet_id in enumerate(ids):
        lines.append(record_line(id=tweet_id, screen_name=f"user{row % 7}", text=f"#gora {row}"))
        if row % 97 == 0:
            lines.append("{oops")
    path = write_archive(tmp_path / "big.jsonl", lines)
    cold = [read_archive(path, dedupe=dedupe) for dedupe in (False, True)]  # parse, then slot
    [entry] = entries(parse_cache)
    batches = [json.loads(line) for line in entry.read_bytes().splitlines()[1:]]
    assert [[len(column) for column in columns] for columns in batches] == [
        [size] * 9, [size] * 9, [1] * 9,
    ]
    assert (cold[1][1].skipped_malformed, cold[1][1].duplicates_dropped) == (9, 2)
    forget_last_read()  # the warm reads load the entry's three lines
    refuse_to_parse(monkeypatch)
    warm = [read_archive(path, dedupe=dedupe) for dedupe in (False, True)]
    assert [(repr(got), stats) for got, stats in warm] == [
        (repr(got), stats) for got, stats in cold
    ]


def test_the_tool_leaves_other_cache_files_alone(archive, parse_cache):
    parse_cache.mkdir(parents=True)
    note = parse_cache / "README"
    note.write_bytes(b"mine")
    read_archive(archive)
    assert note.read_bytes() == b"mine"


def test_an_empty_archive_gets_a_header_only_entry(tmp_path, parse_cache):
    path = write_archive(tmp_path / "empty.jsonl", [])
    assert read_archive(path) == ([], tweets.ParseStats())
    [entry] = entries(parse_cache)
    assert entry.read_bytes() == b"[0,0]\n"
    forget_last_read()  # so the next read loads the entry
    assert read_archive(path, dedupe=True) == ([], tweets.ParseStats())


# --- the slot: the last read's result, in this process --------------------------


def test_a_repeated_read_takes_the_last_reads_result(archive, parse_cache, cold, capsys,
                                                     monkeypatch):
    expected = cold(archive)  # the slot now holds these bytes, under another cache directory
    parsed = parses(monkeypatch)
    read_archive(archive)  # it parses, and writes the entry
    assert len(parsed) == 1  # another cache directory is another key
    [entry] = entries(parse_cache)
    os.utime(entry, (1, 1))
    refuse_to_parse(monkeypatch, "_load_entry", "_store_entry")
    assert results(archive, capsys) == expected
    assert os.listdir(parse_cache) == [entry.name]
    assert entry.stat().st_mtime == 1  # a hit changes no file, not even the entry's mtime


def on_disk(directory: Path) -> dict[str, tuple[bytes, int]]:
    """Each file's name, bytes and ``st_mtime_ns``."""
    return {path.name: (path.read_bytes(), path.stat().st_mtime_ns) for path in directory.iterdir()}


def test_repeated_reads_in_one_process_are_one_read(archive, parse_cache):
    reads = [read_archive(archive)]  # the one read that parses: it writes the entry
    left = on_disk(parse_cache)
    assert [Path(name).suffix for name in left] == [".jsonl"]
    with pytest.MonkeyPatch.context() as patch:
        refuse_to_parse(patch, "_load_entry", "_store_entry")
        hashed = tweets._entry_path
        hashes = []

        def hash_then_lose_os(handle):
            hashes.append(handle)
            patch.setattr(tweets, "os", os)
            entry = hashed(handle)
            patch.setattr(tweets, "os", None)  # from here on, an os call in the read raises
            return entry

        patch.setattr(tweets, "_entry_path", hash_then_lose_os)
        for dedupe in (True, False):  # the second and third reads: hits
            reads.append(read_archive(archive, dedupe=dedupe))
            assert on_disk(parse_cache) == left
        assert len(hashes) == 2
    done = fresh_interpreter(FRESH_INTERPRETER_READ, str(archive), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [shown(read) for read in reads[:2]]
    assert shown(reads[2]) == shown(reads[0])


@pytest.mark.parametrize("dedupe", [False, True])
def test_a_list_changed_by_its_caller_changes_no_later_read(archive, cold, capsys, dedupe):
    expected = cold(archive)
    changes = [lambda got: got.append(got[0]), lambda got: got.sort(key=lambda t: -t.id), list.clear]
    for change in changes:
        change(read_archive(archive, dedupe=dedupe)[0])
        assert results(archive, capsys) == expected


def test_threads_that_alternate_two_archives(archive, tmp_path, cold):
    other = write_archive(tmp_path / "other.jsonl", [record_line(id=7, screen_name="kepa"), "{x"])
    expected = {path: cold(path)[0] for path in (archive, other)}
    agreed = []

    def alternate(first, second):
        for _round in range(40):
            for path in (first, second):
                reads = [read_archive(path, dedupe=dedupe) for dedupe in (False, True)]
                agreed.append([(repr(got), stats) for got, stats in reads] == expected[path])

    threads = [threading.Thread(target=alternate, args=pair)
               for pair in ((archive, other), (other, archive))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert agreed == [True] * 160
