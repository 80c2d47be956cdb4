import csv
import importlib.util
import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from datetime import datetime, timezone
from pathlib import Path

import pytest

from conftest import make_record, record_line, write_archive
from eventpulse import cli
from eventpulse.cli import run
from eventpulse.mockserver import MockStreamServer


def collect_child(tmp_path: Path, endpoint: str) -> tuple[list[str], dict]:
    """argv and environment of `eventpulse collect stream` as a child process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-c",
        "import sys; from eventpulse.cli import run; sys.exit(run(sys.argv[1:]))",
        "collect", "stream", "proba", "#proba", "--endpoint", endpoint,
        "--data-dir", str(tmp_path / "data"),
    ]
    return argv, env


def ts(hour: int, minute: int) -> datetime:
    return datetime(2015, 3, 19, hour, minute, tzinfo=timezone.utc)


@pytest.fixture
def small_archive(tmp_path):
    lines = [
        record_line(id=1, screen_name="ane", created_at=ts(10, 5), text="bat #gora"),
        record_line(id=2, screen_name="ane", created_at=ts(10, 59), text="bi"),
        record_line(
            id=3,
            screen_name="mikel",
            created_at=ts(11, 0),
            text="RT @ane: bat #gora",
            retweet=(1, "ane"),
        ),
        record_line(
            id=4,
            screen_name="jon",
            created_at=ts(11, 30),
            text="erantzuna",
            reply_to="ane",
            coordinates=(-2.67, 43.26),
        ),
    ]
    return write_archive(tmp_path / "event.jsonl", lines)


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run(["top-users"]) == 2  # -f is required
        assert run(["no-such-command"]) == 2
        assert run([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "csv", "stats", "{archive}"],
            ["--tz", "60", "histogram", "{archive}", "{out}"],
            ["--seed", "1", "interactions", "{archive}", "{out}"],
            ["--data-dir", "{dir}", "collect", "stream", "e", "#x", "--endpoint", "{archive}"],
            ["stats", "{archive}", "--tz", "900"],
            ["coordinates", "{archive}", "{out}", "--format", "csv"],
            ["top-users", "-f", "{archive}", "--seed", "1"],
            ["histogram", "{archive}", "{out}", "--data-dir", "{dir}"],
            ["collect", "stream", "e", "#x", "--data-dir", "{dir}"],  # no --endpoint
        ],
    )
    def test_option_off_the_command_that_reads_it_is_2(
        self, small_archive, tmp_path, capsys, argv
    ):
        paths = {"archive": small_archive, "out": tmp_path / "out", "dir": tmp_path / "data"}
        assert run([arg.format_map(paths) for arg in argv]) == 2
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["event.jsonl"]

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--format", "csv", "stats", "A"], "--format"),
            (["--tz", "60", "histogram", "a", "h.dat"], "--tz"),
            (["--format=csv", "stats", "A"], "--format"),
        ],
    )
    def test_option_before_the_subcommand_is_named(self, capsys, argv, option):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        [message] = [line for line in err.splitlines() if "error:" in line]
        assert message == (
            f"eventpulse: error: option {option} goes after the subcommand: "
            "eventpulse COMMAND [options]"
        )
        assert err.startswith("usage: eventpulse")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["stats", "-h"]])
    def test_help_still_works(self, capsys, argv):
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("usage: eventpulse")

    def test_missing_archive_is_1(self, tmp_path, capsys):
        code = run(["stats", str(tmp_path / "absent.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_domain_value_is_1(self, small_archive, capsys):
        assert run(["top-users", "-f", str(small_archive), "-k", "0"]) == 1
        assert "k must be" in capsys.readouterr().err

    def test_bad_tz_is_1(self, small_archive, tmp_path, capsys):
        out = tmp_path / "h.dat"
        assert run(["histogram", str(small_archive), str(out), "--tz", "900"]) == 1
        assert capsys.readouterr().err == "error: tz offset out of range: 900\n"
        assert not out.exists()

    def test_success_is_0(self, small_archive, tmp_path):
        assert run(["histogram", str(small_archive), str(tmp_path / "h.dat")]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["top-users", "-f", "{missing}", "-k", "0"],
            ["histogram", "{missing}", "{missing}.dat", "--tz", "900"],
        ],
    )
    def test_errors_come_in_order_archive_then_command(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "absent.jsonl")
        assert run([arg.format(missing=missing) for arg in argv]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: [Errno 2] No such file or directory") and missing in err


class TestOptionLayout:
    @pytest.mark.parametrize(
        "command, options",
        [
            ([], set()),
            (["collect"], {"--endpoint", "--data-dir"}),
            (["histogram"], {"--granularity", "--tz"}),
            (["top-tweets"], {"-f", "--file", "-k", "--count-source", "--format"}),
            (["top-users"], {"-f", "--file", "-k", "--by", "--format"}),
            (["coordinates"], set()),
            (
                ["interactions"],
                {"--merge-kinds", "--top", "--communities", "--gexf", "--format", "--seed"},
            ),
            (["stats"], set()),
        ],
        ids=["root", "collect", "histogram", "top-tweets", "top-users", "coordinates",
             "interactions", "stats"],
    )
    def test_help_lists_only_the_options_the_command_reads(self, capsys, command, options):
        assert run([*command, "--help"]) == 0
        shown = set(re.findall(r"(?<![\w-])(--?[a-z][a-z-]*)", capsys.readouterr().out))
        assert shown == {"-h", "--help"} | options


class TestHistogramCommand:
    def test_writes_dat_file(self, small_archive, tmp_path, capsys):
        out = tmp_path / "hist.dat"
        assert run(["histogram", str(small_archive), str(out)]) == 0
        assert out.read_bytes() == (
            b"2015-03-19T10:00:00\t2\n2015-03-19T11:00:00\t2\n"
        )
        assert "2 buckets" in capsys.readouterr().out

    def test_day_granularity(self, small_archive, tmp_path):
        out = tmp_path / "hist.dat"
        run(["histogram", str(small_archive), str(out), "--granularity", "day"])
        assert out.read_bytes() == b"2015-03-19T00:00:00\t4\n"

    def test_tz_shifts_the_buckets(self, small_archive, tmp_path):
        out = tmp_path / "hist.dat"
        assert run(["histogram", str(small_archive), str(out), "--tz", "60"]) == 0
        assert out.read_bytes().startswith(b"2015-03-19T11:00:00\t2\n")

    def test_edges_of_the_datetime_range(self, tmp_path, capsys):
        last = write_archive(tmp_path / "l.jsonl", [record_line(created_at="9999-12-31T23:30:00Z")])
        out = tmp_path / "hist.dat"
        for granularity, bucket in (("hour", b"23"), ("day", b"00")):
            assert run(["histogram", str(last), str(out), "--granularity", granularity]) == 0
            assert out.read_bytes() == b"9999-12-31T" + bucket + b":00:00\t1\n"
        out.unlink()
        capsys.readouterr()
        first = write_archive(
            tmp_path / "f.jsonl", [record_line(id=7, created_at="0001-01-01T00:30:00Z")]
        )
        assert run(["histogram", str(first), str(out), "--tz", "-60"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: tweet 7: 0001-01-01T00:30:00+00:00 shifted by -60 minutes"
            " falls outside years 1-9999\n",
        )
        assert not out.exists()


class TestRankingCommands:
    def test_top_users_table_has_at_signs(self, small_archive, capsys):
        assert run(["top-users", "-f", str(small_archive), "-k", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["rank", "user", "score"]
        assert lines[1].split() == ["1", "@ane", "2"]

    def test_top_users_csv_format(self, small_archive, capsys):
        assert run(["top-users", "-f", str(small_archive), "-k", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,score"
        assert lines[1] == "ane,2"

    def test_top_users_by_retweets(self, small_archive, capsys):
        argv = ["top-users", "-f", str(small_archive), "-k", "1", "--by", "retweets"]
        assert run([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "ane,1"

    def test_csv_stdout_round_trips_through_a_csv_reader(self, tmp_path, capsys):
        odd = 'a,"b'
        archive = write_archive(
            tmp_path / "odd.jsonl",
            [
                record_line(id=1, screen_name=odd, created_at=ts(10, 0), reply_to="c"),
                record_line(id=2, screen_name=odd, created_at=ts(10, 1), text="bi"),
                record_line(id=3, screen_name="c", created_at=ts(10, 2), text="hiru"),
            ],
        )
        assert run(["top-users", "-f", str(archive), "--format", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows == [["key", "score"], [odd, "2"], ["c", "1"]]

        edges = tmp_path / "edges.csv"
        argv = ["interactions", str(archive), str(edges), "--communities", "--format", "csv"]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = list(csv.reader(lines[lines.index("node,community") + 1 :]))
        assert sorted(node for node, _community in rows) == [odd, "c"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["top-users"],
            ["top-users", "--by", "retweets"],
            ["top-tweets"],
            ["interactions", "--communities"],
        ],
    )
    def test_table_row_stays_on_one_line(self, tmp_path, capsys, argv):
        # a line break or tab inside a name is printed as one space
        archive = write_archive(
            tmp_path / "odd.jsonl",
            [
                record_line(id=1, screen_name="a\nb", created_at=ts(10, 0), text="bat"),
                record_line(
                    id=2, screen_name="d\te", created_at=ts(10, 1),
                    text="RT @x: bat", retweet=(1, "a\nb"),
                ),
                record_line(id=3, screen_name="d\te", created_at=ts(10, 2), reply_to="a\nb"),
            ],
        )
        if argv[0] == "interactions":
            argv = [argv[0], str(archive), str(tmp_path / "edges.csv"), *argv[1:]]
        else:
            argv = [argv[0], "-f", str(archive), *argv[1:]]
        assert run([*argv, "--format", "csv"]) == 0
        csv_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert run(argv) == 0
        table = capsys.readouterr().out.splitlines()
        if argv[0] == "interactions":
            csv_rows, table = csv_rows[1:], table[1:]  # the summary line
        assert len(table) == len(csv_rows)
        assert not any("\t" in line for line in table)
        assert any("a b" in line for line in table)

    def test_top_tweets_table(self, small_archive, capsys):
        assert run(["top-tweets", "-f", str(small_archive), "-k", "1"]) == 0
        out = capsys.readouterr().out
        header, row = out.splitlines()[:2]
        assert header.split() == ["rank", "tweet", "user", "score", "text"]
        assert row.split()[:4] == ["1", "1", "@ane", "1"]

    def test_top_tweets_embedded_source(self, small_archive, capsys):
        argv = ["top-tweets", "-f", str(small_archive), "--count-source", "embedded"]
        assert run([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "key,score"


class TestCoordinatesCommand:
    def test_writes_csv(self, small_archive, tmp_path, capsys):
        out = tmp_path / "coords.csv"
        assert run(["coordinates", str(small_archive), str(out)]) == 0
        assert out.read_bytes() == b"id,latitude,longitude\n4,43.26,-2.67\n"
        assert "1 geotagged" in capsys.readouterr().out


class TestInteractionsCommand:
    def test_edge_csv_and_gexf(self, small_archive, tmp_path, capsys, gexf_checker):
        out = tmp_path / "edges.csv"
        gexf = tmp_path / "graph.gexf"
        code = run(
            [
                "interactions",
                str(small_archive),
                str(out),
                "--gexf",
                str(gexf),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (
            b"Source,Target,Weight,Kind\n"
            b"jon,ane,1,reply\n"
            b"mikel,ane,1,retweet\n"
        )
        assert gexf_checker(gexf) == []
        stdout = capsys.readouterr().out
        assert "2 interactions" in stdout
        assert "gexf ->" in stdout

    def test_gexf_name_xml_cannot_hold_fails_without_a_file(self, tmp_path, capsys):
        archive = write_archive(
            tmp_path / "a.jsonl",
            [
                record_line(id=1, screen_name="ane"),
                record_line(id=2, screen_name="un\u0001ai", reply_to="ane"),
            ],
        )
        gexf = tmp_path / "g.gexf"
        edges = tmp_path / "e.csv"
        assert run(["interactions", str(archive), str(edges), "--gexf", str(gexf)]) == 1
        [message] = capsys.readouterr().err.splitlines()
        assert message.startswith("error:") and "un\\x01ai" in message
        assert not gexf.exists()

    def test_merged_kinds(self, small_archive, tmp_path):
        out = tmp_path / "edges.csv"
        run(["interactions", str(small_archive), str(out), "--merge-kinds"])
        assert out.read_bytes() == (
            b"Source,Target,Weight\njon,ane,1\nmikel,ane,1\n"
        )

    def test_communities_csv_output(self, small_archive, tmp_path, capsys):
        out = tmp_path / "edges.csv"
        argv = ["interactions", str(small_archive), str(out), "--communities", "--format", "csv"]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("node,community")
        rows = dict(line.split(",") for line in lines[start + 1 :])
        assert set(rows) == {"ane", "jon", "mikel"}

    def test_top_cut(self, small_archive, tmp_path):
        out = tmp_path / "edges.csv"
        assert run(["interactions", str(small_archive), str(out), "--top", "1"]) == 0
        # the cut leaves no edges, so the Kind column disappears too
        assert out.read_bytes() == b"Source,Target,Weight\n"

    def test_top_must_be_positive(self, small_archive, tmp_path):
        out = tmp_path / "edges.csv"
        assert run(["interactions", str(small_archive), str(out), "--top", "0"]) == 1


class TestUnencodableNames:
    """A command that cannot write all its outputs fails whole.

    A name with a lone surrogate (valid JSON "\\ud800") fails UTF-8, one
    with a control character fails only the GEXF writer, a name or path
    that stdout cannot encode fails the stdout text, and an output that
    is the archive, a directory or in none fails every command that
    writes one. Each prints only its ``error:`` line and leaves every
    file as it was. Stdout is UTF-8 here and ASCII in the subclass below.
    """

    encoding = "utf-8"

    def run_cli(self, argv):
        """``run(argv)`` with stdout in ``self.encoding``: the exit code and the bytes printed."""
        stream = io.TextIOWrapper(io.BytesIO(), encoding=self.encoding, write_through=True)
        with redirect_stdout(stream):
            return run(argv), stream.buffer.getvalue()

    @staticmethod
    def odd_archive(tmp_path, name):
        # json.dumps keeps the surrogate as the escape \ud800, which parses
        lines = [
            json.dumps(make_record(id=1, screen_name="ane", created_at=ts(10, 0))),
            json.dumps(make_record(
                id=2, screen_name=name, created_at=ts(10, 1), reply_to="ane",
            )),
            json.dumps(make_record(
                id=3, screen_name="ane", created_at=ts(10, 2), retweet=(2, name),
            )),
        ]
        return write_archive(tmp_path / "odd.jsonl", lines)

    @pytest.fixture
    def archive(self, tmp_path):
        return self.odd_archive(tmp_path, "un\ud800ai")

    @staticmethod
    def snapshot(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    def assert_fails_whole(self, capsys, argv, directory):
        """``argv`` exits 1 with one ``error:`` line, prints nothing and changes no file."""
        before = self.snapshot(directory)
        assert self.run_cli([str(arg) for arg in argv]) == (1, b"")
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert self.snapshot(directory) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["top-users"],
            ["top-users", "--format", "csv"],
            ["top-users", "--by", "retweets"],
            ["top-users", "--by", "retweets", "--format", "csv"],
            ["top-tweets"],  # its csv holds tweet ids, not names
        ],
    )
    def test_ranking_prints_nothing(self, archive, tmp_path, capsys, argv):
        self.assert_fails_whole(capsys, [*argv, "-f", archive], tmp_path)

    @pytest.mark.parametrize(
        "name, extra",
        [
            ("un\ud800ai", []),
            ("un\ud800ai", ["--communities", "--gexf", "{gexf}"]),
            ("un\x01ai", ["--communities", "--gexf", "{gexf}"]),
            ("un\x01ai", ["--gexf", "{gexf}"]),
        ],
        ids=["surrogate", "surrogate-gexf", "control-gexf-communities", "control-gexf"],
    )
    def test_interactions_keeps_outputs(self, tmp_path, capsys, name, extra):
        archive = self.odd_archive(tmp_path, name)
        edges, gexf = tmp_path / "edges.csv", tmp_path / "graph.gexf"
        edges.write_bytes(b"old edges\n")
        gexf.write_bytes(b"old gexf\n")
        extra = [arg.format(gexf=gexf) for arg in extra]
        self.assert_fails_whole(capsys, ["interactions", archive, edges, *extra], tmp_path)

    @pytest.mark.parametrize(
        "name, argv, shown",
        [
            ("José", ["interactions", "{archive}", "{dir}/e.csv", "--communities", "--gexf",
                      "{dir}/g.gexf"], "José"),
            ("unai", ["histogram", "{archive}", "{dir}/hé.dat"], "hé.dat"),
        ],
        ids=["non-ascii-name", "non-ascii-path"],
    )
    def test_what_stdout_cannot_print_writes_no_file(self, tmp_path, capsys, name, argv, shown):
        archive = self.odd_archive(tmp_path, name)
        argv = [arg.format(archive=archive, dir=tmp_path) for arg in argv]
        if self.encoding == "ascii":
            self.assert_fails_whole(capsys, argv, tmp_path)
        else:
            code, printed = self.run_cli(argv)
            assert code == 0 and shown.encode() in printed

    @pytest.mark.parametrize(
        "argv",
        [
            ["histogram", "{archive}", "{archive}"],
            ["coordinates", "{archive}", "{archive}"],
            ["interactions", "{archive}", "{archive}"],
            ["interactions", "{archive}", "{edges}", "--gexf", "{archive}"],
            ["interactions", "{archive}", "{edges}", "--gexf", "{edges}"],
            ["interactions", "{archive}", "{new}", "--gexf", "{new}"],
            ["histogram", "{archive}", "{dir}/nodir/h.dat"],
            ["interactions", "{archive}", "{dir}/nodir/e.csv", "--gexf", "{new}"],
            ["interactions", "{archive}", "{edges}", "--gexf", "{dir}/nodir/g.gexf"],
            ["interactions", "{archive}", "{edges}", "--gexf", "{dir}"],
        ],
    )
    def test_output_that_is_the_archive_or_the_other_output(self, tmp_path, capsys, argv):
        archive = self.odd_archive(tmp_path, "unai")
        edges = tmp_path / "edges.csv"
        edges.write_bytes(b"old edges\n")
        paths = {"archive": archive, "edges": edges, "new": tmp_path / "new.csv", "dir": tmp_path}
        self.assert_fails_whole(capsys, [arg.format_map(paths) for arg in argv], tmp_path)


class TestUnencodableNamesOnAsciiStdout(TestUnencodableNames):
    encoding = "ascii"


class TestStatsCommand:
    def test_empty_archive(self, tmp_path, capsys):
        archive = write_archive(tmp_path / "empty.jsonl", [])
        assert run(["stats", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "0 tweets (0 lines: 0 parsed, 0 malformed, 0 duplicate)" in out

    def test_full_summary(self, tmp_path, capsys):
        lines = [
            record_line(id=1, screen_name="ane", created_at=ts(10, 0)),
            record_line(id=1, screen_name="ane", created_at=ts(10, 0)),
            "junk",
            record_line(id=2, screen_name="mikel", created_at=ts(12, 0)),
        ]
        archive = write_archive(tmp_path / "event.jsonl", lines)
        assert run(["stats", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "2 tweets (4 lines: 2 parsed, 1 malformed, 1 duplicate)" in out
        assert "2 distinct users" in out
        assert "span 2015-03-19T10:00:00+00:00 .. 2015-03-19T12:00:00+00:00" in out


class TestCollectCommand:
    def source_lines(self):
        return [
            record_line(id=i, text="gora #proba" if i % 2 else "beste zerbait")
            for i in range(1, 21)
        ]

    def test_stream_from_file_endpoint(self, tmp_path, capsys):
        src = write_archive(tmp_path / "src.jsonl", self.source_lines())
        data_dir = tmp_path / "data"
        argv = ["collect", "stream", "proba", "#proba", "--endpoint", str(src)]
        assert run([*argv, "--data-dir", str(data_dir)]) == 0
        out = capsys.readouterr().out
        assert "received 20, matched 10, written 10, reconnects 0" in out
        archives = list((data_dir / "proba").glob("*.jsonl"))
        assert len(archives) == 1
        assert archives[0].read_bytes().count(b"\n") == 10

    def test_stream_off_the_main_thread(self, tmp_path, capsys):
        # only the main thread may set a SIGINT handler; elsewhere the stop
        # event alone ends the run
        src = write_archive(tmp_path / "src.jsonl", self.source_lines())
        argv = ["collect", "stream", "proba", "#proba", "--endpoint", str(src),
                "--data-dir", str(tmp_path / "data")]
        handler = signal.getsignal(signal.SIGINT)
        codes = []
        worker = threading.Thread(target=lambda: codes.append(run(argv)))
        worker.start()
        worker.join(timeout=30)
        assert codes == [0]
        assert "written 10" in capsys.readouterr().out
        assert signal.getsignal(signal.SIGINT) is handler

    def test_search_from_file_endpoint(self, tmp_path, capsys):
        src = write_archive(tmp_path / "src.jsonl", self.source_lines())
        data_dir = tmp_path / "data"
        argv = ["collect", "search-recent", "proba", "#proba", "--endpoint", f"file://{src}"]
        assert run([*argv, "--data-dir", str(data_dir)]) == 0
        assert "written 10" in capsys.readouterr().out

    def test_search_over_tcp_endpoint(self, tmp_path, capsys):
        server = MockStreamServer(self.source_lines(), page_size=8)
        data_dir = tmp_path / "data"
        with server as (host, port):
            code = run(
                ["collect", "search-popular", "proba", "#proba",
                 "--endpoint", f"tcp://{host}:{port}", "--data-dir", str(data_dir)]
            )
        assert code == 0
        assert "written 10" in capsys.readouterr().out
        assert any("kind=popular" in request for request in server.requests)

    def test_missing_endpoint_is_a_usage_error(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run(["collect", "stream", "proba", "#proba", "--data-dir", str(data_dir)]) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: the following arguments are required: --endpoint\n")
        assert not data_dir.exists()

    @pytest.mark.parametrize("port", ["0", "65536", "70000", "-1", "abc", ""])
    def test_bad_endpoint_port_fails_before_connecting(self, tmp_path, port):
        # a child process under a timeout: an unchecked port could make the
        # run reconnect forever instead of returning
        endpoint = f"tcp://127.0.0.1:{port}"
        argv, env = collect_child(tmp_path, endpoint)
        done = subprocess.run(
            argv, capture_output=True, text=True, timeout=20, cwd=tmp_path, env=env
        )
        assert done.returncode == 1
        assert done.stdout == ""
        [message] = done.stderr.splitlines()
        assert message.startswith("error:") and endpoint in message
        assert not (tmp_path / "data").exists()  # no run was started

    @pytest.mark.parametrize("endpoint", ["tcp://:9", "tcp://[]:9"])
    def test_empty_host_fails_before_connecting(self, tmp_path, endpoint):
        # an empty host never resolves: unchecked, the run reconnects forever
        argv, env = collect_child(tmp_path, endpoint)
        done = subprocess.run(
            argv, capture_output=True, text=True, timeout=20, cwd=tmp_path, env=env
        )
        assert done.returncode == 1
        assert done.stdout == ""
        [message] = done.stderr.splitlines()
        assert message == f"error: bad endpoint {endpoint!r}: no host"
        assert not (tmp_path / "data").exists()

    def test_credentials_files_are_not_read(self, tmp_path, capsys, monkeypatch):
        # no endpoint signs its requests, so a broken credentials file in
        # the working directory or named by the environment changes nothing
        (tmp_path / "twitter.ini").write_text("consumer_key = a\njunk\n")
        broken = tmp_path / "elsewhere.ini"
        broken.write_text("[twitter]\nconsumer_key = a\nconsumer_key = b\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("EVENTPULSE_CONFIG", str(broken))
        src = write_archive(tmp_path / "src.jsonl", [record_line(id=1, text="#proba")])
        argv = ["collect", "stream", "proba", "#proba", "--endpoint", str(src),
                "--data-dir", str(tmp_path / "data")]
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert out == "received 1, matched 1, written 1, reconnects 0\n"
        assert err == ""

    def test_bracketed_ipv6_endpoint_is_reached(self, tmp_path):
        try:
            listener = socket.create_server(("::1", 0), family=socket.AF_INET6)
        except OSError:
            pytest.skip("cannot listen on ::1")
        with listener:
            argv, env = collect_child(tmp_path, f"tcp://[::1]:{listener.getsockname()[1]}")
            child = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                cwd=tmp_path, env=env,
            )
            try:
                listener.settimeout(20)
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(20)
                    request = b""
                    while b"\r\n\r\n" not in request and (chunk := conn.recv(4096)):
                        request += chunk
                    child.send_signal(signal.SIGINT)  # stop the run, as Ctrl-C does
                    out, err = child.communicate(timeout=20)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.communicate()
        assert request.startswith(b"GET /stream?track=")
        assert child.returncode == 0, err
        assert "received 0" in out

    @pytest.mark.parametrize("endpoint", ["tcp://::1:9", "tcp://[::1:9", "tcp://::1]:9"])
    def test_unbracketed_ipv6_host_is_rejected(self, tmp_path, capsys, endpoint):
        code = run(
            ["collect", "stream", "proba", "#proba", "--endpoint", endpoint,
             "--data-dir", str(tmp_path / "data")]
        )
        assert code == 1
        [message] = capsys.readouterr().err.splitlines()
        assert message == f"error: bad endpoint {endpoint!r}: an IPv6 host must be in brackets"
        assert not (tmp_path / "data").exists()

    def test_bad_event_name_is_1(self, tmp_path, capsys):
        argv = ["collect", "stream", "bad name", "#x", "--endpoint", str(tmp_path / "absent")]
        assert run([*argv, "--data-dir", str(tmp_path)]) == 1
        assert "event name" in capsys.readouterr().err


class TestReadSeam:
    """perfbench times the program by rebinding names it looks up at call time."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        real = cli.read_archive

        def counting(*args, **kwargs):
            calls.append((args[1:], kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "read_archive", counting)
        return calls

    @pytest.mark.parametrize("workload", ["report", "notable"])
    def test_each_benchmark_command_reads_once(
        self, workload, small_archive, tmp_path, reads, monkeypatch
    ):
        monkeypatch.setattr(sys, "path", list(sys.path))  # worker.py prepends to it
        path = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
        spec = importlib.util.spec_from_file_location("perfbench_worker", path)
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        commands = worker.analysis_commands(workload, str(small_archive), tmp_path)
        assert commands
        for _metric, argv, _outputs in commands:
            reads.clear()
            assert run(argv) == 0, argv
            assert reads == [((), {"dedupe": True})], argv

    def test_traced_names_resolve(self):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        from eventpulse import analytics, collector, graph

        traced = [
            *((analytics, name) for name in tracing.ANALYTICS),
            *((graph, name) for name in tracing.GRAPH),
            (collector, "parse_tweet"),
            (collector, "matches_track"),
            (collector.ArchiveWriter, "append"),
        ]
        for owner, name in traced:
            assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"

    def test_collect_reads_no_archive(self, small_archive, tmp_path, reads):
        argv = ["collect", "stream", "proba", "#gora", "--endpoint", str(small_archive),
                "--data-dir", str(tmp_path / "data")]
        assert run(argv) == 0
        assert reads == []


def test_json_array_archive_is_all_malformed(tmp_path, capsys):
    # a whole-file JSON array is not line-delimited; every line is junk
    path = tmp_path / "array.json"
    path.write_text(json.dumps([make_record(id=1)], indent=2))
    assert run(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 tweets" in out
