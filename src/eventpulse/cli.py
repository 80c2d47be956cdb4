"""Command line front end: collect archives and run the analytics.

Exit codes: 0 on success, 1 on operational failures (missing files, bad
archives, bad endpoints, a ``--tz`` past +-840, an unusable output;
message on stderr), 2 on usage errors, such as an option put before its
subcommand or a missing ``--endpoint``. One read, one render, one
commit: ``run`` reads the archive once (a read that parses writes an
entry in the parse cache, and a later ``run`` in the same process over
the same bytes takes the result of the last read without parsing,
loading or touching a cache file; see ``eventpulse.tweets``);
an analysis command writes nothing and returns its stdout text and the
text of each output file; ``run`` encodes all of them before it opens a
file, then writes the files in order and stdout last. So a file text
UTF-8 cannot carry, or a stdout text the stream cannot encode, fails the
command with only its ``error:`` line and leaves every file as it was.
With a fixed seed every subcommand writes byte-identical output files
across reruns.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from typing import Sequence

from . import analytics, graph as graphs
from .analytics import _csv_text
from .collector import (
    MODES,
    CollectionJob,
    ReplaySource,
    ScriptedSearchSource,
    TcpSearchSource,
    TcpStreamSource,
    collect_search,
    collect_stream,
)
from .tweets import ParseError, ParseStats, Tweet, read_archive

DEFAULT_DATA_DIR = "./data"
DEFAULT_SEED = 42

# a command's stdout text and the (path, text) of each file for run to write
Rendered = tuple[str, list[tuple[str, str]]]


def _table_text(headers: list[str], rows: list[list[str]]) -> str:
    # a line break or tab inside a name would split or skew its row
    rows = [[" ".join(cell.split()) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return "".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() + "\n"
        for row in [headers, *rows]
    )


def _ranking_text(entries, output_format: str, *, user_keys: bool) -> str:
    if output_format == "csv":
        return _csv_text(["key", "score"], ([entry.key, entry.score] for entry in entries))
    if user_keys:
        headers = ["rank", "user", "score"]
        rows = [[str(e.rank), f"@{e.key}", str(e.score)] for e in entries]
    else:
        headers = ["rank", "tweet", "user", "score", "text"]
        rows = [
            [str(e.rank), str(e.key), f"@{e.author}", str(e.score), _squash(e.text)]
            for e in entries
        ]
    return _table_text(headers, rows)


def _squash(text: str, limit: int = 60) -> str:
    # collapsed before it is cut, so the limit counts what is printed
    flat = " ".join(text.split())
    return flat if len(flat) <= limit else flat[: limit - 1] + "…"


# --- subcommands -----------------------------------------------------------


def _cmd_collect(args: argparse.Namespace) -> Rendered:
    job = CollectionJob(args.mode, args.event_name, tuple(args.terms), args.data_dir)
    endpoint = args.endpoint
    stream = job.mode == "stream"
    if not endpoint.startswith("tcp://"):
        source = ReplaySource.from_file(endpoint.removeprefix("file://"))
        if not stream:
            lines = source.lines
            pages = [lines[i : i + 100] for i in range(0, len(lines), 100)]
            source = ScriptedSearchSource(pages)
    elif stream:
        source = TcpStreamSource(*_tcp_address(endpoint))
    else:
        kind = job.mode.removeprefix("search-")
        source = TcpSearchSource(*_tcp_address(endpoint), kind=kind)

    stop = threading.Event()
    previous_handler = None
    try:
        previous_handler = signal.signal(signal.SIGINT, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread; rely on the stop event alone

    try:
        stats = (collect_stream if stream else collect_search)(job, source, stop=stop)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)

    return (
        f"received {stats.received}, matched {stats.matched}, "
        f"written {stats.written}, reconnects {stats.reconnects}\n"
    ), []


def _tcp_address(endpoint: str) -> tuple[str, int]:
    """Split ``tcp://HOST:PORT`` (IPv6 as ``[::1]``); PORT is an integer 1-65535."""
    host, _, port = endpoint[len("tcp://") :].rpartition(":")
    # int() alone would take "-1" or "+80", and a port past 65535 wraps
    # around to another port when the socket layer resolves it
    if not (port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
        raise ValueError(f"bad endpoint {endpoint!r}: port must be an integer 1-65535")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    elif ":" in host:
        raise ValueError(f"bad endpoint {endpoint!r}: an IPv6 host must be in brackets")
    # an empty host never resolves, so the run would reconnect until stopped
    if not host:
        raise ValueError(f"bad endpoint {endpoint!r}: no host")
    return host, int(port)


def _cmd_histogram(args: argparse.Namespace, tweets: list[Tweet], stats: ParseStats) -> Rendered:
    buckets = analytics.histogram(tweets, args.granularity, args.tz)
    text = f"{len(buckets)} buckets -> {args.output}\n"
    return text, [(args.output, analytics.write_histogram_dat(buckets))]


def _cmd_top_tweets(args: argparse.Namespace, tweets: list[Tweet], stats: ParseStats) -> Rendered:
    entries = analytics.top_tweets_by_retweets(tweets, args.k, args.count_source)
    return _ranking_text(entries, args.format, user_keys=False), []


def _cmd_top_users(args: argparse.Namespace, tweets: list[Tweet], stats: ParseStats) -> Rendered:
    if args.by == "activity":
        entries = analytics.top_users_by_activity(tweets, args.k)
    else:
        entries = analytics.top_users_by_received_retweets(tweets, args.k)
    return _ranking_text(entries, args.format, user_keys=True), []


def _cmd_coordinates(args: argparse.Namespace, tweets: list[Tweet], stats: ParseStats) -> Rendered:
    rows = analytics.extract_coordinates(tweets)
    text = f"{len(rows)} geotagged tweets -> {args.output}\n"
    return text, [(args.output, analytics.write_coordinates_csv(rows))]


def _cmd_interactions(args: argparse.Namespace, tweets: list[Tweet], stats: ParseStats) -> Rendered:
    edges = graphs.extract_interactions(tweets)
    g = graphs.aggregate(edges, merge_kinds=args.merge_kinds)
    if args.top is not None:
        g = graphs.notable_subgraph(g, args.top)
    text = (
        f"{len(edges)} interactions, {len(g.nodes)} nodes, "
        f"{len(g.edges)} edges -> {args.output}\n"
    )
    outputs = [(args.output, graphs.export_edges_csv(g))]
    if args.communities or args.gexf:
        communities = graphs.label_propagation(g, seed=args.seed)
        if args.communities:
            if args.format == "csv":
                text += _csv_text(["node", "community"], communities.items())
            else:
                text += _table_text(
                    ["node", "community"],
                    [[node, str(label)] for node, label in communities.items()],
                )
        if args.gexf:
            outputs.append((args.gexf, graphs.export_gexf(g, communities)))
            text += f"gexf -> {args.gexf}\n"
    return text, outputs


def _cmd_stats(args: argparse.Namespace, tweets: list[Tweet], stats: ParseStats) -> Rendered:
    text = (
        f"{len(tweets)} tweets ({stats.total_lines} lines: {stats.parsed} parsed, "
        f"{stats.skipped_malformed} malformed, {stats.duplicates_dropped} duplicate)\n"
    )
    if tweets:
        authors = {t.author for t in tweets}
        first = min(t.created_at for t in tweets)
        last = max(t.created_at for t in tweets)
        text += f"{len(authors)} distinct users\n"
        text += f"span {first.isoformat()} .. {last.isoformat()}\n"
    return text, []


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one regular file, or one file yet to be made."""
    try:
        # a device such as /dev/null can take any number of writes
        return os.path.samefile(a, b) and os.path.isfile(a)
    except OSError:  # at least one of them does not exist
        return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse an output that is the archive, a directory or in none, or one file named twice."""
    outputs = [path for path in (vars(args).get("output"), vars(args).get("gexf")) if path]
    for output in outputs:
        if _same_file(output, args.archive):
            raise ValueError(f"output {output!r} is the archive being read")
        if os.path.isdir(output) or not os.path.isdir(os.path.dirname(output) or "."):
            raise ValueError(f"output {output!r} is not a file in an existing directory")
    if len(outputs) == 2 and _same_file(*outputs):
        raise ValueError(f"the edge CSV and --gexf name one file: {outputs[1]!r}")


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventpulse",
        description="Collect keyword-filtered posts and analyze an event archive.",
    )

    commands = parser.add_subparsers(dest="command", required=True)

    collect = commands.add_parser("collect", help="record matching posts to archives")
    collect.add_argument("mode", choices=MODES)
    collect.add_argument("event_name")
    collect.add_argument("terms", nargs="+", metavar="term")
    collect.add_argument(
        "--endpoint",
        metavar="URL",
        required=True,
        help="tcp://HOST:PORT or a line-delimited file to replay",
    )
    collect.add_argument("--data-dir", metavar="DIR", default=DEFAULT_DATA_DIR)

    hist = commands.add_parser("histogram", help="tweets per hour or day")
    hist.add_argument("archive")
    hist.add_argument("output")
    hist.add_argument("--granularity", choices=analytics.GRANULARITIES, default="hour")
    hist.add_argument("--tz", type=int, default=0, metavar="MINUTES")
    hist.set_defaults(func=_cmd_histogram)

    tweets_cmd = commands.add_parser("top-tweets", help="most retweeted tweets")
    tweets_cmd.add_argument("-f", "--file", required=True, dest="archive", metavar="FILE")
    tweets_cmd.add_argument("-k", type=int, default=10)
    tweets_cmd.add_argument(
        "--count-source", choices=analytics.COUNT_SOURCES, default="observed"
    )
    tweets_cmd.add_argument("--format", choices=("table", "csv"), default="table")
    tweets_cmd.set_defaults(func=_cmd_top_tweets)

    users_cmd = commands.add_parser("top-users", help="most active or most retweeted users")
    users_cmd.add_argument("-f", "--file", required=True, dest="archive", metavar="FILE")
    users_cmd.add_argument("-k", type=int, default=10)
    users_cmd.add_argument("--by", choices=("activity", "retweets"), default="activity")
    users_cmd.add_argument("--format", choices=("table", "csv"), default="table")
    users_cmd.set_defaults(func=_cmd_top_users)

    coords = commands.add_parser("coordinates", help="geotagged tweets as CSV")
    coords.add_argument("archive")
    coords.add_argument("output")
    coords.set_defaults(func=_cmd_coordinates)

    inter = commands.add_parser("interactions", help="interaction graph exports")
    inter.add_argument("archive")
    inter.add_argument("output")
    inter.add_argument("--merge-kinds", action="store_true")
    inter.add_argument("--top", type=int, default=None, metavar="N")
    inter.add_argument("--communities", action="store_true")
    inter.add_argument("--gexf", metavar="PATH", default=None)
    inter.add_argument("--format", choices=("table", "csv"), default="table")
    inter.add_argument("--seed", type=int, default=DEFAULT_SEED)
    inter.set_defaults(func=_cmd_interactions)

    stats_cmd = commands.add_parser("stats", help="archive parse and corpus summary")
    stats_cmd.add_argument("archive")
    stats_cmd.set_defaults(func=_cmd_stats)

    return parser


def _misplaced_option(argv: Sequence[str]) -> str | None:
    """The option put before the subcommand, if any; the root parser reads only -h/--help."""
    first = argv[0] if argv else ""
    # "--help".startswith also passes "-", "--" and the abbreviations argparse takes
    if not first.startswith("-") or first == "-h" or "--help".startswith(first):
        return None
    return first.partition("=")[0]


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse would skip the unknown option and report its value as
        # an invalid subcommand
        if option := _misplaced_option(argv):
            parser.error(f"option {option} goes after the subcommand: eventpulse COMMAND [options]")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "collect":
            text, outputs = _cmd_collect(args)
        else:
            _check_outputs(args)
            # looked up at call time: perfbench/tracing.py rebinds cli.read_archive
            text, outputs = args.func(args, *read_archive(args.archive, dedupe=True))
        # everything is encoded before the first file is opened: a name or
        # path that UTF-8 or stdout cannot carry writes nothing. A StringIO
        # stdout has no encoding and takes any str.
        files = [(path, content.encode("utf-8")) for path, content in outputs]
        encoding = getattr(sys.stdout, "encoding", None)
        if encoding:
            text.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")
        for path, data in files:
            with open(path, "wb") as handle:
                handle.write(data)
        sys.stdout.write(text)
        return 0
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
