"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the workload, the generated inputs, the ground truth, an
output directory and whether to trace. The pass prints one JSON object:
its timings, the process's peak RSS, the ops attempted and failed, a
digest of every output (so the caller can check that repetitions are
byte-identical) and, when traced, per-layer times and counts.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import threading
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, sleep

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tracing import Tracer, install_analysis, install_collector  # noqa: E402

WATCH_INTERVAL = 0.002
WATCH_LIMIT_S = 45.0  # under the caller's pass timeout


def analysis_commands(workload: str, archive: str, out: Path) -> list[tuple]:
    """(metric, argv, output files) for each CLI invocation of one pass."""
    def path(name: str) -> str:
        return str(out / name)

    if workload == "notable":
        return [
            ("interactions_s", ["interactions", archive, path("notable.csv"), "--top", "50",
                                "--communities", "--gexf", path("notable.gexf")],
             [path("notable.csv"), path("notable.gexf")]),
            ("interactions_s", ["interactions", archive, path("notable-merged.csv"),
                                "--merge-kinds", "--top", "50"],
             [path("notable-merged.csv")]),
        ]
    return [
        ("stats_s", ["stats", archive], []),
        ("histogram_s", ["histogram", archive, path("histogram.dat")], [path("histogram.dat")]),
        ("top_users_s", ["top-users", "-f", archive, "--by", "activity"], []),
        ("top_users_s", ["top-users", "-f", archive, "--by", "retweets"], []),
        ("top_tweets_s", ["top-tweets", "-f", archive, "--count-source", "observed"], []),
        ("top_tweets_s", ["top-tweets", "-f", archive, "--count-source", "embedded"], []),
        ("coordinates_s", ["coordinates", archive, path("coordinates.csv")],
         [path("coordinates.csv")]),
        ("interactions_s", ["interactions", archive, path("edges.csv"), "--communities",
                            "--gexf", path("graph.gexf")],
         [path("edges.csv"), path("graph.gexf")]),
    ]


def _line_count(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def _ranking(stdout: str) -> list[list]:
    rows = [line.split() for line in stdout.splitlines()[1:]]
    return [[row[1].removeprefix("@"), int(row[2])] for row in rows]


def check_command(argv: list[str], stdout: str, truth: dict) -> list[str]:
    """Mismatches between one invocation's output and the ground truth."""
    command, lines = argv[0], stdout.splitlines()
    head = lines[0] if lines else ""
    problems = []
    if command == "stats":
        expected = (
            f"{truth['parsed']} tweets ({truth['total_lines']} lines: {truth['parsed']} parsed, "
            f"{truth['malformed']} malformed, {truth['duplicates']} duplicate)\n"
            f"{truth['users']} distinct users\nspan {truth['first']} .. {truth['last']}\n"
        )
        if stdout != expected:
            problems.append(f"stats printed {stdout!r}")
    elif command == "histogram":
        buckets = truth["hour_buckets"]
        if head != f"{buckets} buckets -> {argv[2]}" or _line_count(argv[2]) != buckets:
            problems.append(f"histogram: {head!r}, expected {buckets} buckets")
    elif command == "top-users":
        key = "top_active" if argv[-1] == "activity" else "top_retweeted"
        if _ranking(stdout) != truth[key]:
            problems.append(f"top-users --by {argv[-1]} ranking differs")
    elif command == "top-tweets":
        if len(lines) != 11:
            problems.append(f"top-tweets printed {len(lines) - 1} rows, expected 10")
    elif command == "coordinates":
        geo = truth["geotagged"]
        if head != f"{geo} geotagged tweets -> {argv[2]}" or _line_count(argv[2]) != geo + 1:
            problems.append(f"coordinates: {head!r}, expected {geo} rows")
    elif command == "interactions":
        prefix = f"{truth['interactions']} interactions, "
        if "--top" in argv:
            prefix += "50 nodes, "
        elif "--merge-kinds" not in argv:
            prefix += f"{truth['graph_nodes']} nodes, {truth['graph_edges']} edges -> "
        if not head.startswith(prefix):
            problems.append(f"interactions printed {head!r}, expected {prefix!r}...")
        if "--gexf" in argv:
            gexf = argv[argv.index("--gexf") + 1]
            try:
                nodes = sum(1 for el in ET.parse(gexf).iter() if el.tag.endswith("}node"))
            except ET.ParseError as exc:
                problems.append(f"GEXF does not parse: {exc}")
            else:
                expected_nodes = 50 if "--top" in argv else truth["graph_nodes"]
                if nodes != expected_nodes:
                    problems.append(f"GEXF has {nodes} nodes, expected {expected_nodes}")
    return problems


def _digest(stdout: str, files: list[str]) -> str:
    digest = hashlib.sha256(stdout.encode("utf-8"))
    for path in files:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def analysis_pass(spec: dict, tracer: Tracer | None) -> dict:
    from eventpulse import cli

    if tracer is not None:
        install_analysis(tracer)
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    commands = analysis_commands(spec["workload"], spec["archive"], out)
    runs = []
    started = perf_counter()
    for metric, argv, files in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        begin = perf_counter()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            if tracer is None:
                code = cli.run(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli.run(argv)
        runs.append((metric, argv, files, code, stdout.getvalue(), stderr.getvalue(),
                     perf_counter() - begin))
    wall = perf_counter() - started
    peak = _peak_rss_mb()

    times: dict[str, float] = {}
    digests, problems, failed = [], [], 0
    for metric, argv, files, code, stdout, stderr, seconds in runs:
        times[metric] = times.get(metric, 0.0) + seconds
        if code != 0:
            found = [f"exit {code}: {stderr.strip()}"]
            digests.append(None)
        else:
            found = check_command(argv, stdout, spec["truth"])
            digests.append(_digest(stdout, files))
        failed += bool(found)
        problems.extend([argv[0], problem] for problem in found)
    lines_read = spec["truth"]["total_lines"] * len(runs)
    return {
        "wall_s": wall,
        "times": times,
        "lines_per_s": lines_read / sum(times.values()),
        "peak_rss_mb": peak,
        "attempted": len(runs),
        "failed": failed,
        "problems": problems,
        "digests": digests,
    }


class _WatchedSource:
    """Stream source wrapper: notes the first connect, times reads if traced."""

    def __init__(self, inner, tracer: Tracer | None):
        self.inner = inner
        self.tracer = tracer
        self.first_connect: float | None = None

    def connect(self, track_terms, stop=None):
        if self.first_connect is None:
            self.first_connect = perf_counter()
        stream = self.inner.connect(track_terms, stop)
        if self.tracer is None:
            return stream
        return self.tracer.timed_iter(stream, "collector.source_wait")


def ingest_pass(spec: dict, tracer: Tracer | None) -> dict:
    from eventpulse.collector import (
        CollectionJob, CollectionStats, ManualClock, TcpStreamSource, collect_stream,
    )

    if tracer is not None:
        install_collector(tracer)
    truth = spec["truth"]
    out = Path(spec["out"])
    job = CollectionJob("stream", "korrika19", tuple(truth["track_terms"]), out)
    source = _WatchedSource(TcpStreamSource("127.0.0.1", spec["port"]), tracer)
    stats = CollectionStats()
    stop = threading.Event()
    done: list[float] = []

    def watch() -> None:
        # the mock stream idles after its last line, so the run ends
        # once every expected line has been received and archived
        limit = perf_counter() + WATCH_LIMIT_S
        while not stop.is_set():
            if stats.received >= truth["received"] and stats.written >= truth["written"]:
                done.append(perf_counter())
                break
            if perf_counter() > limit:
                break
            sleep(WATCH_INTERVAL)
        stop.set()

    watcher = threading.Thread(target=watch, name="perfbench-watcher")
    started = perf_counter()
    watcher.start()
    try:
        collect_stream(job, source, stop, clock=ManualClock(), stats=stats)
    finally:
        stop.set()
        watcher.join()
    ended = perf_counter()
    peak = _peak_rss_mb()

    problems = []
    finished = done[0] if done else ended
    if not done:
        problems.append("expected lines not archived in time")
    for name in ("received", "matched", "written"):
        if getattr(stats, name) != truth[name]:
            problems.append(f"{name} {getattr(stats, name)} != {truth[name]}")
    files = sorted((out / job.event_name).glob("*.jsonl"))
    if len(files) != 1:
        problems.append(f"{len(files)} day files, expected 1")
    got = b"".join(path.read_bytes() for path in files).split(b"\n")[:-1]
    expected = Path(spec["expected"]).read_bytes().split(b"\n")[:-1]
    expected_set = set(expected)
    # an op is one expected archived line: missing, duplicated or altered
    # fails it, and so does every line archived that was not expected
    have = Counter(got)
    mismatched = sum(have[line] != 1 for line in expected)
    mismatched += sum(count for line, count in have.items() if line not in expected_set)
    if not mismatched and got != expected:  # right lines, wrong order
        mismatched = sum(a != b for a, b in zip(got, expected))
    if mismatched:
        problems.append(f"{mismatched} archived lines missing, extra or altered")
    counts = {
        "collector.received": stats.received,
        "collector.matched": stats.matched,
        "collector.written": stats.written,
        "collector.reconnects": stats.reconnects,
    }
    return {
        "wall_s": finished - started,
        "times": {"shutdown_tail_s": ended - finished},
        "lines_per_s": truth["received"] / (finished - source.first_connect),
        "peak_rss_mb": peak,
        "attempted": len(expected),
        "failed": mismatched or len(problems),
        "problems": [["ingest", problem] for problem in problems],
        "digests": [hashlib.sha256(b"\n".join(got)).hexdigest()],
        "counts": counts,
    }


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    tracer = Tracer() if spec["trace"] else None
    if spec["workload"] == "ingest":
        result = ingest_pass(spec, tracer)
    else:
        result = analysis_pass(spec, tracer)
    if tracer is not None:
        result["layers"] = tracer.span_totals()
        result["totals"] = tracer.totals
        result["counts"] = {**result.get("counts", {}), **tracer.counts}
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
