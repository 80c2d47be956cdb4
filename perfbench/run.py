"""eventpulse benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload report --seed 1 --seconds 33 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``report``  - the analyst's full pass over one 38,276-line archive:
  stats, histogram, top-users x2, top-tweets x2, coordinates and
  interactions --communities --gexf, each through ``cli.run``.
* ``notable`` - the Gephi export of notable users on the same archive:
  interactions --top 50 --communities --gexf and --merge-kinds --top 50.
* ``ingest``  - ``collect_stream`` over TCP against a MockStreamServer
  in a separate process, with one scripted disconnect and rewind.

The inputs are generated from ``--seed``. Set-up (generate, write, and
for ingest start the server process) is repeated and timed. Then passes
run until ``--seconds`` is used up, each in a fresh interpreter so
memory and GC state belong to that pass. Timings are medians over
passes. Every pass checks its outputs against the ground truth, and
outputs must be byte-identical across passes.

With ``--trace 1`` the run alternates untraced and traced passes and
reports per-layer metrics, including the tracing overhead (traced minus
untraced median wall time). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from tracing import ANALYTICS, GRAPH  # noqa: E402

WORKLOADS = ("report", "notable", "ingest")
SETUP_REPEATS = 3
MIN_PASSES = 3
PASS_TIMEOUT_S = 60
LAST_START_S = 100  # never start a pass later than this into the run

COMMAND_TIMES = {  # printed, not gated: each exists on one workload only
    "report": ("stats_s", "histogram_s", "top_users_s", "top_tweets_s",
               "coordinates_s", "interactions_s"),
    "notable": ("interactions_s",),
    "ingest": ("shutdown_tail_s",),
}


def _metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _write_lines(path: Path, lines: list[bytes]) -> None:
    with open(path, "wb") as handle:
        handle.write(b"".join(line + b"\n" for line in lines))


class FeedServer:
    """The mock-server process; hands out a fresh server per pass."""

    def __init__(self, feed: Path, truth: Path):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "feedserver.py"), str(feed), str(truth)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.process.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("feed server did not start")

    def fresh_port(self) -> int:
        self.process.stdin.write("new\n")
        self.process.stdin.flush()
        return int(self.process.stdout.readline())

    def close(self) -> None:
        try:
            self.process.stdin.close()  # EOF: the server stops and exits
            self.process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()


def set_up(workload: str, seed: int, work: Path) -> tuple[dict, FeedServer | None]:
    """Generate and write the inputs; for ingest also start the server."""
    truth_path = work / "truth.json"
    if workload == "ingest":
        lines, truth, expected = corpus.feed(seed)
        _write_lines(work / "feed.jsonl", lines)
        _write_lines(work / "expected.jsonl", expected)
        truth_path.write_text(json.dumps(truth), "utf-8")
        return truth, FeedServer(work / "feed.jsonl", truth_path)
    lines, truth = corpus.archive(seed)
    _write_lines(work / "archive.jsonl", lines)
    truth_path.write_text(json.dumps(truth), "utf-8")
    return truth, None


def run_pass(spec: dict, path: Path) -> dict:
    path.write_text(json.dumps(spec), "utf-8")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(path)],
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {PASS_TIMEOUT_S} s"}
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"worker exit {done.returncode}: {done.stderr.strip()[-2000:]}"}


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass: the full breakdown by name."""
    spans, totals, counts = result["layers"], result["totals"], result["counts"]
    wall = result["wall_s"]
    out: dict[str, float] = {}
    out["tweets.read_archive_s"] = spans.get("tweets.read_archive", 0.0)
    calls, parse_s, malformed = totals.get("tweets.parse_tweet", [0, 0.0, 0])
    out["tweets.parse_tweet_s"] = parse_s
    out["tweets.parse_tweet.calls"] = calls
    for name in ANALYTICS:
        out[f"analytics.{name}_s"] = spans.get(f"analytics.{name}", 0.0)
    for name in GRAPH:
        out[f"graph.{name}_s"] = spans.get(f"graph.{name}", 0.0)
    for name in ("source_wait", "matches_track", "append"):
        out[f"collector.{name}_s"] = totals.get(f"collector.{name}", [0, 0.0, 0])[1]
    for name, seconds in spans.items():
        if name.startswith("cli.") and name.endswith(".self"):
            out[f"{name}_s"] = seconds
    out["cli.self_s"] = sum(v for k, v in spans.items() if k.startswith("cli.") and k.endswith(".self"))

    reads = sum(1 for span in result["spans"] if span[0] == "tweets.read_archive")
    busy = out["tweets.read_archive_s"] + parse_s
    if calls:  # the collector's filter parses one line per call
        counts.update({"tweets.total_lines": calls, "tweets.parsed": calls - malformed,
                       "tweets.malformed": malformed, "tweets.duplicates": 0})
    out["tweets.busy_s"] = busy
    out["tweets.calls"] = reads + calls
    out["tweets.lines_per_s"] = counts.get("tweets.total_lines", 0) / busy if busy else 0.0
    for name in ("total_lines", "parsed", "malformed", "duplicates"):
        out[f"tweets.{name}"] = counts.get(f"tweets.{name}", 0)
    for name in ("interactions", "nodes", "edges", "kept_nodes", "communities"):
        out[f"graph.{name}"] = counts.get(f"graph.{name}", 0)
    for name in ("received", "matched", "written", "reconnects"):
        out[f"collector.{name}"] = counts.get(f"collector.{name}", 0)
    received, matched = out["collector.received"], out["collector.matched"]
    out["collector.match_ratio"] = matched / received if received else 0.0
    out["collector.write_ratio"] = out["collector.written"] / matched if matched else 0.0
    out["tweets.share"] = busy / wall
    out["analytics.share"] = sum(out[f"analytics.{n}_s"] for n in ANALYTICS) / wall
    out["graph.share"] = sum(out[f"graph.{n}_s"] for n in GRAPH) / wall
    out["graph.notable_subgraph.share"] = out["graph.notable_subgraph_s"] / wall
    out["collector.filter.share"] = (
        out["collector.matches_track_s"] + out["collector.append_s"]) / wall
    out["collector.source_wait.share"] = out["collector.source_wait_s"] / wall
    out["cli.self.share"] = out["cli.self_s"] / wall
    out["trace.wall_s"] = wall
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _medians(rows: list[dict]) -> dict[str, float]:
    return {key: _median([row[key] for row in rows if key in row]) for key in rows[0]}


def measure(args, work: Path, truth: dict, server: FeedServer | None) -> list[dict]:
    """Run passes until the time is used; trace every other pass if asked."""
    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        index = len(passes)
        spec = {
            "workload": args.workload,
            "truth": truth,
            "trace": bool(args.trace) and index % 2 == 1,
            "out": str(work / ("out" if args.workload != "ingest" else f"archive-{index}")),
            "archive": str(work / "archive.jsonl"),
            "expected": str(work / "expected.jsonl"),
            "port": server.fresh_port() if server is not None else None,
        }
        begin = time.perf_counter()
        result = run_pass(spec, work / "spec.json")
        result["trace"] = spec["trace"]
        result["cost_s"] = time.perf_counter() - begin
        passes.append(result)
        if "error" in result:
            break
        if args.workload == "ingest":
            shutil.rmtree(spec["out"], ignore_errors=True)
        elapsed = time.perf_counter() - started
        estimate = _median([p["cost_s"] for p in passes])
        if len(passes) >= MIN_PASSES and (
            elapsed + estimate > args.seconds or elapsed > LAST_START_S
        ):
            break
    return passes


def score(passes: list[dict]) -> tuple[int, int, list]:
    """Ops attempted and failed; a repetition whose outputs differ fails."""
    attempted = failed = 0
    problems = []
    reference = next((p["digests"] for p in passes if "digests" in p), None)
    for number, result in enumerate(passes):
        if "error" in result:
            attempted += 1
            failed += 1
            problems.append(["pass", result["error"]])
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        problems.extend(result["problems"])
        for op, (mine, first) in enumerate(zip(result["digests"], reference)):
            if mine is not None and first is not None and mine != first:
                failed += 1
                problems.append(["repeat", f"pass {number} output {op} differs from pass 0"])
    return attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eventpulse" / "cli.py").is_file():
        print(f"error: no eventpulse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    server = None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.close()
            begin = time.perf_counter()
            truth, server = set_up(args.workload, args.seed, work)
            setup_times.append(time.perf_counter() - begin)
        passes = measure(args, work, truth, server)
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = score(passes)
    good = [p for p in passes if "error" not in p]
    plain = [p for p in good if not p["trace"]]
    traced = [p for p in good if p["trace"]]
    for where, problem in problems[:20]:
        print(f"FAILED {where}: {problem}")

    end_to_end = _metric_units("end_to_end")
    e2e = {
        "setup_s": _median(setup_times),
        "wall_s": _median([p["wall_s"] for p in plain]),
        "lines_per_s": _median([p["lines_per_s"] for p in plain]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(plain)} untraced, {len(traced)} traced  set-ups {len(setup_times)}")
    for name, unit in end_to_end.items():
        print(f"  {name:<16} {e2e[name]:>14.4f} {unit}")
    for name in COMMAND_TIMES[args.workload]:
        value = _median([p["times"][name] for p in plain if name in p["times"]])
        print(f"  {name:<16} {value:>14.4f} s")
    print(f"  {'error_rate':<16} {failed / attempted:>14.4f} ratio "
          f"({failed} failed of {attempted} attempted)")

    if args.trace:
        layers = _medians([layer_metrics(p) for p in traced]) if traced else {}
        layers["trace.overhead_s"] = layers.get("trace.wall_s", 0.0) - e2e["wall_s"]
        print("per-layer (median of traced passes):")
        for name in sorted(layers):
            print(f"  {name:<44} {layers[name]:>14.4f}")
        trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            [{key: p[key] for key in ("wall_s", "spans", "totals", "counts")} for p in traced]
        ), "utf-8")
        print(f"spans -> {trace_file.relative_to(ROOT)}")
        chosen, units = layers, _metric_units("per_layer")
    else:
        chosen, units = e2e, end_to_end
    metrics = {
        name: {"value": int(value) if unit == "count" else value, "unit": unit}
        for name, unit in units.items()
        for value in [chosen.get(name, 0.0)]  # 0 only when every pass failed
    }

    print(json.dumps({"correct": failed == 0 and bool(plain), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
