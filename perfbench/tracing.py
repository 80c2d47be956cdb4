"""Spans around the program's public calls, recorded from outside it.

The program is not edited. Names are rebound at run time where the
caller looks them up:

* ``cli`` imported ``read_archive`` by name, so the name in
  ``eventpulse.cli`` is wrapped;
* ``cli`` calls ``analytics.*`` and ``graph.*`` through the modules, so
  the module attributes are wrapped;
* ``collector`` imported ``parse_tweet`` by name and calls its own
  module-level ``matches_track``, so both names in
  ``eventpulse.collector`` are wrapped, as is ``ArchiveWriter.append``.

Coarse calls (a CLI command, an archive read, an analytic) become spans
kept in memory. Per-line calls (parse, match, append, source reads) are
aggregated to a call count and a total, so tracing a 38k-line stream
does not allocate a span per line.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

ANALYTICS = (
    "histogram",
    "top_users_by_activity",
    "top_users_by_received_retweets",
    "top_tweets_by_retweets",
    "extract_coordinates",
    "write_histogram_dat",
    "write_coordinates_csv",
)
GRAPH = (
    "extract_interactions",
    "aggregate",
    "notable_subgraph",
    "label_propagation",
    "export_edges_csv",
    "export_gexf",
)


class Tracer:
    """Spans as ``[name, start, end, parent index]`` plus per-line totals."""

    def __init__(self):
        self.spans: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, raised]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``owner.attr``."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    def wrap_total(self, owner, attr: str, name: str) -> None:
        """Add each call of ``owner.attr`` to a count and a total time."""
        inner = getattr(owner, attr)
        total = self.totals.setdefault(name, [0, 0.0, 0])

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            except Exception:
                total[2] += 1
                raise
            finally:
                total[0] += 1
                total[1] += perf_counter() - start

        setattr(owner, attr, traced)

    def timed_iter(self, iterator, name: str):
        """Yield from ``iterator``, adding the time blocked in it to ``name``."""
        total = self.totals.setdefault(name, [0, 0.0, 0])
        try:
            while True:
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    total[0] += 1
                    total[1] += perf_counter() - start
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def span_totals(self) -> dict[str, float]:
        """Seconds per span name, and each ``cli.*`` span's self time."""
        out: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if name.startswith("cli."):
                key = f"{name}.self"
                out[key] = out.get(key, 0.0) + (end - start) - child_time[index]
        return out


def install_analysis(tracer: Tracer) -> None:
    """Wrap the names the CLI reaches: read_archive, analytics.*, graph.*."""
    from eventpulse import analytics, cli, graph

    def archive_counts(result) -> None:
        _tweets, stats = result
        tracer.count("tweets.total_lines", stats.total_lines)
        tracer.count("tweets.parsed", stats.parsed)
        tracer.count("tweets.malformed", stats.skipped_malformed)
        tracer.count("tweets.duplicates", stats.duplicates_dropped)

    def graph_counts(graph_) -> None:
        tracer.count("graph.nodes", len(graph_.nodes))
        tracer.count("graph.edges", len(graph_.edges))

    tracer.wrap(cli, "read_archive", "tweets.read_archive", archive_counts)
    for name in ANALYTICS:
        tracer.wrap(analytics, name, f"analytics.{name}")
    on_result = {
        "extract_interactions": lambda edges: tracer.count("graph.interactions", len(edges)),
        "aggregate": graph_counts,
        "notable_subgraph": lambda kept: tracer.count("graph.kept_nodes", len(kept.nodes)),
        "label_propagation": lambda labels: tracer.count(
            "graph.communities", len(set(labels.values()))),
    }
    for name in GRAPH:
        tracer.wrap(graph, name, f"graph.{name}", on_result.get(name))


def install_collector(tracer: Tracer) -> None:
    """Wrap the per-line calls of the collector's filter and writer."""
    from eventpulse import collector

    tracer.wrap_total(collector, "parse_tweet", "tweets.parse_tweet")
    tracer.wrap_total(collector, "matches_track", "collector.matches_track")
    tracer.wrap_total(collector.ArchiveWriter, "append", "collector.append")
