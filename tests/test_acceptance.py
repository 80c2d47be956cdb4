"""End-to-end acceptance checks, one test per shipping requirement.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL - ...`` line (run
pytest with ``-s`` to see the lines on success). Expected values are
either frozen constants or recomputed here by deliberately naive
oracles: selection loops instead of sorts, epoch arithmetic instead of
datetime truncation, plain dicts instead of Counters. The reference
corpus test skips cleanly when the corpus file is absent.
"""

import csv
import io
import random
import threading
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone

import networkx as nx
import pytest

from conftest import (
    AUTHOR_POOL,
    BASE_TIME,
    gexf_problems,
    korrika_archive,
    random_corpus,
    record_line,
    union_find_components,
)
from eventpulse import analytics, graph
from eventpulse.collector import (
    CollectionJob,
    CollectionStats,
    ManualClock,
    TcpSearchSource,
    TcpStreamSource,
    collect_search,
    collect_stream,
)
from eventpulse.mockserver import MockStreamServer
from eventpulse.tweets import read_archive


@contextmanager
def criterion(number: int, description: str):
    """Print one status line for the wrapped block, then re-raise."""
    detail: dict[str, str] = {}
    try:
        yield detail
    except pytest.skip.Exception:
        print(f"ACCEPTANCE {number}: SKIPPED - {description}")
        raise
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    note = f" ({detail['note']})" if "note" in detail else ""
    print(f"ACCEPTANCE {number}: PASS - {description}{note}")


# --- naive oracles ----------------------------------------------------------


def _oracle_histogram(tweets, granularity, tz_offset_minutes):
    # integer epoch arithmetic; no datetime truncation anywhere
    step = 3600 if granularity == "hour" else 86400
    shift = tz_offset_minutes * 60
    counts: dict[int, int] = {}
    for tweet in tweets:
        epoch = int(tweet.created_at.timestamp()) + shift
        bucket = (epoch // step) * step
        counts[bucket] = counts.get(bucket, 0) + 1
    if not counts:
        return []
    out = []
    epoch = min(counts)
    while epoch <= max(counts):
        out.append(
            (datetime.fromtimestamp(epoch, tz=timezone.utc), counts.get(epoch, 0))
        )
        epoch += step
    return out


def _pick_top_users(counts: dict[str, int], k: int) -> list[tuple[str, int]]:
    # repeated linear scan with explicit comparisons; no sorted()
    pool = dict(counts)
    out = []
    while pool and len(out) < k:
        best = None
        for name, score in pool.items():
            if best is None:
                best = (name, score)
            elif score != best[1]:
                if score > best[1]:
                    best = (name, score)
            elif name.casefold() != best[0].casefold():
                if name.casefold() < best[0].casefold():
                    best = (name, score)
            elif name < best[0]:
                best = (name, score)
        out.append(best)
        del pool[best[0]]
    return out


def _pick_top_tweet_ids(scores, candidates, k):
    pool = set(candidates)
    out = []
    while pool and len(out) < k:
        best = None
        for tweet_id in pool:
            if best is None:
                best = tweet_id
                continue
            mine, its = scores.get(tweet_id, 0), scores.get(best, 0)
            if mine > its or (mine == its and tweet_id < best):
                best = tweet_id
        out.append(best)
        pool.remove(best)
    return out


def _oracle_activity(tweets):
    counts: dict[str, int] = {}
    for tweet in tweets:
        counts[tweet.author] = counts.get(tweet.author, 0) + 1
    return counts


def _oracle_received(tweets):
    counts: dict[str, int] = {}
    for tweet in tweets:
        if tweet.retweet_of is not None:
            author = tweet.retweet_of.original_author
            counts[author] = counts.get(author, 0) + 1
    return counts


def _oracle_top_tweets(tweets, k, count_source):
    seen = {}
    carriers = {}
    candidates = set()
    for tweet in tweets:
        if tweet.id not in seen:
            seen[tweet.id] = tweet
        if tweet.retweet_of is None:
            candidates.add(tweet.id)
        else:
            oid = tweet.retweet_of.original_tweet_id
            candidates.add(oid)
            if oid not in carriers or tweet.id < carriers[oid].id:
                carriers[oid] = tweet

    scores: dict[int, int] = {}
    if count_source == "observed":
        for tweet in tweets:
            if tweet.retweet_of is not None:
                oid = tweet.retweet_of.original_tweet_id
                scores[oid] = scores.get(oid, 0) + 1
    else:
        for tweet in tweets:
            if tweet.retweet_count is None:
                continue
            key = (
                tweet.id
                if tweet.retweet_of is None
                else tweet.retweet_of.original_tweet_id
            )
            if scores.get(key, -1) < tweet.retweet_count:
                scores[key] = tweet.retweet_count

    rows = []
    for rank, oid in enumerate(_pick_top_tweet_ids(scores, candidates, k), start=1):
        original = seen.get(oid)
        if original is not None:
            author, text = original.author, original.text
        else:
            carrier = carriers[oid]
            author = carrier.retweet_of.original_author
            text = carrier.text
            prefix = f"RT @{author}: "
            if text.startswith(prefix):
                text = text[len(prefix):]
        rows.append((oid, scores.get(oid, 0), rank, author, text))
    return rows


def _oracle_edges(tweets):
    edges = []
    for tweet in tweets:
        if tweet.retweet_of is not None:
            edges.append(
                (tweet.author, tweet.retweet_of.original_author, "retweet", tweet.id)
            )
        if tweet.reply_to is not None:
            edges.append((tweet.author, tweet.reply_to, "reply", tweet.id))
    return edges


# --- criterion 1: oracle equivalence on 200 random corpora -------------------


def test_criterion_1_oracle_equivalence():
    with criterion(
        1,
        "histogram, rankings, coordinates, interactions and aggregation "
        "match brute-force oracles on 200 random corpora",
    ):
        started = time.perf_counter()
        for i in range(200):
            rng = random.Random(910_000 + i)
            if i == 0:
                size = 10_000
            elif i % 40 == 0:
                size = rng.randint(4_000, 10_000)
            else:
                size = rng.randint(20, 2_000)
            tweets = random_corpus(rng, size)
            k = rng.randint(1, 15)
            tz = rng.randint(-840, 840)
            granularity = "hour" if rng.random() < 0.7 else "day"

            got = analytics.histogram(tweets, granularity, tz)
            assert [(b.bucket_start, b.count) for b in got] == _oracle_histogram(
                tweets, granularity, tz
            )

            active = analytics.top_users_by_activity(tweets, k)
            assert [(e.key, e.score) for e in active] == _pick_top_users(
                _oracle_activity(tweets), k
            )
            assert [e.rank for e in active] == list(range(1, len(active) + 1))

            received = analytics.top_users_by_received_retweets(tweets, k)
            assert [(e.key, e.score) for e in received] == _pick_top_users(
                _oracle_received(tweets), k
            )

            for count_source in ("observed", "embedded"):
                rows = analytics.top_tweets_by_retweets(tweets, k, count_source)
                assert [
                    (r.key, r.score, r.rank, r.author, r.text) for r in rows
                ] == _oracle_top_tweets(tweets, k, count_source)

            rows = []
            for tweet in tweets:
                if tweet.coords is not None:
                    rows.append((tweet.id, tweet.coords[0], tweet.coords[1]))
            assert analytics.extract_coordinates(tweets) == rows

            expected_edges = _oracle_edges(tweets)
            edges = graph.extract_interactions(tweets)
            assert [
                (e.source, e.target, e.kind, e.tweet_id) for e in edges
            ] == expected_edges

            for merged in (False, True):
                want: dict = {}
                for source, target, kind, _ in expected_edges:
                    key = (source, target, None if merged else kind)
                    want[key] = want.get(key, 0) + 1
                aggregated = graph.aggregate(edges, merge_kinds=merged)
                assert aggregated.edges == want
                assert aggregated.nodes == {
                    name for source, target, _, _ in expected_edges
                    for name in (source, target)
                }
        assert time.perf_counter() - started < 30.0


# --- criterion 2: invariant suite, >= 1000 generated cases -------------------


def test_criterion_2_invariant_suite():
    with criterion(2, "invariant suite over 1000 generated cases") as detail:
        cases = 0

        # histogram count conservation
        for i in range(200):
            rng = random.Random(20_100 + i)
            tweets = random_corpus(rng, rng.randint(0, 200))
            granularity = rng.choice(("hour", "day"))
            buckets = analytics.histogram(tweets, granularity, rng.randint(-840, 840))
            assert sum(b.count for b in buckets) == len(tweets)
            cases += 1

        # ranking permutation invariance
        for i in range(150):
            rng = random.Random(20_400 + i)
            tweets = random_corpus(rng, rng.randint(0, 150))
            shuffled = list(tweets)
            rng.shuffle(shuffled)
            k = rng.randint(1, 8)
            assert analytics.top_users_by_activity(
                tweets, k
            ) == analytics.top_users_by_activity(shuffled, k)
            assert analytics.top_users_by_received_retweets(
                tweets, k
            ) == analytics.top_users_by_received_retweets(shuffled, k)
            for count_source in ("observed", "embedded"):
                assert analytics.top_tweets_by_retweets(
                    tweets, k, count_source
                ) == analytics.top_tweets_by_retweets(shuffled, k, count_source)
            cases += 1

        # top-k prefix property
        for i in range(150):
            rng = random.Random(20_700 + i)
            tweets = random_corpus(rng, rng.randint(0, 150))
            k = rng.randint(1, 8)
            assert (
                analytics.top_users_by_activity(tweets, k + 1)[:k]
                == analytics.top_users_by_activity(tweets, k)
            )
            assert (
                analytics.top_tweets_by_retweets(tweets, k + 1)[:k]
                == analytics.top_tweets_by_retweets(tweets, k)
            )
            cases += 1

        # edge-count identity
        for i in range(150):
            rng = random.Random(21_000 + i)
            tweets = random_corpus(rng, rng.randint(0, 200))
            edges = graph.extract_interactions(tweets)
            retweets = sum(1 for t in tweets if t.retweet_of is not None)
            replies = sum(1 for t in tweets if t.reply_to is not None)
            assert len(edges) == retweets + replies
            cases += 1

        # aggregate weight-sum identity
        for i in range(150):
            rng = random.Random(21_300 + i)
            tweets = random_corpus(rng, rng.randint(0, 200))
            edges = graph.extract_interactions(tweets)
            for merged in (False, True):
                aggregated = graph.aggregate(edges, merge_kinds=merged)
                assert sum(aggregated.edges.values()) == len(edges)
                assert all(weight >= 1 for weight in aggregated.edges.values())
                assert all(
                    source in aggregated.nodes and target in aggregated.nodes
                    for source, target, _kind in aggregated.edges
                )
            cases += 1

        # label propagation: determinism and component confinement
        for i in range(200):
            rng = random.Random(21_600 + i)
            tweets = random_corpus(rng, rng.randint(0, 120))
            g = graph.aggregate(
                graph.extract_interactions(tweets),
                merge_kinds=rng.random() < 0.5,
            )
            seed = rng.randrange(10_000)
            labels = graph.label_propagation(g, seed=seed)
            assert graph.label_propagation(g, seed=seed) == labels
            assert set(labels) == g.nodes
            components = union_find_components(g)
            component_of_label: dict[int, str] = {}
            for node, label in labels.items():
                assert component_of_label.setdefault(label, components[node]) == components[node]
            cases += 1

        assert cases >= 1000
        detail["note"] = f"{cases} cases"


# --- criterion 3: collector resilience against the mock server ---------------


def _wire_corpus() -> tuple[list[str], list[str]]:
    lines, matching = [], []
    for i in range(1, 1001):
        tracked = i % 5 < 3
        text = f"mezua {i} #BilketaProba" if tracked else f"mezua {i} besterik ez"
        line = record_line(
            id=i,
            screen_name=f"user{i % 37:02d}",
            text=text,
            created_at=BASE_TIME + timedelta(seconds=i),
        )
        lines.append(line)
        if tracked:
            matching.append(line)
    return lines, matching


def test_criterion_3_collector_resilience(tmp_path):
    with criterion(
        3,
        "stream survives 2 disconnects and search survives a rate limit "
        "with byte-exact archives and virtual-clock backoff",
    ):
        started = time.perf_counter()
        lines, matching = _wire_corpus()
        expected_bytes = ("\n".join(matching) + "\n").encode("utf-8")
        day = datetime.fromtimestamp(1_000_000_000, tz=timezone.utc).date().isoformat()

        # stream mode: two scripted disconnects, five lines replayed each time
        server = MockStreamServer(
            lines, disconnect_after=[300, 700], rewind_on_reconnect=5
        )
        host, port = server.start()
        try:
            clock = ManualClock()
            stats = CollectionStats()
            stop = threading.Event()
            job = CollectionJob(
                mode="stream",
                event_name="accept-stream",
                track_terms=("#BilketaProba",),
                archive_dir=tmp_path,
            )

            def watch():
                server.exhausted.wait(timeout=30)
                deadline = time.time() + 20
                while time.time() < deadline and stats.written < len(matching):
                    time.sleep(0.01)
                stop.set()

            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
            collect_stream(
                job,
                TcpStreamSource(host, port),
                stop,
                clock=clock,
                stats=stats,
            )
            watcher.join(timeout=30)
        finally:
            server.stop()

        archive = tmp_path / "accept-stream" / f"{day}.jsonl"
        assert archive.read_bytes() == expected_bytes
        assert stats.reconnects == 2
        assert stats.written == len(matching)
        assert stats.received == 1010  # 1000 lines + 2 * 5 replayed
        assert clock.waits == [1.0, 2.0]

        # search mode: one rate-limited page, waited out on the virtual clock
        server = MockStreamServer(
            lines, page_size=50, rate_limit_pages=[2], rate_limit_retry_after=7.0
        )
        host, port = server.start()
        try:
            clock = ManualClock()
            job = CollectionJob(
                mode="search-recent",
                event_name="accept-search",
                track_terms=("#BilketaProba",),
                archive_dir=tmp_path,
            )
            stats = collect_search(
                job, TcpSearchSource(host, port), clock=clock
            )
        finally:
            server.stop()

        archive = tmp_path / "accept-search" / f"{day}.jsonl"
        assert archive.read_bytes() == expected_bytes
        assert stats.rate_limit_waits == 1
        assert stats.written == len(matching)
        assert stats.reconnects == 0
        assert clock.waits == [7.0]

        assert time.perf_counter() - started < 10.0


# --- criterion 4: reference corpus numbers (skips when absent) ----------------


def test_criterion_4_reference_corpus():
    with criterion(4, "reference corpus numbers reproduced") as detail:
        path = korrika_archive()
        if path is None:
            pytest.skip("reference corpus not present")
        started = time.perf_counter()

        tweets, stats = read_archive(path)
        assert stats.parsed == 38_276
        assert len(tweets) == 38_276

        top_active = analytics.top_users_by_activity(tweets, 1)[0]
        assert (top_active.key, top_active.score) == ("idorrokia", 1085)

        top_received = analytics.top_users_by_received_retweets(tweets, 1)[0]
        assert (top_received.key, top_received.score) == ("EuskalakariAEK", 1642)

        modes = []
        for count_source in ("observed", "embedded"):
            row = analytics.top_tweets_by_retweets(tweets, 1, count_source)[0]
            if row.author == "MeriLing1" and row.score == 214:
                modes.append(count_source)
        assert modes, "no counting mode puts MeriLing1 on top at 214"

        peaks = [
            max(b.count for b in analytics.histogram(tweets, "hour", tz))
            for tz in (0, 60)
        ]
        assert any(peak > 1000 for peak in peaks)

        geotagged = analytics.extract_coordinates(tweets)
        assert 0 < len(geotagged) < 38_276

        assert time.perf_counter() - started < 10.0
        detail["note"] = f"top tweet matches under: {', '.join(modes)}"


# --- criterion 5: export validity on 100 random graphs -----------------------


def test_criterion_5_export_validity():
    with criterion(
        5,
        "GEXF output is structurally valid and edge CSV round-trips "
        "on 100 random graphs",
    ):
        names = AUTHOR_POOL + ["ha,na", 'aipu"izena', "José", "ñandú"]
        for i in range(100):
            rng = random.Random(55_000 + i)
            merged = rng.random() < 0.5
            g = graph.WeightedGraph()
            for _ in range(rng.randint(0, 60)):
                source, target = rng.choice(names), rng.choice(names)
                kind = None if merged else rng.choice(("retweet", "reply"))
                key = (source, target, kind)
                g.edges[key] = g.edges.get(key, 0) + rng.randint(1, 9)
                g.nodes.update((source, target))

            csv_text = graph.export_edges_csv(g)
            _header, *rows = csv.reader(io.StringIO(csv_text, newline=""))
            back = {
                (row[0], row[1], None if merged else row[3]): int(row[2]) for row in rows
            }
            assert len(back) == len(rows)
            assert back == g.edges
            assert {name for key in back for name in key[:2]} == g.nodes

            communities = graph.label_propagation(g, seed=i)
            gexf_bytes = graph.export_gexf(g, communities).encode("utf-8")
            assert gexf_problems(io.BytesIO(gexf_bytes)) == []

            parsed = nx.read_gexf(io.BytesIO(gexf_bytes))
            assert set(parsed.nodes) == g.nodes
            for node, data in parsed.nodes(data=True):
                assert data["community"] == communities[node]
            seen: dict = {}
            for u, v, data in parsed.edges(data=True):
                key = (u, v, data.get("kind"))
                seen[key] = seen.get(key, 0) + int(data["weight"])
            assert seen == g.edges
