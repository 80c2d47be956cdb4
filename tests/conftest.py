"""Shared fixtures: record builders, random corpora, a GEXF checker."""

from __future__ import annotations

import json
import os
import random
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from eventpulse.tweets import RetweetRef, Tweet

BASE_TIME = datetime(2015, 3, 19, 18, 0, 0, tzinfo=timezone.utc)

GEXF_NS = "http://www.gexf.net/1.2draft"

# Lines on which json.loads raises something other than JSONDecodeError:
# RecursionError for deep nesting, and a plain ValueError for an integer
# longer than the interpreter's default digit limit (4300 digits).
DECODER_LIMIT_LINES = {
    "nested too deep": "[" * 100_000,
    "id past the int digit limit": '{"id": ' + "1" * 5000 + ', "text": "#peaktime"}',
}


def classic_stamp(moment: datetime) -> str:
    """Render the classic platform timestamp, e.g. 'Thu Mar 19 18:00:00 +0000 2015'."""
    return moment.strftime("%a %b %d %H:%M:%S %z %Y")


def make_record(
    id: int = 1,
    *,
    created_at: str | datetime | None = None,
    screen_name: str = "ane",
    text: str = "kaixo mundua",
    hashtags: list[str] | None = None,
    retweet: tuple | None = None,
    reply_to: str | None = None,
    coordinates: tuple[float, float] | None = None,
    geo: tuple[float, float] | None = None,
    retweet_count: int | None = None,
    **extra,
) -> dict:
    """Build a platform-shaped record dict.

    retweet is (original_id, original_author) optionally followed by the
    embedded counter and the embedded text. coordinates is GeoJSON order
    (longitude, latitude); geo is legacy order (latitude, longitude).
    """
    if created_at is None:
        created_at = BASE_TIME
    if isinstance(created_at, datetime):
        created_at = classic_stamp(created_at)
    record: dict = {
        "id": id,
        "created_at": created_at,
        "user": {"screen_name": screen_name},
        "text": text,
    }
    if hashtags is not None:
        record["entities"] = {"hashtags": [{"text": tag} for tag in hashtags]}
    if retweet is not None:
        original_id, original_author = retweet[0], retweet[1]
        embedded: dict = {
            "id": original_id,
            "user": {"screen_name": original_author},
            "text": text[4 + len(original_author) + 2 :]
            if text.startswith("RT @")
            else text,
        }
        if len(retweet) > 2 and retweet[2] is not None:
            embedded["retweet_count"] = retweet[2]
        if len(retweet) > 3:
            embedded["text"] = retweet[3]
        record["retweeted_status"] = embedded
    if reply_to is not None:
        record["in_reply_to_screen_name"] = reply_to
    if coordinates is not None:
        record["coordinates"] = {"type": "Point", "coordinates": list(coordinates)}
    if geo is not None:
        record["geo"] = {"type": "Point", "coordinates": list(geo)}
    if retweet_count is not None:
        record["retweet_count"] = retweet_count
    record.update(extra)
    return record


def record_line(**kwargs) -> str:
    return json.dumps(make_record(**kwargs), ensure_ascii=False)


# Matching records with a digit-string id that int() rejects, and the
# field that must be blamed: "²" and "①" pass str.isdigit() but are not
# decimal digits, and 5000 digits are past int()'s default limit.
BAD_DIGIT_ID_LINES = {
    "superscript id": (record_line(id="²", text="#peaktime"), "id"),
    "circled retweet id": (
        record_line(id=5, text="#peaktime", retweet=("①", "bi")),
        "retweeted_status.id",
    ),
    "id string past the int digit limit": (record_line(id="1" * 5000, text="#peaktime"), "id"),
}

# Lines that once stopped a whole read or collection run.
HOSTILE_LINES = {
    **DECODER_LIMIT_LINES,
    **{name: line for name, (line, _) in BAD_DIGIT_ID_LINES.items()},
}


def write_archive(path: Path, lines: list[str | bytes]) -> Path:
    payload = b""
    for line in lines:
        if isinstance(line, str):
            line = line.encode("utf-8")
        payload += line.rstrip(b"\r\n") + b"\n"
    path.write_bytes(payload)
    return path


def make_tweet(
    id: int,
    *,
    created_at: datetime | None = None,
    author: str = "ane",
    text: str = "",
    hashtags: tuple[str, ...] = (),
    retweet_of: tuple | None = None,
    reply_to: str | None = None,
    coords: tuple[float, float] | None = None,
    retweet_count: int | None = None,
) -> Tweet:
    if retweet_of is not None and not isinstance(retweet_of, RetweetRef):
        retweet_of = RetweetRef(*retweet_of)
    return Tweet(
        id=id,
        created_at=created_at or BASE_TIME,
        author=author,
        text=text,
        hashtags=hashtags,
        retweet_of=retweet_of,
        reply_to=reply_to,
        coords=coords,
        retweet_count=retweet_count,
    )


AUTHOR_POOL = [f"user{i:02d}" for i in range(30)] + [
    "Aek",
    "aek",
    "BERRIA",
    "Mikel_99",
]


def random_corpus(
    rng: random.Random,
    size: int,
    *,
    span_hours: int = 72,
    authors: list[str] | None = None,
) -> list[Tweet]:
    """Random but structurally plausible corpus with unique ids.

    Retweets may point at ids inside or outside the corpus, replies may
    self-reference, and a share of tweets carries coordinates and
    platform counters, so every analytics path gets exercised.
    """
    authors = authors or AUTHOR_POOL
    ids = rng.sample(range(1, size * 3 + 2), size) if size else []
    known_originals: list[tuple[int, str]] = []
    tweets = []
    for tweet_id in ids:
        author = rng.choice(authors)
        moment = BASE_TIME + timedelta(seconds=rng.randrange(max(1, span_hours * 3600)))
        retweet_of = None
        retweet_count = None
        roll = rng.random()
        if roll < 0.35:
            if known_originals and rng.random() < 0.5:
                original_id, original_author = rng.choice(known_originals)
            else:
                # an original we never see directly
                original_id = rng.randrange(10_000_000, 10_100_000)
                original_author = rng.choice(authors)
            if original_id != tweet_id:
                retweet_of = RetweetRef(original_id, original_author)
                if rng.random() < 0.6:
                    retweet_count = rng.randrange(0, 400)
        if retweet_of is None:
            known_originals.append((tweet_id, author))
            if rng.random() < 0.4:
                retweet_count = rng.randrange(0, 400)
        reply_to = rng.choice(authors) if rng.random() < 0.2 else None
        coords = None
        if rng.random() < 0.25:
            coords = (
                round(rng.uniform(-90, 90), 5),
                round(rng.uniform(-180, 180), 5),
            )
        tweets.append(
            Tweet(
                id=tweet_id,
                created_at=moment,
                author=author,
                text=f"mezua {tweet_id}",
                hashtags=("gure_gaia",) if rng.random() < 0.4 else (),
                retweet_of=retweet_of,
                reply_to=reply_to,
                coords=coords,
                retweet_count=retweet_count,
            )
        )
    return tweets


def union_find_components(graph) -> dict[str, str]:
    """Each node of ``graph`` mapped to one node of its weakly connected component."""
    parent = {node: node for node in graph.nodes}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for source, target, _kind in graph.edges:
        parent[find(source)] = find(target)
    return {node: find(node) for node in graph.nodes}


# --- GEXF structure checking ------------------------------------------------


def gexf_problems(path: Path) -> list[str]:
    """Check a file against the GEXF 1.2 structural rules.

    Covers namespace and version, the single directed graph element,
    attribute declarations, id uniqueness, and referential integrity of
    edges and attvalues. Returns human-readable problem strings.
    """
    problems: list[str] = []
    tree = ET.parse(path)  # XML well-formedness
    root = tree.getroot()
    if root.tag != f"{{{GEXF_NS}}}gexf":
        problems.append(f"root element is {root.tag}, not namespaced gexf")
    if root.get("version") != "1.2":
        problems.append(f"version is {root.get('version')!r}")
    graphs = root.findall(f"{{{GEXF_NS}}}graph")
    if len(graphs) != 1:
        problems.append(f"expected exactly one graph element, found {len(graphs)}")
        return problems
    graph = graphs[0]
    if graph.get("defaultedgetype") != "directed":
        problems.append("graph is not declared directed")

    declared: dict[tuple[str, str], str] = {}
    for attrs in graph.findall(f"{{{GEXF_NS}}}attributes"):
        cls = attrs.get("class")
        if cls not in ("node", "edge"):
            problems.append(f"attributes class {cls!r}")
            continue
        for attribute in attrs.findall(f"{{{GEXF_NS}}}attribute"):
            declared[(cls, attribute.get("id"))] = attribute.get("type")
    if declared.get(("node", "community")) != "integer":
        problems.append("community node attribute not declared as integer")

    def check_attvalues(element: ET.Element, cls: str, what: str) -> None:
        for values in element.findall(f"{{{GEXF_NS}}}attvalues"):
            for attvalue in values.findall(f"{{{GEXF_NS}}}attvalue"):
                ref = (cls, attvalue.get("for"))
                if ref not in declared:
                    problems.append(f"{what}: attvalue for undeclared {ref}")
                    continue
                if declared[ref] == "integer":
                    try:
                        int(attvalue.get("value"))
                    except (TypeError, ValueError):
                        problems.append(f"{what}: non-integer value for {ref}")

    node_ids: set[str] = set()
    nodes_parent = graph.find(f"{{{GEXF_NS}}}nodes")
    if nodes_parent is None:
        problems.append("no nodes element")
        return problems
    for node in nodes_parent.findall(f"{{{GEXF_NS}}}node"):
        node_id = node.get("id")
        if node_id is None:
            problems.append("node without id")
            continue
        if node_id in node_ids:
            problems.append(f"duplicate node id {node_id!r}")
        node_ids.add(node_id)
        communities = [
            av
            for values in node.findall(f"{{{GEXF_NS}}}attvalues")
            for av in values.findall(f"{{{GEXF_NS}}}attvalue")
            if av.get("for") == "community"
        ]
        if len(communities) != 1:
            problems.append(f"node {node_id!r} has {len(communities)} community values")
        check_attvalues(node, "node", f"node {node_id!r}")

    edges_parent = graph.find(f"{{{GEXF_NS}}}edges")
    if edges_parent is None:
        problems.append("no edges element")
        return problems
    edge_ids: set[str] = set()
    for edge in edges_parent.findall(f"{{{GEXF_NS}}}edge"):
        edge_id = edge.get("id")
        if edge_id in edge_ids:
            problems.append(f"duplicate edge id {edge_id!r}")
        edge_ids.add(edge_id)
        for endpoint in ("source", "target"):
            ref = edge.get(endpoint)
            if ref not in node_ids:
                problems.append(f"edge {edge_id!r} {endpoint} {ref!r} is not a node")
        weight = edge.get("weight")
        try:
            if float(weight) <= 0:
                problems.append(f"edge {edge_id!r} has non-positive weight {weight!r}")
        except (TypeError, ValueError):
            problems.append(f"edge {edge_id!r} has bad weight {weight!r}")
        check_attvalues(edge, "edge", f"edge {edge_id!r}")
    return problems


@pytest.fixture
def gexf_checker():
    return gexf_problems


def korrika_archive() -> Path | None:
    """Path to the published reference corpus, if it is around."""
    override = os.environ.get("EVENTPULSE_KORRIKA")
    candidates = [override] if override else []
    candidates += ["korrika.json", "data/korrika.json"]
    for candidate in candidates:
        if candidate and Path(candidate).is_file():
            return Path(candidate)
    return None
