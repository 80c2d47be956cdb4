"""Directed interaction graphs: who retweeted or replied to whom.

Edges point from the acting user to the author of the content acted
on. Aggregation sums parallel edges into integer weights, optionally
merging the two interaction kinds. Community labels come from a
deterministic, seeded label propagation, and graphs can be exported as
an edge CSV or as GEXF 1.2 for graph tools.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Iterable

from .tweets import Tweet, _csv_text, _name_order

__all__ = [
    "KIND_REPLY",
    "KIND_RETWEET",
    "InteractionEdge",
    "WeightedGraph",
    "aggregate",
    "export_edges_csv",
    "export_gexf",
    "extract_interactions",
    "label_propagation",
    "notable_subgraph",
]

KIND_RETWEET = "retweet"
KIND_REPLY = "reply"

GEXF_NAMESPACE = "http://www.gexf.net/1.2draft"

# C0 controls but tab, LF and CR, lone surrogates, U+FFFE and U+FFFF:
# XML 1.0 cannot carry them, not even as character references
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

_MAX_SWEEPS = 100  # label propagation stops here if it has not settled


@dataclass(frozen=True, slots=True)
class InteractionEdge:
    """One observed interaction, traceable to the tweet that caused it."""

    source: str
    target: str
    kind: str
    tweet_id: int

    def __post_init__(self):
        if not self.source or not self.target:
            raise ValueError("edge endpoints must be non-empty screen names")
        if self.kind not in (KIND_RETWEET, KIND_REPLY):
            raise ValueError(f"unknown interaction kind: {self.kind!r}")


# edge key: (source, target, kind); kind is None once kinds are merged
EdgeKey = tuple[str, str, str | None]


@dataclass
class WeightedGraph:
    """Directed graph with positive integer edge weights."""

    nodes: set[str] = field(default_factory=set)
    edges: dict[EdgeKey, int] = field(default_factory=dict)

    def weighted_degrees(self) -> dict[str, int]:
        """In-weight plus out-weight of every node, from one pass over the edges.

        A self-loop counts on both sides. Nodes without edges map to 0;
        edge endpoints missing from ``nodes`` are counted all the same.
        """
        degrees = dict.fromkeys(self.nodes, 0)
        for (source, target, _kind), weight in self.edges.items():
            degrees[source] = degrees.get(source, 0) + weight
            degrees[target] = degrees.get(target, 0) + weight
        return degrees

    def undirected_adjacency(self) -> dict[str, dict[str, int]]:
        """Neighbor weights with direction and kind collapsed."""
        adjacency: dict[str, dict[str, int]] = {node: {} for node in self.nodes}
        for (source, target, _kind), weight in self.edges.items():
            if source == target:
                adjacency[source][source] = adjacency[source].get(source, 0) + weight
            else:
                adjacency[source][target] = adjacency[source].get(target, 0) + weight
                adjacency[target][source] = adjacency[target].get(source, 0) + weight
        return adjacency


def extract_interactions(tweets: Iterable[Tweet]) -> list[InteractionEdge]:
    """One edge per retweet and one per reply, in input order.

    A single tweet emits at most one edge of each kind; self-loops are kept.
    """
    edges = []
    for tweet in tweets:
        if tweet.retweet_of is not None:
            edges.append(
                InteractionEdge(
                    source=tweet.author,
                    target=tweet.retweet_of.original_author,
                    kind=KIND_RETWEET,
                    tweet_id=tweet.id,
                )
            )
        if tweet.reply_to is not None:
            edges.append(
                InteractionEdge(
                    source=tweet.author,
                    target=tweet.reply_to,
                    kind=KIND_REPLY,
                    tweet_id=tweet.id,
                )
            )
    return edges


def aggregate(
    edges: Iterable[InteractionEdge], merge_kinds: bool = False
) -> WeightedGraph:
    """Sum parallel edges into weights; weights add up to the raw edge count."""
    graph = WeightedGraph()
    for edge in edges:
        key = (edge.source, edge.target, None if merge_kinds else edge.kind)
        graph.edges[key] = graph.edges.get(key, 0) + 1
        graph.nodes.add(edge.source)
        graph.nodes.add(edge.target)
    return graph


def notable_subgraph(graph: WeightedGraph, top_n: int = 50) -> WeightedGraph:
    """Keep the top_n nodes by weighted degree and the edges among them.

    Weighted degree is in-weight plus out-weight, so a self-loop counts
    twice. Ties go to the case-insensitively smaller name, then to the
    exact name. Only edges with both endpoints kept survive, and
    applying the same cut twice is a no-op.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    degrees = graph.weighted_degrees()
    ranked = sorted(
        graph.nodes, key=lambda node: (-degrees[node], *_name_order(node))
    )
    keep = set(ranked[:top_n])
    return WeightedGraph(
        nodes=keep,
        edges={
            key: weight
            for key, weight in graph.edges.items()
            if key[0] in keep and key[1] in keep
        },
    )


def label_propagation(graph: WeightedGraph, seed: int = 42) -> dict[str, int]:
    """Deterministic weighted label propagation over the undirected graph.

    Every node starts with its own label; sweeps visit nodes in an
    order reshuffled by a generator seeded with ``seed``, and each node
    adopts the label with the largest summed incident weight, ties
    going to the smallest label. Stops at a fixpoint or after
    ``_MAX_SWEEPS`` (100) sweeps. Labels are renumbered 0..C-1 in order of
    first appearance over the node list sorted by ``(casefold, name)``,
    the order the returned dict keeps, and a community can never span
    two connected components.
    """
    nodes = sorted(graph.nodes, key=_name_order)
    if not nodes:
        return {}
    index = {node: i for i, node in enumerate(nodes)}
    adjacency = graph.undirected_adjacency()
    neighbors: list[list[tuple[int, int]]] = [
        [(index[other], weight) for other, weight in adjacency[node].items()]
        for node in nodes
    ]
    labels = list(range(len(nodes)))
    order = list(range(len(nodes)))
    rng = random.Random(seed)
    for _sweep in range(_MAX_SWEEPS):
        rng.shuffle(order)
        changed = False
        for i in order:
            if not neighbors[i]:
                continue
            sums: dict[int, int] = {}
            for j, weight in neighbors[i]:
                label = labels[j]
                sums[label] = sums.get(label, 0) + weight
            best = max(sums.values())
            winner = min(label for label, total in sums.items() if total == best)
            if winner != labels[i]:
                labels[i] = winner
                changed = True
        if not changed:
            break
    renumber: dict[int, int] = {}
    communities: dict[str, int] = {}
    for i, node in enumerate(nodes):
        label = labels[i]
        if label not in renumber:
            renumber[label] = len(renumber)
        communities[node] = renumber[label]
    return communities


def _sorted_edge_items(graph: WeightedGraph) -> list[tuple[EdgeKey, int]]:
    return sorted(
        graph.edges.items(),
        key=lambda item: (
            *_name_order(item[0][0]),
            *_name_order(item[0][1]),
            item[0][2] or "",
        ),
    )


def export_edges_csv(graph: WeightedGraph) -> str:
    """The graph as "Source,Target,Weight[,Kind]" CSV text; Kind is omitted when merged.

    Fields are quoted only when they need it, and rows end in LF. The
    row order is the sorted edge order, so identical graphs always give
    identical text.
    """
    columns = 4 if any(key[2] is not None for key in graph.edges) else 3
    rows = (
        (source, target, weight, kind or "")[:columns]
        for (source, target, kind), weight in _sorted_edge_items(graph)
    )
    return _csv_text(["Source", "Target", "Weight", "Kind"][:columns], rows)


def _quote_attr(text: str) -> str:
    """``text`` escaped for a double-quoted XML attribute, as ElementTree escapes it."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\r", "&#13;")
        .replace("\n", "&#10;")
        .replace("\t", "&#09;")
    )


def export_gexf(graph: WeightedGraph, communities: dict[str, int]) -> str:
    """The graph as GEXF 1.2 XML text, with a "community" integer attribute per node.

    Edge weights ride on the standard ``weight`` edge attribute; when
    the graph still distinguishes interaction kinds, a string "kind"
    edge attribute is declared and filled. Output is fully sorted, so
    equal inputs give identical text. The text is two-space indented
    with LF line ends; encoded as UTF-8 it is the bytes
    ``xml.etree.ElementTree`` writes on POSIX for the same tree after
    ``ET.indent``. A node without a community, or a node name that XML
    1.0 cannot carry, raises ValueError.
    """
    missing = graph.nodes - communities.keys()
    if missing:
        raise ValueError(f"no community for node(s): {sorted(missing)[:3]}")
    bad = sorted(node for node in graph.nodes if _NOT_XML_CHAR.search(node))
    if bad:
        raise ValueError(f"node name(s) XML 1.0 cannot hold: {bad[:3]}")
    with_kind = any(key[2] is not None for key in graph.edges)
    # each node, endpoint and kind escaped once
    quoted = {
        text: _quote_attr(text)
        for text in graph.nodes.union(*graph.edges)
        if text is not None
    }

    parts = [
        "<?xml version='1.0' encoding='utf-8'?>\n"
        f'<gexf xmlns="{GEXF_NAMESPACE}" version="1.2">\n'
        "  <meta>\n"
        "    <creator>eventpulse</creator>\n"
        "  </meta>\n"
        '  <graph defaultedgetype="directed" mode="static">\n'
        '    <attributes class="node">\n'
        '      <attribute id="community" title="community" type="integer" />\n'
        "    </attributes>\n"
    ]
    if with_kind:
        parts.append(
            '    <attributes class="edge">\n'
            '      <attribute id="kind" title="kind" type="string" />\n'
            "    </attributes>\n"
        )

    parts.append("    <nodes>\n" if graph.nodes else "    <nodes />\n")
    for node in sorted(graph.nodes, key=_name_order):
        name = quoted[node]
        parts.append(
            f'      <node id="{name}" label="{name}">\n'
            "        <attvalues>\n"
            f'          <attvalue for="community" value="{communities[node]}" />\n'
            "        </attvalues>\n"
            "      </node>\n"
        )
    if graph.nodes:
        parts.append("    </nodes>\n")

    parts.append("    <edges>\n" if graph.edges else "    <edges />\n")
    for edge_id, ((source, target, kind), weight) in enumerate(
        _sorted_edge_items(graph)
    ):
        edge = (
            f'      <edge id="{edge_id}" source="{quoted[source]}"'
            f' target="{quoted[target]}" weight="{weight}"'
        )
        if with_kind and kind is not None:
            parts.append(
                f"{edge}>\n"
                "        <attvalues>\n"
                f'          <attvalue for="kind" value="{quoted[kind]}" />\n'
                "        </attvalues>\n"
                "      </edge>\n"
            )
        else:
            parts.append(f"{edge} />\n")
    if graph.edges:
        parts.append("    </edges>\n")
    parts.append("  </graph>\n</gexf>")

    return "".join(parts)
