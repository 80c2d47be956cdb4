import io
from collections import deque

import networkx as nx
import pytest

from conftest import make_tweet
from eventpulse.graph import (
    KIND_REPLY,
    KIND_RETWEET,
    InteractionEdge,
    WeightedGraph,
    aggregate,
    export_edges_csv,
    export_gexf,
    extract_interactions,
    label_propagation,
    notable_subgraph,
)


def undirected(pairs: dict[tuple[str, str], int]) -> WeightedGraph:
    """Build a kind-merged graph from {(source, target): weight}."""
    graph = WeightedGraph()
    for (source, target), weight in pairs.items():
        graph.edges[(source, target, None)] = weight
        graph.nodes.add(source)
        graph.nodes.add(target)
    return graph


def triangle(a: str, b: str, c: str, weight: int) -> dict[tuple[str, str], int]:
    return {(a, b): weight, (b, c): weight, (a, c): weight}


class TestExtraction:
    def test_edges_in_input_order_with_provenance(self):
        tweets = [
            make_tweet(1, author="ben", retweet_of=(100, "amaia")),
            make_tweet(2, author="carla", reply_to="amaia"),
            make_tweet(3, author="dani", retweet_of=(100, "amaia"), reply_to="ben"),
        ]
        edges = extract_interactions(tweets)
        assert [(e.source, e.target, e.kind, e.tweet_id) for e in edges] == [
            ("ben", "amaia", KIND_RETWEET, 1),
            ("carla", "amaia", KIND_REPLY, 2),
            ("dani", "amaia", KIND_RETWEET, 3),
            ("dani", "ben", KIND_REPLY, 3),
        ]

    def test_edge_count_identity(self):
        tweets = [
            make_tweet(1, author="a", retweet_of=(9, "b")),
            make_tweet(2, author="a"),
            make_tweet(3, author="a", reply_to="b"),
        ]
        edges = extract_interactions(tweets)
        retweets = sum(1 for t in tweets if t.retweet_of is not None)
        replies = sum(1 for t in tweets if t.reply_to is not None)
        assert len(edges) == retweets + replies

    def test_self_reply_is_kept(self):
        [edge] = extract_interactions([make_tweet(1, author="solo", reply_to="solo")])
        assert edge.source == edge.target == "solo"

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            InteractionEdge(source="", target="b", kind=KIND_REPLY, tweet_id=1)
        with pytest.raises(ValueError):
            InteractionEdge(source="a", target="b", kind="quote", tweet_id=1)

    def test_replace_and_make_are_checked(self):
        edge = InteractionEdge("a", "b", KIND_RETWEET, 1)
        with pytest.raises(ValueError, match="unknown interaction kind: 'quote'"):
            edge._replace(kind="quote")
        with pytest.raises(ValueError, match="non-empty screen names"):
            InteractionEdge._make(("", "b", KIND_REPLY, 1))
        assert edge._replace(kind=KIND_REPLY) == ("a", "b", KIND_REPLY, 1)

    def test_extracted_edges_equal_checked_edges(self):
        tweets = [
            make_tweet(1, author="ben", retweet_of=(100, "amaia"), reply_to="carla"),
            make_tweet(2, author="carla", reply_to="carla"),
        ]
        edges = extract_interactions(tweets)
        checked = [InteractionEdge(*edge) for edge in edges]
        assert edges == checked
        assert all(type(edge) is InteractionEdge for edge in edges)
        assert edges[0] == ("ben", "amaia", KIND_RETWEET, 1)


class TestAggregate:
    def edges(self):
        return [
            InteractionEdge("x", "y", KIND_RETWEET, 1),
            InteractionEdge("x", "y", KIND_RETWEET, 2),
            InteractionEdge("x", "y", KIND_REPLY, 3),
            InteractionEdge("y", "x", KIND_RETWEET, 4),
        ]

    def test_kinds_kept_apart_by_default(self):
        graph = aggregate(self.edges())
        assert graph.edges == {
            ("x", "y", KIND_RETWEET): 2,
            ("x", "y", KIND_REPLY): 1,
            ("y", "x", KIND_RETWEET): 1,
        }
        assert graph.nodes == {"x", "y"}

    def test_merged_kinds(self):
        graph = aggregate(self.edges(), merge_kinds=True)
        assert graph.edges == {("x", "y", None): 3, ("y", "x", None): 1}

    def test_weight_sum_equals_edge_count(self):
        edges = self.edges()
        assert sum(aggregate(edges).edges.values()) == len(edges)
        assert sum(aggregate(edges, merge_kinds=True).edges.values()) == len(edges)

    def test_weighted_degree_counts_self_loops_twice(self):
        graph = undirected({("n", "n"): 3, ("n", "m"): 1})
        assert graph.weighted_degrees() == {"n": 7, "m": 1}

    def test_weighted_degrees_agree_with_a_per_node_sum(self):
        graph = aggregate(self.edges() + [InteractionEdge("z", "z", KIND_REPLY, 5)])
        graph.nodes.add("lonely")
        degrees = graph.weighted_degrees()
        assert degrees == {
            node: sum(w * (s == node) + w * (t == node) for (s, t, _), w in graph.edges.items())
            for node in graph.nodes
        }
        assert degrees == {"x": 4, "y": 4, "z": 2, "lonely": 0}


class TestNotableSubgraph:
    def star(self):
        return aggregate(
            [
                InteractionEdge("hub", "l1", KIND_RETWEET, 1),
                InteractionEdge("hub", "l1", KIND_RETWEET, 2),
                InteractionEdge("hub", "l1", KIND_RETWEET, 3),
                InteractionEdge("l2", "hub", KIND_REPLY, 4),
                InteractionEdge("l2", "hub", KIND_REPLY, 5),
                InteractionEdge("hub", "l3", KIND_RETWEET, 6),
                InteractionEdge("l4", "hub", KIND_REPLY, 7),
                InteractionEdge("l5", "hub", KIND_RETWEET, 8),
            ]
        )

    def test_cut_keeps_highest_degree_nodes(self):
        cut = notable_subgraph(self.star(), top_n=3)
        assert cut.nodes == {"hub", "l1", "l2"}
        assert set(cut.edges) == {
            ("hub", "l1", KIND_RETWEET),
            ("l2", "hub", KIND_REPLY),
        }

    def test_degree_ties_break_alphabetically(self):
        cut = notable_subgraph(self.star(), top_n=4)
        assert cut.nodes == {"hub", "l1", "l2", "l3"}

    def test_idempotent(self):
        once = notable_subgraph(self.star(), top_n=3)
        twice = notable_subgraph(once, top_n=3)
        assert once == twice

    def test_top_n_wider_than_graph(self):
        graph = self.star()
        assert notable_subgraph(graph, top_n=100) == graph

    def test_top_n_validated(self):
        with pytest.raises(ValueError):
            notable_subgraph(self.star(), top_n=0)


BRIDGED = undirected(
    {
        **triangle("a", "b", "c", 2),
        **triangle("d", "e", "f", 2),
        ("c", "d"): 1,
    }
)


class TestLabelPropagation:
    def test_empty_graph(self):
        assert label_propagation(WeightedGraph()) == {}

    def test_isolated_nodes_stay_alone(self):
        graph = undirected({("a", "b"): 1})
        graph.nodes.add("loner")
        communities = label_propagation(graph)
        assert communities["a"] == communities["b"]
        assert communities["loner"] != communities["a"]
        assert list(communities) == sorted(graph.nodes, key=lambda n: (n.casefold(), n))

    def test_disjoint_triangles_split(self):
        graph = undirected({**triangle("a", "b", "c", 1), **triangle("d", "e", "f", 1)})
        for seed in range(10):
            communities = label_propagation(graph, seed=seed)
            assert communities["a"] == communities["b"] == communities["c"]
            assert communities["d"] == communities["e"] == communities["f"]
            assert communities["a"] != communities["d"]

    def test_bridged_triangles_split_for_any_seed(self):
        for seed in range(30):
            communities = label_propagation(BRIDGED, seed=seed)
            assert communities == {
                "a": 0,
                "b": 0,
                "c": 0,
                "d": 1,
                "e": 1,
                "f": 1,
            }, f"seed {seed}"

    def test_bridged_triangles_can_never_merge(self):
        """Exhaust every reachable label state, not just sampled seeds.

        The update rule is re-implemented here from scratch; starting
        from all-distinct labels we apply every possible single-node
        update breadth-first and check that no reachable state is fully
        merged and every reachable fixpoint is the two-triangle split.
        """
        names = sorted(BRIDGED.nodes)
        position = {name: i for i, name in enumerate(names)}
        neighbors: list[list[tuple[int, int]]] = [[] for _ in names]
        for (source, target, _), weight in BRIDGED.edges.items():
            neighbors[position[source]].append((position[target], weight))
            neighbors[position[target]].append((position[source], weight))

        def forced(labels: tuple[int, ...], i: int) -> int:
            sums: dict[int, int] = {}
            for j, weight in neighbors[i]:
                sums[labels[j]] = sums.get(labels[j], 0) + weight
            best = max(sums.values())
            return min(label for label, total in sums.items() if total == best)

        start = tuple(range(len(names)))
        seen = {start}
        frontier = deque([start])
        fixpoints = []
        while frontier:
            state = frontier.popleft()
            moved = False
            for i in range(len(names)):
                winner = forced(state, i)
                if winner == state[i]:
                    continue
                moved = True
                nxt = tuple(
                    winner if k == i else state[k] for k in range(len(names))
                )
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
            assert len(set(state)) > 1, f"fully merged state reachable: {state}"
            if not moved:
                fixpoints.append(state)
        assert fixpoints
        left = {position[n] for n in ("a", "b", "c")}
        for state in fixpoints:
            left_labels = {state[i] for i in left}
            right_labels = {state[i] for i in range(6) if i not in left}
            assert len(left_labels) == 1
            assert len(right_labels) == 1
            assert left_labels != right_labels

    @pytest.mark.parametrize(
        "bridge",
        [
            # m-a weighs 2 + 2 = 4 against m-x's 3
            {("m", "a", None): 2, ("a", "m", None): 2, ("m", "x", None): 3},
            # m-a weighs 2 + 2 = 4 against m-x's 3, which either kind alone beats
            {("m", "a", KIND_RETWEET): 2, ("m", "a", KIND_REPLY): 2, ("m", "x", KIND_RETWEET): 3},
            {("m", "a", KIND_RETWEET): 2, ("m", "a", KIND_REPLY): 2, ("m", "x", KIND_REPLY): 3},
            # m's own label weighs 3 against a's 4; counted twice, 6 would keep m alone
            {("m", "m", None): 3, ("m", "a", None): 4},
        ],
        ids=["directions-add-up", "kinds-add-up-1", "kinds-add-up-2", "self-loop-counts-once"],
    )
    def test_folded_weights_decide_which_triangle_m_joins(self, bridge):
        graph = undirected({**triangle("a", "b", "c", 10), **triangle("x", "y", "z", 10)})
        graph.edges.update(bridge)
        graph.nodes.add("m")
        for seed in range(10):
            labels = label_propagation(graph, seed=seed)
            joined = sorted(node for node in labels if labels[node] == labels["m"])
            assert joined == ["a", "b", "c", "m"], f"seed {seed}"

    def test_labels_are_contiguous_from_zero(self):
        graph = undirected(
            {**triangle("a", "b", "c", 1), **triangle("x", "y", "z", 1), ("m", "n"): 1}
        )
        communities = label_propagation(graph)
        assert set(communities.values()) == set(range(len(set(communities.values()))))

    def test_communities_stay_inside_components(self):
        graph = undirected(
            {("a", "b"): 1, ("b", "c"): 2, ("x", "y"): 3, ("p", "q"): 1}
        )
        communities = label_propagation(graph, seed=3)
        assert communities["x"] == communities["y"]
        assert communities["p"] == communities["q"]
        component_of = {"a": 0, "b": 0, "c": 0, "x": 1, "y": 1, "p": 2, "q": 2}
        by_label: dict[int, set[int]] = {}
        for node, label in communities.items():
            by_label.setdefault(label, set()).add(component_of[node])
        for components in by_label.values():
            assert len(components) == 1

    def test_an_endpoint_that_is_not_a_node_is_rejected(self):
        graph = WeightedGraph(nodes={"a"}, edges={("a", "b\x01", KIND_REPLY): 1})
        with pytest.raises(ValueError, match=r"not a node: 'b\\x01'"):
            label_propagation(graph)


def gexf_file(graph: WeightedGraph, communities: dict[str, int]) -> io.BytesIO:
    """The GEXF text as the bytes a file would hold, for XML and networkx readers."""
    return io.BytesIO(export_gexf(graph, communities).encode("utf-8"))


class TestEdgeCsv:
    def test_exact_bytes_with_kinds(self):
        graph = aggregate(
            [
                InteractionEdge("x", "y", KIND_RETWEET, 1),
                InteractionEdge("x", "y", KIND_RETWEET, 2),
                InteractionEdge("x", "y", KIND_REPLY, 3),
                InteractionEdge("y", "x", KIND_RETWEET, 4),
            ]
        )
        assert export_edges_csv(graph).encode("utf-8") == (
            b"Source,Target,Weight,Kind\n"
            b"x,y,1,reply\n"
            b"x,y,2,retweet\n"
            b"y,x,1,retweet\n"
        )

    def test_exact_bytes_merged(self):
        graph = undirected({("x", "y"): 3, ("y", "x"): 1})
        assert export_edges_csv(graph).encode("utf-8") == b"Source,Target,Weight\nx,y,3\ny,x,1\n"

    def test_empty_graph_is_header_only(self):
        assert export_edges_csv(WeightedGraph()).encode("utf-8") == b"Source,Target,Weight\n"

    def test_names_needing_quotes(self):
        graph = undirected({("ha,na", "b"): 1})
        assert export_edges_csv(graph).encode("utf-8") == b'Source,Target,Weight\n"ha,na",b,1\n'

    def test_controls_xml_cannot_hold_are_still_written(self):
        graph = undirected({("a\x01", "b\ufffe"): 1})
        assert export_edges_csv(graph) == "Source,Target,Weight\na\x01,b\ufffe,1\n"

    def test_round_trip(self):
        graph = aggregate(
            [
                InteractionEdge("x", "y", KIND_RETWEET, 1),
                InteractionEdge("y", "x", KIND_REPLY, 2),
                InteractionEdge("z", "z", KIND_REPLY, 3),
            ]
        )
        assert export_edges_csv(graph).encode("utf-8") == (
            b"Source,Target,Weight,Kind\n"
            b"x,y,1,retweet\n"
            b"y,x,1,reply\n"
            b"z,z,1,reply\n"
        )


class TestGexf:
    def fixture(self):
        graph = aggregate(
            [
                InteractionEdge("Ane", "ben", KIND_RETWEET, 1),
                InteractionEdge("Ane", "ben", KIND_RETWEET, 2),
                InteractionEdge("ben", "Ane", KIND_REPLY, 3),
                InteractionEdge("carla", "carla", KIND_REPLY, 4),
            ]
        )
        communities = label_propagation(graph)
        return graph, communities

    def test_structure_is_valid(self, gexf_checker):
        assert gexf_checker(gexf_file(*self.fixture())) == []

    def test_merged_structure_is_valid(self, gexf_checker):
        graph = undirected({("a", "b"): 2, ("b", "a"): 1})
        assert gexf_checker(gexf_file(graph, label_propagation(graph))) == []

    def test_networkx_reads_it_back(self):
        graph, communities = self.fixture()
        loaded = nx.read_gexf(gexf_file(graph, communities))
        assert set(loaded.nodes) == graph.nodes
        for node in graph.nodes:
            assert loaded.nodes[node]["community"] == communities[node]
        weights: dict[tuple[str, str, str | None], int] = {}
        for source, target, data in loaded.edges(data=True):
            key = (source, target, data.get("kind"))
            weights[key] = weights.get(key, 0) + int(data["weight"])
        assert weights == graph.edges

    def test_byte_determinism(self):
        graph, communities = self.fixture()
        assert gexf_file(graph, communities).getvalue() == gexf_file(graph, communities).getvalue()

    def test_missing_community_is_rejected(self):
        graph = undirected({("a", "b"): 1})
        with pytest.raises(ValueError):
            export_gexf(graph, {"a": 0})

    @pytest.mark.parametrize(
        "char",
        ["\x00", "\x01", "\x0b", "\x0c", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"],
    )
    def test_name_xml_cannot_hold_is_rejected_before_writing(self, char):
        graph = undirected({(f"n{i}{char}", "b"): 1 for i in range(5)})
        with pytest.raises(ValueError, match="XML 1.0") as raised:
            export_gexf(graph, label_propagation(graph))
        # up to three of the offending names, escaped as repr() shows them
        assert str(raised.value).count(repr(char)[1:-1]) == 3

    @pytest.mark.parametrize(
        "edges, message, named",
        [
            ({("a", f"b{i}\x01", KIND_REPLY): 1 for i in range(5)}, "not nodes", 3),
            ({("a", "a", "re\x02ply"): 1}, "XML 1.0", 1),
        ],
        ids=["endpoint-not-a-node", "kind-xml-cannot-hold"],
    )
    def test_an_undeclared_endpoint_or_unholdable_kind_is_rejected(self, edges, message, named):
        graph = WeightedGraph(nodes={"a"}, edges=edges)
        with pytest.raises(ValueError, match=message) as raised:
            export_gexf(graph, {"a": 0})
        assert str(raised.value).count("\\x0") == named  # up to three names, as repr() shows them
        # a CSV declares no nodes, so it carries every edge all the same
        assert len(export_edges_csv(graph).splitlines()) == 1 + len(edges)

    def test_tab_and_line_breaks_in_names_stay_valid(self, gexf_checker):
        graph = undirected({("a\tb", "c\nd"): 1, ("c\nd", "e\rf"): 1})
        assert gexf_checker(gexf_file(graph, label_propagation(graph))) == []

    def test_empty_graph_is_still_valid(self, gexf_checker):
        assert gexf_checker(gexf_file(WeightedGraph(), {})) == []
