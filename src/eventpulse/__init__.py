"""eventpulse: collect keyword-filtered post archives and analyze events."""

from .analytics import (
    HistogramBucket,
    RankedEntry,
    RankedTweet,
    extract_coordinates,
    histogram,
    top_tweets_by_retweets,
    top_users_by_activity,
    top_users_by_received_retweets,
)
from .collector import (
    CollectionJob,
    CollectionStats,
    RateLimit,
    ReplaySource,
    ScriptedSearchSource,
    StreamDisconnected,
    collect_search,
    collect_stream,
    matches_track,
)
from .graph import (
    InteractionEdge,
    WeightedGraph,
    aggregate,
    export_edges_csv,
    export_gexf,
    extract_interactions,
    label_propagation,
    notable_subgraph,
)
from .tweets import ParseError, ParseStats, RetweetRef, Tweet, parse_tweet, read_archive

__version__ = "0.1.0"

__all__ = [
    "CollectionJob",
    "CollectionStats",
    "HistogramBucket",
    "InteractionEdge",
    "ParseError",
    "ParseStats",
    "RankedEntry",
    "RankedTweet",
    "RateLimit",
    "ReplaySource",
    "RetweetRef",
    "ScriptedSearchSource",
    "StreamDisconnected",
    "Tweet",
    "WeightedGraph",
    "aggregate",
    "collect_search",
    "collect_stream",
    "export_edges_csv",
    "export_gexf",
    "extract_coordinates",
    "extract_interactions",
    "histogram",
    "label_propagation",
    "matches_track",
    "notable_subgraph",
    "parse_tweet",
    "read_archive",
    "top_tweets_by_retweets",
    "top_users_by_activity",
    "top_users_by_received_retweets",
]
