"""Per-corpus analytics: time histograms, top-k rankings, coordinates.

All functions are pure: they read a sequence of Tweet objects and
return new values, so results are independent of input order wherever
the contract says so (rankings break ties deterministically instead of
leaning on encounter order). Callers are expected to have dropped
duplicate ids already; ``read_archive(path, dedupe=True)`` does that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Sequence

from .tweets import Tweet, _csv_text, _name_order, _write_text

__all__ = [
    "HistogramBucket",
    "RankedEntry",
    "RankedTweet",
    "activity_counts",
    "extract_coordinates",
    "histogram",
    "observed_retweet_counts",
    "received_retweet_counts",
    "top_tweets_by_retweets",
    "top_users_by_activity",
    "top_users_by_received_retweets",
    "write_coordinates_csv",
    "write_histogram_dat",
]

GRANULARITIES = ("hour", "day")
COUNT_SOURCES = ("observed", "embedded")

# offsets span UTC-14:00 .. UTC+14:00
MAX_TZ_OFFSET_MINUTES = 840


@dataclass(frozen=True, slots=True)
class HistogramBucket:
    """One time bucket: start of the (shifted) hour or day, and a count."""

    bucket_start: datetime
    count: int


@dataclass(frozen=True, slots=True)
class RankedEntry:
    """One ranking row; key is a tweet id or a screen name."""

    key: int | str
    score: int
    rank: int


@dataclass(frozen=True, slots=True)
class RankedTweet(RankedEntry):
    """Ranking row for tweets, with author and text resolved for display."""

    author: str = ""
    text: str = ""


def _truncate(stamp: datetime, granularity: str) -> datetime:
    stamp = stamp.replace(minute=0, second=0, microsecond=0)
    if granularity == "day":
        stamp = stamp.replace(hour=0)
    return stamp


def histogram(
    tweets: Iterable[Tweet],
    granularity: str = "hour",
    tz_offset_minutes: int = 0,
) -> list[HistogramBucket]:
    """Bucket tweets per hour or per day.

    Each tweet lands in exactly one bucket, keyed by its timestamp
    shifted by ``tz_offset_minutes`` and truncated to the granularity.
    Buckets between the first and last non-empty one are emitted with
    count 0 so plots show gaps instead of skipping them. Raises
    ValueError naming the tweet whose shifted timestamp falls outside
    the datetime range.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")
    if not -MAX_TZ_OFFSET_MINUTES <= tz_offset_minutes <= MAX_TZ_OFFSET_MINUTES:
        raise ValueError(f"tz offset out of range: {tz_offset_minutes}")
    offset = timedelta(minutes=tz_offset_minutes)
    counts: Counter[datetime] = Counter()
    for tweet in tweets:
        try:
            shifted = tweet.created_at + offset
        except OverflowError:
            raise ValueError(
                f"tweet {tweet.id}: {tweet.created_at.isoformat()} shifted by"
                f" {tz_offset_minutes} minutes falls outside years 1-9999"
            ) from None
        counts[_truncate(shifted, granularity)] += 1
    if not counts:
        return []
    step = timedelta(hours=1) if granularity == "hour" else timedelta(days=1)
    first = min(counts)
    # counted rather than stepped past the last bucket, which may be the
    # last one a datetime can hold
    starts = (first + n * step for n in range((max(counts) - first) // step + 1))
    return [HistogramBucket(start, counts.get(start, 0)) for start in starts]


def activity_counts(tweets: Iterable[Tweet]) -> Counter:
    """Posts per author. Mergeable: counts over disjoint parts add up."""
    return Counter(tweet.author for tweet in tweets)


def received_retweet_counts(tweets: Iterable[Tweet]) -> Counter:
    """Retweets received per original author, observed in this corpus."""
    return Counter(
        tweet.retweet_of.original_author
        for tweet in tweets
        if tweet.retweet_of is not None
    )


def observed_retweet_counts(tweets: Iterable[Tweet]) -> Counter:
    """Retweets observed in this corpus per original tweet id."""
    return Counter(
        tweet.retweet_of.original_tweet_id
        for tweet in tweets
        if tweet.retweet_of is not None
    )


def _rank_users(counts: Counter, k: int) -> list[RankedEntry]:
    # ties: descending score, then case-insensitive name
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], *_name_order(kv[0])))
    return [
        RankedEntry(key=name, score=score, rank=position)
        for position, (name, score) in enumerate(ordered[:k], start=1)
    ]


def _require_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def top_users_by_activity(tweets: Iterable[Tweet], k: int) -> list[RankedEntry]:
    """The k most active authors by number of posts."""
    _require_k(k)
    return _rank_users(activity_counts(tweets), k)


def top_users_by_received_retweets(
    tweets: Iterable[Tweet], k: int
) -> list[RankedEntry]:
    """The k authors whose posts were retweeted most, by observed count."""
    _require_k(k)
    return _rank_users(received_retweet_counts(tweets), k)


def _strip_repost_prefix(text: str, original_author: str) -> str:
    prefix = f"RT @{original_author}: "
    if text.startswith(prefix):
        return text[len(prefix) :]
    return text


def top_tweets_by_retweets(
    tweets: Sequence[Tweet], k: int, count_source: str = "observed"
) -> list[RankedTweet]:
    """The k most retweeted originals, with author and text for display.

    With ``count_source="observed"`` (default) the score of an original
    is the number of retweets of it present in the corpus; originals
    seen only through embedded copies still participate, their display
    text recovered from a reposting copy. ``"embedded"`` switches the
    score to the maximum cumulative platform counter seen for the
    original. Ties break toward the smaller tweet id, and zero-score
    originals sort after everything with a positive score.
    """
    _require_k(k)
    if count_source not in COUNT_SOURCES:
        raise ValueError(
            f"count_source must be one of {COUNT_SOURCES}, got {count_source!r}"
        )

    by_id: dict[int, Tweet] = {}
    carriers: dict[int, Tweet] = {}  # smallest-id reposting copy per original
    for tweet in tweets:
        by_id.setdefault(tweet.id, tweet)
        if tweet.retweet_of is not None:
            original = tweet.retweet_of.original_tweet_id
            best = carriers.get(original)
            if best is None or tweet.id < best.id:
                carriers[original] = tweet

    candidates = set(carriers)
    candidates.update(t.id for t in tweets if t.retweet_of is None)

    if count_source == "observed":
        scores = observed_retweet_counts(tweets)
    else:
        scores = {}
        for tweet in tweets:
            if tweet.retweet_count is None:
                continue
            key = (
                tweet.retweet_of.original_tweet_id
                if tweet.retweet_of is not None
                else tweet.id
            )
            scores[key] = max(scores.get(key, 0), tweet.retweet_count)

    ordered = sorted(candidates, key=lambda oid: (-scores.get(oid, 0), oid))
    rows = []
    for position, original_id in enumerate(ordered[:k], start=1):
        seen = by_id.get(original_id)
        if seen is not None:
            author, text = seen.author, seen.text
        else:
            carrier = carriers[original_id]
            author = carrier.retweet_of.original_author
            text = _strip_repost_prefix(carrier.text, author)
        rows.append(
            RankedTweet(
                key=original_id,
                score=scores.get(original_id, 0),
                rank=position,
                author=author,
                text=text,
            )
        )
    return rows


def extract_coordinates(
    tweets: Iterable[Tweet],
) -> list[tuple[int, float, float]]:
    """(id, latitude, longitude) for every geotagged tweet, input order."""
    return [
        (tweet.id, tweet.coords[0], tweet.coords[1])
        for tweet in tweets
        if tweet.coords is not None
    ]


def write_histogram_dat(
    buckets: Iterable[HistogramBucket], path: str | Path
) -> None:
    """Write "<ISO-8601 bucket start>\\t<count>" lines, LF terminated.

    Bucket starts are written without a UTC suffix: they are clock
    times under the offset the histogram was built with.
    """
    lines = (f"{b.bucket_start.replace(tzinfo=None).isoformat()}\t{b.count}\n" for b in buckets)
    _write_text(path, "".join(lines))


def write_coordinates_csv(
    rows: Iterable[tuple[int, float, float]], path: str | Path
) -> None:
    """Write an "id,latitude,longitude" CSV, LF line endings."""
    _write_text(path, _csv_text(["id", "latitude", "longitude"], rows))
