"""Property-based checks of the documented invariants."""

import calendar
import csv
import io
import json
import os
import random
import re
import shutil
import tempfile
import xml.etree.ElementTree as ET
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FRESH_INTERPRETER_READ,
    forget_last_read,
    fresh_interpreter,
    gexf_problems,
    make_record,
    make_tweet,
    random_corpus,
    record_line,
    shown,
    union_find_components,
    write_archive,
)
from output_digests import ANALYSIS_COMMANDS, run_with_stdout
from eventpulse import tweets as tweets_module
from eventpulse.analytics import (
    HistogramBucket,
    _name_order,
    activity_counts,
    extract_coordinates,
    histogram,
    received_retweet_counts,
    top_tweets_by_retweets,
    top_users_by_activity,
    top_users_by_received_retweets,
)
from eventpulse.collector import (
    CollectionJob,
    CollectionStats,
    ManualClock,
    ReplaySource,
    ScriptedSearchSource,
    _LineFilter,
    collect_search,
    collect_stream,
    matches_track,
)
from eventpulse.graph import (
    GEXF_NAMESPACE,
    KIND_REPLY,
    KIND_RETWEET,
    _NOT_XML_CHAR,
    InteractionEdge,
    WeightedGraph,
    _sorted_edge_items,
    aggregate,
    export_edges_csv,
    export_gexf,
    label_propagation,
    notable_subgraph,
)
from eventpulse.tweets import (
    MAX_ID,
    ParseError,
    ParseStats,
    RetweetRef,
    Tweet,
    _parse_timestamp,
    parse_tweet,
    read_archive,
)

corpora = st.builds(
    lambda seed, size: random_corpus(random.Random(seed), size),
    seed=st.integers(0, 10**9),
    size=st.integers(0, 120),
)

nonempty_corpora = st.builds(
    lambda seed, size: random_corpus(random.Random(seed), size),
    seed=st.integers(0, 10**9),
    size=st.integers(1, 120),
)


# --- histogram ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    tweets=nonempty_corpora,
    granularity=st.sampled_from(["hour", "day"]),
    tz=st.integers(-840, 840),
)
def test_histogram_buckets_are_contiguous(tweets, granularity, tz):
    buckets = histogram(tweets, granularity, tz)
    step = timedelta(hours=1) if granularity == "hour" else timedelta(days=1)
    for previous, current in zip(buckets, buckets[1:]):
        assert current.bucket_start - previous.bucket_start == step
    assert buckets[0].count > 0
    assert buckets[-1].count > 0


@settings(max_examples=50, deadline=None)
@given(tweets=nonempty_corpora, hours=st.integers(-14, 14))
def test_whole_hour_offsets_shift_hourly_buckets_rigidly(tweets, hours):
    base = histogram(tweets, "hour", 0)
    shifted = histogram(tweets, "hour", hours * 60)
    delta = timedelta(hours=hours)
    assert [(b.bucket_start + delta, b.count) for b in base] == [
        (b.bucket_start, b.count) for b in shifted
    ]


@settings(max_examples=40, deadline=None)
@given(tweets=corpora, seed=st.integers(0, 999))
def test_histogram_ignores_input_order(tweets, seed):
    shuffled = tweets[:]
    random.Random(seed).shuffle(shuffled)
    assert histogram(shuffled) == histogram(tweets)


def kept_histogram(tweets, granularity, tz_offset_minutes):
    """``histogram`` as it was written on shifted datetimes, kept as its oracle."""
    offset = timedelta(minutes=tz_offset_minutes)
    counts = {}
    for tweet in tweets:
        try:
            shifted = tweet.created_at + offset
        except OverflowError:
            raise ValueError(
                f"tweet {tweet.id}: {tweet.created_at.isoformat()} shifted by"
                f" {tz_offset_minutes} minutes falls outside years 1-9999"
            ) from None
        start = shifted.replace(minute=0, second=0)
        if granularity == "day":
            start = start.replace(hour=0)
        counts[start] = counts.get(start, 0) + 1
    if not counts:
        return []
    step = timedelta(hours=1) if granularity == "hour" else timedelta(days=1)
    first = min(counts)
    starts = (first + n * step for n in range((max(counts) - first) // step + 1))
    return [HistogramBucket(start, counts.get(start, 0)) for start in starts]


FIRST_STAMP = datetime(1, 1, 1, tzinfo=timezone.utc)
LAST_STAMP = datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)


@st.composite
def clustered_stamps(draw):
    """1-8 UTC stamps in whole seconds, within three days of a base anywhere in years 1-9999.

    The base is often one end of the range, and stamps past an end are
    held at it, so the first and the last bucket a datetime can hold
    both come up.
    """
    base = draw(st.one_of(
        st.sampled_from([FIRST_STAMP, LAST_STAMP]),
        st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
            lambda stamp: stamp.replace(microsecond=0, tzinfo=timezone.utc)
        ),
    ))
    moves = draw(st.lists(st.integers(-3 * 86400, 3 * 86400), min_size=1, max_size=8))
    earliest, latest = FIRST_STAMP - base, LAST_STAMP - base
    return [base + min(max(timedelta(seconds=move), earliest), latest) for move in moves]


@settings(max_examples=300, deadline=None)
@given(
    stamps=clustered_stamps(),
    granularity=st.sampled_from(["hour", "day"]),
    tz=st.integers(-840, 840),
    one_shot=st.booleans(),
)
# before 1970, where truncating toward zero picks the next bucket
@example(stamps=[datetime(1969, 12, 31, 23, 30, tzinfo=timezone.utc)], granularity="hour",
         tz=0, one_shot=False)
@example(stamps=[datetime(1969, 12, 31, 23, 30, tzinfo=timezone.utc)], granularity="day",
         tz=0, one_shot=False)
# the first and the last bucket a datetime can hold, and one second past each
@example(stamps=[FIRST_STAMP], granularity="hour", tz=0, one_shot=False)
@example(stamps=[FIRST_STAMP], granularity="day", tz=0, one_shot=False)
@example(stamps=[LAST_STAMP], granularity="hour", tz=0, one_shot=False)
@example(stamps=[LAST_STAMP], granularity="day", tz=0, one_shot=False)
@example(stamps=[FIRST_STAMP + timedelta(minutes=1)], granularity="hour", tz=-2, one_shot=True)
@example(stamps=[LAST_STAMP - timedelta(seconds=59)], granularity="day", tz=1, one_shot=True)
# the error names the first tweet out of range, not the first in the list
@example(stamps=[LAST_STAMP - timedelta(hours=2), LAST_STAMP, LAST_STAMP - timedelta(minutes=1)],
         granularity="hour", tz=60, one_shot=True)
def test_histogram_matches_the_datetime_oracle(stamps, granularity, tz, one_shot):
    tweets = [make_tweet(position, created_at=stamp) for position, stamp in enumerate(stamps, 1)]
    try:
        expected = kept_histogram(tweets, granularity, tz)
    except ValueError as error:
        expected = str(error)
    try:
        got = histogram(iter(tweets) if one_shot else tweets, granularity, tz)
    except ValueError as error:
        got = str(error)
    assert got == expected


# --- rankings ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tweets=nonempty_corpora)
def test_ranking_scores_add_up(tweets):
    activity = top_users_by_activity(tweets, len(tweets) + 1)
    assert sum(entry.score for entry in activity) == len(tweets)
    retweet_total = sum(1 for t in tweets if t.retweet_of is not None)
    received = top_users_by_received_retweets(tweets, len(tweets) + 1)
    assert sum(entry.score for entry in received) == retweet_total


@settings(max_examples=40, deadline=None)
@given(tweets=nonempty_corpora)
def test_ranks_are_sequential_and_scores_sorted(tweets):
    entries = top_users_by_activity(tweets, 15)
    assert [e.rank for e in entries] == list(range(1, len(entries) + 1))
    scores = [e.score for e in entries]
    assert scores == sorted(scores, reverse=True)


@settings(max_examples=40, deadline=None)
@given(tweets=corpora)
@example(tweets=[make_tweet(i, author=name) for i, name in enumerate("aaabbcc", start=1)])
def test_counters_merge_across_shards(tweets):
    half = len(tweets) // 2
    assert (
        activity_counts(tweets[:half]) + activity_counts(tweets[half:])
        == activity_counts(tweets)
    )
    assert (
        received_retweet_counts(tweets[:half])
        + received_retweet_counts(tweets[half:])
        == received_retweet_counts(tweets)
    )


def full_sort_ranking(tweets, count_source):
    """(id, score, author, text) of every candidate original, by one full sort.

    Scores and display fields are worked out per candidate from the
    whole list; ids in ``tweets`` are unique.
    """
    seen = {tweet.id: tweet for tweet in tweets}
    reposts = {}
    for tweet in tweets:
        if tweet.retweet_of is not None:
            reposts.setdefault(tweet.retweet_of.original_tweet_id, []).append(tweet)

    def score(original_id):
        if count_source == "observed":
            return len(reposts.get(original_id, []))
        return max(
            (
                tweet.retweet_count
                for tweet in tweets
                if tweet.retweet_count is not None
                and (tweet.retweet_of.original_tweet_id if tweet.retweet_of else tweet.id)
                == original_id
            ),
            default=0,
        )

    candidates = {tweet.id for tweet in tweets if tweet.retweet_of is None} | set(reposts)
    rows = []
    for original_id in sorted(candidates, key=lambda original_id: (-score(original_id), original_id)):
        if original_id in seen:
            author, text = seen[original_id].author, seen[original_id].text
        else:
            carrier = min(reposts[original_id], key=lambda tweet: tweet.id)
            author = carrier.retweet_of.original_author
            text = carrier.text.removeprefix(f"RT @{author}: ")
        rows.append((original_id, score(original_id), author, text))
    return rows


@settings(max_examples=40, deadline=None)
@given(tweets=corpora, count_source=st.sampled_from(["observed", "embedded"]))
# an original seen only through its reposts, whose texts differ, and
# ties at score 0
@example(
    tweets=[
        make_tweet(3, author="a"),
        make_tweet(1, author="b"),
        make_tweet(5, author="c", text="RT @d: kaixo…", retweet_of=(9, "d"), retweet_count=0),
        make_tweet(4, author="e", text="RT @d: kaixo denoi", retweet_of=(9, "d")),
    ],
    count_source="embedded",
)
def test_top_tweets_are_the_full_sort_cut_at_k(tweets, count_source):
    ranking = full_sort_ranking(tweets, count_source)
    for k in range(1, len(ranking) + 3):
        top = top_tweets_by_retweets(tweets, k, count_source)
        assert [(row.key, row.score, row.author, row.text) for row in top] == ranking[:k]
        assert [row.rank for row in top] == list(range(1, len(top) + 1))
    assert top_tweets_by_retweets(iter(tweets), len(ranking) + 1, count_source) == top


# --- parsing round trip -------------------------------------------------------


def record_for(tweet) -> str:
    kwargs = dict(
        id=tweet.id,
        created_at=tweet.created_at,
        screen_name=tweet.author,
        text=tweet.text,
    )
    if tweet.hashtags:
        kwargs["hashtags"] = list(tweet.hashtags)
    if tweet.retweet_of is not None:
        kwargs["retweet"] = (
            tweet.retweet_of.original_tweet_id,
            tweet.retweet_of.original_author,
            tweet.retweet_count,
        )
    elif tweet.retweet_count is not None:
        kwargs["retweet_count"] = tweet.retweet_count
    if tweet.reply_to is not None:
        kwargs["reply_to"] = tweet.reply_to
    if tweet.coords is not None:
        kwargs["geo"] = tweet.coords
    return record_line(**kwargs)


@settings(max_examples=40, deadline=None)
@given(tweets=nonempty_corpora)
def test_serialized_corpus_parses_back_identically(tweets):
    for tweet in tweets:
        assert parse_tweet(record_for(tweet)) == tweet


# --- record rules ------------------------------------------------------------


HOSTILE_NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([MAX_ID, MAX_ID + 1, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
HOSTILE_IDS = st.one_of(
    HOSTILE_NUMBERS,
    # digits int() reads, and (last three) digits it rejects
    st.sampled_from(["3", "007", "\u0663", "\u0669\u0667\u0667", "\uff13", "\u00b2", "\u2460", "1" * 5000]),
    st.sampled_from(["-3", " 3", "3.0", "", "x"]),
)
HOSTILE_NAMES = st.one_of(
    st.sampled_from(["@", "@@@", "", "  ", " ane ", "ane@", "@@ane", " @ane", "@ @ane"]),
    st.text(max_size=3),
    HOSTILE_NUMBERS,
)
HOSTILE_COUNTERS = st.one_of(HOSTILE_NUMBERS, st.sampled_from(["7", ""]))
COORD_LISTS = st.lists(
    st.one_of(
        st.floats(-180, 180),
        st.integers(-200, 200),
        st.sampled_from([10**400, -(10**400)]),
        HOSTILE_NUMBERS,
        st.sampled_from(["43.2", ""]),
    ),
    max_size=3,
)
COORD_CONTAINERS = st.one_of(
    COORD_LISTS.map(lambda pair: {"type": "Point", "coordinates": pair}),
    COORD_LISTS,
    st.sampled_from([None, "x", {}, {"coordinates": "43.2,-2.6"}, {"coordinates": {"0": 1}}]),
)
HOSTILE_USERS = st.one_of(
    st.builds(lambda name: {"screen_name": name}, HOSTILE_NAMES), HOSTILE_NAMES
)
HOSTILE_FIELDS = {
    "id": HOSTILE_IDS,
    "created_at": st.sampled_from(
        ["2015-03-19T18:00:00Z", "nope", "", 12, None, "Mon Jan 01 00:00:00 +0100 0001"]
    ),
    "user": HOSTILE_USERS,
    "text": st.one_of(st.sampled_from(["Gora #Korrika eta #AEK", "#"]), HOSTILE_NUMBERS),
    "entities": st.one_of(
        st.builds(
            lambda tags: {"hashtags": tags},
            st.lists(
                st.one_of(
                    st.builds(
                        lambda tag: {"text": tag}, st.one_of(st.text(max_size=3), HOSTILE_NUMBERS)
                    ),
                    st.sampled_from(["Korrika", None, {}]),
                ),
                max_size=3,
            ),
        ),
        st.sampled_from([None, [], {"hashtags": "Korrika"}]),
    ),
    "retweeted_status": st.one_of(
        st.fixed_dictionaries(
            {},
            optional={
                "id": st.one_of(st.integers(1, 3), HOSTILE_IDS),
                "user": HOSTILE_USERS,
                "retweet_count": HOSTILE_COUNTERS,
            },
        ),
        st.sampled_from([None, "x", []]),
    ),
    "retweet_count": HOSTILE_COUNTERS,
    "in_reply_to_screen_name": HOSTILE_NAMES,
    "coordinates": COORD_CONTAINERS,
    "geo": COORD_CONTAINERS,
}
LAT_LON = st.tuples(st.floats(-90, 90), st.floats(-180, 180))


@st.composite
def hostile_records(draw):
    """A valid record, then up to three of its fields given hostile values."""
    record = make_record(
        id=2,
        reply_to=draw(st.none() | st.sampled_from(["mikel", "@mikel", "@@mikel "])),
        coordinates=draw(st.none() | LAT_LON.map(lambda point: point[::-1])),
        geo=draw(st.none() | LAT_LON),
        retweet_count=draw(st.none() | st.integers(0, 500)),
        retweet=draw(st.none() | st.just((1, "bi", 5))),
    )
    for name in draw(st.lists(st.sampled_from(sorted(HOSTILE_FIELDS)), max_size=3, unique=True)):
        record[name] = draw(HOSTILE_FIELDS[name])
    return record


# parse_tweet as it was before the builder's per-line cost was cut: the
# decode and record rules verbatim, names prefixed "kept", with only Tweet
# shared, and the timestamp rule as the plain strptime -> fromisoformat
# chain. Kept as the reference; it must agree exactly.
KEPT_CLASSIC_FORMAT = "%a %b %d %H:%M:%S %z %Y"
KEPT_HASHTAG = re.compile(r"#(\w+)")


def kept_parse_timestamp(value: object) -> datetime:
    if not isinstance(value, str) or not value.strip():
        raise ParseError("created_at", f"expected a timestamp string, got {value!r}")
    try:
        stamp = datetime.strptime(value, KEPT_CLASSIC_FORMAT)
    except ValueError:
        iso = value[:-1] + "+00:00" if value.endswith("Z") else value
        try:
            stamp = datetime.fromisoformat(iso)
        except ValueError:
            raise ParseError("created_at", f"unparseable timestamp: {value!r}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    try:
        return stamp.astimezone(timezone.utc).replace(microsecond=0)
    except OverflowError:
        raise ParseError("created_at", f"timestamp out of range: {value!r}") from None


def kept_parse_id(value: object, field_name: str) -> int:
    # ids may arrive as JSON numbers or as decimal digit strings; unlike
    # isdigit(), isdecimal() takes only digits int() reads (not "²" or "①")
    if isinstance(value, bool):
        raise ParseError(field_name, f"expected an integer id, got {value!r}")
    if isinstance(value, str) and value.isdecimal():
        try:
            value = int(value)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(field_name, "id has too many digits") from None
    if not isinstance(value, int):
        raise ParseError(field_name, f"missing or non-integer id: {value!r}")
    if not 0 < value <= MAX_ID:
        raise ParseError(field_name, f"id out of unsigned 64-bit range: {value}")
    return value


def kept_screen_name(value: object) -> str | None:
    if not isinstance(value, str):
        return None
    name = value.strip()
    while name.startswith("@"):
        name = name[1:].lstrip()
    return name or None


def kept_parse_screen_name(container: object, field_name: str) -> str:
    if isinstance(container, dict) and (name := kept_screen_name(container.get("screen_name"))):
        return name
    raise ParseError(field_name, "missing screen name")


def kept_counter(value: object) -> int | None:
    return value if type(value) is int and value >= 0 else None


def kept_on_globe(lat: float, lon: float) -> bool:
    return -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0


def kept_point(container: object, lat_at: int) -> tuple[float, float] | None:
    if not isinstance(container, dict):
        return None
    pair = container.get("coordinates")
    if not isinstance(pair, (list, tuple)) or len(pair) < 2:
        return None
    lat, lon = pair[lat_at], pair[1 - lat_at]
    numbers = type(lat) in (int, float) and type(lon) in (int, float)  # bools are not
    return (float(lat), float(lon)) if numbers and kept_on_globe(lat, lon) else None


def kept_parse_coords(record: dict) -> tuple[float, float] | None:
    return kept_point(record.get("coordinates"), 1) or kept_point(record.get("geo"), 0)


def kept_parse_retweet(record: dict, tweet_id: int) -> tuple[RetweetRef | None, int | None]:
    embedded = record.get("retweeted_status")
    if not isinstance(embedded, dict):
        # "RT @..." text prefixes do not count; only the embedded object does
        return None, None
    original_id = kept_parse_id(embedded.get("id"), "retweeted_status.id")
    if original_id == tweet_id:
        raise ParseError("retweeted_status.id", "retweet references itself")
    original_author = kept_parse_screen_name(
        embedded.get("user"), "retweeted_status.user.screen_name"
    )
    return RetweetRef(original_id, original_author), kept_counter(embedded.get("retweet_count"))


def kept_decode_record(line: str | bytes) -> dict:
    if isinstance(line, (bytes, bytearray)):
        try:
            line = bytes(line).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("line", "not valid UTF-8") from exc
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError("line", f"not valid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise ParseError("line", "JSON nested too deeply") from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise ParseError("line", f"not valid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise ParseError("line", "record is not a JSON object")
    return record


def kept_text_and_hashtags(record: dict) -> tuple[str, tuple[str, ...]]:
    text = record.get("text")
    if not isinstance(text, str):
        text = ""
    entities = record.get("entities")
    if isinstance(entities, dict) and isinstance(entities.get("hashtags"), list):
        return text, tuple(
            item["text"].lower()
            for item in entities["hashtags"]
            if isinstance(item, dict)
            and isinstance(item.get("text"), str)
            and item["text"]
        )
    return text, tuple(match.group(1).lower() for match in KEPT_HASHTAG.finditer(text))


def kept_build_tweet(record: dict, text: str, hashtags: tuple[str, ...]) -> Tweet:
    tweet_id = kept_parse_id(record.get("id"), "id")
    created_at = kept_parse_timestamp(record.get("created_at"))
    author = kept_parse_screen_name(record.get("user"), "user.screen_name")
    retweet_of, retweet_count = kept_parse_retweet(record, tweet_id)
    if retweet_of is None:
        retweet_count = kept_counter(record.get("retweet_count"))
    return Tweet(
        id=tweet_id,
        created_at=created_at,
        author=author,
        text=text,
        hashtags=hashtags,
        retweet_of=retweet_of,
        reply_to=kept_screen_name(record.get("in_reply_to_screen_name")),
        coords=kept_parse_coords(record),
        retweet_count=retweet_count,
    )


def kept_parse_tweet(line):
    record = kept_decode_record(line)
    return kept_build_tweet(record, *kept_text_and_hashtags(record))


def exact(parse, line):
    """The result and its repr (so 1 and 1.0 differ), or a ParseError's field and message."""
    try:
        tweet = parse(line)
    except ParseError as exc:
        return ("ParseError", exc.field, str(exc))
    return tweet, repr(tweet)


@settings(max_examples=600, deadline=None)
@given(record=hostile_records())
@example(record=make_record(retweeted_status=None))
@example(record=make_record(retweeted_status="x"))
@example(record=make_record(retweeted_status=[]))
@example(record=make_record(retweeted_status=0))
@example(record=make_record(reply_to=""))
@example(record=make_record(reply_to=5))
@example(record={**make_record(geo=(43.26, -2.67)), "coordinates": None})
@example(record=make_record(created_at="2015-03-19T10:05:00.500000Z", coordinates=(-2, 43)))
@example(record=make_record(geo=(43.26, -2.67)))
@example(record=make_record(coordinates=(-2.67, 43.26), geo=(10**400, 1)))
@example(record=make_record(geo=(10**400, 1)))
@example(record=make_record(geo=(True, 5)))
@example(record=make_record(retweet_count=True))
@example(record=make_record(retweet=(2, "bi", False)))
@example(record=make_record(reply_to="@@mikel "))
@example(record=make_record(screen_name=" @ane", reply_to="@ @mikel", retweet=(1, "\t@bi")))
@example(record=make_record(id="²"))
@example(record=make_record(id=1, retweet=("①", "bi")))
def test_parse_tweet_matches_the_kept_copy_exactly(record):
    line = json.dumps(record)
    assert exact(parse_tweet, line) == exact(kept_parse_tweet, line)
    assert exact(parse_tweet, line.encode()) == exact(kept_parse_tweet, line.encode())


def fold(lines, dedupe):
    """parse_tweet over each line, first occurrence of an id kept when deduping."""
    tweets, seen, stats = [], set(), ParseStats()
    for line in lines:
        stats.total_lines += 1
        try:
            tweet = parse_tweet(line)
        except ParseError:
            stats.skipped_malformed += 1
            continue
        if dedupe and tweet.id in seen:
            stats.duplicates_dropped += 1
            continue
        seen.add(tweet.id)
        tweets.append(tweet)
        stats.parsed += 1
    return tweets, stats


# valid records whose ids repeat, hostile records, then blank, broken,
# non-object, non-UTF-8 and BOM-led lines
ARCHIVE_LINES = st.one_of(
    st.builds(lambda i: record_line(id=i).encode(), st.integers(1, 4)),
    hostile_records().map(lambda record: json.dumps(record).encode()),
    st.sampled_from([
        b"", b"  ", b"{oops", b"[1, 2]",
        record_line(id=3).encode().replace(b"kaixo", b"ka\xffxo"),
        "\ufeff".encode() + record_line(id=4).encode(),
    ]),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.tuples(ARCHIVE_LINES, st.sampled_from([b"\n", b"\r\n"])), max_size=25))
@example(lines=[(line.encode(), b"\n") for line in [
    record_line(id=1), "{oops", "", "[1,2]", '{"id": 1}', record_line(id=2), record_line(id=1),
]])
def test_read_archive_is_the_per_line_fold(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.jsonl"
        path.write_bytes(b"".join(line + end for line, end in lines))
        for dedupe in (False, True):
            tweets, stats = read_archive(path, dedupe=dedupe)
            expected, expected_stats = fold([line for line, _ in lines], dedupe)
            assert (tweets, repr(tweets), stats) == (expected, repr(expected), expected_stats)


def rebuilt(tweet: Tweet) -> Tweet:
    """The same fields through the public constructor, so through its checks."""
    return Tweet(*tweet)


@settings(max_examples=300, deadline=None)
@given(records=st.lists(hostile_records(), min_size=1, max_size=4))
@example(records=[make_record(id=2, coordinates=(-2, 43), retweet=(1, "@bi", 5), reply_to="@mikel")])
def test_built_tweets_pass_the_public_constructor(records):
    # the builder skips the constructor's checks; each Tweet it returns
    # must be one that Tweet(*fields) accepts and equals, down to the repr
    lines = [json.dumps(record) for record in records]
    tweets = []
    for line in lines:
        try:
            tweets.append(parse_tweet(line))
        except ParseError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        tweets += read_archive(path)[0]
    for tweet in tweets:
        public = rebuilt(tweet)
        assert (public, repr(public)) == (tweet, repr(tweet))


# --- parse cache: cold, warm and fresh-interpreter reads agree ---------------

# all of Unicode, lone surrogates and control characters included; the
# sampled ones are drawn often, where the whole range rarely gives them
UNICODE_CHARACTERS = st.characters(exclude_categories=()) | st.sampled_from(
    ["\ud800", "\udc00", "\udfff", "\x00", "\x01", "\n", "\x7f", "\u2028", "\ufeff", "é"]
)
ALL_UNICODE = st.text(UNICODE_CHARACTERS, max_size=6)
EDGE_STAMPS = st.sampled_from([
    "0001-01-01T00:00:00Z",
    "Mon Jan 01 01:00:00 +0100 0001",
    "Mon Jan 01 00:59:59 +0100 0001",  # before year 1 in UTC: malformed
    "9999-12-31T23:59:59Z",
    "Fri Dec 31 22:29:59 -0130 9999",
    "Fri Dec 31 23:59:59 -0130 9999",  # past year 9999 in UTC: malformed
    "Thu Mar 19 10:05:00 +0545 2015",
    "2015-03-19T10:05:00-08:00",
])
EDGE_IDS = st.sampled_from([1, 2, 3, MAX_ID - 1, MAX_ID])
SIGNED_ZEROS = st.sampled_from([-0.0, 0.0])


@st.composite
def cache_records(draw):
    """A record to stress an entry: all of Unicode, the ends of the id and date ranges, -0.0."""
    return make_record(
        id=draw(EDGE_IDS),
        created_at=draw(EDGE_STAMPS),
        screen_name=draw(ALL_UNICODE),
        text=draw(ALL_UNICODE),
        hashtags=draw(st.none() | st.lists(ALL_UNICODE, max_size=3)),
        retweet=draw(
            st.none() | st.tuples(EDGE_IDS, ALL_UNICODE, st.none() | st.integers(0, 2**63))
        ),
        reply_to=draw(st.none() | ALL_UNICODE),
        geo=draw(st.none() | st.tuples(
            SIGNED_ZEROS | st.floats(-90, 90), SIGNED_ZEROS | st.floats(-180, 180)
        )),
        retweet_count=draw(st.none() | st.integers(0, 10)),
    )


# a lone surrogate written raw ("surrogatepass") is not UTF-8: a malformed line
CACHE_LINES = st.one_of(
    cache_records().map(lambda record: json.dumps(record).encode()),
    cache_records().map(lambda record: json.dumps(record, ensure_ascii=False).encode(
        "utf-8", "surrogatepass")),
    ARCHIVE_LINES,
)


@settings(max_examples=30, deadline=None)
@given(
    lines=st.lists(st.tuples(CACHE_LINES, st.sampled_from([b"\n", b"\r\n"])), max_size=12),
    last_end=st.sampled_from([b"", b"\n"]),
)
# a non-UTC offset that stays in range, and one that leaves it
@example(lines=[(line.encode(), b"\n") for line in [
    record_line(id=1, created_at="Mon Jan 01 01:00:00 +0100 0001"),
    record_line(id=2, created_at="Mon Jan 01 00:59:59 +0100 0001"),
    record_line(id=3, created_at="Fri Dec 31 23:59:59 -0130 9999"),
    record_line(id=4, created_at="2015-03-19T10:05:00+05:45"),
    json.dumps(make_record(id=5, text="-0.0", geo=(-0.0, -0.0))),
]], last_end=b"\n")
def test_cold_warm_and_fresh_interpreter_reads_agree(lines, last_end):
    cache = Path(os.environ["XDG_CACHE_HOME"]) / "eventpulse"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.jsonl"
        path.write_bytes(b"".join(line + end for line, end in lines[:-1])
                         + b"".join(line + last_end for line, _ in lines[-1:]))
        cold = []
        for dedupe in (False, True):
            shutil.rmtree(cache, ignore_errors=True)
            forget_last_read()
            cold.append(shown(read_archive(path, dedupe=dedupe)))  # parses, and writes the entry
        assert len(list(cache.glob("*.jsonl"))) == 1
        forget_last_read()  # the warm reads load the entry
        refuse = AssertionError("a record was parsed: the read missed the cache")
        with mock.patch.object(tweets_module, "_decode_record", side_effect=refuse), \
                mock.patch.object(tweets_module, "_build_tweet", side_effect=refuse):
            warm = [read_archive(path, dedupe=dedupe) for dedupe in (False, True)]
        assert [shown(read) for read in warm] == cold
        for tweet in warm[0][0]:
            public = rebuilt(tweet)
            assert (public, repr(public)) == (tweet, repr(tweet))
        done = fresh_interpreter(FRESH_INTERPRETER_READ, str(path), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == cold


# --- every analysis command over names from all of Unicode --------------------

UNICODE_NAMES = st.text(UNICODE_CHARACTERS, min_size=1, max_size=4)


@st.composite
def unicode_archives(draw) -> list[str]:
    """Up to six records among up to three names; names and texts from all of Unicode."""
    names = draw(st.lists(UNICODE_NAMES, min_size=1, max_size=3))
    records = []
    for number in range(1, draw(st.integers(1, 6)) + 1):
        records.append(make_record(
            id=number,
            created_at=datetime(2015, 3, 19, tzinfo=timezone.utc) + timedelta(minutes=37 * number),
            screen_name=draw(st.sampled_from(names)),
            text=draw(st.text(UNICODE_CHARACTERS, max_size=8)),
            retweet=draw(st.none() | st.tuples(st.integers(100, 101), st.sampled_from(names),
                                               st.integers(0, 9))),
            reply_to=draw(st.none() | st.sampled_from(names)),
            geo=draw(st.none() | st.just((43.26, -2.67))),
        ))
    return [json.dumps(record) for record in records]  # escapes surrogates: UTF-8 lines


def snapshot(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def restore(directory: Path, files: dict[str, bytes]) -> None:
    for path in directory.iterdir():
        if path.name not in files:
            path.unlink()
    for name, data in files.items():
        (directory / name).write_bytes(data)


def csv_parses(text: str) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    return bool(rows) and len({len(row) for row in rows}) == 1


def outputs_parse(argv: list[str], printed: str, directory: Path) -> bool:
    """Whether what a successful command printed and wrote reads back as its format."""
    if "csv" in argv:
        # interactions prints its summary line before the communities CSV
        if not csv_parses(printed.split("\n", 1)[1] if argv[0] == "interactions" else printed):
            return False
    for name in ("h.dat", "c.csv", "e.csv", "g.gexf"):
        path = directory / name
        if not path.exists():
            continue
        text = path.read_text("utf-8")
        if name == "h.dat":
            if not all(re.fullmatch(r"\S+\t\d+", line) for line in text.splitlines()):
                return False
        elif name == "g.gexf":
            if gexf_problems(path):
                return False
        elif not csv_parses(text):
            return False
    return True


def march_19(hour: int, minute: int) -> datetime:
    return datetime(2015, 3, 19, hour, minute, tzinfo=timezone.utc)


@settings(max_examples=25, deadline=None)
@given(lines=unicode_archives())
@example(lines=[  # hashtags and a GeoJSON point, which the drawn archives lack
    record_line(id=1, screen_name="ane", created_at=march_19(10, 5), text="bat #gora"),
    record_line(id=2, screen_name="ane", created_at=march_19(10, 59), text="bi"),
    record_line(id=3, screen_name="mikel", created_at=march_19(11, 0), text="RT @ane: bat #gora",
                retweet=(1, "ane")),
    record_line(id=4, screen_name="jon", created_at=march_19(11, 30), text="erantzuna",
                reply_to="ane", coordinates=(-2.67, 43.26)),
])
def test_every_command_succeeds_whole_or_fails_whole_cold_and_warm(lines):
    cache = Path(os.environ["XDG_CACHE_HOME"]) / "eventpulse"
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        archive = write_archive(directory / "a.jsonl", lines)
        before = snapshot(directory)
        for command in ANALYSIS_COMMANDS:
            argv = [arg.format(archive=archive, dir=directory) for arg in command]
            for encoding in ("utf-8", "ascii"):
                shutil.rmtree(cache, ignore_errors=True)
                runs = []
                # the first run parses and writes the entry, the second loads it, and the
                # third takes the second's result from the slot
                for forget in (True, True, False):
                    if forget:
                        forget_last_read()  # which may hold this archive from the last run
                    restore(directory, before)
                    code, printed, errors = run_with_stdout(argv, encoding)
                    runs.append((code, printed, errors, snapshot(directory)))
                    assert len(list(cache.glob("*.jsonl"))) == 1
                    if code == 0:
                        assert errors == ""
                        assert outputs_parse(argv, printed.decode(encoding), directory), argv
                    else:
                        assert code == 1 and printed == b"", (argv, code, errors)
                        [line] = errors.splitlines()
                        assert line.startswith("error: ")
                        assert snapshot(directory) == before
                assert runs[0] == runs[1] == runs[2], (argv, encoding)


# --- timestamps --------------------------------------------------------------

WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


@st.composite
def classic_fields(draw):
    """Fields of a classic stamp; the weekday is drawn apart from the date."""
    day = draw(st.dates(min_value=date(1, 1, 1)))
    moment = draw(st.times())
    sign = draw(st.sampled_from("+-"))
    return {
        "weekday": draw(st.sampled_from(WEEKDAYS)),
        "month": MONTHS[day.month - 1],
        "day": f"{day.day:02d}",
        "time": f"{moment.hour:02d}:{moment.minute:02d}:{moment.second:02d}",
        "offset": f"{sign}{draw(st.integers(0, 23)):02d}{draw(st.integers(0, 59)):02d}",
        "year": f"{day.year:04d}",
    }


def classic(fields) -> str:
    return "{weekday} {month} {day} {time} {offset} {year}".format(**fields)


@st.composite
def near_miss_stamps(draw):
    fields = draw(classic_fields())
    kind = draw(
        st.sampled_from(
            ["case", "padded day", "unicode digit", "offset minutes",
             "offset hours", "feb 29", "leap second", "length"]
        )
    )
    if kind == "case":
        name = draw(st.sampled_from(["weekday", "month"]))
        fields[name] = draw(st.sampled_from([str.lower, str.upper]))(fields[name])
    elif kind == "padded day":
        fields["day"] = f" {draw(st.integers(1, 9))}"
    elif kind == "offset minutes":
        fields["offset"] = fields["offset"][:3] + str(draw(st.integers(60, 99)))
    elif kind == "offset hours":
        hours = draw(st.integers(24, 99))
        fields["offset"] = f"{fields['offset'][0]}{hours}{fields['offset'][3:]}"
    elif kind == "feb 29":
        year = draw(st.integers(1, 9999).filter(lambda y: not calendar.isleap(y)))
        fields.update(month="Feb", day="29", year=f"{year:04d}")
    elif kind == "leap second":
        fields["time"] = fields["time"][:6] + draw(st.sampled_from(["60", "61"]))
    stamp = classic(fields)
    if kind == "unicode digit":
        at = draw(st.sampled_from([i for i, c in enumerate(stamp) if c.isdigit()]))
        # Arabic-Indic and fullwidth digits: strptime reads them, the fast path must not
        digit = draw(st.sampled_from("\u0661\u0669\uff10\uff19"))
        stamp = stamp[:at] + digit + stamp[at + 1:]
    elif kind == "length":
        at = draw(st.integers(0, len(stamp) - 1))
        if draw(st.booleans()):
            stamp = stamp[:at] + stamp[at + 1:]
        else:
            stamp = stamp[:at] + draw(st.sampled_from(" 0")) + stamp[at:]
    return stamp


@settings(max_examples=400, deadline=None)
@given(st.one_of(classic_fields().map(classic), near_miss_stamps()))
@example("Thu Mar 19 10:05:00 +0000 2015")
@example("Thu Mar 19 10:05:00 -0000 2015")
@example("2015-03-19T10:05:00Z")
@example("2015-03-19T10:05:00+00:00")
@example("2015-03-19T10:05:00.500000Z")  # microseconds still dropped
@example("Thu Dec 31 23:30:00 -0100 2015")  # 2016 in UTC
@example("Thu Mar 19 10:05:00 +1000 2015")
@example("0Thu Mar 19 10:05:00 +0000 2015")  # a leading digit skips strptime
@example("Thu Mar 19 10:05:00 +2359 2015")  # the widest offsets the layout can spell
@example("Thu Mar 19 10:05:00 -2359 2015")
@example("Sat Feb 29 23:59:59 -0000 2020")  # Feb 29 in a leap year
@example("Sun Feb 29 12:00:00 +0000 2015")  # and in a common year
@example("Thu Mar 19 10:05:60 +0000 2015")  # second 60
@example("Thu Mar 19 24:00:00 +0000 2015")  # hour 24, which strptime never reads
@example("Mon Jan 01 00:30:00 +0100 0001")  # UTC falls before year 1
@example("Fri Dec 31 23:30:00 -0100 9999")  # UTC falls after year 9999
def test_timestamp_fast_path_matches_strptime_chain(stamp):
    assert exact(_parse_timestamp, stamp) == exact(kept_parse_timestamp, stamp)


# --- track matching -----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(tweets=nonempty_corpora, data=st.data())
def test_own_hashtag_always_matches(tweets, data):
    tagged = [t for t in tweets if t.hashtags]
    if not tagged:
        return
    tweet = data.draw(st.sampled_from(tagged))
    term = data.draw(st.sampled_from(list(tweet.hashtags)))
    assert matches_track(tweet, (term,))
    assert matches_track(tweet, (term.upper(),))
    assert matches_track(tweet, (f"#{term}",))


@settings(max_examples=50, deadline=None)
@given(tweets=corpora)
def test_absent_term_never_matches(tweets):
    for tweet in tweets:
        assert not matches_track(tweet, ("zzz_inexistent_zzz",))


# --- coordinates ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tweets=corpora)
def test_coordinate_rows_cover_exactly_the_geotagged(tweets):
    rows = extract_coordinates(tweets)
    geotagged = [t for t in tweets if t.coords is not None]
    assert [row[0] for row in rows] == [t.id for t in geotagged]
    for row, tweet in zip(rows, geotagged):
        assert (row[1], row[2]) == tweet.coords
        assert -90 <= row[1] <= 90
        assert -180 <= row[2] <= 180


# --- graphs --------------------------------------------------------------------


short_names = st.text(alphabet="abcde", min_size=1, max_size=3)
quoted_names = st.text(alphabet='ab,"; é', min_size=1, max_size=6)


def graph_from(triples, merge=False):
    edges = [
        InteractionEdge(source, target, kind, position + 1)
        for position, (source, target, kind) in enumerate(triples)
    ]
    return aggregate(edges, merge_kinds=merge)


random_graphs = st.builds(
    graph_from,
    st.lists(
        st.tuples(
            short_names, short_names, st.sampled_from([KIND_RETWEET, KIND_REPLY])
        ),
        max_size=50,
    ),
    merge=st.booleans(),
)

quoted_graphs = st.builds(
    graph_from,
    st.lists(
        st.tuples(
            quoted_names, quoted_names, st.sampled_from([KIND_RETWEET, KIND_REPLY])
        ),
        max_size=30,
    ),
    merge=st.booleans(),
)


cased_names = st.text(alphabet="aAbBß", min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.dictionaries(
        st.tuples(cased_names, cased_names, st.sampled_from([KIND_RETWEET, KIND_REPLY, None])),
        st.integers(1, 5),
        max_size=30,
    ),
    nodes=st.sets(cased_names, max_size=6),
)
def test_edges_sort_by_the_name_order_of_both_ends_then_kind(edges, nodes):
    # nodes need not hold every endpoint
    graph = WeightedGraph(nodes=nodes, edges=edges)
    assert _sorted_edge_items(graph) == sorted(
        edges.items(),
        key=lambda item: (*_name_order(item[0][0]), *_name_order(item[0][1]), item[0][2] or ""),
    )


@settings(max_examples=40, deadline=None)
@given(graph=quoted_graphs)
def test_edge_csv_round_trip(graph):
    # newline="" reads it as a CSV file is read: line ends as written
    header, *rows = csv.reader(io.StringIO(export_edges_csv(graph), newline=""))
    with_kind = header == ["Source", "Target", "Weight", "Kind"]
    assert with_kind or header == ["Source", "Target", "Weight"]
    back = {
        (row[0], row[1], row[3] if with_kind else None): int(row[2]) for row in rows
    }
    assert len(back) == len(rows)
    assert back == graph.edges


# export_gexf as it was when it built an ElementTree, verbatim but for
# its name; the shared checks and the sort come from eventpulse.graph.
# Kept as the reference for the text writer, which must match its bytes.
def kept_export_gexf(
    graph: WeightedGraph, communities: dict[str, int], path: str | Path
) -> None:
    missing = graph.nodes - communities.keys()
    if missing:
        raise ValueError(f"no community for node(s): {sorted(missing)[:3]}")
    with_kind = any(key[2] is not None for key in graph.edges)

    ET.register_namespace("", GEXF_NAMESPACE)
    ns = f"{{{GEXF_NAMESPACE}}}"
    root = ET.Element(f"{ns}gexf", {"version": "1.2"})
    meta = ET.SubElement(root, f"{ns}meta")
    ET.SubElement(meta, f"{ns}creator").text = "eventpulse"
    graph_el = ET.SubElement(
        root, f"{ns}graph", {"defaultedgetype": "directed", "mode": "static"}
    )
    node_attrs = ET.SubElement(graph_el, f"{ns}attributes", {"class": "node"})
    ET.SubElement(
        node_attrs,
        f"{ns}attribute",
        {"id": "community", "title": "community", "type": "integer"},
    )
    if with_kind:
        edge_attrs = ET.SubElement(graph_el, f"{ns}attributes", {"class": "edge"})
        ET.SubElement(
            edge_attrs,
            f"{ns}attribute",
            {"id": "kind", "title": "kind", "type": "string"},
        )

    nodes_el = ET.SubElement(graph_el, f"{ns}nodes")
    for node in sorted(graph.nodes, key=_name_order):
        node_el = ET.SubElement(nodes_el, f"{ns}node", {"id": node, "label": node})
        values = ET.SubElement(node_el, f"{ns}attvalues")
        ET.SubElement(
            values,
            f"{ns}attvalue",
            {"for": "community", "value": str(communities[node])},
        )

    edges_el = ET.SubElement(graph_el, f"{ns}edges")
    for edge_id, ((source, target, kind), weight) in enumerate(
        _sorted_edge_items(graph)
    ):
        edge_el = ET.SubElement(
            edges_el,
            f"{ns}edge",
            {
                "id": str(edge_id),
                "source": source,
                "target": target,
                "weight": str(weight),
            },
        )
        if with_kind and kind is not None:
            values = ET.SubElement(edge_el, f"{ns}attvalues")
            ET.SubElement(values, f"{ns}attvalue", {"for": "kind", "value": kind})

    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    tree.write(path, encoding="utf-8", xml_declaration=True)


# any character XML 1.0 can carry, with the ones an attribute must escape
# and two outside the BMP drawn often
xml_names = st.text(
    st.one_of(
        st.sampled_from('&<>"\t\n\r aA\U0001f600\U0001d538'),
        st.characters(exclude_categories=("Cs",)).filter(
            lambda char: not _NOT_XML_CHAR.match(char)
        ),
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def gexf_cases(draw):
    """A graph over drawn names, some of them without edges, and its communities."""
    names = draw(st.lists(xml_names, max_size=8, unique=True))
    triples = []
    if names:
        triples = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(names),
                    st.sampled_from(names),
                    st.sampled_from([KIND_RETWEET, KIND_REPLY]),
                ),
                max_size=20,
            )
        )
    graph = graph_from(triples, merge=draw(st.booleans()))
    graph.nodes.update(names)
    communities = {node: draw(st.integers(0, 3)) for node in sorted(graph.nodes)}
    return graph, communities


@settings(max_examples=200, deadline=None)
@given(case=gexf_cases())
@example(case=(WeightedGraph(), {}))
@example(case=(WeightedGraph(nodes={"a&b"}), {"a&b": 0}))
@example(case=(graph_from([('<"\t\n\r>', "\U0001f600&", KIND_REPLY)]), {'<"\t\n\r>': 0, "\U0001f600&": 1}))
@example(case=(graph_from([("a", "b", KIND_RETWEET)], merge=True), {"a": 0, "b": 0}))
def test_gexf_text_writer_matches_the_kept_element_tree_writer(case):
    graph, communities = case
    kept = io.BytesIO()
    kept_export_gexf(graph, communities, kept)
    assert export_gexf(graph, communities).encode("utf-8") == kept.getvalue()


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs, top_n=st.integers(1, 10))
def test_notable_subgraph_is_idempotent_and_shrinking(graph, top_n):
    once = notable_subgraph(graph, top_n)
    assert len(once.nodes) <= top_n
    assert once.nodes <= graph.nodes
    assert notable_subgraph(once, top_n) == once


case_names = st.text(alphabet="aAkK", min_size=1, max_size=3)


@st.composite
def oracle_graphs(draw):
    """Graphs with self-loops, isolated nodes, names differing only by
    case, either kind setting, and edge endpoints missing from nodes."""
    kinds = st.sampled_from([KIND_RETWEET, KIND_REPLY])
    triples = draw(st.lists(st.tuples(case_names, case_names, kinds), max_size=40))
    loops = draw(st.lists(st.tuples(case_names, kinds), max_size=4))
    triples += [(name, name, kind) for name, kind in loops]
    graph = graph_from(triples, merge=draw(st.booleans()))
    graph.nodes |= draw(st.sets(st.text(alphabet="xX", min_size=1, max_size=2)))
    graph.nodes -= draw(st.sets(case_names, max_size=3))
    return graph


def reference_notable_subgraph(graph, top_n):
    def degree(node):
        out_weight = sum(w for (s, _t, _k), w in graph.edges.items() if s == node)
        in_weight = sum(w for (_s, t, _k), w in graph.edges.items() if t == node)
        return out_weight + in_weight

    ranked = sorted(graph.nodes, key=lambda node: (-degree(node), node.casefold(), node))
    keep = set(ranked[:top_n])
    return WeightedGraph(
        nodes=keep,
        edges={k: w for k, w in graph.edges.items() if k[0] in keep and k[1] in keep},
    )


@settings(max_examples=150, deadline=None)
@given(graph=oracle_graphs(), top_n=st.integers(1, 12))
def test_notable_subgraph_matches_brute_force_reference(graph, top_n):
    assert notable_subgraph(graph, top_n) == reference_notable_subgraph(graph, top_n)


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs, seed=st.integers(0, 999))
def test_label_propagation_is_deterministic_and_total(graph, seed):
    first = label_propagation(graph, seed=seed)
    second = label_propagation(graph, seed=seed)
    assert first == second
    assert set(first) == graph.nodes
    if first:
        labels = set(first.values())
        assert labels == set(range(len(labels)))


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs, seed=st.integers(0, 999))
def test_communities_never_span_components(graph, seed):
    communities = label_propagation(graph, seed=seed)
    components = union_find_components(graph)
    component_of_label: dict[int, str] = {}
    for node, label in communities.items():
        assert component_of_label.setdefault(label, components[node]) == components[node]


# --- collection ----------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    rewind=st.integers(0, 10),
    cuts=st.lists(st.integers(1, 400), max_size=3, unique=True),
)
def test_collection_counter_invariants(seed, rewind, cuts):
    rng = random.Random(seed)
    lines = []
    matching_ids = set()
    for _ in range(rng.randrange(0, 250)):
        roll = rng.random()
        if roll < 0.1:
            lines.append("{malformed")
        else:
            tweet_id = rng.randrange(1, 120)  # small range forces duplicates
            if roll < 0.6:
                lines.append(record_line(id=tweet_id, text="gora #proba"))
                matching_ids.add(tweet_id)
            else:
                lines.append(record_line(id=tweet_id, text="beste gai bat"))
    source = ReplaySource(lines, disconnect_after=cuts, rewind=rewind)
    clock = ManualClock()
    with tempfile.TemporaryDirectory() as tmp:
        job = CollectionJob("stream", "proba", ("#proba",), Path(tmp))
        stats = collect_stream(job, source, clock=clock)
        archives = sorted((Path(tmp) / "proba").glob("*.jsonl"))
        written_lines = b"".join(p.read_bytes() for p in archives).splitlines()
    assert stats.written <= stats.matched <= stats.received
    assert stats.received == (
        stats.malformed + stats.unmatched + stats.duplicate + stats.written
    )
    assert stats.reconnects == len(clock.waits)
    assert len(written_lines) == stats.written
    ids = [parse_tweet(line).id for line in written_lines]
    assert len(set(ids)) == len(ids)
    # replays re-deliver but never skip, so coverage is exact
    assert set(ids) == matching_ids

    # the same lines over search pages of random sizes
    pages, start = [], 0
    while start < len(lines):
        size = rng.randrange(1, 40)
        pages.append(lines[start : start + size])
        start += size
    with tempfile.TemporaryDirectory() as tmp:
        job = CollectionJob("search-recent", "proba", ("#proba",), Path(tmp))
        stats = collect_search(job, ScriptedSearchSource(pages), clock=ManualClock())
        archives = sorted((Path(tmp) / "proba").glob("*.jsonl"))
        written_lines = b"".join(p.read_bytes() for p in archives).splitlines()
    assert stats.written <= stats.matched <= stats.received == len(lines)
    assert stats.received == (
        stats.malformed + stats.unmatched + stats.duplicate + stats.written
    )
    assert {parse_tweet(line).id for line in written_lines} == matching_ids
    assert len(written_lines) == stats.written == len(matching_ids)


# The filter as it was before matching moved ahead of validation: a full
# parse_tweet of every line, then this term loop. Kept as the reference.
def reference_matches_track(tweet, track_terms) -> bool:
    tokens = None
    tags = {tag.casefold() for tag in tweet.hashtags}
    for term in track_terms:
        if term.startswith("#"):
            term = term[1:]
        term = term.casefold()
        if not term:
            continue
        if term in tags:
            return True
        if tokens is None:
            tokens = {match.casefold() for match in re.findall(r"[^\W_]+", tweet.text)}
        if term in tokens:
            return True
    return False


def reference_filter(lines, track_terms):
    """Per-line decisions, (received, matched, written) and archive bytes."""
    seen, decisions, archive = set(), [], b""
    for raw in lines:
        try:
            tweet = parse_tweet(raw)
        except ParseError:
            decisions.append("dropped")
            continue
        if not reference_matches_track(tweet, track_terms):
            decisions.append("dropped")
        elif tweet.id in seen:
            decisions.append("duplicate")
        else:
            seen.add(tweet.id)
            archive += raw + b"\n"
            decisions.append("written")
    matched = decisions.count("duplicate") + decisions.count("written")
    return decisions, (len(lines), matched, decisions.count("written")), archive


# casefold edge cases: Kelvin sign, sharp s, final and capital sigma, dotted I
FOLD_WORDS = [
    "korrika", "KORRIKA", "\u212aorrika", "korrikalari", "korrika19",
    "straße", "STRASSE", "ss", "ΟΔΟΣ", "οδος", "ς", "İstanbul", "i\u0307stanbul",
    "aek_eguna", "gora",
]
TRACK_TERMS = FOLD_WORDS + [
    "#korrika", "#Korrika", "##korrika", "#", "#korrika19", "#straße", "#οδος",
    "#İstanbul", "#aek_eguna",
]


def word_variants(terms):
    """Words near the track terms: case variants, tags and near misses."""
    words = st.one_of(
        st.sampled_from(terms + [term[1:] for term in terms if term.startswith("#")]),
        st.sampled_from(FOLD_WORDS),
    )
    return st.one_of(
        words,
        words.map(str.upper),
        words.map(str.lower),
        words.map("{}lari".format),
        st.text(max_size=4),
    )


@st.composite
def filter_line(draw, terms) -> bytes:
    kind = draw(st.sampled_from(
        ["entities only", "text only", "bad field", "not an object",
         "not utf-8", "broken json"]
    ))
    if kind == "not an object":
        return draw(st.sampled_from(
            [b"[1, 2]", b"3", b"null", b'"#korrika"', b'["#korrika"]']
        ))
    words = word_variants(terms)
    words = st.one_of(words, words.map("#{}".format))
    fields = {"id": draw(st.integers(1, 4))}  # small ids repeat
    if kind == "entities only":
        # tags that are not in the text, which has no term
        fields["hashtags"] = draw(st.lists(words, max_size=3))
        fields["text"] = "aupa zuek #denok"
    else:
        glue = draw(st.sampled_from([" ", ", ", " #", "_", ""]))
        fields["text"] = glue.join(draw(st.lists(words, max_size=5)))
    record = make_record(**fields)
    if kind == "bad field":
        field, value = draw(st.sampled_from([
            ("created_at", "nope"), ("created_at", 12), ("created_at", None),
            ("created_at", "Mon Jan 01 00:00:00 +0100 0001"),
            ("id", 0), ("id", -1), ("id", 2**64), ("id", "abc"), ("id", True),
            ("id", None), ("id", 1.5),
            ("user", {}), ("user", {"screen_name": "@"}), ("user", {"screen_name": ""}),
            ("user", "ane"),
            ("retweeted_status", {"id": record["id"], "user": {"screen_name": "bi"}}),
            ("retweeted_status", {"id": 99}),
            ("retweeted_status", {"id": "x", "user": {"screen_name": "bi"}}),
        ]))
        record[field] = value
    line = json.dumps(record, ensure_ascii=draw(st.booleans())).encode()
    if kind == "not utf-8":
        at = draw(st.integers(0, len(line)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        line = line[:at] + bad + line[at:]
    elif kind == "broken json":
        line = line[: draw(st.integers(0, len(line) - 1))]
    return line


@st.composite
def filter_cases(draw):
    """Track terms, with duplicates and case variants, and lines near them."""
    terms = draw(st.lists(
        st.one_of(st.sampled_from(TRACK_TERMS), st.text(max_size=4)), min_size=1, max_size=3
    ))
    variants = st.tuples(
        st.sampled_from(terms), st.sampled_from([str, str.upper, str.lower, "#{}".format])
    )
    terms += [variant(term) for term, variant in draw(st.lists(variants, max_size=2))]
    return terms, draw(st.lists(filter_line(terms), min_size=1, max_size=25))


def record_bytes(text, **fields) -> bytes:
    return json.dumps(make_record(text=text, **fields), ensure_ascii=False).encode()


@settings(max_examples=200, deadline=None)
@given(filter_cases())
# a token's fold is not the fold's token: "İ" folds to "i" + U+0307
@example((["İstanbul"], [record_bytes("gora İstanbul")]))
# the text's fold, not its lowercase, must contain the term
@example((["ΟΔΟΣ", "strasse"], [record_bytes("οδος"), record_bytes("straße", id=2)]))
# only the fold of an entity tag equals the term; one "#" is stripped
@example((["ss", "ς", "##korrika"], [
    record_bytes("aupa", hashtags=["ß"]), record_bytes("aupa", id=2, hashtags=["Σ"]),
    record_bytes("aupa", id=3, hashtags=["#korrika"]), record_bytes("korrika", id=4),
]))
# a matching line that fails validation is neither matched nor written
@example((["#korrika", "#"], [
    record_bytes("#korrika", created_at="nope"), record_bytes("#korrika", id=2**64),
    record_bytes("#korrika", id=5, user={"screen_name": "@"}),
    record_bytes("#korrika", id=6, retweet=(6, "bi")), record_bytes("#korrika", id=7),
]))
def test_filter_matches_parse_then_match_reference(case):
    terms, lines = case
    lines = [line for line in lines if line.strip()]  # blanks are keep-alives
    decisions, counts, archive = reference_filter(lines, terms)
    step = {"dropped": (0, 0), "duplicate": (1, 0), "written": (1, 1)}

    stats = CollectionStats()
    job = CollectionJob("stream", "proba", tuple(terms), Path("unused"))
    line_filter = _LineFilter(job, [], stats)  # a list stands in for the writer
    for raw, decision in zip(lines, decisions):
        before = (stats.matched, stats.written)
        line_filter.handle(raw)
        assert (stats.matched - before[0], stats.written - before[1]) == step[decision], raw
        assert stats.received == (
            stats.malformed + stats.unmatched + stats.duplicate + stats.written
        )

    with tempfile.TemporaryDirectory() as tmp:
        job = CollectionJob("stream", "proba", tuple(terms), Path(tmp))
        stats = collect_stream(job, ReplaySource(lines), clock=ManualClock())
        archives = sorted((Path(tmp) / "proba").glob("*.jsonl"))
        written = b"".join(path.read_bytes() for path in archives)
    assert (stats.received, stats.matched, stats.written) == counts
    assert written == archive


@settings(max_examples=30, deadline=None)
@given(tweets=nonempty_corpora)
def test_archive_bytes_survive_collection_untouched(tweets):
    lines = [record_for(tweet) for tweet in tweets]
    source = ReplaySource(lines)
    with tempfile.TemporaryDirectory() as tmp:
        job = CollectionJob("stream", "raw", ("mezua",), Path(tmp))
        collect_stream(job, source, clock=ManualClock())
        archives = sorted((Path(tmp) / "raw").glob("*.jsonl"))
        written = b"".join(p.read_bytes() for p in archives)
    seen_ids = set()
    expected = []
    for line in lines:
        tweet_id = parse_tweet(line).id
        if tweet_id not in seen_ids:
            seen_ids.add(tweet_id)
            expected.append(line.encode("utf-8"))
    assert written == b"".join(line + b"\n" for line in expected)


def test_make_record_helper_requires_no_entities_key():
    # guards the test helpers themselves: hashtags omitted means no entities
    record = make_record(id=1)
    assert "entities" not in record
