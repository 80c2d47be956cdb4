"""Property-based checks of the documented invariants."""

import calendar
import csv
import dataclasses
import json
import random
import re
import tempfile
import xml.etree.ElementTree as ET
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_record, random_corpus, record_line, write_archive
from eventpulse.analytics import (
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
    _check_names,
    _sorted_edge_items,
    aggregate,
    export_edges_csv,
    export_gexf,
    extract_interactions,
    label_propagation,
    notable_subgraph,
)
from eventpulse.tweets import (
    MAX_ID,
    ParseError,
    ParseStats,
    RetweetRef,
    Tweet,
    _name_order,
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
    tweets=corpora,
    granularity=st.sampled_from(["hour", "day"]),
    tz=st.integers(-840, 840),
)
def test_histogram_conserves_every_tweet(tweets, granularity, tz):
    buckets = histogram(tweets, granularity, tz)
    assert sum(b.count for b in buckets) == len(tweets)


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


# --- rankings ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tweets=nonempty_corpora, seed=st.integers(0, 999), k=st.integers(1, 20))
def test_rankings_ignore_input_order(tweets, seed, k):
    shuffled = tweets[:]
    random.Random(seed).shuffle(shuffled)
    assert top_users_by_activity(shuffled, k) == top_users_by_activity(tweets, k)
    assert top_users_by_received_retweets(
        shuffled, k
    ) == top_users_by_received_retweets(tweets, k)
    assert top_tweets_by_retweets(shuffled, k) == top_tweets_by_retweets(tweets, k)


@settings(max_examples=40, deadline=None)
@given(tweets=nonempty_corpora, k=st.integers(1, 20))
def test_top_k_is_a_prefix_of_top_k_plus_1(tweets, k):
    assert top_users_by_activity(tweets, k + 1)[:k] == top_users_by_activity(tweets, k)
    assert top_tweets_by_retweets(tweets, k + 1)[:k] == top_tweets_by_retweets(
        tweets, k
    )


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


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    flags=st.lists(st.sampled_from(["ok", "junk", "dupe"]), max_size=60),
)
def test_read_archive_accounting(seed, flags):
    rng = random.Random(seed)
    lines = []
    used_ids = []
    for flag in flags:
        if flag == "junk":
            lines.append(rng.choice(["{oops", "", "[1,2]", '{"id": 1}']))
        elif flag == "dupe" and used_ids:
            lines.append(record_line(id=rng.choice(used_ids)))
        else:
            new_id = len(used_ids) + 1
            used_ids.append(new_id)
            lines.append(record_line(id=new_id))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_archive(Path(tmp) / "a.jsonl", lines)
        tweets, stats = read_archive(path, dedupe=True)
    assert stats.total_lines == len(lines)
    assert (
        stats.total_lines
        == stats.parsed + stats.skipped_malformed + stats.duplicates_dropped
    )
    assert len(tweets) == stats.parsed
    assert len({t.id for t in tweets}) == len(tweets)


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
# decode, timestamp and record rules verbatim, names prefixed "kept", with
# only Tweet shared. Kept as the reference; it must agree exactly.
KEPT_CLASSIC_FORMAT = "%a %b %d %H:%M:%S %z %Y"
KEPT_MONTHS = {
    name: number
    for number, name in enumerate(
        "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split(), start=1
    )
}
# The exact 30-character spelling of KEPT_CLASSIC_FORMAT: names in the
# platform's case, zero-padded ASCII fields, offset minutes 00-59.
KEPT_CLASSIC_LAYOUT = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) (" + "|".join(KEPT_MONTHS) + ") "
    r"(\d\d) (\d\d):(\d\d):(\d\d) ([+-])(\d\d)([0-5]\d) (\d{4})",
    re.ASCII,
)
KEPT_HASHTAG = re.compile(r"#(\w+)")


def kept_classic_stamp(value: str) -> datetime | None:
    match = KEPT_CLASSIC_LAYOUT.fullmatch(value)
    if match is None:
        return None
    month, day, hour, minute, second, sign, off_hours, off_minutes, year = (
        match.groups()
    )
    offset = int(off_hours) * 60 + int(off_minutes)
    try:
        tz = (
            timezone.utc
            if offset == 0
            else timezone(timedelta(minutes=-offset if sign == "-" else offset))
        )
        return datetime(
            int(year), KEPT_MONTHS[month], int(day),
            int(hour), int(minute), int(second), tzinfo=tz,
        )
    except ValueError:  # Feb 30, second 60, offset of 24 h or more, year 0
        return None


def kept_parse_timestamp(value: object) -> datetime:
    if not isinstance(value, str) or not value.strip():
        raise ParseError("created_at", f"expected a timestamp string, got {value!r}")
    try:
        stamp = kept_classic_stamp(value) or datetime.strptime(value, KEPT_CLASSIC_FORMAT)
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
    """The Tweet and its repr (so 1 and 1.0 differ), or a ParseError's field and message."""
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
def test_read_archive_is_the_per_line_fold(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.jsonl"
        path.write_bytes(b"".join(line + end for line, end in lines))
        for dedupe in (False, True):
            tweets, stats = read_archive(path, dedupe=dedupe)
            expected, expected_stats = fold([line for line, _ in lines], dedupe)
            assert (tweets, repr(tweets), stats) == (expected, repr(expected), expected_stats)


def rebuilt(tweet: Tweet) -> Tweet:
    """The same fields through the public constructor, so through __post_init__."""
    return Tweet(*(getattr(tweet, field.name) for field in dataclasses.fields(Tweet)))


@settings(max_examples=300, deadline=None)
@given(records=st.lists(hostile_records(), min_size=1, max_size=4))
@example(records=[make_record(id=2, coordinates=(-2, 43), retweet=(1, "@bi", 5), reply_to="@mikel")])
def test_built_tweets_pass_the_public_constructor(records):
    # the builder skips __post_init__; each Tweet it returns must be one
    # that Tweet(*fields) accepts and equals, down to the repr
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


# --- timestamps --------------------------------------------------------------

WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


def reference_parse_timestamp(value: str) -> datetime | None:
    """The strptime -> fromisoformat chain alone; None where it must fail."""
    try:
        stamp = datetime.strptime(value, "%a %b %d %H:%M:%S %z %Y")
    except ValueError:
        iso = value[:-1] + "+00:00" if value.endswith("Z") else value
        try:
            stamp = datetime.fromisoformat(iso)
        except ValueError:
            return None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    try:
        return stamp.astimezone(timezone.utc).replace(microsecond=0)
    except OverflowError:  # the UTC instant is outside years 1-9999
        return None


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
    expected = reference_parse_timestamp(stamp)
    if expected is None:
        with pytest.raises(ParseError):
            _parse_timestamp(stamp)
        return
    parsed = _parse_timestamp(stamp)
    assert parsed == expected
    assert parsed.tzinfo is timezone.utc and parsed.microsecond == 0


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


@settings(max_examples=40, deadline=None)
@given(tweets=corpora)
def test_edge_extraction_count_identity(tweets):
    edges = extract_interactions(tweets)
    retweets = sum(1 for t in tweets if t.retweet_of is not None)
    replies = sum(1 for t in tweets if t.reply_to is not None)
    assert len(edges) == retweets + replies


@settings(max_examples=40, deadline=None)
@given(tweets=corpora, merge=st.booleans())
def test_aggregate_weight_identity(tweets, merge):
    edges = extract_interactions(tweets)
    graph = aggregate(edges, merge_kinds=merge)
    assert graph.total_weight() == len(edges)
    for key, weight in graph.edges.items():
        assert weight >= 1
        assert key[0] in graph.nodes and key[1] in graph.nodes


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


@settings(max_examples=40, deadline=None)
@given(graph=quoted_graphs)
def test_edge_csv_round_trip(graph):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.csv"
        export_edges_csv(graph, path)
        with open(path, encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
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
    _check_names(graph, _NOT_XML_CHAR, "XML 1.0")
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
    with tempfile.TemporaryDirectory() as tmp:
        text, kept = Path(tmp) / "text.gexf", Path(tmp) / "kept.gexf"
        export_gexf(graph, communities, text)
        kept_export_gexf(graph, communities, kept)
        assert text.read_bytes() == kept.read_bytes()


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

    parent = {node: node for node in graph.nodes}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for source, target, _kind in graph.edges:
        parent[find(source)] = find(target)

    component_of_label: dict[int, str] = {}
    for node, label in communities.items():
        root = find(node)
        assert component_of_label.setdefault(label, root) == root


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
