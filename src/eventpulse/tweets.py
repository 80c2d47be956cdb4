"""Parse line-delimited post archives into typed tweet records.

An archive is a UTF-8 text file with one JSON record per line, LF
terminated. Records follow the classic 2015-era platform layout; the
fields read here are ``id``, ``created_at``, ``user.screen_name``,
``text``, ``entities.hashtags``, ``retweeted_status``,
``in_reply_to_screen_name`` and the two coordinate containers
(GeoJSON-style ``coordinates`` preferred, legacy ``geo`` as fallback).

Parsing never rewrites archive lines: the collector stores raw bytes
and this module only builds an in-memory view of them.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "MAX_ID",
    "ParseError",
    "ParseStats",
    "RetweetRef",
    "Tweet",
    "parse_tweet",
    "read_archive",
]

# Post ids are unsigned 64-bit on the platform.
MAX_ID = 2**64 - 1

_CLASSIC_FORMAT = "%a %b %d %H:%M:%S %z %Y"
_MONTHS = {
    name: number
    for number, name in enumerate(
        "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split(), start=1
    )
}
# The exact 30-character spelling of _CLASSIC_FORMAT: names in the
# platform's case, zero-padded ASCII fields, hours 00-23, offset minutes
# 00-59. A match fixes where each field sits, so the fields are moved by
# slice into an ISO-8601 stamp that the C ``datetime.fromisoformat``
# reads. Hour 24 is left out because some Python versions read
# ``T24:00:00`` as the next midnight, which ``strptime`` never does.
_CLASSIC_LAYOUT = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) (?:" + "|".join(_MONTHS) + ") "
    r"\d\d (?:[01]\d|2[0-3]):\d\d:\d\d [+-]\d\d[0-5]\d \d{4}",
    re.ASCII,
)
_MONTH_DIGITS = {name: f"{number:02d}" for name, number in _MONTHS.items()}
_HASHTAG = re.compile(r"#(\w+)")


class ParseError(ValueError):
    """A record could not be turned into a Tweet.

    ``field`` names the offending part of the record ("line" for
    syntax-level failures).
    """

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class RetweetRef(NamedTuple):
    """Provenance of a retweet: the reposted original."""

    original_tweet_id: int
    original_author: str


@dataclass(frozen=True, slots=True)
class Tweet:
    """One post, reduced to the fields the analytics need.

    A Tweet built by hand is held to the archive reader's rules: each
    field must already be in the form the reader gives it, and
    ``__post_init__`` asks the reader's own rule whether it is. Any
    other value raises ParseError (a ValueError) naming the field.
    Hashtags are turned into a tuple and integer coordinates into a
    tuple of floats. The archive reader builds Tweets without
    ``__post_init__``, from fields its rules have just given (see
    ``_build_tweet``).

    Attributes:
        id: Unique post identifier, 0 < id < 2**64.
        created_at: Timezone-aware UTC timestamp, second precision.
        author: Screen name of the poster, without the "@" prefix.
        text: Message body; empty string when the record carries none.
        hashtags: Lowercase tags without "#", in record order.
        retweet_of: Set iff the record embeds the reposted original.
        reply_to: Screen name this post replies to, or None.
        coords: (latitude, longitude) in degrees, or None.
        retweet_count: The platform's cumulative repost counter for the
            content this record carries (the embedded original's counter
            for retweets, the post's own otherwise); None when absent.
    """

    id: int
    created_at: datetime
    author: str
    text: str = ""
    hashtags: tuple[str, ...] = ()
    retweet_of: RetweetRef | None = None
    reply_to: str | None = None
    coords: tuple[float, float] | None = None
    retweet_count: int | None = None

    def __post_init__(self):
        _as_read("id", self.id, _parse_id(self.id, "id"))
        if not (isinstance(self.created_at, datetime) and _utc_seconds(self.created_at)):
            raise ParseError(
                "created_at", f"expected a UTC datetime in whole seconds, got {self.created_at!r}"
            )
        _as_read("author", self.author, _screen_name(self.author))
        if self.retweet_of is not None:
            if not isinstance(self.retweet_of, RetweetRef):
                raise ParseError("retweet_of", f"expected a RetweetRef, got {self.retweet_of!r}")
            original_id, original_author = self.retweet_of
            field_name = "retweet_of.original_tweet_id"
            _as_read(field_name, original_id, _parse_id(original_id, field_name))
            if original_id == self.id:
                raise ParseError(field_name, "retweet references itself")
            _as_read("retweet_of.original_author", original_author, _screen_name(original_author))
        if self.reply_to is not None:
            _as_read("reply_to", self.reply_to, _screen_name(self.reply_to))
        if self.retweet_count is not None:
            _as_read("retweet_count", self.retweet_count, _counter(self.retweet_count))
        if type(self.hashtags) is not tuple:
            object.__setattr__(self, "hashtags", tuple(self.hashtags))
        if self.coords is not None:
            pair = self.coords
            point = _lat_lon(*pair) if isinstance(pair, (tuple, list)) and len(pair) == 2 else None
            if point is None:
                raise ParseError("coords", f"expected (latitude, longitude) on the globe: {pair!r}")
            if not (type(pair) is tuple and type(pair[0]) is float and type(pair[1]) is float):
                object.__setattr__(self, "coords", point)


def _as_read(field_name: str, value: object, read: object) -> None:
    """Raise ParseError(field_name) unless ``read``, the reader's output for ``value``, equals it.

    None, which a reader gives for "absent", never passes.
    """
    if read is None or read != value:
        raise ParseError(field_name, f"not in the form the archive reader gives: {value!r}")


@dataclass
class ParseStats:
    """Per-archive accounting; total_lines = parsed + skipped_malformed + duplicates_dropped."""

    total_lines: int = 0
    parsed: int = 0
    skipped_malformed: int = 0
    duplicates_dropped: int = 0


def _classic_stamp(value: str) -> datetime | None:
    """The aware datetime of an exact classic stamp, or None to fall back."""
    if _CLASSIC_LAYOUT.fullmatch(value) is None:
        return None
    # "Thu Mar 19 10:05:00 +0100 2015" -> "2015-03-19T10:05:00+01:00"; an
    # offset of 0000 either way comes back in timezone.utc itself
    try:
        return datetime.fromisoformat(
            f"{value[26:]}-{_MONTH_DIGITS[value[4:7]]}-{value[8:10]}T{value[11:19]}"
            f"{value[20:23]}:{value[23:25]}"
        )
    except ValueError:  # Feb 30, second 60, offset of 24 h or more, year 0
        return None


def _utc_seconds(stamp: datetime) -> bool:
    """Whether ``stamp`` is as ``_parse_timestamp`` returns it: in timezone.utc, whole seconds."""
    return stamp.tzinfo is timezone.utc and not stamp.microsecond


def _parse_timestamp(value: object) -> datetime:
    """Parse ``created_at`` into an aware UTC datetime, second precision.

    Accepted: the classic layout ``%a %b %d %H:%M:%S %z %Y`` as
    ``datetime.strptime`` reads it, else anything
    ``datetime.fromisoformat`` reads (a trailing ``Z`` means UTC, a
    stamp without an offset is taken as UTC). The exact 30-character
    spelling ``Thu Mar 19 10:05:00 +0000 2015`` (names in that case,
    zero-padded ASCII digits, hours 00-23, offset minutes 00-59) is
    decoded by fixed layout without ``strptime``; every other spelling
    takes the ``strptime`` -> ``fromisoformat`` path, and both give the same
    datetime or the same error. A stamp that starts with a digit skips
    ``strptime``, which cannot read it. As in ``strptime``, the weekday
    is not checked against the date. A stamp that comes out already in
    ``timezone.utc`` without microseconds (offset ``+0000``, ``-0000``,
    ``Z`` or ``+00:00``) is returned as it is; any other is converted
    to UTC and cut to the second. Raises ParseError("created_at") for a
    non-string, a blank or unparseable string, or a stamp whose UTC
    time falls outside years 1-9999.
    """
    if not isinstance(value, str) or not value.strip():
        raise ParseError("created_at", f"expected a timestamp string, got {value!r}")
    stamp = _classic_stamp(value)
    # no weekday name starts with a digit, so strptime cannot read a
    # stamp that does (ISO-8601) and is not tried on it
    if stamp is None and not value[0].isdigit():
        try:
            stamp = datetime.strptime(value, _CLASSIC_FORMAT)
        except ValueError:
            pass
    if stamp is None:
        iso = value[:-1] + "+00:00" if value.endswith("Z") else value
        try:
            stamp = datetime.fromisoformat(iso)
        except ValueError:
            raise ParseError("created_at", f"unparseable timestamp: {value!r}") from None
    if _utc_seconds(stamp):
        return stamp
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    try:
        return stamp.astimezone(timezone.utc).replace(microsecond=0)
    except OverflowError:
        raise ParseError("created_at", f"timestamp out of range: {value!r}") from None


def _parse_id(value: object, field_name: str) -> int:
    # ids may arrive as JSON numbers or as decimal digit strings; unlike
    # isdigit(), isdecimal() takes only digits int() reads (not "²" or "①")
    if type(value) is int and 0 < value <= MAX_ID:
        return value
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


def _screen_name(value: object) -> str | None:
    """A screen name without outer blanks or leading "@"s (in any mix), or None."""
    if not isinstance(value, str):
        return None
    name = value.strip()
    while name.startswith("@"):
        name = name[1:].lstrip()
    return name or None


def _name_order(name: str) -> tuple[str, str]:
    """Sort key for names: case-insensitively first, then by exact name."""
    return (name.casefold(), name)


def _csv_text(header: list[str], rows) -> str:
    """CSV text of a header and rows: fields quoted only when they need it, LF row ends."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 in one call, line ends as they are."""
    # encoded whole first: a character UTF-8 cannot hold raises ValueError
    # before an existing file is truncated
    data = text.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)


def _parse_screen_name(container: object, field_name: str) -> str:
    if isinstance(container, dict) and (name := _screen_name(container.get("screen_name"))):
        return name
    raise ParseError(field_name, "missing screen name")


def _counter(value: object) -> int | None:
    """A platform counter: a JSON integer >= 0 (not a bool), else None."""
    return value if type(value) is int and value >= 0 else None


def _lat_lon(lat: object, lon: object) -> tuple[float, float] | None:
    """(latitude, longitude) as floats if both are numbers on the globe, else None.

    Bools are not numbers here. The range is checked before float(), so
    an integer too big for a float is off the globe, not an error.
    """
    if type(lat) in (int, float) and type(lon) in (int, float):
        if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
            return float(lat), float(lon)
    return None


def _point(container: object, lat_at: int) -> tuple[float, float] | None:
    """(latitude, longitude) of ``container["coordinates"]``, or None.

    Latitude is item ``lat_at`` of the list.
    """
    if not isinstance(container, dict):
        return None
    pair = container.get("coordinates")
    if not isinstance(pair, (list, tuple)) or len(pair) < 2:
        return None
    return _lat_lon(pair[lat_at], pair[1 - lat_at])


def _parse_coords(geojson: object, legacy: object) -> tuple[float, float] | None:
    """(latitude, longitude) from GeoJSON ``coordinates``, else legacy ``geo``.

    GeoJSON stores [longitude, latitude], ``geo`` [latitude, longitude].
    A pair that is short, not two JSON numbers or off the globe is absent.
    """
    return _point(geojson, 1) or _point(legacy, 0)


def _parse_retweet(embedded: object, tweet_id: int) -> tuple[RetweetRef | None, int | None]:
    """The reference and counter of a ``retweeted_status`` value, or (None, None)."""
    if not isinstance(embedded, dict):
        # "RT @..." text prefixes do not count; only the embedded object does
        return None, None
    original_id = _parse_id(embedded.get("id"), "retweeted_status.id")
    if original_id == tweet_id:
        raise ParseError("retweeted_status.id", "retweet references itself")
    original_author = _parse_screen_name(
        embedded.get("user"), "retweeted_status.user.screen_name"
    )
    return RetweetRef(original_id, original_author), _counter(embedded.get("retweet_count"))


def _decode_record(line: str | bytes) -> dict:
    """Decode one raw line into its JSON object.

    Raises ParseError("line") for invalid UTF-8, invalid JSON, nesting
    deeper than the decoder's recursion limit, an integer longer than
    the interpreter's digit limit, or a value that is not an object.
    """
    if isinstance(line, (bytes, bytearray)):
        try:
            line = line.decode("utf-8")
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


def _text_and_hashtags(record: dict) -> tuple[str, tuple[str, ...]]:
    """The record's text ("" when absent) and its lowercase hashtags.

    Tags come from ``entities.hashtags`` when that is a list, else from
    the ``#word`` runs of the text.
    """
    text = record.get("text")
    if not isinstance(text, str):
        text = ""
    entities = record.get("entities")
    if isinstance(entities, dict) and isinstance(entities.get("hashtags"), list):
        return text, tuple([
            item["text"].lower()
            for item in entities["hashtags"]
            if isinstance(item, dict)
            and isinstance(item.get("text"), str)
            and item["text"]
        ])
    return text, tuple([match.group(1).lower() for match in _HASHTAG.finditer(text)])


def _build_tweet(record: dict, text: str, hashtags: tuple[str, ...]) -> Tweet:
    """Validate a decoded record and build its Tweet.

    ``text`` and ``hashtags`` are ``_text_and_hashtags(record)``, which the
    caller may already hold. Raises ParseError naming the first bad field,
    checked in the order id, created_at, user.screen_name, retweeted_status.
    An optional field that is absent or null is read as absent without a
    call to its reader; any other value goes through the reader.

    This is where a parsed record is validated: the readers give every
    field in the form ``Tweet.__post_init__`` requires, so the Tweet is
    made without calling it, and ``Tweet(*fields)`` would accept and
    equal it.
    """
    get = record.get
    tweet_id = _parse_id(get("id"), "id")
    created_at = _parse_timestamp(get("created_at"))
    author = _parse_screen_name(get("user"), "user.screen_name")
    retweet_of = retweet_count = None
    embedded = get("retweeted_status")
    if embedded is not None:
        retweet_of, retweet_count = _parse_retweet(embedded, tweet_id)
    if retweet_of is None:
        retweet_count = _counter(get("retweet_count"))
    reply_to = get("in_reply_to_screen_name")
    if reply_to is not None:
        reply_to = _screen_name(reply_to)
    geojson, legacy = get("coordinates"), get("geo")
    coords = None if geojson is None and legacy is None else _parse_coords(geojson, legacy)
    # no __post_init__: the readers above already hold its invariants
    tweet = object.__new__(Tweet)
    set_field = object.__setattr__
    set_field(tweet, "id", tweet_id)
    set_field(tweet, "created_at", created_at)
    set_field(tweet, "author", author)
    set_field(tweet, "text", text)
    set_field(tweet, "hashtags", hashtags)
    set_field(tweet, "retweet_of", retweet_of)
    set_field(tweet, "reply_to", reply_to)
    set_field(tweet, "coords", coords)
    set_field(tweet, "retweet_count", retweet_count)
    return tweet


def parse_tweet(line: str | bytes) -> Tweet:
    """Parse one raw archive line into a Tweet.

    Raises ParseError naming the offending field for malformed syntax,
    a missing id / created_at / author, or an unparseable timestamp.
    The input line itself is never modified.
    """
    record = _decode_record(line)
    return _build_tweet(record, *_text_and_hashtags(record))


def read_archive(
    path: str | Path, dedupe: bool = False
) -> tuple[list[Tweet], ParseStats]:
    """Read an archive file; malformed lines are counted, never fatal.

    Tweets come back in file order. With ``dedupe`` the second and
    later occurrences of an id are dropped and counted.
    """
    tweets: list[Tweet] = []
    total_lines = malformed = duplicates = 0
    seen: set[int] = set()
    with open(path, "rb") as handle:
        for raw in handle:
            total_lines += 1
            try:
                record = _decode_record(raw.rstrip(b"\r\n"))
                text, hashtags = _text_and_hashtags(record)
                tweet = _build_tweet(record, text, hashtags)
            except ParseError:
                malformed += 1
                continue
            if dedupe:
                if tweet.id in seen:
                    duplicates += 1
                    continue
                seen.add(tweet.id)
            tweets.append(tweet)
    return tweets, ParseStats(
        total_lines=total_lines,
        parsed=len(tweets),
        skipped_malformed=malformed,
        duplicates_dropped=duplicates,
    )
