"""Parse line-delimited post archives into typed tweet records.

An archive is a UTF-8 text file with one JSON record per line, LF
terminated. Records follow the classic 2015-era platform layout; the
fields read here are ``id``, ``created_at``, ``user.screen_name``,
``text``, ``entities.hashtags``, ``retweeted_status``,
``in_reply_to_screen_name`` and the two coordinate containers
(GeoJSON-style ``coordinates`` preferred, legacy ``geo`` as fallback).

Parsing never rewrites archive lines: the collector stores raw bytes
and this module only builds an in-memory view of them.

A read that parses the bytes of a regular file writes their cache entry
``<digest>.jsonl`` under ``$XDG_CACHE_HOME/eventpulse/`` (default
``~/.cache/eventpulse/``), the digest being the sha256 of the archive
bytes, this file's bytes and ``sys.version``, and later reads of those
bytes rebuild the same result from it without decoding a record. An
entry is a header line ``[total_lines,malformed]``, then the valid
records in batches, each line the nine field columns of one batch in
``Tweet._fields`` order, one array the stdlib JSON codec writes and
reads. The 16 most recently written or loaded entries are kept, and an
entry that cannot be read or written, or whose counts no parse can
give, is parsed around.

In one process, ``read_archive`` also keeps the result of its last read
that had an entry path, keyed by that path. A read of the same bytes
under the same cache directory takes the held result: it neither parses
nor loads, and after hashing the bytes it makes no filesystem call, so
it leaves the cache directory as it was. The slot holds one archive's
Tweets until another archive is read or the process exits; other
processes share only the files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import stat
import sys
import tempfile
import time
from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, repeat
from pathlib import Path
from typing import BinaryIO, NamedTuple

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
_MONTH_DIGITS = {
    name: f"{number:02d}"
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
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) (?:" + "|".join(_MONTH_DIGITS) + ") "
    r"\d\d (?:[01]\d|2[0-3]):\d\d:\d\d [+-]\d\d[0-5]\d \d{4}",
    re.ASCII,
)
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


class _Fields(NamedTuple):
    """The fields of a Tweet and their defaults, unchecked."""

    id: int
    created_at: datetime
    author: str
    text: str = ""
    hashtags: tuple[str, ...] = ()
    retweet_of: RetweetRef | None = None
    reply_to: str | None = None
    coords: tuple[float, float] | None = None
    retweet_count: int | None = None


class Tweet(_Fields):
    """One post, reduced to the fields the analytics need.

    A Tweet built by hand is held to the archive reader's rules: each
    field must already be in the form the reader gives it, and
    ``__new__`` asks the reader's own rule whether it is. Any other
    value raises ParseError (a ValueError) naming the field. A list of
    hashtags is turned into a tuple, and integer coordinates into a
    tuple of floats. ``_make`` and ``_replace`` go through the same
    checks. The archive reader and its cache build Tweets from fields
    the reader's rules have just given, without the checks (see
    ``_build_tweet``). A Tweet is a tuple of its fields: it iterates
    them, ``Tweet._fields`` names them, and it equals a tuple of the
    same values.

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

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        given = _Fields(*args, **kwargs)
        _as_read("id", given.id, _parse_id(given.id, "id"))
        if not (isinstance(given.created_at, datetime) and _utc_seconds(given.created_at)):
            raise ParseError(
                "created_at", f"expected a UTC datetime in whole seconds, got {given.created_at!r}"
            )
        _as_read("author", given.author, _screen_name(given.author))
        if given.retweet_of is not None:
            if not isinstance(given.retweet_of, RetweetRef):
                raise ParseError("retweet_of", f"expected a RetweetRef, got {given.retweet_of!r}")
            original_id, original_author = given.retweet_of
            field_name = "retweet_of.original_tweet_id"
            _as_read(field_name, original_id, _parse_id(original_id, field_name))
            if original_id == given.id:
                raise ParseError(field_name, "retweet references itself")
            _as_read("retweet_of.original_author", original_author, _screen_name(original_author))
        if given.reply_to is not None:
            _as_read("reply_to", given.reply_to, _screen_name(given.reply_to))
        if given.retweet_count is not None:
            _as_read("retweet_count", given.retweet_count, _counter(given.retweet_count))
        if not isinstance(given.text, str):
            raise ParseError("text", f"expected a str, got {given.text!r}")
        tags = given.hashtags
        # as _text_and_hashtags gives them: non-empty and already lowercase
        if not (isinstance(tags, (tuple, list)) and all(
            isinstance(tag, str) and tag and tag == tag.lower() for tag in tags
        )):
            raise ParseError("hashtags", f"expected non-empty lowercase str tags, got {tags!r}")
        if type(tags) is not tuple:
            given = given._replace(hashtags=tuple(tags))
        if given.coords is not None:
            pair = given.coords
            point = _lat_lon(*pair) if isinstance(pair, (tuple, list)) and len(pair) == 2 else None
            if point is None:
                raise ParseError("coords", f"expected (latitude, longitude) on the globe: {pair!r}")
            if not (type(pair) is tuple and type(pair[0]) is float and type(pair[1]) is float):
                given = given._replace(coords=point)
        return tuple.__new__(cls, given)

    @classmethod
    def _make(cls, iterable):
        # the stock _make, which _replace calls, would skip __new__'s checks
        return cls(*iterable)


# the reader's and the cache's one constructor: nine values, no checks
_trusted_tweet = functools.partial(tuple.__new__, Tweet)


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
    Every optional field goes through its reader, which reads an absent or
    null value as absent.

    This is where a parsed record is validated: the readers give every
    field in the form ``Tweet.__new__`` requires, so the Tweet is made by
    ``_trusted_tweet``, the reader's and the cache's one constructor, and
    ``Tweet(*tweet)`` would accept and equal it.
    """
    get = record.get
    tweet_id = _parse_id(get("id"), "id")
    created_at = _parse_timestamp(get("created_at"))
    author = _parse_screen_name(get("user"), "user.screen_name")
    retweet_of, retweet_count = _parse_retweet(get("retweeted_status"), tweet_id)
    if retweet_of is None:
        retweet_count = _counter(get("retweet_count"))
    reply_to = _screen_name(get("in_reply_to_screen_name"))
    # GeoJSON [longitude, latitude] first, then legacy ``geo`` [latitude, longitude];
    # a pair that is short, not two JSON numbers or off the globe is absent
    coords = _point(get("coordinates"), 1) or _point(get("geo"), 0)
    return _trusted_tweet(
        (tweet_id, created_at, author, text, hashtags, retweet_of, reply_to, coords, retweet_count)
    )


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

    A parse of a regular file's bytes writes their cache entry (see the
    module docstring), from which a later read of the same bytes, with
    either ``dedupe``, rebuilds the same result. A read whose entry path
    is that of the last read in this process takes the result that read
    held: it neither parses nor loads, and after hashing the bytes it
    touches no file. The list returned is the caller's own.
    """
    global _last_read
    with open(path, "rb") as handle:
        entry = _entry_path(handle)
        last_entry, parse = _last_read  # read once: another thread may rebind it
        if entry is None or entry != last_entry:
            parse = _load_entry(entry) if entry is not None else None
            if parse is None:
                # the entry is named by the bytes parsed here, so a file that
                # changed after it was hashed above cannot pass for its old bytes
                digest = _code_key().copy() if entry is not None else None
                parse = _parse(handle, digest)
                if digest is not None:
                    entry = entry.with_name(f"{digest.hexdigest()}.jsonl")
                    _store_entry(entry, *parse)
            if entry is not None:
                _last_read = entry, parse
    total_lines, malformed, valid = parse
    tweets, duplicates = _kept(valid, dedupe)
    return tweets, ParseStats(total_lines, len(tweets), malformed, duplicates)


def _parse(handle: BinaryIO, digest) -> tuple[int, int, list[Tweet]]:
    """``(total_lines, malformed, valid)`` of the lines left in ``handle``, fed to ``digest``."""
    valid: list[Tweet] = []
    total_lines = malformed = 0
    for raw in handle:
        total_lines += 1
        if digest is not None:
            digest.update(raw)
        try:
            valid.append(parse_tweet(raw.rstrip(b"\r\n")))
        except ParseError:
            malformed += 1
    return total_lines, malformed, valid


def _kept(tweets: list[Tweet], dedupe: bool) -> tuple[list[Tweet], int]:
    """A new list of the valid tweets read_archive returns, in order, and the duplicates dropped."""
    if not dedupe:
        return tweets[:], 0  # ``tweets`` may be the one _last_read holds
    kept: list[Tweet] = []
    seen: set[int] = set()
    duplicates = 0
    for tweet in tweets:
        if tweet.id in seen:
            duplicates += 1
        else:
            seen.add(tweet.id)
            kept.append(tweet)
    return kept, duplicates


# --- parse cache ---------------------------------------------------------------
#
# An entry is ``<sha256>.jsonl``: a header line ``[total_lines,malformed]``
# with 0 <= malformed <= total_lines, then the valid records in file order,
# duplicates included, in batches of up to _BATCH_TWEETS. Each batch line is
# one JSON array of nine columns of one length, in ``Tweet._fields`` order:
# ``[ids,utc_seconds,authors,texts,hashtag_lists,retweet_ofs,reply_tos,
# coords,retweet_counts]``, where a retweet_of is ``[original_id,
# original_author]``, a coords ``[latitude,longitude]`` and a value in each
# of the last four columns may be null. The stdlib encoder writes each line
# as compact ASCII-only JSON, so a lone surrogate is kept as its escape, and
# one ``json.loads`` reads it back. Entries are trusted like the user's own
# files: a line is checked for shape, not held to the reader's rules again.

_CACHE_ENTRIES = 16  # entries kept
_STALE_TEMP_S = 3600  # a temp file this old was left by a writer that died
_HASH_CHUNK = 1 << 20
# records to an entry line, so to one encode and one json.loads; of the sizes
# tried (128 to 1,024), 400 alone left the peak RSS of warm reads as it was,
# and one line per column raised it
_BATCH_TWEETS = 400
_NULL = type(None)
# columns hold no cycles, so the encoder need not look for them
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
# the entry path of the last read that had one, and that read's ``_parse``
# result; one slot, so it holds one archive's Tweets, and it is rebound whole
_last_read: tuple[Path | None, tuple[int, int, list[Tweet]] | None] = (None, None)


@functools.cache
def _code_key():
    """The sha256 of this module's bytes and the Python, which each entry key ``.copy()``s."""
    return hashlib.sha256(Path(__file__).read_bytes() + sys.version.encode())


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/eventpulse``, or ``~/.cache/eventpulse`` if that is unset or relative.

    An empty value is unset; a relative one is ignored, as the XDG base
    directory specification asks.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "eventpulse"


def _entry_path(handle: BinaryIO) -> Path | None:
    """The cache entry for the bytes of ``handle``, or None if they are not cached.

    Only a regular file is cached, and only when a cache directory can be
    named. ``handle`` is read to its end and rewound.
    """
    try:
        if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            return None
        directory = _cache_dir()
        digest = _code_key().copy()
    except (OSError, RuntimeError, KeyError):  # Path.home() with no HOME and no user entry
        return None
    while chunk := handle.read(_HASH_CHUNK):
        digest.update(chunk)
    handle.seek(0)
    return directory / f"{digest.hexdigest()}.jsonl"


def _load_entry(entry: Path) -> tuple[int, int, list[Tweet]] | None:
    """The ``_parse`` result that ``entry`` holds; None if there is no whole entry to read."""
    try:
        with open(entry, "rb") as handle:
            total_lines, malformed = json.loads(handle.readline())
            _check_columns(((total_lines, malformed), int))
            valid = [tweet for line in handle for tweet in _batch_tweets(json.loads(line))]
    except (OSError, ValueError, TypeError, OverflowError, RecursionError):
        return None  # absent, torn or of the wrong shape
    if not 0 <= malformed <= total_lines or len(valid) != total_lines - malformed:
        return None  # counts that no parse gives
    with suppress(OSError):
        os.utime(entry)  # the mtime orders entries by last use
    return total_lines, malformed, valid


def _batch_tweets(columns: list) -> list[Tweet]:
    """The Tweets of one entry line's nine columns, as ``_store_entry`` wrote them.

    The work goes a column at a time over the whole batch, in C loops
    (``map``, ``zip``, ``set``), not a Tweet at a time: this is the warm
    read's cost. Raises ValueError or TypeError if the line has the
    wrong shape: not nine lists of one length, or a value not of the
    JSON type its column holds. Like ``_build_tweet``, it makes each
    Tweet with ``_trusted_tweet``.
    """
    _check_columns((columns, list))
    ids, seconds, authors, texts, hashtags, retweets, replies, points, counts = columns
    _check_columns(
        (ids, int), (seconds, int), (authors, str), (texts, str), (hashtags, list),
        (retweets, list, _NULL), (replies, str, _NULL), (points, list, _NULL), (counts, int, _NULL),
    )
    references = [pair for pair in retweets if pair is not None]
    original_ids, original_authors = zip(*references, strict=True) if references else ((), ())
    coords = [pair for pair in points if pair is not None]
    latitudes, longitudes = zip(*coords, strict=True) if coords else ((), ())
    _check_columns(
        (chain.from_iterable(hashtags), str), (original_ids, int), (original_authors, str),
        (latitudes, float), (longitudes, float),
    )
    return list(map(_trusted_tweet, zip(
        ids,
        map(datetime.fromtimestamp, seconds, repeat(timezone.utc)),
        authors,
        texts,
        map(tuple, hashtags),
        [None if pair is None else RetweetRef(*pair) for pair in retweets],
        replies,
        [None if pair is None else tuple(pair) for pair in points],
        counts,
        strict=True,
    )))


def _check_columns(*columns: tuple) -> None:
    """Raise ValueError unless each ``(values, *types)`` holds only values of those types."""
    for values, *types in columns:
        if not set(map(type, values)).issubset(types):
            raise ValueError("cache entry of the wrong shape")


def _store_entry(entry: Path, total_lines: int, malformed: int, tweets: list[Tweet]) -> None:
    """Write the cache entry of one parse, then prune the cache; on a failure, write nothing."""
    directory = entry.parent
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(prefix=".", suffix=".tmp", dir=directory)
        try:
            with open(fd, "w", encoding="ascii", newline="\n") as out:
                out.write(f"[{total_lines},{malformed}]\n")
                for start in range(0, len(tweets), _BATCH_TWEETS):
                    ids, stamps, *rest = zip(*tweets[start : start + _BATCH_TWEETS])
                    # UTC in whole seconds, so the float timestamp is exact
                    seconds = [int(stamp.timestamp()) for stamp in stamps]
                    out.write(_encode([ids, seconds, *rest]) + "\n")
            os.replace(temp, entry)  # readers see a whole entry or none
        except BaseException:
            with suppress(OSError):
                os.unlink(temp)
            raise
        _prune(directory)
    except (OSError, ValueError):
        pass  # the parse stands without an entry


def _prune(directory: Path) -> None:
    """Keep the ``_CACHE_ENTRIES`` entries last written or loaded, and no stale temp file.

    A file that another process removes first is passed over.
    """
    entries = []
    stale = time.time() - _STALE_TEMP_S
    with os.scandir(directory) as items:
        for item in items:
            suffix = os.path.splitext(item.name)[1]
            with suppress(FileNotFoundError):
                if suffix == ".jsonl":
                    entries.append((item.stat().st_mtime_ns, item.path))
                elif suffix == ".tmp" and item.stat().st_mtime < stale:
                    os.unlink(item.path)
    entries.sort(reverse=True)
    for _used, path in entries[_CACHE_ENTRIES:]:
        with suppress(FileNotFoundError):
            os.unlink(path)
