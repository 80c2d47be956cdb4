"""Deterministic synthetic archive and stream feed for the benchmark.

Both generators return raw JSON lines (bytes, no newline) plus a
ground-truth dict computed from what was generated, never from the
program under test. The same seed always gives the same bytes.

The corpus is an event archive: every valid record carries a track
term. The feed is a broad stream in which about 30% of the records
match; the rest include near-miss tokens such as ``korrikalari`` and
``#korrika2019`` that must not match.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

N_LINES = 38_276
N_AUTHORS = 4_000
SPAN_DAYS = 9
BASE_EPOCH = 1_426_377_600  # 2015-03-15T00:00:00Z

TRACK_TERMS = ("#korrika19", "korrika")
FEED_MATCH_SHARE = 0.30
MALFORMED_SHARE = 0.01
DUPLICATE_SHARE = 0.005
RETWEET_SHARE = 0.45
REPLY_SHARE = 0.12
GEO_SHARE = 0.03
ISO_STAMP_SHARE = 0.05
EXTERNAL_ORIGINAL_SHARE = 0.10

# the stream drops once, halfway, and re-delivers this many lines
FEED_DISCONNECT_AFTER = N_LINES // 2
FEED_REWIND = 500
FEED_KEEPALIVE_EVERY = 100

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_WORDS = (
    "kaixo", "mundua", "euskara", "herria", "gaur", "bihar", "atzo", "bide",
    "lasterka", "lekukoa", "bilbo", "donostia", "gasteiz", "iruñea", "baiona",
    "eskerrik", "asko", "denok", "batera", "aurrera", "kilometro", "gaua",
    "eguna", "mendi", "itsaso", "kalea", "plaza", "festa", "musika", "argazkia",
    "ikusi", "entzun", "irakurri", "idatzi", "hitza", "hizkuntza", "ikastola",
    "gazteak", "zaharrak", "familia", "lagunak", "€", "ñ", "üa", "☀", "💪",
)
_OTHER_TAGS = ("euskara", "bilbo", "donostia", "kultura", "gure_gaia", "ikastola")
_NEAR_MISSES = ("korrikalari", "korrikalariak", "#korrika2019", "Korrikakoak")
_NAME_STEMS = ("ane", "mikel", "iker", "nerea", "jon", "maite", "unai",
               "leire", "eneko", "amaia", "oier", "irati", "xabi", "naroa")


def _author_pool(rng: random.Random) -> list[str]:
    """About N_AUTHORS screen names; some differ only by case (Aek/aek)."""
    names = ["Aek", "aek", "BERRIA", "berria", "Mikel_99", "mikel_99"]
    for i in itertools.count():
        if len(names) >= N_AUTHORS:
            break
        name = f"{_NAME_STEMS[i % len(_NAME_STEMS)]}{i}"
        names.append(name)
        if i % 20 == 0 and len(names) < N_AUTHORS:
            names.append(name.capitalize())
    rng.shuffle(names)  # which names are popular depends on the seed
    return names


def _zipf_cum_weights(n: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(n)))


def _classic_stamp(epoch: int) -> str:
    days, rest = divmod(epoch, 86_400)
    hour, rest = divmod(rest, 3600)
    minute, second = divmod(rest, 60)
    year, month, day = _civil_from_days(days)
    weekday = _DAYS[(days + 3) % 7]  # 1970-01-01 was a Thursday
    return (f"{weekday} {_MONTHS[month - 1]} {day:02d} "
            f"{hour:02d}:{minute:02d}:{second:02d} +0000 {year}")


def _iso_stamp(epoch: int, offset_minutes: int) -> str:
    days, rest = divmod(epoch + offset_minutes * 60, 86_400)
    hour, rest = divmod(rest, 3600)
    minute, second = divmod(rest, 60)
    year, month, day = _civil_from_days(days)
    if offset_minutes == 0:
        zone = "Z"
    else:
        sign = "+" if offset_minutes > 0 else "-"
        hh, mm = divmod(abs(offset_minutes), 60)
        zone = f"{sign}{hh:02d}:{mm:02d}"
    return f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}{zone}"


def iso_utc(epoch: int) -> str:
    """The form ``datetime.isoformat()`` gives for a UTC instant."""
    return _iso_stamp(epoch, 0)[:-1] + "+00:00"


def _below(rng: random.Random, a: int, b: int | None = None) -> int:
    """A uniform integer in [a, b), or [0, a); cheaper than randrange."""
    if b is None:
        a, b = 0, a
    return a + int(rng.random() * (b - a))


def _civil_from_days(days: int) -> tuple[int, int, int]:
    # proleptic Gregorian date from days since 1970-01-01 (H. Hinnant)
    days += 719_468
    era = days // 146_097
    doe = days - era * 146_097
    yoe = (doe - doe // 1460 + doe // 36_524 - doe // 146_096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + 3 if mp < 10 else mp - 9
    return yoe + era * 400 + (month <= 2), month, day


_encode = json.JSONEncoder(ensure_ascii=False).encode


def _dumps(record: object) -> bytes:
    return _encode(record).encode("utf-8")


class _Generator:
    """Shared record builder; ``match_share`` sets how many records match."""

    def __init__(self, seed: int, match_share: float):
        self.rng = random.Random(seed)
        self.match_share = match_share
        self.authors = _author_pool(self.rng)
        self.author_cum = _zipf_cum_weights(len(self.authors), 1.05)
        self.hour_cum = list(itertools.accumulate(
            (1 + 2 * (8 <= h <= 22) + 3 * (18 <= h <= 21)) for h in range(24)))

    def _text(self, matching: bool) -> tuple[str, list[str]]:
        rng = self.rng
        words = rng.choices(_WORDS, k=_below(rng, 4, 12))
        tags = rng.sample(_OTHER_TAGS, _below(rng, 0, 2))
        if matching:
            roll = rng.random()
            if roll < 0.5:
                tags.append(rng.choice(("korrika19", "Korrika19", "KORRIKA19")))
            if roll >= 0.35:
                words.insert(_below(rng, len(words) + 1),
                             rng.choice(("korrika", "Korrika", "KORRIKA")))
        elif rng.random() < 0.25:
            words.insert(_below(rng, len(words) + 1), rng.choice(_NEAR_MISSES))
        return " ".join(words + [f"#{tag}" for tag in tags]), tags

    def _stamps(self, n: int) -> list[int]:
        rng = self.rng
        hours = rng.choices(range(24), cum_weights=self.hour_cum, k=n)
        return sorted(
            BASE_EPOCH + _below(rng, SPAN_DAYS) * 86_400 + hour * 3600 + _below(rng, 3600)
            for hour in hours
        )

    def lines(self) -> tuple[list[bytes], list[dict]]:
        """N_LINES raw lines and, per line, what the program must make of it."""
        rng = self.rng
        n = N_LINES
        authors = rng.choices(self.authors, cum_weights=self.author_cum, k=n)
        targets = rng.choices(self.authors, cum_weights=self.author_cum, k=n)
        stamps = self._stamps(n)
        next_id = 575_000_000_000_000_000 + _below(rng, 10**12)
        originals: list[tuple[int, str, str, list[str], bool]] = []
        valid: list[int] = []  # indexes of valid, first-occurrence lines
        lines: list[bytes] = []
        facts: list[dict] = []
        for i in range(n):
            roll = rng.random()
            if roll < MALFORMED_SHARE:
                lines.append(self._malformed(i, next_id, stamps[i]))
                facts.append({"kind": "malformed"})
                continue
            if roll < MALFORMED_SHARE + DUPLICATE_SHARE and valid:
                source = valid[-1 - _below(rng, min(len(valid), 2000))]
                lines.append(lines[source])
                facts.append(dict(facts[source], kind="duplicate"))
                continue
            next_id += _below(rng, 1, 50_000)
            tweet_id = next_id
            author = authors[i]
            record: dict = {"id": tweet_id, "created_at": None,
                            "user": {"screen_name": author}}
            fact = {"kind": "valid", "id": tweet_id, "author": author,
                    "epoch": stamps[i], "retweet": False, "reply": False,
                    "geo": False}
            if rng.random() < RETWEET_SHARE:
                if originals and rng.random() >= EXTERNAL_ORIGINAL_SHARE:
                    # early posts collect most retweets: skewed popularity
                    pick = originals[int(len(originals) * rng.random() ** 4)]
                else:
                    matching = rng.random() < self.match_share
                    text, tags = self._text(matching)
                    pick = (_below(rng, 10**17, 2 * 10**17), targets[i],
                            text, tags, matching)
                original_id, original_author, original_text, tags, matching = pick
                record["text"] = f"RT @{original_author}: {original_text}"
                record["retweeted_status"] = {
                    "id": original_id,
                    "user": {"screen_name": original_author},
                    "text": original_text,
                    "retweet_count": _below(rng, 1, 3000),
                }
                fact["retweet"] = original_author
            else:
                matching = rng.random() < self.match_share
                text, tags = self._text(matching)
                record["text"] = text
                if rng.random() < 0.4:
                    record["retweet_count"] = _below(rng, 0, 400)
                if rng.random() < REPLY_SHARE / (1 - RETWEET_SHARE):
                    record["in_reply_to_screen_name"] = targets[i]
                    fact["reply"] = targets[i]
                originals.append((tweet_id, author, text, tags, matching))
            record["entities"] = {"hashtags": [{"text": tag} for tag in tags]}
            if rng.random() < ISO_STAMP_SHARE:
                record["created_at"] = _iso_stamp(stamps[i], rng.choice((0, 0, 60, 120, -300)))
            else:
                record["created_at"] = _classic_stamp(stamps[i])
            if rng.random() < GEO_SHARE:
                lat = round(rng.uniform(42.8, 43.4), 6)
                lon = round(rng.uniform(-3.2, -1.5), 6)
                if rng.random() < 0.5:
                    record["coordinates"] = {"type": "Point", "coordinates": [lon, lat]}
                else:
                    record["geo"] = {"type": "Point", "coordinates": [lat, lon]}
                fact["geo"] = True
            fact["matching"] = matching
            valid.append(i)
            lines.append(_dumps(record))
            facts.append(fact)
        return lines, facts

    def _malformed(self, i: int, tweet_id: int, epoch: int) -> bytes:
        good = {"id": tweet_id, "created_at": _classic_stamp(epoch),
                "user": {"screen_name": "ane1"}, "text": "korrika gaur"}
        kind = i % 6
        if kind == 0:  # truncated mid-record
            raw = _dumps(good)
            return raw[: _below(self.rng, 1, len(raw) - 1)]
        if kind == 1:
            return _dumps(dict(good, created_at="atzo arratsaldean"))
        if kind == 2:
            return _dumps({k: v for k, v in good.items() if k != "user"})
        if kind == 3:
            return _dumps(dict(good, id=2**64))
        if kind == 4:
            return b'["korrika", 19]'
        return b"\xff\xfe" + _dumps(good)  # not UTF-8


def _top(counts: Counter, k: int = 10) -> list[list]:
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].casefold(), kv[0]))
    return [list(item) for item in ordered[:k]]


def archive(seed: int) -> tuple[list[bytes], dict]:
    """The event archive the analysis commands read, and its ground truth."""
    lines, facts = _Generator(seed, match_share=1.0).lines()
    kept = [f for f in facts if f["kind"] == "valid"]
    epochs = [f["epoch"] for f in kept]
    edges = {(f["author"], f[kind], kind) for f in kept for kind in ("retweet", "reply")
             if f[kind]}
    truth = {
        "total_lines": len(lines),
        "parsed": len(kept),
        "malformed": sum(f["kind"] == "malformed" for f in facts),
        "duplicates": sum(f["kind"] == "duplicate" for f in facts),
        "users": len({f["author"] for f in kept}),
        "geotagged": sum(f["geo"] for f in kept),
        "interactions": sum(bool(f["retweet"]) + bool(f["reply"]) for f in kept),
        "graph_nodes": len({name for edge in edges for name in edge[:2]}),
        "graph_edges": len(edges),
        "graph_edges_merged": len({edge[:2] for edge in edges}),
        "hour_buckets": max(epochs) // 3600 - min(epochs) // 3600 + 1,
        "top_active": _top(Counter(f["author"] for f in kept)),
        "top_retweeted": _top(Counter(f["retweet"] for f in kept if f["retweet"])),
        "first": iso_utc(min(epochs)),
        "last": iso_utc(max(epochs)),
    }
    return lines, truth


def feed(seed: int) -> tuple[list[bytes], dict, list[bytes]]:
    """Stream lines, ground truth, and the lines the archive must hold."""
    lines, facts = _Generator(seed, match_share=FEED_MATCH_SHARE).lines()
    cut = FEED_DISCONNECT_AFTER
    delivered = list(range(cut)) + list(range(cut - FEED_REWIND, len(lines)))
    matched = 0
    seen: set[int] = set()
    expected: list[bytes] = []
    for i in delivered:
        fact = facts[i]
        if fact["kind"] == "malformed" or not fact["matching"]:
            continue
        matched += 1
        if fact["id"] not in seen:
            seen.add(fact["id"])
            expected.append(lines[i])
    truth = {
        "track_terms": list(TRACK_TERMS),
        "received": len(delivered),
        "matched": matched,
        "written": len(expected),
        "disconnect_after": cut,
        "rewind": FEED_REWIND,
        "keepalive_every": FEED_KEEPALIVE_EVERY,
    }
    return lines, truth, expected
