import json
from datetime import datetime, timedelta, timezone

import pytest

from conftest import (
    BASE_TIME,
    BAD_DIGIT_ID_LINES,
    DECODER_LIMIT_LINES,
    HOSTILE_LINES,
    make_record,
    make_tweet,
    record_line,
    write_archive,
)
from eventpulse.tweets import (
    MAX_ID,
    ParseError,
    RetweetRef,
    Tweet,
    parse_tweet,
    read_archive,
)


class TestTimestamps:
    def test_classic_format_parses_to_utc(self):
        tweet = parse_tweet(record_line(created_at="Thu Mar 19 18:01:02 +0000 2015"))
        assert tweet.created_at == datetime(2015, 3, 19, 18, 1, 2, tzinfo=timezone.utc)

    def test_nonzero_offset_is_normalized(self):
        tweet = parse_tweet(record_line(created_at="Thu Mar 19 18:00:00 +0130 2015"))
        assert tweet.created_at == datetime(2015, 3, 19, 16, 30, tzinfo=timezone.utc)
        assert tweet.created_at.tzinfo == timezone.utc

    def test_iso_fallback_with_offset(self):
        tweet = parse_tweet(record_line(created_at="2015-03-19T18:00:00+01:00"))
        assert tweet.created_at == datetime(2015, 3, 19, 17, 0, tzinfo=timezone.utc)

    def test_iso_fallback_zulu_suffix(self):
        tweet = parse_tweet(record_line(created_at="2015-03-19T18:00:00Z"))
        assert tweet.created_at == datetime(2015, 3, 19, 18, 0, tzinfo=timezone.utc)

    def test_iso_without_zone_is_treated_as_utc(self):
        tweet = parse_tweet(record_line(created_at="2015-03-19 18:00:00"))
        assert tweet.created_at == datetime(2015, 3, 19, 18, 0, tzinfo=timezone.utc)

    def test_microseconds_are_truncated(self):
        tweet = parse_tweet(record_line(created_at="2015-03-19T18:00:00.999999Z"))
        assert tweet.created_at.microsecond == 0
        assert tweet.created_at.second == 0

    def test_garbage_timestamp_names_the_field(self):
        with pytest.raises(ParseError) as exc:
            parse_tweet(record_line(created_at="not a date"))
        assert exc.value.field == "created_at"


class TestFieldMapping:
    def test_core_fields(self):
        tweet = parse_tweet(record_line(id=42, screen_name="ane", text="kaixo"))
        assert tweet.id == 42
        assert tweet.author == "ane"
        assert tweet.text == "kaixo"
        assert tweet.retweet_of is None
        assert tweet.reply_to is None
        assert tweet.coords is None

    def test_id_as_digit_string(self):
        tweet = parse_tweet(record_line(id=1, id_str="123"))
        assert tweet.id == 1  # numeric id wins when present
        line = json.dumps({**make_record(), "id": "977"})
        assert parse_tweet(line).id == 977
        line = json.dumps({**make_record(), "id": "\u0669\u0667\u0667"})  # Arabic-Indic
        assert parse_tweet(line).id == 977

    def test_author_at_sign_is_stripped(self):
        line = json.dumps(make_record(screen_name="@ane"))
        assert parse_tweet(line).author == "ane"

    def test_entity_hashtags_are_lowercased(self):
        tweet = parse_tweet(record_line(text="Gora!", hashtags=["Korrika19", "AEK"]))
        assert tweet.hashtags == ("korrika19", "aek")

    def test_text_hashtags_used_when_entities_missing(self):
        tweet = parse_tweet(record_line(text="Gora #Korrika19 eta #aek!"))
        assert tweet.hashtags == ("korrika19", "aek")

    def test_empty_entity_list_suppresses_text_extraction(self):
        # entities present means the platform already tokenized the text
        tweet = parse_tweet(record_line(text="Gora #Korrika19", hashtags=[]))
        assert tweet.hashtags == ()

    def test_retweet_reference(self):
        tweet = parse_tweet(
            record_line(id=10, text="RT @b: jatorrizko testua", retweet=(7, "b"))
        )
        assert tweet.retweet_of == RetweetRef(7, "b")
        assert tweet.retweet_of == (7, "b")  # still a plain pair to callers

    def test_rt_prefix_alone_is_not_a_retweet(self):
        tweet = parse_tweet(record_line(text="RT @b: manually copied"))
        assert tweet.retweet_of is None

    def test_reply_field(self):
        tweet = parse_tweet(record_line(reply_to="@mikel"))
        assert tweet.reply_to == "mikel"

    def test_null_reply_field(self):
        line = json.dumps({**make_record(), "in_reply_to_screen_name": None})
        assert parse_tweet(line).reply_to is None

    def test_embedded_counter_for_retweets(self):
        tweet = parse_tweet(record_line(id=10, retweet=(7, "b", 214)))
        assert tweet.retweet_count == 214

    def test_own_counter_for_originals(self):
        tweet = parse_tweet(record_line(id=10, retweet_count=5))
        assert tweet.retweet_count == 5

    def test_missing_counter_is_none(self):
        assert parse_tweet(record_line()).retweet_count is None

    def test_bogus_counter_is_dropped(self):
        line = json.dumps({**make_record(), "retweet_count": "lots"})
        assert parse_tweet(line).retweet_count is None
        line = json.dumps({**make_record(), "retweet_count": -3})
        assert parse_tweet(line).retweet_count is None


class TestCoordinates:
    def test_geojson_point_swaps_to_lat_lon(self):
        tweet = parse_tweet(record_line(coordinates=(-2.67, 43.26)))
        assert tweet.coords == (43.26, -2.67)

    def test_legacy_geo_is_already_lat_lon(self):
        tweet = parse_tweet(record_line(geo=(43.26, -2.67)))
        assert tweet.coords == (43.26, -2.67)

    def test_geojson_wins_over_legacy(self):
        tweet = parse_tweet(record_line(coordinates=(-2.67, 43.26), geo=(1.0, 2.0)))
        assert tweet.coords == (43.26, -2.67)

    def test_out_of_range_falls_through_to_legacy(self):
        tweet = parse_tweet(record_line(coordinates=(-200.0, 43.26), geo=(1.0, 2.0)))
        assert tweet.coords == (1.0, 2.0)

    def test_unusable_coordinates_are_not_an_error(self):
        line = json.dumps({**make_record(), "coordinates": {"coordinates": "x"}})
        assert parse_tweet(line).coords is None
        tweet = parse_tweet(record_line(geo=(91.0, 0.0)))
        assert tweet.coords is None


class TestParseErrors:
    @pytest.mark.parametrize(
        "drop,field",
        [("id", "id"), ("created_at", "created_at"), ("user", "user.screen_name")],
    )
    def test_missing_required_field(self, drop, field):
        record = make_record()
        del record[drop]
        with pytest.raises(ParseError) as exc:
            parse_tweet(json.dumps(record))
        assert exc.value.field == field

    def test_empty_screen_name(self):
        with pytest.raises(ParseError):
            parse_tweet(record_line(screen_name=""))

    def test_id_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_tweet(record_line(id=0))

    def test_id_above_64_bit_rejected(self):
        with pytest.raises(ParseError):
            parse_tweet(record_line(id=MAX_ID + 1))

    def test_boolean_id_rejected(self):
        line = json.dumps({**make_record(), "id": True})
        with pytest.raises(ParseError):
            parse_tweet(line)

    def test_self_retweet_rejected(self):
        with pytest.raises(ParseError):
            parse_tweet(record_line(id=7, retweet=(7, "b")))

    def test_retweet_missing_original_id(self):
        record = make_record(id=10, retweet=(7, "b"))
        del record["retweeted_status"]["id"]
        with pytest.raises(ParseError) as exc:
            parse_tweet(json.dumps(record))
        assert exc.value.field == "retweeted_status.id"

    def test_not_json(self):
        with pytest.raises(ParseError) as exc:
            parse_tweet("{nope")
        assert exc.value.field == "line"

    def test_json_but_not_an_object(self):
        with pytest.raises(ParseError):
            parse_tweet("[1, 2]")

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ParseError) as exc:
            parse_tweet(b'{"id": 1\xff}')
        assert exc.value.field == "line"

    @pytest.mark.parametrize("line", DECODER_LIMIT_LINES.values(), ids=DECODER_LIMIT_LINES)
    def test_decoder_limits_are_line_errors(self, line):
        with pytest.raises(ParseError) as exc:
            parse_tweet(line.encode())
        assert exc.value.field == "line"

    @pytest.mark.parametrize(
        "line,field", BAD_DIGIT_ID_LINES.values(), ids=BAD_DIGIT_ID_LINES
    )
    def test_digit_ids_int_cannot_read_are_id_errors(self, line, field):
        with pytest.raises(ParseError) as exc:
            parse_tweet(line.encode())
        assert exc.value.field == field


class TestTweetValidation:
    def test_naive_created_at_rejected(self):
        with pytest.raises(ValueError):
            make_tweet(1, created_at=datetime(2015, 3, 19, 18, 0))

    def test_author_with_at_sign_rejected(self):
        with pytest.raises(ValueError):
            make_tweet(1, author="@ane")

    def test_self_retweet_rejected(self):
        with pytest.raises(ValueError):
            make_tweet(7, retweet_of=(7, "b"))

    def test_coords_range_checked(self):
        with pytest.raises(ValueError):
            make_tweet(1, coords=(91.0, 0.0))
        with pytest.raises(ValueError):
            make_tweet(1, coords=(0.0, -181.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("id", True),
            ("created_at", "2015-03-19T18:00:00Z"),
            ("author", " ane "),
            ("author", 5),
            ("reply_to", "@mikel"),
            ("reply_to", ""),
            ("retweet_count", True),
            ("retweet_count", -3),
            ("retweet_of", RetweetRef(0, "bi")),
            ("retweet_of", RetweetRef(2, "@bi")),
            ("retweet_of", (2, "bi")),
            ("coords", (True, 5)),
        ],
    )
    def test_values_the_reader_never_gives_are_rejected(self, field, value):
        with pytest.raises(ParseError) as caught:
            Tweet(**{"id": 1, "created_at": BASE_TIME, "author": "ane", field: value})
        assert caught.value.field.split(".")[0] == field

    def test_hashtags_end_up_as_tuple(self):
        tweet = make_tweet(1, hashtags=["a", "b"])  # type: ignore[arg-type]
        assert tweet.hashtags == ("a", "b")

    @pytest.mark.parametrize("coords", [(1, 2), [1, 2], (1.0, 2), [1.0, 2.0]])
    def test_coords_end_up_as_a_tuple_of_floats(self, coords):
        tweet = make_tweet(1, coords=coords)
        assert type(tweet.coords) is tuple
        assert [type(x) for x in tweet.coords] == [float, float]
        assert tweet.coords == (1.0, 2.0)

    def test_float_pairs_and_tag_tuples_come_back_unchanged(self):
        coords, hashtags = (43.26, -2.67), ("a", "b")
        tweet = make_tweet(1, coords=coords, hashtags=hashtags)
        assert tweet.coords is coords
        assert tweet.hashtags is hashtags

    def test_instances_are_hashable_and_frozen(self):
        tweet = make_tweet(1)
        assert tweet in {tweet}
        with pytest.raises(AttributeError):
            tweet.text = "berria"  # type: ignore[misc]


class TestReadArchive:
    def test_order_and_counts(self, tmp_path):
        lines = [
            record_line(id=1),
            "not json at all",
            record_line(id=2),
            "",
            record_line(id=3, created_at="nope"),
            record_line(id=4),
        ]
        path = write_archive(tmp_path / "a.jsonl", lines)
        tweets, stats = read_archive(path)
        assert [t.id for t in tweets] == [1, 2, 4]
        assert stats.total_lines == 6
        assert stats.parsed == 3
        assert stats.skipped_malformed == 3  # blank line counts as malformed
        assert stats.duplicates_dropped == 0

    @pytest.mark.parametrize(
        "stamp",
        [
            "Mon Jan 01 00:00:00 +0100 0001",
            "Fri Dec 31 23:59:59 -0100 9999",
            "0001-01-01T00:00:00+01:00",
        ],
    )
    def test_stamp_outside_utc_range_is_malformed(self, tmp_path, stamp):
        lines = [record_line(id=1, created_at=stamp), record_line(id=2)]
        tweets, stats = read_archive(write_archive(tmp_path / "a.jsonl", lines))
        assert [t.id for t in tweets] == [2]
        assert (stats.parsed, stats.skipped_malformed) == (1, 1)

    @pytest.mark.parametrize("line", HOSTILE_LINES.values(), ids=HOSTILE_LINES)
    def test_hostile_line_is_malformed(self, tmp_path, line):
        lines = [record_line(id=1), line, record_line(id=2)]
        tweets, stats = read_archive(write_archive(tmp_path / "a.jsonl", lines))
        assert [t.id for t in tweets] == [1, 2]
        assert (stats.total_lines, stats.parsed, stats.skipped_malformed) == (3, 2, 1)

    def test_coordinate_past_the_float_range_is_absent(self, tmp_path):
        huge = 10**400  # a JSON integer float() cannot hold
        lines = [
            record_line(id=1, coordinates=(huge, 43.26), geo=(43.26, -2.67)),
            record_line(id=2, geo=(huge, -2.67)),
            record_line(id=3, coordinates=(-2.67, -huge)),
        ]
        tweets, stats = read_archive(write_archive(tmp_path / "a.jsonl", lines))
        assert [(t.id, t.coords) for t in tweets] == [(1, (43.26, -2.67)), (2, None), (3, None)]
        assert (stats.total_lines, stats.parsed) == (3, 3)

    def test_blank_hidden_at_signs_are_stripped(self, tmp_path):
        lines = [
            record_line(id=1, screen_name=" @ane"),
            record_line(id=2, screen_name="@ @ane", retweet=(1, " @ane"), reply_to="@ @mikel "),
        ]
        tweets, stats = read_archive(write_archive(tmp_path / "a.jsonl", lines))
        assert [t.author for t in tweets] == ["ane", "ane"]
        assert tweets[1].retweet_of.original_author == "ane"
        assert tweets[1].reply_to == "mikel"
        assert (stats.parsed, stats.skipped_malformed) == (2, 0)

    def test_dedupe_keeps_first(self, tmp_path):
        lines = [
            record_line(id=1, text="lehena"),
            record_line(id=2),
            record_line(id=1, text="bigarrena"),
        ]
        path = write_archive(tmp_path / "a.jsonl", lines)
        tweets, stats = read_archive(path, dedupe=True)
        assert [t.id for t in tweets] == [1, 2]
        assert tweets[0].text == "lehena"
        assert stats.duplicates_dropped == 1
        assert stats.parsed == 2

    def test_stats_arithmetic(self, tmp_path):
        path = write_archive(
            tmp_path / "a.jsonl",
            [record_line(id=1), "zbor", record_line(id=1)],
        )
        tweets, stats = read_archive(path, dedupe=True)
        expected = stats.parsed + stats.skipped_malformed + stats.duplicates_dropped
        assert stats.total_lines == expected
        assert len(tweets) == stats.parsed

    def test_crlf_lines_tolerated(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(record_line(id=5).encode() + b"\r\n")
        tweets, _ = read_archive(path)
        assert [t.id for t in tweets] == [5]

    def test_empty_file(self, tmp_path):
        path = write_archive(tmp_path / "a.jsonl", [])
        tweets, stats = read_archive(path)
        assert tweets == []
        assert stats.total_lines == 0

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_archive(tmp_path / "missing.jsonl")

    def test_non_utf8_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'\xff\xfe{"broken": 1}\n' + record_line(id=9).encode() + b"\n")
        tweets, stats = read_archive(path)
        assert [t.id for t in tweets] == [9]
        assert stats.skipped_malformed == 1

    def test_round_trip_preserves_unknown_fields(self, tmp_path):
        # extra platform fields ride along in the archive untouched
        raw = json.dumps({**make_record(id=8), "lang": "eu", "favorite_count": 3})
        path = write_archive(tmp_path / "a.jsonl", [raw])
        assert path.read_bytes() == raw.encode() + b"\n"
        tweets, _ = read_archive(path)
        assert tweets[0].id == 8


def test_parse_is_deterministic():
    line = record_line(id=11, retweet=(7, "b", 3), coordinates=(-2.0, 43.0))
    assert parse_tweet(line) == parse_tweet(line)


def test_tweet_defaults_are_empty_not_none():
    tweet = Tweet(id=1, created_at=BASE_TIME, author="ane")
    assert tweet.text == ""
    assert tweet.hashtags == ()


def test_created_at_offset_survives_archive_round_trip(tmp_path):
    moment = BASE_TIME + timedelta(hours=3)
    path = write_archive(tmp_path / "a.jsonl", [record_line(id=3, created_at=moment)])
    tweets, _ = read_archive(path)
    assert tweets[0].created_at == moment
