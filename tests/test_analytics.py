from datetime import datetime, timezone

import pytest

from conftest import make_tweet
from eventpulse.analytics import (
    HistogramBucket,
    RankedEntry,
    RankedTweet,
    activity_counts,
    extract_coordinates,
    histogram,
    received_retweet_counts,
    top_tweets_by_retweets,
    top_users_by_activity,
    top_users_by_received_retweets,
    write_coordinates_csv,
    write_histogram_dat,
)


def at(hour: int, minute: int = 0, day: int = 19) -> datetime:
    return datetime(2015, 3, day, hour, minute, tzinfo=timezone.utc)


class TestHistogram:
    def test_hourly_buckets(self):
        tweets = [
            make_tweet(1, created_at=at(10, 5)),
            make_tweet(2, created_at=at(10, 59)),
            make_tweet(3, created_at=at(11, 0)),
        ]
        assert histogram(tweets) == [
            HistogramBucket(at(10), 2),
            HistogramBucket(at(11), 1),
        ]

    def test_gaps_are_zero_filled(self):
        tweets = [make_tweet(1, created_at=at(10, 5)), make_tweet(2, created_at=at(13, 30))]
        counts = [b.count for b in histogram(tweets)]
        starts = [b.bucket_start for b in histogram(tweets)]
        assert counts == [1, 0, 0, 1]
        assert starts == [at(10), at(11), at(12), at(13)]

    def test_daily_granularity(self):
        tweets = [
            make_tweet(1, created_at=at(1, day=19)),
            make_tweet(2, created_at=at(23, day=19)),
            make_tweet(3, created_at=at(12, day=21)),
        ]
        assert histogram(tweets, granularity="day") == [
            HistogramBucket(at(0, day=19), 2),
            HistogramBucket(at(0, day=20), 0),
            HistogramBucket(at(0, day=21), 1),
        ]

    def test_offset_moves_tweets_across_bucket_edges(self):
        tweets = [make_tweet(1, created_at=at(10, 5))]
        assert histogram(tweets, tz_offset_minutes=60) == [HistogramBucket(at(11), 1)]
        assert histogram(tweets, tz_offset_minutes=-30) == [
            HistogramBucket(at(9), 1)
        ]

    def test_offset_moves_tweets_across_day_edges(self):
        late = [make_tweet(1, created_at=at(23, 30, day=19))]
        shifted = histogram(late, granularity="day", tz_offset_minutes=60)
        assert shifted == [HistogramBucket(at(0, day=20), 1)]

    def test_bucket_starts_stay_timezone_aware(self):
        buckets = histogram([make_tweet(1, created_at=at(10, 5))], tz_offset_minutes=90)
        assert buckets[0].bucket_start.tzinfo == timezone.utc

    def test_empty_input(self):
        assert histogram([]) == []

    def test_bad_granularity(self):
        with pytest.raises(ValueError):
            histogram([], granularity="week")

    @pytest.mark.parametrize("offset", [841, -841, 10_000])
    def test_offset_out_of_range(self, offset):
        with pytest.raises(ValueError):
            histogram([], tz_offset_minutes=offset)

    def test_extreme_legal_offsets(self):
        tweets = [make_tweet(1, created_at=at(12))]
        ahead = histogram(tweets, tz_offset_minutes=840)
        assert ahead[0].bucket_start == at(2, day=20)
        behind = histogram(tweets, tz_offset_minutes=-840)
        assert behind[0].bucket_start == at(22, day=18)

    def test_last_bucket_a_datetime_can_hold(self):
        def end(hour: int, minute: int = 0) -> datetime:
            return datetime(9999, 12, 31, hour, minute, tzinfo=timezone.utc)

        tweets = [make_tweet(1, created_at=end(21, 30)), make_tweet(2, created_at=end(23, 30))]
        assert histogram(tweets) == [
            HistogramBucket(end(21), 1),
            HistogramBucket(end(22), 0),
            HistogramBucket(end(23), 1),
        ]
        assert histogram(tweets, granularity="day") == [HistogramBucket(end(0), 2)]

    @pytest.mark.parametrize(
        "stamp, offset",
        [(datetime(9999, 12, 31, 23, 30), 60), (datetime(1, 1, 1, 0, 30), -60)],
    )
    def test_shift_past_the_datetime_range_names_the_tweet(self, stamp, offset):
        tweets = [make_tweet(1), make_tweet(7, created_at=stamp.replace(tzinfo=timezone.utc))]
        with pytest.raises(ValueError, match="^tweet 7: .* falls outside years 1-9999$"):
            histogram(tweets, "day", offset)


class TestUserRankings:
    def tweets_for_activity(self):
        tweets = []
        next_id = 1
        for author, count in (("a", 3), ("b", 2), ("c", 2)):
            for _ in range(count):
                tweets.append(make_tweet(next_id, author=author))
                next_id += 1
        return tweets

    def test_activity_top_k(self):
        top = top_users_by_activity(self.tweets_for_activity(), 2)
        assert top == [
            RankedEntry(key="a", score=3, rank=1),
            RankedEntry(key="b", score=2, rank=2),
        ]

    def test_tie_breaks_case_insensitively_then_exact(self):
        tweets = [
            make_tweet(1, author="aek"),
            make_tweet(2, author="Aek"),
            make_tweet(3, author="zu"),
        ]
        top = top_users_by_activity(tweets, 3)
        assert [entry.key for entry in top] == ["Aek", "aek", "zu"]

    def test_received_retweets(self):
        tweets = [
            make_tweet(10, author="b", text="sarrera"),
            make_tweet(11, retweet_of=(10, "b")),
            make_tweet(12, retweet_of=(10, "b")),
            make_tweet(13, retweet_of=(10, "b")),
            make_tweet(14, retweet_of=(99, "b")),
            make_tweet(15, retweet_of=(50, "c")),
        ]
        top = top_users_by_received_retweets(tweets, 2)
        assert top == [
            RankedEntry(key="b", score=4, rank=1),
            RankedEntry(key="c", score=1, rank=2),
        ]

    def test_k_larger_than_population(self):
        top = top_users_by_activity([make_tweet(1, author="bakarra")], 10)
        assert len(top) == 1

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_users_by_activity([], 0)

    def test_counts_merge_across_shards(self):
        tweets = self.tweets_for_activity()
        merged = activity_counts(tweets[:3]) + activity_counts(tweets[3:])
        assert merged == activity_counts(tweets)
        merged_rt = received_retweet_counts(tweets[:3]) + received_retweet_counts(
            tweets[3:]
        )
        assert merged_rt == received_retweet_counts(tweets)


class TestTopTweets:
    def corpus(self):
        return [
            make_tweet(100, author="egilea", text="jatorrizkoa bat"),
            make_tweet(200, author="bestea", text="jatorrizkoa bi"),
            make_tweet(300, retweet_of=(100, "egilea")),
            make_tweet(301, retweet_of=(100, "egilea")),
            make_tweet(302, retweet_of=(100, "egilea")),
            make_tweet(303, retweet_of=(200, "bestea")),
            make_tweet(304, retweet_of=(200, "bestea")),
        ]

    def test_observed_scores(self):
        top = top_tweets_by_retweets(self.corpus(), 2)
        assert [(t.key, t.score, t.rank) for t in top] == [(100, 3, 1), (200, 2, 2)]
        assert top[0].author == "egilea"
        assert top[0].text == "jatorrizkoa bat"

    def test_zero_score_originals_trail_in_id_order(self):
        tweets = [
            make_tweet(9, author="c"),
            make_tweet(5, author="a"),
            make_tweet(100, author="b"),
            make_tweet(101, retweet_of=(100, "b")),
        ]
        top = top_tweets_by_retweets(tweets, 3)
        assert [(t.key, t.score) for t in top] == [(100, 1), (5, 0), (9, 0)]

    def test_score_tie_breaks_toward_smaller_id(self):
        tweets = [
            make_tweet(5, author="a"),
            make_tweet(3, author="b"),
            make_tweet(20, retweet_of=(5, "a")),
            make_tweet(21, retweet_of=(3, "b")),
        ]
        top = top_tweets_by_retweets(tweets, 2)
        assert [t.key for t in top] == [3, 5]

    def test_unseen_original_recovered_from_reposts(self):
        tweets = [
            make_tweet(30, author="x", text="RT @b: sarrera ona", retweet_of=(7, "b")),
            make_tweet(20, author="y", text="RT @b: sarrera ona", retweet_of=(7, "b")),
        ]
        top = top_tweets_by_retweets(tweets, 1)
        assert top == [
            RankedTweet(key=7, score=2, rank=1, author="b", text="sarrera ona")
        ]

    def test_embedded_counter_mode(self):
        tweets = [
            make_tweet(50, author="a", text="neurea", retweet_count=7),
            make_tweet(60, retweet_of=(7, "b"), text="RT @b: ezaguna", retweet_count=214),
            make_tweet(61, retweet_of=(7, "b"), text="RT @b: ezaguna", retweet_count=200),
            make_tweet(62, retweet_of=(50, "a")),
        ]
        embedded = top_tweets_by_retweets(tweets, 2, count_source="embedded")
        assert [(t.key, t.score) for t in embedded] == [(7, 214), (50, 7)]
        observed = top_tweets_by_retweets(tweets, 2, count_source="observed")
        assert [(t.key, t.score) for t in observed] == [(7, 2), (50, 1)]

    def test_single_lonely_tweet(self):
        tweet = make_tweet(77, author="bakarra", text="inork ez du ikusi")
        top = top_tweets_by_retweets([tweet], 1)
        assert top == [
            RankedTweet(key=77, score=0, rank=1, author="bakarra", text="inork ez du ikusi")
        ]

    def test_retweets_themselves_are_not_candidates(self):
        tweets = [
            make_tweet(100, author="a"),
            make_tweet(101, retweet_of=(100, "a")),
        ]
        keys = {t.key for t in top_tweets_by_retweets(tweets, 10)}
        assert keys == {100}

    def test_input_order_does_not_matter(self):
        forward = top_tweets_by_retweets(self.corpus(), 5)
        backward = top_tweets_by_retweets(list(reversed(self.corpus())), 5)
        assert forward == backward

    def test_bad_count_source(self):
        with pytest.raises(ValueError):
            top_tweets_by_retweets([], 1, count_source="guessed")


class TestCoordinates:
    def test_extraction_keeps_input_order(self):
        tweets = [
            make_tweet(5, coords=(43.26, -2.67)),
            make_tweet(6),
            make_tweet(7, coords=(-33.0, 151.2)),
        ]
        assert extract_coordinates(tweets) == [
            (5, 43.26, -2.67),
            (7, -33.0, 151.2),
        ]

    def test_empty(self):
        assert extract_coordinates([]) == []


class TestWriters:
    def test_histogram_dat_bytes(self, tmp_path):
        buckets = [HistogramBucket(at(10), 2), HistogramBucket(at(11), 1)]
        out = tmp_path / "hist.dat"
        write_histogram_dat(buckets, out)
        assert out.read_bytes() == (
            b"2015-03-19T10:00:00\t2\n2015-03-19T11:00:00\t1\n"
        )

    def test_coordinates_csv_bytes(self, tmp_path):
        out = tmp_path / "coords.csv"
        write_coordinates_csv([(5, 43.26, -2.67)], out)
        assert out.read_bytes() == b"id,latitude,longitude\n5,43.26,-2.67\n"

    def test_empty_coordinates_csv_is_header_only(self, tmp_path):
        out = tmp_path / "coords.csv"
        write_coordinates_csv([], out)
        assert out.read_bytes() == b"id,latitude,longitude\n"
