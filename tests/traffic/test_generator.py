"""Tests for multi-day trace generation."""

import pytest

from repro.traffic.generator import DiurnalModel, StreamingTraceGenerator
from repro.utils.timeutils import DAY_SECONDS


class TestTrace:
    def test_days_sorted_by_time(self, trace):
        for day_requests in trace.days:
            times = [r.timestamp for r in day_requests]
            assert times == sorted(times)

    def test_requests_fall_in_their_day(self, trace):
        for offset, day_requests in enumerate(trace.days):
            day = trace.start_day + offset
            for request in day_requests:
                assert day * DAY_SECONDS <= request.timestamp
                # Sessions can spill slightly past midnight; allow 2 h.
                assert request.timestamp < (day + 1.1) * DAY_SECONDS

    def test_user_sequences_partition_day(self, trace):
        sequences = trace.user_sequences(0)
        total = sum(len(v) for v in sequences.values())
        assert total == len(trace.day(0))
        for user_id, requests in sequences.items():
            assert all(r.user_id == user_id for r in requests)
            times = [r.timestamp for r in requests]
            assert times == sorted(times)

    def test_per_user_hostnames(self, trace):
        per_user = trace.per_user_hostnames()
        assert per_user
        for user_id, hostnames in per_user.items():
            assert hostnames

    def test_filter_preserves_structure(self, trace):
        filtered = trace.filter(lambda r: r.user_id == 0)
        assert len(filtered) == len(trace)
        assert filtered.user_ids() <= {0}

    def test_counts(self, trace):
        assert trace.num_requests == sum(
            trace.hostname_counts().values()
        )


class TestGenerator:
    def test_reproducible_per_day(self, web, population):
        gen = StreamingTraceGenerator(web, population, seed=77)
        assert gen.day_requests(1) == gen.day_requests(1)

    def test_days_independent_of_generation_order(self, web, population):
        gen_a = StreamingTraceGenerator(web, population, seed=77)
        day1_first = gen_a.day_requests(1)
        gen_b = StreamingTraceGenerator(web, population, seed=77)
        gen_b.day_requests(0)  # generate day 0 first
        assert gen_b.day_requests(1) == day1_first

    def test_different_seeds_differ(self, web, population):
        a = StreamingTraceGenerator(web, population, seed=1).day_requests(0)
        b = StreamingTraceGenerator(web, population, seed=2).day_requests(0)
        assert a != b

    def test_start_day_offset(self, web, population):
        gen = StreamingTraceGenerator(web, population, seed=77)
        shifted = gen.materialize(1, start_day=3)
        assert shifted.start_day == 3
        assert shifted.day(3)
        with pytest.raises(ValueError, match=r"range \[3, 3\]"):
            shifted.day(5)

    def test_day_below_range_no_wraparound(self, web, population):
        """Regression: day(start_day - 1) used to wrap around via
        Python's negative indexing and silently return the *last* day."""
        gen = StreamingTraceGenerator(web, population, seed=77)
        shifted = gen.materialize(2, start_day=3)
        with pytest.raises(ValueError, match=r"day 2 outside trace range"):
            shifted.day(2)
        with pytest.raises(ValueError, match=r"range \[3, 4\]"):
            shifted.day(-1)

    def test_negative_day_rejected(self, web, population):
        gen = StreamingTraceGenerator(web, population, seed=77)
        with pytest.raises(ValueError):
            gen.day_requests(-1)
        with pytest.raises(ValueError):
            gen.materialize(0)


class TestDiurnalModel:
    def test_samples_within_day_span(self, rng):
        model = DiurnalModel()
        for _ in range(200):
            start = model.sample_start(2, rng)
            assert 2 * DAY_SECONDS <= start < 3 * DAY_SECONDS

    def test_evening_peak_dominates(self, rng):
        model = DiurnalModel()
        hours = [
            (model.sample_start(0, rng) % DAY_SECONDS) / 3600.0
            for _ in range(2000)
        ]
        evening = sum(1 for h in hours if 18 <= h <= 24)
        morning = sum(1 for h in hours if 0 <= h <= 6)
        assert evening > morning
