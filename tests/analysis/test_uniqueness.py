"""Tests for hostname-fingerprint re-identification."""

import pytest

from repro.analysis.uniqueness import jaccard, reidentify
from repro.traffic import StreamingTraceGenerator


class TestJaccard:
    def test_identical(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_partial(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard(set(), set()) == 1.0

    def test_one_empty(self):
        assert jaccard({"a"}, set()) == 0.0


class TestReidentify:
    def test_perfect_fingerprints(self):
        enrollment = {
            0: {"a", "b", "c"},
            1: {"d", "e", "f"},
            2: {"g", "h", "i"},
        }
        report = reidentify(enrollment, enrollment)
        assert report.top1_accuracy == 1.0
        assert report.mean_reciprocal_rank == 1.0
        assert report.users_matched == 3
        assert report.chance_accuracy == pytest.approx(1 / 3)

    def test_noisy_fingerprints_still_match(self):
        enrollment = {
            0: {"a", "b", "c", "x"},
            1: {"d", "e", "f", "x"},
        }
        observation = {
            0: {"a", "b", "z", "x"},
            1: {"d", "e", "w", "x"},
        }
        report = reidentify(enrollment, observation)
        assert report.top1_accuracy == 1.0

    def test_excluded_core_removed(self):
        # without exclusion everyone looks like user 0 (big shared core)
        core = {f"core{i}" for i in range(20)}
        enrollment = {
            0: core | {"a", "b", "c"},
            1: core | {"d", "e", "f"},
        }
        observation = {
            0: core | {"a", "b", "q"},
            1: core | {"d", "e", "q"},
        }
        with_core = reidentify(enrollment, observation)
        without_core = reidentify(enrollment, observation, exclude=core)
        assert without_core.top1_accuracy >= with_core.top1_accuracy

    def test_min_items_skips_thin_users(self):
        enrollment = {0: {"a", "b", "c"}, 1: {"d"}}
        observation = {0: {"a", "b", "c"}, 1: {"d"}}
        report = reidentify(enrollment, observation, min_items=3)
        assert report.users_matched == 1

    def test_empty_enrollment_rejected(self):
        with pytest.raises(ValueError):
            reidentify({0: {"a"}}, {0: {"a"}}, min_items=5)

    def test_no_common_users_rejected(self):
        with pytest.raises(ValueError):
            reidentify(
                {0: {"a", "b", "c"}}, {9: {"a", "b", "c"}}
            )

    def test_synthetic_users_reidentifiable_across_days(
        self, web, population
    ):
        """The Fig. 2/3 claim quantified: outside-core behaviour is a
        fingerprint that survives across days."""
        generator = StreamingTraceGenerator(web, population, seed=31)
        trace = generator.materialize(4)
        week1 = {}
        week2 = {}
        for day in (0, 1):
            for user, requests in trace.user_sequences(day).items():
                week1.setdefault(user, set()).update(
                    r.hostname for r in requests
                )
        for day in (2, 3):
            for user, requests in trace.user_sequences(day).items():
                week2.setdefault(user, set()).update(
                    r.hostname for r in requests
                )
        report = reidentify(week1, week2, min_items=5)
        assert report.users_matched > 10
        assert report.top1_accuracy > 0.5
        assert report.lift_over_chance > 5
