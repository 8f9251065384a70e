"""Tests for Eq. 3/4 session profiling."""

from collections import Counter

import numpy as np
import pytest

from repro.core.embeddings import HostnameEmbeddings
from repro.core.profiler import SessionProfile, SessionProfiler
from repro.core.session import first_visits
from repro.core.vocabulary import Vocabulary


def _toy_space():
    """Four hosts in two tight topical clusters, two of them labelled."""
    vocab = Vocabulary(
        Counter({"t1.com": 4, "t2.com": 3, "s1.com": 2, "s2.com": 1})
    )
    vectors = np.array(
        [
            [1.0, 0.05],   # t1 (travel, labelled)
            [0.95, 0.1],   # t2 (travel, unlabelled)
            [0.05, 1.0],   # s1 (sports, labelled)
            [0.1, 0.95],   # s2 (sports, unlabelled)
        ]
    )
    embeddings = HostnameEmbeddings(vectors, vocab)
    labelled = {
        "t1.com": np.array([1.0, 0.0, 0.0]),
        "s1.com": np.array([0.0, 1.0, 0.0]),
    }
    return embeddings, labelled


class TestInvariants:
    def test_components_in_unit_interval(self, embeddings, labelled):
        profiler = SessionProfiler(embeddings, labelled)
        hosts = embeddings.vocabulary.hosts[:15]
        profile = profiler.profile(hosts)
        assert ((profile.categories >= 0) & (profile.categories <= 1)).all()

    def test_empty_session(self, embeddings, labelled):
        profiler = SessionProfiler(embeddings, labelled)
        profile = profiler.profile([])
        assert profile.is_empty
        assert profile.session_size == 0
        assert (profile.categories == 0).all()

    def test_unknown_hosts_only(self, embeddings, labelled):
        profiler = SessionProfiler(embeddings, labelled)
        profile = profiler.profile(["never-seen-1.com", "never-seen-2.com"])
        assert profile.is_empty
        assert profile.session_size == 2
        assert profile.known_hosts == 0

    def test_requires_labels(self, embeddings):
        with pytest.raises(ValueError, match="empty"):
            SessionProfiler(embeddings, {})

    def test_inconsistent_label_shapes_rejected(self, embeddings):
        labelled = {"a.com": np.zeros(3), "b.com": np.zeros(4)}
        with pytest.raises(ValueError, match="shapes"):
            SessionProfiler(embeddings, labelled)

    def test_invalid_neighbourhood(self, embeddings, labelled):
        with pytest.raises(ValueError):
            SessionProfiler(embeddings, labelled, neighbourhood_size=0)

    def test_neighbourhood_capped_by_fraction(self, embeddings, labelled):
        profiler = SessionProfiler(
            embeddings, labelled,
            neighbourhood_size=10_000,
            max_neighbourhood_fraction=0.02,
        )
        assert profiler.neighbourhood_size <= max(
            10, int(0.02 * len(embeddings))
        )


class TestToySpace:
    def test_travel_session_profiles_travel(self):
        embeddings, labelled = _toy_space()
        profiler = SessionProfiler(
            embeddings, labelled, neighbourhood_size=2,
            recentre_alpha=False,
        )
        profile = profiler.profile(["t2.com"])   # unlabelled travel host
        assert profile.categories[0] > profile.categories[1]

    def test_in_session_labelled_gets_full_weight(self):
        embeddings, labelled = _toy_space()
        profiler = SessionProfiler(
            embeddings, labelled, neighbourhood_size=1,
            recentre_alpha=False,
        )
        profile = profiler.profile(["t1.com"])
        assert profile.support >= 1
        assert profile.categories[0] > 0.9

    def test_mixed_session_blends(self):
        embeddings, labelled = _toy_space()
        profiler = SessionProfiler(
            embeddings, labelled, neighbourhood_size=4,
            max_neighbourhood_fraction=1.0, recentre_alpha=False,
        )
        profile = profiler.profile(["t1.com", "s1.com"])
        assert profile.categories[0] > 0
        assert profile.categories[1] > 0
        # equal alpha=1 labels: both categories weighted equally-ish
        assert profile.categories[0] == pytest.approx(
            profile.categories[1], abs=0.3
        )

    def test_labelled_host_outside_vocab_still_counts(self):
        embeddings, labelled = _toy_space()
        labelled = dict(labelled)
        labelled["offvocab.com"] = np.array([0.0, 0.0, 1.0])
        profiler = SessionProfiler(
            embeddings, labelled, neighbourhood_size=1,
            recentre_alpha=False,
        )
        profile = profiler.profile(["offvocab.com"])
        assert profile.categories[2] > 0.5
        assert profile.known_hosts == 0  # not in the embedding space

    def test_recentre_alpha_sharpens(self):
        embeddings, labelled = _toy_space()
        flat = SessionProfiler(
            embeddings, labelled, neighbourhood_size=4,
            max_neighbourhood_fraction=1.0, recentre_alpha=False,
        ).profile(["t2.com"])
        sharp = SessionProfiler(
            embeddings, labelled, neighbourhood_size=4,
            max_neighbourhood_fraction=1.0, recentre_alpha=True,
        ).profile(["t2.com"])
        def contrast(p):
            return p.categories[0] - p.categories[1]
        assert contrast(sharp) >= contrast(flat)


class TestTopCategories:
    def test_top_categories_sorted(self, embeddings, labelled, taxonomy):
        profiler = SessionProfiler(embeddings, labelled)
        hosts = embeddings.vocabulary.hosts[:20]
        profile = profiler.profile(hosts)
        tops = profile.top_categories(taxonomy, n=5)
        weights = [w for _, w in tops]
        assert weights == sorted(weights, reverse=True)
        assert all(w > 0 for w in weights)

    def test_profiles_match_session_content(
        self, embeddings, labelled, web, trace
    ):
        """End-to-end fidelity: profile should correlate with the true
        category vector of the session's content."""
        from repro.ads.clicks import affinity
        from repro.core.session import SessionExtractor
        from repro.utils.timeutils import minutes

        profiler = SessionProfiler(embeddings, labelled)
        extractor = SessionExtractor(window_seconds=minutes(20))
        windows = extractor.windows_for_day(trace, 1)[:80]
        scores = []
        for window in windows:
            true_vectors = [
                web.true_category_vector(h) for h in window.hostnames
            ]
            true_vectors = [v for v in true_vectors if v is not None]
            if not true_vectors:
                continue
            oracle = np.mean(true_vectors, axis=0)
            profile = profiler.profile(list(window.hostnames))
            if profile.is_empty:
                continue
            scores.append(affinity(oracle, profile.categories))
        assert len(scores) > 20
        assert float(np.mean(scores)) > 0.4


class TestVectorizedParity:
    """The vectorized Eq. 3/4 path is a refactor, not a change.

    Profiles must be bitwise-identical to the historical per-neighbour
    ``host_of`` loop (the in-session-labelled exclusion moved to a vocab-id
    mask).
    """

    @staticmethod
    def _reference_profile(profiler, hostnames):
        """The pre-refactor per-neighbour loop, kept as an oracle."""
        embeddings = profiler.embeddings
        session_hosts = first_visits(hostnames)
        if not session_hosts:
            return profiler._empty_profile(0, 0)
        session_vector = embeddings.aggregate(
            session_hosts, how=profiler.aggregation
        )
        known = sum(1 for h in session_hosts if h in embeddings)
        numerator = np.zeros(profiler.num_categories)
        denominator = 0.0
        support = 0
        in_session = [h for h in session_hosts if h in profiler.labelled]
        for hostname in in_session:
            numerator = numerator + profiler.labelled[hostname]
            denominator += 1.0
            support += 1
        if session_vector is not None:
            ids, sims = profiler.index.search(
                session_vector, profiler.neighbourhood_size
            )
            if profiler.recentre_alpha:
                ambient = profiler.ambient_similarity(session_vector)
                if ambient < 1.0:
                    sims = (sims - ambient) / (1.0 - ambient)
            skip = set(in_session)
            for host_id, sim in zip(ids, sims):
                hostname = embeddings.vocabulary.host_of(int(host_id))
                if hostname not in profiler.labelled or hostname in skip:
                    continue
                alpha = max(float(sim), 0.0)
                if alpha <= 0.0:
                    continue
                numerator = numerator + alpha * np.asarray(
                    profiler.labelled[hostname], dtype=np.float64
                )
                denominator += alpha
                support += 1
        if denominator == 0.0:
            return profiler._empty_profile(len(session_hosts), known)
        return SessionProfile(
            categories=numerator / denominator,
            session_size=len(session_hosts),
            known_hosts=known,
            support=support,
        )

    @pytest.mark.parametrize("recentre", [True, False])
    def test_profile_bitwise_identical_to_reference_loop(
        self, embeddings, labelled, rng, recentre
    ):
        profiler = SessionProfiler(
            embeddings, labelled, recentre_alpha=recentre
        )
        hosts = embeddings.vocabulary.hosts
        labelled_in_vocab = [h for h in labelled if h in embeddings]
        non_empty = 0
        for trial in range(10):
            session = [
                hosts[int(i)] for i in rng.integers(len(hosts), size=8)
            ]
            if trial % 2:
                # Labelled hosts in the session exercise the exclusion
                # mask: they must vote once (alpha = 1), not twice.
                session = session + labelled_in_vocab[:3]
            got = profiler.profile(session)
            want = self._reference_profile(profiler, session)
            np.testing.assert_array_equal(got.categories, want.categories)
            assert got.support == want.support
            assert got.known_hosts == want.known_hosts
            assert got.session_size == want.session_size
            non_empty += not got.is_empty
        assert non_empty > 0   # the comparison must exercise real votes


class TestAmbientCache:
    """The recentring term is served from the cached mean unit row."""

    def test_matches_full_vocabulary_scan(self, embeddings, labelled, rng):
        profiler = SessionProfiler(embeddings, labelled)
        for _ in range(5):
            vector = rng.normal(size=embeddings.dim)
            full_scan = float(embeddings.cosine_to_all(vector).mean())
            assert profiler.ambient_similarity(vector) == pytest.approx(
                full_scan, rel=1e-9, abs=1e-12
            )

    def test_zero_vector_is_zero(self, embeddings, labelled):
        profiler = SessionProfiler(embeddings, labelled)
        assert profiler.ambient_similarity(np.zeros(embeddings.dim)) == 0.0
