"""Tests for hostname embedding queries and persistence."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.core.embeddings import HostnameEmbeddings
from repro.core.vocabulary import Vocabulary


@pytest.fixture()
def toy():
    vocab = Vocabulary(Counter({"a.com": 5, "b.com": 4, "c.com": 3, "d.com": 2}))
    vectors = np.array(
        [
            [1.0, 0.0],
            [0.9, 0.1],
            [0.0, 1.0],
            [-1.0, 0.0],
        ]
    )
    return HostnameEmbeddings(vectors, vocab)


class TestConstruction:
    def test_shape_mismatch_rejected(self, toy):
        with pytest.raises(ValueError):
            HostnameEmbeddings(np.zeros((2, 3)), toy.vocabulary)

    def test_non_finite_rejected(self, toy):
        bad = toy.vectors.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            HostnameEmbeddings(bad, toy.vocabulary)

    def test_one_dim_rejected(self, toy):
        with pytest.raises(ValueError):
            HostnameEmbeddings(np.zeros(4), toy.vocabulary)

    def test_basic_access(self, toy):
        assert len(toy) == 4
        assert toy.dim == 2
        assert "a.com" in toy
        assert "zzz.com" not in toy
        assert toy.get("zzz.com") is None
        with pytest.raises(KeyError):
            toy.vector("zzz.com")


class TestSimilarity:
    def test_self_similarity_is_one(self, toy):
        assert toy.similarity("a.com", "a.com") == pytest.approx(1.0)

    def test_symmetry(self, toy):
        assert toy.similarity("a.com", "b.com") == pytest.approx(
            toy.similarity("b.com", "a.com")
        )

    def test_opposite_vectors(self, toy):
        assert toy.similarity("a.com", "d.com") == pytest.approx(-1.0)

    def test_most_similar_excludes_self(self, toy):
        results = toy.most_similar("a.com", n=3)
        hosts = [h for h, _ in results]
        assert "a.com" not in hosts
        assert hosts[0] == "b.com"

    def test_most_similar_with_self(self, toy):
        results = toy.most_similar("a.com", n=2, exclude_self=False)
        assert results[0][0] == "a.com"
        assert results[0][1] == pytest.approx(1.0)

    def test_most_similar_sorted_descending(self, toy):
        sims = [s for _, s in toy.most_similar("a.com", n=3)]
        assert sims == sorted(sims, reverse=True)

    def test_nearest_to_vector(self, toy):
        ids, sims = toy.nearest_to_vector(np.array([1.0, 0.0]), n=2)
        assert toy.vocabulary.host_of(int(ids[0])) == "a.com"
        assert sims[0] == pytest.approx(1.0)

    def test_cosine_to_all_zero_vector(self, toy):
        sims = toy.cosine_to_all(np.zeros(2))
        assert (sims == 0).all()


class TestAggregation:
    def test_mean(self, toy):
        vec = toy.aggregate(["a.com", "c.com"])
        assert vec == pytest.approx(np.array([0.5, 0.5]))

    def test_sum_and_max(self, toy):
        assert toy.aggregate(["a.com", "c.com"], how="sum") == pytest.approx(
            np.array([1.0, 1.0])
        )
        assert toy.aggregate(["a.com", "c.com"], how="max") == pytest.approx(
            np.array([1.0, 1.0])
        )

    def test_unknown_hosts_skipped(self, toy):
        vec = toy.aggregate(["a.com", "nope.com"])
        assert vec == pytest.approx(toy.vector("a.com"))

    def test_all_unknown_returns_none(self, toy):
        assert toy.aggregate(["x.com", "y.com"]) is None

    def test_unknown_aggregation_rejected(self, toy):
        with pytest.raises(ValueError):
            toy.aggregate(["a.com"], how="median")


class TestPersistence:
    def test_save_load_roundtrip(self, toy, tmp_path):
        path = tmp_path / "emb.npz"
        toy.save(path)
        loaded = HostnameEmbeddings.load(path)
        assert len(loaded) == len(toy)
        for hostname in toy.vocabulary:
            assert np.allclose(loaded.vector(hostname), toy.vector(hostname))
            assert loaded.vocabulary.count_of(
                hostname
            ) == toy.vocabulary.count_of(hostname)

    def test_tied_counts_roundtrip_bitwise_identical(self, tmp_path):
        # Regression: with tied counts the load-time re-sort used to be
        # free to permute host -> row alignment.  v2 archives make the
        # saved row order authoritative, so save -> load -> save is
        # byte-for-byte stable and every vector survives verbatim.
        vocab = Vocabulary(
            Counter({"x.com": 3, "a.com": 3, "m.com": 3, "z.com": 3})
        )
        rng = np.random.default_rng(7)
        original = HostnameEmbeddings(rng.normal(size=(4, 5)), vocab)
        first = tmp_path / "first.npz"
        original.save(first)
        loaded = HostnameEmbeddings.load(first)
        assert loaded.vocabulary.hosts == original.vocabulary.hosts
        assert np.array_equal(loaded.vectors, original.vectors)
        second = tmp_path / "second.npz"
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_save_is_digest_stable(self, toy, tmp_path):
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        toy.save(first)
        toy.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_archive_bytes_are_pinned(self, tmp_path):
        """The one model archive: stored members, fixed bytes for a
        seeded model (every generation and fleet export carries it)."""
        rng = np.random.default_rng(7)
        vocab = Vocabulary(Counter({f"h{i}.example": 20 - i for i in range(8)}))
        path = tmp_path / "embeddings.npz"
        HostnameEmbeddings(rng.normal(size=(8, 5)), vocab).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6e154120dcf19aa99ad28cebb60de2d30f3aa0674dc5ddec349e036a5f9c7b61"
        )

    def test_save_leaves_no_tmp_sibling(self, toy, tmp_path):
        path = tmp_path / "emb.npz"
        toy.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["emb.npz"]

    def test_interrupted_save_preserves_previous_archive(
        self, toy, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "emb.npz"
        toy.save(path)
        before = path.read_bytes()

        def explode(src, dst):
            raise OSError("power cut")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            toy.save(path)
        assert path.read_bytes() == before

    def test_legacy_v1_archive_still_loads(self, tmp_path):
        # Pre-format_version archives stored hosts/counts and relied on
        # the load-time re-sort; the realignment path must keep reading
        # them.  Hosts deliberately saved out of count order.
        path = tmp_path / "legacy.npz"
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        np.savez(
            path,
            vectors=vectors,
            hosts=np.asarray(["low.com", "high.com", "mid.com"]),
            counts=np.asarray([1, 9, 4]),
        )
        loaded = HostnameEmbeddings.load(path)
        assert loaded.vocabulary.hosts == ["high.com", "mid.com", "low.com"]
        assert np.allclose(loaded.vector("low.com"), [1.0, 0.0])
        assert np.allclose(loaded.vector("high.com"), [0.0, 1.0])
        assert np.allclose(loaded.vector("mid.com"), [0.5, 0.5])


class TestWord2VecFormat:
    def test_roundtrip(self, toy, tmp_path):
        path = tmp_path / "vectors.txt"
        toy.save_word2vec_format(path)
        loaded = HostnameEmbeddings.load_word2vec_format(path)
        assert len(loaded) == len(toy)
        for hostname in toy.vocabulary:
            assert np.allclose(
                loaded.vector(hostname), toy.vector(hostname), atol=1e-5
            )

    def test_header_format(self, toy, tmp_path):
        path = tmp_path / "vectors.txt"
        toy.save_word2vec_format(path)
        header = path.read_text().splitlines()[0]
        assert header == f"{len(toy)} {toy.dim}"

    def test_rank_order_preserved(self, toy, tmp_path):
        path = tmp_path / "vectors.txt"
        toy.save_word2vec_format(path)
        loaded = HostnameEmbeddings.load_word2vec_format(path)
        assert loaded.vocabulary.hosts == toy.vocabulary.hosts

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a header\n")
        with pytest.raises(ValueError, match="header"):
            HostnameEmbeddings.load_word2vec_format(path)

    def test_wrong_dimension_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 3\na.com 0.1 0.2\n")
        with pytest.raises(ValueError, match="bad vector line"):
            HostnameEmbeddings.load_word2vec_format(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\na.com 0.1 0.2\n")
        with pytest.raises(ValueError, match="promised"):
            HostnameEmbeddings.load_word2vec_format(path)

    def test_loaded_counts_are_rank_based(self, toy, tmp_path):
        # The text format carries no frequencies, so load synthesizes
        # rank-based counts: first line = highest count, descending by 1.
        path = tmp_path / "vectors.txt"
        toy.save_word2vec_format(path)
        loaded = HostnameEmbeddings.load_word2vec_format(path)
        counts = [
            loaded.vocabulary.count_of(h) for h in loaded.vocabulary.hosts
        ]
        assert counts == [len(toy) - i for i in range(len(toy))]

    def test_double_roundtrip_is_stable(self, toy, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        toy.save_word2vec_format(first)
        HostnameEmbeddings.load_word2vec_format(first).save_word2vec_format(
            second
        )
        assert first.read_text() == second.read_text()


class TestDegenerateQueries:
    """Regression: n <= 0 and one-host vocabularies used to crash in
    ``np.argpartition`` before the index layer clamped them."""

    def test_most_similar_non_positive_n(self, toy):
        assert toy.most_similar("a.com", n=0) == []
        assert toy.most_similar("a.com", n=-5) == []

    def test_nearest_to_vector_non_positive_n(self, toy):
        ids, sims = toy.nearest_to_vector(np.array([1.0, 0.0]), n=0)
        assert len(ids) == 0 and len(sims) == 0
        ids, _ = toy.nearest_to_vector(np.array([1.0, 0.0]), n=-3)
        assert len(ids) == 0

    def test_nearest_to_vector_n_clamped_to_vocabulary(self, toy):
        ids, sims = toy.nearest_to_vector(np.array([1.0, 0.0]), n=50)
        assert len(ids) == len(toy)
        assert (np.diff(sims) <= 0).all()

    def test_one_host_vocabulary(self):
        vocab = Vocabulary(Counter({"only.com": 3}))
        embeddings = HostnameEmbeddings(np.array([[1.0, 0.0]]), vocab)
        # exclude_self leaves nothing to return; historically the search
        # asked for n + 1 of a 1-row matrix and argpartition blew up.
        assert embeddings.most_similar("only.com", n=5) == []
        with_self = embeddings.most_similar(
            "only.com", n=5, exclude_self=False
        )
        assert with_self == [("only.com", pytest.approx(1.0))]
        ids, _ = embeddings.nearest_to_vector(np.array([1.0, 0.0]), n=10)
        assert ids.tolist() == [0]

    def test_one_host_vocabulary_non_positive_n(self):
        vocab = Vocabulary(Counter({"only.com": 3}))
        embeddings = HostnameEmbeddings(np.array([[1.0, 0.0]]), vocab)
        assert embeddings.most_similar("only.com", n=0) == []


class TestTrainedEmbeddings:
    """Sanity on real (fixture) embeddings trained on the synthetic trace."""

    def test_unit_vectors_normalized(self, embeddings):
        norms = np.linalg.norm(embeddings.unit_vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_most_similar_never_returns_self(self, embeddings):
        host = embeddings.vocabulary.host_of(0)
        assert host not in [h for h, _ in embeddings.most_similar(host, 20)]

    def test_satellites_embed_near_parent(self, embeddings, web, rng):
        """The api.bkng.azure.com -> hotels.com anecdote, quantified."""
        pairs = []
        sites = [s for s in web.content_sites if s.domain in embeddings]
        for site in sites:
            for satellite in site.satellites:
                if satellite in embeddings:
                    pairs.append((satellite, site.domain))
        assert len(pairs) > 10
        wins = 0
        for satellite, parent in pairs:
            other = sites[int(rng.integers(len(sites)))].domain
            if other == parent:
                continue
            if embeddings.similarity(satellite, parent) > \
                    embeddings.similarity(satellite, other):
                wins += 1
        assert wins / len(pairs) > 0.8
