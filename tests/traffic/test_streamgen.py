"""Streamed, seeded, resumable generation — parity and resume guarantees.

The load-bearing property of :class:`StreamingTraceGenerator` is that the
streamed event sequence for a ``(seed, config)`` never changes: it is
pinned to golden SHA-256 digests, and batch size and external-merge
chunking must not move a single byte.  Everything out-of-core (spill
shards, cursors, lazy populations) hangs off that equivalence.
"""

import hashlib
import json

import pytest

from repro.traffic import (
    GenerationCursor,
    LazyUserPopulation,
    PopulationConfig,
    StreamingTraceGenerator,
    UserPopulation,
)
from repro.utils.randomness import derive_rng

TEST_SEED = 1234


def _eager_population(web, seed: int, num_users: int) -> UserPopulation:
    return UserPopulation.generate(
        web,
        derive_rng(seed, "population"),
        PopulationConfig(num_users=num_users),
    )


#: SHA-256 of two streamed days per (seed, num_users) world, one spill-
#: encoded JSON line per request.  Computed from the original materialized
#: generator (per-user kernel, then a stable (timestamp, user_id) sort),
#: which the streamed output matched for every batching and chunking below.
GOLDEN_DIGESTS = {
    (0, 1): "de747912c5095f3dc90181e8411c9c13e01f53857e985c365f1170dea923182b",
    (0, 8): "5846605ed993f22d0154af1ab919cdd96cd3c916d0cbb191a45b8663ac575259",
    (7, 1): "76e2c4a0ca158990e7f5f174e42503e2e984a2dd06764228b994f2ec61284fef",
    (7, 8): "29519096677f16c80634dd211dbea4e9fea24e3a49b11c830d41c6a0fa89d2c0",
    (1234, 1): "eff0bfaf1732af3c8dff74981df8dca00df1b227ec940deb3236f8ca6e087c61",
    (1234, 8): "7fb5e370b2720f80bcc64f32544e6b72790488eb0dfc109978abeb6ec0a4f5af",
}


def _digest(requests) -> str:
    digest = hashlib.sha256()
    for r in requests:
        line = json.dumps(
            [r.timestamp, r.user_id, r.hostname, r.kind.value, r.site_domain]
        )
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


class TestStreamedParity:
    @pytest.mark.parametrize(("seed", "num_users"), sorted(GOLDEN_DIGESTS))
    def test_streamed_output_matches_golden_digests(
        self, web, seed, num_users
    ):
        """Concatenated batches hash to the pinned digest under every
        batch size and external-merge chunking."""
        population = _eager_population(web, seed, num_users)
        for batch_events in (5, 512):
            for users_per_chunk in (1, 3, 1000):
                streaming = StreamingTraceGenerator(
                    web,
                    population,
                    seed=seed,
                    batch_events=batch_events,
                    users_per_chunk=users_per_chunk,
                )
                requests = []
                for batch in streaming.batches(2):
                    assert len(batch) <= batch_events
                    requests.extend(batch.requests)
                assert _digest(requests) == GOLDEN_DIGESTS[(seed, num_users)]

    def test_materialize_equals_stream(self, web, population):
        streaming = StreamingTraceGenerator(
            web, population, seed=TEST_SEED, users_per_chunk=7
        )
        trace = streaming.materialize(2)
        collected = [[], []]
        for batch in streaming.batches(2):
            collected[batch.day].extend(batch.requests)
        assert trace.days == collected

    def test_chunking_is_invisible(self, web, population):
        """users_per_chunk is an execution detail: any chunking (single
        chunk, many spilled chunks) yields the identical stream."""
        reference = None
        for users_per_chunk in (1, 7, 1000):
            streaming = StreamingTraceGenerator(
                web,
                population,
                seed=TEST_SEED,
                users_per_chunk=users_per_chunk,
            )
            day = streaming.day_requests(0)
            if users_per_chunk < len(population):
                assert streaming.spill_shards > 0
            else:
                assert streaming.spill_shards == 0
            if reference is None:
                reference = day
            else:
                assert day == reference

    def test_lazy_population_streams_deterministically(self, web):
        config = PopulationConfig(num_users=12)
        runs = []
        for _ in range(2):
            lazy = LazyUserPopulation(
                web, seed=9, config=config, cache_profiles=3
            )
            streaming = StreamingTraceGenerator(
                web, lazy, seed=9, users_per_chunk=5
            )
            runs.append(streaming.day_requests(0))
        assert runs[0] == runs[1]
        assert runs[0]  # the world is not degenerately empty


class TestSpillCleanup:
    """Abandoned iterators must not strand spill shards until GC."""

    @staticmethod
    def _spill_dirs(root):
        return [
            p for p in root.iterdir()
            if p.is_dir() and p.name.startswith("worldgen-day")
        ]

    def test_abandoned_day_iterator_cleans_on_close(
        self, web, population, tmp_path
    ):
        streaming = StreamingTraceGenerator(
            web, population, seed=TEST_SEED,
            users_per_chunk=3, spill_dir=tmp_path,
        )
        iterator = streaming.iter_day_requests(0)
        next(iterator)  # spill happened; merge is mid-flight
        assert self._spill_dirs(tmp_path)
        iterator.close()   # consumer walks away — no GC involved
        assert self._spill_dirs(tmp_path) == []

    def test_generator_close_reaps_outstanding_iterators(
        self, web, population, tmp_path
    ):
        streaming = StreamingTraceGenerator(
            web, population, seed=TEST_SEED,
            users_per_chunk=3, spill_dir=tmp_path,
        )
        iterator = streaming.iter_day_requests(0)
        next(iterator)
        assert self._spill_dirs(tmp_path)
        streaming.close()  # never touched the iterator again
        assert self._spill_dirs(tmp_path) == []
        # idempotent, and the closed iterator is simply exhausted
        streaming.close()
        assert list(iterator) == []

    def test_abandoned_batch_stream_cleans_on_close(
        self, web, population, tmp_path
    ):
        streaming = StreamingTraceGenerator(
            web, population, seed=TEST_SEED,
            batch_events=16, users_per_chunk=3, spill_dir=tmp_path,
        )
        batches = streaming.batches(2)
        next(batches)  # abandon mid-day, mid-merge
        assert self._spill_dirs(tmp_path)
        batches.close()
        assert self._spill_dirs(tmp_path) == []

    def test_dropped_iterator_reference_cleans_via_finalizer(
        self, web, population, tmp_path
    ):
        import gc

        streaming = StreamingTraceGenerator(
            web, population, seed=TEST_SEED,
            users_per_chunk=3, spill_dir=tmp_path,
        )
        iterator = streaming.iter_day_requests(0)
        next(iterator)
        assert self._spill_dirs(tmp_path)
        del iterator
        gc.collect()
        assert self._spill_dirs(tmp_path) == []

    def test_exhausted_iterator_leaves_nothing(
        self, web, population, tmp_path
    ):
        streaming = StreamingTraceGenerator(
            web, population, seed=TEST_SEED,
            users_per_chunk=3, spill_dir=tmp_path,
        )
        list(streaming.iter_day_requests(0))
        assert self._spill_dirs(tmp_path) == []


class TestResume:
    def _generator(self, web, population, **kwargs):
        kwargs.setdefault("batch_events", 64)
        kwargs.setdefault("users_per_chunk", 9)
        return StreamingTraceGenerator(
            web, population, seed=TEST_SEED, **kwargs
        )

    def test_kill_and_resume_no_dup_no_drop(self, web, population):
        """Stop after consuming any prefix of batches; resuming from the
        persisted cursor yields exactly the remaining batches."""
        full = list(self._generator(web, population).batches(2))
        assert len(full) > 6  # the scenario really spans many batches
        for kill_at in (1, len(full) // 2, len(full) - 1):
            cursor = full[kill_at - 1].resume_cursor
            resumed = list(
                self._generator(web, population).batches(2, cursor=cursor)
            )
            assert [b.requests for b in resumed] == [
                b.requests for b in full[kill_at:]
            ]

    def test_resume_across_day_boundary(self, web, population):
        full = list(self._generator(web, population).batches(2))
        last_day0 = max(i for i, b in enumerate(full) if b.day == 0)
        cursor = full[last_day0].resume_cursor
        resumed = list(
            self._generator(web, population).batches(2, cursor=cursor)
        )
        assert all(b.day == 1 for b in resumed)
        assert [b.requests for b in resumed] == [
            b.requests for b in full[last_day0 + 1:]
        ]

    def test_cursor_roundtrips_through_disk(self, web, population, tmp_path):
        gen = self._generator(web, population)
        batches = gen.batches(2)
        first = next(batches)
        path = first.resume_cursor.save(tmp_path / "cursor.json")
        loaded = GenerationCursor.load(path)
        assert loaded == first.resume_cursor
        resumed = list(
            self._generator(web, population).batches(2, cursor=loaded)
        )
        rest = list(batches)
        assert [b.requests for b in resumed] == [b.requests for b in rest]

    def test_unknown_cursor_format_rejected(self, tmp_path):
        path = tmp_path / "cursor.json"
        path.write_text('{"format": "something-else", "day": 0}')
        with pytest.raises(ValueError, match="unknown cursor format"):
            GenerationCursor.load(path)

    def test_foreign_config_digest_rejected(self, web, population):
        gen = self._generator(web, population)
        foreign = GenerationCursor(
            day=0, batch_index=1, config_digest="not-this-world"
        )
        with pytest.raises(ValueError, match="different generator config"):
            list(gen.batches(1, cursor=foreign))

    def test_digest_ignores_execution_details(self, web, population):
        """A cursor taken under one chunking resumes under another."""
        coarse = self._generator(web, population, users_per_chunk=1000)
        fine = self._generator(web, population, users_per_chunk=2)
        assert coarse.config_digest == fine.config_digest
        full = list(coarse.batches(1))
        cursor = full[0].resume_cursor
        resumed = list(fine.batches(1, cursor=cursor))
        assert [b.requests for b in resumed] == [
            b.requests for b in full[1:]
        ]

    def test_skipped_batches_are_counted(self, web, population):
        gen = self._generator(web, population)
        full = list(gen.batches(1))
        skip = 3
        gen2 = self._generator(web, population)
        list(gen2.batches(1, cursor=full[skip - 1].resume_cursor))
        assert gen2.resume_skipped_batches == skip


class TestLazyPopulation:
    def test_profiles_deterministic_and_cache_bounded(self, web):
        config = PopulationConfig(num_users=50)
        a = LazyUserPopulation(web, seed=4, config=config, cache_profiles=8)
        b = LazyUserPopulation(web, seed=4, config=config, cache_profiles=8)
        for user_id in (0, 17, 49, 17, 0):
            assert a.profile(user_id) == b.profile(user_id)
        assert a.cache_hits == 2  # the two repeats
        assert a.cache_misses == 3
        for user_id in range(50):
            a.profile(user_id)
        assert len(a) == 50

    def test_out_of_range_rejected(self, web):
        lazy = LazyUserPopulation(
            web, seed=4, config=PopulationConfig(num_users=5)
        )
        with pytest.raises(ValueError):
            lazy.profile(5)
        with pytest.raises(ValueError):
            lazy.profile(-1)

    def test_interest_matrix_chunks_concatenate(self, web):
        lazy = LazyUserPopulation(
            web, seed=4, config=PopulationConfig(num_users=23)
        )
        matrix = lazy.interest_matrix()
        assert matrix.shape[0] == 23
        rows = 0
        for start, block in lazy.iter_interest_matrix(chunk_users=7):
            assert (matrix[start:start + len(block)] == block).all()
            rows += len(block)
        assert rows == 23


class TestLazyWorldFacade:
    def test_lazy_world_wires_the_stream(self, tmp_path):
        from repro.world import make_lazy_world

        world = make_lazy_world(
            seed=3,
            num_sites=80,
            num_users=15,
            num_days=1,
            batch_events=128,
            users_per_chunk=6,
        )
        assert world.num_users == 15
        assert 0.0 < world.coverage < 1.0
        streamed = [r for b in world.batches() for r in b.requests]
        assert streamed == world.generator.day_requests(0)

    def test_materialize_round_trip(self):
        from repro.world import make_lazy_world

        lazy = make_lazy_world(
            seed=3, num_sites=80, num_users=10, num_days=1
        )
        world = lazy.materialize()
        assert world.trace.day(0) == lazy.generator.day_requests(0)
        assert world.labelled is lazy.labelled
