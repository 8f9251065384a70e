"""Tests for the decoy-injection defense."""

import pytest

from repro.defense.decoys import DecoyConfig, DecoyInjector, evaluate_defense
from repro.core.pipeline import PipelineConfig
from repro.core.skipgram import SkipGramConfig
from repro.traffic import StreamingTraceGenerator


@pytest.fixture()
def injector(web):
    return DecoyInjector(web, DecoyConfig(decoy_rate=1.0))


class TestProtect:
    def test_adds_roughly_rate_decoys(self, web, trace, rng):
        injector = DecoyInjector(web, DecoyConfig(decoy_rate=2.0))
        requests = next(iter(trace.user_sequences(0).values()))
        protected = injector.protect(requests, rng)
        overhead = (len(protected) - len(requests)) / len(requests)
        assert 1.0 < overhead < 3.0

    def test_zero_rate_is_identity(self, web, trace, rng):
        injector = DecoyInjector(web, DecoyConfig(decoy_rate=0.0))
        requests = next(iter(trace.user_sequences(0).values()))
        assert injector.protect(requests, rng) == requests

    def test_output_sorted_by_time(self, injector, trace, rng):
        requests = next(iter(trace.user_sequences(0).values()))
        protected = injector.protect(requests, rng)
        times = [r.timestamp for r in protected]
        assert times == sorted(times)

    def test_genuine_requests_preserved(self, injector, trace, rng):
        requests = next(iter(trace.user_sequences(0).values()))
        protected = injector.protect(requests, rng)
        for request in requests:
            assert request in protected

    def test_empty_stream(self, injector, rng):
        assert injector.protect([], rng) == []

    def test_chaff_avoids_browsed_verticals(self, web, trace, rng):
        injector = DecoyInjector(
            web, DecoyConfig(decoy_rate=3.0, strategy="chaff")
        )
        requests = next(iter(trace.user_sequences(0).values()))
        browsed = {
            web.site(r.site_domain).vertical
            for r in requests
            if r.is_content() and r.site_domain in
            {s.domain for s in web.content_sites}
        }
        protected = injector.protect(requests, rng)
        decoys = [r for r in protected if r not in set(requests)]
        assert decoys
        decoy_verticals = {
            web.site(r.site_domain).vertical for r in decoys
        }
        assert not (decoy_verticals & browsed)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DecoyConfig(decoy_rate=-1).validate()
        with pytest.raises(ValueError):
            DecoyConfig(strategy="magic").validate()


class TestProtectTrace:
    def test_trace_grows(self, injector, trace, rng):
        protected = injector.protect_trace(trace, rng)
        assert protected.num_requests > trace.num_requests
        assert len(protected) == len(trace)

    def test_user_ids_preserved(self, injector, trace, rng):
        protected = injector.protect_trace(trace, rng)
        assert protected.user_ids() == trace.user_ids()


class TestEvaluateDefense:
    def test_defense_degrades_fidelity(
        self, web, population, labelled, rng
    ):
        trace = StreamingTraceGenerator(
            web, population, seed=41
        ).materialize(2)
        injector = DecoyInjector(
            web, DecoyConfig(decoy_rate=3.0, strategy="chaff")
        )
        report = evaluate_defense(
            web, trace, labelled, injector, rng,
            pipeline_config=PipelineConfig(
                skipgram=SkipGramConfig(epochs=6, seed=0)
            ),
            max_windows=120,
        )
        assert report.overhead > 1.5
        # Judge on centered (background-free) fidelity: raw affinity is
        # dominated by the shared core categories and barely moves.
        baseline = report.baseline_fidelity.mean_centered_affinity
        defended = report.fidelity.mean_centered_affinity
        assert baseline - defended > 0.25 * baseline, (
            "heavy chaff must measurably blunt the profiler"
        )

    def test_report_fields(self, web, population, labelled, rng):
        trace = StreamingTraceGenerator(
            web, population, seed=43
        ).materialize(2)
        injector = DecoyInjector(web, DecoyConfig(decoy_rate=0.5))
        report = evaluate_defense(
            web, trace, labelled, injector, rng,
            pipeline_config=PipelineConfig(
                skipgram=SkipGramConfig(epochs=4, seed=0)
            ),
            max_windows=60,
        )
        assert report.baseline_fidelity.sessions_profiled > 0
        assert report.fidelity.sessions_profiled > 0
        assert 0.2 < report.overhead < 1.0
