"""Generation drift monitoring: does the candidate model still look sane?

The paper's observer retrains embeddings **daily** and immediately starts
serving the new model (§5.4).  The dangerous failures of that loop are
slow and silent: the hostname mix shifts (arXiv:1710.00069 shows profile
quality is highly sensitive to the observed hostname distribution), the
embedding space reorganises (arXiv:2401.07410 shows DNS-embedding quality
degrades silently under distribution drift), or label coverage decays.
None of those throw an exception — the retrain "succeeds" and the served
profiles quietly rot.  (Input hygiene — a capture quarantining a growing
share of its packets — is watched live by the ``stream-quarantine-ratio``
SLO, not here.)

:class:`DriftMonitor` compares a **candidate** model (the one a retrain
just produced) against the **serving** one along four axes:

* **vocabulary churn** — Jaccard similarity of the two vocabularies; a
  collapse means the observed hostname mix changed wholesale;
* **neighbour overlap@k** — for a seeded sample of hostnames present in
  both vocabularies, the mean overlap between each host's k nearest
  neighbours in the two embedding spaces (queries go through each
  space's bound :class:`~repro.index.ExactIndex`, like every other
  similarity lookup);
* **labelled coverage delta** — the relative change in how many labelled
  hosts (H_L) the embedding space contains; Eq. 4 has no vote without
  labelled neighbours;
* **category-distribution shift** — Jensen–Shannon divergence (base 2,
  so in [0, 1]) between the mean category distributions both models
  assign to a fixed, seeded probe-session grid drawn from the shared
  vocabulary.

Every comparison produces a :class:`DriftReport`; breached thresholds
(from :class:`DriftConfig`) are listed by name, and the supervisor's
drift gate — its only way to reject a retrained model — turns a
non-empty breach list into rollback + retract: the previous generation
keeps serving.  Reports are JSON-serializable (canonical form via
``utils/serialization.py``) and are published as a component of every
store generation, so a post-mortem can replay the drift history of a
deployment from the store alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.utils.randomness import derive_rng

log = get_logger("obs.drift")

#: Schema tag stamped into every serialized report.
DRIFT_REPORT_FORMAT = "repro-drift-v1"


@dataclass
class DriftConfig:
    """Probe sizes and gate thresholds for generation comparison.

    Thresholds are deliberately loose: the gate exists to veto
    *catastrophic* drift (a label shuffle, a scrambled embedding space,
    a vocabulary from a different network), not to second-guess the
    normal day-to-day wobble of retraining on fresh traffic.
    """

    # -- probe sizes ---------------------------------------------------------
    sample_hosts: int = 64          # hosts sampled for neighbour overlap
    neighbour_k: int = 10           # overlap@k
    probe_sessions: int = 32        # fixed probe-session grid size
    probe_session_length: int = 5   # hostnames per probe session
    seed: int = 0                   # derives every probe sample

    # -- gate thresholds (breach => rollback when gated) ---------------------
    gate: bool = True                        # False: report, never veto
    max_vocab_churn: float = 0.75            # 1 - Jaccard(vocabs)
    min_neighbour_overlap: float = 0.05      # mean overlap@k floor
    max_labelled_coverage_drop: float = 0.3  # relative drop in |H_L ∩ V|
    max_category_jsd: float = 0.25           # JSD of probe-grid profiles

    def validate(self) -> None:
        if self.sample_hosts < 1:
            raise ValueError("sample_hosts must be >= 1")
        if self.neighbour_k < 1:
            raise ValueError("neighbour_k must be >= 1")
        if self.probe_sessions < 1:
            raise ValueError("probe_sessions must be >= 1")
        if self.probe_session_length < 1:
            raise ValueError("probe_session_length must be >= 1")
        if not 0 <= self.max_vocab_churn <= 1:
            raise ValueError("max_vocab_churn must be in [0, 1]")
        if not 0 <= self.min_neighbour_overlap <= 1:
            raise ValueError("min_neighbour_overlap must be in [0, 1]")
        if not 0 <= self.max_labelled_coverage_drop <= 1:
            raise ValueError("max_labelled_coverage_drop must be in [0, 1]")
        if not 0 <= self.max_category_jsd <= 1:
            raise ValueError("max_category_jsd must be in [0, 1]")

    def thresholds(self) -> dict:
        """The gate thresholds, for embedding into reports."""
        return {
            "max_vocab_churn": self.max_vocab_churn,
            "min_neighbour_overlap": self.min_neighbour_overlap,
            "max_labelled_coverage_drop": self.max_labelled_coverage_drop,
            "max_category_jsd": self.max_category_jsd,
        }


@dataclass(frozen=True)
class DriftReport:
    """One candidate-vs-serving comparison, with the gate's verdict."""

    serving_generation: str | None
    candidate_day: int | None
    vocab_jaccard: float
    vocab_churn: float            # 1 - jaccard
    shared_hosts: int
    neighbour_overlap: float      # mean overlap@k over the host sample
    sampled_hosts: int
    labelled_coverage_serving: int
    labelled_coverage_candidate: int
    labelled_coverage_delta: float    # relative; negative = coverage drop
    category_jsd: float               # base-2 JSD, in [0, 1]
    breaches: tuple[str, ...] = ()
    thresholds: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no gate threshold was breached."""
        return not self.breaches

    def to_dict(self) -> dict:
        return {
            "format": DRIFT_REPORT_FORMAT,
            "serving_generation": self.serving_generation,
            "candidate_day": self.candidate_day,
            "vocab_jaccard": self.vocab_jaccard,
            "vocab_churn": self.vocab_churn,
            "shared_hosts": self.shared_hosts,
            "neighbour_overlap": self.neighbour_overlap,
            "sampled_hosts": self.sampled_hosts,
            "labelled_coverage_serving": self.labelled_coverage_serving,
            "labelled_coverage_candidate": self.labelled_coverage_candidate,
            "labelled_coverage_delta": self.labelled_coverage_delta,
            "category_jsd": self.category_jsd,
            "breaches": list(self.breaches),
            "thresholds": dict(self.thresholds),
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DriftReport":
        """Rebuild a report; keys it does not know are ignored.

        Stores on disk may hold ``repro-drift-v1`` reports that also
        carry ``quarantine_rate``, ``late_drop_rate`` and ``anomalies``;
        they must stay readable.
        """
        if payload.get("format") != DRIFT_REPORT_FORMAT:
            raise ValueError(
                f"not a {DRIFT_REPORT_FORMAT} payload: "
                f"{payload.get('format')!r}"
            )
        return cls(
            serving_generation=payload["serving_generation"],
            candidate_day=payload["candidate_day"],
            vocab_jaccard=float(payload["vocab_jaccard"]),
            vocab_churn=float(payload["vocab_churn"]),
            shared_hosts=int(payload["shared_hosts"]),
            neighbour_overlap=float(payload["neighbour_overlap"]),
            sampled_hosts=int(payload["sampled_hosts"]),
            labelled_coverage_serving=int(
                payload["labelled_coverage_serving"]
            ),
            labelled_coverage_candidate=int(
                payload["labelled_coverage_candidate"]
            ),
            labelled_coverage_delta=float(
                payload["labelled_coverage_delta"]
            ),
            category_jsd=float(payload["category_jsd"]),
            breaches=tuple(payload.get("breaches", ())),
            thresholds=dict(payload.get("thresholds", {})),
        )

    def summary(self) -> str:
        """One-line operator digest for logs and the CLI."""
        verdict = "ok" if self.ok else f"BREACH({', '.join(self.breaches)})"
        return (
            f"drift vs {self.serving_generation or '<in-memory>'}: "
            f"churn {self.vocab_churn:.3f}, "
            f"nn-overlap {self.neighbour_overlap:.3f}, "
            f"coverage {self.labelled_coverage_delta:+.3f}, "
            f"jsd {self.category_jsd:.3f} -> {verdict}"
        )


def _jensen_shannon(p: np.ndarray, q: np.ndarray) -> float:
    """Base-2 Jensen–Shannon divergence of two distributions, in [0, 1].

    Handles degenerate inputs the way the gate needs: two empty
    distributions are identical (0), one empty against one real is
    maximal drift (1).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    p_sum, q_sum = p.sum(), q.sum()
    if p_sum <= 0 and q_sum <= 0:
        return 0.0
    if p_sum <= 0 or q_sum <= 0:
        return 1.0
    p = p / p_sum
    q = q / q_sum
    m = 0.5 * (p + q)

    def _kl(a: np.ndarray, b: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    return min(1.0, max(0.0, 0.5 * _kl(p, m) + 0.5 * _kl(q, m)))


class DriftMonitor:
    """Compares a candidate model generation against the serving one.

    Both sides are :class:`~repro.core.profiler.SessionProfiler`
    instances (each carries its embeddings, its bound vector index, and
    its view of the labelled set), so the monitor needs no access to
    training internals — it probes the exact objects that would serve.
    """

    def __init__(
        self,
        config: DriftConfig | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.config = config or DriftConfig()
        self.config.validate()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        m = self.registry
        self._checks_total = m.counter(
            "drift_checks_total", "Candidate-vs-serving drift comparisons."
        )
        self._breaches_total = m.counter(
            "drift_breaches_total",
            "Threshold breaches, by drift metric.",
            labelnames=("metric",),
        )
        self._vocab_churn_gauge = m.gauge(
            "drift_vocab_churn", "1 - Jaccard(vocabularies), last check."
        )
        self._overlap_gauge = m.gauge(
            "drift_neighbour_overlap",
            "Mean neighbour overlap@k over the host sample, last check.",
        )
        self._coverage_delta_gauge = m.gauge(
            "drift_labelled_coverage_delta",
            "Relative labelled-coverage change, last check.",
        )
        self._jsd_gauge = m.gauge(
            "drift_category_jsd",
            "Probe-grid category-distribution JSD, last check.",
        )

    # -- component metrics ----------------------------------------------------

    @staticmethod
    def _vocab_set(profiler) -> set[str]:
        return set(profiler.embeddings.vocabulary.hosts)

    def _neighbour_overlap(
        self, serving, candidate, shared: list[str]
    ) -> tuple[float, int]:
        """Mean overlap@k of each sampled host's neighbour sets."""
        cfg = self.config
        if not shared:
            return 0.0, 0
        rng = derive_rng(cfg.seed, "drift-neighbour-sample")
        count = min(cfg.sample_hosts, len(shared))
        sample = [
            shared[int(i)]
            for i in rng.choice(len(shared), size=count, replace=False)
        ]
        overlaps = []
        for host in sample:
            before = {
                name for name, _ in
                serving.embeddings.most_similar(host, cfg.neighbour_k)
            }
            after = {
                name for name, _ in
                candidate.embeddings.most_similar(host, cfg.neighbour_k)
            }
            denominator = max(len(before), len(after), 1)
            overlaps.append(len(before & after) / denominator)
        return float(np.mean(overlaps)), count

    def _probe_grid(self, shared: list[str]) -> list[list[str]]:
        """The fixed, seeded probe-session grid over the shared vocab."""
        cfg = self.config
        if not shared:
            return []
        rng = derive_rng(cfg.seed, "drift-probe-grid")
        sessions = []
        for _ in range(cfg.probe_sessions):
            size = min(cfg.probe_session_length, len(shared))
            picks = rng.choice(len(shared), size=size, replace=False)
            sessions.append([shared[int(i)] for i in picks])
        return sessions

    def _category_shift(self, serving, candidate, shared: list[str]) -> float:
        """JSD between mean probe-grid category distributions."""
        sessions = self._probe_grid(shared)
        if not sessions:
            return 0.0
        before = np.zeros(serving.num_categories)
        after = np.zeros(candidate.num_categories)
        if before.shape != after.shape:
            # Different taxonomies cannot be compared dimension-wise;
            # that is maximal drift by definition.
            return 1.0
        for hosts in sessions:
            before += serving.profile(list(hosts)).categories
            after += candidate.profile(list(hosts)).categories
        return _jensen_shannon(before, after)

    # -- the comparison --------------------------------------------------------

    def compare(
        self,
        serving,
        candidate,
        serving_generation: str | None = None,
        candidate_day: int | None = None,
    ) -> DriftReport:
        """Compare two profilers; returns the report (never raises on drift).

        ``serving`` / ``candidate`` are session profilers.  Breaches are
        *reported*, not raised — enforcement is the supervisor's drift
        gate.
        """
        cfg = self.config
        with self.tracer.span(
            "drift.check",
            serving=serving_generation, day=candidate_day,
        ):
            vocab_before = self._vocab_set(serving)
            vocab_after = self._vocab_set(candidate)
            union = vocab_before | vocab_after
            intersection = vocab_before & vocab_after
            jaccard = len(intersection) / len(union) if union else 1.0
            churn = 1.0 - jaccard
            shared = sorted(intersection)

            overlap, sampled = self._neighbour_overlap(
                serving, candidate, shared
            )
            coverage_before = serving.labelled_in_vocabulary
            coverage_after = candidate.labelled_in_vocabulary
            coverage_delta = (
                (coverage_after - coverage_before) / coverage_before
                if coverage_before else 0.0
            )
            jsd = self._category_shift(serving, candidate, shared)

            breaches = []
            if churn > cfg.max_vocab_churn:
                breaches.append("vocab_churn")
            if overlap < cfg.min_neighbour_overlap:
                breaches.append("neighbour_overlap")
            if -coverage_delta > cfg.max_labelled_coverage_drop:
                breaches.append("labelled_coverage")
            if jsd > cfg.max_category_jsd:
                breaches.append("category_jsd")

        self._checks_total.inc()
        self._vocab_churn_gauge.set(churn)
        self._overlap_gauge.set(overlap)
        self._coverage_delta_gauge.set(coverage_delta)
        self._jsd_gauge.set(jsd)
        for metric in breaches:
            self._breaches_total.labels(metric=metric).inc()

        report = DriftReport(
            serving_generation=serving_generation,
            candidate_day=candidate_day,
            vocab_jaccard=jaccard,
            vocab_churn=churn,
            shared_hosts=len(shared),
            neighbour_overlap=overlap,
            sampled_hosts=sampled,
            labelled_coverage_serving=coverage_before,
            labelled_coverage_candidate=coverage_after,
            labelled_coverage_delta=coverage_delta,
            category_jsd=jsd,
            breaches=tuple(breaches),
            thresholds=cfg.thresholds(),
        )
        if report.ok:
            log.info("drift check passed", summary=report.summary())
        else:
            log.warning(
                "drift check breached",
                summary=report.summary(), breaches=list(report.breaches),
            )
        return report

