"""Flow tracking: from packets to at-most-one hostname event per flow.

The paper: "Even if the SNI field is sent during the handshake and the
connection may be long lasting, an eavesdropper may obtain the hostname of
the server (by tracking the TCP flow in HTTPS or checking the UDP
datagrams of QUIC)."  The flow table implements exactly that: the first
parseable ClientHello of a flow emits one hostname event; every later
packet of the same flow is attributed to the known flow and emits nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.netobs import dnswire, quic, tls
from repro.netobs.packets import IP_PROTO_TCP, IP_PROTO_UDP, Packet
from repro.netobs.quarantine import Quarantine
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, current_exemplar

PORT_HTTPS = 443
PORT_DNS = 53


@dataclass(frozen=True)
class HostnameEvent:
    """One observed (client, time, hostname) fact.

    ``trace`` carries the request-scoped
    :class:`~repro.obs.tracing.TraceContext` from the observer into the
    streaming profiler, so one sampled session's ingest, profile and
    index-search spans land in one trace.  It is provenance, not
    identity: excluded from equality and repr, and never serialized.
    """

    client_ip: str
    timestamp: float
    hostname: str
    source: str  # "tls-sni" | "quic-sni" | "dns"
    trace: object | None = field(default=None, compare=False, repr=False)


@dataclass
class FlowStats:
    packets_seen: int = 0
    flows_tracked: int = 0
    events_emitted: int = 0
    parse_failures: int = 0
    sni_absent: int = 0
    evictions: int = 0


class FlowTable:
    """Tracks 5-tuple flows and extracts one hostname per flow.

    ``max_flows`` bounds state like a real middlebox: the oldest flow is
    evicted first (FIFO), which can re-emit a hostname if a very old flow
    resumes — the same failure mode a real observer has.

    ``ip_only`` models the encrypted-SNI world of the paper's Section 7.2
    ("TLS 1.3 may use encrypted SNI but do not hide the IP address that
    may be used by the profiling algorithm"): instead of parsing
    ClientHellos, the first packet of every TLS/QUIC flow emits the
    *destination address* as an ``ip:A.B.C.D`` token.
    """

    def __init__(
        self,
        max_flows: int = 1_000_000,
        ip_only: bool = False,
        quarantine: Quarantine | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if max_flows < 1:
            raise ValueError("max_flows must be >= 1")
        self.max_flows = max_flows
        self.ip_only = ip_only
        self.quarantine = quarantine
        # Rebindable, like ExactIndex.tracer: the observer binds its
        # tracer here so sampled ingests get a "netobs.flow" child span.
        self.tracer = NULL_TRACER
        self._flows: OrderedDict[tuple, bool] = OrderedDict()
        # Counters live on the registry; ``stats`` is a view over them so
        # telemetry exports and callers read the same numbers.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._packets_total = self.registry.counter(
            "netobs_packets_total", "Packets fed to the flow table."
        )
        self._flows_total = self.registry.counter(
            "netobs_flows_tracked_total", "Distinct 5-tuple flows tracked."
        )
        self._events_total = self.registry.counter(
            "netobs_events_total",
            "Hostname events emitted, by wire source.",
            labelnames=("source",),
        )
        self._parse_failures_total = self.registry.counter(
            "netobs_parse_failures_total",
            "Wire-format parse failures, by parser context.",
            labelnames=("context",),
        )
        self._sni_absent_total = self.registry.counter(
            "netobs_sni_absent_total",
            "ClientHellos parsed successfully but carrying no SNI.",
        )
        self._evictions_total = self.registry.counter(
            "netobs_flow_evictions_total",
            "Flows evicted FIFO because max_flows was reached.",
        )

    @property
    def stats(self) -> FlowStats:
        """Registry-backed counter view (fresh snapshot on every read)."""
        return FlowStats(
            packets_seen=int(self._packets_total.value),
            flows_tracked=int(self._flows_total.value),
            events_emitted=int(self._events_total.total()),
            parse_failures=int(self._parse_failures_total.total()),
            sni_absent=int(self._sni_absent_total.value),
            evictions=int(self._evictions_total.value),
        )

    def _parse_failure(self, error: Exception, packet: Packet, context: str) -> None:
        self._parse_failures_total.labels(context=context).inc()
        if self.quarantine is not None:
            self.quarantine.admit(
                error, packet.payload,
                timestamp=packet.timestamp, context=context,
            )

    def _remember(self, key: tuple, emitted: bool) -> None:
        if key not in self._flows:
            self._flows_total.inc()
            if len(self._flows) >= self.max_flows:
                self._flows.popitem(last=False)
                self._evictions_total.inc()
        self._flows[key] = emitted

    def observe(self, packet: Packet) -> HostnameEvent | None:
        """Feed one packet; returns a new hostname event or None."""
        if not self.tracer.null and current_exemplar() is not None:
            with self.tracer.span("netobs.flow", protocol=packet.protocol):
                return self._observe(packet)
        return self._observe(packet)

    def _observe(self, packet: Packet) -> HostnameEvent | None:
        self._packets_total.inc()
        key = packet.flow_key
        if key in self._flows:
            return None  # flow already classified (or known empty)

        hostname: str | None = None
        source: str | None = None
        if (
            self.ip_only
            and packet.dst_port == PORT_HTTPS
            and packet.protocol in (IP_PROTO_TCP, IP_PROTO_UDP)
        ):
            self._remember(key, True)
            self._events_total.labels(source="ip").inc()
            return HostnameEvent(
                client_ip=packet.src_ip,
                timestamp=packet.timestamp,
                hostname=f"ip:{packet.dst_ip}",
                source="ip",
            )
        if packet.protocol == IP_PROTO_TCP and packet.dst_port == PORT_HTTPS:
            source = "tls-sni"
            if packet.payload[:1] == bytes([tls.CONTENT_TYPE_HANDSHAKE]):
                try:
                    hostname = tls.parse_client_hello_sni(packet.payload)
                except tls.TLSParseError as error:
                    self._parse_failure(error, packet, "tls-sni")
            else:
                return None  # not the handshake yet; keep waiting
        elif packet.protocol == IP_PROTO_UDP and packet.dst_port == PORT_HTTPS:
            source = "quic-sni"
            try:
                hostname = quic.parse_initial_sni(packet.payload)
            except quic.QUICParseError as error:
                self._parse_failure(error, packet, "quic-sni")
        elif packet.protocol == IP_PROTO_UDP and packet.dst_port == PORT_DNS:
            # DNS is per-query, not per-flow: don't remember the key.
            try:
                qname, _qtype = dnswire.parse_query(packet.payload)
            except dnswire.DNSParseError as error:
                self._parse_failure(error, packet, "dns")
                return None
            self._events_total.labels(source="dns").inc()
            return HostnameEvent(
                client_ip=packet.src_ip,
                timestamp=packet.timestamp,
                hostname=qname,
                source="dns",
            )
        else:
            return None

        self._remember(key, hostname is not None)
        if hostname is None:
            self._sni_absent_total.inc()
            return None
        self._events_total.labels(source=source).inc()
        return HostnameEvent(
            client_ip=packet.src_ip,
            timestamp=packet.timestamp,
            hostname=hostname,
            source=source,
        )
