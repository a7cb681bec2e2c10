"""The multi-tenant gateway: auth, admission, serving, and alert feeds.

:class:`Gateway` fronts the elastic :class:`~repro.serve.runtime.ServingRuntime`
with a tenant-aware service layer.  One ``handle()`` call is one ingest
round: authenticate every arrival against presented credentials, run
admission control (per-tenant token bucket + shared fleet-capacity
bucket + hard quotas, all on simulated time), stamp admitted messages
with their tenant id, and serve them through the shared fleet.  The
fleet scores the messages on stateless shards, then applies them in
stream order to one keyed state monitor: the state of handle *h* for
tenant *t* is keyed ``tenant_scope(t) + h``
(:func:`repro.service.monitor.tenant_scope`), and a message is applied
once the stream-order watermark passes it.  The scope prefix
keeps two tenants naming the same target apart, which yields the
subsystem's headline invariant:

    Each tenant's merged alert stream is byte-identical to running that
    tenant's admitted traffic alone through a single monitor — for any
    shard count, rebalance schedule, hot-key split, or mid-run shard
    kill, jobs=1 or jobs=N.

Alerts flow out through per-tenant preference filters (threshold
overrides, enabled kinds) into bounded cursor-resumable
:class:`~repro.gateway.feeds.AlertFeed` buffers.  Feeds, quotas,
buckets, and telemetry persist across ``handle()`` calls; monitor state
is per-call (each round is one complete simulated serve).  A round's
alert-feed latency comes from :attr:`ServeResult.completions
<repro.serve.runtime.ServeResult.completions>`, which times every
alerting message at that watermark.

Everything is deterministic: no wall clock, no process-salted hashing,
single-threaded admission before the serve fan-out, sorted iteration
everywhere a dict feeds an output.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Sequence

from repro.gateway.admission import AdmissionAccounting, TokenBucket
from repro.gateway.feeds import AlertFeed
from repro.gateway.telemetry import GatewayTelemetry, TenantTelemetry
from repro.gateway.tenants import TenantRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import RunObserver
from repro.serve.loadgen import Arrival
from repro.serve.ring import KillSpec, RebalanceSchedule
from repro.serve.runtime import ServeConfig, ServeResult, ServingRuntime
from repro.service.monitor import Alert


@dataclasses.dataclass(frozen=True)
class GatewayConfig:
    """Gateway-level knobs riding on top of a :class:`ServeConfig`."""

    #: shared fleet-capacity bucket: refill rate (messages/second)
    fleet_rate_per_second: float = 5000.0
    #: shared fleet-capacity bucket: capacity
    fleet_burst: int = 256
    #: per-tenant alert-feed buffer capacity (drop-oldest beyond it)
    feed_capacity: int = 256

    def __post_init__(self) -> None:
        if self.fleet_rate_per_second < 0:
            raise ValueError(
                "GatewayConfig.fleet_rate_per_second must be >= 0, "
                f"got {self.fleet_rate_per_second}"
            )
        if self.fleet_burst < 0:
            raise ValueError(
                f"GatewayConfig.fleet_burst must be >= 0, got {self.fleet_burst}"
            )
        if self.feed_capacity < 1:
            raise ValueError(
                f"GatewayConfig.feed_capacity must be >= 1, "
                f"got {self.feed_capacity}"
            )

    def as_dict(self) -> dict[str, object]:
        return {
            "fleet_rate_per_second": self.fleet_rate_per_second,
            "fleet_burst": self.fleet_burst,
            "feed_capacity": self.feed_capacity,
        }


@dataclasses.dataclass
class GatewayResult:
    """Outcome of one :meth:`Gateway.handle` ingest round."""

    #: per presented tenant id, this round's admission ledger
    admission: dict[str, AdmissionAccounting]
    #: raw per-tenant alert streams (merged-sort order, *before* the
    #: preference layer) — the streams the isolation invariant is
    #: stated over
    alerts_by_tenant: dict[str, list[Alert]]
    #: what each tenant's preference layer actually delivered to its feed
    delivered_by_tenant: dict[str, list[Alert]]
    #: the underlying serve run over admitted traffic
    serve: ServeResult
    #: admitted arrivals, tenant-stamped — what the fleet actually
    #: served; the isolation check replays one tenant's slice through a
    #: solo monitor.  Per-message data, excluded from :meth:`as_dict`.
    admitted_arrivals: list[Arrival] = dataclasses.field(
        default_factory=list
    )

    @property
    def admitted(self) -> int:
        return sum(
            self.admission[tenant].admitted for tenant in sorted(self.admission)
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "admission": {
                tenant: self.admission[tenant].as_dict()
                for tenant in sorted(self.admission)
            },
            "alerts_by_tenant": {
                tenant: len(self.alerts_by_tenant[tenant])
                for tenant in sorted(self.alerts_by_tenant)
            },
            "delivered_by_tenant": {
                tenant: len(self.delivered_by_tenant[tenant])
                for tenant in sorted(self.delivered_by_tenant)
            },
            "serve": self.serve.as_dict(),
        }


class Gateway:
    """Multi-tenant front door over the elastic serving runtime."""

    def __init__(
        self,
        registry: TenantRegistry,
        monitor_factory,
        serve_config: ServeConfig | None = None,
        config: GatewayConfig | None = None,
    ) -> None:
        self.registry = registry
        self.config = config or GatewayConfig()
        self._runtime = ServingRuntime(
            monitor_factory, serve_config or ServeConfig()
        )
        self._fleet_bucket = TokenBucket(
            self.config.fleet_rate_per_second, self.config.fleet_burst
        )
        self._buckets: dict[str, TokenBucket] = {}
        for tenant in registry.tenant_ids():
            tenant_config = registry.config(tenant)
            self._buckets[tenant] = TokenBucket(
                tenant_config.rate_per_second, tenant_config.burst
            )
        self._feeds: dict[str, AlertFeed] = {
            tenant: AlertFeed(self.config.feed_capacity)
            for tenant in registry.tenant_ids()
        }
        #: lifetime admitted-message counts, for hard quotas
        self._usage: dict[str, int] = {}
        self._telemetry = GatewayTelemetry()

    # -- admission ---------------------------------------------------------

    def _admit(
        self,
        arrivals: Sequence[Arrival],
        credentials: Mapping[str, str],
        ledgers: dict[str, AdmissionAccounting],
    ) -> list[Arrival]:
        """Run admission control over time-ordered arrivals.

        Decision order per arrival: authentication, hard quota, tenant
        token bucket, fleet bucket — both buckets are refilled and
        peeked before either is consumed, so a fleet-throttled arrival
        does not burn the tenant's own budget.  Admitted messages come
        back stamped with their tenant id (the isolation key).
        """
        admitted: list[Arrival] = []
        for arrival in arrivals:
            tenant = arrival.tenant
            ledger = ledgers.get(tenant)
            if ledger is None:
                ledger = AdmissionAccounting()
                ledgers[tenant] = ledger
            ledger.offered += 1
            key = credentials.get(tenant)
            if (
                not tenant
                or key is None
                or not self.registry.authenticate(tenant, key)
            ):
                ledger.rejected_auth += 1
                continue
            tenant_config = self.registry.config(tenant)
            if (
                tenant_config.message_quota
                and self._usage.get(tenant, 0)
                >= tenant_config.message_quota
            ):
                ledger.rejected_quota += 1
                continue
            bucket = self._buckets[tenant]
            bucket.refill(arrival.time)
            self._fleet_bucket.refill(arrival.time)
            if not bucket.peek():
                ledger.throttled_tenant += 1
                continue
            if not self._fleet_bucket.peek():
                ledger.throttled_fleet += 1
                continue
            bucket.consume()
            self._fleet_bucket.consume()
            ledger.admitted += 1
            self._usage[tenant] = self._usage.get(tenant, 0) + 1
            message = arrival.message
            if message.tenant != tenant:
                message = dataclasses.replace(message, tenant=tenant)
            admitted.append(Arrival(arrival.time, message, tenant))
        return admitted

    # -- the ingest round --------------------------------------------------

    def handle(
        self,
        arrivals: Iterable[Arrival],
        credentials: Mapping[str, str],
        jobs: int = 1,
        recorder: RunObserver | None = None,
        schedule: RebalanceSchedule | None = None,
        kill: KillSpec | None = None,
    ) -> GatewayResult:
        """Authenticate, admit, serve, and deliver one arrival batch.

        ``credentials`` maps tenant id -> presented API key (what each
        caller put on the wire).  Elasticity controls (``schedule`` and
        ``kill``) pass straight through to the serving runtime — tenant
        isolation must and does survive both.
        """
        arrivals = list(arrivals)
        ledgers: dict[str, AdmissionAccounting] = {}
        admitted = self._admit(arrivals, credentials, ledgers)
        first_time = arrivals[0].time if arrivals else 0.0
        last_time = arrivals[-1].time if arrivals else 0.0
        if recorder is not None:
            span = recorder.tracer.span(
                "gateway_admit",
                start=first_time,
                end=last_time,
                offered=len(arrivals),
                admitted=len(admitted),
            )
            for tenant in sorted(ledgers):
                span.event(
                    "tenant_admission",
                    last_time,
                    tenant=tenant,
                    **{
                        k: v
                        for k, v in ledgers[tenant].as_dict().items()
                        if k != "unaccounted"
                    },
                )
        result = self._runtime.run(
            admitted,
            jobs=jobs,
            recorder=recorder,
            schedule=schedule,
            kill=kill,
        )
        tenant_of = {a.message.message_id: a.tenant for a in admitted}
        arrived_at = {a.message.message_id: a.time for a in admitted}
        alerts_by_tenant: dict[str, list[Alert]] = {}
        for alert in result.alerts:
            owner = tenant_of[alert.message_id]
            alerts_by_tenant.setdefault(owner, []).append(alert)
        delivered_by_tenant: dict[str, list[Alert]] = {}
        for tenant in sorted(alerts_by_tenant):
            tenant_config = self.registry.config(tenant)
            feed = self._feeds[tenant]
            ledger_telemetry = self._telemetry.tenant(tenant, registered=True)
            delivered: list[Alert] = []
            for alert in alerts_by_tenant[tenant]:
                ledger_telemetry.alerts_total += 1
                if not tenant_config.delivers(alert):
                    ledger_telemetry.alerts_suppressed += 1
                    continue
                ledger_telemetry.alerts_delivered += 1
                ledger_telemetry.feed_evicted += feed.publish(alert)
                # Delivery latency: the alert is visible in the feed
                # when its message completes.
                ledger_telemetry.feed_latency.record(
                    result.completions[alert.message_id]
                    - arrived_at[alert.message_id]
                )
                delivered.append(alert)
            delivered_by_tenant[tenant] = delivered
        # Fold this round's admission ledgers into the lifetime view —
        # including intruder ids, whose rejections must conserve too.
        for tenant in sorted(ledgers):
            entry = self._telemetry.tenant(
                tenant, registered=tenant in self.registry
            )
            entry.admission = entry.admission.merge(ledgers[tenant])
        self._telemetry.runs += 1
        if recorder is not None:
            publish_end = max(
                result.completions.values(), default=last_time
            )
            span = recorder.tracer.span(
                "gateway_publish",
                start=last_time,
                end=max(publish_end, last_time),
                alerts=len(result.alerts),
                delivered=sum(
                    len(delivered_by_tenant[t])
                    for t in sorted(delivered_by_tenant)
                ),
            )
            for tenant in sorted(delivered_by_tenant):
                span.event(
                    "tenant_delivery",
                    max(publish_end, last_time),
                    tenant=tenant,
                    delivered=len(delivered_by_tenant[tenant]),
                )
        return GatewayResult(
            admission=ledgers,
            alerts_by_tenant=alerts_by_tenant,
            delivered_by_tenant=delivered_by_tenant,
            serve=result,
            admitted_arrivals=admitted,
        )

    # -- feed access -------------------------------------------------------

    def feed(self, tenant: str) -> AlertFeed:
        """The tenant's live feed (KeyError for unregistered tenants)."""
        return self._feeds[tenant]

    # -- snapshot routes ---------------------------------------------------

    @property
    def telemetry(self) -> GatewayTelemetry:
        return self._telemetry

    def health(self) -> dict[str, object]:
        """Deterministic liveness/consistency snapshot."""
        return {
            "status": "ok" if self._telemetry.conservation_ok else "degraded",
            "runs": self._telemetry.runs,
            "registered_tenants": len(self.registry),
            "conservation_ok": self._telemetry.conservation_ok,
            "fleet_bucket": self._fleet_bucket.as_dict(),
            "feeds": {
                tenant: self._feeds[tenant].as_dict()
                for tenant in sorted(self._feeds)
            },
        }

    def usage(self, tenant: str) -> dict[str, object]:
        """One tenant's lifetime ledger (zeros if never seen)."""
        entry = self._telemetry.tenants.get(tenant)
        if entry is None:
            entry = TenantTelemetry(
                tenant=tenant, registered=tenant in self.registry
            )
        data = entry.as_dict()
        data["quota_used"] = self._usage.get(tenant, 0)
        return data

    def metrics_snapshot(self) -> dict[str, object]:
        """The lifetime telemetry projected through a fresh registry."""
        registry = MetricsRegistry()
        self._telemetry.populate_metrics(registry)
        return registry.as_dict()
