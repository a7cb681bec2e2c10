"""Gateway telemetry: per-tenant ledgers, mergeable, snapshot-stable.

:class:`TenantTelemetry` is a :class:`~repro.obs.ledger.Ledger`: its
fields declare how they merge and which registry series they feed, and
``merge``/``as_dict``/``populate_metrics`` follow from that.
:class:`GatewayTelemetry` keeps one such ledger per tenant id for the
gateway's lifetime, rendered sorted so snapshots are byte-stable.  All
numbers are simulated-time arithmetic; nothing here reads a clock.
"""

from __future__ import annotations

import dataclasses

from repro.gateway.admission import AdmissionAccounting
from repro.obs.ledger import ANY, SAME, Ledger, Series, field
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    LatencyHistogram,
    MetricsRegistry,
)

_ALERTS = Series(
    COUNTER, "gateway_alerts", "per-tenant alerts by delivery outcome"
)


@dataclasses.dataclass
class TenantTelemetry(Ledger):
    """Everything the gateway learned about one tenant's traffic.

    ``registered`` distinguishes real tenants from presented-but-unknown
    identities (intruders still get a ledger — their rejections must
    conserve too).  ``alerts_total`` counts the tenant's raw alert
    stream before the preference layer; ``alerts_delivered`` +
    ``alerts_suppressed`` partition it.  ``feed_latency`` is simulated
    arrival-to-delivery time per delivered alert.  Only ledgers of the
    same tenant merge.
    """

    tenant: str = field(dataclasses.MISSING, merge=SAME, label="tenant")
    registered: bool = field(False, merge=ANY, metric=Series(
        GAUGE, "gateway_tenant_registered", "1 if the tenant is registered"
    ))
    admission: AdmissionAccounting = field(AdmissionAccounting)
    alerts_total: int = field(metric=_ALERTS(outcome="total"))
    alerts_delivered: int = field(metric=_ALERTS(outcome="delivered"))
    alerts_suppressed: int = field(metric=_ALERTS(outcome="suppressed"))
    feed_evicted: int = field(metric=Series(
        COUNTER, "gateway_feed_evicted", "alerts dropped from bounded feeds"
    ))
    feed_latency: LatencyHistogram = field(LatencyHistogram, metric=Series(
        HISTOGRAM,
        "gateway_feed_latency_seconds",
        "simulated arrival-to-delivery latency per delivered alert",
    ))


@dataclasses.dataclass
class GatewayTelemetry:
    """Gateway-wide aggregate: one ledger per presented tenant id."""

    tenants: dict[str, TenantTelemetry] = dataclasses.field(
        default_factory=dict
    )
    runs: int = 0

    def tenant(self, tenant: str, registered: bool) -> TenantTelemetry:
        """Get-or-create the ledger for ``tenant`` (mutating accessor)."""
        entry = self.tenants.get(tenant)
        if entry is None:
            entry = TenantTelemetry(tenant=tenant, registered=registered)
            self.tenants[tenant] = entry
        return entry

    @property
    def conservation_ok(self) -> bool:
        """True iff every tenant's admission ledger balances exactly."""
        return all(
            self.tenants[tenant].admission.unaccounted == 0
            for tenant in sorted(self.tenants)
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "runs": self.runs,
            "conservation_ok": self.conservation_ok,
            "admission": AdmissionAccounting.merged(
                self.tenants[tenant].admission
                for tenant in sorted(self.tenants)
            ).as_dict(),
            "tenants": {
                tenant: self.tenants[tenant].as_dict()
                for tenant in sorted(self.tenants)
            },
        }

    def populate_metrics(self, registry: MetricsRegistry) -> None:
        """Project every tenant ledger plus gateway-level gauges."""
        for tenant in sorted(self.tenants):
            self.tenants[tenant].populate_metrics(registry)
        registry.gauge(
            "gateway_runs", help="handle() calls absorbed by this gateway"
        ).labels().set(self.runs)
        registry.gauge(
            "gateway_tenants", help="distinct tenant ids presented"
        ).labels().set(len(self.tenants))
