"""The gateway bench: a seeded multi-tenant overload scenario.

``run_gateway_bench`` drives a :class:`~repro.gateway.gateway.Gateway`
with a four-way traffic mix designed so *every* admission outcome is
exercised in the committed report:

* ``platform-a`` — the big platform: high weight, generous budget; its
  volume is what trips the shared fleet-capacity bucket under bursts
  (``throttled_fleet``).
* ``tns-team-b`` — a trust-and-safety team with a modest rate limit
  that its share of the stream overruns (``throttled_tenant``).
* ``research-c`` — a researcher on a hard message quota that exhausts
  mid-run (``rejected_quota``), with a CTH threshold override and a
  narrowed kind whitelist so the preference layer suppresses alerts.
* ``intruder-x`` — traffic presenting no valid credentials
  (``rejected_auth``); unregistered, but its ledger must conserve too.

The report is pure simulated-time arithmetic, so two runs produce
byte-identical JSON and the committed ``BENCH_gateway.json`` is an exact
oracle: a rerun either ``cmp``-equals it or has changed behaviour.
``repro gateway-bench`` exits 1 when admission or serving loses a
message or a tenant's alerts differ from its solo replay.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.gateway.gateway import Gateway, GatewayConfig, GatewayResult
from repro.gateway.tenants import TenantConfig, TenantRegistry
from repro.obs.recorder import RunObserver
from repro.serve.loadgen import LoadProfile, generate_arrivals
from repro.serve.runtime import ServeConfig, alert_sort_key
from repro.service.monitor import AlertKind
from repro.service.stream import StreamMessage

#: The bench's tenant mix (weights feed LoadProfile.tenant_weights).
BENCH_TENANT_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("platform-a", 6.0),
    ("tns-team-b", 3.0),
    ("research-c", 1.5),
    ("intruder-x", 1.0),
)


def bench_registry(seed: int) -> TenantRegistry:
    """The bench's registered tenants (``intruder-x`` deliberately absent)."""
    return TenantRegistry(seed, [
        TenantConfig(
            tenant="platform-a", rate_per_second=1500.0, burst=64
        ),
        TenantConfig(
            tenant="tns-team-b", rate_per_second=150.0, burst=16
        ),
        TenantConfig(
            tenant="research-c",
            rate_per_second=400.0,
            burst=8,
            message_quota=60,
            cth_threshold=0.9,
            enabled_kinds=frozenset({AlertKind.CTH, AlertKind.CAMPAIGN}),
        ),
    ])


def bench_profile(seed: int, rate: float = 2000.0) -> LoadProfile:
    """The bench's arrival process: bursty, four-way tenant mix."""
    return LoadProfile(
        rate_per_second=rate,
        burst_every=40,
        burst_size=40,
        seed=seed,
        tenant_weights=BENCH_TENANT_WEIGHTS,
    )


def run_gateway_bench(
    monitor_factory: Callable,
    messages: Iterable[StreamMessage],
    seed: int = 7,
    shards: int = 4,
    jobs: int = 1,
    rate: float = 2000.0,
    recorder: RunObserver | None = None,
) -> tuple[dict[str, object], Gateway, GatewayResult]:
    """Run the canonical multi-tenant scenario; returns (report, gw, result)."""
    messages = list(messages)
    registry = bench_registry(seed)
    serve_config = ServeConfig(n_shards=shards)
    gateway_config = GatewayConfig(
        fleet_rate_per_second=900.0, fleet_burst=64
    )
    gateway = Gateway(
        registry, monitor_factory, serve_config, gateway_config
    )
    profile = bench_profile(seed, rate)
    arrivals = generate_arrivals(messages, profile)
    result = gateway.handle(
        arrivals, registry.credentials(), jobs=jobs, recorder=recorder
    )

    isolation = "ok"
    for tenant in registry.tenant_ids():
        solo = [
            a.message for a in result.admitted_arrivals if a.tenant == tenant
        ]
        baseline = sorted(
            monitor_factory().run(solo, batch_size=serve_config.batch_size),
            key=alert_sort_key,
        )
        if result.alerts_by_tenant.get(tenant, []) != baseline:
            isolation = "FAILED"
            break

    shares = profile.tenant_shares()
    offered_total = sum(
        result.admission[tenant].offered for tenant in sorted(result.admission)
    )
    fairness_skew = 0.0
    for tenant in sorted(shares):
        offered = (
            result.admission[tenant].offered if tenant in result.admission
            else 0
        )
        observed = offered / offered_total if offered_total else 0.0
        fairness_skew = max(fairness_skew, abs(observed - shares[tenant]))

    telemetry = gateway.telemetry
    serve_telemetry = result.serve.telemetry
    tenants_report: dict[str, object] = {}
    for tenant in sorted(result.admission):
        ledger = result.admission[tenant]
        entry = telemetry.tenants[tenant]
        tenants_report[tenant] = {
            "registered": entry.registered,
            "admission": ledger.as_dict(),
            "throttle_rate": (
                ledger.throttled / ledger.offered if ledger.offered else 0.0
            ),
            "alerts": {
                "total": entry.alerts_total,
                "delivered": entry.alerts_delivered,
                "suppressed": entry.alerts_suppressed,
                "feed_evicted": entry.feed_evicted,
            },
            "feed_latency": entry.feed_latency.as_dict(),
        }

    report: dict[str, object] = {
        "gateway": gateway_config.as_dict(),
        "serve_config": serve_config.as_dict(),
        "registry": registry.as_dict(),
        "load": {
            "rate_per_second": profile.rate_per_second,
            "burst_every": profile.burst_every,
            "burst_size": profile.burst_size,
            "seed": profile.seed,
            "tenant_weights": {
                tenant: weight
                for tenant, weight in (profile.tenant_weights or ())
            },
            "n_messages": len(messages),
        },
        "tenants": tenants_report,
        "fleet": {
            "offered": offered_total,
            "admitted": result.admitted,
            "conservation_ok": all(
                result.admission[tenant].unaccounted == 0
                for tenant in sorted(result.admission)
            ),
            "serve_unaccounted": result.serve.unaccounted,
            "throughput_per_second": serve_telemetry.throughput_per_second,
            "makespan_seconds": serve_telemetry.makespan_seconds,
            "load_skew": serve_telemetry.load_skew,
            "alerts_total": len(result.serve.alerts),
            "alert_latency": serve_telemetry.fleet().alert_latency.as_dict(),
            "score_work": serve_telemetry.merged_score_work().as_dict(),
            "fairness_skew": fairness_skew,
        },
        "isolation": isolation,
        "health": gateway.health(),
    }
    return report, gateway, result
