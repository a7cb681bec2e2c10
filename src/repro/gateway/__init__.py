"""Multi-tenant gateway over the elastic serving runtime.

The gateway is the service layer of the reproduction: many independent
parties (platforms, trust-and-safety teams, researchers) stream
messages in through API-key auth and admission control, and consume
their own isolated alert feeds out — all in simulated time over the
one shared fleet.  The fleet scores messages on stateless shards, then
applies them in stream order to one keyed state monitor, whose tables
key each target by its tenant-scoped handle.  See ``DESIGN.md`` §15
for the architecture and the tenant-isolation invariant.
"""

from repro.gateway.admission import AdmissionAccounting, TokenBucket
from repro.gateway.bench import (
    BENCH_TENANT_WEIGHTS,
    bench_profile,
    bench_registry,
    run_gateway_bench,
)
from repro.gateway.feeds import AlertFeed, FeedPage
from repro.gateway.gateway import Gateway, GatewayConfig, GatewayResult
from repro.gateway.telemetry import GatewayTelemetry, TenantTelemetry
from repro.gateway.tenants import (
    TenantConfig,
    TenantRegistry,
    default_credentials,
    derive_api_key,
)

__all__ = [
    "AdmissionAccounting",
    "AlertFeed",
    "BENCH_TENANT_WEIGHTS",
    "FeedPage",
    "Gateway",
    "GatewayConfig",
    "GatewayResult",
    "GatewayTelemetry",
    "TenantConfig",
    "TenantRegistry",
    "TenantTelemetry",
    "TokenBucket",
    "bench_profile",
    "bench_registry",
    "default_credentials",
    "derive_api_key",
    "run_gateway_bench",
]
