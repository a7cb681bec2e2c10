"""Consistent-hash ring, hot-key splitting, and the elastic schedules.

Routing in :mod:`repro.serve.runtime` used to be ``stable_hash(key) %
n_shards`` — changing the shard count rehashed nearly every key, so the
fleet could never grow or shrink without re-homing nearly every
routing key.  The :class:`HashRing` here places :data:`DEFAULT_VNODES`
seeded virtual nodes per shard on a 64-bit ring (every point is
``stable_hash("serve-ring", shard, replica)``, so placement is a pure
function of the shard id — no wall clock, no process salt); a key is
owned by the first virtual node clockwise of ``stable_hash("serve-route",
key)``.  Adding or removing a shard only moves the keys on the arcs
that shard's own points cover, which is what makes the elastic
schedules in ``ServingRuntime.run`` cheap.

Two more pieces live here because they are pure policy over the ring:

* **Hot keys** — a routing key hashes all of its traffic to one shard
  no matter how the ring is balanced.  Routing keys are text digests,
  so only a literal repost storm can be hot.  :func:`detect_hot_keys`
  finds routing keys whose traffic share crosses a threshold and
  :func:`salt_key` fans each one out over deterministic salted
  sub-keys.  The runtime salts only its stateless scoring stage; target
  state lives in one keyed state monitor whatever the routing (see
  ``DESIGN.md`` §14).
* **Topology changes** — a :class:`RebalanceSchedule` resizes the fleet
  to explicit shard counts at epoch boundaries, and a :class:`KillSpec`
  kills one shard mid-run.  They are the only ways the ring changes,
  and every ring is uniform.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Iterable, Mapping

from repro.util.rng import stable_hash, stable_hasher

#: Virtual nodes per shard, on every ring.  128 points per shard keeps
#: the expected keyspace imbalance of a 4-shard ring under a few percent.
DEFAULT_VNODES = 128

#: ``stable_hash("serve-route", key)`` with the ``"serve-route"`` part
#: hashed once: every arrival's owner lookup finishes a copy of it.
_route_hash = stable_hasher("serve-route")

#: Sentinel accepted by :class:`KillSpec` — resolve the victim to the
#: live shard with the most arrivals routed to it before the kill (ties
#: to the lowest id).
HOTTEST = "hottest"


class HashRing:
    """Seeded-vnode consistent-hash ring over integer shard ids.

    Every shard places :data:`DEFAULT_VNODES` points, so a ring is just
    its shard ids.  The ring is immutable: :meth:`remove_shard` returns
    a new ring, so an epoch's routing can never be perturbed by a change
    applied for the next one.
    """

    __slots__ = ("_shard_ids", "_points", "_hashes")

    def __init__(self, shard_ids: Iterable[int]) -> None:
        ids = tuple(sorted(set(shard_ids)))
        if not ids:
            raise ValueError("a hash ring needs at least one shard")
        if ids[0] < 0:
            raise ValueError(f"shard ids must be >= 0, got {ids[0]}")
        self._shard_ids = ids
        # Ties on the hash value are broken by shard id so the point
        # order — and therefore every owner() answer — is total.
        points = sorted(
            (stable_hash("serve-ring", shard, replica), shard)
            for shard in ids
            for replica in range(DEFAULT_VNODES)
        )
        self._points: list[tuple[int, int]] = points
        self._hashes: list[int] = [point_hash for point_hash, _ in points]

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return self._shard_ids

    def owner(self, key: str) -> int:
        """Shard owning ``key``: first virtual node clockwise of its hash."""
        index = bisect.bisect_right(self._hashes, _route_hash(key))
        return self._points[index % len(self._points)][1]

    def remove_shard(self, shard: int) -> "HashRing":
        """Shrink by one shard; its arcs fall to their ring successors."""
        if shard not in self._shard_ids:
            raise ValueError(f"shard {shard} is not on the ring")
        if len(self._shard_ids) == 1:
            raise ValueError("cannot remove the last shard from the ring")
        return HashRing(s for s in self._shard_ids if s != shard)

    def as_dict(self) -> dict[str, object]:
        return {"shard_ids": list(self._shard_ids), "points": len(self._points)}


# -- hot keys ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class HotKeyPolicy:
    """When and how wide to split a dominant routing key.

    A key is *hot* when it carries at least ``share_threshold`` of the
    routed messages; its traffic is then fanned out over ``fanout``
    salted sub-keys.  ``share_threshold=0`` disables mitigation.
    """

    share_threshold: float = 0.02
    fanout: int = 8

    def __post_init__(self) -> None:
        if not (0.0 <= self.share_threshold < 1.0):
            raise ValueError(
                "HotKeyPolicy.share_threshold must be in [0, 1), "
                f"got {self.share_threshold}"
            )
        if self.fanout < 2:
            raise ValueError(
                f"HotKeyPolicy.fanout must be >= 2, got {self.fanout}"
            )

    @property
    def enabled(self) -> bool:
        return self.share_threshold > 0.0


def detect_hot_keys(
    counts: Mapping[str, int], total: int, policy: HotKeyPolicy
) -> dict[str, float]:
    """Routing keys whose traffic share crosses the policy threshold.

    Returns ``key -> share`` ordered by descending share (key as the
    tie-break) so reports and traces are stable.
    """
    if not policy.enabled or total <= 0:
        return {}
    hot = [
        (key, count / total)
        for key, count in counts.items()
        if count / total >= policy.share_threshold
    ]
    hot.sort(key=lambda item: (-item[1], item[0]))
    return dict(hot)


def salt_key(key: str, message_id: int, fanout: int) -> str:
    """Deterministic salted sub-key for one message of a hot key."""
    return f"{key}#{stable_hash('serve-hot', key, message_id) % fanout}"


# -- schedules & failover ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RebalanceSchedule:
    """Explicit shard-count trajectory over equal arrival-count epochs.

    ``shard_counts=(2, 4, 3)`` serves the first third of the arrivals on
    2 shards, the middle third on 4, and the rest on 3; a boundary only
    changes which shard scores what, and no target state moves.
    """

    shard_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.shard_counts:
            raise ValueError("a schedule needs at least one shard count")
        for count in self.shard_counts:
            if count < 1:
                raise ValueError(
                    f"shard counts must be >= 1, got {count}"
                )

    @classmethod
    def parse(cls, text: str) -> "RebalanceSchedule":
        """Parse comma-separated shard counts, e.g. ``"2,4,3"``."""
        try:
            counts = tuple(int(part) for part in text.split(","))
        except ValueError as error:
            raise ValueError(
                f"cannot parse rebalance schedule {text!r}; "
                "expected comma-separated shard counts, e.g. '2,4,3'"
            ) from error
        return cls(shard_counts=counts)

    @property
    def n_epochs(self) -> int:
        return len(self.shard_counts)


@dataclasses.dataclass(frozen=True)
class KillSpec:
    """Kill one shard partway through a run to exercise failover.

    ``shard`` is an explicit shard id or :data:`HOTTEST` (resolve to the
    live shard with the most arrivals routed to it before the kill, ties
    to the lowest id).  The kill lands after ``at_fraction`` of the
    arrivals have been routed: the victim finishes its in-flight batch
    and its queued messages are requeued to the surviving owners.  The
    victim only scored, so no target state moves.
    """

    shard: int | str = HOTTEST
    at_fraction: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.shard, str):
            if self.shard != HOTTEST:
                raise ValueError(
                    f"KillSpec.shard must be an id or {HOTTEST!r}, "
                    f"got {self.shard!r}"
                )
        elif self.shard < 0:
            raise ValueError(
                f"KillSpec.shard must be >= 0, got {self.shard}"
            )
        if not (
            math.isfinite(self.at_fraction) and 0.0 < self.at_fraction < 1.0
        ):
            raise ValueError(
                "KillSpec.at_fraction must be in (0, 1), "
                f"got {self.at_fraction}"
            )

    @classmethod
    def parse(cls, shard: str, at_fraction: float = 0.5) -> "KillSpec":
        """Parse the CLI form: a shard id or ``"hottest"``."""
        try:
            victim: int | str = int(shard)
        except ValueError:
            victim = shard  # a name: validation admits only HOTTEST
        return cls(shard=victim, at_fraction=at_fraction)


__all__ = [
    "DEFAULT_VNODES",
    "HOTTEST",
    "HashRing",
    "HotKeyPolicy",
    "KillSpec",
    "RebalanceSchedule",
    "detect_hot_keys",
    "salt_key",
]
