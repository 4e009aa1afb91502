"""Round schedulers: naive per-request dispatch vs batch coalescing.

Both schedulers drive :meth:`repro.fleet.service.FleetService.execute_round`
— the only difference is the batch size they hand it.  The coalescing
scheduler passes a whole shard-round at once, filling the cross-block
batch kernels (``program_locations`` on the chip, the VT-HI kernels
``embed_prepared`` and ``recover_prepared``, and the keyed batch ECC
encode); the naive scheduler invokes the same engine once per request,
so every chip call carries a single location.  Because a round's requests target distinct tenant
blocks, the two produce bit-identical per-tenant results (see the
``execute_round`` docstring for the commutation argument) — the
benchmark's speedup is pure batching, not a semantic shortcut.
"""

from __future__ import annotations

from typing import List, Sequence

from .requests import Request, Response


class NaiveScheduler:
    """Dispatch each request as its own engine call (batch size 1)."""

    name = "naive"

    def run_round(
        self, service, shard_id: int, requests: Sequence[Request]
    ) -> List[Response]:
        responses: List[Response] = []
        for request in requests:
            responses.extend(service.execute_round(shard_id, [request]))
        return responses


class CoalescingScheduler:
    """Dispatch a whole shard-round as one batched engine call."""

    name = "coalesced"

    def run_round(
        self, service, shard_id: int, requests: Sequence[Request]
    ) -> List[Response]:
        return service.execute_round(shard_id, list(requests))


def make_scheduler(name: str):
    """Scheduler factory for the CLI/benchmarks (``naive``/``coalesced``)."""
    if name == "naive":
        return NaiveScheduler()
    if name == "coalesced":
        return CoalescingScheduler()
    raise ValueError(f"unknown scheduler {name!r}")
