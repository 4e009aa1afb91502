"""Fleet request/response types and the admission-controlled queue.

Tenants submit single-object operations (``write``/``read``/``mount``)
against their private hidden mini-volume; the service drains the queue in
*rounds*.  Two invariants make coalescing sound and keep results
bit-identical under any arrival interleaving (DESIGN §12):

* **per-tenant FIFO** — a tenant's requests execute in submission order,
  so each tenant observes one fixed operation sequence;
* **one request per tenant per round** — a round never holds two
  operations on the same block, so every chip-level batch the scheduler
  builds from a round touches distinct ``(block, page)`` locations only.

Admission control bounds memory and latency: a per-tenant queue depth
(rejecting the producer that overruns its own budget, not its
neighbours) and an optional per-round request cap served round-robin
across tenants so a large fleet cannot starve high tenant ids.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

#: The operation kinds a tenant may submit.
KINDS = ("write", "read", "mount")


class AdmissionError(Exception):
    """Raised when a submission violates an admission-control bound."""


@dataclass(frozen=True, slots=True)
class Request:
    """One tenant operation against its hidden mini-volume."""

    tenant: int
    kind: str  #: one of :data:`KINDS`
    lba: int = 0  #: target hidden LBA (write/read)
    payload: bytes = b""  #: payload bytes (write only)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        # A zero-length slot is a deletion tombstone, and the slot header
        # stores the LBA as a u32: neither write is representable.
        if self.kind == "write" and not (self.payload and 0 <= self.lba < 2**32):
            raise ValueError(
                f"unrepresentable write: {len(self.payload)} bytes to lba {self.lba}"
            )


@dataclass(frozen=True, slots=True)
class Response:
    """The deterministic outcome of one request.

    Every field except the latency stamps is a pure function of the
    tenant's request sequence (given the fleet seed and shard count) —
    the bit-identity tests compare :meth:`deterministic_view` between
    schedulers and arrival orders.  ``latency_s`` is wall-clock
    (submission-to-completion inside a drain) and legitimately varies.
    ``round_index``/``submitted_round`` are the deterministic "virtual
    time" latency (reproducible bit-for-bit for a fixed configuration —
    the fleet SLO report is built from them), but they measure
    *scheduling*, which the round cap and arrival order legitimately
    change — so they stay out of the bit-identity view alongside
    ``latency_s``.
    """

    tenant: int
    kind: str
    lba: int
    status: str  #: ``ok`` / ``not_found`` / ``full`` / ``too_large`` / ``error``
    payload: bytes = b""  #: recovered bytes (read)
    directory: Tuple[Tuple[int, int], ...] = ()  #: (lba, length) pairs (mount)
    pp_steps: int = 0  #: partial-program steps the embed used (write)
    latency_s: float = 0.0
    #: Cumulative fleet round (virtual time) this request completed in;
    #: -1 when the request never went through a drain round.
    round_index: int = -1
    #: Rounds already formed when the request was admitted; -1 as above.
    submitted_round: int = -1

    @property
    def latency_rounds(self) -> int:
        """Rounds from admission to completion, inclusive (>= 1).

        The deterministic latency measure: a request admitted while
        ``submitted_round`` rounds had formed and completed in round
        ``round_index`` waited this many round slots.  -1 when the
        request carries no round stamps.
        """
        if self.round_index < 0 or self.submitted_round < 0:
            return -1
        return self.round_index - self.submitted_round + 1

    def deterministic_view(self) -> Tuple:
        """Everything but the latency stamps."""
        return (
            self.tenant, self.kind, self.lba, self.status,
            self.payload, self.directory, self.pp_steps,
        )


@dataclass(slots=True)
class QueueStats:
    """Counters the queue keeps about admission decisions."""

    submitted: int = 0
    rejected: int = 0
    rounds: int = 0


@dataclass(frozen=True, slots=True)
class QueuedRequest:
    """One admitted request plus its admission-time round stamp.

    ``submitted_round`` is the number of rounds the queue had formed
    when the request was admitted — the deterministic "virtual clock"
    reading that, paired with the completion round, yields
    :attr:`Response.latency_rounds`.
    """

    request: Request
    submitted_round: int


class RequestQueue:
    """Per-tenant FIFO queues drained one-request-per-tenant rounds.

    ``submit`` applies admission control (bounded per-tenant depth);
    ``next_round`` pops at most one request from each tenant's queue,
    round-robin across tenant ids so a ``max_round_requests`` cap
    rotates fairly instead of always serving the lowest ids.
    """

    def __init__(
        self,
        max_per_tenant: int = 64,
        max_round_requests: Optional[int] = None,
    ) -> None:
        if max_per_tenant < 1:
            raise ValueError(
                f"max_per_tenant must be >= 1, got {max_per_tenant}"
            )
        if max_round_requests is not None and max_round_requests < 1:
            raise ValueError(
                f"max_round_requests must be >= 1, got {max_round_requests}"
            )
        self.max_per_tenant = max_per_tenant
        self.max_round_requests = max_round_requests
        self.stats = QueueStats()
        self._queues: Dict[int, Deque[QueuedRequest]] = {}
        #: Tenants with at least one pending request, and the pending
        #: total: ``len()`` is O(1) and a round sorts only the pending
        #: tenants, not every tenant that ever submitted.
        self._pending_tenants: Set[int] = set()
        self._pending = 0
        #: Round-robin position: the next round starts at the first
        #: tenant id strictly greater than this.
        self._cursor = -1

    def __len__(self) -> int:
        return self._pending

    def depth(self, tenant: int) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0

    def submit(self, request: Request) -> None:
        """Enqueue a request, enforcing the per-tenant depth bound."""
        queue = self._queues.get(request.tenant)
        if queue is None:
            queue = self._queues[request.tenant] = deque()
        if len(queue) >= self.max_per_tenant:
            self.stats.rejected += 1
            raise AdmissionError(
                f"tenant {request.tenant} queue full "
                f"({self.max_per_tenant} pending)"
            )
        queue.append(QueuedRequest(request, self.stats.rounds))
        self._pending_tenants.add(request.tenant)
        self._pending += 1
        self.stats.submitted += 1

    def next_round_entries(self) -> List[QueuedRequest]:
        """Pop the next round: at most one request per tenant.

        Tenants are served in ascending id order starting after the last
        tenant served in the previous round (round-robin), capped at
        ``max_round_requests``.  Deterministic in the submission
        sequence.  Entries keep their admission-time round stamps so the
        service can compute deterministic round latencies.
        """
        active = sorted(self._pending_tenants)
        if not active:
            return []
        cap = self.max_round_requests
        if cap is None or cap > len(active):
            cap = len(active)
        start = bisect_right(active, self._cursor)
        picked = [active[(start + i) % len(active)] for i in range(cap)]
        round_entries = []
        for tenant in picked:
            queue = self._queues[tenant]
            round_entries.append(queue.popleft())
            if not queue:
                self._pending_tenants.discard(tenant)
        self._pending -= len(picked)
        self._cursor = picked[-1]
        self.stats.rounds += 1
        return round_entries

    def next_round(self) -> List[Request]:
        """:meth:`next_round_entries` without the round stamps."""
        return [entry.request for entry in self.next_round_entries()]
