"""The sharded drive-fleet service (DESIGN §12).

Production framing of the paper's single-chip prototype: ``n_shards``
simulated drives (one :class:`~repro.nand.chip.FlashChip` + one
:class:`~repro.hiding.VtHi` each) serve many tenants, each tenant owning
one erase block on its shard as a private hidden mini-volume (slot
framing from :mod:`repro.stego.metadata`: self-describing headers + keyed
MAC, mounted by scanning — no plaintext directory on the device).

Layout: tenant ``t`` lives on shard ``t % n_shards`` and owns block
``t // n_shards`` there.  One tenant per block is the coalescing
soundness anchor: all mutable chip state an operation touches (voltages,
disturb exposure, latent caches, PP pulse counters) is per-block, so
operations of distinct tenants commute *exactly* — any grouping of a
round's single-page operations into cross-tenant batch-kernel calls is
bit-identical, per tenant, to executing the requests one at a time.
The request queue admits at most one request per tenant per round, so a
round's batches always address distinct ``(block, page)`` locations.

:meth:`FleetService.execute_round` is the shared execution engine: it
plans every request, then runs the chip work in phases through the two
VT-HI kernels: a keyed batch encode plus :meth:`VtHi.embed_prepared`
for the writes, then :meth:`VtHi.recover_prepared` (threshold read +
batch decode) for the reads and mount scans.  The two schedulers differ
*only* in how many requests they hand it per call — one (naive
per-request dispatch) or a whole round (coalesced) — which is exactly
the batch-kernel fill factor the benchmark measures.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..crypto.keys import HidingKey
from ..hiding import STANDARD_CONFIG, PayloadCodec, VtHi, select_cells
from ..hiding.config import HidingConfig
from ..nand import FlashChip
from ..nand.vendor import VENDOR_A, ChipModel, scaled_model
from ..rng import derive_seed, substream
from ..stego.metadata import (
    HEADER_BYTES,
    SlotHeader,
    latest_slots,
    pack_slot,
    unpack_slot,
)
from .requests import AdmissionError, Request, RequestQueue, Response

_OBS_SHARD_ROUNDS = obs.counter("fleet.shard_rounds")
_OBS_REQUESTS = obs.counter("fleet.requests")
_OBS_REBUILDS = obs.counter("fleet.rebuilds")
_OBS_LOST_SLOTS = obs.counter("fleet.lost_slots")
_OBS_ROUND_SIZE = obs.histogram("fleet.round_size")
_OBS_ADMITTED = obs.counter("fleet.admitted")
_OBS_REJECTED = obs.counter("fleet.rejected")
_OBS_QUEUE_DEPTH = obs.gauge("fleet.queue_depth")

#: Fleet hiding configuration: 640 hidden bits per page under one
#: (1023, t=30) BCH word.  Fresh embeds carry a handful of natural-charge
#: errors ('1' cells whose erased voltage already sits above the hiding
#: threshold — extra PP steps cannot fix those); across thousands of
#: tenant blocks the per-page tail reaches ~20 raw errors, so the parity
#: budget is sized well above it rather than at the mean.
#: Margin matters here: fleet tenants rebuild (erase + re-embed) their
#: block often, and wear plus natural charge put a handful of raw bit
#: errors on every page, so the per-slot ECC must stay comfortably above
#: the observed tail or a long seeded run goes uncorrectable.
FLEET_HIDING = STANDARD_CONFIG.replace(bits_per_page=640, ecc_m=10, ecc_t=30)


def fleet_model(n_blocks: int, pages_per_block: int = 4) -> ChipModel:
    """A reduced chip model for fleet shards.

    Vendor-A physics on 188-byte pages (1504 cells — comfortably above
    the hidden-bit budget) and `pages_per_block` pages; the block count
    scales with the tenants a shard hosts.
    """
    return scaled_model(
        VENDOR_A,
        n_blocks=n_blocks,
        pages_per_block=pages_per_block,
        page_divisor=96,
        suffix="fleet",
    )


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Operating parameters of a :class:`FleetService`."""

    tenants: int = 8
    n_shards: int = 2
    seed: int = 0
    hiding: HidingConfig = FLEET_HIDING
    #: Chip model per shard; ``None`` derives :func:`fleet_model` with
    #: exactly the block count the tenant layout needs.
    model: Optional[ChipModel] = None
    max_queue_per_tenant: int = 64
    #: Cap on requests admitted per round (``None`` = all tenants).
    max_round_requests: Optional[int] = None
    #: Place each shard chip in its own device server, reached over the
    #: :mod:`repro.onfi` wire (the ``fleet --remote`` mode).  Results are
    #: bit-identical to in-process shards; only wall-clock differs.
    remote: bool = False
    #: Device-server backend for remote shards: ``"process"`` forks one
    #: server per shard (true parallelism with ``drain(shard_workers=)``),
    #: ``"thread"`` serves in-process (cheap, used by tests).
    remote_backend: str = "process"

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.n_shards > self.tenants:
            raise ValueError(
                f"n_shards ({self.n_shards}) exceeds tenants ({self.tenants})"
            )
        if self.remote_backend not in ("process", "thread"):
            raise ValueError(
                f"unknown remote backend {self.remote_backend!r}"
            )


@dataclass(slots=True)
class TenantState:
    """Service-side state of one tenant's hidden mini-volume.

    Everything here is rederivable from the chip plus the tenant key —
    the slot directory mirrors what :meth:`FleetService._mount_directory`
    recovers by scanning — and is maintained identically by both
    schedulers (it is part of the planning layer they share).
    """

    tenant: int
    shard: int
    block: int
    key: HidingKey
    #: Local erase epoch (bumped by every rebuild).
    epoch: int = 0
    #: Monotonic slot sequence number (mount picks the highest per LBA).
    seq: int = 0
    #: lba -> (host page, payload length, seq) for the live copy.
    slots: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    #: Host pages not yet embedded this epoch, in ascending order.
    free_pages: List[int] = field(default_factory=list)
    #: Host page -> cover (public) bits programmed this epoch.
    cover_bits: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Host page -> cached selection map for this epoch (a pure function
    #: of key, page address and cover bits — caching touches no chip
    #: state and is shared by both schedulers).
    cells: Dict[int, np.ndarray] = field(default_factory=dict)


@dataclass(slots=True)
class Shard:
    """One simulated drive: a chip and its VT-HI engine."""

    index: int
    chip: FlashChip
    vthi: VtHi


class FleetService:
    """Provision, route and execute tenant requests over a drive fleet."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        blocks_needed = -(-config.tenants // config.n_shards)  # ceil
        model = config.model
        if model is None:
            model = fleet_model(blocks_needed)
        if model.geometry.n_blocks < blocks_needed:
            raise ValueError(
                f"model has {model.geometry.n_blocks} blocks; the tenant "
                f"layout needs {blocks_needed} per shard"
            )
        if config.hiding.bits_per_page * 2 > model.geometry.cells_per_page:
            raise ValueError(
                f"hidden budget {config.hiding.bits_per_page} bits needs "
                f"pages of >= {config.hiding.bits_per_page * 2} cells, "
                f"got {model.geometry.cells_per_page}"
            )
        self.model = model
        codec = PayloadCodec(config.hiding)
        #: Every slot is embedded at the full per-page payload capacity
        #: (shorter payloads zero-pad), so one coded length serves all
        #: pages and batch decode needs no per-page length bookkeeping.
        self.slot_bytes = codec.max_data_bytes
        if self.slot_bytes <= HEADER_BYTES:
            raise ValueError(
                f"hiding config leaves {self.slot_bytes} bytes per slot; "
                f"the slot header alone needs {HEADER_BYTES}"
            )
        self.slot_payload_bytes = self.slot_bytes - HEADER_BYTES
        self._coded_len = codec.coded_length(self.slot_bytes)
        pages_per_block = model.geometry.pages_per_block
        self._host_pages = list(config.hiding.hidden_pages(pages_per_block))
        self.tenants: Dict[int, TenantState] = {}
        for tenant in range(config.tenants):
            key = HidingKey.generate(
                entropy=b"fleet-tenant:%d:%d" % (config.seed, tenant)
            )
            self.tenants[tenant] = TenantState(
                tenant=tenant,
                shard=tenant % config.n_shards,
                block=tenant // config.n_shards,
                key=key,
            )
        self.queue = RequestQueue(
            max_per_tenant=config.max_queue_per_tenant,
            max_round_requests=config.max_round_requests,
        )
        #: One running telemetry total per shard: each (round, shard)
        #: snapshot folds in as it arrives, in arrival order.
        self._shard_totals = [
            obs.ObsSnapshot() for _ in range(config.n_shards)
        ]
        self._drain_origin = 0.0
        #: tenant -> (completion round, submitted round) for the round
        #: currently executing.  Written by the main thread in ``drain``
        #: before any shard dispatch, read-only inside the round (also
        #: from shard worker threads), so no synchronisation is needed.
        self._round_stamp: Dict[int, Tuple[int, int]] = {}
        #: Requests still queued when the current round was formed (the
        #: queue-depth gauge value for this round).
        self._round_queue_depth = 0
        self.shards: List[Shard] = []
        self._server_handles: List[object] = []
        self._closed = False
        try:
            for index in range(config.n_shards):
                self.shards.append(self._make_shard(index))
            self._provision()
        except BaseException:
            # Never leave spawned servers behind a constructor that raised.
            with suppress(Exception):
                self._release(harvest=False)
            raise

    def _make_shard(self, index: int) -> Shard:
        """One drive: an in-process chip, or a served one when remote."""
        config, model = self.config, self.model
        shard_seed = derive_seed(config.seed, "shard", index)
        if config.remote:
            # Imported lazily: only remote fleets pay for the wire
            # stack (repro.onfi has no dependency back on the fleet).
            from ..onfi import RemoteChip, spawn_chip_server

            sock, handle = spawn_chip_server(
                model.geometry,
                model.params,
                seed=shard_seed,
                backend=config.remote_backend,
                proc_label=f"shard:{index}",
            )
            self._server_handles.append(handle)
            chip = RemoteChip(sock, model.geometry, model.params)
        else:
            chip = FlashChip(model.geometry, model.params, seed=shard_seed)
        return Shard(index, chip, VtHi(chip, config.hiding))

    # ------------------------------------------------------------------
    # provisioning / covers / selection

    def _cover_bits(self, tenant: int, epoch: int, page: int) -> np.ndarray:
        """Deterministic cover (public) data for one tenant host page.

        Keyed by ``(fleet seed, tenant, epoch, page)`` only — independent
        of shard count and block index, so the service knows every host
        page's public bits without a raw chip read, in both schedulers
        alike.
        """
        rng = substream(self.config.seed, "cover", tenant, epoch, page)
        cells = self.model.geometry.cells_per_page
        return (rng.random(cells) < 0.5).astype(np.uint8)

    def _provision(self) -> None:
        """Program every tenant's cover pages, one batch per shard.

        The end of setup is a sync point: each remote shard is harvested
        inside its provisioning scope, so the servers' cover programming
        is charged to setup.
        """
        for shard in self.shards:
            locations = []
            data = []
            with obs.collect(absorb=False) as col:
                for tenant in sorted(self.tenants):
                    ts = self.tenants[tenant]
                    if ts.shard != shard.index:
                        continue
                    ts.free_pages = list(self._host_pages)
                    for page in self._host_pages:
                        cover = self._cover_bits(tenant, 0, page)
                        ts.cover_bits[page] = cover
                        locations.append((ts.block, page))
                        data.append(cover)
                shard.chip.program_locations(locations, data)
                self._harvest_remote_obs(shard)
            self._account(shard.index, col.snapshot)

    def _account(self, shard_id: int, snapshot: obs.ObsSnapshot) -> None:
        """Absorb one (round, shard) snapshot into the caller's registry
        and fold it into the shard's running total (main thread only)."""
        obs.get_registry().absorb(snapshot)
        obs.fold_snapshot(self._shard_totals[shard_id], snapshot)

    def _harvest_remote_obs(self, shard: "Shard") -> None:
        """Fold a remote shard's server-side telemetry into this scope.

        In-process shards record chip metrics directly into the active
        collection scope; a remote shard's land in its ChipServer's
        registry instead, and are harvested (OBS_COLLECT with reset)
        only at sync points: provisioning, :meth:`fleet_snapshot` and
        :meth:`close` — never per round, so a remote (round, shard)
        snapshot holds client-side telemetry only.  Fleet totals still
        equal the in-process ones float for float: the server-side
        metrics are integer counter increments plus spans, so folding
        them once per harvest instead of interleaved per operation
        changes no sum.  ``op_counters`` are stripped because in-process
        scopes have none either (chips register their counters at
        construction, not per round); :meth:`fleet_snapshot` accounts
        them separately from the chips' cumulative totals.

        No-op for in-process shards and whenever observability is
        disabled — with ``REPRO_OBS=0`` the remote path sends zero obs
        frames.
        """
        if not self.config.remote or not obs.is_enabled():
            return
        harvest = shard.chip.obs_collect(reset=True)
        harvest.op_counters = None
        obs.get_registry().absorb(harvest)

    def _harvest_into_totals(self, shard: "Shard") -> None:
        """Harvest a remote shard and account it as one more snapshot of
        that shard (a no-op wherever :meth:`_harvest_remote_obs` is)."""
        if not self.config.remote or not obs.is_enabled():
            return
        with obs.collect(absorb=False) as col:
            self._harvest_remote_obs(shard)
        self._account(shard.index, col.snapshot)

    def _selection(self, ts: TenantState, page: int) -> np.ndarray:
        """The cached selection map of one tenant host page."""
        cells = ts.cells.get(page)
        if cells is None:
            address = self.model.geometry.page_address(ts.block, page)
            cells = select_cells(
                ts.key, address, ts.cover_bits[page], self._coded_len
            )
            ts.cells[page] = cells
        return cells

    # ------------------------------------------------------------------
    # request intake / drain

    def submit(self, request: Request) -> bool:
        """Queue a request; False when admission control rejects it."""
        if request.tenant not in self.tenants:
            raise KeyError(f"unknown tenant {request.tenant}")
        try:
            self.queue.submit(request)
        except AdmissionError:
            _OBS_REJECTED.inc()
            return False
        _OBS_ADMITTED.inc()
        return True

    def drain(
        self, scheduler, shard_workers: Optional[int] = None
    ) -> List[Response]:
        """Serve every queued request through `scheduler`, in rounds.

        Each round is split per shard and handed to
        ``scheduler.run_round``, one non-absorbing obs scope per
        (round, shard); a remote shard's scope holds client-side
        telemetry only (its server's folds in at :meth:`fleet_snapshot`
        and :meth:`close`).  ``shard_workers`` runs a round's shards on that
        many threads; otherwise they run inline, in ascending shard
        order.  Either way the main thread then takes the outcomes in
        ascending shard order: it absorbs each snapshot into the
        caller's registry, folds it into the shard's running total and
        appends the responses — so results and totals do not depend on
        the worker count.  Shards are fully disjoint (a tenant lives on
        exactly one), and threads buy wall-clock only when the shard
        chips release the GIL or live in their own server processes
        (``FleetConfig.remote``).  Responses carry wall-clock latency
        relative to the drain start.
        """
        responses: List[Response] = []
        self._drain_origin = time.perf_counter()
        while len(self.queue):
            round_entries = self.queue.next_round_entries()
            round_no = self.queue.stats.rounds - 1
            # Written before any shard dispatch (threaded or not) and
            # only read inside the round: the deterministic stamps the
            # responses and SLO histograms are built from.
            self._round_stamp = {
                entry.request.tenant: (round_no, entry.submitted_round)
                for entry in round_entries
            }
            self._round_queue_depth = len(self.queue)
            by_shard: Dict[int, List[Request]] = {}
            for entry in round_entries:
                request = entry.request
                shard_id = self.tenants[request.tenant].shard
                by_shard.setdefault(shard_id, []).append(request)
            ordered = sorted(by_shard)

            def run(shard_id: int):
                return self._run_shard_round(
                    scheduler, shard_id, by_shard[shard_id]
                )

            workers = min(shard_workers or 1, len(ordered))
            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(pool.map(run, ordered))
            else:
                outcomes = [run(shard_id) for shard_id in ordered]
            for shard_id, (shard_responses, snapshot) in zip(
                ordered, outcomes
            ):
                self._account(shard_id, snapshot)
                responses.extend(shard_responses)
        # Stale stamps must not leak into out-of-drain execute_round
        # calls (mount_directory): those carry the -1 sentinel instead.
        self._round_stamp = {}
        return responses

    def _run_shard_round(
        self,
        scheduler,
        shard_id: int,
        shard_requests: List[Request],
    ):
        """One (round, shard) execution under a non-absorbing obs scope.

        For a remote shard the scope holds client-side telemetry only:
        the server's is harvested when totals are read, not per round.
        """
        with obs.collect(absorb=False) as col:
            _OBS_SHARD_ROUNDS.inc()
            _OBS_REQUESTS.inc(len(shard_requests))
            _OBS_ROUND_SIZE.observe(len(shard_requests))
            if obs.is_enabled():
                # SLO attribution: deterministic round latencies per op
                # kind and per tenant, plus the round's queue depth.
                # Recorded client-side from the round stamps, so the
                # values — integers, hence exact under any merge order —
                # are identical across schedulers and remote modes.
                _OBS_QUEUE_DEPTH.set(self._round_queue_depth)
                for request in shard_requests:
                    stamp = self._round_stamp.get(request.tenant)
                    if stamp is None:
                        continue
                    latency = stamp[0] - stamp[1] + 1
                    obs.histogram(
                        f"fleet.latency_rounds.kind.{request.kind}"
                    ).observe(latency)
                    obs.histogram(
                        f"fleet.latency_rounds.tenant.{request.tenant}"
                    ).observe(latency)
            shard_responses = scheduler.run_round(
                self, shard_id, shard_requests
            )
        return shard_responses, col.snapshot

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        """Harvest remote shards' telemetry, then shut their servers down.

        Every shard is harvested, closed and joined even when one of
        them fails (a killed server, say); the first error is raised
        afterwards.  A second ``close()`` is a no-op, and in-process
        chips have nothing to harvest or shut down.
        """
        if self._closed:
            return
        self._closed = True
        self._release(harvest=True)

    def _release(self, harvest: bool) -> None:
        """Harvest (optionally), close every remote chip, join every
        server; raise the first error once all of them were tried."""
        errors: List[Exception] = []

        def attempt(action, *args) -> None:
            try:
                action(*args)
            except Exception as exc:
                errors.append(exc)

        if harvest:
            for shard in self.shards:
                attempt(self._harvest_into_totals, shard)
        for shard in self.shards:
            close = getattr(shard.chip, "close", None)
            if close is not None:
                attempt(close)
        for handle in self._server_handles:
            attempt(handle.close)  # type: ignore[attr-defined]
        self._server_handles = []
        if errors:
            raise errors[0]

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the execution engine (shared by both schedulers)

    def execute_round(
        self, shard_id: int, requests: Sequence[Request]
    ) -> List[Response]:
        """Execute requests of one shard-round, phase-batched.

        Requests must target distinct tenants (the queue's
        one-request-per-tenant round invariant): distinct tenants mean
        distinct blocks, so every chip batch below addresses distinct
        locations and the results are bit-identical to executing the
        requests one call at a time — the naive scheduler *is* this
        method invoked per request.
        """
        shard = self.shards[shard_id]
        tenants_seen = {r.tenant for r in requests}
        if len(tenants_seen) != len(requests):
            raise ValueError(
                "a round must hold at most one request per tenant"
            )
        outcome: Dict[int, Response] = {}

        # -- plan writes (tenant-local; may trigger a rebuild) ----------
        write_meta: List[Tuple[Request, TenantState, int, int, bytes]] = []
        for request in requests:
            if request.kind != "write":
                continue
            ts = self.tenants[request.tenant]
            if len(request.payload) > self.slot_payload_bytes:
                outcome[request.tenant] = Response(
                    request.tenant, "write", request.lba, "too_large"
                )
                continue
            if request.lba not in ts.slots and (
                len(ts.slots) >= len(self._host_pages)
            ):
                outcome[request.tenant] = Response(
                    request.tenant, "write", request.lba, "full"
                )
                continue
            if not ts.free_pages:
                self._rebuild(ts, drop_lba=request.lba)
            page = ts.free_pages.pop(0)
            ts.seq += 1
            blob = pack_slot(
                ts.key,
                SlotHeader(request.lba, ts.seq, len(request.payload)),
                request.payload,
            )
            blob += b"\x00" * (self.slot_bytes - len(blob))
            write_meta.append((request, ts, page, ts.seq, blob))

        # -- encode + embed the round's writes in one batch -------------
        if write_meta:
            steps = self._embed_slots(
                shard,
                [(ts, page) for _, ts, page, _, _ in write_meta],
                [blob for _, _, _, _, blob in write_meta],
            )
            for (request, ts, page, seq, _), pp_steps in zip(
                write_meta, steps
            ):
                ts.slots[request.lba] = (page, len(request.payload), seq)
                # Echo the payload so callers can account bytes exactly.
                outcome[request.tenant] = Response(
                    request.tenant, "write", request.lba, "ok",
                    payload=request.payload, pp_steps=pp_steps,
                )

        # -- plan reads -------------------------------------------------
        read_meta: List[Tuple[Request, TenantState, int, int]] = []
        for request in requests:
            if request.kind != "read":
                continue
            ts = self.tenants[request.tenant]
            entry = ts.slots.get(request.lba)
            if entry is None:
                outcome[request.tenant] = Response(
                    request.tenant, "read", request.lba, "not_found"
                )
                continue
            read_meta.append((request, ts, entry[0], entry[1]))

        # -- one threshold read + one batch decode for all reads --------
        if read_meta:
            blobs = self._recover_slots(
                shard, [(ts, page) for _, ts, page, _ in read_meta]
            )
            for (request, ts, page, length), blob in zip(read_meta, blobs):
                response = Response(
                    request.tenant, "read", request.lba, "error"
                )
                if blob is not None:
                    slot = unpack_slot(ts.key, blob)
                    if slot is not None and slot[0].lba == request.lba:
                        response = Response(
                            request.tenant, "read", request.lba, "ok",
                            payload=slot[1],
                        )
                outcome[request.tenant] = response

        # -- mounts: batch-scan every tenant's host pages ---------------
        mount_meta: List[Tuple[Request, TenantState, int]] = []
        for request in requests:
            if request.kind != "mount":
                continue
            ts = self.tenants[request.tenant]
            for page in self._host_pages:
                mount_meta.append((request, ts, page))
        if mount_meta:
            blobs = self._recover_slots(
                shard, [(ts, page) for _, ts, page in mount_meta]
            )
            found: Dict[int, List[Tuple[int, SlotHeader]]] = {}
            for (request, ts, page), blob in zip(mount_meta, blobs):
                slot = None if blob is None else unpack_slot(ts.key, blob)
                if slot is not None:
                    found.setdefault(request.tenant, []).append((page, slot[0]))
            for request in requests:
                if request.kind != "mount":
                    continue
                live = latest_slots(found.get(request.tenant, []))
                directory = tuple(
                    sorted(
                        (lba, header.length)
                        for lba, (_, header) in live.items()
                    )
                )
                outcome[request.tenant] = Response(
                    request.tenant, "mount", 0, "ok", directory=directory
                )

        stamp = time.perf_counter() - self._drain_origin
        return [
            replace(
                outcome[request.tenant],
                latency_s=stamp,
                # Deterministic virtual-time latency: the round stamps
                # written by drain() (absent outside a drain, e.g. the
                # mount_directory convenience path -> (-1, -1)).
                round_index=self._round_stamp.get(
                    request.tenant, (-1, -1)
                )[0],
                submitted_round=self._round_stamp.get(
                    request.tenant, (-1, -1)
                )[1],
            )
            for request in requests
        ]

    # ------------------------------------------------------------------
    # shared helpers

    def _embed_slots(
        self,
        shard: Shard,
        targets: Sequence[Tuple[TenantState, int]],
        blobs: Sequence[bytes],
    ) -> List[int]:
        """Encode and embed slot blobs at (tenant, host page) targets.

        One keyed batch encode and one ``embed_prepared`` over cached
        selection maps; returns the PP steps per target.
        """
        coded = shard.vthi.codec.encode_pages_keyed(
            [ts.key for ts, _ in targets],
            [self.model.geometry.page_address(ts.block, p) for ts, p in targets],
            blobs,
        )
        items = [
            (ts.block, page, self._selection(ts, page)[bits == 0])
            for (ts, page), bits in zip(targets, coded)
        ]
        return [steps for steps, _ in shard.vthi.embed_prepared(items)]

    def _recover_slots(
        self, shard: Shard, targets: Sequence[Tuple[TenantState, int]]
    ) -> List[Optional[bytes]]:
        """Slot blobs at (tenant, host page) targets, ``None`` if
        uncorrectable: one ``recover_prepared`` over cached selections."""
        return shard.vthi.recover_prepared(
            [(ts.block, p, ts.key, self._selection(ts, p)) for ts, p in targets],
            self.slot_bytes,
            on_error="return",
        )

    def _rebuild(self, ts: TenantState, drop_lba: int) -> None:
        """Erase a full tenant block and re-embed its live slots.

        The tenant-volume equivalent of §5.1's re-embedding duty: when
        every host page of the epoch is burned, live payloads (minus the
        LBA being overwritten) are read back, the block is erased, fresh
        cover data is programmed and the survivors are re-embedded.  All
        operations touch only this tenant's block, and the whole
        procedure runs at request-planning time in both schedulers, so
        its position in the tenant's operation sequence is identical
        under naive and coalesced dispatch.
        """
        _OBS_REBUILDS.inc()
        shard = self.shards[ts.shard]
        candidates = sorted(
            (lba, entry)
            for lba, entry in ts.slots.items()
            if lba != drop_lba
        )
        live: List[Tuple[int, Tuple[int, int, int]]] = []
        payloads: List[bytes] = []
        if candidates:
            blobs = self._recover_slots(
                shard, [(ts, entry[0]) for _, entry in candidates]
            )
            for (lba, entry), blob in zip(candidates, blobs):
                if blob is None:
                    # Uncorrectable slot: the data is gone.  Dropping it
                    # (subsequent reads see not_found) keeps the fleet
                    # serving; the decode result — and hence the loss —
                    # is identical under both schedulers.
                    _OBS_LOST_SLOTS.inc()
                    continue
                live.append((lba, entry))
                payloads.append(blob)
        shard.chip.erase_block(ts.block)
        ts.epoch += 1
        ts.cover_bits = {}
        ts.cells = {}
        ts.slots = {}
        covers = {
            page: self._cover_bits(ts.tenant, ts.epoch, page)
            for page in self._host_pages
        }
        shard.chip.program_locations(
            [(ts.block, page) for page in self._host_pages],
            [covers[page] for page in self._host_pages],
        )
        ts.cover_bits = covers
        keep = self._host_pages[: len(live)]
        ts.free_pages = list(self._host_pages[len(live):])
        if live:
            self._embed_slots(shard, [(ts, page) for page in keep], payloads)
            for (lba, entry), page in zip(live, keep):
                ts.slots[lba] = (page, entry[1], entry[2])

    # ------------------------------------------------------------------
    # observability

    def fleet_snapshot(self) -> obs.ObsSnapshot:
        """Fleet totals: per-shard running totals + exact chip op counters.

        Remote shards are harvested first, in ascending order, each as
        one more snapshot of its shard.  Each shard's running total
        holds its snapshots folded in arrival order; shards fold in
        ascending index order; each shard's ``op_counters`` is its
        chip's live totals (set on a copy, never on the running total)
        — so the fleet-wide ``OpCounters`` equals the ordered sum over
        shards, float-exact.
        """
        for shard in self.shards:
            self._harvest_into_totals(shard)
        return obs.merge_snapshots(
            replace(total, op_counters=shard.chip.counters.copy())
            for shard, total in zip(self.shards, self._shard_totals)
        )

    def mount_directory(self, tenant: int) -> Tuple[Tuple[int, int], ...]:
        """Convenience scan of one tenant's volume (outside any round)."""
        ts = self.tenants[tenant]
        responses = self.execute_round(
            ts.shard, [Request(tenant, "mount")]
        )
        return responses[0].directory
