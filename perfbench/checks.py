"""Correctness and deniability checks the benchmark runs on program output.

* :func:`replay_check` replays each tenant's acknowledged writes in FIFO
  order and checks every response against that model: a wrong payload or
  a wrong mount directory is silent corruption and fails the run; typed
  failures (read ``error``, a lost slot, a non-``ok`` write) are counted.
* :func:`folded_auc` and the two ``*_detect_auc`` probes score how well a
  voltage-probing adversary separates pages that hold hidden data from
  pages that hold none, using each page's mean erased-cell voltage.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments import fig6
from repro.experiments.common import (
    default_model,
    experiment_key,
    make_samples,
    random_bits,
    random_page_bits,
)
from repro.hiding.config import STANDARD_CONFIG


class SilentCorruption(AssertionError):
    """A response disagrees with the replayed write history."""


@dataclass
class ReplayStats:
    """What :func:`replay_check` counted over one pass."""

    attempted: int = 0
    #: Typed failures: read ``error``, ``not_found`` on an acknowledged
    #: LBA (a lost slot), a mount missing an acknowledged LBA, or a
    #: non-``ok`` write.
    failed: int = 0
    reads: int = 0
    #: Reads of a never-written LBA (a correct ``not_found``).
    read_misses: int = 0
    writes: int = 0
    #: Payload bytes of ``ok`` reads and writes.
    payload_bytes: int = 0


def replay_check(requests: Sequence, responses: Sequence) -> ReplayStats:
    """Check `responses` against a FIFO replay of `requests`, per tenant."""
    asked: Dict[int, List] = defaultdict(list)
    for request in requests:
        asked[request.tenant].append(request)
    answered: Dict[int, List] = defaultdict(list)
    for response in responses:
        answered[response.tenant].append(response)
    if set(answered) - set(asked):
        raise SilentCorruption("responses for tenants that sent nothing")
    stats = ReplayStats()
    for tenant, tenant_requests in asked.items():
        tenant_responses = answered.get(tenant, [])
        if len(tenant_responses) != len(tenant_requests):
            raise SilentCorruption(
                f"tenant {tenant}: {len(tenant_requests)} requests but "
                f"{len(tenant_responses)} responses"
            )
        volume: Dict[int, bytes] = {}
        #: Acknowledged LBAs whose last read failed, with their payloads.
        #: The slot may still be on the chip, so a mount may list it.
        uncertain: Dict[int, bytes] = {}
        for request, response in zip(tenant_requests, tenant_responses):
            stats.attempted += 1
            if response.kind != request.kind or (
                request.kind != "mount" and response.lba != request.lba
            ):
                raise SilentCorruption(
                    f"tenant {tenant}: answer {response.kind}@{response.lba} "
                    f"to request {request.kind}@{request.lba}"
                )
            if request.kind == "write":
                stats.writes += 1
                if response.status != "ok":
                    stats.failed += 1
                    continue
                uncertain.pop(request.lba, None)
                volume[request.lba] = request.payload
                stats.payload_bytes += len(request.payload)
            elif request.kind == "read":
                stats.reads += 1
                expected = volume.get(request.lba, uncertain.get(request.lba))
                if response.status == "ok":
                    if response.payload != expected:
                        raise SilentCorruption(
                            f"tenant {tenant}: read of lba {request.lba} "
                            f"returned {response.payload!r}, last write "
                            f"was {expected!r}"
                        )
                    stats.payload_bytes += len(response.payload)
                    volume[request.lba] = expected
                    uncertain.pop(request.lba, None)
                elif response.status == "not_found" and expected is None:
                    stats.read_misses += 1
                else:
                    stats.failed += 1
                    if expected is not None:
                        volume.pop(request.lba, None)
                        uncertain[request.lba] = expected
            else:
                if response.status != "ok":
                    stats.failed += 1
                    continue
                found = dict(response.directory)
                for lba, length in found.items():
                    if lba in uncertain:
                        continue
                    if lba not in volume or len(volume[lba]) != length:
                        raise SilentCorruption(
                            f"tenant {tenant}: mount lists ({lba}, {length}); "
                            f"expected {sorted((k, len(v)) for k, v in volume.items())}"
                        )
                lost = [lba for lba in (*volume, *uncertain) if lba not in found]
                if lost:
                    stats.failed += 1
                    for lba in lost:
                        volume.pop(lba, None)
                        uncertain.pop(lba, None)
    return stats


def folded_auc(positive: Sequence[float], negative: Sequence[float]) -> float:
    """``max(AUC, 1 - AUC)`` of a score separating two classes.

    AUC is the Mann-Whitney probability that a random positive scores
    above a random negative (ties count one half).  Folding makes the
    value independent of which class is called positive: 0.5 means the
    detector does no better than chance, 1.0 that it separates fully.
    """
    n_pos, n_neg = len(positive), len(negative)
    if not n_pos or not n_neg:
        raise ValueError("both classes need at least one score")
    scores = np.concatenate(
        [np.asarray(positive, float), np.asarray(negative, float)]
    )
    _, inverse, counts = np.unique(
        scores, return_inverse=True, return_counts=True
    )
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]  # 1-based, ties averaged
    u = ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    auc = u / (n_pos * n_neg)
    return float(max(auc, 1.0 - auc))


def fleet_detect_auc(service) -> float:
    """Detector AUC over a fleet's host pages, probed in its current state.

    Positives hold a live slot; negatives are host pages not embedded in
    the current epoch.  Pages holding only a stale (overwritten) slot
    belong to neither class.  Each page scores the mean probed voltage of
    its erased cells (public bit 1).
    """
    geometry = service.model.geometry
    host_pages = list(service.config.hiding.hidden_pages(geometry.pages_per_block))
    positive: List[float] = []
    negative: List[float] = []
    for shard in service.shards:
        targets = []
        for ts in service.tenants.values():
            if ts.shard != shard.index:
                continue
            live = {page for page, _, _ in ts.slots.values()}
            for page in host_pages:
                if page in live:
                    targets.append((ts.block, page, True, ts.cover_bits[page]))
                elif page in ts.free_pages:
                    targets.append((ts.block, page, False, ts.cover_bits[page]))
        if not targets:
            continue
        voltages = shard.chip.probe_voltages_locations(
            [(block, page) for block, page, _, _ in targets]
        )
        for row, (_, _, holds_slot, cover) in enumerate(targets):
            score = float(voltages[row][cover == 1].mean())
            (positive if holds_slot else negative).append(score)
    return folded_auc(positive, negative)


def fig6_detect_auc(
    experiment_seed: int, hidden_bits: int, max_steps: int
) -> float:
    """Detector AUC at a Fig. 6 operating point.

    Builds the sweep's chip sample for `experiment_seed`, embeds
    `hidden_bits` bits into every page of the even blocks exactly as the
    sweep does, programs public data only into the odd blocks, and
    scores every page.
    """
    chip = make_samples(
        default_model(pages_per_block=8), 1, base_seed=6000 + experiment_seed
    )[0]
    key = experiment_key(f"fig6-{experiment_seed}")
    pages = list(range(chip.geometry.pages_per_block))
    positive: List[float] = []
    negative: List[float] = []
    for block in range(chip.geometry.n_blocks):
        chip.erase_block(block)
        publics = [
            random_page_bits(chip, "fig6-public", block * 1000 + page)
            for page in pages
        ]
        hidden = block % 2 == 0
        if hidden:
            fig6.measure_ber_curves(
                chip, block, pages,
                [random_bits(hidden_bits, "fig6-hidden", block * 100 + page)
                 for page in pages],
                key, STANDARD_CONFIG.threshold, STANDARD_CONFIG.guard,
                max_steps,
            )
        else:
            chip.program_pages(block, pages, publics)
        voltages = chip.probe_voltages_batch(block, pages)
        for row, public in enumerate(publics):
            score = float(voltages[row][public == 1].mean())
            (positive if hidden else negative).append(score)
    return folded_auc(positive, negative)
