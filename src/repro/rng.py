"""Deterministic random-number plumbing.

The simulator must be reproducible (same seed => same chip) while still
exposing the *naturally occurring* randomness the paper leans on:
per-chip manufacturing variation, per-block and per-page offsets,
programming noise, and retention leakage.  Every consumer therefore derives
an independent, stable substream from a root seed plus a structured label,
e.g. ``(chip_seed, "program", block, page, epoch)``.

Deriving substreams through SHA-256 (rather than ad-hoc arithmetic on seeds)
guarantees substreams never collide and never correlate, and that the mapping
is stable across numpy versions.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, Union

import numpy as np

SeedPart = Union[int, str, bytes]


def _encode_part(part: SeedPart) -> bytes:
    if isinstance(part, bytes):
        encoded = part
    elif isinstance(part, str):
        encoded = part.encode("utf-8")
    elif isinstance(part, (int, np.integer)):
        encoded = int(part).to_bytes(16, "little", signed=True)
    else:
        raise TypeError(f"unsupported seed part type: {type(part)!r}")
    return len(encoded).to_bytes(4, "little") + encoded


def derive_seed(root: int, *parts: SeedPart) -> int:
    """Derive a 64-bit seed from a root seed and a structured label.

    The derivation is a SHA-256 hash over an unambiguous encoding of the
    parts, so ``derive_seed(1, "a", 2)`` and ``derive_seed(1, "a2")`` differ.
    """
    hasher = hashlib.sha256()
    hasher.update(int(root).to_bytes(16, "little", signed=True))
    for part in parts:
        hasher.update(_encode_part(part))
    return int.from_bytes(hasher.digest()[:8], "little")


def label_prefix(root: int, *parts: SeedPart) -> bytes:
    """The encoded head ``(root, *parts)`` of a label.

    A family of labels that differ only in their tail encodes the shared
    head once and keeps the bytes; :func:`seed_from_prefix` appends each
    tail.
    """
    prefix = int(root).to_bytes(16, "little", signed=True)
    for part in parts:
        prefix += _encode_part(part)
    return prefix


def seed_from_prefix(prefix: bytes, *parts: SeedPart) -> int:
    """``derive_seed(root, *head, *parts)`` for ``prefix =
    label_prefix(root, *head)``."""
    for part in parts:
        prefix += _encode_part(part)
    return int.from_bytes(hashlib.sha256(prefix).digest()[:8], "little")


def derive_seeds(
    root: int,
    prefix: Sequence[SeedPart],
    varying: Iterable[SeedPart],
    suffix: Sequence[SeedPart] = (),
) -> np.ndarray:
    """Derive many substream seeds that differ in one label position.

    Returns a uint64 array where entry ``i`` equals
    ``derive_seed(root, *prefix, varying[i], *suffix)``.  The shared
    ``(root, *prefix)`` portion is hashed once and forked per element
    (``hasher.copy()``), so deriving a block's worth of per-page seeds is
    one pass instead of a SHA-256 from scratch per page.
    """
    base = hashlib.sha256(label_prefix(root, *prefix))
    tail = b"".join(_encode_part(part) for part in suffix)
    seeds: list = []
    for part in varying:
        hasher = base.copy()
        hasher.update(_encode_part(part))
        hasher.update(tail)
        seeds.append(int.from_bytes(hasher.digest()[:8], "little"))
    return np.asarray(seeds, dtype=np.uint64)


def substream(root: int, *parts: SeedPart) -> np.random.Generator:
    """A numpy Generator on an independent substream for the given label."""
    return np.random.default_rng(derive_seed(root, *parts))


def uniform_field(root: int, *parts: SeedPart, size: int) -> np.ndarray:
    """A repeatable array of U(0,1) draws for the given label.

    Used for latent per-cell properties (leakiness, disturb susceptibility)
    that must be *identical* every time they are consulted, so repeated reads
    of the same page observe consistent physics.
    """
    return substream(root, *parts).random(size, dtype=np.float64)
