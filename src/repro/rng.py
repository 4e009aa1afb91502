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

A per-cell field that is read a few cells at a time draws from
:func:`counter_words` instead of a stream: each value is a keyed hash of
its label seed, cell and lane, so any subset of cells costs in
proportion to its size.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, Tuple, Union

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


#: SplitMix64's Weyl increment (odd), its finalizer's multipliers, and
#: the counters each cell owns: counter ``LANES * cell + lane``.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
LANES = 4
_MASK = (1 << 64) - 1


def word_uniforms(words: np.ndarray) -> np.ndarray:
    """U[0, 1) float64 draws, one per 64-bit word: its top 53 bits,
    scaled.  A caller evaluating several fields in one
    :func:`counter_words` call takes the uniforms of its own rows."""
    uniforms = np.right_shift(words, 11).astype(np.float64)
    uniforms *= 2.0**-53
    return uniforms


def counter_words(
    cells: np.ndarray, keys: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Counter-based 64-bit words: ``(len(keys), cells.size)`` uint64.

    Entry ``[k, i]`` is a pure function of ``(seed, cells[i], lane)``
    for ``(seed, lane) = keys[k]``: the SplitMix64 finalizer of ``seed +
    (LANES * cell + lane) * gamma`` (mod 2**64).  A field that needs
    several narrow uniforms per cell splits one word into bit fields
    instead of hashing a lane for each.  `seed` is a label seed
    (:func:`derive_seed`); ``0 <= lane < LANES``.
    """
    offsets = np.array(
        [(seed + lane * _GAMMA) & _MASK for seed, lane in keys],
        dtype=np.uint64,
    )
    steps = cells.astype(np.uint64)
    steps *= np.uint64(LANES * _GAMMA & _MASK)
    x = np.add(offsets[:, None], steps)
    del steps
    shifted = np.empty_like(x)
    for shift, multiplier in ((30, _MIX1), (27, _MIX2), (31, None)):
        x ^= np.right_shift(x, shift, out=shifted)
        if multiplier is not None:
            x *= multiplier
    del shifted  # at most two (keys, cells) arrays are ever alive
    return x


def box_muller(radial: np.ndarray, angular: np.ndarray) -> np.ndarray:
    """Standard normals from two independent U[0, 1) arrays (Box–Muller,
    cosine branch): ``sqrt(-2 ln(1 - radial)) * cos(2 pi angular)``."""
    radius = np.log1p(-radial)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    return radius * np.cos(angular * (2.0 * np.pi))


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
