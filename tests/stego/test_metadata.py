"""Slot metadata (pack/unpack/MAC)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import HidingKey
from repro.stego import HEADER_BYTES, SlotHeader, pack_slot, unpack_slot
from repro.stego.metadata import latest_slots

KEY = HidingKey.generate(b"meta")


@given(
    lba=st.integers(min_value=0, max_value=2**32 - 1),
    seq=st.integers(min_value=0, max_value=2**32 - 1),
    payload=st.binary(max_size=64),
)
@settings(max_examples=60, deadline=None)
def test_pack_unpack_roundtrip(lba, seq, payload):
    blob = pack_slot(KEY, SlotHeader(lba, seq, len(payload)), payload)
    parsed = unpack_slot(KEY, blob)
    assert parsed is not None
    header, got = parsed
    assert (header.lba, header.seq, got) == (lba, seq, payload)


def test_trailing_padding_is_ignored():
    blob = pack_slot(KEY, SlotHeader(1, 2, 3), b"abc")
    parsed = unpack_slot(KEY, blob + b"\x00" * 16)
    assert parsed is not None
    assert parsed[1] == b"abc"


def test_wrong_key_rejects():
    blob = pack_slot(KEY, SlotHeader(1, 2, 3), b"abc")
    other = HidingKey.generate(b"other")
    assert unpack_slot(other, blob) is None


def test_corruption_rejects():
    blob = bytearray(pack_slot(KEY, SlotHeader(1, 2, 3), b"abc"))
    blob[0] ^= 1
    assert unpack_slot(KEY, bytes(blob)) is None


def test_random_bytes_reject():
    import os

    for _ in range(20):
        assert unpack_slot(KEY, os.urandom(HEADER_BYTES + 8)) is None


def test_truncated_blob_rejects():
    blob = pack_slot(KEY, SlotHeader(1, 2, 30), b"x" * 30)
    assert unpack_slot(KEY, blob[: HEADER_BYTES + 5]) is None
    assert unpack_slot(KEY, b"") is None


def test_tombstone():
    blob = pack_slot(KEY, SlotHeader(9, 5, 0), b"")
    header, payload = unpack_slot(KEY, blob)
    assert header.is_tombstone
    assert payload == b""


def test_length_mismatch_rejected_at_pack():
    with pytest.raises(ValueError):
        pack_slot(KEY, SlotHeader(0, 0, 5), b"abc")


def test_field_bounds():
    with pytest.raises(ValueError):
        pack_slot(KEY, SlotHeader(2**32, 0, 0), b"")
    with pytest.raises(ValueError):
        pack_slot(KEY, SlotHeader(0, 2**32, 0), b"")



@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20),
                          st.integers(0, 2)), max_size=12))
@settings(max_examples=60, deadline=None)
def test_latest_slots_is_the_mount_rule(slots):
    """Per LBA the highest-seq live slot, first scanned on ties, unless a
    tombstone (length 0) with a higher seq deletes the LBA."""
    found = [(i, SlotHeader(*slot)) for i, slot in enumerate(slots)]
    live = latest_slots(found)
    for lba in {header.lba for _, header in found}:
        lives = [(h.seq, -i) for i, h in found if h.lba == lba and h.length]
        tombs = [h.seq for _, h in found if h.lba == lba and not h.length]
        if lives and max(lives)[0] >= max(tombs, default=-1):
            assert live[lba][0] == -max(lives)[1]
        else:
            assert lba not in live
    assert latest_slots([]) == {}
