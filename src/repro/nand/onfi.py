"""ONFI-style command framing over the chip simulator.

The paper emphasises that VT-HI needs only standard flash interface commands
(§1: "PP steps require only standard flash interface commands [ONFI], i.e.,
PROGRAM and RESET") plus two vendor commands that exist on all modern chips
but whose encodings are NDA'd: voltage probing and reference-threshold
shifting.  This module provides that command-level view: a partial program
really is a PROGRAM whose completion is cut short by RESET, with the
injected charge proportional to how long the program ran before the abort.

The higher layers (:mod:`repro.hiding`, :mod:`repro.ftl`) use the pythonic
:class:`~repro.nand.chip.FlashChip` API directly; :class:`OnfiBus` exists to
document and test the command-level feasibility claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional, Sequence

import numpy as np

from .chip import FlashChip
from .errors import CommandError, NandError


@unique
class Command(Enum):
    """Command opcodes (standard ONFI values; vendor ops use NDA space)."""

    READ = 0x00
    READ_CONFIRM = 0x30
    PROGRAM = 0x80
    PROGRAM_CONFIRM = 0x10
    ERASE = 0x60
    ERASE_CONFIRM = 0xD0
    READ_STATUS = 0x70
    RESET = 0xFF
    #: Vendor: shift the read reference threshold (used by all vendors for
    #: distribution measurement and retention management, §1).
    SET_READ_THRESHOLD = 0xC5
    #: Vendor: probe per-cell voltage levels.
    PROBE_VOLTAGES = 0xC6


#: ONFI 5.x status-register bit positions (Table "Status field
#: definition"): FAIL is the last-operation failure flag, FAILC the
#: previous-operation flag it rolls into on the next command, ARDY/RDY
#: the array/controller ready pair, and WP_n is *active low* — the bit
#: is set when the die is writable.
STATUS_FAIL = 0x01
STATUS_FAILC = 0x02
STATUS_ARDY = 0x20
STATUS_RDY = 0x40
STATUS_WP_N = 0x80


@dataclass(frozen=True, slots=True)
class Status:
    """One decoded ONFI status byte (the READ_STATUS 70h response).

    Encodes and decodes the real register layout so the in-process
    :class:`OnfiBus` and the wire protocol of :mod:`repro.onfi` share a
    single status representation: ``Status.from_byte(s.to_byte()) == s``
    for every field combination, and the undefined/reserved bits are
    never set.
    """

    ready: bool = True
    array_ready: bool = True
    failed: bool = False
    failed_previous: bool = False
    write_protected: bool = False

    def to_byte(self) -> int:
        """Pack into the ONFI SR[7:0] layout (reserved bits zero)."""
        value = 0
        if self.failed:
            value |= STATUS_FAIL
        if self.failed_previous:
            value |= STATUS_FAILC
        if self.array_ready:
            value |= STATUS_ARDY
        if self.ready:
            value |= STATUS_RDY
        if not self.write_protected:
            value |= STATUS_WP_N
        return value

    @classmethod
    def from_byte(cls, value: int) -> "Status":
        """Decode a status byte; reserved bits are ignored."""
        if not 0 <= value <= 0xFF:
            raise CommandError(f"status byte {value} outside 0-255")
        return cls(
            ready=bool(value & STATUS_RDY),
            array_ready=bool(value & STATUS_ARDY),
            failed=bool(value & STATUS_FAIL),
            failed_previous=bool(value & STATUS_FAILC),
            write_protected=not value & STATUS_WP_N,
        )

    def rolled(self, failed: bool) -> "Status":
        """The register after one more operation completes.

        FAIL tracks the operation that just finished; the old FAIL value
        rolls into FAILC (the ONFI cached-op semantics).  Ready bits are
        set — the simulator completes synchronously — and write protect
        is sticky.
        """
        return Status(
            ready=True,
            array_ready=True,
            failed=failed,
            failed_previous=self.failed,
            write_protected=self.write_protected,
        )


def partial_program_fraction(chip: FlashChip, abort_after_us: float) -> float:
    """Map a RESET abort time onto a program-pulse fraction.

    The injected charge is "roughly correlated with the relative time
    that the program operation is executed before being aborted" (§1);
    the full pulse time corresponds to fraction 1.0.  Shared by the
    in-process :class:`OnfiBus` and the wire server of
    :mod:`repro.onfi`, so the PROGRAM + early-RESET sequence charges
    identically on both paths.
    """
    t_pp_us = chip.params.costs.t_partial_program * 1e6
    if not 0 < abort_after_us <= t_pp_us:
        raise CommandError(
            f"abort time {abort_after_us}us outside (0, {t_pp_us}us]"
        )
    return abort_after_us / t_pp_us


class OnfiBus:
    """A command-level host interface to one flash chip.

    Models the host/tester boundary of §6.1: the PC-side software issues
    ONFI command sequences over USB; partial programming is implemented as
    PROGRAM followed by an early RESET.  The wire server of
    :mod:`repro.onfi` keeps its status register and read threshold on
    one of these.
    """

    def __init__(self, chip: FlashChip) -> None:
        self.chip = chip
        self._read_threshold: Optional[float] = None
        self.status = Status()

    @property
    def read_threshold(self) -> Optional[float]:
        """The active read reference shift (``None`` = chip default)."""
        return self._read_threshold

    @read_threshold.setter
    def read_threshold(self, level: Optional[float]) -> None:
        # Validated, but not a completed command: no status roll.
        if level is not None and not 0 <= level <= 255:
            raise CommandError(f"threshold {level} outside 0-255")
        self._read_threshold = level

    def read_status(self) -> Status:
        """READ_STATUS (70h): the current status register, decoded."""
        return self.status

    def record_outcome(self, failed: bool) -> None:
        """Roll the status register after an operation completes.

        Shared by the direct bus methods and the wire server of
        :mod:`repro.onfi`, so both report the same FAIL/FAILC history
        for the same command sequence.
        """
        self.status = self.status.rolled(failed)

    def _complete(self, operation):
        """Run a chip/bus operation and record its status outcome."""
        try:
            result = operation()
        except NandError:
            self.record_outcome(failed=True)
            raise
        self.record_outcome(failed=False)
        return result

    def reset(self) -> None:
        """RESET outside a program cycle: clears volatile settings."""
        self._read_threshold = None
        self.status = Status()

    def set_read_threshold(self, level: Optional[float]) -> None:
        """Vendor command: shift the read reference voltage.

        ``None`` restores the default SLC threshold.
        """
        def apply() -> None:
            self.read_threshold = level

        self._complete(apply)

    def read(self, block: int, page: int) -> np.ndarray:
        """READ/READ_CONFIRM cycle at the current reference threshold."""
        return self._complete(
            lambda: self.chip.read_page(
                block, page, threshold=self._read_threshold
            )
        )

    def probe(self, block: int, page: int) -> np.ndarray:
        """Vendor voltage-probe command."""
        return self._complete(lambda: self.chip.probe_voltages(block, page))

    def program(self, block: int, page: int, data) -> None:
        """PROGRAM/PROGRAM_CONFIRM cycle, run to completion."""
        self._complete(lambda: self.chip.program_page(block, page, data))

    def erase(self, block: int) -> None:
        """ERASE/ERASE_CONFIRM cycle."""
        self._complete(lambda: self.chip.erase_block(block))

    def partial_program(
        self,
        block: int,
        page: int,
        cells: Sequence[int],
        abort_after_us: float = 600.0,
    ) -> None:
        """PROGRAM aborted by RESET after `abort_after_us` microseconds.

        The injected charge is "roughly correlated with the relative time
        that the program operation is executed before being aborted" (§1),
        so the abort time maps onto the pulse ``fraction``.  The paper's
        operating point — the 600 us abort that §8's arithmetic charges per
        PP step — corresponds to fraction 1.0; earlier aborts inject
        proportionally less charge.
        """
        def apply() -> None:
            fraction = partial_program_fraction(self.chip, abort_after_us)
            self.chip.partial_program(block, page, cells, fraction=fraction)

        self._complete(apply)
