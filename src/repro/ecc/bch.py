"""Binary BCH codes: systematic encoding, Berlekamp-Massey decoding.

VT-HI over-provisions hidden cells for ECC (§5.3: "we select more cells for
hidden data than the bits we wish to write"; §6.3/§8 size the parity at ~5%
for the standard configuration and ~14% for the enhanced one).  BCH is the
standard code family for raw NAND, and a t-error-correcting BCH over
GF(2^m) is what the paper's "standard ECC codes" refers to.

The implementation is from scratch: generator polynomial from minimal
polynomials, LFSR-style systematic encoding, syndrome computation,
Berlekamp-Massey for the error locator, and Chien search for the roots.
Shortened codes (fewer data bits than k) are supported, which is how the
hiding layer matches codewords to its per-page hidden-bit budget.

Batch APIs (:meth:`BchCode.encode_many` / :meth:`BchCode.decode_many`)
vectorise the per-page hot paths: encoding XORs one precomputed parity
table entry per data byte (no BLAS, so no thread pool), and decoding
re-encodes the whole batch to find the dirty words, so the common
error-free case never touches Berlekamp-Massey or Chien search.  The
dirty words go one at a time through one kernel: Berlekamp-Massey on
Python ints over the zero-sentinel log/antilog lists of
:mod:`repro.ecc.gf`, t steps instead of 2t when the syndromes satisfy
``S_2j = S_j^2`` (those of a binary word always do), then a Chien
search that evaluates the locator at
every transmitted position in one gather over a precomputed ``(t+1, n)``
exponent matrix.  Codecs are cached in a process-wide registry
(:func:`get_code`), so the expensive generator / remainder / Chien tables
are built once per process — including pool workers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .gf import get_field

#: Metric handles (module-level: no-op attribute lookups when disabled).
#: ``dirty_words`` counts words that missed the re-encode fast path;
#: ``bm_words`` / ``chien_words`` count words through the
#: Berlekamp-Massey and Chien kernels, so a profile shows exactly how
#: much of a run's decode traffic ever touched the algebraic path.
_OBS = {
    "encode_words": obs.counter("bch.encode.words"),
    "decode_words": obs.counter("bch.decode.words"),
    "dirty_words": obs.counter("bch.decode.dirty_words"),
    "bm_words": obs.counter("bch.decode.bm_words"),
    "chien_words": obs.counter("bch.decode.chien_words"),
    "errors_corrected": obs.counter("bch.decode.errors_corrected"),
    "failures": obs.counter("bch.decode.failures"),
}


class EccError(Exception):
    """Raised when a codeword is uncorrectable.

    When raised by a batch decode, :attr:`batch_index` names the failing
    word's position in the input sequence.
    """

    batch_index: Optional[int] = None


@dataclass(frozen=True, slots=True)
class DecodeResult:
    """Decoded data plus correction statistics.

    ``codeword`` is the corrected transmitted word (data + parity) —
    callers that need the exact programmed bit vector (the page pipeline's
    ``correct``) read it instead of re-encoding the data.
    ``error_positions`` lists the corrected bit offsets within the
    transmitted word, ascending (empty for a clean word).
    """

    data: np.ndarray
    corrected_errors: int
    codeword: Optional[np.ndarray] = None
    error_positions: Optional[np.ndarray] = None


class BchCode:
    """A binary BCH(n, k, t) code over GF(2^m), n = 2^m - 1.

    Args:
        m: field degree; the natural code length is ``2^m - 1``.
        t: designed error-correction capability (bits per codeword).
    """

    def __init__(self, m: int, t: int) -> None:
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        self.field = get_field(m)
        self.n = self.field.order
        self.t = t
        generator = [1]
        seen_classes = set()
        for power in range(1, 2 * t + 1):
            element = self.field.alpha_pow(power)
            if element in seen_classes:
                continue
            minimal = self.field.minimal_polynomial(element)
            # Record the whole conjugacy class as covered.
            conj = element
            while conj not in seen_classes:
                seen_classes.add(conj)
                conj = self.field.mul(conj, conj)
            generator = _poly_mul_gf2(generator, minimal)
        #: Generator polynomial coefficients over GF(2), lowest first.
        self.generator = generator
        self.n_parity = len(generator) - 1
        self.k = self.n - self.n_parity
        if self.k <= 0:
            raise ValueError(
                f"BCH(m={m}, t={t}) has no data capacity (k={self.k})"
            )
        self._remainder_table = None
        self._parity_tables: Dict[int, np.ndarray] = {}
        self._power_table_cache = None
        self._chien_table_cache = None
        #: duplicated exp table for vectorised syndromes/Chien — any sum
        #: of two logs indexes it without a modulo.
        self._exp = self.field.exp_np
        #: uint16 copies of the zero-sentinel pair for the Chien kernel:
        #: its (coefficients, word_len) index and value arrays are the
        #: largest on the dirty path.  uint16 is exact — every element
        #: is below 2^14, and an index, log + table, is at most
        #: ``log_zero + order - 1 = 3 * order - 1`` (49148 at m = 14).
        #: int16 is not: at m = 14 a zero coefficient's sentinel index
        #: wraps negative, and ``np.take`` reads it from the table's end.
        self._exp_u16 = self.field.exp_np.astype(np.uint16)
        self._log_u16 = self.field.log_np.astype(np.uint16)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BchCode(n={self.n}, k={self.k}, t={self.t})"

    # ------------------------------------------------------------------

    def encode(self, data_bits: Sequence[int]) -> np.ndarray:
        """Systematically encode up to k data bits.

        Returns ``data + parity`` as a bit array of ``len(data) + n_parity``
        bits.  Shorter-than-k inputs produce a shortened code: the omitted
        leading data bits are implicitly zero and are not transmitted.
        """
        data = np.asarray(data_bits, dtype=np.uint8)
        if data.ndim != 1 or data.size > self.k:
            raise ValueError(
                f"data must be a bit vector of <= {self.k} bits, "
                f"got shape {data.shape}"
            )
        if data.size and not np.isin(data, (0, 1)).all():
            raise ValueError("data must contain only 0/1")
        _OBS["encode_words"].inc()
        parity = self._lfsr_remainder(data)
        return np.concatenate([data, parity])

    def decode(self, codeword_bits: Sequence[int]) -> DecodeResult:
        """Correct up to t errors and return the data bits.

        Raises :class:`EccError` when the word is uncorrectable.
        """
        received = np.asarray(codeword_bits, dtype=np.uint8).copy()
        if received.ndim != 1 or received.size <= self.n_parity:
            raise ValueError(
                f"codeword must be a bit vector longer than "
                f"{self.n_parity} bits, got shape {received.shape}"
            )
        if received.size > self.n:
            raise ValueError(
                f"codeword of {received.size} bits exceeds code length {self.n}"
            )
        shortening = self.n - received.size
        _OBS["decode_words"].inc()
        syndromes = self._syndromes(received, shortening)
        if not any(syndromes):
            return DecodeResult(
                received[: -self.n_parity], 0, received,
                np.zeros(0, dtype=np.int64),
            )
        _OBS["dirty_words"].inc()
        _OBS["bm_words"].inc()
        locator = self._berlekamp_massey(syndromes)
        n_errors = len(locator) - 1
        if n_errors > self.t:
            _OBS["failures"].inc()
            raise EccError(
                f"error locator degree {n_errors} exceeds t={self.t}"
            )
        _OBS["chien_words"].inc()
        positions = self._chien_search(locator, shortening, received.size)
        if len(positions) != n_errors:
            _OBS["failures"].inc()
            raise EccError(
                "Chien search found "
                f"{len(positions)} roots for a degree-{n_errors} locator"
            )
        received[positions] ^= 1
        # Re-check: a decoding beyond capacity can produce bogus fixes.
        if any(self._syndromes(received, shortening)):
            _OBS["failures"].inc()
            raise EccError("correction did not zero the syndromes")
        _OBS["errors_corrected"].inc(n_errors)
        return DecodeResult(
            received[: -self.n_parity], n_errors, received, positions
        )

    # ------------------------------------------------------------------
    # batch APIs: every codeword of a page (or of many pages) in one
    # numpy pass.  Bit-identical to calling encode()/decode() in a loop.

    def encode_many(self, data_words: Sequence) -> List[np.ndarray]:
        """Systematically encode a batch of data words.

        `data_words` is a sequence of bit vectors (or a 2-D bit array);
        words may have different (shortened) lengths.  Returns one codeword
        per input word, identical to ``[self.encode(w) for w in
        data_words]`` — but the parity of every word is computed in one
        vectorised pass over the parity generator matrix instead of one
        gather/XOR per word.
        """
        words = [np.asarray(w, dtype=np.uint8) for w in data_words]
        for i, data in enumerate(words):
            if data.ndim != 1 or data.size > self.k:
                raise ValueError(
                    f"data word {i} must be a bit vector of <= {self.k} "
                    f"bits, got shape {data.shape}"
                )
        _OBS["encode_words"].inc(len(words))
        results: List[Optional[np.ndarray]] = [None] * len(words)
        with obs.span("bch.encode_many", words=len(words)):
            for size, chunk in self._chunks(words):
                stacked = (
                    np.stack([words[i] for i in chunk])
                    if size
                    else np.zeros((len(chunk), 0), dtype=np.uint8)
                )
                if size and not ((stacked == 0) | (stacked == 1)).all():
                    raise ValueError("data must contain only 0/1")
                codewords = self._encode_batch(stacked)
                for row, index in enumerate(chunk):
                    results[index] = codewords[row]
        return results  # type: ignore[return-value]

    def decode_many(
        self, codeword_words: Sequence, on_error: str = "raise"
    ) -> List[DecodeResult]:
        """Correct a batch of codewords; the common error-free case is one
        numpy pass.

        Dispatch is weight-aware: words whose syndromes are all zero —
        the overwhelmingly common case on a healthy page — skip
        Berlekamp-Massey and Chien search entirely; the dirty rest goes
        word by word.  Results are identical to
        ``[self.decode(w) for w in codeword_words]``, so any split of a
        batch decodes alike; an uncorrectable word raises
        :class:`EccError` with ``batch_index`` set to the lowest failing
        input position (the word the scalar loop would have raised on).

        With ``on_error="return"``, uncorrectable words do not raise;
        their result slot holds the :class:`EccError` instance instead
        (``batch_index`` set), so callers probing many words — the hidden
        volume's mount scan — keep the batch amortisation when failures
        are expected.
        """
        if on_error not in ("raise", "return"):
            raise ValueError(f"on_error must be 'raise' or 'return', got {on_error!r}")
        words = [np.asarray(w, dtype=np.uint8) for w in codeword_words]
        for i, received in enumerate(words):
            if received.ndim != 1 or received.size <= self.n_parity:
                raise ValueError(
                    f"codeword {i} must be a bit vector longer than "
                    f"{self.n_parity} bits, got shape {received.shape}"
                )
            if received.size > self.n:
                raise ValueError(
                    f"codeword {i} of {received.size} bits exceeds code "
                    f"length {self.n}"
                )
        _OBS["decode_words"].inc(len(words))
        results: List[Optional[DecodeResult]] = [None] * len(words)
        with obs.span("bch.decode_many", words=len(words)):
            self._decode_many_grouped(words, results, on_error)
        return results  # type: ignore[return-value]

    def _decode_many_grouped(
        self,
        words: List[np.ndarray],
        results: List[Optional[DecodeResult]],
        on_error: str,
    ) -> None:
        """The :meth:`decode_many` dispatch loop, filling `results` in
        place (split out so the batch span wraps exactly the decode
        work).  Raises the lowest-index :class:`EccError` when
        ``on_error="raise"``."""
        first_error: Optional[Tuple[int, EccError]] = None
        for size, indices in self._chunks(words):
            stacked = np.stack([words[i] for i in indices])
            shortening = self.n - size
            # All-zero-syndrome fast path, in one vectorised pass: the
            # syndromes of a received word are all zero iff it is a valid
            # codeword, i.e. iff re-encoding its data bits reproduces it.
            # Batch re-encode (the table kernel) is far cheaper than
            # evaluating 2t syndromes per word.
            reencoded = self._encode_batch(stacked[:, : size - self.n_parity])
            diff = stacked ^ reencoded
            dirty = diff.any(axis=1)
            for row, index in enumerate(indices):
                if dirty[row]:
                    continue
                codeword = stacked[row]
                results[index] = DecodeResult(
                    codeword[: -self.n_parity], 0, codeword,
                    np.zeros(0, dtype=np.int64),
                )
            rows = np.flatnonzero(dirty)
            _OBS["dirty_words"].inc(int(rows.size))
            if not rows.size:
                continue
            # S(received) == S(received ^ reencoded): the re-encoded
            # word is a valid codeword (zero syndromes) and syndromes
            # are GF-linear.  The XOR difference is far sparser than
            # the received word — error-ish set bits instead of ~W/2 —
            # so the gather/reduceat kernel touches 20x fewer cells.
            # (flatnonzero + divmod beats 2-D nonzero ~1.7x here.)
            flat = np.flatnonzero(diff[rows].reshape(-1))
            set_rows, set_cols = np.divmod(flat, size)
            syndromes = self._syndromes_from_bits(
                set_rows, set_cols, rows.size, shortening
            )
            outcomes = self._decode_dirty_rows(
                stacked[rows], syndromes, shortening
            )
            for row, outcome in zip(rows, outcomes):
                index = indices[row]
                if isinstance(outcome, EccError):
                    if on_error == "return":
                        outcome.batch_index = index
                        results[index] = outcome  # type: ignore[call-overload]
                    elif first_error is None or index < first_error[0]:
                        first_error = (index, outcome)
                else:
                    results[index] = outcome
        if first_error is not None:
            index, exc = first_error
            error = EccError(str(exc))
            error.batch_index = index
            raise error

    def _decode_dirty_rows(
        self, received: np.ndarray, syndromes: np.ndarray, shortening: int
    ) -> List:
        """The locator path for words with non-zero syndromes.

        ``received`` is a ``(B, W)`` bit array, ``syndromes`` the matching
        ``(B, 2t)`` int64 array.  Returns one outcome per row — a
        :class:`DecodeResult`, or the :class:`EccError` the scalar decoder
        would have raised for that word (same message, same failure
        class).  Berlekamp-Massey runs on Python ints
        (:meth:`_berlekamp_massey_row`) and each word's Chien search is
        one gather (:meth:`_chien_row`).  The checks run in the scalar
        decoder's order: locator degree, root count, then the syndromes
        of the corrected word.
        """
        outcomes: List = []
        _OBS["bm_words"].inc(received.shape[0])
        searched = solved = corrected = 0
        for row, syndrome_row in enumerate(syndromes.tolist()):
            locator = self._berlekamp_massey_row(syndrome_row)
            degree = len(locator) - 1
            if degree > self.t:
                outcomes.append(EccError(
                    f"error locator degree {degree} exceeds t={self.t}"
                ))
                continue
            searched += 1
            positions = self._chien_row(locator, shortening)
            if positions.size != degree:
                outcomes.append(EccError(
                    "Chien search found "
                    f"{positions.size} roots for a degree-{degree} locator"
                ))
                continue
            # Re-check: a decoding beyond capacity can produce bogus
            # fixes.  S(corrected) = S(received) ^ S(flips), a gather
            # over the <= t flipped positions.
            flips = self._power_table()[
                :, self.n - 1 - shortening - positions
            ]
            if (syndromes[row] ^ np.bitwise_xor.reduce(flips, axis=1)).any():
                outcomes.append(EccError(
                    "correction did not zero the syndromes"
                ))
                continue
            word = received[row].copy()
            word[positions] ^= 1
            solved += 1
            corrected += degree
            outcomes.append(DecodeResult(
                word[: -self.n_parity], degree, word, positions
            ))
        _OBS["chien_words"].inc(searched)
        _OBS["failures"].inc(len(outcomes) - solved)
        _OBS["errors_corrected"].inc(corrected)
        return outcomes

    def _chunks(
        self, words: Sequence[np.ndarray]
    ) -> Iterator[Tuple[int, List[int]]]:
        """``(word length, input indices)`` per batch chunk.

        Words group by length (shortened words batch with their own
        kind), in first-appearance order, and each group splits into
        chunks whose temporaries stay near 4M cells: the ``(rows,
        word_len)`` bit array, the parity table gather, and the
        syndrome gather's ``(2t, set bits)`` int64 array.  A re-encode
        keeps the data bits, so a row of its difference with the
        received word has at most ``n_parity`` set bits.
        """
        groups: Dict[int, List[int]] = {}
        for index, word in enumerate(words):
            groups.setdefault(word.size, []).append(index)
        for size, indices in groups.items():
            step = max(1, 4_000_000 // max(size, 2 * self.t * self.n_parity))
            for start in range(0, len(indices), step):
                yield size, indices[start:start + step]

    # ------------------------------------------------------------------

    def _lfsr_remainder(self, data: np.ndarray) -> np.ndarray:
        """Remainder of x^(n-k) * d(x) modulo g(x), as parity bits.

        Computed as the XOR of per-position remainders (x^degree mod g),
        precomputed once per code, so encoding is a vectorised gather+XOR
        instead of a bit-serial LFSR — page-sized codes need this.
        """
        if data.size == 0:
            return np.zeros(self.n_parity, dtype=np.uint8)
        table = self._position_remainders()
        # Data bit i (of this possibly-shortened word) multiplies
        # x^(data_len - 1 - i + n_parity).
        degrees = (data.size - 1 - np.flatnonzero(data)) + self.n_parity
        if degrees.size == 0:
            return np.zeros(self.n_parity, dtype=np.uint8)
        acc = np.bitwise_xor.reduce(table[degrees], axis=0)
        # acc[i] is the coefficient of x^i; transmitted parity is ordered
        # highest degree first.
        return acc[::-1].copy()

    def _position_remainders(self) -> np.ndarray:
        """x^j mod g(x) for j in [0, n), as bit rows (n, n_parity)."""
        if self._remainder_table is None:
            table = np.zeros((self.n, self.n_parity), dtype=np.uint8)
            gen_low = np.array(self.generator[:-1], dtype=np.uint8)
            current = np.zeros(self.n_parity, dtype=np.uint8)
            current[0] = 1  # x^0
            table[0] = current
            for j in range(1, self.n):
                carry = current[-1]
                current = np.roll(current, 1)
                current[0] = 0
                if carry:
                    current ^= gen_low
                table[j] = current
            self._remainder_table = table
        return self._remainder_table

    def _parity_table(self, length: int) -> np.ndarray:
        """Per-byte parity contributions of a length-`length` word, lazily
        built: shape ``(words, bytes * 256)`` uint64.

        Entry ``[w, 256 * p + v]`` is 64-bit word ``w`` of the packed
        parity (transmitted order, highest degree first) of a word whose
        only set bits are data byte ``p`` holding ``v`` (``np.packbits``
        order, first bit most significant).  A word's parity is the XOR
        of its bytes' entries: exact GF(2), with no BLAS call.
        """
        table = self._parity_tables.get(length)
        if table is None:
            n_bytes = -(-length // 8)
            n_words = -(-self.n_parity // 64)
            # Row i: x^(length - 1 - i + n_parity) mod g(x), data bit i's
            # parity, highest degree first, packed and padded to words.
            degrees = (
                np.arange(length - 1, -1, -1, dtype=np.intp) + self.n_parity
            )
            rows = np.zeros((n_bytes * 8, n_words * 8), dtype=np.uint8)
            rows[:length, : -(-self.n_parity // 8)] = np.packbits(
                self._position_remainders()[degrees][:, ::-1], axis=1
            )
            rows = rows.view(np.uint64).reshape(n_bytes, 8, n_words)
            table = np.zeros((n_words, n_bytes, 256), dtype=np.uint64)
            for bit in range(8):
                # Value bit 2**bit is the byte's data bit 7 - bit.
                table[:, :, 1 << bit: 2 << bit] = (
                    table[:, :, : 1 << bit] ^ rows[:, 7 - bit].T[:, :, None]
                )
            table = table.reshape(n_words, n_bytes * 256)
            self._parity_tables[length] = table
        return table

    def _encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Parity for a uniform-length batch: GF(2) table encode.

        `data` is ``(B, L)`` bits; returns ``(B, L + n_parity)``
        codewords.  Each word's parity is the XOR of one
        :meth:`_parity_table` entry per data byte — one gather and one
        XOR reduction for the batch, in numpy on the calling thread, so
        no encode waits on a BLAS thread pool (a float32 GEMM here
        stalled for milliseconds on a loaded host whenever OpenBLAS
        handed it to its threads).
        """
        n_words, length = data.shape
        if length:
            table = self._parity_table(length)
            packed = np.packbits(data, axis=1).astype(np.intp)
            packed += np.arange(0, table.shape[1], 256, dtype=np.intp)
            words = np.bitwise_xor.reduce(table.take(packed, axis=1), axis=2)
            parity = np.unpackbits(
                np.ascontiguousarray(words.T).view(np.uint8),
                axis=1, count=self.n_parity,
            )
        else:
            parity = np.zeros((n_words, self.n_parity), dtype=np.uint8)
        return np.ascontiguousarray(np.concatenate([data, parity], axis=1))

    def _power_table(self) -> np.ndarray:
        """``alpha^(j * d)`` for j in 1..2t and d in [0, n), lazily built.

        Turns batch syndrome evaluation into a pure gather — no per-call
        exponent multiply/modulo.
        """
        if self._power_table_cache is None:
            js = np.arange(1, 2 * self.t + 1, dtype=np.int64)
            degrees = np.arange(self.n, dtype=np.int64)
            exponents = (js[:, None] * degrees[None, :]) % self.field.order
            self._power_table_cache = self._exp[exponents]
        return self._power_table_cache

    def _syndromes_from_bits(
        self,
        set_rows: np.ndarray,
        set_cols: np.ndarray,
        n_words: int,
        shortening: int,
    ) -> np.ndarray:
        """S_1..S_2t for a batch given as set-bit ``(row, col)`` indices.

        ``set_rows`` must be sorted ascending (row-major nonzero order).
        Returns ``(n_words, 2t)`` int64: one gather over the power table
        plus one XOR ``reduceat``, with no dense ``(B, W)`` array and no
        per-word Python loop.
        """
        out = np.zeros((n_words, 2 * self.t), dtype=np.int64)
        if set_rows.size == 0:
            return out
        degrees = (self.n - 1 - shortening - set_cols).astype(np.int64)
        values = self._power_table()[:, degrees]  # (2t, S)
        counts = np.bincount(set_rows, minlength=n_words)
        boundaries = np.zeros(n_words, dtype=np.int64)
        boundaries[1:] = np.cumsum(counts)[:-1]
        # reduceat over the occupied rows only: their boundaries are
        # strictly increasing and in range, and each segment ends exactly
        # at the next occupied row's start.  (Clamping boundaries of
        # zero-bit rows instead would corrupt the preceding row's
        # segment.)
        occupied = np.flatnonzero(counts)
        acc = np.bitwise_xor.reduceat(
            values, boundaries[occupied], axis=1
        )  # (2t, occupied)
        out[occupied] = acc.T
        return out

    def _syndromes(self, received: np.ndarray, shortening: int) -> List[int]:
        """S_j = r(alpha^j) for j = 1..2t, for a shortened word.

        Bit i of the transmitted array corresponds to polynomial degree
        ``n - 1 - shortening - i``.  Vectorised: for each j, gather
        alpha^(j*degree) for every set bit and XOR-reduce.
        """
        order = self.field.order
        degrees = self.n - 1 - shortening - np.flatnonzero(received).astype(np.int64)
        syndromes = []
        if degrees.size == 0:
            return [0] * (2 * self.t)
        for j in range(1, 2 * self.t + 1):
            idx = (j * degrees) % order
            syndromes.append(int(np.bitwise_xor.reduce(self._exp[idx])))
        return syndromes

    def _berlekamp_massey(self, syndromes: List[int]) -> List[int]:
        """Error-locator polynomial sigma(x), lowest degree first."""
        field = self.field
        sigma = [1]
        prev_sigma = [1]
        prev_discrepancy = 1
        m_gap = 1
        length = 0
        for i, syndrome in enumerate(syndromes):
            # Discrepancy for the current step.
            discrepancy = syndrome
            for j in range(1, length + 1):
                if j < len(sigma) and sigma[j]:
                    discrepancy ^= field.mul(sigma[j], syndromes[i - j])
            if discrepancy == 0:
                m_gap += 1
                continue
            scale = field.div(discrepancy, prev_discrepancy)
            adjustment = [0] * m_gap + [field.mul(scale, c) for c in prev_sigma]
            new_sigma = list(sigma) + [0] * max(
                0, len(adjustment) - len(sigma)
            )
            for j, coeff in enumerate(adjustment):
                new_sigma[j] ^= coeff
            if 2 * length <= i:
                prev_sigma = sigma
                prev_discrepancy = discrepancy
                length = i + 1 - length
                m_gap = 1
            else:
                m_gap += 1
            sigma = new_sigma
        while len(sigma) > 1 and sigma[-1] == 0:
            sigma.pop()
        return sigma

    def _chien_search(
        self, locator: List[int], shortening: int, word_len: int
    ) -> np.ndarray:
        """Bit positions (in the transmitted array) of the located errors.

        Vectorised over positions: X_l = alpha^degree is an error location
        iff sigma(alpha^-degree) == 0, evaluated for all positions at once.
        """
        order = self.field.order
        log = self.field.log
        degrees = self.n - 1 - shortening - np.arange(word_len, dtype=np.int64)
        inv_exponents = (-degrees) % order
        values = np.zeros(word_len, dtype=np.int64)
        for k, coeff in enumerate(locator):
            if coeff == 0:
                continue
            exponent = (log[coeff] + k * inv_exponents) % order
            values ^= self._exp[exponent]
        return np.flatnonzero(values == 0)

    # ------------------------------------------------------------------
    # the dirty path's locator kernels: per-word counterparts of the
    # scalar Berlekamp-Massey / Chien methods above, bit-identical per
    # word

    def _berlekamp_massey_row(self, syndromes: List[int]) -> List[int]:
        """:meth:`_berlekamp_massey` for one word, on Python ints.

        Equal to it on any syndrome sequence.  The field's zero-sentinel
        lists make every product one lookup, and a fixed ``2t + 1``-wide
        sigma needs no growth: taps past a word's own length are zeros,
        which the sentinel turns into zero products.  When
        ``S_2j = S_j^2`` for every j, as it is for the syndromes of any
        binary word, the odd (0-based) steps are skipped: that identity
        makes their discrepancy zero (Berlekamp's simplification for
        binary BCH), so all they would do is advance the gap counter.
        t steps run instead of 2t.
        """
        exp, log = self.field.exp, self.field.log
        order = self.field.order
        n_syndromes = len(syndromes)
        log_s = [log[s] for s in syndromes]
        binary = all(
            exp[2 * log_s[j]] == syndromes[2 * j + 1]
            for j in range(n_syndromes // 2)
        )
        step = 2 if binary else 1
        sigma = [1] + [0] * n_syndromes
        prev = sigma
        log_prev_discrepancy = 0
        gap = 1
        length = prev_length = 0
        for i in range(0, n_syndromes, step):
            discrepancy = syndromes[i]
            for j in range(1, length + 1):
                discrepancy ^= exp[log[sigma[j]] + log_s[i - j]]
            if discrepancy == 0:
                gap += step
                continue
            log_scale = (log[discrepancy] - log_prev_discrepancy) % order
            # prev's taps beyond prev_length are zero, and Massey's
            # bookkeeping keeps gap + prev_length = i + 1 - length <= 2t.
            adjusted = sigma.copy()
            for k in range(prev_length + 1):
                adjusted[gap + k] ^= exp[log_scale + log[prev[k]]]
            if 2 * length <= i:
                prev, prev_length = sigma, length
                log_prev_discrepancy = log[discrepancy]
                length = i + 1 - length
                gap = step
            else:
                gap += step
            sigma = adjusted
        degree = n_syndromes
        while degree and sigma[degree] == 0:
            degree -= 1
        return sigma[: degree + 1]

    def _chien_row(self, locator: List[int], shortening: int) -> np.ndarray:
        """:meth:`_chien_search` in one gather: every coefficient of the
        locator at every transmitted position, XOR-reduced over the
        coefficients; the roots are the zeros, ascending.  ``locator``
        has degree <= t and constant term 1, as every Berlekamp-Massey
        locator does: that term is 1 at every position, so the gather
        skips it and the roots are where the rest sums to 1.  A zero
        coefficient's sentinel log lands in the antilog table's zero
        tail, so it contributes nothing."""
        table = self._chien_table()[1 : len(locator), shortening:]
        values = np.bitwise_xor.reduce(
            np.take(self._exp_u16, self._log_u16[locator[1:]][:, None] + table),
            axis=0,
        )
        return np.flatnonzero(values == 1)

    def _chien_table(self) -> np.ndarray:
        """``(k * -d) mod order`` for k in 0..t and every degree d < n.

        The evaluation-point exponent matrix of :meth:`_chien_row`, in
        uint16 and in transmission order: column j holds degree
        ``n - 1 - j``, so a word shortened by s reads the contiguous
        columns ``s:``.  Coefficient k of a locator contributes
        ``alpha^(log(coeff) + table[k, j])`` at column j.  Lazily built
        and cached per codec — i.e. once per ``(m, t)`` per process via
        the :func:`get_code` registry.
        """
        if self._chien_table_cache is None:
            degrees = np.arange(self.n - 1, -1, -1, dtype=np.int64)
            inv_exponents = (-degrees) % self.field.order
            ks = np.arange(self.t + 1, dtype=np.int64)
            self._chien_table_cache = (
                (ks[:, None] * inv_exponents[None, :]) % self.field.order
            ).astype(np.uint16)
        return self._chien_table_cache


#: Process-wide codec registry.  Generator polynomial and remainder-table
#: construction are O(n * n_parity) — page-sized codes take milliseconds —
#: so codecs are built once per (m, t) per process (pool workers included)
#: and shared by every pipeline, payload codec and experiment unit.
_CODES: Dict[Tuple[int, int], BchCode] = {}
_CODES_LOCK = threading.Lock()


def get_code(m: int, t: int) -> BchCode:
    """The cached ``BchCode(m, t)`` instance for this process.

    Thread-safe; the instance is immutable apart from its lazily-built
    lookup tables, so sharing it across threads and call sites is sound.
    """
    key = (m, t)
    code = _CODES.get(key)
    if code is None:
        with _CODES_LOCK:
            code = _CODES.get(key)
            if code is None:
                code = BchCode(m, t)
                # Lock-guarded process-wide memo; the value is a pure
                # function of the key, so double-build is benign and the
                # thread backend can never observe divergent codecs.
                _CODES[key] = code
    return code


def _poly_mul_gf2(p: List[int], q: List[int]) -> List[int]:
    """Multiply polynomials with GF(2) coefficients."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] ^= a & b
    return out
