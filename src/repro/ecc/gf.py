"""Galois field GF(2^m) arithmetic.

The base layer for the BCH codec.  Elements are represented as integers in
``[0, 2^m)`` whose bits are polynomial coefficients over GF(2); arithmetic
uses precomputed exponential/logarithm tables over a primitive element.

Besides the scalar ops, the field carries one zero-sentinel table pair on
which products and quotients are single lookups, zero operands included:
``exp[log[a] + log[b]]`` is ``a * b`` and ``exp[log[a] - log[b] + order]``
is ``a / b`` for ``b != 0``.  It comes twice: as Python lists
(:attr:`GF2m.log` / :attr:`GF2m.exp`), which the per-word
Berlekamp-Massey kernel in :mod:`repro.ecc.bch` indexes with Python
ints, and as numpy arrays (:attr:`GF2m.log_np` / :attr:`GF2m.exp_np`),
from which the codec's syndrome power table and its Chien kernel's
uint16 copies are built.
"""

from __future__ import annotations

import threading
from typing import Dict, List

import numpy as np

#: Primitive polynomials (including the x^m term) for GF(2^m), m = 2..14.
#: Standard choices from the coding-theory literature.
PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
}


#: Process-wide field registry: exp/log tables are pure functions of ``m``,
#: so every codec (and every pool worker) shares one instance per field.
_FIELDS: Dict[int, "GF2m"] = {}
_FIELDS_LOCK = threading.Lock()


def get_field(m: int) -> "GF2m":
    """The cached GF(2^m) instance for this process.

    Building the tables is O(2^m); hot paths construct codecs per page, so
    the registry makes field construction a dictionary lookup after the
    first use.  Thread-safe (the thread execution backend shares it).
    """
    field = _FIELDS.get(m)
    if field is None:
        with _FIELDS_LOCK:
            field = _FIELDS.get(m)
            if field is None:
                field = GF2m(m)
                # Lock-guarded process-wide memo; exp/log tables are a
                # pure function of m, so sharing across workers is sound.
                _FIELDS[m] = field
    return field


class GF2m:
    """GF(2^m) with table-based arithmetic."""

    def __init__(self, m: int) -> None:
        if m not in PRIMITIVE_POLYS:
            raise ValueError(
                f"unsupported field order 2^{m}; supported m: "
                f"{sorted(PRIMITIVE_POLYS)}"
            )
        self.m = m
        self.size = 1 << m
        #: Multiplicative group order.
        self.order = self.size - 1
        self.poly = PRIMITIVE_POLYS[m]
        #: The zero-sentinel table pair: ``exp`` is the duplicated
        #: antilog table followed by zeros up to index ``2 * log_zero``,
        #: and ``log[0]`` is the sentinel ``log_zero``.  Product
        #: indices (log + log) and quotient indices (log - log + order,
        #: nonzero divisor) of nonzero elements stay below
        #: ``2 * order = log_zero``; with a zero operand they land in the
        #: zero tail.  So one lookup computes either, with no modulo and
        #: no zero test.
        self.log_zero = 2 * self.order
        self.exp: List[int] = [0] * (2 * self.log_zero + 1)
        self.log: List[int] = [0] * self.size
        value = 1
        for i in range(self.order):
            self.exp[i] = value
            self.log[value] = i
            value <<= 1
            if value & self.size:
                value ^= self.poly
        if value != 1:
            raise AssertionError(f"polynomial {self.poly:#b} is not primitive")
        # Duplicate the exp table so products of logs need no modulo.
        for i in range(self.order, 2 * self.order):
            self.exp[i] = self.exp[i - self.order]
        self.log[0] = self.log_zero
        #: The same pair as numpy arrays, int64: an index can reach
        #: ``2 * log_zero`` (0 * 0), past the int16 range for m = 14.
        self.exp_np = np.array(self.exp, dtype=np.int64)
        self.log_np = np.array(self.log, dtype=np.int64)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        return self.exp[(self.log[a] - self.log[b]) % self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        return self.exp[self.order - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self.exp[(self.log[a] * e) % self.order]

    def alpha_pow(self, e: int) -> int:
        """alpha^e for the primitive element alpha."""
        return self.exp[e % self.order]

    # ------------------------------------------------------------------
    # polynomials over the field, coefficient lists lowest-degree first

    def poly_mul(self, p: List[int], q: List[int]) -> List[int]:
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a == 0:
                continue
            for j, b in enumerate(q):
                if b:
                    out[i + j] ^= self.mul(a, b)
        return out

    def poly_eval(self, p: List[int], x: int) -> int:
        """Evaluate polynomial at x (Horner's method)."""
        result = 0
        for coeff in reversed(p):
            result = self.mul(result, x) ^ coeff
        return result

    def minimal_polynomial(self, element: int) -> List[int]:
        """Minimal polynomial of a field element over GF(2).

        Product of (x - e^(2^i)) over the element's conjugacy class; the
        result has GF(2) coefficients (0/1), lowest degree first.
        """
        conjugates = []
        current = element
        while current not in conjugates:
            conjugates.append(current)
            current = self.mul(current, current)
        poly = [1]
        for conj in conjugates:
            poly = self.poly_mul(poly, [conj, 1])
        if any(c not in (0, 1) for c in poly):
            raise AssertionError("minimal polynomial not over GF(2)")
        return poly
