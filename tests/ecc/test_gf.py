"""GF(2^m) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import GF2m, PRIMITIVE_POLYS
from repro.ecc.gf import get_field

FIELD = GF2m(8)
nonzero = st.integers(min_value=1, max_value=FIELD.order)
element = st.integers(min_value=0, max_value=FIELD.order)


def test_supported_orders_build():
    for m in PRIMITIVE_POLYS:
        field = GF2m(m)
        assert field.size == 1 << m


def test_unsupported_order_rejected():
    with pytest.raises(ValueError):
        GF2m(20)


def test_exp_log_are_inverse():
    for value in range(1, FIELD.size):
        assert FIELD.exp[FIELD.log[value]] == value


@given(a=nonzero, b=nonzero)
@settings(max_examples=100, deadline=None)
def test_mul_div_inverse(a, b):
    product = FIELD.mul(a, b)
    assert FIELD.div(product, b) == a
    assert FIELD.div(product, a) == b


@given(a=element, b=element, c=element)
@settings(max_examples=100, deadline=None)
def test_mul_is_associative_commutative(a, b, c):
    assert FIELD.mul(a, b) == FIELD.mul(b, a)
    assert FIELD.mul(FIELD.mul(a, b), c) == FIELD.mul(a, FIELD.mul(b, c))


@given(a=element, b=element, c=element)
@settings(max_examples=100, deadline=None)
def test_mul_distributes_over_xor(a, b, c):
    assert FIELD.mul(a, b ^ c) == FIELD.mul(a, b) ^ FIELD.mul(a, c)


@given(a=nonzero)
@settings(max_examples=50, deadline=None)
def test_inverse(a):
    assert FIELD.mul(a, FIELD.inv(a)) == 1


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        FIELD.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        FIELD.inv(0)


@given(a=nonzero, e=st.integers(min_value=0, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_pow_matches_repeated_mul(a, e):
    expected = 1
    for _ in range(e % 30):
        expected = FIELD.mul(expected, a)
    assert FIELD.pow(a, e % 30) == expected


def test_pow_of_zero():
    assert FIELD.pow(0, 0) == 1
    assert FIELD.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        FIELD.pow(0, -1)


def test_alpha_generates_the_group():
    seen = {FIELD.alpha_pow(i) for i in range(FIELD.order)}
    assert len(seen) == FIELD.order


def test_minimal_polynomial_annihilates_element():
    for power in (1, 3, 5):
        alpha_p = FIELD.alpha_pow(power)
        minimal = FIELD.minimal_polynomial(alpha_p)
        assert FIELD.poly_eval(minimal, alpha_p) == 0
        assert all(c in (0, 1) for c in minimal)


def test_poly_mul_known_case():
    # (1 + x)(1 + x) = 1 + x^2 over GF(2)
    field = GF2m(3)
    assert field.poly_mul([1, 1], [1, 1]) == [1, 0, 1]


def _operand_pairs(field):
    """Every (a, b) pair for m <= 8; a seeded sample with forced zeros
    on either side (and both) above that."""
    if field.m <= 8:
        grid = np.arange(field.size, dtype=np.int64)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        return a.ravel(), b.ravel()
    rng = np.random.default_rng(field.m)
    a = rng.integers(0, field.size, 4000, dtype=np.int64)
    b = rng.integers(0, field.size, 4000, dtype=np.int64)
    a[:100] = 0
    b[100:200] = 0
    a[200:250] = b[200:250] = 0
    return a, b


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
def test_sentinel_tables_match_scalar_mul_and_div(m):
    """One gather on the zero-sentinel pair is the scalar product or
    quotient, zero operands included — no mask, no modulo."""
    field = get_field(m)
    log, exp = field.log_np, field.exp_np
    a, b = _operand_pairs(field)
    products = exp[log[a] + log[b]]
    assert products.tolist() == [
        field.mul(x, y) for x, y in zip(a.tolist(), b.tolist())
    ]
    a, b = a[b != 0], b[b != 0]
    quotients = exp[log[a] - log[b] + field.order]
    assert quotients.tolist() == [
        field.div(x, y) for x, y in zip(a.tolist(), b.tolist())
    ]


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
def test_kernel_indices_stay_inside_the_antilog_table(m):
    """Every index the field kernels form lies inside ``exp_np``: real
    sums stay below the sentinel, sums with a zero operand reach at most
    ``2 * log_zero`` (0 * 0), and the index dtype holds that."""
    field = get_field(m)
    zero = field.log_zero
    assert field.log_np[0] == zero
    assert field.log_np[1:].max() == field.order - 1
    # Real sums stay below the sentinel: the largest product index is
    # 2 * (order - 1), the largest quotient index (order - 1) + order.
    assert 2 * field.order - 1 < zero
    # With a zero operand: 0 / b reaches log_zero + order, 0 * 0 the
    # largest index of all.
    largest = 2 * zero
    assert zero + field.order <= largest == field.exp_np.size - 1
    assert not field.exp_np[zero:].any()
    assert np.iinfo(field.log_np.dtype).max >= largest
    if m == 14:
        # The edge: with the sentinel, indices outgrow int16.
        assert largest > np.iinfo(np.int16).max
