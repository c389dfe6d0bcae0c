import pytest

from gf2_reference import order
from qclattice import gf2poly
from qclattice.errors import InvalidParams
from qclattice.primitives import (
    FACTORS_2_258_MINUS_1,
    nlf_poly,
    poly,
    reciprocal,
    supported_degrees,
    taps,
    verify_entry,
)


def test_table_covers_working_range():
    degs = supported_degrees()
    assert set(range(2, 81)) <= set(degs)
    assert 258 in degs and 1496 in degs


def test_orders_by_brute_force_small_degrees():
    for deg in range(2, 15):
        assert order(poly(deg)) == (1 << deg) - 1


def test_reciprocal_is_primitive_and_distinct():
    for deg in range(3, 12):
        rec = reciprocal(deg)
        assert rec != poly(deg)
        assert order(rec) == (1 << deg) - 1


def test_factor_list_is_complete():
    prod = 1
    n = (1 << 258) - 1
    for p in FACTORS_2_258_MINUS_1:
        while n % p == 0:
            n //= p
            prod *= p
    assert n == 1


def test_verify_entries():
    for deg in (3, 8, 16, 24, 61, 77, 258, 1496):
        assert verify_entry(deg)


def test_degree_258_fully_primitive():
    g = poly(258)
    assert gf2poly.is_irreducible(g)
    assert gf2poly.is_primitive(g, FACTORS_2_258_MINUS_1)


def test_nlf_poly_small_search():
    g = nlf_poly(6)
    assert gf2poly.degree(g) == 6
    assert order(g) == 63


def test_nlf_poly_unsupported_degree():
    with pytest.raises(InvalidParams):
        nlf_poly(100)


def test_taps_lookup():
    assert taps(258) == (83,)
    with pytest.raises(InvalidParams):
        taps(1000)
