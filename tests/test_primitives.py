"""The shipped table against the primitivity claims its docstring makes.

Irreducibility is Rabin's test and the order of x is checked against the
primes dividing 2^n - 1 (gf2_reference, on gf2poly.xpowmod and invmod):
trial division finds them up to degree 24, and degree 258 uses the complete
factorization below.  Other degrees are checked irreducible only.
"""

import pytest

import gf2_reference
from gf2_reference import is_irreducible, is_primitive, order, prime_divisors
from qclattice import gf2poly
from qclattice.errors import InvalidParams
from qclattice.primitives import poly, poly_id, reciprocal, supported_degrees

# Complete factorization of 2**258 - 1 (distinct primes).
FACTORS_2_258_MINUS_1 = (
    3, 7, 431, 1033, 9719, 2099863, 1591582393, 2932031007403,
    15686603697451, 11053036065049294753459639,
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
    # every shipped entry, the degrees 3, 8, 16, 24, 61, 77, 258 and 1496 included
    for deg in supported_degrees():
        assert is_irreducible(poly(deg)), deg
        if deg <= 24:
            assert is_primitive(poly(deg), prime_divisors((1 << deg) - 1)), deg


def test_degree_258_fully_primitive():
    g = poly(258)
    assert is_irreducible(g)
    assert is_primitive(g, FACTORS_2_258_MINUS_1)


def test_rabin_matches_a_sieve():
    # every reducible f of degree <= 8 has a factor of degree 1..4
    reducible = {gf2poly.mul(a, b) for a in range(2, 1 << 5) for b in range(a, 1 << 8)}
    for f in range(5, 1 << 9, 2):  # f(0) = 1, degree 2..8
        assert is_irreducible(f) == (f not in reducible), f


def test_primitivity_rejects_a_short_order():
    # x^4 + x^3 + x^2 + x + 1 is irreducible, but x has order 5, not 15
    assert is_irreducible(0b11111) and not is_primitive(0b11111, [3, 5])


def test_nlf_poly_small_search():
    g = poly(6)
    assert gf2poly.degree(g) == 6
    assert order(g) == 63


def test_nlf_poly_unsupported_degree():
    for shipped in (poly, poly_id, reciprocal):
        with pytest.raises(InvalidParams, match="degree 100"):
            shipped(100)


def test_poly_id_matches_reference():
    # the id is read off the table; the oracle reads it off the coefficients
    for deg in supported_degrees():
        assert poly_id(deg) == gf2_reference.poly_id(poly(deg)), deg
    assert poly_id(3) == "3:1" and poly_id(8) == "8:7,2,1"
    assert poly_id(258) == "258:83" and poly_id(1496) == "1496:13,11,4"
