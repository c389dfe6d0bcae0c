import numpy as np
import pytest

from gf2_reference import (
    CompanionMatrix,
    companion_power_mod2,
    matmul_mod2,
    matrix_order,
    rank_mod2,
)
from qclattice import gf2poly
from qclattice.bitmat import Circulant, circulant_inverse, circulant_mul
from qclattice.errors import Singular, SingularCirculant
from qclattice.primitives import poly

IDENT3 = np.eye(3, dtype=np.uint8)


def shift_circulant(b, s):
    return Circulant(b, (s,))


def test_circulant_rows_are_shifts():
    c = Circulant(7, (0, 2, 3))
    dense = c.to_dense()
    for i in range(7):
        assert np.array_equal(dense[i], np.roll(dense[0], i))


def test_circulant_mul_identity():
    x = Circulant(9, (1, 4, 6))
    ident = Circulant(9, (0,))
    assert circulant_mul(ident, x) == x
    assert circulant_mul(x, ident) == x


def test_circulant_mul_shift_composition():
    assert circulant_mul(shift_circulant(5, 1), shift_circulant(5, 2)) == shift_circulant(5, 3)


def test_circulant_mul_matches_dense_product():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = Circulant(7, tuple(sorted(rng.choice(7, size=3, replace=False))))
        b = Circulant(7, tuple(sorted(rng.choice(7, size=2, replace=False))))
        got = circulant_mul(a, b).to_dense()
        want = matmul_mod2(a.to_dense(), b.to_dense())
        assert np.array_equal(got, want)


def test_circulant_inverse_identity_and_shift():
    assert circulant_inverse(Circulant(6, (0,))) == Circulant(6, (0,))
    assert circulant_inverse(shift_circulant(5, 1)) == shift_circulant(5, 4)


def test_circulant_inverse_random_verified_by_product():
    rng = np.random.default_rng(4)
    ident = Circulant(17, (0,))
    found = 0
    while found < 10:
        sup = tuple(sorted(rng.choice(17, size=5, replace=False)))
        c = Circulant(17, sup)
        try:
            inv = circulant_inverse(c)
        except SingularCirculant:
            continue
        found += 1
        assert circulant_mul(c, inv) == ident
        assert circulant_mul(inv, c) == ident


def test_circulant_inverse_singular():
    # even weight -> a(1) = 0 -> x+1 divides both a(x) and x^b + 1
    with pytest.raises(SingularCirculant):
        circulant_inverse(Circulant(5, (0, 2)))


def test_companion_requires_unit_constant_term():
    with pytest.raises(Exception):
        CompanionMatrix(0b1010)  # a_0 = 0


def test_companion_structure_and_integer_det():
    for g in (0b1011, 0b10011, poly(6), poly(8)):
        u = CompanionMatrix(g)
        n = u.degree
        dense = u.to_dense().astype(np.int64)
        # rows 0..n-2 shifted unit vectors, last row = coefficients
        assert np.array_equal(dense[: n - 1, 1:], np.eye(n - 1, dtype=np.int64))
        det = round(float(np.linalg.det(dense)))
        assert det in (-1, 1)
        assert rank_mod2(dense) == n


def test_companion_power_identity():
    u = CompanionMatrix(0b1011)
    assert np.array_equal(companion_power_mod2(u, 0), IDENT3)


def test_companion_power_against_repeated_multiplication():
    u = CompanionMatrix(0b1011)  # x^3 + x + 1, order 7
    m = u.to_dense()
    assert np.array_equal(companion_power_mod2(u, 7), IDENT3)
    acc = m
    for alpha in range(2, 9):
        acc = matmul_mod2(acc, m)
        assert np.array_equal(companion_power_mod2(u, alpha), acc)


def test_companion_power_additivity():
    rng = np.random.default_rng(5)
    u = CompanionMatrix(poly(9))
    for _ in range(10):
        a = int(rng.integers(0, 200))
        b = int(rng.integers(0, 200))
        lhs = companion_power_mod2(u, a + b)
        rhs = matmul_mod2(companion_power_mod2(u, a), companion_power_mod2(u, b))
        assert np.array_equal(lhs, rhs)


def test_matrix_order_basics():
    assert matrix_order(np.eye(5, dtype=np.uint8), 10) == 1
    assert matrix_order(CompanionMatrix(0b1011).to_dense(), 10) == 7
    assert matrix_order(CompanionMatrix(0b10011).to_dense(), 20) == 15
    assert matrix_order(CompanionMatrix(0b1011).to_dense(), 5) is None
    with pytest.raises(Singular):
        matrix_order(np.zeros((3, 3), dtype=np.uint8), 5)


def test_matrix_order_primitive_table_small_degrees():
    for deg in range(3, 11):
        u = CompanionMatrix(poly(deg)).to_dense()
        assert matrix_order(u, 1 << deg) == (1 << deg) - 1


def test_gf2poly_helpers():
    # mul/mod consistency with known factorization (x^3+x+1)(x^3+x^2+1) = x^6+x^5+x^4+x^3+x^2+x+1
    assert gf2poly.mul(0b1011, 0b1101) == 0b1111111
    assert gf2poly.mod(0b1111111, 0b1011) == 0
    assert gf2poly.invmod(0b10, 0b1011) == gf2poly.powmod(2, 6, 0b1011)
    assert gf2poly.order(0b1011) == 7
    assert gf2poly.is_irreducible(0b1011)
    assert not gf2poly.is_irreducible(0b1111111)
