import numpy as np
import pytest

from gf2_reference import (
    CompanionMatrix,
    circulant_grid,
    companion_power_mod2,
    is_irreducible,
    matmul_mod2,
    matrix_order,
    order,
    rank_mod2,
)
from qclattice import gf2poly
from qclattice.bitmat import circulants
from qclattice.errors import InvalidParams, Singular, SingularBlock
from qclattice.primitives import poly
from qclattice.rdfcode import QcCode, systematic_generator

IDENT3 = np.eye(3, dtype=np.uint8)


def support_poly(support):
    return sum(1 << s for s in support)


def ring(b):
    """x^b + 1, the modulus of b x b circulant algebra."""
    return (1 << b) | 1


def circulant(b, p):
    """The b x b circulant of first row p: ``circulants`` on one row."""
    return circulants(b, (p,))[0]


def test_circulant_rows_are_shifts():
    dense = circulant(7, support_poly((0, 2, 3)))
    assert dense.dtype == np.uint8 and dense.shape == (7, 7)
    assert np.array_equal(dense[0], [1, 0, 1, 1, 0, 0, 0])
    for i in range(7):
        assert np.array_equal(dense[i], np.roll(dense[0], i))


@pytest.mark.parametrize("b", [1, 2, 3, 7, 8, 43, 64, 187])
def test_circulants_match_grid_oracle(b):
    rng = np.random.default_rng(b)
    for count in (1, 2, 5):
        rows = [int.from_bytes(rng.bytes(b // 8 + 1), "little") % (1 << b) for _ in range(count)]
        rows[0] = (1 << b) - 1  # all ones: each bit of the doubled row in use
        got = circulants(b, rows)
        assert got.dtype == np.uint8 and got.shape == (count, b, b)
        assert np.array_equal(got, [circulant_grid(b, r) for r in rows])
    assert np.array_equal(circulant(b, rows[-1]), circulant_grid(b, rows[-1]))


@pytest.mark.parametrize("row", [1 << 43, 1 << 45, 1 << 50, -1, -(1 << 50)])
def test_circulant_rejects_row_outside_its_block(row):
    # 1 << 45 used to vanish into the byte padding (an all-zero matrix),
    # 1 << 50 and negative rows escaped as OverflowError
    with pytest.raises(InvalidParams):
        circulant(43, row)
    with pytest.raises(InvalidParams):
        circulants(43, [1, row, 2])


def test_circulant_mul_identity():
    x = support_poly((1, 4, 6))
    assert gf2poly.mulmod(1, x, ring(9)) == x
    assert gf2poly.mulmod(x, 1, ring(9)) == x
    assert np.array_equal(circulant(9, 1), np.eye(9, dtype=np.uint8))
    assert np.array_equal(matmul_mod2(circulant(9, 1), circulant(9, x)), circulant(9, x))


def test_circulant_mul_shift_composition():
    assert gf2poly.mulmod(1 << 1, 1 << 2, ring(5)) == 1 << 3
    assert gf2poly.mulmod(1 << 3, 1 << 4, ring(5)) == 1 << 2  # x^7 = x^2
    shift = [circulant(5, 1 << s) for s in range(5)]
    assert np.array_equal(matmul_mod2(shift[1], shift[2]), shift[3])
    assert np.array_equal(matmul_mod2(shift[3], shift[4]), shift[2])


def test_circulant_mul_matches_dense_product():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = support_poly(rng.choice(7, size=3, replace=False).tolist())
        b = support_poly(rng.choice(7, size=2, replace=False).tolist())
        got = circulant(7, gf2poly.mulmod(a, b, ring(7)))
        want = matmul_mod2(circulant(7, a), circulant(7, b))
        assert np.array_equal(got, want)


def test_circulant_inverse_identity_and_shift():
    assert gf2poly.invmod(1, ring(6)) == 1
    assert gf2poly.invmod(1 << 1, ring(5)) == 1 << 4
    assert np.array_equal(
        matmul_mod2(circulant(5, 1 << 1), circulant(5, 1 << 4)), np.eye(5, dtype=np.uint8)
    )


def test_circulant_inverse_random_verified_by_product():
    rng = np.random.default_rng(4)
    ident = np.eye(17, dtype=np.uint8)
    found = 0
    while found < 10:
        p = support_poly(rng.choice(17, size=5, replace=False).tolist())
        inv = gf2poly.invmod(p, ring(17))
        if inv is None:
            continue
        found += 1
        assert np.array_equal(matmul_mod2(circulant(17, p), circulant(17, inv)), ident)
        assert np.array_equal(matmul_mod2(circulant(17, inv), circulant(17, p)), ident)


def test_circulant_inverse_singular():
    # even weight -> a(1) = 0 -> x+1 divides both a(x) and x^b + 1
    assert gf2poly.invmod(support_poly((0, 2)), ring(5)) is None
    assert rank_mod2(circulant(5, support_poly((0, 2)))) < 5
    with pytest.raises(SingularBlock):
        systematic_generator(QcCode(5, 2, 2, ((0, 1), (0, 2))))


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
    assert gf2poly.invmod(0b10, 0b1011) == gf2poly.xpowmod(6, 0b1011)
    assert order(0b1011) == 7
    assert is_irreducible(0b1011)
    assert not is_irreducible(0b1111111)
