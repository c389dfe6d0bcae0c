import numpy as np
import pytest

from gf2_reference import (
    CompanionMatrix,
    anf_degree,
    companion_power_mod2,
    matmul_mod2,
    matrix_of,
    nlf_derivative,
    nlf_truth_table,
    powmod,
)
from qclattice import gf2poly, primitives
from qclattice.bitmat import power_poly_matrix
from qclattice.errors import InvalidParams, NotInLattice
from qclattice.nlf import NlfContext
from qclattice.primitives import poly


def bits_from_int(val, width):
    return np.array([(val >> i) & 1 for i in range(width)], dtype=np.uint8)


def f_matrix(ctx, h):
    """U^alpha for control h, read off apply_f."""
    return matrix_of(lambda e: ctx.apply_f(e, h), ctx.n)


@pytest.fixture(scope="module")
def ctx_small():
    return NlfContext(poly(6), 2)


@pytest.fixture(scope="module")
def ctx_paper():
    return NlfContext(poly(258), 61)


def test_apply_identity_control(ctx_small):
    a = np.array([5, -3, 2, 0, 7, -1], dtype=np.int64)
    assert np.array_equal(ctx_small.apply_f(a, [0, 0]), a)


def test_apply_matches_companion_row():
    # degree 3, d = 1: control (1,) selects U itself; e_0 U = row 0 of U
    ctx = NlfContext(0b1011, 1)
    u = CompanionMatrix(0b1011).to_dense().astype(np.int64)
    e0 = np.array([1, 0, 0], dtype=np.int64)
    assert np.array_equal(ctx.apply_f(e0, [1]), u[0])


def test_apply_additivity(ctx_small):
    rng = np.random.default_rng(0)
    for _ in range(20):
        a1 = rng.integers(-100, 100, size=6)
        a2 = rng.integers(-100, 100, size=6)
        h = rng.integers(0, 2, size=2)
        lhs = ctx_small.apply_f(a1 + a2, h)
        rhs = ctx_small.apply_f(a1, h) + ctx_small.apply_f(a2, h)
        assert np.array_equal(lhs, rhs)


def test_stage_decomposition_equals_direct_power_exhaustive():
    # every control value at a small degree
    g = poly(16)
    d = 4
    ctx = NlfContext(g, d)
    u = CompanionMatrix(g)
    stages = [matrix_of(power_poly_matrix(g, gf2poly.xpowmod(1 << i, g)).vecmul, 16)
              for i in range(d)]
    for hval in range(1 << d):
        h = bits_from_int(hval, d)
        direct = companion_power_mod2(u, hval)
        assert np.array_equal(f_matrix(ctx, h), direct)
        chained = np.eye(16, dtype=np.uint8)
        for i in range(d):
            if (hval >> i) & 1:
                chained = matmul_mod2(chained, stages[i])
        assert np.array_equal(chained, direct)


def test_stage_decomposition_random_large(ctx_paper):
    rng = np.random.default_rng(1)
    u = CompanionMatrix(poly(258))
    for _ in range(3):
        h = rng.integers(0, 2, size=61)
        alpha = int(sum(int(b) << i for i, b in enumerate(h)))
        assert np.array_equal(f_matrix(ctx_paper, h), companion_power_mod2(u, alpha))


def test_invert_roundtrip_small(ctx_small):
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.integers(-10**6, 10**6, size=6)
        h = rng.integers(0, 2, size=2)
        x = ctx_small.apply_f(a, h)
        assert np.array_equal(ctx_small.invert_f(x, h), a)


def test_invert_roundtrip_paper_scale(ctx_paper):
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.integers(-1000, 1000, size=258)
        h = rng.integers(0, 2, size=61)
        x = ctx_paper.apply_f(a, h)
        assert np.array_equal(ctx_paper.invert_f(x, h), a)


def test_invert_identity_control(ctx_small):
    x = np.array([9, -9, 4, 4, 0, 1], dtype=np.int64)
    assert np.array_equal(ctx_small.invert_f(x, [0, 0]), x)


def test_invert_detects_missing_preimage():
    # find a control whose matrix has |det| > 1, then walk off the lattice
    ctx = NlfContext(poly(6), 3)
    rng = np.random.default_rng(4)
    for hval in range(1, 8):
        h = bits_from_int(hval, 3)
        dense = f_matrix(ctx, h)
        det = round(float(np.linalg.det(dense.astype(float))))
        if abs(det) == 1:
            continue
        base = np.array([3, -1, 0, 2, 5, -4]) @ dense
        hits = 0
        for i in range(6):
            x = base.copy()
            x[i] += 1
            try:
                v = ctx.invert_f(x, h)
                assert np.array_equal(v @ dense, x)
            except NotInLattice:
                hits += 1
        assert hits > 0
        return
    pytest.skip("all small controls unimodular for this polynomial")


def test_f_mod2_matches_matrix(ctx_small):
    # F' = apply_f mod 2 is a times the companion power U^alpha over GF(2)
    u = CompanionMatrix(ctx_small.g)
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.integers(0, 2, size=6)
        h = rng.integers(0, 2, size=2)
        want = (a @ companion_power_mod2(u, int(h[0] + 2 * h[1]))) % 2
        assert np.array_equal(ctx_small.apply_f(a, h) & 1, want)


def test_anf_degree_zero_control_width():
    tt = nlf_truth_table(NlfContext(poly(6), 0))
    for i in range(6):
        assert anf_degree(tt[:, i]) == 1


@pytest.mark.parametrize("n,d", [(6, 2), (8, 3)])
def test_anf_degree_components(n, d):
    tt = nlf_truth_table(NlfContext(poly(n), d))
    for i in range(n):
        assert anf_degree(tt[:, i]) == d + 1


@pytest.mark.parametrize("n,d", [(6, 2), (8, 3)])
def test_anf_degree_combinations(n, d):
    tt = nlf_truth_table(NlfContext(poly(n), d))
    rng = np.random.default_rng(6)
    for _ in range(20):
        w = rng.integers(0, 2, size=n)
        while not w.any():
            w = rng.integers(0, 2, size=n)
        assert anf_degree(tt @ w & 1) == d + 1


def test_higher_derivative_order_zero(ctx_small):
    rng = np.random.default_rng(7)
    base = rng.integers(0, 2, size=6)
    h = np.array([1, 0], dtype=np.uint8)
    assert np.array_equal(nlf_derivative(ctx_small, [], base, h), ctx_small.apply_f(base, h) & 1)


def test_higher_derivative_order_one_linearity(ctx_small):
    rng = np.random.default_rng(8)
    h = np.array([1, 1], dtype=np.uint8)
    e2 = np.zeros(6, dtype=np.uint8)
    e2[2] = 1
    for _ in range(10):
        base = rng.integers(0, 2, size=6)
        d1 = nlf_derivative(ctx_small, [2], base, h)
        assert np.array_equal(d1, ctx_small.apply_f(e2, h) & 1)


def test_higher_derivative_top_order_base_independent(ctx_small):
    d = ctx_small.d
    rng = np.random.default_rng(9)
    h = np.array([1, 0], dtype=np.uint8)
    dirs = list(range(d + 1))
    ref = None
    for _ in range(50):
        base = rng.integers(0, 2, size=6)
        val = nlf_derivative(ctx_small, dirs, base, h)
        if ref is None:
            ref = val
        assert np.array_equal(val, ref)


def test_control_vector_length_enforced(ctx_small):
    with pytest.raises(InvalidParams):
        ctx_small.apply_f(np.zeros(6, dtype=np.int64), [1])


@pytest.mark.parametrize("method", ["apply_f", "invert_f"])
@pytest.mark.parametrize("bad", [
    [-1, 0], [256, 0], [np.nan, 0], [2, 0], [0.7, 0], [[0, 1], [0]],
], ids=["-1", "256", "nan", "2", "0.7", "ragged"])
def test_control_entries_other_than_0_and_1_fail_typed(ctx_small, method, bad):
    with pytest.raises(InvalidParams):
        getattr(ctx_small, method)(np.zeros(6, dtype=np.int64), bad)


def test_control_bits_of_any_dtype(ctx_small):
    a = np.arange(6, dtype=np.int64)
    want = ctx_small.apply_f(a, np.array([1, 0], dtype=np.uint8))
    for h in ([1, 0], [True, False], [1.0, 0.0]):
        assert np.array_equal(ctx_small.apply_f(a, h), want)


def test_memoization_consistency(ctx_small):
    rng = np.random.default_rng(10)
    h = np.array([1, 1], dtype=np.uint8)
    a = rng.integers(-50, 50, size=6)
    first = ctx_small.apply_f(a, h)
    for _ in range(3):
        assert np.array_equal(ctx_small.apply_f(a, h), first)


def test_gf2poly_stage_inverses(ctx_small):
    g = ctx_small.g
    for i in range(ctx_small.d):
        s = gf2poly.xpowmod(1 << i, g)
        sinv = powmod(g >> 1, 1 << i, g)
        assert gf2poly.mulmod(s, sinv, g) == 1


def test_invert_rejects_int64_wrapped_preimage(ctx_small):
    # x = v @ dense wraps in int64, so the exact integer product v M is not
    # x, yet the int64 check v @ dense == x passes; np.abs(-2**63) is
    # -2**63, so an abs-based bound check would let this v through
    h = np.array([1, 0], dtype=np.uint8)
    v = np.array([-(2**63), 0, 0, 0, 0, -3], dtype=np.int64)
    dense = f_matrix(ctx_small, h)
    x = v @ dense
    assert any(int(xi) != sum(int(vi) * int(mi) for vi, mi in zip(v, col))
               for xi, col in zip(x, dense.T))
    with pytest.raises(NotInLattice):
        ctx_small.invert_f(x, h)


@pytest.mark.parametrize("deg", primitives.supported_degrees())
def test_x_neg_pow2_matches_invmod(deg):
    # gf2poly.xinvpowmod's x^-(2^d) against the inverse of x^(2^d) by Euclid
    g = poly(deg)
    for d in (0, 1, 2, 7, 61, 80):
        want = gf2poly.invmod(gf2poly.xpowmod(1 << d, g), g)
        assert gf2poly.xinvpowmod(1 << d, g) == want
