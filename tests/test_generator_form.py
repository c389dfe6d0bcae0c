"""Generator-form U^alpha and windowed x^(+-alpha) against bit-serial oracles.

power_poly_matrix returns the multiplication matrix as one bit sequence per
tap block of g; gf2_reference.power_poly_rows builds the same matrix one row
at a time.  NlfContext builds x^alpha with Frobenius window tables and
x^-alpha as x^-(2^d) x^(2^d - alpha); gf2_reference.powmod squares and
multiplies bit by bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gf2_reference as ref
from qclattice import gf2poly
from qclattice.bitmat import PolyMulMatrix, power_poly_matrix
from qclattice.nlf import NlfContext
from qclattice.primitives import poly

TRINOMIAL = poly(258)  # x^258 + x^83 + 1: two blocks
PENTANOMIAL = poly(1496)  # four blocks


@st.composite
def dense_modulus(draw, max_degree):
    """A random g with g(0) = 1: up to deg g blocks of width 1 and more."""
    n = draw(st.integers(1, max_degree))
    middle = draw(st.integers(0, (1 << max(n - 1, 0)) - 1))
    return (1 << n) | (middle << 1) | 1


moduli = st.one_of(
    st.sampled_from([TRINOMIAL, PENTANOMIAL, (1 << 259) - 1]),
    st.integers(2, 80).map(poly),
    dense_modulus(300),
)


@st.composite
def multiplier(draw, g):
    n = gf2poly.degree(g)
    return draw(st.one_of(
        st.just(0),
        st.just(1),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << (2 * n)) - 1),  # reduced mod g on the way in
    ))


def oracle_dense(g: int, c: int) -> np.ndarray:
    return ref.rows_to_dense(ref.power_poly_rows(g, c), gf2poly.degree(g))


@settings(deadline=None, max_examples=80)
@given(moduli, st.data(), st.integers(0, 2**32 - 1), st.sampled_from([1, 16, 2**52]))
def test_generator_form_matches_row_oracle(g, data, seed, bound):
    c = data.draw(multiplier(g))
    m = power_poly_matrix(g, c)
    want = oracle_dense(g, c)
    assert isinstance(m, PolyMulMatrix)
    assert (m.rows, m.cols) == want.shape
    assert np.array_equal(m.to_dense(), want)
    a = np.random.default_rng(seed).integers(-bound, bound, size=m.rows, endpoint=True)
    assert np.array_equal(m.vecmul(a), a @ want.astype(np.int64))


def test_block_count_follows_taps():
    assert len(power_poly_matrix(TRINOMIAL, 1).gens) == 2
    assert len(power_poly_matrix(PENTANOMIAL, 1).gens) == 4


def test_matrix_for_holds_no_square_array():
    ctx = NlfContext(TRINOMIAL, 61)
    h = np.random.default_rng(0).integers(0, 2, size=61)
    m = ctx.matrix_for(h)
    buffers = {}
    for name in type(m).__slots__:
        value = getattr(m, name)
        for arr in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(arr, np.ndarray):
                base = arr if arr.base is None else arr.base
                buffers[id(base)] = base.nbytes
    assert 0 < sum(buffers.values()) < 16 * 1024


@st.composite
def context_and_alpha(draw):
    """(g, d, alpha) with alpha = 0, 1, 2^d - 1 or random below 2^d."""
    g = draw(st.one_of(
        st.sampled_from([TRINOMIAL, PENTANOMIAL]),
        st.integers(2, 80).map(poly),
        dense_modulus(40),
    ))
    d = draw(st.integers(0, 80))
    top = (1 << d) - 1
    alpha = draw(st.one_of(
        st.just(0), st.just(min(1, top)), st.just(top), st.integers(0, top),
    ))
    return g, d, alpha


@settings(deadline=None, max_examples=120)
@given(context_and_alpha())
def test_windowed_x_power_matches_oracle(case):
    g, d, alpha = case
    ctx = NlfContext(g, d)
    h = np.array([(alpha >> i) & 1 for i in range(d)], dtype=np.uint8)
    c = ctx._x_power(h)
    cinv = ctx._x_power(h, inverse=True)
    assert c == ref.powmod(2, alpha, g)
    assert cinv == ref.powmod(g >> 1, alpha, g)
    assert ref.mod(ref.mul(c, cinv), g) == 1
