"""gf2poly against the bit-serial oracles in gf2_reference.

Moduli cover the x^258 + x^83 + 1 trinomial, the degree-1496 pentanomial,
the circulant modulus x^43 + 1, small table entries and dense moduli,
where each fold clears only one bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gf2_reference as ref
from qclattice import gf2poly
from qclattice.nlf import NlfContext
from qclattice.primitives import poly

SPARSE = [poly(258), poly(1496), (1 << 43) | 1]
DENSE = (1 << 259) - 1  # every coefficient of a degree-258 polynomial

moduli = st.one_of(
    st.sampled_from(SPARSE + [DENSE]),
    st.integers(2, 80).map(poly),
    st.integers(1, 1 << 300),
)

fast = settings(deadline=None, max_examples=150)


@st.composite
def operand_and_modulus(draw):
    """(a, m) with a = 0, a = 1, a < m, or deg a up to 2 deg m."""
    m = draw(moduli)
    dm = m.bit_length() - 1
    a = draw(st.one_of(
        st.just(0),
        st.just(1),
        st.integers(0, (1 << dm) - 1),
        st.integers(0, (1 << (2 * dm + 1)) - 1),
    ))
    return a, m


@fast
@given(st.integers(0, 1 << 600), st.integers(0, 1 << 600))
def test_mul_matches_reference(a, b):
    assert gf2poly.mul(a, b) == ref.mul(a, b)


@fast
@given(operand_and_modulus())
def test_mod_matches_reference(am):
    a, m = am
    assert gf2poly.mod(a, m) == ref.mod(a, m)


@fast
@given(operand_and_modulus())
def test_sqmod_matches_reference(am):
    a, m = am
    assert gf2poly.sqmod(a, m) == ref.sqmod(a, m)


@fast
@given(operand_and_modulus(), st.integers(0, 1 << 600))
def test_mulmod_matches_reference(am, b):
    a, m = am
    assert gf2poly.mulmod(a, b, m) == ref.mod(ref.mul(a, b), m)


@settings(deadline=None, max_examples=40)
@given(moduli, st.integers(0, 1 << 64))
def test_powmod_matches_reference(m, e):
    # every power in the package has base x
    assert gf2poly.xpowmod(e, m) == ref.powmod(2, e, m)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([6, 16, 26, 258, 1496]),
       st.one_of(st.integers(0, 600), st.integers(0, 1 << 80)))
def test_xinvpowmod_matches_inverse_of_xpowmod(deg, e):
    # window digits up to 255 clear up to 255 low bits in one Montgomery step
    g = poly(deg)
    assert gf2poly.xinvpowmod(e, g) == gf2poly.invmod(gf2poly.xpowmod(e, g), g)


def test_mod_by_one_and_by_monomial():
    assert gf2poly.mod(0b1011, 1) == 0
    assert gf2poly.mod((1 << 300) | 0b101, 1 << 8) == 0b101


CTX = {
    "small": NlfContext(poly(6), 5),
    "paper": NlfContext(poly(258), 61),
}


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(CTX)), st.data())
def test_x_power_and_inverse(name, data):
    ctx = CTX[name]
    h = np.array(data.draw(st.lists(st.integers(0, 1), min_size=ctx.d, max_size=ctx.d)),
                 dtype=np.uint8)
    alpha = sum(int(b) << i for i, b in enumerate(h))
    c = gf2poly.xpowmod(ctx._alpha(h), ctx.g)
    cinv = gf2poly.xinvpowmod(ctx._alpha(h), ctx.g)
    assert c == ref.powmod(2, alpha, ctx.g) == gf2poly.xpowmod(alpha, ctx.g)
    assert ref.mod(ref.mul(c, cinv), ctx.g) == 1


@fast
@given(st.integers(0, 1 << 600), st.integers(0, 400))
def test_reverse_matches_reference(a, n):
    assert gf2poly.reverse(a, n) == ref.reverse(a, n)


@fast
@given(moduli, st.integers(1, 700))
def test_inverse_series(f, nbits):
    f |= 1  # f(0) = 1
    inv = gf2poly.inverse_series(f, nbits)
    assert inv < 1 << nbits
    assert ref.mul(inv, f) & ((1 << nbits) - 1) == 1
